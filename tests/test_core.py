import base64
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_reference import (
    ConeClass,
    RefGaussian,
    bhattacharyya_distance_matrix,
    color_class,
    dense_greedy_pairs,
    ref_bhattacharyya_distance,
)
from map_reference import pose_array
from conetrack.core import (
    COV_EIGENVALUE_FLOOR,
    ObservationBatch,
    Pose2,
    SensorSource,
    Velocity2,
    bhattacharyya_distances,
    body_frame_point,
    color_probabilities,
    compose,
    greedy_pairs,
    integrate_velocity,
    invert,
    normalize_angle,
    project_spd,
    relative_pose,
)
from conetrack.local_map import snapshot_from_dict


def random_pose(rng):
    return Pose2(*rng.uniform(-10, 10, size=2), rng.uniform(-math.pi, math.pi))


class TestPose:
    def test_theta_normalized_to_half_open_interval(self):
        assert Pose2(0, 0, math.pi).theta == pytest.approx(math.pi)
        assert Pose2(0, 0, -math.pi).theta == pytest.approx(math.pi)
        assert Pose2(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Pose2(0, 0, 2 * math.pi).theta == pytest.approx(0.0, abs=1e-12)

    def test_compose_identity_both_sides(self):
        p = Pose2(1.5, -2.0, 0.7)
        ident = Pose2.identity()
        for q in (compose(ident, p), compose(p, ident)):
            assert pose_array(q) == pytest.approx(pose_array(p), abs=1e-12)

    def test_compose_quarter_turn(self):
        # (1, 0, pi/2) (+) (1, 0, 0) -> (1, 1, pi/2)
        q = compose(Pose2(1, 0, math.pi / 2), Pose2(1, 0, 0))
        assert q.x == pytest.approx(1.0, abs=1e-12)
        assert q.y == pytest.approx(1.0, abs=1e-12)
        assert q.theta == pytest.approx(math.pi / 2)

    def test_compose_associative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = pose_array(compose(compose(a, b), c))
            right = pose_array(compose(a, compose(b, c)))
            assert np.allclose(left[:2], right[:2], atol=1e-10)
            assert abs(normalize_angle(left[2] - right[2])) < 1e-10

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_pose(rng)
            back = compose(p, invert(p))
            assert pose_array(back) == pytest.approx([0, 0, 0], abs=1e-10)

    def test_relative_pose_recovers_increment(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, d = random_pose(rng), random_pose(rng)
            b = compose(a, d)
            assert pose_array(relative_pose(a, b)) == pytest.approx(pose_array(d), abs=1e-10)


class TestBodyFramePoint:
    @staticmethod
    def stacked(pose, point):
        """The body-frame points as one ``np.stack`` of the two rotated columns."""
        c, s = math.cos(pose.theta), math.sin(pose.theta)
        p = np.asarray(point, dtype=float)
        dx, dy = p[..., 0] - pose.x, p[..., 1] - pose.y
        return np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1)

    @pytest.mark.parametrize("shape", [(2,), (0, 2), (7, 2), (3, 4, 2)])
    def test_equals_the_stacked_columns(self, shape):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pose = random_pose(rng)
            points = rng.normal(scale=rng.choice([1.0, 100.0, 1e4]), size=shape)
            mine, theirs = body_frame_point(pose, points), self.stacked(pose, points)
            assert (mine.shape, mine.tobytes()) == (theirs.shape, theirs.tobytes())


class TestVelocityIntegration:
    def test_zero_velocity_keeps_pose(self):
        p = Pose2(3, 4, 1.0)
        q = integrate_velocity(p, Velocity2.zero(), 5.0)
        assert pose_array(q) == pytest.approx(pose_array(p))

    def test_straight_line(self):
        q = integrate_velocity(Pose2(0, 0, 0), Velocity2(1, 0, 0), 2.0)
        assert pose_array(q) == pytest.approx([2, 0, 0])

    def test_heading_rotates_body_velocity(self):
        q = integrate_velocity(Pose2(0, 0, math.pi / 2), Velocity2(1, 0, 0), 1.0)
        assert q.x == pytest.approx(0.0, abs=1e-12)
        assert q.y == pytest.approx(1.0)
        assert q.theta == pytest.approx(math.pi / 2)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            integrate_velocity(Pose2.identity(), Velocity2(1, 0, 0), -0.1)

    def test_substepping_converges_to_exact_arc(self):
        # Constant-twist motion has a closed form; Euler sub-steps must
        # approach it at first order.
        vel = Velocity2(2.0, 0.5, 0.8)
        total = 1.5
        theta0 = 0.3
        w = vel.yaw_rate
        # exact displacement of the continuous integral, world frame
        sw, cw = math.sin(w * total), math.cos(w * total)
        mat = np.array([[sw, cw - 1.0], [1.0 - cw, sw]]) / w
        c0, s0 = math.cos(theta0), math.sin(theta0)
        rot0 = np.array([[c0, -s0], [s0, c0]])
        exact = rot0 @ mat @ np.array([vel.vx, vel.vy])

        def euler_error(n):
            pose = Pose2(0, 0, theta0)
            for _ in range(n):
                pose = integrate_velocity(pose, vel, total / n)
            return float(np.hypot(pose.x - exact[0], pose.y - exact[1]))

        errs = [euler_error(n) for n in (1, 4, 16, 64, 256)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 0.01
        # first-order: quadrupling the steps shrinks the error ~4x
        assert errs[2] / errs[4] > 8.0


def one_cone_record(mean=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)), evidence=(1.0, 0.0, 0.0)):
    """A snapshot log record holding one cone, each column the base64 of its little-endian bytes."""

    def column(values, dtype="<f8"):
        return base64.b64encode(np.array(values, dtype).tobytes()).decode("ascii")

    cones = {"count": 1, "id": column([0], "<i8"), "means_m": column(mean), "cov_m2": column(cov),
             "color_evidence": column(evidence), "existence": column([0.5]), "last_seen_s": column([0.0])}
    return {"cones": cones, "ego": {"x_m": 0.0, "y_m": 0.0, "theta_rad": 0.0}, "mode": "fusion",
            "observed_ids": [0], "timestamp_s": 0.0}


class TestColorDistribution:
    """Colour evidence and the distribution it normalizes to."""

    def test_validates_sum(self):
        for evidence in ((0.0, 0.0, 0.0), (-0.5, 0.5, 0.5)):
            with pytest.raises(ValueError, match="color_evidence"):
                snapshot_from_dict(one_cone_record(evidence=evidence))

    def test_from_evidence_normalizes_and_is_idempotent(self):
        (d,) = color_probabilities(np.array([[2.0, 1.0, 1.0]]))
        assert d == pytest.approx([0.5, 0.25, 0.25])
        (again,) = color_probabilities(np.array([d]))
        assert again == pytest.approx(d, abs=1e-15)

    def test_argmax_class(self):
        assert color_class(color_probabilities(np.array([[0.7, 0.2, 0.1]]))[0]) is ConeClass.BLUE
        assert color_class(color_probabilities(np.array([[0.1, 0.8, 0.1]]))[0]) is ConeClass.YELLOW

    def test_rows_without_positive_evidence_read_as_unknown(self):
        evidence = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [math.nan, 1.0, 1.0], [-1.0, 0.5, 0.0], [3.0, 1.0, 0.0]])
        assert color_probabilities(evidence).tolist() == [[0.0, 0.0, 1.0]] * 4 + [[0.75, 0.25, 0.0]]


class TestGaussian:
    """Position Gaussians as the pipeline holds them: covariance stacks, and the log rows they are read from."""

    def test_spd_projection_floors_eigenvalues(self):
        (cov,) = project_spd(np.array([[[1e-15, 0], [0, 1.0]]]))
        vals = np.linalg.eigvalsh(cov)
        assert vals.min() >= 1e-9 * (1 - 1e-12)

    def test_symmetrizes(self):
        (cov,) = project_spd(np.array([[[1.0, 0.3], [0.1, 1.0]]]))
        assert cov[0, 1] == pytest.approx(cov[1, 0])
        assert cov[0, 1] == pytest.approx(0.2)

    def test_arrays_read_only(self):
        batch = ObservationBatch(SensorSource.FUSION, 0.0, np.zeros((1, 2)), np.eye(2)[None], np.ones((1, 3)) / 3)
        with pytest.raises(ValueError):
            batch.means[0, 0] = 9.0

    def test_project_spd_keeps_good_matrices(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(project_spd(np.stack([cov, 3.0 * cov])), [cov, 3.0 * cov])

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ((math.nan, 0.0), [[1.0, 0.0], [0.0, 1.0]]),
            ((0.0, math.inf), [[1.0, 0.0], [0.0, 1.0]]),
            ((0.0, 0.0), [[math.nan, 0.0], [0.0, 1.0]]),
            ((0.0, 0.0), [[1.0, math.inf], [math.inf, 1.0]]),
            ((0.0, 0.0), [[1.0, 0.0], [0.0, -math.inf]]),
        ],
    )
    def test_rejects_non_finite(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            snapshot_from_dict(one_cone_record(mean, cov))


def eigh_projection(cov, floor=COV_EIGENVALUE_FLOOR):
    """The eigh-always projection that project_spd's closed-form test stands in for."""
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= floor:
        return sym
    return (vecs * np.maximum(vals, floor)) @ vecs.T


def rotated(l1, l2, theta):
    """Exactly symmetric R diag(l1, l2) R^T."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    m = rot @ np.diag([l1, l2]) @ rot.T
    return 0.5 * (m + m.T)


entries = st.floats(-1e6, 1e6, allow_nan=False)
# one eigenvalue within 1e-3 relative of the floor, the other up to 1e6
near_floor = st.builds(
    lambda r, big, theta: rotated(COV_EIGENVALUE_FLOOR * (1 + r), big, theta),
    st.floats(-1e-3, 1e-3),
    st.floats(COV_EIGENVALUE_FLOOR, 1e6),
    st.floats(-math.pi, math.pi),
)
symmetric = st.one_of(st.builds(lambda a, b, d: np.array([[a, b], [b, d]]), entries, entries, entries), near_floor)


class TestProjectSpdProperties:
    @settings(max_examples=400, deadline=None)
    @given(symmetric)
    def test_closed_form_decision_agrees_with_eigh(self, cov):
        # the projection equals the eigh-always one bit for bit, for any stack shape
        expected = eigh_projection(cov)
        assert np.array_equal(project_spd(cov[None])[0], expected)
        assert np.array_equal(project_spd(np.stack([cov, cov.T]))[1], expected)
        stack = np.stack([np.stack([cov, cov.T])] * 3, axis=1).transpose(1, 0, 2, 3)  # (3, 2, 2, 2), not C-contiguous
        assert all(np.array_equal(m, expected) for m in project_spd(stack).reshape(-1, 2, 2))


def distance(a, b):
    """The pairwise form for one pair of Gaussians."""
    return float(bhattacharyya_distances(a.mean[None], a.cov[None], b.mean[None], b.cov[None])[0])


def pairwise_matrix(means_a, covs_a, means_b, covs_b):
    """Every (a, b) distance of the pairwise form, as the all-pairs matrix lays them out."""
    n, m = len(means_a), len(means_b)
    rows, cols = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
    return bhattacharyya_distances(means_a[rows], covs_a[rows], means_b[cols], covs_b[cols]).reshape(n, m)


class TestBhattacharyya:
    def test_identical_is_zero(self):
        g = RefGaussian(np.array([1.0, 2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert distance(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_separation(self):
        a = RefGaussian.isotropic([0, 0], 1.0)
        b = RefGaussian.isotropic([1, 0], 1.0)
        assert distance(a, b) == pytest.approx(0.125, abs=1e-12)

    def test_covariance_mismatch_term(self):
        a = RefGaussian.isotropic([3, -1], 1.0)
        b = RefGaussian(np.array([3.0, -1.0]), 4.0 * np.eye(2))
        assert distance(a, b) == pytest.approx(math.log(2.5 / 2.0), abs=1e-12)

    def test_symmetric_and_zero_iff_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            means = rng.normal(size=(2, 2))
            covs = []
            for _ in range(2):
                m = rng.normal(size=(2, 2))
                covs.append(m @ m.T + 0.1 * np.eye(2))
            a = RefGaussian(means[0], covs[0])
            b = RefGaussian(means[1], covs[1])
            dab = distance(a, b)
            dba = distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab > 0.0

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(12)
        gas, gbs = [], []
        for _ in range(5):
            m = rng.normal(size=(2, 2))
            gas.append(RefGaussian(rng.normal(size=2), m @ m.T + 0.2 * np.eye(2)))
        for _ in range(7):
            m = rng.normal(size=(2, 2))
            gbs.append(RefGaussian(rng.normal(size=2), m @ m.T + 0.2 * np.eye(2)))
        arrays = (
            np.array([g.mean for g in gas]),
            np.array([g.cov for g in gas]),
            np.array([g.mean for g in gbs]),
            np.array([g.cov for g in gbs]),
        )
        mat = pairwise_matrix(*arrays)
        assert np.array_equal(mat, bhattacharyya_distance_matrix(*arrays))  # bit for bit
        for i, a in enumerate(gas):
            for j, b in enumerate(gbs):
                assert mat[i, j] == pytest.approx(ref_bhattacharyya_distance(a, b), abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50), st.floats(-50, 50), st.floats(1e-3, 1e2), st.floats(1e-3, 1e2), st.floats(-math.pi, math.pi)
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_matrix_equals_scalar_property(self, specs):
        gaussians = []
        for x, y, l1, l2, theta in specs:
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            gaussians.append(RefGaussian(np.array([x, y]), rot @ np.diag([l1, l2]) @ rot.T))
        means = np.array([g.mean for g in gaussians])
        covs = np.array([g.cov for g in gaussians])
        mat = pairwise_matrix(means, covs, means[::-1], covs[::-1])
        assert np.array_equal(mat, bhattacharyya_distance_matrix(means, covs, means[::-1], covs[::-1]))
        for i, a in enumerate(gaussians):
            for j, b in enumerate(gaussians[::-1]):
                assert mat[i, j] == pytest.approx(ref_bhattacharyya_distance(a, b), rel=1e-9, abs=1e-9)


def ref_greedy_pairs(dist, gate):
    """Pairs in ascending (distance, row, column) order, each row and column used once."""
    candidates = sorted((d, r, c) for (r, c), d in np.ndenumerate(dist) if d <= gate)
    used_rows, used_cols, pairs = set(), set(), []
    for _, r, c in candidates:
        if r not in used_rows and c not in used_cols:
            used_rows.add(r)
            used_cols.add(c)
            pairs.append((r, c))
    return sorted(pairs)


def gated_pairs(dist, gate):
    """:func:`greedy_pairs` over the entries of ``dist`` within ``gate``, fed in row-major order."""
    rows, cols = np.nonzero(dist <= gate)
    return greedy_pairs(rows, cols, dist[rows, cols])


class TestGreedyPairs:
    def test_ties_go_to_the_lower_row_then_the_lower_column(self):
        dist = np.array([[1.0, 1.0], [1.0, 0.5]])
        assert gated_pairs(dist, 2.0) == [(0, 0), (1, 1)]
        assert gated_pairs(np.ones((2, 2)), 2.0) == [(0, 0), (1, 1)]
        assert gated_pairs(np.array([[3.0, 1.0]]), 2.0) == [(0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_matches_the_sorted_reference(self, rows, cols, seed):
        # small integer distances, so ties are common
        dist = np.random.default_rng(seed).integers(0, 4, size=(rows, cols)).astype(float)
        assert gated_pairs(dist, 2.0) == ref_greedy_pairs(dist, 2.0) == dense_greedy_pairs(dist, 2.0)
