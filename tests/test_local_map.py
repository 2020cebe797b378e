import base64
import dataclasses
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cone_reference import (
    RefCone,
    ConeClass,
    RefGaussian,
    all_pairs_associate,
    array_ingest_frame,
    bhattacharyya_distance_matrix,
    color_class,
    color_probabilities,
    cone_table,
    greedy_associate,
    ref_bhattacharyya_distance,
    ref_snapshot_from_dict,
)
from map_reference import pose_array
from conetrack.core import (
    MAX_LOG_COORDINATE_M,
    ObservationBatch,
    Pose2,
    SensorSource,
    Velocity2,
    integrate_velocity,
    project_spd,
    rotate_covariance,
    transform_point,
)
from conetrack.config import load_config
from conetrack.local_map import (
    MAX_SNAPSHOT_TIME_S,
    ConeTable,
    LocalMapConfig,
    LocalMapSnapshot,
    LocalMapState,
    MapMode,
    SchemaMismatchError,
    SnapshotLogWriter,
    _gate_half_width,
    _grow_covariances,
    associate,
    ingest_frame,
    read_snapshot_log,
    snapshot_from_dict,
    update_position,
)
from conetrack.pipeline import run_pipeline
from conetrack.simulate import (
    CenterlineGeometry,
    TrackSpec,
    centerline_poses,
    default_profile,
    discrete_frames,
    generate_track,
    noise_free_profile,
    noisy_velocity,
    observe_cones,
)

CONFIG = LocalMapConfig()


def make_cone(cid=0, mean=(0.0, 0.0), sigma=0.3, evidence=(1.0, 0.0, 0.0), existence=0.5, last_seen=0.0):
    return RefCone(
        id=cid,
        position=RefGaussian.isotropic(np.array(mean, dtype=float), sigma),
        color_evidence=np.array(evidence) + 1e-12,
        existence=existence,
        last_seen=last_seen,
    )


def make_obs(mean, sigma=0.1, color=(1.0, 0.0, 0.0), t=0.0, source=SensorSource.FUSION):
    """One detection, as a one-row batch."""
    position = RefGaussian.isotropic(np.array(mean, dtype=float), sigma)
    return ObservationBatch(source, t, position.mean[None], position.cov[None], np.array([color], dtype=float))


def joined(*batches):
    """The rows of same-source batches, in order, as one batch."""
    first = batches[0]
    columns = (np.concatenate([getattr(b, name) for b in batches]) for name in ("means", "covs", "colors"))
    return ObservationBatch(first.source, first.timestamp, *columns)


def per_source(*observations):
    """One batch per source of one-row batches, rows in the given order."""
    groups: dict = {}
    for o in observations:
        groups.setdefault(o.source, []).append(o)
    return [joined(*group) for group in groups.values()]


def empty_batch(source):
    return ObservationBatch(source, 0.0, np.zeros((0, 2)), np.zeros((0, 2, 2)), np.zeros((0, 3)))


def position_of(obs):
    """The one detection of a one-row batch as a Gaussian."""
    return RefGaussian(obs.means[0], obs.covs[0])


def map_of(*cones):
    """A map of the given cones, whose next new cone takes the id after the highest."""
    return LocalMapState(cones=cone_table(cones), next_cone_id=max((c.id + 1 for c in cones), default=0))


def obs_arrays(observations):
    """(k, 2) means and (k, 2, 2) covariances of one-row batches."""
    if not observations:
        return np.zeros((0, 2)), np.zeros((0, 2, 2))
    batch = joined(*observations)
    return batch.means, batch.covs


def snapshot_to_dict(snapshot: LocalMapSnapshot) -> dict:
    """One snapshot log row as a dict; ``json.dumps(..., sort_keys=True)`` of it is the log line's reference bytes."""
    cones = snapshot.cones
    columns = (cones.ids, cones.means, cones.covs, cones.color_evidence, cones.existence, cones.last_seen)
    return {
        "timestamp_s": snapshot.timestamp,
        "mode": snapshot.mode.value,
        "ego": {"x_m": snapshot.ego.x, "y_m": snapshot.ego.y, "theta_rad": snapshot.ego.theta},
        "observed_ids": sorted(snapshot.observed_ids),
        "cones": [
            {"id": cid, "x_m": x, "y_m": y, "cov_m2": cov, "color_evidence": ev, "existence": e, "last_seen_s": t}
            for cid, (x, y), cov, ev, e, t in zip(*(column.tolist() for column in columns))
        ],
    }


def match(cones, observations):
    """:func:`associate`'s (observation, cone row) pairs for one-row batches against ``cones``."""
    return associate(cones.means, cones.covs, *obs_arrays(observations), CONFIG.gate_distance)


def id_pairs(cones, pairs):
    """``pairs`` with each cone row replaced by that cone's id."""
    return tuple((o, int(cones.ids[c])) for o, c in pairs)


def new_observations(pairs, count):
    """The indices of ``count`` observations that are in none of ``pairs``."""
    return tuple(sorted(set(range(count)).difference(o for o, _ in pairs)))


def unseen_ids(before, after, config=CONFIG):
    """Ids of ``before``'s cones that the frame to ``after`` counted unseen in the frustum: decayed, or pruned."""
    existence = dict(zip(after.cones.ids.tolist(), after.cones.existence.tolist()))
    decayed = zip(before.cones.ids.tolist(), (before.cones.existence * config.existence_decay).tolist())
    return tuple(cid for cid, e in decayed if existence.get(cid, e) == e)


def still_frame(state, observations=()):
    """The state after one zero-``dt`` frame of the given one-row batches."""
    return ingest_frame(state, per_source(*observations), Velocity2.zero(), 0.0, CONFIG)[0]


def kalman(cone, obs):
    """One Kalman update through the array API: the updated mean and covariance."""
    means, covs = update_position(cone.position.mean[None], cone.position.cov[None], obs.means, obs.covs)
    return means[0], covs[0]


class TestPredict:
    def test_zero_dt_leaves_ego_time_and_cones_as_they_are(self):
        state = map_of(make_cone())
        out, _ = ingest_frame(state, [], Velocity2(1, 0, 0), 0.0, CONFIG)
        assert (out.ego, out.time) == (state.ego, state.time)
        for name in ("ids", "means", "covs", "color_evidence", "last_seen"):
            assert np.array_equal(getattr(out.cones, name), getattr(state.cones, name)), name

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError, match="dt must be non-negative"):
            ingest_frame(map_of(make_cone()), [], Velocity2.zero(), -0.1, CONFIG)

    def test_covariance_grows_additively(self):
        cfg = replace(CONFIG, process_noise_rate=(0.01, 0.01))
        cone = make_cone(sigma=0.3)
        state = map_of(cone)
        out, _ = ingest_frame(state, [], Velocity2.zero(), 1.0, cfg)
        grown = out.cones.covs[0]
        assert np.allclose(grown, cone.position.cov + np.diag([0.01, 0.01]))
        assert np.allclose(out.cones.means[0], cone.position.mean)

    def test_covariance_growth_saturates_at_ceiling(self):
        cfg = replace(CONFIG, process_noise_rate=(0.05, 0.05), covariance_ceiling=0.25)
        covs = map_of(make_cone(sigma=0.45)).cones.covs
        for _ in range(50):
            covs = _grow_covariances(covs, 1.0, cfg)
        cov = covs[0]
        assert 0.5 * (cov[0, 0] + cov[1, 1]) <= 0.25 + 1e-9

    def test_two_half_steps_equal_one_full_step(self):
        covs = map_of(make_cone()).cones.covs
        once = _grow_covariances(covs, 1.0, CONFIG)
        twice = _grow_covariances(_grow_covariances(covs, 0.5, CONFIG), 0.5, CONFIG)
        assert np.allclose(once[0], twice[0], atol=1e-12)

    def test_ego_advances(self):
        state = LocalMapState()
        out, _ = ingest_frame(state, [], Velocity2(2.0, 0.0, 0.0), 0.5, CONFIG)
        assert pose_array(out.ego) == pytest.approx([1.0, 0.0, 0.0])
        assert out.time == pytest.approx(0.5)


class TestAssociate:
    def test_empty_map_all_new(self):
        state = LocalMapState()
        pairs = match(state.cones, [make_obs((1, 0)), make_obs((2, 0))])
        assert pairs == []
        assert new_observations(pairs, 2) == (0, 1)

    def test_exact_hit_matches(self):
        state = map_of(make_cone(3, (4.0, 1.0), sigma=0.2))
        obs = [make_obs((4.0, 1.0), sigma=0.2)]
        assert id_pairs(state.cones, match(state.cones, obs)) == ((0, 3),)
        assert unseen_ids(state, still_frame(state, obs)) == ()

    def test_matches_closer_of_two_cones_vs_bruteforce(self):
        rng = np.random.default_rng(21)
        cones = {
            0: make_cone(0, (0.0, 0.0), sigma=0.25),
            1: make_cone(1, (4.0, 0.0), sigma=0.25),
        }
        state = map_of(*cones.values())
        for _ in range(300):
            z = np.array([2.0, 0.0]) + rng.normal(scale=0.6, size=2)
            obs = make_obs(z, sigma=0.2)
            pairs = match(state.cones, [obs])
            dists = {cid: ref_bhattacharyya_distance(position_of(obs), c.position) for cid, c in cones.items()}
            best = min(dists, key=lambda cid: (dists[cid], cid))
            if dists[best] <= CONFIG.gate_distance:
                assert id_pairs(state.cones, pairs) == ((0, best),)
            else:
                assert new_observations(pairs, 1) == (0,)

    def test_one_to_one_greedy(self):
        state = map_of(make_cone(0, (5.0, 0.0), sigma=0.3))
        obs = [make_obs((5.0, 0.05), sigma=0.3), make_obs((5.0, -0.4), sigma=0.3)]
        pairs = match(state.cones, obs)
        assert id_pairs(state.cones, pairs) == ((0, 0),)
        assert new_observations(pairs, 2) == (1,)

    def test_gate_rejects_distant(self):
        state = map_of(make_cone(0, (5.0, 0.0), sigma=0.1))
        obs = [make_obs((9.0, 0.0), sigma=0.1)]
        pairs = match(state.cones, obs)
        assert pairs == []
        assert new_observations(pairs, 1) == (0,)
        assert unseen_ids(state, still_frame(state, obs)) == (0,)

    def test_ties_go_to_the_lower_cone_id_then_the_lower_observation_index(self):
        # the observation sits exactly between cones 2 and 5
        state = map_of(make_cone(5, (-0.3, 0.0), sigma=0.3), make_cone(2, (0.3, 0.0), sigma=0.3))
        assert id_pairs(state.cones, match(state.cones, [make_obs((0.0, 0.0), sigma=0.3)])) == ((0, 2),)
        twins = [make_obs((0.3, 0.0), sigma=0.3), make_obs((0.3, 0.0), sigma=0.3)]
        state = map_of(make_cone(7, (0.3, 0.0), sigma=0.3))
        pairs = match(state.cones, twins)
        assert id_pairs(state.cones, pairs) == ((0, 7),) and new_observations(pairs, 2) == (1,)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(33)
        cones = {i: make_cone(i, tuple(rng.uniform(0, 10, 2)), sigma=0.3) for i in range(6)}
        state = map_of(*cones.values())
        obs = [make_obs(tuple(c.position.mean + rng.normal(scale=0.2, size=2)), sigma=0.2) for c in cones.values()]
        base = match(state.cones, obs)
        perm = rng.permutation(len(obs))
        shuffled = [obs[i] for i in perm]
        pairs = match(state.cones, shuffled)
        inverse = np.argsort(perm)
        remapped = sorted((int(inverse[i]), cid) for i, cid in id_pairs(state.cones, base))
        assert sorted(id_pairs(state.cones, pairs)) == remapped


# the camera's position sigma at 15 m range (its profile: 0.08 m + 0.003 m/m^2 * r^2)
CAMERA_15M_SIGMA = 0.08 + 0.003 * 15.0**2


def spd_cov(eigenvalues, theta):
    """The covariance with these eigenvalues, rotated by ``theta`` and projected as the filter projects."""
    return project_spd(rotate_covariance(theta, np.diag(eigenvalues))[None])[0]


@st.composite
def association_tables(draw):
    """``(cone_means, cone_covs, means, covs, gate)`` for :func:`associate`, either table possibly empty.

    Cone covariances are drawn at the covariance ceiling (isotropic, or with
    a mean variance on it) or below it; observation covariances are
    isotropic, among them the camera's at 15 m range, rotated and projected
    as ``ingest_frame`` does. Cones may repeat an earlier cone and
    observations an earlier observation, so distances tie. An observation is
    placed anywhere, near a cone, exactly on the edge of the gate box around
    one (that cone moved onto the axis, so the offset is exact), or with a
    cone's covariance along its long axis just inside the gate, where the
    box's distance bound is nearly tight.
    """
    ceiling = CONFIG.covariance_ceiling
    n, k = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    gate = draw(st.one_of(st.just(CONFIG.gate_distance), st.floats(0.05, 10.0)))
    angle = st.floats(-math.pi, math.pi)
    cone_means, cone_covs = [], []
    for i in range(n):
        if i and draw(st.integers(0, 4)) == 0:  # a twin of an earlier cone
            j = draw(st.integers(0, i - 1))
            cone_means.append(cone_means[j].copy())
            cone_covs.append(cone_covs[j])
            continue
        cone_means.append(np.array([draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0))]))
        kind = draw(st.sampled_from(["ceiling", "on the ceiling", "below"]))
        if kind == "ceiling":
            cone_covs.append(ceiling * np.eye(2))
        elif kind == "on the ceiling":  # mean variance at the ceiling, as growth leaves it
            v = draw(st.floats(1e-4, ceiling))
            cone_covs.append(spd_cov((v, 2.0 * ceiling - v), draw(angle)))
        else:
            cone_covs.append(spd_cov((draw(st.floats(1e-4, ceiling)), draw(st.floats(1e-4, ceiling))), draw(angle)))
    sigmas = st.one_of(st.just(CAMERA_15M_SIGMA), st.just(0.05), st.floats(0.02, CAMERA_15M_SIGMA))
    placements, covs = [], []
    for i in range(k):
        kinds = ["free"] + (["near", "edge", "gate"] if n else []) + (["twin"] if i else [])
        kind = draw(st.sampled_from(kinds))
        of = draw(st.integers(0, (i if kind == "twin" else n) - 1)) if kind != "free" else None
        placements.append((kind, of))
        if kind == "twin":
            covs.append(covs[of])
        elif kind == "gate":  # the cone's own covariance, where the distance bound is tightest
            covs.append(cone_covs[of])
        else:
            covs.append(spd_cov((draw(sigmas) ** 2,) * 2, draw(angle)))
    cone_covs = np.array(cone_covs).reshape(n, 2, 2)
    covs = np.array(covs).reshape(k, 2, 2)
    half_width = _gate_half_width(cone_covs, covs, gate) if n and k else 1.0
    means = []
    for kind, of in placements:
        if kind == "twin":
            means.append(means[of].copy())
        elif kind == "free":
            means.append(np.array([draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))]))
        elif kind == "near":
            means.append(cone_means[of] + [draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
        elif kind == "gate":  # along the covariance's long axis, at or just inside the gate
            variances, axes = np.linalg.eigh(cone_covs[of])
            reach = math.sqrt(8.0 * gate * variances[1]) * draw(st.floats(0.98, 1.0))
            means.append(cone_means[of] + reach * axes[:, 1])
        else:
            axis, sign = draw(st.integers(0, 1)), draw(st.sampled_from([-1.0, 1.0]))
            cone = cone_means[of]
            cone[axis] = 0.0
            mean = cone.copy()
            mean[axis] = sign * half_width
            mean[1 - axis] += draw(st.one_of(st.floats(-half_width, half_width), st.sampled_from([-half_width, half_width])))
            means.append(mean)
    return np.array(cone_means).reshape(n, 2), cone_covs, np.array(means).reshape(k, 2), covs, gate


class TestGatedAssociationMatchesAllPairs:
    """The gated :func:`associate` against the all-pairs one it replaced (``cone_reference``), pair for pair."""

    @settings(max_examples=400, deadline=None)
    @given(association_tables())
    def test_random_tables(self, case):
        assert associate(*case) == all_pairs_associate(*case)

    def test_pairs_on_the_box_edge_are_compared_and_rejected(self):
        cone_covs, covs = CONFIG.covariance_ceiling * np.eye(2)[None], spd_cov((CAMERA_15M_SIGMA**2,) * 2, 0.3)[None]
        half_width = _gate_half_width(cone_covs, covs, CONFIG.gate_distance)
        cone_means = np.zeros((1, 2))
        for offset in ([half_width, 0.0], [0.0, -half_width], [half_width, half_width], [-half_width, 0.5 * half_width]):
            case = (cone_means, cone_covs, np.array([offset]), covs, CONFIG.gate_distance)
            assert associate(*case) == all_pairs_associate(*case) == []
        # just inside the box and within the gate, a match
        case = (cone_means, cone_covs, np.array([[0.5, 0.0]]), covs, CONFIG.gate_distance)
        assert associate(*case) == all_pairs_associate(*case) == [(0, 0)]

    def test_a_pair_just_inside_the_gate_along_a_thin_covariance_matches(self):
        # equal covariances of mean variance at the ceiling, nearly all of it on
        # the y axis: along it the distance is almost exactly the box's bound
        # |d|^2 / (8 tr S), and the box's edge is nearest
        cov = spd_cov((1e-6, 2.0 * CONFIG.covariance_ceiling - 1e-6), 0.0)
        reach = math.sqrt(8.0 * CONFIG.gate_distance * (2.0 * CONFIG.covariance_ceiling - 1e-6)) * 0.999
        case = (np.zeros((1, 2)), cov[None], np.array([[0.0, reach]]), cov[None], CONFIG.gate_distance)
        assert associate(*case) == all_pairs_associate(*case) == [(0, 0)]

    def test_tied_distances_go_to_the_lower_row_then_observation(self):
        cone_means = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        cone_covs = np.array([0.04 * np.eye(2)] * 3)
        means, covs = np.array([[0.0, 0.1], [0.0, 0.1], [0.5, 0.0]]), np.array([0.04 * np.eye(2)] * 3)
        case = (cone_means, cone_covs, means, covs, CONFIG.gate_distance)
        assert associate(*case) == all_pairs_associate(*case) == [(0, 0), (1, 1), (2, 2)]

    def test_empty_map_or_empty_batch(self):
        some = (np.ones((2, 2)), np.array([0.1 * np.eye(2)] * 2))
        none = (np.zeros((0, 2)), np.zeros((0, 2, 2)))
        for case in ((*none, *some), (*some, *none), (*none, *none)):
            assert associate(*case, CONFIG.gate_distance) == all_pairs_associate(*case, CONFIG.gate_distance) == []

    def test_every_call_of_a_seeded_degraded_lap(self, monkeypatch):
        import conetrack.local_map as local_map

        calls = []

        def checked(*args):
            calls.append(all_pairs_associate(*args))
            pairs = associate(*args)
            assert pairs == calls[-1]
            return pairs

        monkeypatch.setattr(local_map, "associate", checked)
        degraded_lap_snapshots()
        assert len(calls) > 100 and sum(map(len, calls)) > 1000


class TestDirectPairs:
    """:func:`associate` takes the near pairs directly only when no cone and no observation is in two of them;
    a contended cone or observation goes through the greedy match, as ``cone_reference.greedy_associate`` does."""

    @staticmethod
    def check(cone_means, means, expected, contended=True):
        cone_covs, covs = np.array([0.09 * np.eye(2)] * len(cone_means)), np.array([0.09 * np.eye(2)] * len(means))
        case = (np.array(cone_means, float), cone_covs, np.array(means, float), covs, CONFIG.gate_distance)
        near = bhattacharyya_distance_matrix(case[2], covs, case[0], cone_covs) <= CONFIG.gate_distance
        assert (near.sum(axis=0).max() > 1 or near.sum(axis=1).max() > 1) == contended
        assert associate(*case) == greedy_associate(*case) == all_pairs_associate(*case) == expected

    def test_two_observations_inside_one_cones_gate(self):
        self.check([[0.0, 0.0]], [[0.3, 0.0], [0.1, 0.0]], [(1, 0)])

    def test_one_observation_inside_two_cones_gates(self):
        self.check([[0.0, 0.0], [0.5, 0.0]], [[0.35, 0.0]], [(0, 1)])

    def test_crossed_pairs_go_by_ascending_distance(self):
        # every pair is near: (cone 1, observation 1) is the closest, then (cone 0, observation 0)
        self.check([[0.0, 0.0], [1.0, 0.0]], [[0.45, 0.0], [0.6, 0.0]], [(0, 0), (1, 1)])

    def test_uncontended_pairs_are_all_taken(self):
        self.check([[0.0, 0.0], [4.0, 0.0], [8.0, 0.0]], [[4.1, 0.0], [20.0, 0.0], [0.2, 0.0]], [(0, 1), (2, 0)], contended=False)


class TestKalmanUpdate:
    def test_uninformative_observation_keeps_mean(self):
        cone = make_cone(mean=(1.0, 2.0), sigma=0.3)
        mean, _ = kalman(cone, make_obs((50.0, 50.0), sigma=1e4))
        assert np.allclose(mean, cone.position.mean, atol=1e-3)

    def test_equal_covariance_halves(self):
        cone = make_cone(mean=(0.0, 0.0), sigma=1.0)
        mean, cov = kalman(cone, make_obs((2.0, 0.0), sigma=1.0))
        assert mean == pytest.approx([1.0, 0.0])
        assert np.allclose(cov, 0.5 * np.eye(2))

    def test_repeated_observations_shrink_covariance(self):
        cone = make_cone(mean=(0.0, 0.0), sigma=1.0)
        mean, cov = cone.position.mean, cone.position.cov
        obs = make_obs((0.1, -0.1), sigma=0.5)
        traces = [np.trace(cov)]
        for _ in range(20):
            (mean,), (cov,) = update_position(mean[None], cov[None], obs.means, obs.covs)
            traces.append(np.trace(cov))
        assert all(b < a for a, b in zip(traces, traces[1:]))
        # the trace converges toward the observation-noise-limited floor
        assert traces[-1] < 2 * (0.5**2) / 10

    def test_singular_innovation_rejected(self):
        zero = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="singular"):
            update_position(np.zeros((1, 2)), zero, np.ones((1, 2)), zero)


class TestColorUpdate:
    def test_first_observation_sets_color(self):
        out = still_frame(LocalMapState(), [make_obs((5.0, 0.0), color=(1.0, 0.0, 0.0))])
        assert color_probabilities(out.cones.color_evidence[0]) == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)

    def test_normalized_sum(self):
        state = map_of(make_cone(0, (5.0, 0.0), evidence=(1.0, 0.0, 0.0)))
        out = still_frame(state, [make_obs((5.0, 0.0), color=(0.0, 1.0, 0.0))])
        assert out.cones.ids.tolist() == [0]
        assert color_probabilities(out.cones.color_evidence[0]) == pytest.approx([0.5, 0.5, 0.0], abs=1e-9)

    def test_uniform_evidence_never_flips_argmax(self):
        state = map_of(make_cone(0, (5.0, 0.0), evidence=(0.6, 0.3, 0.1)))
        for _ in range(50):
            state = still_frame(state, [make_obs((5.0, 0.0), color=(1 / 3, 1 / 3, 1 / 3))])
            assert state.cones.ids.tolist() == [0]
            assert color_class(color_probabilities(state.cones.color_evidence[0])) is ConeClass.BLUE


class TestExistence:
    def test_out_of_fov_cone_untouched(self):
        cone = make_cone(mean=(-20.0, 0.0), existence=0.7)  # behind the ego
        state = map_of(cone)
        for _ in range(100):
            out = still_frame(state)
            assert unseen_ids(state, out) == ()
            state = out
        assert state.cones.existence[0] == pytest.approx(0.7)

    def test_certain_false_positive_rejected_within_half_second(self):
        frame_rate = 10.0
        cfg = LocalMapConfig.for_frame_rate(frame_rate)
        cone = make_cone(mean=(5.0, 0.0), existence=1.0)
        state = map_of(cone)
        misses = 0
        while 0 in state.cones.ids:
            out, _ = ingest_frame(state, [], Velocity2.zero(), 1.0 / frame_rate, cfg)
            assert unseen_ids(state, out, cfg) == (0,)
            state = out
            misses += 1
            assert misses <= 20
        assert misses / frame_rate < 0.5

    def test_alternating_hit_miss_stays_in_band(self):
        cfg = CONFIG
        existence = 0.5
        seq = []
        for k in range(200):
            if k % 2 == 0:
                existence = existence + cfg.existence_gain * (1 - existence)
            else:
                existence = existence * cfg.existence_decay
            seq.append(existence)
        tail = seq[20:]
        # closed-form fixed points of the two-step recurrence
        g, d = cfg.existence_gain, cfg.existence_decay
        hi = (g) / (1 - d * (1 - g))
        lo = hi * d
        assert min(tail) == pytest.approx(lo, rel=1e-6)
        assert max(tail) == pytest.approx(hi, rel=1e-6)
        assert min(tail) > cfg.prune_threshold


def run_noise_free_lap(track, speed=5.0, frame_rate=10.0, mode=None, profile=None):
    profile = profile or noise_free_profile()
    cfg = LocalMapConfig.for_profile(profile, frame_rate)
    poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, speed),), 1.0 / frame_rate)
    rng = np.random.default_rng(0)
    state = LocalMapState()
    snapshots = []
    start_pose = None
    for timestamp, dt, pose, vel in discrete_frames(poses, 1.0 / frame_rate):
        start_pose = start_pose or pose
        obs = observe_cones(track, pose, profile, rng, timestamp)
        state, snap = ingest_frame(state, [obs], vel, dt, cfg, mode=mode)
        snapshots.append(snap)
    return state, snapshots, start_pose


class TestIngest:
    def test_noise_free_positions_exact(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        state, snapshots, start_pose = run_noise_free_lap(track, mode=MapMode.FUSION)
        truth = track.positions
        snap = snapshots[len(snapshots) // 2]
        assert snap.cones, "expected cones in the local map"
        for mean in snap.cones.means:
            world = transform_point(start_pose, mean)
            dists = np.hypot(*(truth - world).T)
            assert dists.min() < 1e-9

    def test_noise_free_no_duplicates(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        state, _, _ = run_noise_free_lap(track)
        positions = state.cones.means
        for i in range(len(positions)):
            d = np.hypot(*(positions - positions[i]).T)
            d[i] = np.inf
            assert d.min() > 1.0

    def test_injected_false_positive_disappears_within_half_second(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        profile = noise_free_profile()
        frame_rate = 10.0
        cfg = LocalMapConfig.for_frame_rate(frame_rate)
        poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 5.0),), 1.0 / frame_rate)
        rng = np.random.default_rng(0)
        state = LocalMapState()
        fp_id = None
        fp_gone_at = None
        inject_at = 1.0
        for timestamp, dt, pose, vel in discrete_frames(poses, 1.0 / frame_rate):
            obs = observe_cones(track, pose, profile, rng, timestamp)
            if math.isclose(timestamp, inject_at):
                # phantom cone 6 m dead ahead, observed exactly once
                phantom = make_obs((6.0, 0.0), sigma=0.05, color=(0.0, 0.0, 1.0), t=timestamp)
                obs = joined(obs, phantom)
            state, snap = ingest_frame(state, [obs], vel, dt, cfg)
            if math.isclose(timestamp, inject_at):
                truth = track.positions
                for cid, mean in zip(snap.cones.ids.tolist(), snap.cones.means):
                    if np.hypot(*(truth - mean).T).min() > 0.5:
                        fp_id = cid
                assert fp_id is not None
            if fp_id is not None and fp_gone_at is None:
                if fp_id not in snap.cones.ids:
                    fp_gone_at = timestamp
            if timestamp > inject_at + 1.0:
                break
        assert fp_gone_at is not None
        assert fp_gone_at - inject_at <= 0.5

    def test_snapshot_immutability(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        profile = noise_free_profile()
        cfg = LocalMapConfig.for_frame_rate(10.0)
        poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 5.0),), 0.1)
        rng = np.random.default_rng(0)
        state = LocalMapState()
        first_snap = None
        first_copy = None
        for timestamp, dt, pose, vel in discrete_frames(poses, 0.1):
            obs = observe_cones(track, pose, profile, rng, timestamp)
            state, snap = ingest_frame(state, [obs], vel, dt, cfg)
            if first_snap is None:
                first_snap = snap
                first_copy = snapshot_to_dict(snap)
            if timestamp > 2.0:
                break
        assert snapshot_to_dict(first_snap) == first_copy

    def test_covariance_trace_never_increases_on_update(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=2)
        from conetrack.simulate import SensorProfile

        profile = SensorProfile(mode="fusion", false_positives_per_frame=0.0)
        cfg = LocalMapConfig.for_frame_rate(10.0)
        poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 5.0),), 0.1)
        rng = np.random.default_rng(3)
        state = LocalMapState()
        for timestamp, dt, pose, vel in discrete_frames(poses, 0.1):
            obs = observe_cones(track, pose, profile, rng, timestamp)
            before = dict(zip(state.cones.ids.tolist(), np.trace(state.cones.covs, axis1=1, axis2=2)))
            predicted = _grow_covariances(state.cones.covs, dt, cfg) if dt > 0 else state.cones.covs
            grown = dict(zip(state.cones.ids.tolist(), np.trace(predicted, axis1=1, axis2=2)))
            for cid in before:
                assert grown[cid] >= before[cid] - 1e-12
            state, snap = ingest_frame(state, [obs], vel, dt, cfg)
            cones = snap.cones
            for cid, cov, last_seen in zip(cones.ids.tolist(), cones.covs, cones.last_seen.tolist()):
                if cid in grown and last_seen == snap.timestamp:
                    assert np.trace(cov) <= grown[cid] + 1e-12
            if timestamp > 3.0:
                break

    def test_mode_follows_source_staleness(self):
        cfg = LocalMapConfig.for_frame_rate(10.0)
        state = LocalMapState()
        t = 0.0
        # fusion alive
        for _ in range(5):
            obs = per_source(make_obs((5.0, 0.0), t=t, source=SensorSource.FUSION))
            state, snap = ingest_frame(state, obs, Velocity2.zero(), 0.1 if t else 0.0, cfg)
            t += 0.1
        assert snap.mode is MapMode.FUSION
        # fusion dies; lidar + camera continue
        for _ in range(6):
            obs = per_source(
                make_obs((5.0, 0.0), t=t, source=SensorSource.LIDAR_ONLY),
                make_obs((5.0, 0.0), sigma=0.8, color=(0.9, 0.05, 0.05), t=t, source=SensorSource.CAMERA_ONLY),
            )
            state, snap = ingest_frame(state, obs, Velocity2.zero(), 0.1, cfg)
            t += 0.1
        assert snap.mode is MapMode.DEGRADED
        # camera dies too
        for _ in range(6):
            obs = per_source(make_obs((5.0, 0.0), t=t, source=SensorSource.LIDAR_ONLY))
            state, snap = ingest_frame(state, obs, Velocity2.zero(), 0.1, cfg)
            t += 0.1
        assert snap.mode is MapMode.LIDAR_ONLY

    def test_fusion_mode_ignores_single_sensor_observations(self):
        cfg = LocalMapConfig.for_frame_rate(10.0)
        state = LocalMapState()
        obs = per_source(
            make_obs((5.0, 0.0), t=0.0, source=SensorSource.FUSION),
            make_obs((8.0, 2.0), t=0.0, source=SensorSource.LIDAR_ONLY),
        )
        state, snap = ingest_frame(state, obs, Velocity2.zero(), 0.0, cfg)
        assert snap.mode is MapMode.FUSION
        assert len(snap.cones) == 1

    def test_color_stays_valid_distribution(self):
        # degraded mode weighs the lidar's colour 0.3 and the camera's 1.0
        rng = np.random.default_rng(5)
        state = map_of(make_cone(0, (5.0, 0.0)))
        for _ in range(100):
            sources = rng.permutation([SensorSource.LIDAR_ONLY, SensorSource.CAMERA_ONLY])[: rng.integers(1, 3)]
            obs = [make_obs((5.0, 0.0), color=tuple(rng.dirichlet([1, 1, 1])), source=s) for s in sources]
            state, _ = ingest_frame(state, per_source(*obs), Velocity2.zero(), 0.0, CONFIG, mode=MapMode.DEGRADED)
            assert state.cones.ids.tolist() == [0]
            arr = color_probabilities(state.cones.color_evidence[0])
            assert arr.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(arr >= 0)


class TestFilterConsistency:
    def test_nees_within_chi_square_band(self):
        # 1000 independent calibrated single-cone updates: initialize from one
        # observation, fuse a second, score NEES of the posterior
        from scipy.stats import chi2

        rng = np.random.default_rng(42)
        sigma = 0.3
        n = 1000
        nees = []
        for _ in range(n):
            truth = rng.uniform(-5, 5, size=2)
            z0 = truth + rng.normal(scale=sigma, size=2)
            cone = make_cone(mean=tuple(z0), sigma=sigma)
            z1 = truth + rng.normal(scale=sigma, size=2)
            mean, cov = kalman(cone, make_obs(tuple(z1), sigma=sigma))
            err = mean - truth
            nees.append(float(err @ np.linalg.solve(cov, err)))
        mean_nees = np.mean(nees)
        lo = chi2.ppf(0.025, 2 * n) / n
        hi = chi2.ppf(0.975, 2 * n) / n
        assert lo <= mean_nees <= hi


def write_log(path, snapshots):
    """Write ``snapshots`` to a snapshot log at ``path``."""
    writer = SnapshotLogWriter(path)
    try:
        for snap in snapshots:
            writer.write(snap)
    finally:
        writer.close()


# the schema-2 cone columns: log name -> (ConeTable attribute, little-endian dtype, row shape)
LOG_COLUMNS = {
    "id": ("ids", "<i8", ()),
    "means_m": ("means", "<f8", (2,)),
    "cov_m2": ("covs", "<f8", (2, 2)),
    "color_evidence": ("color_evidence", "<f8", (3,)),
    "existence": ("existence", "<f8", ()),
    "last_seen_s": ("last_seen", "<f8", ()),
}
SCHEMA_1_HEADER = '{"kind": "snapshot_log", "schema_version": 1}\n'


def encode(values, dtype="<f8") -> str:
    """The base64 of ``values`` as little-endian ``dtype`` bytes."""
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode("ascii")


def decode(cones: dict, name: str) -> np.ndarray:
    """One column of a schema-2 record's cones, as a writable (count, *row shape) array."""
    _, dtype, shape = LOG_COLUMNS[name]
    return np.frombuffer(base64.b64decode(cones[name]), dtype).reshape(cones["count"], *shape).copy()


def record_of(snapshot: LocalMapSnapshot) -> dict:
    """One schema-2 snapshot log record as a dict; ``json.dumps(..., sort_keys=True)`` of it is the log line's reference bytes."""
    cones = snapshot.cones
    columns = {name: encode(getattr(cones, attr), dtype) for name, (attr, dtype, _) in LOG_COLUMNS.items()}
    ego = snapshot.ego
    return {
        "cones": {"count": len(cones), **columns},
        "ego": {"x_m": float(ego.x), "y_m": float(ego.y), "theta_rad": float(ego.theta)},
        "mode": snapshot.mode.value,
        "observed_ids": sorted(snapshot.observed_ids),
        "timestamp_s": float(snapshot.timestamp),
    }


def record_line(snapshot):
    return json.dumps(record_of(snapshot), sort_keys=True) + "\n"


def schema_1_dict(record: dict) -> dict:
    """A schema-2 record with its columns decoded here into the per-cone rows of schema 1."""
    cones = record["cones"]
    columns = [decode(cones, name).tolist() for name in LOG_COLUMNS]
    rows = [
        {"id": cid, "x_m": x, "y_m": y, "cov_m2": cov, "color_evidence": ev, "existence": e, "last_seen_s": t}
        for cid, (x, y), cov, ev, e, t in zip(*columns)
    ]
    return dict(record, cones=rows)


def with_cone_value(record: dict, name: str, index, value) -> dict:
    """``record`` with one entry of a cone column (a row, or a row and an entry) set to ``value``."""
    column = decode(record["cones"], name)
    column[index] = value
    return dict(record, cones=dict(record["cones"], **{name: encode(column, LOG_COLUMNS[name][1])}))


class TestSnapshotLog:
    def test_roundtrip(self, tmp_path):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        _, snapshots, _ = run_noise_free_lap(track)
        path = tmp_path / "snaps.ndjson"
        write_log(path, snapshots[:20])
        loaded = read_snapshot_log(path)
        assert len(loaded) == 20
        for orig, back in zip(snapshots[:20], loaded):
            assert snapshot_to_dict(orig) == snapshot_to_dict(back)

    def test_header_names_each_column_dtype_and_row_shape(self, tmp_path):
        path = tmp_path / "snaps.ndjson"
        write_log(path, [])
        assert json.loads(path.read_text()) == {
            "kind": "snapshot_log",
            "schema_version": 2,
            "columns": {name: {"dtype": dtype, "shape": list(shape)} for name, (_, dtype, shape) in LOG_COLUMNS.items()},
        }

    def test_truncated_tail_tolerated(self, tmp_path):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        _, snapshots, _ = run_noise_free_lap(track)
        path = tmp_path / "snaps.ndjson"
        write_log(path, snapshots[:5])
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # chop mid-record
        loaded = read_snapshot_log(path)
        assert len(loaded) == 4

    @pytest.mark.parametrize("bad_line, tolerated", [(3, False), (6, True)])
    def test_only_a_malformed_last_record_is_tolerated(self, tmp_path, bad_line, tolerated):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        _, snapshots, _ = run_noise_free_lap(track)
        path = tmp_path / "snaps.ndjson"
        write_log(path, snapshots[10:15])
        lines = path.read_text().splitlines(keepends=True)
        lines[bad_line - 1] = json.dumps(with_cone_value(json.loads(lines[bad_line - 1]), "existence", 0, 7.0)) + "\n"
        path.write_text("".join(lines) + "\n")  # a trailing blank line does not count as a record
        if tolerated:
            assert len(read_snapshot_log(path)) == 4
        else:
            with pytest.raises(ValueError, match="line 3"):
                read_snapshot_log(path)

    @pytest.mark.parametrize("first, second, tolerated", [(0, 2, False), (1, 2, False), (1, 4, True)])
    def test_a_record_not_later_than_the_one_before_is_malformed(self, tmp_path, first, second, tolerated):
        # record ``second`` gets the timestamp of record ``first``: equal, or going backwards
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        _, snapshots, _ = run_noise_free_lap(track)
        snapshots = snapshots[10:15]
        snapshots[second] = replace(snapshots[second], timestamp=snapshots[first].timestamp)
        path = tmp_path / "snaps.ndjson"
        write_log(path, snapshots)
        if tolerated:
            assert len(read_snapshot_log(path)) == 4
        else:
            with pytest.raises(ValueError, match=f"line {second + 2}.*timestamp_s"):
                read_snapshot_log(path)

    @staticmethod
    def two_cone_record():
        cones = cone_table([make_cone(3), make_cone(1, (1.0, 0.0))])
        row = record_of(LocalMapSnapshot(0.0, Pose2.identity(), cones, frozenset({1}), MapMode.FUSION))
        assert record_of(snapshot_from_dict(row)) == row
        return row

    # Each case damages the first cone row (id 1) or a whole column of a
    # two-cone record. The ids are those of the schema-1 cases these port:
    # a value that is not a number became a column that is not a base64
    # string, or not base64; a row of the wrong shape became a column of the
    # wrong byte length.
    @pytest.mark.parametrize(
        "field, damage",
        [
            pytest.param("means_m", lambda r: with_cone_value(r, "means_m", (0, 0), math.nan), id="x_m-nan"),
            pytest.param("cov_m2", lambda r: with_cone_value(r, "cov_m2", (0, 0, 0), math.inf), id="cov_m2-value1"),
            pytest.param(
                "color_evidence", lambda r: with_cone_value(r, "color_evidence", 0, [-1.0, 1.0, 1.0]), id="color_evidence-value2"
            ),
            pytest.param(
                "color_evidence", lambda r: with_cone_value(r, "color_evidence", 0, [math.nan, 1.0, 1.0]), id="color_evidence-value3"
            ),
            pytest.param("existence", lambda r: with_cone_value(r, "existence", 0, 1.5), id="existence-1.5"),
            pytest.param("id", lambda r: dict(r, cones=dict(r["cones"], id=2.5)), id="id-2.5"),
            pytest.param("last_seen_s", lambda r: dict(r, cones=dict(r["cones"], last_seen_s=None)), id="last_seen_s-None"),
            pytest.param("means_m", lambda r: dict(r, cones=dict(r["cones"], means_m="1.0")), id="y_m-1.0"),
            pytest.param(
                "cov_m2", lambda r: dict(r, cones=dict(r["cones"], cov_m2=encode([1.0, 0.0, 0.0, 1.0] * 2 + [0.0, 1.0, 0.0]))),
                id="cov_m2-value8",
            ),
            pytest.param(
                "color_evidence", lambda r: dict(r, cones=dict(r["cones"], color_evidence=encode([1.0, 0.0] * 2))),
                id="color_evidence-value9",
            ),
            pytest.param(
                "cov_m2", lambda r: with_cone_value(r, "cov_m2", 0, [[1e308, 0.0], [0.0, 1e308]]), id="cov_m2-value10"
            ),
            pytest.param(
                "cov_m2", lambda r: with_cone_value(r, "cov_m2", 0, [[9e307, 0.0], [0.0, 9e307]]), id="cov_m2-value11"
            ),
            pytest.param("last_seen_s", lambda r: with_cone_value(r, "last_seen_s", 1, -math.inf), id="last_seen_s-inf"),
            pytest.param("color_evidence", lambda r: with_cone_value(r, "color_evidence", 0, [1e308] * 3), id="color_evidence-inf-sum"),
            pytest.param("existence", lambda r: with_cone_value(r, "existence", 1, -0.5), id="existence-negative"),
            pytest.param("existence", lambda r: dict(r, cones=dict(r["cones"], existence=[0.5, 0.5])), id="existence-list"),
            pytest.param(
                "existence", lambda r: dict(r, cones=dict(r["cones"], existence=r["cones"]["existence"].rstrip("="))),
                id="existence-unpadded",
            ),
            pytest.param("existence", lambda r: dict(r, cones=dict(r["cones"], existence="AAAAAAAA4Dé")), id="existence-non-ascii"),
            # a character outside the alphabet, which a lenient decoder would skip
            pytest.param(
                "existence", lambda r: dict(r, cones=dict(r["cones"], existence="*" + r["cones"]["existence"])),
                id="existence-stray-character",
            ),
            pytest.param("id", lambda r: dict(r, cones=dict(r["cones"], id=encode([1], "<i8"))), id="id-short"),
            pytest.param("id", lambda r: with_cone_value(r, "id", 1, 1), id="id-repeated"),
            pytest.param("count", lambda r: dict(r, cones=dict(r["cones"], count="2")), id="count-string"),
        ],
    )
    def test_malformed_cone_row_rejected(self, field, damage):
        with pytest.raises(ValueError, match=field):
            snapshot_from_dict(damage(self.two_cone_record()))

    @pytest.mark.parametrize(
        "change",
        [
            lambda row: [1, 2],
            lambda row: dict(row, cones=[7]),
            lambda row: dict(row, cones={}),
            lambda row: dict(row, ego=None),
            lambda row: dict(row, timestamp_s="x"),
            lambda row: dict(row, mode="warp"),
            lambda row: dict(row, observed_ids=[1.5]),
            lambda row: {key: value for key, value in row.items() if key != "cones"},
            lambda row: dict(row, cones=dict(row["cones"], count=3)),
            lambda row: dict(row, cones=dict(row["cones"], count=2.0)),
            lambda row: dict(row, cones=dict(row["cones"], count=-2)),
            lambda row: dict(row, cones={key: value for key, value in row["cones"].items() if key != "means_m"}),
        ],
        ids=[
            "list", "scalar-cone-row", "cones-object", "null-ego", "string-timestamp", "unknown-mode", "float-observed-id",
            "no-cones", "count-mismatch", "float-count", "negative-count", "no-column",
        ],
    )
    def test_malformed_record_rejected(self, change):
        with pytest.raises(ValueError):
            snapshot_from_dict(change(self.two_cone_record()))

    @pytest.mark.parametrize(
        "key, value, accepted",
        [
            ("timestamp_s", MAX_SNAPSHOT_TIME_S, True),
            ("timestamp_s", -MAX_SNAPSHOT_TIME_S, True),
            ("timestamp_s", math.nextafter(MAX_SNAPSHOT_TIME_S, math.inf), False),
            ("timestamp_s", -1e308, False),
            ("x_m", MAX_LOG_COORDINATE_M, True),
            ("y_m", -MAX_LOG_COORDINATE_M, True),
            ("x_m", math.nextafter(-MAX_LOG_COORDINATE_M, -math.inf), False),
            ("y_m", 1e308, False),
        ],
    )
    def test_time_and_ego_within_their_limits(self, key, value, accepted):
        row = self.two_cone_record()
        row = dict(row, timestamp_s=value) if key == "timestamp_s" else dict(row, ego=dict(row["ego"], **{key: value}))
        if accepted:
            snapshot = snapshot_from_dict(row)
            assert value in (snapshot.timestamp, snapshot.ego.x, snapshot.ego.y)
        else:
            with pytest.raises(ValueError, match=key):
                snapshot_from_dict(row)

    @pytest.mark.parametrize("observed", [[2], [1, 3, 4]])
    def test_observed_ids_must_name_cones_of_the_record(self, observed):
        with pytest.raises(ValueError, match="observed_ids"):
            snapshot_from_dict(dict(self.two_cone_record(), observed_ids=observed))

    def test_cone_rows_out_of_id_order_load_sorted(self):
        row = self.two_cone_record()
        cones = row["cones"]
        swapped = dict(cones, **{name: encode(decode(cones, name)[::-1], dtype) for name, (_, dtype, _) in LOG_COLUMNS.items()})
        assert swapped != cones
        assert record_of(snapshot_from_dict(dict(row, cones=swapped))) == row

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        write_log(path, [])
        header = json.loads(path.read_text())
        header["columns"]["existence"]["dtype"] = "<f4"
        for text in ('{"schema_version": 99, "kind": "snapshot_log"}\n', SCHEMA_1_HEADER, json.dumps(header) + "\n", "\xff\n"):
            path.write_text(text, encoding="latin-1")
            with pytest.raises(SchemaMismatchError):
                read_snapshot_log(path)


# the filter config of the seeded 10 Hz laps below
LAP_CONFIG = LocalMapConfig.for_profile(default_profile("lidar_only"), 10.0)


def fusion_fails_at_3_s(timestamp):
    return ["fusion"] if timestamp < 3.0 else ["lidar_only", "camera_only"]


def seeded_lap_frames(alive_at, length_m=90.0, seed=455):
    """Each frame of a seeded 5 m/s ``modes-5ms`` lap as ``(batches, noisy velocity, dt)``;
    ``alive_at(timestamp)`` names the pipelines that emit a batch in that frame."""
    spec = dataclasses.replace(load_config("modes-5ms").track_spec, length_m=length_m)
    track = generate_track(spec, seed=seed)
    profiles = {m: default_profile(m) for m in ("fusion", "lidar_only", "camera_only")}
    poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 5.0),), 0.1)
    rng = np.random.default_rng(seed)
    for timestamp, dt, pose, vel in discrete_frames(poses, 0.1):
        batches = [observe_cones(track, pose, profiles[m], rng, timestamp) for m in alive_at(timestamp)]
        yield batches, noisy_velocity(vel, profiles["fusion"], rng), dt


def degraded_lap_snapshots():
    """Snapshots of a seeded lap whose fusion pipeline fails at 3 s, so both single-sensor sources associate."""
    state, snapshots = LocalMapState(), []
    for batches, vel, dt in seeded_lap_frames(fusion_fails_at_3_s):
        state, snap = ingest_frame(state, batches, vel, dt, LAP_CONFIG)
        snapshots.append(snap)
    return snapshots


def json_line(snapshot):
    """The snapshot's schema-1 log line: its cones as float text, one object per cone."""
    return json.dumps(snapshot_to_dict(snapshot), sort_keys=True) + "\n"


def written_lines(path, snapshots):
    write_log(path, snapshots)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]


finite_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, 0.1]),
)
# column values the reader accepts as they are: existence in [0, 1], color
# evidence non-negative with a finite positive sum, and symmetric covariances
# whose eigenvalues clear the floor, which ``project_spd`` leaves bit for bit
unit_float = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 5e-324, 1.0]))
evidence_row = st.lists(st.one_of(st.floats(0.0, 1e300), st.sampled_from([-0.0, 5e-324])), min_size=3, max_size=3).filter(
    lambda row: sum(row) > 0
)


@st.composite
def spd_matrix(draw):
    a, d = draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6))
    b = draw(st.one_of(st.floats(-0.5, 0.5), st.sampled_from([-0.0, 5e-324, -5e-324]))) * math.sqrt(a * d)
    return [a, b, b, d]


@st.composite
def snapshots(draw, valid=False):
    """A snapshot of random cone rows, possibly none, with ids up to 2**53; ``valid`` keeps every column inside the reader's checks."""
    ids = sorted(draw(st.sets(st.integers(0, 2**53), max_size=8)))
    n = len(ids)
    columns = {name: draw(st.lists(finite_float, min_size=n * width, max_size=n * width)) for name, width in
               (("means", 2), ("covs", 4), ("color_evidence", 3), ("existence", 1), ("last_seen", 1))}
    if valid:
        columns["covs"] = draw(st.lists(spd_matrix(), min_size=n, max_size=n))
        columns["color_evidence"] = draw(st.lists(evidence_row, min_size=n, max_size=n))
        columns["existence"] = draw(st.lists(unit_float, min_size=n, max_size=n))
    cones = ConeTable(
        np.array(ids, np.int64),
        np.array(columns["means"], float).reshape(n, 2),
        np.array(columns["covs"], float).reshape(n, 2, 2),
        np.array(columns["color_evidence"], float).reshape(n, 3),
        np.array(columns["existence"], float),
        np.array(columns["last_seen"], float),
    )
    # the filter's ego and time are numpy floats, which json writes as plain floats;
    # the reader bounds the ego's coordinates and the time
    coordinate = st.floats(-MAX_LOG_COORDINATE_M, MAX_LOG_COORDINATE_M) if valid else finite_float
    time_s = st.floats(-MAX_SNAPSHOT_TIME_S, MAX_SNAPSHOT_TIME_S) if valid else finite_float
    x, y, timestamp = (np.float64(draw(strategy)) for strategy in (coordinate, coordinate, time_s))
    observed = draw(st.sets(st.sampled_from(ids))) if ids else set()
    ego = Pose2(x, y, draw(st.floats(-math.pi, math.pi)))
    return LocalMapSnapshot(timestamp, ego, cones, frozenset(observed), draw(st.sampled_from(list(MapMode))))


class TestSnapshotLogWriterMatchesJson:
    """The writer against ``json.dumps`` of the record dict, its columns encoded here."""

    def test_every_line_of_a_seeded_degraded_lap(self, tmp_path):
        lap = degraded_lap_snapshots()
        assert {s.mode for s in lap} == {MapMode.FUSION, MapMode.DEGRADED}
        assert written_lines(tmp_path / "snaps.ndjson", lap) == [record_line(s) for s in lap]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(snapshot=snapshots())
    def test_random_cone_tables(self, tmp_path, snapshot):
        assert written_lines(tmp_path / "snap.ndjson", [snapshot]) == [record_line(snapshot)]


def assert_same_snapshot(got, expected):
    """Every column of the cone table bit for bit (dtype, shape and bytes), and the record's other fields."""
    for name in ("ids", "means", "covs", "color_evidence", "existence", "last_seen"):
        a, b = getattr(got.cones, name), getattr(expected.cones, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.timestamp, got.ego, got.observed_ids, got.mode) == (expected.timestamp, expected.ego, expected.observed_ids, expected.mode)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(snapshot=snapshots(valid=True))
    @example(snapshot=LocalMapSnapshot(0.0, Pose2.identity(), ConeTable.empty(), frozenset(), MapMode.FUSION))
    def test_written_snapshot_reads_back_bit_for_bit(self, tmp_path, snapshot):
        path = tmp_path / "snap.ndjson"
        write_log(path, [snapshot])
        (back,) = read_snapshot_log(path)
        assert_same_snapshot(back, snapshot)
        for name in ("ids", "means", "covs", "color_evidence", "existence", "last_seen"):
            assert getattr(back.cones, name).dtype.isnative


# (builtin config, failure schedule) of the recorded 90 m laps, planner off
RECORDED_LAPS = {
    "noisy": ("fsg-like-5ms", []),
    "degraded": ("modes-5ms", [{"time_s": 3.0, "fail": ["fusion"]}]),
}


@pytest.fixture(scope="module")
def lap_logs(tmp_path_factory):
    """The snapshots.ndjson of each recorded lap."""
    logs = {}
    for name, (config_name, schedule) in RECORDED_LAPS.items():
        base = load_config(config_name)
        spec = dataclasses.replace(base.track_spec, length_m=90.0)
        out = tmp_path_factory.mktemp(name)
        run_pipeline(dataclasses.replace(base, track_spec=spec, mode_schedule=schedule, plan_enabled=False), out)
        logs[name] = out / "snapshots.ndjson"
    return logs


class TestReaderMatchesPerConeReference:
    @pytest.mark.parametrize("lap", RECORDED_LAPS)
    def test_recorded_lap_log_bit_identical(self, lap_logs, lap):
        lines = lap_logs[lap].read_text(encoding="utf-8").splitlines()[1:]
        snapshots = read_snapshot_log(lap_logs[lap])
        assert len(snapshots) == len(lines) > 100
        for snapshot, line in zip(snapshots, lines):
            assert_same_snapshot(snapshot, ref_snapshot_from_dict(schema_1_dict(json.loads(line))))
        assert {s.mode for s in snapshots} == ({MapMode.FUSION, MapMode.DEGRADED} if lap == "degraded" else {MapMode.FUSION})


# what a damaged log can hold in place of a cone value or column
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.booleans(), st.floats(), st.integers()), max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 1.5, 2.5, -(2**70), 2**70, 1e308, -1e308]),
    st.floats(),
    st.integers(),
)


class TestReaderProperties:
    @pytest.fixture(scope="class")
    def short_log(self, lap_logs, tmp_path_factory):
        """The header and the first eight records of the noisy lap's log, its bytes and all eight records read."""
        path = tmp_path_factory.mktemp("short") / "snapshots.ndjson"
        path.write_bytes(b"".join(lap_logs["noisy"].read_bytes().splitlines(keepends=True)[:9]))
        full = read_snapshot_log(path)
        assert len(full) == 8
        return path, path.read_bytes(), full

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncated_log_reads_a_prefix(self, short_log, data):
        path, raw, full = short_log
        header_end = raw.index(b"\n") + 1
        cut = data.draw(st.integers(header_end, len(raw)))
        truncated = path.with_name("truncated.ndjson")
        truncated.write_bytes(raw[:cut])
        snapshots = read_snapshot_log(truncated)
        # the records whose bytes, up to their closing brace, survived the cut
        ends = [i for i, byte in enumerate(raw) if byte == ord("\n")][1:]
        assert len(snapshots) == sum(end <= cut for end in ends)
        for got, expected in zip(snapshots, full):
            assert_same_snapshot(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_damaged_cone_field_reads_or_raises_value_error(self, short_log, data):
        path, raw, full = short_log
        lines = raw.decode("utf-8").splitlines(keepends=True)[:4]  # the header and three records
        record = json.loads(lines[2])
        name = data.draw(st.sampled_from(sorted(LOG_COLUMNS)))
        if data.draw(st.booleans()):  # one value of a column
            column = decode(record["cones"], name)
            index = data.draw(st.integers(0, column.size - 1))
            value = data.draw(st.integers(-(2**63), 2**63 - 1) if name == "id" else st.one_of(finite_float, json_values.filter(
                lambda v: isinstance(v, float))))
            column.flat[index] = value
            record["cones"][name] = encode(column, LOG_COLUMNS[name][1])
        else:  # the whole column
            record["cones"][name] = data.draw(json_values)
        lines[2] = json.dumps(record) + "\n"
        damaged = path.with_name("damaged.ndjson")
        damaged.write_text("".join(lines), encoding="utf-8")
        try:
            assert len(read_snapshot_log(damaged)) == 3
        except ValueError as exc:
            assert "line 3" in str(exc)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_changed_byte_of_a_middle_record_reads_or_names_its_line(self, short_log, data):
        path, raw, full = short_log
        lines = raw.splitlines(keepends=True)[:4]  # the header and three records
        record = bytearray(lines[2])
        at = data.draw(st.integers(0, len(record) - 2))  # any byte before the newline
        record[at] = data.draw(st.integers(0, 255))
        damaged = path.with_name("flipped.ndjson")
        damaged.write_bytes(b"".join([*lines[:2], bytes(record), lines[3]]))
        try:
            snapshots = read_snapshot_log(damaged)
        except ValueError as exc:
            # a newline in place of the first byte leaves line 3 blank and moves the record to line 4
            line = 4 if record.startswith(b"\n") else 3
            assert f"line {line}" in str(exc)
        else:
            # a middle record that now reads may have moved past the last one's
            # time, which drops the last line as a malformed tail
            assert_same_snapshot(snapshots[0], full[0])
            assert len(snapshots) == 3 or (len(snapshots) == 2 and snapshots[1].timestamp >= full[2].timestamp)


class TestEdgeCases:
    def test_empty_frame_on_empty_map(self):
        state, snap = ingest_frame(LocalMapState(), [], Velocity2(1.0, 0.0, 0.0), 0.1, CONFIG)
        assert snap.cones.means.shape == (0, 2)
        assert snap.cones.covs.shape == (0, 2, 2)
        assert snap.cones.color_evidence.shape == (0, 3)
        assert len(snap.cones) == 0 and snap.observed_ids == frozenset()
        assert snapshot_to_dict(snap)["cones"] == []
        assert state.next_cone_id == 0

    def test_repeated_timestamp_leaves_covariances_untouched(self):
        state = map_of(make_cone(0, (5.0, 0.0), sigma=0.3), make_cone(1, (-5.0, 0.0), sigma=0.4))
        out, _ = ingest_frame(state, [empty_batch(SensorSource.FUSION)], Velocity2(2.0, 0.0, 0.1), 0.0, CONFIG)
        assert np.array_equal(out.cones.covs, state.cones.covs)
        assert out.ego == state.ego and out.time == state.time

    def test_an_empty_batch_keeps_its_source_alive(self):
        cfg = LocalMapConfig.for_frame_rate(10.0)
        obs = per_source(
            make_obs((5.0, 0.0), source=SensorSource.LIDAR_ONLY),
            make_obs((5.0, 0.0), sigma=0.8, source=SensorSource.CAMERA_ONLY),
        )
        state, snap = ingest_frame(LocalMapState(), obs, Velocity2.zero(), 0.0, cfg)
        assert snap.mode is MapMode.DEGRADED
        for _ in range(6):  # past the staleness timeout: the camera goes stale, the lidar does not
            state, snap = ingest_frame(state, [empty_batch(SensorSource.LIDAR_ONLY)], Velocity2.zero(), 0.1, cfg)
        assert snap.mode is MapMode.LIDAR_ONLY and snap.observed_ids == frozenset()

    def test_two_batches_of_one_source_rejected(self):
        obs = [make_obs((5.0, 0.0)), make_obs((8.0, 0.0))]
        with pytest.raises(ValueError, match="more than one observation batch"):
            ingest_frame(LocalMapState(), obs, Velocity2.zero(), 0.0, CONFIG)

    def test_no_live_pipeline_keeps_mode_and_only_runs_the_negative_pass(self):
        cfg = LocalMapConfig.for_frame_rate(10.0)
        obs = per_source(
            make_obs((5.0, 0.0), source=SensorSource.LIDAR_ONLY),
            make_obs((5.0, 0.0), sigma=0.8, color=(0.9, 0.05, 0.05), source=SensorSource.CAMERA_ONLY),
            make_obs((-6.0, 1.0), source=SensorSource.LIDAR_ONLY),  # behind the ego once it turns around
        )
        state, snap = ingest_frame(LocalMapState(), obs, Velocity2.zero(), 0.0, cfg)
        assert snap.mode is MapMode.DEGRADED
        state = replace(state, ego=Pose2(0.0, 0.0, 0.0))
        for _ in range(6):  # past the staleness timeout
            before = state.cones
            state, snap = ingest_frame(state, [], Velocity2.zero(), 0.1, cfg)
            assert snap.mode is MapMode.DEGRADED
            assert snap.observed_ids == frozenset() and state.next_cone_id == 2
            kept = np.isin(before.ids, state.cones.ids)
            for name in ("means", "color_evidence", "last_seen"):
                assert np.array_equal(getattr(state.cones, name), getattr(before, name)[kept])
            in_view = before.means[kept][:, 0] > 0
            expected = np.where(in_view, before.existence[kept] * cfg.existence_decay, before.existence[kept])
            assert np.array_equal(state.cones.existence, expected)
        assert state.cones.ids.tolist() == [1]  # the cone ahead was pruned, the one behind kept


class TestConfigValidation:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("gate_distance", math.nan),
            ("gate_distance", -1.0),
            ("process_noise_rate", (math.inf, 0.0)),
            ("process_noise_rate", (0.1,)),
            ("covariance_ceiling", 0.0),
            ("max_range_m", math.nan),
            ("fov_half_angle_rad", 4.0),
            ("existence_gain", math.inf),
            ("existence_decay", 1.5),
            ("prune_threshold", math.nan),
            ("initial_existence", -0.1),
            ("eviction_timeout_s", math.inf),
            ("staleness_timeout_s", -1.0),
        ],
    )
    def test_bad_field_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            LocalMapConfig(**{name: value})


class TestGoldenBytes:
    """The recorded degraded lap (``RECORDED_LAPS``): fusion fails at 3 s, so
    both single-sensor sources associate in turn and the lidar's color
    evidence is weighted."""

    # sha256 of the lap's log in schema 1 (float text), recorded with the
    # per-cone (dict of cone records) filter the array filter replaced
    SCHEMA_1_SHA256 = "1e7e7455bf6fb878584e6a7ff948eba9dc9d4ab9be735c5d18a739edcd31d066"
    # sha256 of the lap's snapshots.ndjson in schema 2
    SNAPSHOTS_SHA256 = "3934d4f3ce0d5d494fd65c04f6db002f77dab2585e380971c6c97214e1770d84"

    @staticmethod
    def schema_1_text(path):
        return SCHEMA_1_HEADER + "".join(json_line(s) for s in read_snapshot_log(path))

    def test_degraded_lap_writes_the_recorded_snapshot_log(self, lap_logs):
        # the filter's output, read back and written as float text, is still the recorded one
        text = self.schema_1_text(lap_logs["degraded"])
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.SCHEMA_1_SHA256

    def test_degraded_lap_writes_the_recorded_schema_2_bytes(self, lap_logs):
        assert hashlib.sha256(lap_logs["degraded"].read_bytes()).hexdigest() == self.SNAPSHOTS_SHA256

    def test_log_is_under_half_the_size_of_its_float_text(self, lap_logs):
        # float text is most of a schema-1 log's bytes and most of its write time
        path = lap_logs["degraded"]
        assert path.stat().st_size < 0.5 * len(self.schema_1_text(path).encode("utf-8"))


# ---------------------------------------------------------------------------
# Per-cone reference: the dict-of-RefCone filter the array filter
# replaced, kept here to pin the array filter to it bit for bit


@dataclasses.dataclass(frozen=True)
class RefState:
    ego: Pose2 = dataclasses.field(default_factory=Pose2.identity)
    cones: dict = dataclasses.field(default_factory=dict)
    time: float = 0.0
    mode: MapMode = MapMode.FUSION
    next_cone_id: int = 0
    last_source_time: dict = dataclasses.field(default_factory=dict)


REF_MODE_SOURCES = {
    MapMode.FUSION: (SensorSource.FUSION,),
    MapMode.LIDAR_ONLY: (SensorSource.LIDAR_ONLY,),
    MapMode.CAMERA_ONLY: (SensorSource.CAMERA_ONLY,),
    MapMode.DEGRADED: (SensorSource.LIDAR_ONLY, SensorSource.CAMERA_ONLY),
}
# colour evidence weight of a (mode, source) pair; every other pair weighs 1.0
REF_COLOR_WEIGHTS = {(MapMode.DEGRADED, SensorSource.LIDAR_ONLY): 0.3}


def ref_predict(state, vel, dt, config):
    if dt == 0:
        return state
    ego = integrate_velocity(state.ego, vel, dt)
    growth = np.diag(config.process_noise_rate) * dt
    cones = {}
    for cid, cone in state.cones.items():
        cov = cone.position.cov + growth
        mean_var = 0.5 * (cov[0, 0] + cov[1, 1])
        if mean_var > config.covariance_ceiling:
            cov = cov * (config.covariance_ceiling / mean_var)
        cones[cid] = replace(cone, position=RefGaussian(cone.position.mean, cov))
    return replace(state, ego=ego, cones=cones, time=state.time + dt)


@dataclasses.dataclass(frozen=True)
class RefObservation:
    """One detection of the per-cone reference: a Gaussian and a color distribution."""

    position: RefGaussian
    color: np.ndarray


def ref_observations(batch):
    """A batch's rows, one :class:`RefObservation` (one ``RefGaussian``) each."""
    return [RefObservation(RefGaussian(m, c), color) for m, c, color in zip(batch.means, batch.covs, batch.colors)]


def ref_observation_to_local(ego, obs):
    mean = transform_point(ego, obs.position.mean)
    return replace(obs, position=RefGaussian(mean, rotate_covariance(ego.theta, obs.position.cov)))


def ref_in_frustum(ego, point, config, shrink):
    d = point - ego.position
    if math.hypot(d[0], d[1]) > config.max_range_m * shrink:
        return False
    bearing = math.atan2(d[1], d[0]) - ego.theta
    bearing = math.atan2(math.sin(bearing), math.cos(bearing))
    return abs(bearing) <= config.fov_half_angle_rad * shrink


def ref_associate(state, observations, config):
    cone_ids = sorted(state.cones)
    if not observations or not cone_ids:
        return [], list(range(len(observations)))
    dist = bhattacharyya_distance_matrix(
        np.array([o.position.mean for o in observations]),
        np.array([o.position.cov for o in observations]),
        np.array([state.cones[cid].position.mean for cid in cone_ids]),
        np.array([state.cones[cid].position.cov for cid in cone_ids]),
    )
    oi, ci = np.nonzero(dist <= config.gate_distance)
    order = sorted(range(len(oi)), key=lambda k: (dist[oi[k], ci[k]], cone_ids[ci[k]], oi[k]))
    used_obs, used_cones, pairs = set(), set(), []
    for k in order:
        o, c = int(oi[k]), int(ci[k])
        if o in used_obs or c in used_cones:
            continue
        used_obs.add(o)
        used_cones.add(c)
        pairs.append((o, cone_ids[c]))
    pairs.sort()
    return pairs, [i for i in range(len(observations)) if i not in used_obs]


def ref_update_position(cone, obs):
    sigma = cone.position.cov
    innovation_cov = sigma + obs.position.cov
    det = innovation_cov[0, 0] * innovation_cov[1, 1] - innovation_cov[0, 1] * innovation_cov[1, 0]
    inv = np.array([[innovation_cov[1, 1], -innovation_cov[0, 1]], [-innovation_cov[1, 0], innovation_cov[0, 0]]]) / det
    gain = sigma @ inv
    mean = cone.position.mean + gain @ (obs.position.mean - cone.position.mean)
    cov = (np.eye(2) - gain) @ sigma
    return replace(cone, position=RefGaussian(mean, cov))


def ref_mode(state, now, config):
    def fresh(source):
        last = state.last_source_time.get(source)
        return last is not None and now - last <= config.staleness_timeout_s

    if fresh(SensorSource.FUSION):
        return MapMode.FUSION
    lidar, camera = fresh(SensorSource.LIDAR_ONLY), fresh(SensorSource.CAMERA_ONLY)
    if lidar and camera:
        return MapMode.DEGRADED
    if lidar:
        return MapMode.LIDAR_ONLY
    return MapMode.CAMERA_ONLY if camera else state.mode


def ref_ingest(state, batches, vel, dt, config):
    """One frame of the per-cone filter; returns the state and the observed ids."""
    state = ref_predict(state, vel, dt, config)
    now = state.time
    last_seen = dict(state.last_source_time)
    for batch in batches:
        last_seen[batch.source] = now
    state = replace(state, last_source_time=last_seen)
    mode = ref_mode(state, now, config)
    state = replace(state, mode=mode)
    matched, observed = set(), set()
    for source in REF_MODE_SOURCES[mode]:
        local = [ref_observation_to_local(state.ego, o) for b in batches if b.source is source for o in ref_observations(b)]
        if not local:
            continue
        pairs, new = ref_associate(state, local, config)
        cones = dict(state.cones)
        weight = REF_COLOR_WEIGHTS.get((mode, source), 1.0)
        for obs_idx, cid in pairs:
            cone = ref_update_position(cones[cid], local[obs_idx])
            evidence = cone.color_evidence + weight * local[obs_idx].color
            cones[cid] = replace(cone, color_evidence=evidence, last_seen=now)
            matched.add(cid)
            observed.add(cid)
        next_id = state.next_cone_id
        for obs_idx in new:
            o = local[obs_idx]
            cones[next_id] = RefCone(next_id, o.position, weight * o.color + 1e-12, config.initial_existence, now)
            observed.add(next_id)
            next_id += 1
        state = replace(state, cones=cones, next_cone_id=next_id)
    shrink = config.negative_frustum_shrink
    unseen = {cid for cid in state.cones if cid not in observed and ref_in_frustum(state.ego, state.cones[cid].position.mean, config, shrink)}
    cones = {}
    for cid, cone in state.cones.items():
        if cid in matched:
            cones[cid] = replace(cone, existence=cone.existence + config.existence_gain * (1.0 - cone.existence))
        elif cid in unseen:
            existence = cone.existence * config.existence_decay
            if existence >= config.prune_threshold:
                cones[cid] = replace(cone, existence=existence)
        else:
            cones[cid] = cone
    cones = {cid: c for cid, c in cones.items() if now - c.last_seen <= config.eviction_timeout_s}
    return replace(state, cones=cones), {cid for cid in observed if cid in cones}


class TestArrayFilterMatchesPerConeReference:
    def test_seeded_degraded_lap_bit_identical(self):
        spec = dataclasses.replace(load_config("modes-5ms").track_spec, length_m=90.0)
        track = generate_track(spec, seed=455)
        profiles = {m: default_profile(m) for m in ("fusion", "lidar_only", "camera_only")}
        config = LocalMapConfig.for_profile(profiles["lidar_only"], 10.0)
        poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 5.0),), 0.1)
        rng = np.random.default_rng(455)
        state, ref = LocalMapState(), RefState()
        modes = set()
        for timestamp, dt, pose, vel in discrete_frames(poses, 0.1):
            alive = ["fusion"] if timestamp < 3.0 else ["lidar_only", "camera_only"]
            obs = [observe_cones(track, pose, profiles[m], rng, timestamp) for m in alive]
            vel = noisy_velocity(vel, profiles["fusion"], rng)
            state, snap = ingest_frame(state, obs, vel, dt, config)
            ref, ref_observed = ref_ingest(ref, obs, vel, dt, config)
            ids = sorted(ref.cones)
            cones = [ref.cones[cid] for cid in ids]
            expected = {
                "ids": np.array(ids, dtype=np.int64),
                "means": np.array([c.position.mean for c in cones]).reshape(-1, 2),
                "covs": np.array([c.position.cov for c in cones]).reshape(-1, 2, 2),
                "color_evidence": np.array([c.color_evidence for c in cones]).reshape(-1, 3),
                "existence": np.array([c.existence for c in cones]),
                "last_seen": np.array([c.last_seen for c in cones]),
            }
            for name, value in expected.items():
                assert np.array_equal(getattr(state.cones, name), value), (timestamp, name)
            assert (state.ego, state.time, state.mode, state.next_cone_id) == (ref.ego, ref.time, ref.mode, ref.next_cone_id)
            assert snap.observed_ids == frozenset(ref_observed)
            modes.add(state.mode)
        assert modes == {MapMode.FUSION, MapMode.DEGRADED}
        assert state.next_cone_id > len(state.cones)  # cones were pruned or evicted on the way

    @pytest.mark.parametrize(
        "alive_at, modes",
        [
            (lambda t: ["lidar_only"], {MapMode.LIDAR_ONLY}),
            (lambda t: ["camera_only"], {MapMode.CAMERA_ONLY}),
            (lambda t: fusion_fails_at_3_s(t) if t < 6.0 else ["fusion"], {MapMode.FUSION, MapMode.DEGRADED}),
        ],
        ids=["lidar_only", "camera_only", "fusion_restored_at_6_s"],
    )
    def test_seeded_lap_of_other_sources_bit_identical(self, alive_at, modes):
        state, ref, seen = LocalMapState(), RefState(), []
        for batches, vel, dt in seeded_lap_frames(alive_at):
            state, snap = ingest_frame(state, batches, vel, dt, LAP_CONFIG)
            ref, ref_observed = ref_ingest(ref, batches, vel, dt, LAP_CONFIG)
            expected = LocalMapSnapshot(ref.time, ref.ego, cone_table(ref.cones.values()), frozenset(ref_observed), ref.mode)
            assert_same_snapshot(snap, expected)
            assert state.next_cone_id == ref.next_cone_id and state.cones is snap.cones
            seen.append(state.mode)
        assert set(seen) == modes
        if len(modes) > 1:  # fusion is back in charge after degraded frames
            assert seen[-1] is MapMode.FUSION
        assert state.next_cone_id > len(state.cones)  # cones were pruned or evicted on the way


def with_gaps(frames):
    """The frames with every third one's batches left out and every fifth one fed again at zero dt."""
    for k, (batches, vel, dt) in enumerate(frames):
        yield (batches if k % 3 else []), vel, dt
        if k % 5 == 4:
            yield batches, vel, 0.0


class TestFrameMatchesArrayReference:
    """``ingest_frame`` against the array form it replaced (``cone_reference.array_ingest_frame``):
    every state column, the state and the snapshot, frame by frame."""

    COLUMNS = ("ids", "means", "covs", "color_evidence", "existence", "last_seen")

    @classmethod
    def check(cls, frames, monkeypatch) -> None:
        """Step both over the frames, counting the frames whose association went through the greedy match."""
        import conetrack.local_map as local_map

        greedy, contended, frame = local_map.greedy_pairs, [], 0

        def counted(*args):
            contended.append(frame)
            return greedy(*args)

        monkeypatch.setattr(local_map, "greedy_pairs", counted)
        state, ref = LocalMapState(), LocalMapState()
        for frame, (batches, vel, dt) in enumerate(frames):
            state, snap = ingest_frame(state, batches, vel, dt, LAP_CONFIG)
            ref, ref_snap = array_ingest_frame(ref, batches, vel, dt, LAP_CONFIG)
            for name in cls.COLUMNS:
                mine, theirs = getattr(state.cones, name), getattr(ref.cones, name)
                assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), (frame, name)
                assert np.array_equal(mine, theirs) and mine.tobytes() == theirs.tobytes(), (frame, name)
            assert (state.ego, state.time, state.mode, state.next_cone_id) == (ref.ego, ref.time, ref.mode, ref.next_cone_id)
            assert state.last_source_time == ref.last_source_time
            assert (snap.timestamp, snap.ego, snap.observed_ids, snap.mode) == (
                ref_snap.timestamp,
                ref_snap.ego,
                ref_snap.observed_ids,
                ref_snap.mode,
            )
            assert snap.cones is state.cones
        assert frame > 100 and state.next_cone_id > len(state.cones)  # cones were pruned or evicted on the way
        # some frames' near pairs contended for a cone or an observation, and some did not
        assert 0 < len(set(contended)) < frame

    def test_seeded_fusion_lap(self, monkeypatch):
        self.check(seeded_lap_frames(lambda t: ["fusion"]), monkeypatch)

    def test_seeded_degraded_lap(self, monkeypatch):
        self.check(seeded_lap_frames(fusion_fails_at_3_s), monkeypatch)

    def test_frames_without_batches_and_at_zero_dt(self, monkeypatch):
        self.check(with_gaps(seeded_lap_frames(fusion_fails_at_3_s)), monkeypatch)


def test_one_frame_builds_at_most_two_cone_tables(monkeypatch):
    """The frame's table, and one ``take`` when rows go: none per filter step."""
    built = []
    post_init = ConeTable.__post_init__

    def counted(table):
        built.append(table)
        post_init(table)

    monkeypatch.setattr(ConeTable, "__post_init__", counted)
    state, counts = LocalMapState(), []
    for batches, vel, dt in seeded_lap_frames(fusion_fails_at_3_s):
        built.clear()
        state, _ = ingest_frame(state, batches, vel, dt, LAP_CONFIG)
        counts.append(len(built))
    assert state.mode is MapMode.DEGRADED
    assert max(counts) == 2 and min(counts) == 1
