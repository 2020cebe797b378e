import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from map_reference import align_exact_correspondences, all_pairs_candidates, broadcast_first_exit_distances
from conetrack import evaluate, pipeline
from conetrack.config import load_config
from conetrack.core import Pose2, body_frame_point, compose, invert, transform_point
from conetrack.evaluate import (
    EXIT_TEST_CHUNK,
    HISTOGRAM_BIN_COUNT,
    AlignmentResult,
    DegenerateGeometryError,
    IcpConfig,
    TrackCorridor,
    build_report,
    first_exit_distances,
    icp_align,
    load_trajectory,
    map_rmse,
    planning_stats,
    save_report,
    timing_percentiles,
    track_corridor,
)
from conetrack.pipeline import run_pipeline
from conetrack.planner import read_planner_log
from conetrack.simulate import CenterlineGeometry, TrackSpec, generate_track, load_track


def first_exit_distance(ego_xy, waypoints, corridor):
    """The batched exit test on one path: the car, then its waypoints."""
    chain = np.vstack([np.asarray(ego_xy, dtype=float)[None, :], np.asarray(waypoints, dtype=float).reshape(-1, 2)])
    return first_exit_distances(chain, [0, len(chain)], corridor)[0]


def rigid(points, theta, translation):
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return points @ rot.T + np.asarray(translation)


def spread_points(rng, n, spacing=3.0):
    """Random points with a guaranteed minimum separation."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(-30, 30, size=2)
        if all(np.hypot(*(p - q)) >= spacing for q in pts):
            pts.append(p)
    return np.array(pts)


class TestIcp:
    def test_identical_clouds(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-10, 10, size=(40, 2))
        result = icp_align(pts, pts)
        assert result.rmse == pytest.approx(0.0, abs=1e-12)
        assert result.rotation == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(result.translation, 0.0, atol=1e-12)
        assert len(result.correspondences) == 40

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(2)
        est = rng.uniform(-10, 10, size=(50, 2))
        theta, t = math.radians(10.0), np.array([1.0, 2.0])
        truth = rigid(est, theta, t)
        exact = align_exact_correspondences(est, truth)
        assert exact.rotation == pytest.approx(theta, abs=1e-9)
        assert exact.translation == pytest.approx(t, abs=1e-9)
        result = icp_align(est, truth, init=Pose2(*(truth.mean(0) - est.mean(0)), 0.0))
        assert result.rotation == pytest.approx(theta, abs=1e-6)
        assert result.translation == pytest.approx(t, abs=1e-6)
        assert result.rmse < 1e-9

    def test_outliers_beyond_reject_radius_ignored(self):
        rng = np.random.default_rng(3)
        est = rng.uniform(-10, 10, size=(60, 2))
        theta, t = math.radians(3.0), np.array([0.3, -0.2])
        truth = rigid(est, theta, t)
        outliers = rng.uniform(40, 60, size=(3, 2))  # 5% junk, far away
        est_with = np.vstack([est, outliers])
        clean = icp_align(est, truth)
        with_outliers = icp_align(est_with, truth)
        assert with_outliers.rotation == pytest.approx(clean.rotation, abs=1e-3)
        assert np.allclose(with_outliers.translation, clean.translation, atol=1e-3)
        assert with_outliers.unmatched_estimated == 3

    def test_correspondences_one_to_one(self):
        rng = np.random.default_rng(4)
        est = rng.uniform(0, 20, size=(30, 2))
        truth = rng.uniform(0, 20, size=(25, 2))
        result = icp_align(est, truth, config=IcpConfig(reject_radius_m=5.0))
        e_idx = [e for e, _ in result.correspondences]
        t_idx = [t for _, t in result.correspondences]
        assert len(set(e_idx)) == len(e_idx)
        assert len(set(t_idx)) == len(t_idx)

    def test_degenerate_geometry_reported(self):
        pts = np.zeros((5, 2))
        with pytest.raises(DegenerateGeometryError):
            icp_align(pts, pts)

    def test_monotone_rmse_over_iteration_budget(self):
        rng = np.random.default_rng(5)
        est = rng.uniform(-10, 10, size=(50, 2))
        truth = rigid(est, 0.4, [2.0, -1.0]) + rng.normal(scale=0.05, size=(50, 2))
        rmses = []
        for budget in (1, 2, 3, 5, 10, 30):
            cfg = IcpConfig(max_iterations=budget)
            rmses.append(icp_align(est, truth, config=cfg).rmse)
        assert all(b <= a + 1e-12 for a, b in zip(rmses, rmses[1:]))


class TestIcpProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 6),
        radius=st.floats(2.0, 30.0),
        jitter=st.lists(st.tuples(st.floats(-0.1, 0.1), st.floats(1.0, 1.1)), min_size=6, max_size=6),
        center=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
        theta=st.floats(-0.3, 0.3),
        shift=st.tuples(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
    )
    def test_recovers_rigid_transform_of_spread_points(self, n, radius, jitter, center, theta, shift):
        # a jittered ring: neighbours stay at least 0.86 radius apart, and
        # after the centroid start the rotation moves no point more than 0.36
        # radius, so every point's nearest match is its own image
        pts = np.array(
            [
                [center[0] + radius * r * math.cos(2 * math.pi * k / n + d), center[1] + radius * r * math.sin(2 * math.pi * k / n + d)]
                for k, (d, r) in enumerate(jitter[:n])
            ]
        )
        t = shift[0] * np.array([math.cos(shift[1]), math.sin(shift[1])])
        truth = rigid(pts, theta, t)
        result = icp_align(pts, truth, init=Pose2(*(truth.mean(0) - pts.mean(0)), 0.0), config=IcpConfig(reject_radius_m=radius))
        assert len(result.correspondences) == n
        assert abs(result.rotation - theta) <= 1e-6
        assert np.abs(result.translation - t).max() <= 1e-6
        assert result.rmse <= 1e-6


def swept_candidates(moved, truth, radius):
    """``evaluate._candidate_pairs`` with the truth points sorted as ``icp_align`` sorts them."""
    by_x = np.argsort(truth[:, 0], kind="stable")
    return evaluate._candidate_pairs(moved, truth, by_x, truth[by_x, 0], radius)


def ulp_ring(origin, radius):
    """Points the radius from ``origin`` along each axis and a diagonal, and one ulp either side of each."""
    out = []
    for dx, dy in ((radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius), (radius * math.sqrt(0.5), radius * math.sqrt(0.5))):
        x, y = origin[0] + dx, origin[1] + dy
        for toward in (-np.inf, None, np.inf):
            out.append([v if toward is None or d == 0.0 else np.nextafter(v, toward) for v, d in ((x, dx), (y, dy))])
    return np.array(out)


COORD = st.one_of(st.integers(-6, 6).map(float), st.floats(-20.0, 20.0, allow_subnormal=False))


class TestIcpSweepMatchesAllPairs:
    """The x-sorted sweep's candidate pairs against the all-pairs distance matrix, bit for bit."""

    @staticmethod
    def check(moved, truth, radius):
        moved, truth = np.asarray(moved, float).reshape(-1, 2), np.asarray(truth, float).reshape(-1, 2)
        rows, cols, dist = swept_candidates(moved, truth, radius)
        ref_rows, ref_cols, ref_dist = all_pairs_candidates(moved, truth, radius)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
        assert dist.tobytes() == ref_dist.tobytes()
        return len(rows)

    @pytest.mark.parametrize("radius", [1.0, 0.3, 2.5])
    @pytest.mark.parametrize("origin", [(0.0, 0.0), (1234.5678, -987.654321), (-3.0e5, 4.0e5)])
    def test_pairs_at_the_radius_and_one_ulp_either_side(self, radius, origin):
        truth = np.array([origin])
        moved = ulp_ring(origin, radius)
        found = self.check(moved, truth, radius)
        assert 0 < found < len(moved)

    def test_repeated_x_values(self):
        truth = np.array([[1.0, y] for y in np.linspace(-2.0, 2.0, 9)] + [[1.0, 0.5], [1.0, 0.5], [2.0, 0.0]])
        moved = np.array([[1.0, 0.0], [1.0, 0.5], [1.5, 0.25], [0.0, 0.0], [2.0, 0.9]])
        assert self.check(moved, truth, 1.0) > 10

    def test_empty_windows(self):
        truth = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert self.check(np.array([[10.0, 0.0], [-5.0, 3.0]]), truth, 1.0) == 0
        assert self.check(np.array([[0.5, 50.0]]), truth, 1.0) == 0  # inside the x window, far in y
        assert self.check(np.array([[10.0, 0.0], [0.5, 0.5]]), truth, 1.0) == 2

    @settings(max_examples=300, deadline=None)
    @given(
        moved=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=25),
        truth=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=25),
        radius=st.sampled_from([0.5, 1.0, 1.5, 4.0]),
    )
    def test_random_point_sets(self, moved, truth, radius):
        self.check(moved, truth, radius)

    def test_icp_align_equals_the_all_pairs_alignment(self, monkeypatch):
        rng = np.random.default_rng(9)
        truth = spread_points(rng, 60, spacing=2.0)
        est = rigid(truth, 0.05, [0.4, -0.3]) + rng.normal(scale=0.1, size=truth.shape)
        est = np.vstack([est, rng.uniform(-30, 30, size=(5, 2))])
        results = [icp_align(est, truth, config=IcpConfig(reject_radius_m=r)) for r in (0.5, 1.0, 3.0)]
        monkeypatch.setattr(evaluate, "_candidate_pairs", lambda moved, tru, by_x, sorted_x, r: all_pairs_candidates(moved, tru, r))
        for result, r in zip(results, (0.5, 1.0, 3.0)):
            reference = icp_align(est, truth, config=IcpConfig(reject_radius_m=r))
            assert (result.rotation, result.translation.tobytes(), result.correspondences, result.rmse) == (
                reference.rotation, reference.translation.tobytes(), reference.correspondences, reference.rmse
            )


class TestMapAlignmentPlacesEachPointAsItsOwnRotation:
    def test_batched_rotation_equals_the_per_point_product(self, monkeypatch):
        track = generate_track(TrackSpec(length_m=250.0), seed=4)
        rng = np.random.default_rng(4)
        points = track.positions + rng.normal(scale=0.3, size=track.positions.shape)
        records = [{"x_m": x, "y_m": y} for x, y in points.tolist()]
        seen = []
        monkeypatch.setattr(pipeline, "icp_align", lambda world, *args, **kwargs: seen.append(world) or icp_align(world, *args, **kwargs))
        pipeline.map_alignment(records, track)
        start = track.start_pose()
        expected = np.array([start.rotation() @ p + start.position for p in points])
        assert seen[0].tobytes() == expected.tobytes()


class TestMapRmse:
    def test_perfect_map(self):
        pts = np.random.default_rng(0).uniform(-5, 5, (20, 2))
        assert map_rmse(icp_align(pts, pts)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_magnitude(self):
        # every cone displaced by exactly 0.29 m in a random direction;
        # without re-fitting, RMSE equals that offset
        rng = np.random.default_rng(6)
        truth = spread_points(rng, 40)
        angles = rng.uniform(0, 2 * math.pi, size=40)
        est = truth + 0.29 * np.column_stack([np.cos(angles), np.sin(angles)])
        cfg = IcpConfig(max_iterations=1)  # single matching pass, identity transform
        result = icp_align(est, truth, config=cfg)
        assert map_rmse(result) == pytest.approx(0.29, abs=1e-9)

    def test_mixed_errors(self):
        truth = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        est = truth + np.array([[0.1, 0.0], [0.0, 0.2], [0.3, 0.0]])
        cfg = IcpConfig(max_iterations=1)
        result = icp_align(est, truth, config=cfg)
        assert map_rmse(result) == pytest.approx(math.sqrt(0.14 / 3), abs=1e-9)

    def test_invariant_under_common_rigid_transform(self):
        rng = np.random.default_rng(7)
        truth = rng.uniform(-20, 20, size=(30, 2))
        est = truth + rng.normal(scale=0.1, size=(30, 2))
        base = icp_align(est, truth).rmse
        moved = icp_align(rigid(est, 0.7, [5, -3]), rigid(truth, 0.7, [5, -3]),
                          init=Pose2.identity()).rmse
        assert moved == pytest.approx(base, abs=1e-6)


class TestCorridorGeometry:
    def test_single_ring_contains_against_winding_oracle(self):
        def winding_inside(point, polygon):
            angles = 0.0
            n = len(polygon)
            for i in range(n):
                a = polygon[i] - point
                b = polygon[(i + 1) % n] - point
                ang = math.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])
                angles += ang
            return abs(angles) > math.pi

        rng = np.random.default_rng(8)
        # a non-convex polygon
        polygon = np.array(
            [[0, 0], [10, 0], [10, 10], [6, 10], [6, 4], [4, 4], [4, 10], [0, 10]], dtype=float
        )
        points = rng.uniform(-2, 12, size=(500, 2))
        mine = TrackCorridor(outer=polygon).contains(points)
        oracle = np.array([winding_inside(p, polygon) for p in points])
        assert np.array_equal(mine, oracle)

    def test_corridor_contains_centerline_and_rejects_infield(self):
        track = generate_track(TrackSpec(length_m=220.0), seed=3)
        corridor = track_corridor(track)
        assert corridor.contains(track.centerline).all()
        centroid = track.centerline.mean(axis=0)
        assert not corridor.contains(centroid[None, :])[0]

    def test_circle_corridor_annulus(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        corridor = track_corridor(track)
        probes = np.array([[20.0, 0.1], [17.0, 0.0], [23.0, 0.0], [0.0, 0.0], [30.0, 0.0]])
        inside = corridor.contains(probes)
        assert list(inside) == [True, False, False, False, False]

    def test_first_exit_distance_straight_cross(self):
        corridor = TrackCorridor(outer=np.array([[0, -2], [20, -2], [20, 2], [0, 2]], dtype=float))
        ego = np.array([1.0, 0.0])
        waypoints = np.array([[3.0, 0.0], [5.0, 0.0], [7.0, 3.0]])  # exits at y=2
        d = first_exit_distance(ego, waypoints, corridor)
        # leaves between the 2nd and 3rd waypoint, 2/3 of the way up
        expected = 2.0 + 2.0 + math.hypot(2.0, 3.0) * (2.0 / 3.0)
        assert d == pytest.approx(expected, abs=1e-9)

    def test_fully_inside_path_has_no_exit(self):
        corridor = TrackCorridor(outer=np.array([[0, -2], [20, -2], [20, 2], [0, 2]], dtype=float))
        ego = np.array([1.0, 0.0])
        waypoints = np.array([[5.0, 0.5], [10.0, -0.5], [15.0, 0.0]])
        assert first_exit_distance(ego, waypoints, corridor) is None


def reference_points_in_polygon(points, polygon):
    """Per-edge loop the points x edges matrix must reproduce exactly."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    px, py = polygon[:, 0], polygon[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    for (x1, y1, x2, y2) in zip(px, py, qx, qy):
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_at = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < x_at)
    return inside


def _segments_cross(p1, p2, q1, q2):
    d = p2 - p1
    e = q2 - q1
    denom = d[0] * e[1] - d[1] * e[0]
    if abs(denom) < 1e-15:
        return False, 0.0
    w = q1 - p1
    t = (w[0] * e[1] - w[1] * e[0]) / denom
    u = (w[0] * d[1] - w[1] * d[0]) / denom
    if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
        return True, float(t)
    return False, 0.0


def reference_first_exit_distance(ego_xy, waypoints, corridor):
    """Scalar segment-by-edge loop the broadcast exit test must reproduce exactly."""
    if len(waypoints) == 0:
        return None
    chain = np.vstack([np.asarray(ego_xy, dtype=float)[None, :], waypoints])
    inside = reference_points_in_polygon(chain, corridor.outer)
    if corridor.inner is not None:
        inside &= ~reference_points_in_polygon(chain, corridor.inner)
    rings = [np.vstack([ring, ring[:1]]) for ring in (corridor.outer, corridor.inner) if ring is not None]
    arc = 0.0
    for k in range(len(chain) - 1):
        p1, p2 = chain[k], chain[k + 1]
        seg_len = float(np.hypot(*(p2 - p1)))
        best_t = None
        for ring in rings:
            for q in range(len(ring) - 1):
                crossed, t = _segments_cross(p1, p2, ring[q], ring[q + 1])
                if crossed and (best_t is None or t < best_t):
                    best_t = t
        if best_t is not None:
            return arc + best_t * seg_len
        if not inside[k + 1]:
            return arc + seg_len
        arc += seg_len
    return None


# coordinates on a half-metre grid make parallel, collinear and vertex-touching
# segments common; free floats cover the general position
grid_coord = st.integers(-16, 16).map(lambda v: v / 2.0)
free_coord = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
coord = st.one_of(grid_coord, free_coord)
point = st.tuples(coord, coord)


@st.composite
def corridors(draw):
    if draw(st.booleans()):  # a random, possibly self-crossing polygon, no inner ring
        return TrackCorridor(outer=np.array(draw(st.lists(point, min_size=3, max_size=12)), dtype=float))
    n = draw(st.integers(3, 12))
    angles = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    radii = [draw(st.sampled_from([5.0, 6.0, 6.5, 7.0])) for _ in range(n)]
    inner_scale = draw(st.sampled_from([0.3, 0.5, 0.7]))
    outer = np.column_stack([np.cos(angles) * radii, np.sin(angles) * radii])
    if draw(st.booleans()):
        outer = np.round(outer * 2.0) / 2.0  # snap to the grid the path points use
    return TrackCorridor(outer=outer, inner=outer[::-1] * inner_scale)


@st.composite
def paths_in(draw, corridor):
    """An ego point and 1-25 waypoints, some on ring vertices or edges, some repeated."""
    rings = [ring for ring in (corridor.outer, corridor.inner) if ring is not None]
    vertices = [tuple(v) for ring in rings for v in ring]
    edge_midpoints = [tuple((a + b) / 2) for ring in rings for a, b in zip(ring, np.roll(ring, -1, axis=0))]
    chain = [draw(point)]
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["free", "vertex", "edge", "repeat"]))
        if kind == "vertex":
            chain.append(draw(st.sampled_from(vertices)))
        elif kind == "edge":
            chain.append(draw(st.sampled_from(edge_midpoints)))
        elif kind == "repeat":
            chain.append(chain[-1])
        else:
            chain.append(draw(point))
    return np.array(chain[0], dtype=float), np.array(chain[1:], dtype=float)


class TestBroadcastEqualsScalarReference:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_first_exit_distance(self, data):
        corridor = data.draw(corridors())
        ego, waypoints = data.draw(paths_in(corridor))
        assert first_exit_distance(ego, waypoints, corridor) == reference_first_exit_distance(ego, waypoints, corridor)

    @settings(max_examples=60, deadline=None)
    @given(polygon=st.lists(point, min_size=1, max_size=12), points=st.lists(point, min_size=1, max_size=30))
    def test_single_ring_contains(self, polygon, points):
        polygon, points = np.array(polygon, dtype=float), np.array(points, dtype=float)
        for probe in (points, np.vstack([points, polygon])):  # and every vertex itself
            assert np.array_equal(TrackCorridor(outer=polygon).contains(probe), reference_points_in_polygon(probe, polygon))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_contains_counts_each_ring_apart(self, data):
        corridor = data.draw(corridors())
        ego, waypoints = data.draw(paths_in(corridor))
        probe = np.vstack([ego, waypoints, corridor.edge_start])  # and every vertex of both rings
        expected = reference_points_in_polygon(probe, corridor.outer)
        if corridor.inner is not None:
            expected &= ~reference_points_in_polygon(probe, corridor.inner)
        assert np.array_equal(corridor.contains(probe), expected)

    def test_empty_path_has_no_exit(self):
        corridor = TrackCorridor(outer=np.array([[0, -2], [20, -2], [20, 2], [0, 2]], dtype=float))
        assert first_exit_distance(np.zeros(2), np.zeros((0, 2)), corridor) is None

    def test_path_ending_on_the_boundary_exits_there(self):
        # the bottom edge counts as inside, so only the closed t interval sees the exit
        corridor = TrackCorridor(outer=np.array([[0, -2], [20, -2], [20, 2], [0, 2]], dtype=float))
        ego, waypoints = np.array([1.0, 0.0]), np.array([[10.0, -2.0]])
        expected = math.hypot(9.0, 2.0)
        assert first_exit_distance(ego, waypoints, corridor) == reference_first_exit_distance(ego, waypoints, corridor)
        assert first_exit_distance(ego, waypoints, corridor) == pytest.approx(expected, abs=1e-12)

    def test_near_parallel_crossing_counts_at_the_next_vertex(self):
        # |denom| = 4e-16 is rejected, so the exit is found at the outside waypoint
        corridor = TrackCorridor(outer=np.array([[0, 0], [20, 0], [20, 4], [0, 4]], dtype=float))
        ego, waypoints = np.array([5.0, 1e-17]), np.array([[10.0, -1e-17]])
        assert first_exit_distance(ego, waypoints, corridor) == reference_first_exit_distance(ego, waypoints, corridor)
        assert first_exit_distance(ego, waypoints, corridor) == 5.0


    def test_segment_parallel_to_an_edge_within_a_subnormal_denominator(self):
        # the bottom edge rises 5e-324 m over 20 m: its divisions overflow, and the pair is masked
        corridor = TrackCorridor(outer=np.array([[0, 0], [20, 5e-324], [20, 4], [0, 4]], dtype=float))
        ego, waypoints = np.array([1.0, 2.0]), np.array([[6.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exit_distance = first_exit_distance(ego, waypoints, corridor)
            assert exit_distance == reference_first_exit_distance(ego, waypoints, corridor)
        assert exit_distance is None


@st.composite
def exit_paths(draw, corridor):
    """A car (anywhere, on a ring vertex or far outside) and 0-12 waypoints.

    Waypoints are free points, ring vertices, edge midpoints, repeats, or a
    step nearly parallel to a ring edge, whose |denom| against that edge is
    about 1e-15, on either side of the rejection threshold.
    """
    rings = [ring for ring in (corridor.outer, corridor.inner) if ring is not None]
    vertices = [tuple(v) for ring in rings for v in ring]
    edges = [(a, b) for ring in rings for a, b in zip(ring, np.roll(ring, -1, axis=0))]
    edge_midpoints = [tuple((a + b) / 2) for a, b in edges]
    chain = [draw(st.one_of(point, st.sampled_from(vertices), st.just((40.0, -40.0))))]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["free", "vertex", "edge", "repeat", "parallel"]))
        a, b = draw(st.sampled_from(edges))
        e = b - a
        if kind == "vertex":
            chain.append(draw(st.sampled_from(vertices)))
        elif kind == "edge":
            chain.append(draw(st.sampled_from(edge_midpoints)))
        elif kind == "repeat":
            chain.append(chain[-1])
        elif kind == "parallel" and e @ e > 1e-6:  # a ring edge of some length
            # d = scale * e + mu * perp(e) has d x e = -mu |e|^2 = denom
            denom = draw(st.sampled_from([0.0, 4e-16, -9e-16, 1e-15, -1e-15, 1.1e-15, -3e-15]))
            step = draw(st.sampled_from([0.5, 1.0, 2.0])) * e - denom / (e @ e) * np.array([-e[1], e[0]])
            chain.append(tuple(np.asarray(chain[-1], dtype=float) + step))
        else:
            chain.append(draw(point))
    return np.array(chain[0], dtype=float), np.array(chain[1:], dtype=float).reshape(-1, 2)


def chains_of(paths):
    """The batched exit test's input: every path's chain (car, then waypoints), stacked, and the chain offsets."""
    chains = [np.vstack([ego[None, :], waypoints]) for ego, waypoints in paths]
    return np.vstack(chains), np.cumsum([0] + [len(c) for c in chains]).tolist()


class TestBatchedExitEqualsScalarReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_path_of_a_set(self, data):
        corridor = data.draw(corridors())
        paths = data.draw(st.lists(exit_paths(corridor), min_size=1, max_size=40))
        points, offsets = chains_of(paths)
        expected = [reference_first_exit_distance(ego, waypoints, corridor) for ego, waypoints in paths]
        assert first_exit_distances(points, offsets, corridor) == expected

    def test_chunks_that_end_inside_a_path(self):
        rng = np.random.default_rng(12)
        angles = np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
        outer = 6.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        corridor = TrackCorridor(outer=outer, inner=outer[::-1] * 0.5)
        paths = [(rng.uniform(-8, 8, 2), rng.uniform(-8, 8, (int(rng.integers(0, 25)), 2))) for _ in range(40)]
        points, offsets = chains_of(paths)
        # a chunk boundary falls between two segments of one path
        boundaries = range(EXIT_TEST_CHUNK, len(points), EXIT_TEST_CHUNK)
        assert any(start < m < end - 1 for m in boundaries for start, end in zip(offsets, offsets[1:]))
        expected = [reference_first_exit_distance(ego, waypoints, corridor) for ego, waypoints in paths]
        assert first_exit_distances(points, offsets, corridor) == expected
        assert any(d is None for d in expected) and any(d is not None for d in expected)


# a hexagonal ring whose vertex (-6.5, 0) ends the edge from (-2.5, 4.5)
HEXAGON = TrackCorridor(
    outer=np.array([[5.0, 0.0], [2.5, 4.5], [-2.5, 4.5], [-6.5, 0.0], [-2.5, -4.5], [2.5, -4.5]]),
    inner=np.array([[0.75, -1.35], [-0.75, -1.35], [-1.95, 0.0], [-0.75, 1.35], [0.75, 1.35], [1.5, 0.0]]),
)
BOX = TrackCorridor(outer=np.array([[0, -2], [20, -2], [20, 2], [0, 2]], dtype=float))


@pytest.fixture(scope="module")
def lap_plan_run(tmp_path_factory):
    """The output of ``fsg-like-5ms`` as shipped: 500 planned snapshots on a 250 m loop."""
    out = tmp_path_factory.mktemp("lap_plan")
    run_pipeline(load_config("fsg-like-5ms"), out)
    return out


class TestNearEdgeExitEqualsBroadcastReference:
    """Each segment meets only the ring edges near it; meeting all of them is the reference."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_chains(self, data):
        corridor = data.draw(corridors())
        paths = data.draw(st.lists(exit_paths(corridor), min_size=1, max_size=40))
        points, offsets = chains_of(paths)
        assert first_exit_distances(points, offsets, corridor) == broadcast_first_exit_distances(points, offsets, corridor)

    @pytest.mark.parametrize(
        "corridor, chain",
        [
            (BOX, [(1.0, 0.0), (10.0, -2.0), (12.0, 0.0)]),  # touches the bottom edge and turns back in
            (BOX, [(1.0, 0.0), (10.0, -2.0), (12.0, -3.0)]),  # touches it, then leaves
            (BOX, [(18.0, 0.0), (22.0, -4.0)]),  # crosses the ring at its vertex (20, -2)
            (BOX, [(1.0, -2.0), (15.0, -2.0)]),  # runs along the bottom edge
            (BOX, [(1.0, -1.5), (15.0, -1.5), (15.0, -2.5)]),  # parallel to it, inside, then out
            (BOX, [(-3.0, -2.0), (-1.0, -2.0), (0.0, -2.0)]),  # on the bottom edge's line, up to its vertex
            # 4.5e-116 m below the vertex (-6.5, 0), so exactly it never meets
            # the edge that ends there; its boxes are that far apart, and the
            # float test rounds the gap away and counts a crossing at t = 0
            (HEXAGON, [(-6.5, -4.49919858e-116), (-2.5, -4.5)]),
        ],
    )
    def test_touching_vertex_and_parallel_segments(self, corridor, chain):
        points, offsets = np.array(chain, dtype=float), [0, len(chain)]
        assert first_exit_distances(points, offsets, corridor) == broadcast_first_exit_distances(points, offsets, corridor)

    def test_lap_plan_log(self, lap_plan_run, monkeypatch):
        seen = []

        def compared(points, offsets, corridor):
            exits = first_exit_distances(points, offsets, corridor)
            seen.append((exits, broadcast_first_exit_distances(points, offsets, corridor)))
            return exits

        monkeypatch.setattr(evaluate, "first_exit_distances", compared)
        out = lap_plan_run
        planning_stats(read_planner_log(out / "planner_log.ndjson"), load_track(out / "track.json"), load_trajectory(out / "trajectory.csv"))
        ((exits, expected),) = seen
        assert len(exits) == 500 and exits == expected
        assert any(d is None for d in exits) and any(d is not None for d in exits)


def reference_planning_stats(records, track, trajectory=None):
    """One record at a time, through the scalar exit reference: the loop planning_stats must reproduce exactly."""
    corridor = track_corridor(track)
    start_pose = CenterlineGeometry(track.centerline).pose_at(0.0)
    lengths = np.zeros(HISTOGRAM_BIN_COUNT)
    exits = np.zeros(HISTOGRAM_BIN_COUNT)
    total = 0
    for record in records:
        waypoints = np.array(record.get("waypoints_m") or [])
        if waypoints.size == 0:
            continue
        total += 1
        seg = np.diff(waypoints, axis=0)
        length = float(np.hypot(seg[:, 0], seg[:, 1]).sum()) if len(waypoints) > 1 else 0.0
        lengths[min(int(length), HISTOGRAM_BIN_COUNT - 1)] += 1
        ego_local = Pose2(record["ego"]["x_m"], record["ego"]["y_m"], record["ego"]["theta_rad"])
        entry = trajectory.get(record["timestamp_s"]) if trajectory else None
        to_world = compose(entry[0], invert(entry[1])) if entry is not None else start_pose
        exit_d = reference_first_exit_distance(
            transform_point(to_world, ego_local.position), transform_point(to_world, waypoints), corridor
        )
        if exit_d is not None:
            exits[min(int(exit_d), HISTOGRAM_BIN_COUNT - 1)] += 1
    if total:
        lengths /= total
        exits /= total
    return lengths, exits, total


@pytest.fixture(scope="module")
def circle_track():
    return generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)


class TestPlanningStatsEqualsPerRecordReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_records=st.integers(1, 40), covered=st.floats(0.0, 1.0))
    def test_histograms(self, circle_track, seed, n_records, covered):
        # paths wander from near the start pose, some leaving the circle's
        # corridor; a trajectory places a share of them at poses around the track
        rng = np.random.default_rng(seed)
        geom = CenterlineGeometry(circle_track.centerline)
        records, trajectory = [], {}
        for k in range(n_records):
            ego = rng.normal(scale=[3.0, 1.0, 0.2])
            heading = ego[2] + np.cumsum(rng.normal(scale=0.15, size=int(rng.integers(0, 16))))
            steps = rng.uniform(0.5, 1.5, size=len(heading))[:, None] * np.column_stack([np.cos(heading), np.sin(heading)])
            waypoints = ego[:2] + np.cumsum(steps, axis=0)
            timestamp = 0.1 * k
            records.append(
                {
                    "timestamp_s": timestamp,
                    "ego": {"x_m": float(ego[0]), "y_m": float(ego[1]), "theta_rad": float(ego[2])},
                    "waypoints_m": waypoints.tolist(),
                }
            )
            if rng.uniform() < covered:
                trajectory[timestamp] = (geom.pose_at(rng.uniform(0.0, geom.length)), Pose2(*ego))
        for gauge in (None, trajectory):
            stats = planning_stats(records, circle_track, gauge)
            lengths, exits, total = reference_planning_stats(records, circle_track, gauge)
            assert stats.total_paths == total
            assert np.array_equal(stats.path_length_fractions, lengths)
            assert np.array_equal(stats.out_of_track_fractions, exits)


class TestPlanningStatsMemory:
    # an unchunked broadcast of one such log's ~6,500 chain points against
    # the ring edges holds over 12 MB in each (points x edges) temporary
    PEAK_BOUND_BYTES = 4_000_000

    def test_peak_over_a_500_record_log(self):
        config = load_config("fsg-like-5ms")
        track = generate_track(config.track_spec, config.seed)
        geom = CenterlineGeometry(track.centerline)
        start = geom.pose_at(0.0)
        records = []
        for k in range(500):
            pose = geom.pose_at(k * geom.length / 500)
            # 12 waypoints 15 m straight ahead: the path leaves the track on bends
            ahead = pose.position + np.outer(1.25 * np.arange(1, 13), [math.cos(pose.theta), math.sin(pose.theta)])
            ego = body_frame_point(start, pose.position)
            records.append(
                {
                    "timestamp_s": 0.1 * k,
                    "ego": {"x_m": float(ego[0]), "y_m": float(ego[1]), "theta_rad": pose.theta - start.theta},
                    "waypoints_m": body_frame_point(start, ahead).tolist(),
                }
            )
        tracemalloc.start()
        try:
            stats = planning_stats(records, track)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.total_paths == 500
        assert 0.0 < stats.out_of_track_fractions.sum() < 1.0
        assert peak < self.PEAK_BOUND_BYTES, f"planning_stats peaked at {peak / 1e6:.2f} MB"


class TestPlanningStats:
    def _records(self, world_paths, track, timestamp=0.0):
        # planner records live in the local frame anchored at the track start
        from conetrack.core import body_frame_point, invert
        from conetrack.simulate import CenterlineGeometry

        start = CenterlineGeometry(track.centerline).pose_at(0.0)
        records = []
        for wp in world_paths:
            local = np.array([body_frame_point(start, p) for p in wp])
            ego = body_frame_point(start, wp[0])
            records.append(
                {
                    "timestamp_s": timestamp,
                    "waypoints_m": [[float(x), float(y)] for x, y in local],
                    "ego": {"x_m": float(ego[0]), "y_m": float(ego[1]), "theta_rad": 0.0},
                }
            )
        return records

    def test_all_inside_no_exits(self):
        polygon_track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        geom_center = polygon_track.centerline
        paths = [geom_center[k : k + 10] for k in range(0, 60, 10)]
        records = self._records(paths, polygon_track)  # ego at each path's first waypoint
        stats = planning_stats(records, polygon_track)
        assert stats.out_of_track_fractions.sum() == 0.0
        assert stats.path_length_fractions.sum() == pytest.approx(1.0, abs=1e-9)

    def test_length_binning(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        straightish = track.centerline[:40]  # ~19.5 m of arc, lands in top bin
        short = track.centerline[:5]  # ~2 m
        stats = planning_stats(self._records([straightish, short], track), track)
        assert stats.total_paths == 2
        assert stats.path_length_fractions[15] == pytest.approx(0.5)
        assert stats.path_length_fractions[2] == pytest.approx(0.5)

    def test_trajectory_gauge_places_paths_on_track(self):
        from conetrack.core import Pose2
        from conetrack.simulate import CenterlineGeometry

        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        geom = CenterlineGeometry(track.centerline)
        # a path straight ahead in the body frame of a car at arc 30 m
        true_pose = geom.pose_at(30.0)
        waypoints = [[float(2 + k), 0.0] for k in range(10)]
        record = {
            "timestamp_s": 3.0,
            "waypoints_m": waypoints,
            "ego": {"x_m": 0.0, "y_m": 0.0, "theta_rad": 0.0},
        }
        trajectory = {3.0: (true_pose, Pose2.identity())}
        stats = planning_stats([record], track, trajectory)
        assert stats.out_of_track_fractions.sum() > 0.0  # straight line leaves a circle
        no_gauge = planning_stats([record], track)
        assert no_gauge.out_of_track_fractions.sum() > 0.0

    def test_empty_log(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        stats = planning_stats([], track)
        assert stats.total_paths == 0
        assert stats.path_length_fractions.sum() == 0.0


class TestReport:
    def test_percentiles_match_sort_oracle(self):
        rng = np.random.default_rng(9)
        samples = list(rng.exponential(5.0, size=250))
        result = timing_percentiles(samples)
        ordered = sorted(samples)
        for p in (50, 90, 99):
            rank = math.ceil(p / 100 * len(ordered)) - 1
            assert abs(result[f"p{p}_ms"] - ordered[rank]) <= max(
                abs(ordered[min(rank + 1, len(ordered) - 1)] - ordered[rank]), 1e-12
            )

    def test_report_roundtrip(self, tmp_path):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        stats = planning_stats([], track)
        report = build_report({"rmse_m": 0.1}, stats, {"planner": [1.0, 2.0, 3.0]}, {"seed": 7})
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        save_report(report, json_path, csv_path)
        loaded = json.loads(json_path.read_text())
        assert loaded == json.loads(json.dumps(report))
        assert csv_path.read_text().startswith("bin_low_m")

    def test_empty_planner_log_still_reports_map(self):
        report = build_report({"rmse_m": 0.2}, None, None, None)
        assert report["map"]["rmse_m"] == 0.2
        assert report["planning"]["total_paths"] == 0
