import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetrack.core import Pose2
from conetrack.evaluate import (
    AlignmentResult,
    DegenerateGeometryError,
    IcpConfig,
    TrackCorridor,
    align_exact_correspondences,
    build_report,
    first_exit_distance,
    icp_align,
    map_rmse,
    planning_stats,
    points_in_polygon,
    save_report,
    timing_percentiles,
    track_corridor,
)
from conetrack.simulate import TrackSpec, generate_track


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
        result = icp_align(est, truth, init="centroid")
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
                          init=(0.0, np.zeros(2))).rmse
        assert moved == pytest.approx(base, abs=1e-6)


class TestCorridorGeometry:
    def test_points_in_polygon_against_winding_oracle(self):
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
        mine = points_in_polygon(points, polygon)
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
    def test_points_in_polygon(self, polygon, points):
        polygon, points = np.array(polygon, dtype=float), np.array(points, dtype=float)
        for probe in (points, np.vstack([points, polygon])):  # and every vertex itself
            assert np.array_equal(points_in_polygon(probe, polygon), reference_points_in_polygon(probe, polygon))

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
