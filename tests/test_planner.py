import dataclasses
import hashlib
import json
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conetrack.core import ColorDistribution, ConeEstimate, Gaussian2, Pose2
from conetrack.local_map import ConeTable, LocalMapConfig, LocalMapSnapshot, LocalMapState, MapMode, ingest_frame
from conetrack.planner import (
    CandidatePath,
    DegenerateSnapshotError,
    FeatureTerm,
    PathFeatures,
    PlannerConfig,
    PriorConfig,
    SearchLimits,
    _population_std,
    compute_features,
    enumerate_paths,
    log_likelihood,
    log_prior,
    plan_record,
    plan_snapshot,
    select_path,
    triangulate,
)
from conetrack.simulate import (
    ScenarioDriver,
    SimRun,
    TrackSpec,
    default_profile,
    generate_track,
    noisy_velocity,
    observe_cones,
)


def make_cone(cid, xy, color=(0.98, 0.01, 0.01)):
    return ConeEstimate(
        id=cid,
        position=Gaussian2.isotropic(np.array(xy, dtype=float), 0.1),
        color_evidence=np.array(color) * 10 + 1e-12,
        existence=0.9,
        last_seen=0.0,
    )


def evidence(cones):
    """The (n, 3) color evidence of cone estimates, in id order."""
    return ConeTable.from_estimates(cones).color_evidence


BLUE = (0.98, 0.01, 0.01)
YELLOW = (0.01, 0.98, 0.01)


def corridor_snapshot(n_stations=8, spacing=2.5, width=4.0, stagger=0.0, jitter=0.0, seed=0):
    """Straight corridor along +x: blue row at +width/2, yellow at -width/2."""
    rng = np.random.default_rng(seed)
    cones = []
    cid = 0
    for k in range(n_stations):
        x = k * spacing
        for y, color in ((width / 2, BLUE), (-width / 2, YELLOW)):
            xx = x + (stagger if y > 0 else 0.0)
            pos = np.array([xx, y]) + rng.normal(scale=jitter, size=2)
            cones.append(make_cone(cid, pos, color))
            cid += 1
    return LocalMapSnapshot(0.0, Pose2(0.0, 0.0, 0.0), ConeTable.from_estimates(cones), frozenset(range(cid)), MapMode.FUSION)


class TestTriangulate:
    def test_three_points_one_triangle(self):
        tri = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert len(tri.simplices) == 1

    def test_unit_square(self):
        tri = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert len(tri.simplices) == 2
        assert len(tri.edges()) == 5

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DegenerateSnapshotError):
            triangulate(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateSnapshotError):
            triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))

    def test_circumcircle_property_brute_force(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            pts = rng.uniform(0, 30, size=(50, 2))
            tri = triangulate(pts)
            for simplex in tri.simplices:
                a, b, c = pts[simplex]
                # circumcenter from perpendicular bisector equations
                d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
                ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
                uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
                center = np.array([ux, uy])
                radius = np.hypot(*(a - center))
                dist = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
                dist[simplex] = np.inf
                assert dist.min() > radius - 1e-9


class TestEnumerate:
    def test_single_corridor_single_maximal_path(self):
        snap = corridor_snapshot(n_stations=6, stagger=1.25)
        positions = snap.cones.means
        tri = triangulate(positions)
        config = PlannerConfig.with_limits(max_edges=50, max_length_m=100.0)
        paths = enumerate_paths(tri, snap.ego, snap.cones.color_evidence, config)
        assert len(paths) == 1

    def test_y_junction_multiple_candidates(self):
        cones = []
        cid = 0
        # stem along +x, then two arms branching up-right and down-right
        for x in (0.0, 2.5, 5.0):
            cones.append(make_cone(cid, (x, 2.0), BLUE)); cid += 1
            cones.append(make_cone(cid, (x, -2.0), YELLOW)); cid += 1
        for k in range(1, 4):
            base = np.array([5.0 + 2.5 * k, 0.0])
            up = np.array([0.0, 2.2 * k])
            cones.append(make_cone(cid, tuple(base + up + [0, 2.0]), BLUE)); cid += 1
            cones.append(make_cone(cid, tuple(base + up - [0, 2.0]), YELLOW)); cid += 1
            cones.append(make_cone(cid, tuple(base - up + [0, 2.0]), BLUE)); cid += 1
            cones.append(make_cone(cid, tuple(base - up - [0, 2.0]), YELLOW)); cid += 1
        snap = LocalMapSnapshot(0.0, Pose2(0, 0, 0), ConeTable.from_estimates(cones), frozenset(range(cid)), MapMode.FUSION)
        positions = snap.cones.means
        tri = triangulate(positions)
        config = PlannerConfig.with_limits(max_edges=50, max_length_m=100.0)
        paths = enumerate_paths(tri, snap.ego, snap.cones.color_evidence, config)
        assert len(paths) >= 2

    def test_straight_corridor_waypoints_on_centerline(self):
        snap = corridor_snapshot(n_stations=8, spacing=2.5, width=4.0)
        config = PlannerConfig.with_limits(max_length_m=15.0)
        result = plan_snapshot(snap, config)
        assert result.selected is not None
        assert np.abs(result.selected.waypoints[:, 1]).max() < 1e-6

    def test_waypoints_are_crossed_edge_midpoints(self):
        snap = corridor_snapshot(n_stations=6, stagger=1.25)
        result = plan_snapshot(snap)
        positions = snap.cones.means
        sel = result.selected
        for wp, (a, b) in zip(sel.waypoints, sel.crossed_edges):
            assert np.allclose(wp, 0.5 * (positions[a] + positions[b]))

    def test_too_few_cones_yields_empty_result(self):
        cones = (make_cone(0, (1, 1)), make_cone(1, (2, 1)))
        snap = LocalMapSnapshot(0.0, Pose2(0, 0, 0), ConeTable.from_estimates(cones), frozenset({0, 1}), MapMode.FUSION)
        result = plan_snapshot(snap)
        assert result.selected is None
        assert result.candidates == ()


class TestFeatures:
    def test_straight_regular_corridor_zero_deviation(self):
        # half-staggered rows: every crossed edge has identical length
        snap = corridor_snapshot(n_stations=8, stagger=1.25)
        result = plan_snapshot(snap)
        f = result.selected.features
        assert f.max_heading_change_rad == pytest.approx(0.0, abs=1e-9)
        assert f.left_spacing_std_m == pytest.approx(0.0, abs=1e-9)
        assert f.right_spacing_std_m == pytest.approx(0.0, abs=1e-9)
        assert f.width_std_m == pytest.approx(0.0, abs=1e-9)

    def test_right_angle_turn(self):
        wp = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        f = compute_features(wp, [(0, 1), (1, 2), (2, 3)], np.zeros((4, 2)), (), (), SearchLimits())
        assert f.max_heading_change_rad == pytest.approx(math.pi / 2)

    def test_width_std_from_mixed_widths(self):
        points = np.array(
            [[0.0, 1.5], [0.0, -1.5], [2.0, 1.5], [2.0, -1.5], [4.0, 2.5], [4.0, -2.5]]
        )
        edges = [(0, 1), (2, 3), (4, 5)]  # widths 3, 3, 5
        wp = np.array([points[a] / 2 + points[b] / 2 for a, b in edges])
        f = compute_features(wp, edges, points, (0, 2, 4), (1, 3, 5), SearchLimits())
        assert f.width_std_m == pytest.approx(math.sqrt(8.0 / 9.0), abs=1e-4)

    def test_edge_count_saturates(self):
        wp = np.zeros((20, 2))
        wp[:, 0] = np.arange(20)
        edges = [(0, 1)] * 20
        f = compute_features(wp, edges, np.zeros((2, 2)), (), (), SearchLimits(desired_edge_count=15))
        assert f.crossed_edges_capped == 15.0


def reference_population_std(values):
    """The np.mean form the planner's standard deviation must reproduce bit for bit."""
    if len(values) < 1:
        return 0.0
    arr = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))


class TestPopulationStd:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(0.0, 8.0), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
            min_size=1,
            max_size=30,
        )
    )
    def test_equals_np_mean_form(self, values):
        assert _population_std(values) == reference_population_std(values)


class TestPrior:
    def test_zero_cost_gives_unit_prior(self):
        features = PathFeatures(0.0, 0.0, 0.0, 0.0, 15.0, 15.0)
        assert log_prior(features, PriorConfig.defaults()) == pytest.approx(0.0)

    def test_single_term_hand_computed(self):
        config = PriorConfig(
            prior_weight=29.0,
            terms=(
                FeatureTerm(0.1, 0.0, 1.0),
                FeatureTerm(0.0, 0.0, 1.0),
                FeatureTerm(0.0, 0.0, 1.0),
                FeatureTerm(0.0, 0.0, 1.0),
                FeatureTerm(0.0, 0.0, 1.0),
                FeatureTerm(0.0, 0.0, 1.0),
            ),
        )
        features = PathFeatures(2.0, 0, 0, 0, 0, 0)
        assert log_prior(features, config) == pytest.approx(-11.6)

    def test_default_weights(self):
        config = PriorConfig.defaults()
        assert config.prior_weight == 29.0
        assert [t.weight for t in config.terms] == [0.1, 0.1, 0.1, 0.1, 0.1, 0.5]

    def test_monotone_penalty(self):
        config = PriorConfig.defaults()
        base = PathFeatures(0.1, 0.2, 0.1, 0.3, 10.0, 12.0)
        lp = log_prior(base, config)
        worse = PathFeatures(0.5, 0.2, 0.1, 0.3, 10.0, 12.0)
        assert log_prior(worse, config) < lp


class TestLikelihood:
    def test_certain_consistent_cones_zero(self):
        cones = [make_cone(0, (0, 2), (1.0, 0.0, 0.0)), make_cone(1, (0, -2), (0.0, 1.0, 0.0))]
        ll = log_likelihood(evidence(cones), frozenset({0}), frozenset({1}))
        assert ll == pytest.approx(0.0)

    def test_left_cone_takes_max_of_blue_and_unknown(self):
        cones = [make_cone(0, (0, 2), (0.7, 0.2, 0.1))]
        assert log_likelihood(evidence(cones), frozenset({0}), frozenset()) == pytest.approx(math.log(0.7))
        cones = [make_cone(0, (0, 2), (0.1, 0.2, 0.7))]
        assert log_likelihood(evidence(cones), frozenset({0}), frozenset()) == pytest.approx(math.log(0.7))

    def test_contradiction_floored(self):
        cones = [make_cone(0, (0, 2), (0.0, 1.0, 0.0))]  # certain yellow on the left
        ll = log_likelihood(evidence(cones), frozenset({0}), frozenset())
        assert ll == pytest.approx(math.log(1e-6))

    def test_non_boundary_cone_takes_global_max(self):
        cones = [make_cone(0, (9, 9), (0.2, 0.5, 0.3))]
        assert log_likelihood(evidence(cones), frozenset(), frozenset()) == pytest.approx(math.log(0.5))

    def test_every_cone_contributes(self):
        snap = corridor_snapshot(n_stations=5)
        result = plan_snapshot(snap)
        sel = result.selected
        # adding a far-away cone changes the likelihood by exactly its own factor
        extra = make_cone(99, (-30.0, 30.0), (0.2, 0.3, 0.5))
        ll_with = log_likelihood(np.vstack([snap.cones.color_evidence, extra.color_evidence]), sel.left_cones, sel.right_cones)
        ll_without = log_likelihood(snap.cones.color_evidence, sel.left_cones, sel.right_cones)
        assert ll_with - ll_without == pytest.approx(math.log(0.5))


class TestSelection:
    def test_singleton_always_selected(self):
        snap = corridor_snapshot(n_stations=6, stagger=1.25)
        result = plan_snapshot(snap)
        assert result.selected is result.candidates[0] or result.selected in result.candidates
        assert len(result.candidates) == 1

    def test_posterior_decomposition_exact(self):
        snap = corridor_snapshot(n_stations=8, jitter=0.15, seed=3)
        result = plan_snapshot(snap)
        for cand in result.candidates:
            assert cand.log_posterior == cand.log_prior + cand.log_likelihood

    def test_color_contradiction_changes_selection(self):
        # two parallel corridors sharing a cone row; flip shared-row colors
        # and the posterior must favor the consistent side
        cones = []
        cid = 0
        for k in range(6):
            x = 2.5 * k
            cones.append(make_cone(cid, (x, 2.0), BLUE)); cid += 1
            cones.append(make_cone(cid, (x, -2.0), YELLOW)); cid += 1
        snap = LocalMapSnapshot(0.0, Pose2(0, 0, 0), ConeTable.from_estimates(cones), frozenset(range(cid)), MapMode.FUSION)
        result = plan_snapshot(snap)
        sel = result.selected
        positions = snap.cones.means
        assert all(positions[i][1] > 0 for i in sel.left_cones)
        assert all(positions[i][1] < 0 for i in sel.right_cones)

    def test_argmax_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(60)
        config = PlannerConfig(
            limits=SearchLimits(beam_width=None), prior=PriorConfig.defaults()
        )
        for trial in range(30):
            snap = corridor_snapshot(
                n_stations=int(rng.integers(4, 9)),
                jitter=0.25,
                seed=int(rng.integers(0, 10_000)),
            )
            result = plan_snapshot(snap, config)
            if not result.candidates:
                continue
            best_idx, best_key = None, None
            for idx, cand in enumerate(result.candidates):
                lp = log_prior(cand.features, config.prior)
                ll = log_likelihood(snap.cones.color_evidence, cand.left_cones, cand.right_cones)
                key = (-(lp + ll), -cand.features.length_m, cand.features.max_heading_change_rad, idx)
                if best_key is None or key < best_key:
                    best_idx, best_key = idx, key
            assert result.selected is result.candidates[best_idx]

    def test_evidence_scaling_invariance(self):
        snap = corridor_snapshot(n_stations=7, jitter=0.2, seed=9)
        result = plan_snapshot(snap)
        scaled_cones = dataclasses.replace(snap.cones, color_evidence=snap.cones.color_evidence * 7.5)
        scaled_snap = LocalMapSnapshot(
            snap.timestamp, snap.ego, scaled_cones, snap.observed_ids, snap.mode
        )
        scaled_result = plan_snapshot(scaled_snap)
        assert scaled_result.selected.crossed_edges == result.selected.crossed_edges

    def test_empty_candidates_returns_none(self):
        assert select_path([]) is None


def reference_log_likelihood(color_evidence, left_cones, right_cones, floor=1e-6):
    """Per-cone loop the planner's log-term table must reproduce bit for bit."""
    total = 0.0
    for idx, evidence in enumerate(color_evidence):
        color = ColorDistribution.from_evidence(evidence)
        if idx in left_cones:
            p = max(color.p_blue, color.p_unknown)
        elif idx in right_cones:
            p = max(color.p_yellow, color.p_unknown)
        else:
            p = max(color.p_blue, color.p_yellow, color.p_unknown)
        total += math.log(max(p, floor))
    return total


def noisy_run_snapshots(frames):
    """Local-map snapshots of the first ``frames`` frames of a seeded noisy fusion lap."""
    track = generate_track(TrackSpec(length_m=210.0), seed=4)
    profile = default_profile("fusion")
    run = SimRun.constant_speed(track, 5.0, frame_rate_hz=10.0, seed=11)
    config = LocalMapConfig.for_profile(profile, run.frame_rate_hz)
    rng = np.random.default_rng(run.seed)
    state, snaps = LocalMapState(), []
    for timestamp, dt, pose, vel in islice(ScenarioDriver(run).frames(), frames):
        obs = observe_cones(track, pose, profile, rng, timestamp)
        state, snap = ingest_frame(state, [obs], noisy_velocity(vel, profile, rng), dt, config)
        snaps.append(snap)
    return snaps


class TestScoreOnce:
    def test_search_scores_equal_fresh_scoring_of_each_candidate(self):
        # the search scores each path once, as it grows it; every emitted
        # candidate must carry exactly the scores of its own final geometry
        config = PlannerConfig()
        snaps = [corridor_snapshot(n_stations=8, jitter=0.25, seed=s) for s in range(5)]
        snaps += noisy_run_snapshots(60)
        planned = 0
        for snap in snaps:
            result = plan_snapshot(snap, config)
            planned += bool(result.candidates)
            positions = snap.cones.means
            for cand in result.candidates:
                ll = log_likelihood(snap.cones.color_evidence, cand.left_cones, cand.right_cones)
                assert cand.log_likelihood == ll == reference_log_likelihood(snap.cones.color_evidence, cand.left_cones, cand.right_cones)
                assert cand.features == compute_features(
                    cand.waypoints, cand.crossed_edges, positions, cand.left_sequence, cand.right_sequence, config.limits
                )
                assert cand.log_prior == log_prior(cand.features, config.prior)
        assert planned >= 25


class TestGoldenBytes:
    # sha256 of the plan records below, recorded while the search scored
    # every path with compute_features from scratch; with verbose candidates
    # it pins every candidate's scores, not only the selected path
    PLAN_RECORDS_SHA256 = "c83f5d39f6e114592c6a8096169aa11d278818e830cce03caff6d5be8d9b8b06"

    def test_noisy_lap_plans_the_recorded_candidates(self):
        digest = hashlib.sha256()
        for snap in noisy_run_snapshots(60):
            record = plan_record(plan_snapshot(snap, PlannerConfig()), snap, verbose_candidates=True)
            digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
        assert digest.hexdigest() == self.PLAN_RECORDS_SHA256


class TestNoiseFreeContainment:
    def test_selected_path_stays_inside_true_corridor(self):
        # cone spacing near the feature set's operating point (~1 m of path
        # per crossed edge); sparse 5 m spacing leaves the edge-count term on
        # a gradient steep enough to override color evidence
        from conetrack.evaluate import first_exit_distance, track_corridor
        from conetrack.simulate import CenterlineGeometry, TrackSpec, generate_track

        track = generate_track(TrackSpec(length_m=210.0, hairpin_count=1, cone_spacing_m=2.2), seed=7)
        corridor = track_corridor(track)
        geom = CenterlineGeometry(track.centerline)
        config = PlannerConfig.with_limits(max_length_m=15.0)
        planned = 0
        for s in np.linspace(0, geom.length, 25, endpoint=False):
            ego = geom.pose_at(s)
            visible = []
            for idx, cone in enumerate(track.cones):
                d = cone.position - ego.position
                r = math.hypot(*d)
                bearing = math.atan2(d[1], d[0]) - ego.theta
                bearing = math.atan2(math.sin(bearing), math.cos(bearing))
                if r <= 20.0 and abs(bearing) <= 1.6:
                    color = {"blue": (1.0, 0.0, 0.0), "yellow": (0.0, 1.0, 0.0), "orange": (0.0, 0.0, 1.0)}[cone.color]
                    visible.append(make_cone(len(visible), tuple(cone.position), color))
            if len(visible) < 3:
                continue
            snap = LocalMapSnapshot(0.0, ego, ConeTable.from_estimates(visible), frozenset(c.id for c in visible), MapMode.FUSION)
            result = plan_snapshot(snap, config)
            if result.selected is None:
                continue
            planned += 1
            exit_d = first_exit_distance(ego.position, result.selected.waypoints, corridor)
            assert exit_d is None, f"path left the corridor at {exit_d:.2f} m (s={s:.1f})"
        assert planned >= 20


class TestPlanRecord:
    def test_record_fields(self):
        snap = corridor_snapshot(n_stations=6)
        result = plan_snapshot(snap)
        record = plan_record(result, snap, verbose_candidates=True)
        assert record["timestamp_s"] == 0.0
        assert record["waypoints_m"]
        assert "candidates" in record
        assert record["log_posterior"] == pytest.approx(
            record["log_prior"] + record["log_likelihood"]
        )
