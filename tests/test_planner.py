import dataclasses
import hashlib
import json
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_reference import RefCone, RefGaussian, color_probabilities, cone_table
from planner_reference import (
    compute_features,
    log_likelihood,
    reference_enumerate_paths,
    reference_log_prior,
    reference_population_std,
)
from conetrack.core import Pose2
from conetrack.local_map import LocalMapConfig, LocalMapSnapshot, LocalMapState, MapMode, ingest_frame
from conetrack.planner import (
    MAX_DESIRED_EDGE_COUNT,
    MAX_LOG_COORDINATE_M,
    MIN_MAX_LENGTH_M,
    CandidatePath,
    DegenerateSnapshotError,
    PathFeatures,
    PlannerConfig,
    PlannerLogWriter,
    SearchLimits,
    _cone_log_terms,
    _np_sum,
    _np_sum_appended,
    _population_std,
    enumerate_paths,
    plan_record,
    plan_snapshot,
    prior_terms,
    read_planner_log,
    select_path,
    triangulate,
)
from conetrack.simulate import (
    CenterlineGeometry,
    TrackSpec,
    centerline_poses,
    default_profile,
    discrete_frames,
    generate_track,
    noisy_velocity,
    observe_cones,
)


def make_cone(cid, xy, color=(0.98, 0.01, 0.01)):
    return RefCone(
        id=cid,
        position=RefGaussian.isotropic(np.array(xy, dtype=float), 0.1),
        color_evidence=np.array(color) * 10 + 1e-12,
        existence=0.9,
        last_seen=0.0,
    )


def evidence(cones):
    """The (n, 3) color evidence of cone records, in id order."""
    return cone_table(cones).color_evidence


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
    return LocalMapSnapshot(0.0, Pose2(0.0, 0.0, 0.0), cone_table(cones), frozenset(range(cid)), MapMode.FUSION)


class TestTriangulate:
    def test_three_points_one_triangle(self):
        tri = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert len(tri.simplices) == 1

    def test_unit_square(self):
        tri = triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        assert len(tri.simplices) == 2
        edges = {tuple(sorted((s[a], s[b]))) for s in tri.simplices.tolist() for a, b in ((0, 1), (1, 2), (0, 2))}
        assert len(edges) == 5

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
        config = PlannerConfig(SearchLimits(max_edges=50, max_length_m=100.0))
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
        snap = LocalMapSnapshot(0.0, Pose2(0, 0, 0), cone_table(cones), frozenset(range(cid)), MapMode.FUSION)
        positions = snap.cones.means
        tri = triangulate(positions)
        config = PlannerConfig(SearchLimits(max_edges=50, max_length_m=100.0))
        paths = enumerate_paths(tri, snap.ego, snap.cones.color_evidence, config)
        assert len(paths) >= 2

    def test_straight_corridor_waypoints_on_centerline(self):
        snap = corridor_snapshot(n_stations=8, spacing=2.5, width=4.0)
        config = PlannerConfig(SearchLimits(max_length_m=15.0))
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
        snap = LocalMapSnapshot(0.0, Pose2(0, 0, 0), cone_table(cones), frozenset({0, 1}), MapMode.FUSION)
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=30))
    def test_a_carried_running_sum_gives_the_same_deviation(self, values):
        running = 0.0  # as the search carries a path's width sum, one crossed edge at a time
        for n in range(1, len(values) + 1):
            running = _np_sum_appended(running, values[:n])
        assert _population_std(values, running) == reference_population_std(values)


def same_float(a, b):
    """Equal bit for bit up to the NaN payload: both NaN, or equal with the same sign of zero."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SUM_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-307, 1e-307),  # subnormals and their neighbours
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]),
)


class TestNpSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(SUM_VALUES, min_size=1, max_size=300))
    def test_equals_np_add_reduce(self, values):
        assert same_float(_np_sum(values), float(np.add.reduce(np.array(values, dtype=float))))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SUM_VALUES, min_size=1, max_size=200))
    def test_a_sum_carried_one_value_at_a_time_equals_the_sum(self, values):
        total = 0.0
        for n in range(1, len(values) + 1):
            total = _np_sum_appended(total, values[:n])
            assert same_float(total, _np_sum(values[:n]))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 300])
    def test_all_negative_zeros_sum_to_positive_zero(self, n):
        assert same_float(_np_sum([-0.0] * n), float(np.add.reduce(np.full(n, -0.0))))


class TestPrior:
    def test_zero_cost_gives_unit_prior(self):
        features = PathFeatures(0.0, 0.0, 0.0, 0.0, 15.0, 15.0)
        assert reference_log_prior(features, prior_terms(SearchLimits()), 29.0) == pytest.approx(0.0)

    def test_single_term_hand_computed(self):
        terms = ((0.1, 0.0, 1.0),) + ((0.0, 0.0, 1.0),) * 5
        features = PathFeatures(2.0, 0, 0, 0, 0, 0)
        assert reference_log_prior(features, terms, 29.0) == pytest.approx(-11.6)

    def test_default_weights(self):
        assert PlannerConfig().prior_weight == 29.0
        assert [weight for weight, _, _ in prior_terms(SearchLimits())] == [0.1, 0.1, 0.1, 0.1, 0.1, 0.5]

    def test_monotone_penalty(self):
        terms = prior_terms(SearchLimits())
        base = PathFeatures(0.1, 0.2, 0.1, 0.3, 10.0, 12.0)
        lp = reference_log_prior(base, terms, 29.0)
        worse = PathFeatures(0.5, 0.2, 0.1, 0.3, 10.0, 12.0)
        assert reference_log_prior(worse, terms, 29.0) < lp

    def test_setpoints_follow_the_search_limits(self):
        # the edge-count and length terms aim at the limits the search runs
        # under, so a longer length cap moves the length setpoint with it
        config = PlannerConfig(SearchLimits(max_length_m=20.0, desired_edge_count=12))
        terms = ((0.1, 0.0, math.pi**2),) + ((0.1, 0.0, 1.0),) * 3 + ((0.1, 12.0, 1.0), (0.5, 20.0, 400.0))
        assert prior_terms(config.limits) == terms
        result = plan_snapshot(corridor_snapshot(n_stations=10, jitter=0.25, seed=4), config)
        assert result.candidates
        for cand in result.candidates:
            assert cand.log_prior == reference_log_prior(cand.features, terms, 29.0)

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_length_m": MIN_MAX_LENGTH_M},
            {"max_length_m": MAX_LOG_COORDINATE_M},
            {"desired_edge_count": MAX_DESIRED_EDGE_COUNT},
        ],
        ids=["shortest", "longest", "most-edges"],
    )
    def test_limits_at_their_bounds_plan_finite_scores(self, limits):
        snap = corridor_snapshot(n_stations=10, jitter=0.25, seed=4)
        result = plan_snapshot(snap, PlannerConfig(SearchLimits(**limits)))
        assert result.candidates
        assert all(math.isfinite(c.log_posterior) for c in result.candidates)

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_length_m": MIN_MAX_LENGTH_M / 2},
            {"max_length_m": MAX_LOG_COORDINATE_M * 2},
            {"desired_edge_count": MAX_DESIRED_EDGE_COUNT + 1},
        ],
        ids=["shorter", "longer", "more-edges"],
    )
    def test_limits_past_their_bounds_are_rejected(self, limits):
        with pytest.raises(ValueError, match=next(iter(limits))):
            PlannerConfig(SearchLimits(**limits))


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

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 2.0]), st.floats(0.0, 10.0))] * 3).filter(
                lambda row: sum(row) > 0.0
            ),
            min_size=1,
            max_size=20,
        ),
        floor=st.sampled_from([1e-6, 0.2, 1.0]),
    )
    def test_log_terms_equal_a_per_cone_loop(self, rows, floor):
        evidence = np.array(rows)
        probabilities = evidence / (evidence[:, 0] + evidence[:, 1] + evidence[:, 2])[:, None]
        expected = ([], [], [])
        for blue, yellow, unknown in probabilities.tolist():
            expected[0].append(math.log(max(blue, unknown, floor)))
            expected[1].append(math.log(max(yellow, unknown, floor)))
            expected[2].append(math.log(max(blue, yellow, unknown, floor)))
        assert _cone_log_terms(evidence, floor) == expected

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
        snap = LocalMapSnapshot(0.0, Pose2(0, 0, 0), cone_table(cones), frozenset(range(cid)), MapMode.FUSION)
        result = plan_snapshot(snap)
        sel = result.selected
        positions = snap.cones.means
        assert all(positions[i][1] > 0 for i in sel.left_cones)
        assert all(positions[i][1] < 0 for i in sel.right_cones)

    def test_argmax_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(60)
        config = PlannerConfig(SearchLimits(beam_width=None))
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
                lp = reference_log_prior(cand.features, prior_terms(config.limits), config.prior_weight)
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
        p_blue, p_yellow, p_unknown = color_probabilities(evidence).tolist()
        if idx in left_cones:
            p = max(p_blue, p_unknown)
        elif idx in right_cones:
            p = max(p_yellow, p_unknown)
        else:
            p = max(p_blue, p_yellow, p_unknown)
        total += math.log(max(p, floor))
    return total


def noisy_run_snapshots(frames):
    """Local-map snapshots of the first ``frames`` frames of a seeded noisy fusion lap."""
    track = generate_track(TrackSpec(length_m=210.0), seed=4)
    profile = default_profile("fusion")
    poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 5.0),), 0.1)
    config = LocalMapConfig.for_profile(profile, 10.0)
    rng = np.random.default_rng(11)
    state, snaps = LocalMapState(), []
    for timestamp, dt, pose, vel in islice(discrete_frames(poses, 0.1), frames):
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
                assert cand.log_prior == reference_log_prior(cand.features, prior_terms(config.limits), config.prior_weight)
        assert planned >= 25


class TestLightCandidates:
    def test_fields_built_on_read_equal_the_search_geometry(self):
        config = PlannerConfig()
        checked = 0
        for snap in noisy_run_snapshots(60):
            positions = snap.cones.means
            for cand in plan_snapshot(snap, config).candidates:
                lo, hi = np.array(cand.crossed_edges).T
                midpoints = 0.5 * (positions[lo] + positions[hi])
                waypoints = cand.waypoints
                assert waypoints.dtype == np.float64 and waypoints.shape == midpoints.shape
                assert np.array_equal(waypoints, midpoints)
                assert not waypoints.flags.writeable
                assert cand.left_cones == frozenset(cand.left_sequence)
                assert cand.right_cones == frozenset(cand.right_sequence)
                assert cand.left_cones | cand.right_cones == set(np.array(cand.crossed_edges).ravel().tolist())
                assert cand.features == compute_features(
                    midpoints, cand.crossed_edges, positions, cand.left_sequence, cand.right_sequence, config.limits
                )
                assert type(cand.features) is PathFeatures
                checked += 1
        assert checked >= 250

    def test_construction_keeps_its_checks(self):
        features = (0.0,) * 6
        with pytest.raises(ValueError, match="one waypoint per crossed edge"):
            CandidatePath(((0.5, 0.0),), ((0, 1), (1, 2)), (0,), (1, 2), features, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="disjoint"):
            CandidatePath(((0.5, 0.0),), ((0, 1),), (0, 1), (1,), features, 0.0, 0.0, 0.0)
        cand = CandidatePath(((0.5, 0.0),), ((0, 1),), (0,), (1,), features, -1.0, -2.0, -3.0)
        with pytest.raises(AttributeError):
            cand.log_posterior = 0.0
        with pytest.raises(AttributeError):
            cand.waypoints = np.zeros((1, 2))
        assert cand.waypoints.tolist() == [[0.5, 0.0]]


UNKNOWN = (0.34, 0.33, 0.33)
UNIFORM = (1 / 3, 1 / 3, 1 / 3)


@st.composite
def cone_layouts(draw):
    """A snapshot of 3 to 24 cones and an ego among them.

    The cones lie on a coarse lattice, so many distances tie, or along a
    line with small perpendicular offsets, so triangles are near-collinear
    slivers. Colours are drawn per cone, or uniform for all of them, so
    that mirror-image paths tie in posterior.
    """
    n = draw(st.integers(3, 24))
    if draw(st.booleans()):
        cells = draw(st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 3)), min_size=n, max_size=n, unique=True))
        xy = [(1.5 * i, 1.5 * j) for i, j in cells]
    else:
        along = draw(st.lists(st.integers(-4, 40), min_size=n, max_size=n, unique=True))
        offsets = draw(st.lists(st.floats(-1e-3, 1e-3), min_size=n, max_size=n))
        xy = [(0.5 * a, 0.1 * a + off) for a, off in zip(along, offsets)]
    if draw(st.booleans()):
        colors = draw(st.lists(st.sampled_from([BLUE, YELLOW, UNKNOWN]), min_size=n, max_size=n))
    else:  # every cone scores alike in every role, so mirror-image paths tie
        colors = [UNIFORM] * n
    ego = Pose2(draw(st.floats(-2.0, 8.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(-math.pi, math.pi)))
    cones = [make_cone(cid, p, color) for cid, (p, color) in enumerate(zip(xy, colors))]
    return LocalMapSnapshot(0.0, ego, cone_table(cones), frozenset(range(n)), MapMode.FUSION)


def lattice_snapshot(nx, ny, ego):
    """Cones of one uniform colour on an ``nx`` by ``ny`` grid, 1.5 m apart, centred on the x axis.

    Delaunay splits each grid square by either diagonal, and translated
    paths tie exactly in posterior, so a narrow beam cuts among ties.
    """
    xy = [(1.5 * i, 1.5 * j - 0.75 * (ny - 1)) for i in range(nx) for j in range(ny)]
    cones = [make_cone(cid, p, UNIFORM) for cid, p in enumerate(xy)]
    return LocalMapSnapshot(0.0, ego, cone_table(cones), frozenset(range(len(xy))), MapMode.FUSION)


# exhaustive, the shipped beam, and beams narrow enough that the search cuts
# its frontier, which pins the cut and its tie order
BEAM_WIDTHS = [None, 300, 1, 2, 5]


class TestSearchMatchesReference:
    @staticmethod
    def plan_both(snap, beam_width):
        """The search's candidates, after checking each against the reference's, repr for repr; [] if degenerate."""
        try:
            tri = triangulate(snap.cones.means)
        except DegenerateSnapshotError:
            return []
        config = PlannerConfig(SearchLimits(beam_width=beam_width))
        found = enumerate_paths(tri, snap.ego, snap.cones.color_evidence, config)
        expected = reference_enumerate_paths(tri, snap.ego, snap.cones.color_evidence, config)
        assert [repr(c) for c in found] == [repr(c) for c in expected]
        for cand in found:  # the checks CandidatePath's constructor runs, which the search skips
            assert type(cand) is CandidatePath
            assert len(cand.waypoint_pairs) == len(cand.crossed_edges)
            assert set(cand.left_sequence).isdisjoint(cand.right_sequence)
        return found

    @pytest.mark.parametrize("beam_width", BEAM_WIDTHS)
    def test_noisy_run(self, beam_width):
        assert sum(bool(self.plan_both(snap, beam_width)) for snap in noisy_run_snapshots(60)) >= 25

    @pytest.mark.parametrize("beam_width", BEAM_WIDTHS)
    def test_corridors(self, beam_width):
        layouts = [{}, {"stagger": 1.25}, {"n_stations": 12, "spacing": 1.5}, {"width": 3.0, "stagger": 0.6}]
        layouts += [{"n_stations": 10, "jitter": 0.3, "seed": seed} for seed in range(4)]
        assert all(self.plan_both(corridor_snapshot(**layout), beam_width) for layout in layouts)

    @pytest.mark.parametrize("beam_width", BEAM_WIDTHS)
    def test_lattices(self, beam_width):
        egos = [Pose2(0.35, -1.4, 0.0), Pose2(1.6, -1.2, 0.0), Pose2(0.5, 0.0, 0.0), Pose2(2.0, 0.7, 0.3)]
        for nx, ny in ((7, 3), (6, 3), (5, 2)):
            assert all(self.plan_both(lattice_snapshot(nx, ny, ego), beam_width) for ego in egos)

    @settings(max_examples=300, deadline=None)
    @given(cone_layouts(), st.sampled_from(BEAM_WIDTHS))
    def test_random_layouts(self, snap, beam_width):
        self.plan_both(snap, beam_width)


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
        from conetrack.evaluate import first_exit_distances, track_corridor
        from conetrack.simulate import TRACK_COLORS, CenterlineGeometry, TrackSpec, generate_track

        track = generate_track(TrackSpec(length_m=210.0, hairpin_count=1, cone_spacing_m=2.2), seed=7)
        corridor = track_corridor(track)
        geom = CenterlineGeometry(track.centerline)
        config = PlannerConfig(SearchLimits(max_length_m=15.0))
        planned = 0
        for s in np.linspace(0, geom.length, 25, endpoint=False):
            ego = geom.pose_at(s)
            visible = []
            for position, code in zip(track.positions, track.colors.tolist()):
                d = position - ego.position
                r = math.hypot(*d)
                bearing = math.atan2(d[1], d[0]) - ego.theta
                bearing = math.atan2(math.sin(bearing), math.cos(bearing))
                if r <= 20.0 and abs(bearing) <= 1.6:
                    color = {"blue": (1.0, 0.0, 0.0), "yellow": (0.0, 1.0, 0.0), "orange": (0.0, 0.0, 1.0)}[TRACK_COLORS[code]]
                    visible.append(make_cone(len(visible), tuple(position), color))
            if len(visible) < 3:
                continue
            snap = LocalMapSnapshot(0.0, ego, cone_table(visible), frozenset(c.id for c in visible), MapMode.FUSION)
            result = plan_snapshot(snap, config)
            if result.selected is None:
                continue
            planned += 1
            chain = np.vstack([ego.position, result.selected.waypoints])
            (exit_d,) = first_exit_distances(chain, [0, len(chain)], corridor)
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

    def test_planner_log_round_trip(self, tmp_path):
        path = tmp_path / "planner_log.ndjson"
        writer = PlannerLogWriter(path)
        records = []
        for snap in noisy_run_snapshots(30):
            records.append(plan_record(plan_snapshot(snap), snap, verbose_candidates=True))
            writer.write(records[-1])
        writer.close()
        header, *lines = path.read_bytes().splitlines(keepends=True)
        assert header == b'{"kind": "planner_log", "schema_version": 1}\n'
        assert len(lines) == len(records) and any(r["waypoints_m"] for r in records)
        assert read_planner_log(path) == records
