import dataclasses
import hashlib
import math

import numpy as np
import pytest

from conetrack.config import load_config, resolve_profile
from conetrack.core import (
    ColorDistribution,
    ConeClass,
    ConeEstimate,
    Gaussian2,
    Pose2,
    body_frame_point,
    compose,
    relative_pose,
    transform_point,
)
from conetrack.global_map import (
    Graph,
    GlobalMapConfig,
    GraphStructureError,
    _associate_landmark,
    add_snapshot,
    export_map,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    observation_jacobians,
    observation_residual,
    odometry_jacobians,
    odometry_residual,
    optimize,
    save_graph,
)
from conetrack.local_map import (
    ConeTable,
    LocalMapConfig,
    LocalMapSnapshot,
    LocalMapState,
    MapMode,
    ingest_frame,
)
from conetrack.pipeline import run_pipeline
from conetrack.simulate import (
    ScenarioDriver,
    SensorProfile,
    SimRun,
    TrackSpec,
    generate_track,
    noise_free_profile,
    noisy_velocity,
    observe_cones,
)

CONFIG = GlobalMapConfig()


def make_snapshot(timestamp, ego, cone_specs, observed=None):
    """cone_specs: list of (id, local_xy)."""
    cones = ConeTable.from_estimates(
        ConeEstimate(
            id=cid,
            position=Gaussian2.isotropic(np.array(xy, dtype=float), 0.1),
            color_evidence=np.array([1.0, 0.0, 0.0]) + 1e-12,
            existence=0.9,
            last_seen=timestamp,
        )
        for cid, xy in cone_specs
    )
    observed = frozenset(observed if observed is not None else [cid for cid, _ in cone_specs])
    return LocalMapSnapshot(timestamp, ego, cones, observed, MapMode.FUSION)


class TestGraphConstruction:
    def test_first_snapshot_counts(self):
        snap = make_snapshot(
            0.0,
            Pose2.identity(),
            [(0, (3.0, 1.0)), (1, (3.0, -1.0)), (2, (6.0, 1.2)), (3, (6.0, -0.8))],
        )
        graph = add_snapshot(Graph(), snap, Pose2.identity(), CONFIG)
        assert len(graph.poses) == 1
        assert len(graph.landmarks) == 4
        assert len(graph.odometry_edges) == 0
        assert len(graph.observation_edges) == 4

    def test_proximity_gate(self):
        snap = make_snapshot(0.0, Pose2.identity(), [(0, (14.0, 0.0)), (1, (3.0, 0.0))])
        graph = add_snapshot(Graph(), snap, Pose2.identity(), CONFIG)
        assert len(graph.landmarks) == 1
        assert np.allclose(graph.landmarks[0], [3.0, 0.0])

    def test_unobserved_cone_not_added(self):
        snap = make_snapshot(0.0, Pose2.identity(), [(0, (3.0, 0.0)), (1, (4.0, 1.0))], observed=[0])
        graph = add_snapshot(Graph(), snap, Pose2.identity(), CONFIG)
        assert len(graph.landmarks) == 1

    def test_local_link_reused_across_snapshots(self):
        graph = Graph()
        snap0 = make_snapshot(0.0, Pose2.identity(), [(0, (3.0, 0.0))])
        add_snapshot(graph, snap0, Pose2.identity(), CONFIG)
        snap1 = make_snapshot(0.1, Pose2(0.5, 0, 0), [(0, (3.02, 0.01))])
        add_snapshot(graph, snap1, Pose2(0.5, 0, 0), CONFIG)
        assert len(graph.landmarks) == 1
        assert len(graph.observation_edges) == 2

    def test_euclidean_reassociation_on_new_local_id(self):
        graph = Graph()
        add_snapshot(graph, make_snapshot(0.0, Pose2.identity(), [(0, (3.0, 0.0))]), Pose2.identity(), CONFIG)
        # same physical cone, new local id (e.g. pruned and re-created)
        add_snapshot(graph, make_snapshot(0.1, Pose2.identity(), [(7, (3.1, 0.05))]), Pose2(0, 0, 0.0), CONFIG)
        assert len(graph.landmarks) == 1
        assert graph.local_links == {0: 0, 7: 0}

    def test_out_of_order_snapshot_rejected(self):
        graph = Graph()
        add_snapshot(graph, make_snapshot(1.0, Pose2.identity(), [(0, (3.0, 0.0))]), Pose2.identity(), CONFIG)
        with pytest.raises(ValueError):
            add_snapshot(graph, make_snapshot(0.5, Pose2.identity(), []), Pose2.identity(), CONFIG)


def associate_by_scalar_loop(graph, world_point, radius, live_ids, cone_class):
    """Reference for _associate_landmark: the per-landmark loop it replaced."""
    links = {}
    for local_id, lm in graph.local_links.items():
        links.setdefault(lm, set()).add(local_id)
    best, best_d, ties = None, radius, 0
    for i, position in enumerate(graph.landmarks):
        if links.get(i, set()) & live_ids:
            continue
        total = np.zeros(3)
        for ev in graph.color_evidence[i].values():
            total += ev
        color = ColorDistribution.from_evidence(total) if total.sum() > 0 else ColorDistribution(0.0, 0.0, 1.0)
        if color.argmax_class() is not cone_class:
            continue
        d = math.hypot(position[0] - world_point[0], position[1] - world_point[1])
        if d <= best_d:
            ties = ties + 1 if best is not None and d == best_d else 0
            best_d, best = d, i
    return best, ties


class TestAssociation:
    def test_numpy_pass_equals_scalar_loop(self):
        rng = np.random.default_rng(21)
        classes = (ConeClass.BLUE, ConeClass.YELLOW, ConeClass.UNKNOWN)
        matched = tied = 0
        for _ in range(300):
            graph = Graph()
            next_id = 0
            for _ in range(rng.integers(0, 25)):
                # half-metre grid positions, so equal distances (ties) occur
                lm = graph.add_landmark(0.5 * rng.integers(-4, 5, size=2).astype(float))
                for _ in range(rng.integers(0, 3)):
                    graph.update_color(lm, next_id, rng.integers(0, 3, size=3).astype(float))
                    graph.local_links[next_id] = lm
                    next_id += 1
            live = {int(i) for i in rng.integers(0, next_id + 5, size=rng.integers(0, 6))}
            point = 0.5 * rng.integers(-4, 5, size=2) + rng.choice([0.0, 0.3], size=2)
            cone_class = classes[rng.integers(0, 3)]
            expected, ties = associate_by_scalar_loop(graph, point, 1.5, live, cone_class)
            assert _associate_landmark(graph, point, 1.5, live, cone_class) == expected
            matched += expected is not None
            tied += ties > 0
        assert matched > 50 and tied > 10


class TestResidualsAndJacobians:
    def test_odometry_residual_zero_for_consistent_poses(self):
        a = Pose2(1.0, 2.0, 0.4)
        d = Pose2(0.8, -0.1, 0.2)
        b = compose(a, d)
        r = odometry_residual(a.as_array(), b.as_array(), d.as_array())
        assert r == pytest.approx([0, 0, 0], abs=1e-12)

    def test_observation_residual_zero_for_consistent_geometry(self):
        pose = Pose2(2.0, -1.0, 1.1)
        lm = np.array([5.0, 1.0])
        z = body_frame_point(pose, lm)
        r = observation_residual(pose.as_array(), lm, z)
        assert r == pytest.approx([0, 0], abs=1e-12)

    @staticmethod
    def _fd_jacobian(func, x, h=1e-6):
        out = []
        for k in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            out.append((func(xp) - func(xm)) / (2 * h))
        return np.stack(out, axis=1)

    def test_odometry_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            pi = rng.uniform(-5, 5, 3)
            pj = rng.uniform(-5, 5, 3)
            z = rng.uniform(-1, 1, 3)
            ji, jj = odometry_jacobians(pi, pj, z)
            fd_i = self._fd_jacobian(lambda x: odometry_residual(x, pj, z), pi)
            fd_j = self._fd_jacobian(lambda x: odometry_residual(pi, x, z), pj)
            scale = max(1.0, np.abs(ji).max(), np.abs(jj).max())
            assert np.abs(ji - fd_i).max() / scale < 1e-6
            assert np.abs(jj - fd_j).max() / scale < 1e-6

    def test_observation_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            pose = rng.uniform(-5, 5, 3)
            lm = rng.uniform(-5, 5, 2)
            z = rng.uniform(-3, 3, 2)
            jp, jl = observation_jacobians(pose, lm, z)
            fd_p = self._fd_jacobian(lambda x: observation_residual(x, lm, z), pose)
            fd_l = self._fd_jacobian(lambda x: observation_residual(pose, x, z), lm)
            scale = max(1.0, np.abs(jp).max())
            assert np.abs(jp - fd_p).max() / scale < 1e-6
            assert np.abs(jl - fd_l).max() / scale < 1e-6


def build_noise_free_graph(radius=20.0, speed=5.0, frame_rate=5.0):
    track = generate_track(TrackSpec(kind="circle", radius_m=radius), seed=1)
    profile = noise_free_profile()
    cfg = LocalMapConfig.for_profile(profile, frame_rate)
    run = SimRun.constant_speed(track, speed, frame_rate)
    rng = np.random.default_rng(0)
    state = LocalMapState()
    graph = Graph()
    prev_ego = None
    start_pose = None
    for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
        start_pose = start_pose or pose
        obs = observe_cones(track, pose, profile, rng, timestamp)
        state, snap = ingest_frame(state, [obs], vel, dt, cfg)
        odom = Pose2.identity() if prev_ego is None else relative_pose(prev_ego, snap.ego)
        add_snapshot(graph, snap, odom, CONFIG)
        prev_ego = snap.ego
    return track, graph, start_pose


class TestOptimize:
    def test_noise_free_graph_cost_zero(self):
        _, graph, _ = build_noise_free_graph()
        result = optimize(graph, CONFIG)
        assert result.final_cost < 1e-16
        assert result.converged

    def test_noise_free_landmark_count_matches_truth(self):
        track, graph, _ = build_noise_free_graph()
        assert len(graph.landmarks) == len(track.cones)

    def test_noise_free_map_matches_truth_up_to_gauge(self):
        track, graph, start_pose = build_noise_free_graph()
        result = optimize(graph, CONFIG)
        truth = track.cone_positions()
        for lm in result.landmarks:
            world = transform_point(start_pose, lm)
            assert np.hypot(*(truth - world).T).min() < 1e-6

    def test_single_pose_single_landmark_fully_determined(self):
        graph = Graph()
        graph.add_pose(Pose2(1.0, 2.0, 0.5))
        graph.add_landmark(np.array([0.0, 0.0]))  # bad init
        z = np.array([2.0, 1.0])
        graph.add_observations([0], [0], [z], [np.eye(2)])
        result = optimize(graph, CONFIG)
        expected = transform_point(Pose2(1.0, 2.0, 0.5), z)
        assert result.landmarks[0] == pytest.approx(expected, abs=1e-8)
        assert result.final_cost < 1e-16

    def test_perturbed_noise_free_graph_reconverges(self):
        _, graph, _ = build_noise_free_graph()
        rng = np.random.default_rng(3)
        for k in range(1, len(graph.poses)):
            noise = rng.normal(scale=0.03, size=3)
            x, y, theta = graph.poses[k]
            graph.poses[k] = Pose2(x + noise[0], y + noise[1], theta + noise[2] * 0.1).as_array()
        for i in range(len(graph.landmarks)):
            graph.landmarks[i] = graph.landmarks[i] + rng.normal(scale=0.05, size=2)
        result = optimize(graph, CONFIG)
        assert result.final_cost < 1e-16

    def test_accepted_iterations_never_increase_cost(self):
        # track the cost by re-optimizing with increasing iteration budgets
        _, graph, _ = build_noise_free_graph()
        rng = np.random.default_rng(4)
        for i in range(len(graph.landmarks)):
            graph.landmarks[i] = graph.landmarks[i] + rng.normal(scale=0.05, size=2)
        costs = []
        for max_iter in (1, 2, 4, 8, 16):
            cfg = GlobalMapConfig(max_iterations=max_iter)
            costs.append(optimize(graph, cfg).final_cost)
        assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))

    def test_gauge_invariance_of_shape(self):
        _, graph, _ = build_noise_free_graph()
        rng = np.random.default_rng(5)
        for i in range(len(graph.landmarks)):
            graph.landmarks[i] = graph.landmarks[i] + rng.normal(scale=0.02, size=2)
        base = optimize(graph, CONFIG)
        # rigidly transform every free node's initial guess (the solve left the graph as it was)
        shift = Pose2(3.0, -2.0, 0.4)
        for k in range(1, len(graph.poses)):
            graph.poses[k] = compose(shift, Pose2(*graph.poses[k])).as_array()
        for i in range(len(graph.landmarks)):
            graph.landmarks[i] = transform_point(shift, graph.landmarks[i])
        other = optimize(graph, CONFIG)
        # same gauge anchor -> identical optimum regardless of initialization
        for a, b in zip(base.landmarks, other.landmarks):
            assert np.allclose(a, b, atol=1e-5)

    def test_structure_error_for_dangling_landmark(self):
        graph = Graph()
        graph.add_pose(Pose2.identity())
        graph.add_landmark(np.array([1.0, 0.0]))
        with pytest.raises(GraphStructureError):
            optimize(graph, CONFIG)


class TestNoisyImprovement:
    def test_optimization_beats_dead_reckoning(self):
        from conetrack.evaluate import icp_align, map_rmse

        track = generate_track(TrackSpec(length_m=220.0, hairpin_count=1), seed=11)
        profile = SensorProfile(mode="fusion", false_positives_per_frame=0.0)
        frame_rate = 10.0
        cfg_local = LocalMapConfig.for_profile(profile, frame_rate)
        run = SimRun.constant_speed(track, 8.0, frame_rate, seed=11)
        rng = np.random.default_rng(run.seed)
        state = LocalMapState()
        graph = Graph()
        prev_ego = None
        start_pose = None
        for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
            start_pose = start_pose or pose
            obs = observe_cones(track, pose, profile, rng, timestamp)
            vel_noisy = noisy_velocity(vel, profile, rng)
            state, snap = ingest_frame(state, [obs], vel_noisy, dt, cfg_local)
            odom = Pose2.identity() if prev_ego is None else relative_pose(prev_ego, snap.ego)
            add_snapshot(graph, snap, odom, CONFIG)
            prev_ego = snap.ego
        dead_reckoned = export_map(graph)
        graph.merge_estimates(optimize(graph, CONFIG))
        optimized = export_map(graph)
        truth = track.cone_positions()

        def rmse(records):
            pts = np.array([[r["x_m"], r["y_m"]] for r in records])
            world = np.array([transform_point(start_pose, p) for p in pts])
            aligned = icp_align(world, truth, init=Pose2.identity())
            return map_rmse(aligned)

        assert rmse(optimized) < rmse(dead_reckoned)


class TestMergeEstimates:
    def test_merge_commits_prefix_while_construction_continues(self):
        _, graph, _ = build_noise_free_graph(frame_rate=2.0)
        rng = np.random.default_rng(9)
        for i in range(len(graph.landmarks)):
            graph.landmarks[i] = graph.landmarks[i] + rng.normal(scale=0.05, size=2)
        result = optimize(graph, CONFIG)
        assert not graph.optimized  # the solve did not touch the graph
        # construction continues after the solve read the graph
        extra = make_snapshot(
            graph.last_timestamp + 0.5, Pose2(*graph.poses[-1]), [(999_001, (2.0, 0.5)), (999_002, (2.0, -0.5))]
        )
        add_snapshot(graph, extra, Pose2.identity(), CONFIG)
        n_landmarks_after = len(graph.landmarks)
        new_rows = graph.landmarks[len(result.landmarks):].copy()
        graph.merge_estimates(result)
        assert len(graph.landmarks) == n_landmarks_after
        assert len(new_rows) == 2 and np.array_equal(graph.landmarks[len(result.landmarks):], new_rows)  # new nodes untouched
        # optimized estimates were pulled in for pre-existing landmarks
        assert np.allclose(graph.landmarks[: len(result.landmarks)], result.landmarks)
        assert graph.optimized


class TestSerialization:
    def test_graph_roundtrip(self, tmp_path):
        _, graph, _ = build_noise_free_graph(frame_rate=2.0)
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert graph_to_dict(loaded) == graph_to_dict(graph)

    def test_export_empty_graph(self):
        graph = Graph()
        graph.optimized = True
        assert export_map(graph) == []

    def test_export_color_merge(self):
        graph = Graph()
        lm = graph.add_landmark(np.array([1.0, 2.0]))
        graph.update_color(lm, 0, np.array([3.0, 1.0, 0.0]))
        graph.update_color(lm, 5, np.array([2.0, 0.0, 1.0]))
        graph.add_pose(Pose2.identity())
        graph.add_observations([0], [lm], [[1.0, 2.0]], [np.eye(2)])
        graph.optimized = True
        (record,) = export_map(graph)
        assert record["color"] == "blue"
        assert record["p_blue"] == pytest.approx(5.0 / 7.0)

    def test_export_min_edges_filters_transients(self):
        graph = Graph()
        graph.add_pose(Pose2.identity())
        for k, n_edges in enumerate((5, 1)):
            lm = graph.add_landmark(np.array([float(k), 0.0]))
            graph.update_color(lm, k, np.array([1.0, 0.0, 0.0]))
            for _ in range(n_edges):
                graph.add_observations([0], [lm], [[float(k), 0.0]], [np.eye(2)])
        graph.optimized = True
        records = export_map(graph, min_edges=3)
        assert [r["id"] for r in records] == [0]


# sha256 of the global-map artifacts of a noise-free-circle lap with fusion
# sensor noise and the planner off, as the per-node graph of earlier versions
# wrote them
GOLDEN_DIGESTS = {
    "graph.json": "bc78bbee436115e89e436eb15da1ac12489216b0366ea6a9b1feef3f58c53dcb",
    "map_estimated.json": "dd8289228e62bd39d020d1eacadf1b5485ffed6646cf301d0dc0f6cd0ca06136",
    "map_dead_reckoned.json": "c6d8f861a275025841fff837a1ec33b0bb7128c972650474c79c80632dd3f2bf",
}


class TestConfigValidation:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("proximity_radius_m", 0.0),
            ("association_radius_m", -1.0),
            ("odometry_sigma_rates", (0.08, 0.0, 0.012)),
            ("odometry_sigma_rates", (0.08, 0.08)),
            ("observation_sigma_floor_m", math.nan),
            ("max_iterations", 0),
            ("max_iterations", 2.5),
            ("relative_tolerance", -1e-8),
            ("absolute_cost_floor", math.inf),
            ("initial_lambda", 0.0),
            ("lambda_up", 1.0),
            ("lambda_down", 1.0),
            ("lambda_down", 0.0),
            ("max_lambda_steps", 0),
            ("export_min_edges", True),
        ],
    )
    def test_bad_field_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            GlobalMapConfig(**{name: value})


class TestGoldenBytes:
    def test_noisy_lap_writes_the_recorded_graph_and_maps(self, tmp_path):
        # covers association, loop closure, the periodic and final solves and both exports
        config = dataclasses.replace(load_config("noise-free-circle"), plan_enabled=False)
        config.profiles = {**config.profiles, "fusion": resolve_profile("builtin:fusion")}
        run_pipeline(config, tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}
        assert digests == GOLDEN_DIGESTS
