import base64
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from cone_reference import CLASSES, RefCone, RefGaussian, color_class, color_probabilities, cone_table
from map_reference import (
    AppendedRowsGraph,
    DictLinkGraph,
    appending_add_snapshot,
    cholesky_assemble,
    cholesky_roots,
    colamd_optimize,
    coo_assemble,
    dominant_class,
    indexed_add_snapshot,
    information_matrices,
    numpy_color_probabilities,
    one_edge,
    plain_color_probabilities,
    pose_array,
    reference_add_snapshot,
    reference_associate_landmark,
    whiten,
)
from test_local_map import LAP_CONFIG, fusion_fails_at_3_s, seeded_lap_frames
from conetrack import global_map
from conetrack.config import load_config, resolve_profile
from conetrack.core import (
    CLASS_NAMES,
    COV_EIGENVALUE_FLOOR,
    Pose2,
    body_frame_point,
    compose,
    normalize_angle,
    relative_pose,
    transform_point,
)
from conetrack.global_map import (
    GRAPH_SCHEMA_VERSION,
    MAX_NOISE_SIGMA,
    MIN_SIGMA_RATE,
    Graph,
    GlobalMapConfig,
    GraphStructureError,
    _assemble,
    _associate_landmarks,
    _factor,
    _jacobian_pattern,
    _observation_batch,
    _odometry_batch,
    _row_weights,
    add_snapshot,
    export_map,
    optimize,
    residual_cost,
    residual_summary,
    save_graph,
)
from conetrack.local_map import (
    MAX_SNAPSHOT_TIME_S,
    LocalMapConfig,
    LocalMapSnapshot,
    LocalMapState,
    MapMode,
    ingest_frame,
    read_snapshot_log,
)
from conetrack.pipeline import run_pipeline
from conetrack.simulate import (
    CenterlineGeometry,
    SensorProfile,
    TrackSpec,
    centerline_poses,
    discrete_frames,
    generate_track,
    noise_free_profile,
    noisy_velocity,
    observe_cones,
)

CONFIG = GlobalMapConfig()


def make_snapshot(timestamp, ego, cone_specs, observed=None):
    """cone_specs: list of (id, local_xy)."""
    cones = cone_table(
        RefCone(
            id=cid,
            position=RefGaussian.isotropic(np.array(xy, dtype=float), 0.1),
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
        graph = add_snapshot(Graph(), snap, CONFIG)
        assert len(graph.poses) == 1
        assert len(graph.landmarks) == 4
        assert len(graph.odometry_edges) == 0
        assert len(graph.observation_edges) == 4

    def test_proximity_gate(self):
        snap = make_snapshot(0.0, Pose2.identity(), [(0, (14.0, 0.0)), (1, (3.0, 0.0))])
        graph = add_snapshot(Graph(), snap, CONFIG)
        assert len(graph.landmarks) == 1
        assert np.allclose(graph.landmarks[0], [3.0, 0.0])

    def test_unobserved_cone_not_added(self):
        snap = make_snapshot(0.0, Pose2.identity(), [(0, (3.0, 0.0)), (1, (4.0, 1.0))], observed=[0])
        graph = add_snapshot(Graph(), snap, CONFIG)
        assert len(graph.landmarks) == 1

    def test_local_link_reused_across_snapshots(self):
        graph = Graph()
        snap0 = make_snapshot(0.0, Pose2.identity(), [(0, (3.0, 0.0))])
        add_snapshot(graph, snap0, CONFIG)
        snap1 = make_snapshot(0.1, Pose2(0.5, 0, 0), [(0, (3.02, 0.01))])
        add_snapshot(graph, snap1, CONFIG)
        assert len(graph.landmarks) == 1
        assert len(graph.observation_edges) == 2

    def test_euclidean_reassociation_on_new_local_id(self):
        graph = Graph()
        add_snapshot(graph, make_snapshot(0.0, Pose2.identity(), [(0, (3.0, 0.0))]), CONFIG)
        # same physical cone, new local id (e.g. pruned and re-created)
        add_snapshot(graph, make_snapshot(0.1, Pose2.identity(), [(7, (3.1, 0.05))]), CONFIG)
        assert len(graph.landmarks) == 1
        assert local_links(graph) == {0: 0, 7: 0}

    def test_out_of_order_snapshot_rejected(self):
        graph = Graph()
        add_snapshot(graph, make_snapshot(1.0, Pose2.identity(), [(0, (3.0, 0.0))]), CONFIG)
        with pytest.raises(ValueError):
            add_snapshot(graph, make_snapshot(0.5, Pose2.identity(), []), CONFIG)

    def test_odometry_edges_are_the_motion_between_consecutive_egos(self, golden_lap):
        # the first snapshot is pose 0 at the identity, wherever its ego is, and adds no odometry edge
        graph = add_snapshot(Graph(), make_snapshot(0.0, Pose2(2.0, 1.0, 0.3), [(0, (3.0, 0.0))]), CONFIG)
        assert graph.poses.tolist() == [[0.0, 0.0, 0.0]] and len(graph.odometry_edges) == 0
        out, lap_graph = golden_lap
        egos = [snap.ego for snap in read_snapshot_log(out / "snapshots.ndjson")]
        expected = [pose_array(relative_pose(before, after)) for before, after in zip(egos, egos[1:])]
        assert len(lap_graph.poses) == len(egos) > 2
        assert lap_graph.odometry_edges["relative"].tobytes() == np.array(expected).tobytes()


def local_links(graph) -> dict[int, int]:
    """{local cone id: landmark} of the graph's links."""
    return dict(zip(graph.links["local_id"].tolist(), graph.links["landmark"].tolist()))


def associate_one(graph, world_point, radius, live_ids, cone_class):
    """``_associate_landmarks`` on one new cone whose evidence is all of class ``cone_class``: its landmark, or None."""
    (lm,) = _associate_landmarks(graph, np.array([world_point]), np.eye(3)[[cone_class]], list(live_ids), radius).tolist()
    return None if lm < 0 else lm


def associate_by_scalar_loop(graph, world_point, radius, live_ids, cone_class):
    """Reference for one cone's association: the per-landmark loop; ``cone_class`` is the class code 0-2."""
    links = {}
    for local_id, lm in local_links(graph).items():
        links.setdefault(lm, set()).add(local_id)
    best, best_d, ties = None, radius, 0
    for i, position in enumerate(graph.landmarks):
        if links.get(i, set()) & live_ids:
            continue
        total = np.zeros(3)
        for ev in graph.links["evidence"][graph.links["landmark"] == i]:
            total += ev
        color = color_probabilities(total) if total.sum() > 0 else np.array([0.0, 0.0, 1.0])
        if color_class(color) is not CLASSES[cone_class]:
            continue
        d = math.hypot(position[0] - world_point[0], position[1] - world_point[1])
        if d <= best_d:
            ties = ties + 1 if best is not None and d == best_d else 0
            best_d, best = d, i
    return best, ties


class TestAssociation:
    def test_numpy_pass_equals_scalar_loop(self):
        rng = np.random.default_rng(21)
        matched = tied = 0
        for _ in range(300):
            graph = Graph()
            next_id = 0
            for _ in range(rng.integers(0, 25)):
                # half-metre grid positions, so equal distances (ties) occur
                (lm,) = graph.add_landmarks([0.5 * rng.integers(-4, 5, size=2).astype(float)])
                for _ in range(rng.integers(0, 3)):
                    graph.add_links([next_id], [lm], [rng.integers(0, 3, size=3).astype(float)])
                    next_id += 1
            live = {int(i) for i in rng.integers(0, next_id + 5, size=rng.integers(0, 6))}
            point = 0.5 * rng.integers(-4, 5, size=2) + rng.choice([0.0, 0.3], size=2)
            cone_class = int(rng.integers(0, 3))
            expected, ties = associate_by_scalar_loop(graph, point, 1.5, live, cone_class)
            assert associate_one(graph, point, 1.5, live, cone_class) == expected
            matched += expected is not None
            tied += ties > 0
        assert matched > 50 and tied > 10


def lap_snapshots(alive_at):
    """Snapshots of a seeded local-map lap whose emitting pipelines ``alive_at(timestamp)`` names."""
    state, snapshots = LocalMapState(), []
    for batches, vel, dt in seeded_lap_frames(alive_at):
        state, snap = ingest_frame(state, batches, vel, dt, LAP_CONFIG)
        snapshots.append(snap)
    return snapshots


class TestLinkTableMatchesPerConeReference:
    """``add_snapshot`` against the per-cone form it replaced, every column bit for bit."""

    @staticmethod
    def check(snapshots, config=CONFIG):
        graph, reference = Graph(), DictLinkGraph()
        for snap in snapshots:
            add_snapshot(graph, snap, config)
            reference_add_snapshot(reference, snap, config)
        for name in ("poses", "landmarks", "odometry_edges", "observation_edges"):
            mine, theirs = getattr(graph, name), getattr(reference, name)
            assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes()), name
        assert (graph.links.shape, graph.links.tobytes()) == (reference.link_table().shape, reference.link_table().tobytes())
        assert graph.link_index == {local_id: row for row, local_id in enumerate(reference.local_links)}
        colors = graph.colors()
        expected = np.array([plain_color_probabilities(ev.values()) for ev in reference.color_evidence]).reshape(-1, 3)
        assert colors.tobytes() == expected.tobytes()
        assert colors.argmax(axis=1).tolist() == reference.classes.rows.tolist()
        # some new local id re-associated with a landmark an earlier id made
        assert len(graph.links) > len(np.unique(graph.links["landmark"]))

    def test_golden_lap(self, golden_lap):
        out, _ = golden_lap
        config = dataclasses.replace(load_config("noise-free-circle"), plan_enabled=False).global_map_config()
        self.check(list(read_snapshot_log(out / "snapshots.ndjson")), config)

    @pytest.mark.parametrize(
        "alive_at",
        [
            fusion_fails_at_3_s,
            lambda t: ["lidar_only"],
            lambda t: ["camera_only"],
            lambda t: fusion_fails_at_3_s(t) if t < 6.0 else ["fusion"],
        ],
        ids=["degraded", "lidar_only", "camera_only", "fusion_restored_at_6_s"],
    )
    def test_seeded_local_map_lap(self, alive_at):
        self.check(lap_snapshots(alive_at))


class TestFloatIntakeMatchesIndexedReference:
    """``add_snapshot``'s plain-float intake against the fancy-indexing form it replaced
    (``map_reference.indexed_add_snapshot``): every graph array and the chaining state, snapshot by snapshot."""

    ARRAYS = ("poses", "landmarks", "links", "odometry_edges", "observation_edges")

    @classmethod
    def check(cls, snapshots, config=CONFIG):
        graph, reference = Graph(), Graph()
        for k, snap in enumerate(snapshots):
            add_snapshot(graph, snap, config)
            indexed_add_snapshot(reference, snap, config)
            for name in cls.ARRAYS:
                mine, theirs = getattr(graph, name), getattr(reference, name)
                assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), (k, name)
                assert np.array_equal(mine, theirs) and mine.tobytes() == theirs.tobytes(), (k, name)
            assert graph.link_index == reference.link_index
            assert (graph.pose_count, graph.last_pose, graph.last_ego) == (reference.pose_count, reference.last_pose, reference.last_ego)
            assert graph.last_timestamp == reference.last_timestamp
        # some snapshot linked a new local id to a landmark an earlier id made
        assert len(graph.links) > len(np.unique(graph.links["landmark"]))

    def test_golden_lap(self, golden_lap):
        out, _ = golden_lap
        config = dataclasses.replace(load_config("noise-free-circle"), plan_enabled=False).global_map_config()
        self.check(list(read_snapshot_log(out / "snapshots.ndjson")), config)

    @pytest.mark.parametrize("alive_at", [lambda t: ["fusion"], fusion_fails_at_3_s], ids=["fusion", "degraded"])
    def test_seeded_local_map_lap(self, alive_at):
        self.check(lap_snapshots(alive_at))


class TestQueuedRowsMatchAppendedRows:
    """``add_snapshot``'s queued rows against the per-snapshot appends they replaced, every column bit for bit."""

    COLUMNS = ("poses", "landmarks", "links", "odometry_edges", "observation_edges")

    @classmethod
    def assert_same(cls, graph, reference):
        for name in cls.COLUMNS:
            mine, theirs = getattr(graph, name), getattr(reference, name)
            assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes()), name
        assert graph.link_index == reference.link_index
        last = graph.poses[-1].tolist()
        assert [graph.last_pose.x, graph.last_pose.y, graph.last_pose.theta] == last
        assert graph.pose_count == len(reference.poses)

    @classmethod
    def check(cls, snapshots, config=CONFIG, read_every=None):
        graph, reference = Graph(), AppendedRowsGraph()
        for k, snap in enumerate(snapshots):
            add_snapshot(graph, snap, config)
            appending_add_snapshot(reference, snap, config)
            if read_every and k % read_every == 0:  # the arrays built part way take the rest of the queue later
                cls.assert_same(graph, reference)
        cls.assert_same(graph, reference)
        return graph, reference

    def test_golden_lap(self, golden_lap):
        out, _ = golden_lap
        config = dataclasses.replace(load_config("noise-free-circle"), plan_enabled=False).global_map_config()
        self.check(list(read_snapshot_log(out / "snapshots.ndjson")), config)

    @pytest.mark.parametrize(
        "alive_at",
        [
            fusion_fails_at_3_s,
            lambda t: ["lidar_only"],
            lambda t: ["camera_only"],
            lambda t: fusion_fails_at_3_s(t) if t < 6.0 else ["fusion"],
        ],
        ids=["degraded", "lidar_only", "camera_only", "fusion_restored_at_6_s"],
    )
    def test_seeded_local_map_lap(self, alive_at):
        self.check(lap_snapshots(alive_at))

    def test_arrays_read_part_way_through(self):
        self.check(lap_snapshots(fusion_fails_at_3_s), read_every=7)

    def test_a_lap_continues_from_merged_estimates(self):
        snapshots = lap_snapshots(fusion_fails_at_3_s)
        graph, reference = self.check(snapshots[:40])
        for g in (graph, reference):
            g.merge_estimates(optimize(g, CONFIG))
        for snap in snapshots[40:]:
            add_snapshot(graph, snap, CONFIG)
            appending_add_snapshot(reference, snap, CONFIG)
        self.assert_same(graph, reference)

    def test_variance_blocks_keep_their_order(self):
        """Observation blocks, each with one pose row or one per edge, and their (k,) variances land in call order."""
        graph, reference = Graph(), AppendedRowsGraph()
        blocks = [
            ([0, 0], [[1.0, 2.0], [3.0, 4.0]], np.array([0.25, 4.0])),
            ([0], [[5.0, 6.0]], [0.3]),
            (1, [[7.0, 8.0], [9.0, 1.5]], np.array([0.5, 2.0])),
            ([], np.zeros((0, 2)), np.zeros(0)),
            ([1, 0], [[0.5, 0.5], [2.5, 1.0]], [0.1, 7.0]),
        ]
        for g in (graph, reference):
            g.add_pose(Pose2.identity())
            g.add_pose(Pose2(1.0, 0.5, 0.25), Pose2(1.0, 0.5, 0.25), (100.0, 100.0, 400.0))
            g.add_landmarks([[1.0, 2.0], [4.0, -1.0]])
        for pose, measurements, variances in blocks:
            landmarks = [k % 2 for k in range(len(measurements))]
            graph.add_observations(pose, landmarks, np.array(measurements, float).reshape(-1, 2), variances)
            reference.add_observations(pose, landmarks, measurements, variances)
        self.assert_same(graph, reference)


GRID = st.integers(-4, 4).map(lambda k: 0.5 * k)  # half-metre grid positions, so equal distances (ties) occur
CLASS_EVIDENCE = st.tuples(*[st.sampled_from([0.0, 1.0, 2.0])] * 3)


@st.composite
def association_batches(draw):
    """A graph's landmarks and links, the live ids, and a batch of new cones near the landmarks.

    Returns ``(landmarks, links, live, cones)``: (x, y) per landmark; one
    (landmark, evidence) per link, whose local id is its index; the live
    local ids; one (x, y, evidence) per new cone.
    """
    landmarks = draw(st.lists(st.tuples(GRID, GRID), max_size=10))
    links = draw(st.lists(st.tuples(st.integers(0, len(landmarks) - 1), CLASS_EVIDENCE), max_size=12)) if landmarks else []
    live = draw(st.lists(st.integers(0, len(links) + 3), max_size=4, unique=True))
    offset = st.sampled_from([0.0, 0.25, 0.3, -0.7])
    cones = draw(
        st.lists(st.tuples(GRID.flatmap(lambda x: offset.map(lambda d: x + d)), GRID, CLASS_EVIDENCE), min_size=1, max_size=6)
    )
    return landmarks, links, live, cones


class TestBatchAssociation:
    """One ``_associate_landmarks`` call on a snapshot's new cones links what one call per cone linked."""

    @given(association_batches())
    # two landmarks 0.5 m from the cone: the higher id wins the tie
    @example(([(0.0, 0.0), (1.0, 0.0)], [], [], [(0.5, 0.0, (1.0, 0.0, 0.0))]))
    # several new cones inside one gate; the second's best landmark is the first's, so it takes the next
    @example(([(0.0, 0.0), (1.0, 0.0)], [(0, (1.0, 0.0, 0.0)), (1, (2.0, 0.0, 1.0))], [], [(0.25, 0.0, (1.0, 0.0, 0.0)), (0.0, 0.0, (2.0, 1.0, 0.0))]))
    # the nearest landmark is linked to a live id; the other is of another colour
    @example(([(0.0, 0.0), (0.5, 0.0)], [(0, (1.0, 0.0, 0.0)), (1, (0.0, 1.0, 0.0))], [0], [(0.0, 0.0, (1.0, 0.0, 0.0))]))
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_one_association_per_cone(self, batch):
        landmarks, links, live, cones = batch
        graph, reference = Graph(), DictLinkGraph()
        graph.add_landmarks(np.array(landmarks, float).reshape(-1, 2))
        graph.add_links(range(len(links)), [lm for lm, _ in links], np.array([ev for _, ev in links], float).reshape(-1, 3))
        for position in landmarks:
            reference.add_landmark(np.array(position))
        for local_id, (lm, ev) in enumerate(links):
            reference.local_links[local_id] = lm
            reference.update_color(lm, local_id, ev)
        new_ids = list(range(100, 100 + len(cones)))
        live_ids = set(live) | set(new_ids)
        expected = []
        for cid, (x, y, ev) in zip(new_ids, cones):
            point = np.array([x, y])
            lm = reference_associate_landmark(reference, point, CONFIG.association_radius_m, live_ids, dominant_class([ev]))
            expected.append(-1 if lm is None else lm)
            if lm is None:
                lm = reference.add_landmark(point)
            reference.local_links[cid] = lm
            reference.update_color(lm, cid, ev)
        points = np.array([(x, y) for x, y, _ in cones])
        evidence = np.array([ev for _, _, ev in cones])
        matched = _associate_landmarks(graph, points, evidence, [*live, *new_ids], CONFIG.association_radius_m)
        assert matched.tolist() == expected


class TestResidualsAndJacobians:
    def test_odometry_residual_zero_for_consistent_poses(self):
        a = Pose2(1.0, 2.0, 0.4)
        d = Pose2(0.8, -0.1, 0.2)
        b = compose(a, d)
        r = one_edge(_odometry_batch, pose_array(a), pose_array(b), pose_array(d))
        assert r == pytest.approx([0, 0, 0], abs=1e-12)

    def test_observation_residual_zero_for_consistent_geometry(self):
        pose = Pose2(2.0, -1.0, 1.1)
        lm = np.array([5.0, 1.0])
        z = body_frame_point(pose, lm)
        r = one_edge(_observation_batch, pose_array(pose), lm, z)
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
            ji, jj = one_edge(_odometry_batch, pi, pj, z, jac=True)
            fd_i = self._fd_jacobian(lambda x: one_edge(_odometry_batch, x, pj, z), pi)
            fd_j = self._fd_jacobian(lambda x: one_edge(_odometry_batch, pi, x, z), pj)
            scale = max(1.0, np.abs(ji).max(), np.abs(jj).max())
            assert np.abs(ji - fd_i).max() / scale < 1e-6
            assert np.abs(jj - fd_j).max() / scale < 1e-6

    def test_observation_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            pose = rng.uniform(-5, 5, 3)
            lm = rng.uniform(-5, 5, 2)
            z = rng.uniform(-3, 3, 2)
            jp, jl = one_edge(_observation_batch, pose, lm, z, jac=True)
            fd_p = self._fd_jacobian(lambda x: one_edge(_observation_batch, x, lm, z), pose)
            fd_l = self._fd_jacobian(lambda x: one_edge(_observation_batch, pose, x, z), lm)
            scale = max(1.0, np.abs(jp).max())
            assert np.abs(jp - fd_p).max() / scale < 1e-6
            assert np.abs(jl - fd_l).max() / scale < 1e-6


def build_noise_free_graph(radius=20.0, speed=5.0, frame_rate=5.0):
    track = generate_track(TrackSpec(kind="circle", radius_m=radius), seed=1)
    profile = noise_free_profile()
    cfg = LocalMapConfig.for_profile(profile, frame_rate)
    poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, speed),), 1.0 / frame_rate)
    rng = np.random.default_rng(0)
    state = LocalMapState()
    graph = Graph()
    start_pose = None
    for timestamp, dt, pose, vel in discrete_frames(poses, 1.0 / frame_rate):
        start_pose = start_pose or pose
        obs = observe_cones(track, pose, profile, rng, timestamp)
        state, snap = ingest_frame(state, [obs], vel, dt, cfg)
        add_snapshot(graph, snap, CONFIG)
    return track, graph, start_pose


class TestOptimize:
    def test_noise_free_graph_cost_zero(self):
        _, graph, _ = build_noise_free_graph()
        result = optimize(graph, CONFIG)
        assert result.final_cost < 1e-16
        assert result.converged

    def test_noise_free_landmark_count_matches_truth(self):
        track, graph, _ = build_noise_free_graph()
        assert len(graph.landmarks) == len(track.positions)

    def test_noise_free_map_matches_truth_up_to_gauge(self):
        track, graph, start_pose = build_noise_free_graph()
        result = optimize(graph, CONFIG)
        truth = track.positions
        for lm in result.landmarks:
            world = transform_point(start_pose, lm)
            assert np.hypot(*(truth - world).T).min() < 1e-6

    def test_single_pose_single_landmark_fully_determined(self):
        graph = Graph()
        graph.add_pose(Pose2(1.0, 2.0, 0.5))
        graph.add_landmarks([[0.0, 0.0]])  # bad init
        z = np.array([2.0, 1.0])
        graph.add_observations([0], [0], [z], [1.0])
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
            graph.poses[k] = pose_array(Pose2(x + noise[0], y + noise[1], theta + noise[2] * 0.1))
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
            graph.poses[k] = pose_array(compose(shift, Pose2(*graph.poses[k])))
        for i in range(len(graph.landmarks)):
            graph.landmarks[i] = transform_point(shift, graph.landmarks[i])
        other = optimize(graph, CONFIG)
        # same gauge anchor -> identical optimum regardless of initialization
        for a, b in zip(base.landmarks, other.landmarks):
            assert np.allclose(a, b, atol=1e-5)

    def test_structure_error_for_dangling_landmark(self):
        graph = Graph()
        graph.add_pose(Pose2.identity())
        graph.add_landmarks([[1.0, 0.0]])
        with pytest.raises(GraphStructureError):
            optimize(graph, CONFIG)


class TestNoisyImprovement:
    def test_optimization_beats_dead_reckoning(self):
        from conetrack.evaluate import icp_align, map_rmse

        track = generate_track(TrackSpec(length_m=220.0, hairpin_count=1), seed=11)
        profile = SensorProfile(mode="fusion", false_positives_per_frame=0.0)
        frame_rate = 10.0
        cfg_local = LocalMapConfig.for_profile(profile, frame_rate)
        poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 8.0),), 1.0 / frame_rate)
        rng = np.random.default_rng(11)
        state = LocalMapState()
        graph = Graph()
        start_pose = None
        for timestamp, dt, pose, vel in discrete_frames(poses, 1.0 / frame_rate):
            start_pose = start_pose or pose
            obs = observe_cones(track, pose, profile, rng, timestamp)
            vel_noisy = noisy_velocity(vel, profile, rng)
            state, snap = ingest_frame(state, [obs], vel_noisy, dt, cfg_local)
            add_snapshot(graph, snap, CONFIG)
        dead_reckoned = export_map(graph)
        graph.merge_estimates(optimize(graph, CONFIG))
        optimized = export_map(graph)
        truth = track.positions

        def rmse(records):
            pts = np.array([[r["x_m"], r["y_m"]] for r in records])
            world = np.array([transform_point(start_pose, p) for p in pts])
            aligned = icp_align(world, truth, init=Pose2.identity())
            return map_rmse(aligned)

        assert rmse(optimized) < rmse(dead_reckoned)


class TestMergeEstimates:
    def test_merge_commits_every_row(self):
        _, graph, _ = build_noise_free_graph(frame_rate=2.0)
        rng = np.random.default_rng(9)
        for i in range(len(graph.landmarks)):
            graph.landmarks[i] = graph.landmarks[i] + rng.normal(scale=0.05, size=2)
        before = graph.landmarks.copy()
        result = optimize(graph, CONFIG)
        assert not graph.optimized and np.array_equal(graph.landmarks, before)  # the solve did not touch the graph
        graph.merge_estimates(result)
        assert np.array_equal(graph.landmarks, result.landmarks)
        assert np.array_equal(graph.poses[:, :2], result.poses[:, :2])
        assert graph.poses[:, 2].tolist() == [normalize_angle(theta) for theta in result.poses[:, 2].tolist()]
        assert graph.optimized


def graph_to_dict(graph: Graph) -> dict:
    """The graph as a schema-1 ``graph.json`` document: an object per pose,
    landmark and edge, every number as JSON text. The tests compare graphs
    in this form."""
    links: list[list[int]] = [[] for _ in graph.landmarks]
    evidence: list[dict[int, list[float]]] = [{} for _ in graph.landmarks]
    for local_id, lm, ev in zip(*(graph.links[name].tolist() for name in ("local_id", "landmark", "evidence"))):
        links[lm].append(local_id)
        evidence[lm][local_id] = ev
    odometry, observations = graph.odometry_edges, graph.observation_edges
    return {
        "schema_version": 1,
        "optimized": graph.optimized,
        "last_timestamp_s": graph.last_timestamp,
        "poses": [
            {"id": k, "x_m": x, "y_m": y, "theta_rad": theta}
            for k, (x, y, theta) in enumerate(graph.poses.tolist())
        ],
        "landmarks": [
            {
                "id": i,
                "x_m": x,
                "y_m": y,
                "color_evidence": {str(k): [float(v) for v in ev] for k, ev in sorted(evidence.items())},
                "local_id_links": sorted(links[i]),
            }
            for i, ((x, y), evidence) in enumerate(zip(graph.landmarks.tolist(), evidence))
        ],
        "odometry_edges": [
            {"from": k, "to": k + 1, "relative": relative, "information": information}
            for k, (relative, information) in enumerate(
                zip(odometry["relative"].tolist(), odometry["information"].tolist())
            )
        ],
        "observation_edges": [
            {"pose": pose, "landmark": lm, "measurement_m": measurement, "information": information}
            for pose, lm, measurement, information in zip(
                observations["pose"].tolist(),
                observations["landmark"].tolist(),
                observations["measurement"].tolist(),
                observations["information"].tolist(),
            )
        ],
        "local_links": {str(k): v for k, v in sorted(local_links(graph).items())},
    }


# (dtype, row shape) of each schema-2 graph.json column
GRAPH_COLUMNS = {
    "poses": ("<f8", (3,)),
    "landmarks": ("<f8", (2,)),
    "odometry_relative": ("<f8", (3,)),
    "odometry_information": ("<f8", (3, 3)),
    "observation_pose": ("<i8", ()),
    "observation_landmark": ("<i8", ()),
    "observation_measurement_m": ("<f8", (2,)),
    "observation_information": ("<f8", (2, 2)),
    "color_evidence_landmark": ("<i8", ()),
    "color_evidence_local_id": ("<i8", ()),
    "color_evidence": ("<f8", (3,)),
    "local_link_id": ("<i8", ()),
    "local_link_landmark": ("<i8", ()),
}


def graph_from_dict(data: dict) -> Graph:
    """Rebuild a graph from a schema-2 ``graph.json`` document through the graph's own append steps.

    Another schema, a column whose header is not this schema's, a column
    whose bytes do not fill its header's shape, or an information matrix
    that is not diagonal, or for an observation isotropic, raises
    ``ValueError``.
    """
    if data.get("kind") != "pose_landmark_graph" or data.get("schema_version") != GRAPH_SCHEMA_VERSION:
        raise ValueError(f"unsupported graph schema: {data.get('schema_version')}")
    columns = {}
    for name, (dtype, row_shape) in GRAPH_COLUMNS.items():
        header = data["columns"][name]
        shape = tuple(header["shape"])
        if header["dtype"] != dtype or shape[1:] != row_shape:
            raise ValueError(f"graph column {name} must be {dtype} rows of shape {row_shape}, got {header}")
        raw = base64.b64decode(data["data"][name], validate=True)
        if len(raw) != math.prod(shape) * 8:
            raise ValueError(f"graph column {name} holds {len(raw)} bytes, not the {math.prod(shape) * 8} of {shape}")
        columns[name] = np.frombuffer(raw, dtype).reshape(shape)
    poses, relative = columns["poses"], columns["odometry_relative"]
    if len(relative) != max(len(poses) - 1, 0):
        raise ValueError("odometry edges must chain each pose to the next")
    diagonals = np.diagonal(columns["odometry_information"], axis1=1, axis2=2)
    isotropic = columns["observation_information"][:, 0, 0]
    matrices = information_matrices(diagonals, isotropic)
    if not all(np.array_equal(m, columns[k]) for m, k in zip(matrices, ("odometry_information", "observation_information"))):
        raise ValueError("an odometry edge's information must be diagonal, an observation edge's a multiple of the identity")
    g = Graph()
    g.optimized = data["optimized"]
    g.last_timestamp = data["last_timestamp_s"]
    for k, row in enumerate(poses.tolist()):
        if k == 0:
            g.add_pose(Pose2(*row))
        else:
            g.add_pose(Pose2(*row), Pose2(*relative[k - 1]), diagonals[k - 1])
    g.add_landmarks(columns["landmarks"])
    g.add_links(columns["color_evidence_local_id"], columns["color_evidence_landmark"], columns["color_evidence"])
    g.add_observations(
        columns["observation_pose"],
        columns["observation_landmark"],
        columns["observation_measurement_m"],
        1.0 / isotropic,  # the graph stores 1 / variance, which the round trip tests check gives back these bytes
    )
    if local_links(g) != dict(zip(columns["local_link_id"].tolist(), columns["local_link_landmark"].tolist())):
        raise ValueError("the local links and the colour evidence rows must name the same links")
    return g


def load_graph(path) -> Graph:
    return graph_from_dict(json.loads(Path(path).read_text()))


class TestSerialization:
    def test_graph_roundtrip(self, tmp_path):
        _, graph, _ = build_noise_free_graph(frame_rate=2.0)
        path = tmp_path / "graph.json"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert graph_to_dict(loaded) == graph_to_dict(graph)
        save_graph(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_schema_1_document_rejected(self):
        _, graph, _ = build_noise_free_graph(frame_rate=2.0)
        with pytest.raises(ValueError, match="schema"):
            graph_from_dict(graph_to_dict(graph))

    def test_column_with_wrong_byte_length_rejected(self, tmp_path):
        _, graph, _ = build_noise_free_graph(frame_rate=2.0)
        save_graph(graph, tmp_path / "graph.json")
        data = json.loads((tmp_path / "graph.json").read_text())
        short = base64.b64decode(data["data"]["observation_measurement_m"])[:-8]
        data["data"]["observation_measurement_m"] = base64.b64encode(short).decode("ascii")
        with pytest.raises(ValueError, match="observation_measurement_m holds"):
            graph_from_dict(data)

    def test_export_empty_graph(self):
        graph = Graph()
        graph.optimized = True
        assert export_map(graph) == []

    def test_export_color_merge(self):
        graph = Graph()
        (lm,) = graph.add_landmarks([[1.0, 2.0]])
        graph.add_links([0, 5], [lm, lm], [[3.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
        graph.add_pose(Pose2.identity())
        graph.add_observations([0], [lm], [[1.0, 2.0]], [1.0])
        graph.optimized = True
        (record,) = export_map(graph)
        assert record["color"] == "blue"
        assert record["p_blue"] == pytest.approx(5.0 / 7.0)

    def test_export_min_edges_filters_transients(self):
        graph = Graph()
        graph.add_pose(Pose2.identity())
        for k, n_edges in enumerate((5, 1)):
            (lm,) = graph.add_landmarks([[float(k), 0.0]])
            graph.add_links([k], [lm], [[1.0, 0.0, 0.0]])
            for _ in range(n_edges):
                graph.add_observations([0], [lm], [[float(k), 0.0]], [1.0])
        graph.optimized = True
        records = export_map(graph, min_edges=3)
        assert [r["id"] for r in records] == [0]


# sha256 of the global-map artifacts of a noise-free-circle lap with fusion
# sensor noise and the planner off. The dead-reckoned map is as the per-node
# graph of earlier versions wrote it; the estimated map is as the single
# final solve writes it with the symmetric factorization, and the graph is
# its schema-2 dump.
GOLDEN_DIGESTS = {
    "graph.json": "dffce115cb7a0d3b91334189f254945b56d4da3f5cb7d457aa20ba00ad95c8d9",
    "map_estimated.json": "9db5041ee2d6355325973bf8d0e672473fcd09d20975ac86e629410e90b20e79",
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
            # rates whose square underflows to zero or whose information does, and a floor whose square overflows
            ("odometry_sigma_rates", (1e-300, 0.08, 0.012)),
            ("odometry_sigma_rates", (1e-170, 0.08, 0.012)),
            ("odometry_sigma_rates", (MIN_SIGMA_RATE / 2, 0.08, 0.012)),
            ("odometry_sigma_rates", (0.08, 1e200, 0.012)),
            ("odometry_sigma_rates", (0.08, 0.08, MAX_NOISE_SIGMA * 2)),
            ("observation_sigma_floor_m", 1e155),
            ("observation_sigma_floor_m", MAX_NOISE_SIGMA * 2),
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


@pytest.fixture(scope="module")
def golden_lap(tmp_path_factory):
    """The golden-bytes lap: its output directory, and its graph before the
    solve, rebuilt from its snapshot log as replay rebuilds it."""
    config = dataclasses.replace(load_config("noise-free-circle"), plan_enabled=False)
    config.profiles = {**config.profiles, "fusion": resolve_profile("builtin:fusion")}
    out = tmp_path_factory.mktemp("golden")
    run_pipeline(config, out)
    graph = Graph()
    for snap in read_snapshot_log(out / "snapshots.ndjson"):
        add_snapshot(graph, snap, config.global_map_config())
    return out, graph


class TestGoldenBytes:
    def test_noisy_lap_writes_the_recorded_graph_and_maps(self, golden_lap):
        # covers association, loop closure, the final solve and both exports
        out, _ = golden_lap
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}
        assert digests == GOLDEN_DIGESTS


def noisy_loop_graph():
    """The noise-free circle graph with Gaussian noise on every edge: the
    lap's last poses observe its first landmarks again."""
    _, graph, _ = build_noise_free_graph()
    rng = np.random.default_rng(12)
    graph.observation_edges["measurement"] += rng.normal(scale=0.1, size=graph.observation_edges["measurement"].shape)
    graph.odometry_edges["relative"] += rng.normal(scale=0.02, size=graph.odometry_edges["relative"].shape)
    return graph


class TestSymmetricFactorization:
    @pytest.mark.parametrize("source", ["golden_lap", "noisy_loop"])
    def test_solve_matches_the_colamd_reference(self, golden_lap, source):
        graph = golden_lap[1] if source == "golden_lap" else noisy_loop_graph()
        if source == "noisy_loop":  # a loop: some landmark is seen by the first and the last pose
            edges = graph.observation_edges
            assert set(edges["landmark"][edges["pose"] == 0]) & set(edges["landmark"][edges["pose"] == len(graph.poses) - 1])
        result, reference = optimize(graph, CONFIG), colamd_optimize(graph, CONFIG)
        assert (result.iterations, result.converged, result.message) == (
            reference.iterations,
            reference.converged,
            reference.message,
        )
        heading = result.poses[:, 2] - reference.poses[:, 2]
        assert np.abs(np.arctan2(np.sin(heading), np.cos(heading))).max() <= 1e-9
        assert np.abs(result.poses[:, :2] - reference.poses[:, :2]).max() <= 1e-9
        assert np.abs(result.landmarks - reference.landmarks).max() <= 1e-9
        assert result.final_cost == pytest.approx(reference.final_cost, rel=1e-12, abs=0.0)

    def test_factor_fills_in_far_less_than_the_colamd_lu(self, golden_lap):
        # 42,096 against 79,872 nonzeros (0.527) on this lap; 0.445 on the
        # 3,937-unknown system of a 500 m lap
        _, jacobian = coo_assemble(*reference_inputs(golden_lap[1]), jac=True)
        hess = (jacobian.T @ jacobian).tocsc()
        damped = hess + sp.diags(CONFIG.initial_lambda * np.maximum(hess.diagonal(), 1e-9))
        factor, reference = _factor(damped), splu(damped)
        assert factor.L.nnz + factor.U.nnz <= 0.55 * (reference.L.nnz + reference.U.nnz)


@st.composite
def small_noisy_graphs(draw):
    """A few poses on a curve, each observing every landmark, with noisy edges and a perturbed start."""
    n_poses = draw(st.integers(2, 5))
    n_landmarks = draw(st.integers(1, 4))
    noise = draw(st.sampled_from([0.0, 0.01, 0.3, 2.0]))
    perturbation = draw(st.sampled_from([0.0, 0.05, 0.5, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = [Pose2(1.5 * k, 0.2 * k * k, 0.3 * k) for k in range(n_poses)]
    landmarks = rng.uniform([-3.0, -4.0], [8.0, 6.0], size=(n_landmarks, 2))
    graph = Graph()
    for k, pose in enumerate(truth):
        if k == 0:
            graph.add_pose(pose)
        else:
            moved = pose_array(relative_pose(truth[k - 1], pose)) + rng.normal(scale=noise, size=3)
            start = pose_array(pose) + rng.normal(scale=perturbation, size=3)
            graph.add_pose(Pose2(*start), Pose2(*moved), (100.0, 100.0, 400.0))
    for position in landmarks:
        graph.add_landmarks([position + rng.normal(scale=perturbation, size=2)])
    for k, pose in enumerate(truth):
        measured = body_frame_point(pose, landmarks) + rng.normal(scale=noise, size=(n_landmarks, 2))
        graph.add_observations([k] * n_landmarks, range(n_landmarks), measured, [0.04] * n_landmarks)
    return graph


def edge_by_edge_assembly(graph):
    """The whitened residuals and Jacobian of ``graph``, assembled one edge at
    a time from ``one_edge`` into a dense matrix with a column block for
    every pose, then pose 0's three columns removed. Each edge is whitened
    by the Cholesky factor of its full information matrix."""
    poses, lms = graph.poses, graph.landmarks
    landmark_col = 3 * len(poses)
    edges = []  # (information, residual, [(first column, Jacobian)])
    odometry, observations = graph.odometry_edges, graph.observation_edges
    odometry_information, observation_information = information_matrices(odometry["information"], observations["information"])
    for k, (relative, information) in enumerate(zip(odometry["relative"], odometry_information)):
        rows = (poses[k], poses[k + 1], relative)
        ji, jj = one_edge(_odometry_batch, *rows, jac=True)
        edges.append((information, one_edge(_odometry_batch, *rows), [(3 * k, ji), (3 * k + 3, jj)]))
    for pose, lm, measurement, information in zip(
        observations["pose"], observations["landmark"], observations["measurement"], observation_information
    ):
        rows = (poses[pose], lms[lm], measurement)
        jp, jl = one_edge(_observation_batch, *rows, jac=True)
        edges.append((information, one_edge(_observation_batch, *rows), [(3 * pose, jp), (landmark_col + 2 * lm, jl)]))
    residuals, jacobian = [], np.zeros((sum(len(r) for _, r, _ in edges), landmark_col + 2 * len(lms)))
    for information, residual, blocks in edges:
        (root,) = whiten(information[None])
        for col, block in blocks:
            jacobian[len(residuals) : len(residuals) + len(residual), col : col + block.shape[1]] = root @ block
        residuals.extend(root @ residual)
    return np.array(residuals), jacobian[:, 3:]


def assembly_inputs(graph):
    """``_assemble``'s arguments for ``graph`` up to the Jacobian pattern:
    the estimates, the edges and the residual rows' weights."""
    odometry, observations = graph.odometry_edges, graph.observation_edges
    return graph.poses, graph.landmarks, odometry, observations, _row_weights(odometry, observations)


def reference_inputs(graph):
    """``coo_assemble``'s arguments for ``graph`` up to ``jac``: the estimates,
    the edges and each edge type's square-root information matrices."""
    odometry, observations = graph.odometry_edges, graph.observation_edges
    return (graph.poses, graph.landmarks, odometry, observations, *cholesky_roots(odometry, observations))


def pattern_assembly(graph):
    """The whitened residuals and Jacobian ``optimize`` assembles, in its edges' cached pattern."""
    pattern = _jacobian_pattern(len(graph.poses), len(graph.landmarks), graph.odometry_edges, graph.observation_edges)
    return _assemble(*assembly_inputs(graph), pattern)


def gauge_only_landmarks_graph():
    """Three poses; landmarks 0 and 2 are seen only from pose 0, the gauge, so
    every pose block of their edges is dropped."""
    graph = Graph()
    graph.add_pose(Pose2(0.0, 0.0, 0.0))
    for k in (1, 2):
        graph.add_pose(Pose2(1.0 * k, 0.1 * k, 0.05 * k), Pose2(1.0, 0.1, 0.05), (100.0, 100.0, 400.0))
    graph.add_landmarks([[4.0, 2.0], [5.0, -2.0], [6.0, 1.5]])
    graph.add_observations([0, 0, 0], [0, 1, 2], [[4.1, 2.0], [5.0, -1.9], [6.0, 1.4]], [0.04] * 3)
    graph.add_observations([1, 2], [1, 1], [[4.0, -2.2], [3.1, -2.3]], [0.0625] * 2)
    return graph


class TestAssembly:
    @staticmethod
    def check(graph):
        residuals, jacobian = pattern_assembly(graph)
        expected_residuals, expected_jacobian = edge_by_edge_assembly(graph)
        assert np.array_equal(residuals, expected_residuals)
        assert jacobian.shape == expected_jacobian.shape
        assert np.array_equal(jacobian.toarray(), expected_jacobian)
        TestAssembly.check_pattern(graph)

    @staticmethod
    def check_pattern(graph):
        """The cached-pattern Jacobian is the COO reference's CSR matrix: its
        pattern bit for bit, its values and the residuals equal. The
        reference whitens by Cholesky factors, whose zeros off the diagonal
        can turn a zero's sign."""
        residuals, jacobian = pattern_assembly(graph)
        expected_residuals, expected = coo_assemble(*reference_inputs(graph), jac=True)
        assert np.array_equal(residuals, expected_residuals)
        assert jacobian.shape == expected.shape
        for name in ("indices", "indptr"):
            mine, theirs = getattr(jacobian, name), getattr(expected, name)
            assert (mine.dtype, mine.tobytes()) == (theirs.dtype, theirs.tobytes()), name
        assert jacobian.data.dtype == expected.data.dtype and np.array_equal(jacobian.data, expected.data)

    @given(small_noisy_graphs())
    @settings(max_examples=40, deadline=None)
    def test_sparse_jacobian_equals_the_edge_by_edge_one(self, graph):
        self.check(graph)

    def test_one_pose_without_odometry(self):
        graph = Graph()
        graph.add_pose(Pose2(1.0, 2.0, 0.5))
        for k, position in enumerate(([3.0, 1.0], [-2.0, 4.0])):
            graph.add_landmarks([position])
            graph.add_observations([0], [k], [[2.0 - k, 1.0 + k]], [0.25])
        self.check(graph)

    def test_landmarks_seen_only_from_the_gauge_pose(self):
        self.check(gauge_only_landmarks_graph())

    @pytest.mark.parametrize("source", ["golden_lap", "noisy_loop"])
    def test_cached_pattern_equals_the_coo_reference(self, golden_lap, source):
        self.check_pattern(golden_lap[1] if source == "golden_lap" else noisy_loop_graph())

    def test_pattern_indices_are_int32(self, golden_lap):
        graph = golden_lap[1]
        pattern = _jacobian_pattern(len(graph.poses), len(graph.landmarks), graph.odometry_edges, graph.observation_edges)
        assert [a.dtype for a in pattern[:4]] == [np.int32] * 4


def log_uniform(low: float, high: float):
    """Floats from ``low`` to ``high``, spread evenly over their exponents, the two ends among them."""
    exponents = st.floats(math.log10(low), math.log10(high)).map(lambda e: min(max(10.0**e, low), high))
    return st.one_of(st.sampled_from([low, high]), exponents)


@st.composite
def configured_information_graphs(draw):
    """A small noisy graph whose edges carry the information ``add_snapshot``
    gives for noise fields and snapshot gaps anywhere within their limits:
    1 / (rate^2 gap) on an odometry edge's diagonal, and 1 / max(variance,
    floor^2) on an observation edge, for variances from the covariance
    eigenvalue floor to the largest floor's square."""
    graph = draw(small_noisy_graphs())
    n_odometry, n_observations = len(graph.odometry_edges), len(graph.observation_edges)
    rates = draw(st.lists(st.tuples(*[log_uniform(MIN_SIGMA_RATE, MAX_NOISE_SIGMA)] * 3), min_size=n_odometry, max_size=n_odometry))
    gaps = draw(st.lists(log_uniform(1e-3, 2 * MAX_SNAPSHOT_TIME_S), min_size=n_odometry, max_size=n_odometry))
    floor = draw(st.one_of(st.just(0.0), log_uniform(1e-6, MAX_NOISE_SIGMA)))
    variances = draw(
        st.lists(log_uniform(COV_EIGENVALUE_FLOOR, MAX_NOISE_SIGMA**2), min_size=n_observations, max_size=n_observations)
    )
    graph.odometry_edges["information"] = [[1.0 / (s * s * gap) for s in edge] for edge, gap in zip(rates, gaps)]
    graph.observation_edges["information"] = [1.0 / max(v, floor**2) for v in variances]
    return graph


class TestRowWeightsMatchCholesky:
    """Whitening by one weight per residual row against whitening each edge by the Cholesky factor of its
    full information matrix with ``np.einsum`` block products (``map_reference.cholesky_assemble``)."""

    @given(configured_information_graphs())
    @settings(max_examples=60, deadline=None)
    def test_weights_residuals_jacobians_and_solves_are_equal(self, graph):
        odometry, observations = graph.odometry_edges, graph.observation_edges
        information = np.concatenate([odometry["information"].ravel(), observations["information"]])
        assert np.isfinite(information).all() and (information > 0).all()
        # each row's weight is the diagonal entry of its edge's Cholesky factor, bit for bit
        odometry_roots, observation_roots = (np.diagonal(root, axis1=1, axis2=2) for root in cholesky_roots(odometry, observations))
        roots = np.concatenate([odometry_roots.ravel(), observation_roots.ravel()])
        assert _row_weights(odometry, observations).tobytes() == roots.tobytes()
        pattern = _jacobian_pattern(len(graph.poses), len(graph.landmarks), odometry, observations)
        residuals, jacobian = _assemble(*assembly_inputs(graph), pattern)
        expected_residuals, expected_jacobian = cholesky_assemble(*assembly_inputs(graph), pattern)
        # equal values; a zero's sign can differ where a Cholesky factor's zero multiplied a negative value
        assert np.array_equal(residuals, expected_residuals)
        assert np.array_equal(jacobian.data, expected_jacobian.data)
        result = optimize(graph, CONFIG)
        with mock.patch.object(global_map, "_assemble", cholesky_assemble):
            reference = optimize(graph, CONFIG)
        assert (result.iterations, result.converged, result.message) == (reference.iterations, reference.converged, reference.message)
        assert result.final_cost == reference.final_cost
        assert np.array_equal(result.poses, reference.poses) and np.array_equal(result.landmarks, reference.landmarks)


class TestRejectedSteps:
    @pytest.mark.parametrize("failure", ["raises", "nan_step"])
    def test_a_step_the_factor_cannot_give_stalls_the_damping(self, monkeypatch, failure):
        graph = Graph()
        graph.add_pose(Pose2(1.0, 2.0, 0.5))
        graph.add_landmarks([[0.0, 0.0]])
        graph.add_observations([0], [0], [[2.0, 1.0]], [1.0])
        (residual,) = graph.observation_edges["measurement"] - body_frame_point(Pose2(1.0, 2.0, 0.5), graph.landmarks)
        damped = []

        class NanSolve:
            @staticmethod
            def solve(rhs):
                return np.full_like(rhs, np.nan)

        def failing_factor(matrix):
            damped.append(matrix.diagonal())
            if failure == "raises":
                raise RuntimeError("Factor is exactly singular")
            return NanSolve

        monkeypatch.setattr(global_map, "_factor", failing_factor)
        result = optimize(graph, CONFIG)
        assert (result.iterations, result.converged, result.message) == (1, True, "damping stalled at a local minimum")
        assert result.final_cost == residual_cost(residual)
        assert np.array_equal(result.poses, graph.poses) and np.array_equal(result.landmarks, graph.landmarks)
        # every rejected step raised the damping once
        assert len(damped) == CONFIG.max_lambda_steps
        assert all((after > before).all() for before, after in zip(damped, damped[1:]))


class TestAcceptedSteps:
    @given(small_noisy_graphs())
    @settings(max_examples=60, deadline=None)
    def test_accepted_steps_never_increase_the_cost(self, graph):
        residuals, _ = _assemble(*assembly_inputs(graph))
        # a budget of k iterations stops the same solve after its k-th step
        costs = [residual_cost(residuals)]
        costs += [optimize(graph, GlobalMapConfig(max_iterations=k)).final_cost for k in range(1, 7)]
        assert all(after <= before for before, after in zip(costs, costs[1:]))


def test_final_cost_is_independent_of_the_blas_thread_count():
    """A graph of 13,197 residual rows solves to the same final cost bits with one
    BLAS thread and with two: above 10,000 entries OpenBLAS splits a dot product
    across threads, and a cost formed as ``res @ res`` read 0x1.9e72a64fc0cccp+10
    with one thread and 0x1.9e72a64fc0ccdp+10 with two on this seed."""
    code = (
        "import numpy as np\n"
        "from conetrack.core import Pose2, body_frame_point, relative_pose\n"
        "from conetrack.global_map import Graph, optimize\n"
        "pose_array = lambda pose: np.array([pose.x, pose.y, pose.theta])\n"
        "rng = np.random.default_rng(0)\n"
        "angles = np.linspace(0.0, 2 * np.pi, 1200, endpoint=False)\n"
        "truth = [Pose2(30 * np.cos(a), 30 * np.sin(a), a + np.pi / 2) for a in angles]\n"
        "ring = np.linspace(0.0, 2 * np.pi, 300, endpoint=False)\n"
        "landmarks = np.concatenate([np.c_[r * np.cos(ring), r * np.sin(ring)] for r in (26.0, 34.0)])\n"
        "graph = Graph()\n"
        "graph.add_pose(truth[0])\n"
        "for before, pose in zip(truth, truth[1:]):\n"
        "    moved = pose_array(relative_pose(before, pose)) + rng.normal(scale=[0.02, 0.02, 0.005])\n"
        "    start = pose_array(pose) + rng.normal(scale=0.3, size=3)\n"
        "    graph.add_pose(Pose2(*start), Pose2(*moved), (100.0, 100.0, 400.0))\n"
        "for position in landmarks:\n"
        "    graph.add_landmarks([position + rng.normal(scale=0.3, size=2)])\n"
        "for k, pose in enumerate(truth):\n"
        "    seen = np.argsort(np.hypot(*(landmarks - pose.position).T))[:4]\n"
        "    measured = body_frame_point(pose, landmarks[seen]) + rng.normal(scale=0.1, size=(4, 2))\n"
        "    graph.add_observations([k] * 4, seen, measured, [0.04] * 4)\n"
        "print(3 * (len(graph.poses) - 1) + 2 * len(graph.observation_edges), optimize(graph).final_cost.hex())\n"
    )
    costs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(global_map.__file__).resolve().parent.parent), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        rows, cost = done.stdout.split()
        assert int(rows) > 10_000
        costs.append(cost)
    assert costs[0] == costs[1]


evidence_value = st.one_of(
    st.floats(0.0, 1e308),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0, 1e308, 1.7976931348623157e308]),
)
evidence_array = st.one_of(
    st.lists(evidence_value, min_size=3, max_size=3),
    st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=3, max_size=3),  # exact ties
    st.tuples(evidence_value, evidence_value).map(lambda vw: [vw[0], vw[0], vw[1]]),
    st.tuples(evidence_value, evidence_value).map(lambda vw: [vw[1], vw[0], vw[0]]),
    # neighbouring floats, which one division can round to a tie
    st.tuples(evidence_value, evidence_value).map(lambda vw: [vw[0], math.nextafter(vw[0], math.inf), vw[1]]),
    st.tuples(evidence_value, evidence_value).map(lambda vw: [vw[1], math.nextafter(vw[0], math.inf), vw[0]]),
)


def exported_color(evidence) -> dict:
    """The exported record of a landmark linked to one local id per evidence triple, in order."""
    graph = Graph()
    graph.add_landmarks([[0.0, 0.0]])
    graph.add_links(range(len(evidence)), [0] * len(evidence), evidence)
    (record,) = export_map(graph, min_edges=0)
    return record


class TestDominantClass:
    @given(st.lists(evidence_array, min_size=0, max_size=3))
    # neighbouring floats that tie after one order of summing the total and not after another
    @example([[0.8830091396589759, 0.883009139658976, 0.6129994004887422]])
    @example([[0.8122417130881999, 0.8122417130882, 0.608586805324466]])
    # a NaN probability (infinite evidence over an infinite total), and signed zeros
    @example([[1.7976931348623157e308, 1.7976931348623157e308, 0.0]])
    @example([[-0.0, 1.0, -0.0], [-0.0, -0.0, 0.0]])
    @example([[-0.0, -0.0, -0.0]])
    @settings(max_examples=400, deadline=None)
    def test_plain_floats_equal_numpy_argmax(self, evidence):
        with np.errstate(over="ignore", invalid="ignore"):  # sums of huge evidence overflow to inf
            expected = numpy_color_probabilities([np.array(ev) for ev in evidence])
            record = exported_color(evidence)
        # all three probabilities bit for bit, the sign of a zero and the bits of a NaN included
        assert np.array([record["p_blue"], record["p_yellow"], record["p_unknown"]]).tobytes() == expected.tobytes()
        assert CLASS_NAMES.index(record["color"]) == int(np.argmax(expected))
        # the per-cone form the link table replaced gives the same bits
        assert np.array(plain_color_probabilities(evidence)).tobytes() == expected.tobytes()
        assert dominant_class(evidence) == int(np.argmax(expected))


class TestResidualSummary:
    def test_solved_noise_free_graph_has_no_large_residual(self):
        _, graph, _ = build_noise_free_graph()
        graph.merge_estimates(optimize(graph, CONFIG))
        summary = residual_summary(graph)
        assert summary["residuals_over_0_5m"] == 0
        assert summary["residual_landmarks_over_0_5m"] == []
        assert summary["max_residual_m"] < 1e-6

    def test_corrupted_measurement_names_its_landmark(self):
        _, graph, _ = build_noise_free_graph()
        edges = graph.observation_edges
        # an edge of the most observed landmark, so the other edges hold that landmark in place
        edge = int(np.flatnonzero(edges["landmark"] == np.argmax(np.bincount(edges["landmark"])))[0])
        edges["measurement"][edge] += [1.5, -1.0]
        graph.merge_estimates(optimize(graph, CONFIG))
        summary = residual_summary(graph)
        assert summary["residual_landmarks_over_0_5m"] == [int(edges["landmark"][edge])]
        assert summary["residuals_over_0_5m"] == 1
        assert summary["max_residual_m"] > 1.0
