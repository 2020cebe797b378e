import dataclasses
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conetrack.core import (
    ColorDistribution,
    ConeClass,
    ConeEstimate,
    Gaussian2,
    ObservationBatch,
    Pose2,
    SensorSource,
    Velocity2,
    bhattacharyya_distance,
    bhattacharyya_distance_matrix,
    integrate_velocity,
    rotate_covariance,
    transform_point,
)
from conetrack.config import load_config
from conetrack.local_map import (
    ConeTable,
    LocalMapConfig,
    LocalMapSnapshot,
    LocalMapState,
    MapMode,
    SchemaMismatchError,
    SnapshotLogWriter,
    apply_negative_observations,
    associate,
    ingest_frame,
    predict,
    read_snapshot_log,
    snapshot_from_dict,
    unseen_in_fov,
    update_color,
    update_position,
)
from conetrack.pipeline import run_pipeline
from conetrack.simulate import (
    ScenarioDriver,
    SimRun,
    TrackSpec,
    default_profile,
    generate_track,
    noise_free_profile,
    noisy_velocity,
    observe_cones,
)

CONFIG = LocalMapConfig()


def make_cone(cid=0, mean=(0.0, 0.0), sigma=0.3, evidence=(1.0, 0.0, 0.0), existence=0.5, last_seen=0.0):
    return ConeEstimate(
        id=cid,
        position=Gaussian2.isotropic(np.array(mean, dtype=float), sigma),
        color_evidence=np.array(evidence) + 1e-12,
        existence=existence,
        last_seen=last_seen,
    )


def make_obs(mean, sigma=0.1, color=(1.0, 0.0, 0.0), t=0.0, source=SensorSource.FUSION):
    """One detection, as a one-row batch."""
    position = Gaussian2.isotropic(np.array(mean, dtype=float), sigma)
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
    return Gaussian2(obs.means[0], obs.covs[0])


def map_of(*cones):
    return LocalMapState(cones=ConeTable.from_estimates(cones))


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


def id_pairs(cones, result):
    """``result.pairs`` with each cone row replaced by that cone's id."""
    return tuple((o, int(cones.ids[c])) for o, c in result.pairs)


def matched_rows(cones, result):
    matched = np.zeros(len(cones), bool)
    matched[[c for _, c in result.pairs]] = True
    return matched


def unmatched_in_fov(state, result, config=CONFIG):
    """Ids of the cones inside the shrunk frustum that ``result`` did not match."""
    matched = matched_rows(state.cones, result)
    return tuple(state.cones.ids[unseen_in_fov(state.cones, state.ego, matched, config)].tolist())


def negative_pass(state, result, config=CONFIG):
    """The map after the existence pass for ``result``."""
    matched = matched_rows(state.cones, result)
    unseen = unseen_in_fov(state.cones, state.ego, matched, config)
    return replace(state, cones=apply_negative_observations(state.cones, matched, unseen, config))


def kalman(cone, obs):
    """One Kalman update through the array API: the updated mean and covariance."""
    means, covs = update_position(cone.position.mean[None], cone.position.cov[None], obs.means, obs.covs)
    return means[0], covs[0]


def color_of(evidence):
    return ColorDistribution.from_evidence(evidence)


class TestPredict:
    def test_zero_dt_is_identity(self):
        state = map_of(make_cone())
        assert predict(state, Velocity2(1, 0, 0), 0.0, CONFIG) is state

    def test_covariance_grows_additively(self):
        cfg = replace(CONFIG, process_noise_rate=(0.01, 0.01))
        cone = make_cone(sigma=0.3)
        state = map_of(cone)
        out = predict(state, Velocity2.zero(), 1.0, cfg)
        grown = out.cones.covs[0]
        assert np.allclose(grown, cone.position.cov + np.diag([0.01, 0.01]))
        assert np.allclose(out.cones.means[0], cone.position.mean)

    def test_covariance_growth_saturates_at_ceiling(self):
        cfg = replace(CONFIG, process_noise_rate=(0.05, 0.05), covariance_ceiling=0.25)
        state = map_of(make_cone(sigma=0.45))
        for _ in range(50):
            state = predict(state, Velocity2.zero(), 1.0, cfg)
        cov = state.cones.covs[0]
        assert 0.5 * (cov[0, 0] + cov[1, 1]) <= 0.25 + 1e-9

    def test_two_half_steps_equal_one_full_step(self):
        state = map_of(make_cone())
        vel = Velocity2.zero()
        once = predict(state, vel, 1.0, CONFIG)
        twice = predict(predict(state, vel, 0.5, CONFIG), vel, 0.5, CONFIG)
        assert np.allclose(once.cones.covs[0], twice.cones.covs[0], atol=1e-12)

    def test_ego_advances(self):
        state = LocalMapState()
        out = predict(state, Velocity2(2.0, 0.0, 0.0), 0.5, CONFIG)
        assert out.ego.as_array() == pytest.approx([1.0, 0.0, 0.0])
        assert out.time == pytest.approx(0.5)


class TestAssociate:
    def test_empty_map_all_new(self):
        state = LocalMapState()
        result = associate(state.cones, *obs_arrays([make_obs((1, 0)), make_obs((2, 0))]), CONFIG)
        assert result.pairs == ()
        assert result.new_observations == (0, 1)

    def test_exact_hit_matches(self):
        state = map_of(make_cone(3, (4.0, 1.0), sigma=0.2))
        result = associate(state.cones, *obs_arrays([make_obs((4.0, 1.0), sigma=0.2)]), CONFIG)
        assert id_pairs(state.cones, result) == ((0, 3),)
        assert unmatched_in_fov(state, result) == ()

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
            result = associate(state.cones, *obs_arrays([obs]), CONFIG)
            dists = {cid: bhattacharyya_distance(position_of(obs), c.position) for cid, c in cones.items()}
            best = min(dists, key=lambda cid: (dists[cid], cid))
            if dists[best] <= CONFIG.gate_distance:
                assert id_pairs(state.cones, result) == ((0, best),)
            else:
                assert result.new_observations == (0,)

    def test_one_to_one_greedy(self):
        state = map_of(make_cone(0, (5.0, 0.0), sigma=0.3))
        obs = [make_obs((5.0, 0.05), sigma=0.3), make_obs((5.0, -0.4), sigma=0.3)]
        result = associate(state.cones, *obs_arrays(obs), CONFIG)
        assert id_pairs(state.cones, result) == ((0, 0),)
        assert result.new_observations == (1,)

    def test_gate_rejects_distant(self):
        state = map_of(make_cone(0, (5.0, 0.0), sigma=0.1))
        result = associate(state.cones, *obs_arrays([make_obs((9.0, 0.0), sigma=0.1)]), CONFIG)
        assert result.pairs == ()
        assert result.new_observations == (0,)
        assert unmatched_in_fov(state, result) == (0,)

    def test_ties_go_to_the_lower_cone_id_then_the_lower_observation_index(self):
        # the observation sits exactly between cones 2 and 5
        state = map_of(make_cone(5, (-0.3, 0.0), sigma=0.3), make_cone(2, (0.3, 0.0), sigma=0.3))
        result = associate(state.cones, *obs_arrays([make_obs((0.0, 0.0), sigma=0.3)]), CONFIG)
        assert id_pairs(state.cones, result) == ((0, 2),)
        twins = [make_obs((0.3, 0.0), sigma=0.3), make_obs((0.3, 0.0), sigma=0.3)]
        state = map_of(make_cone(7, (0.3, 0.0), sigma=0.3))
        result = associate(state.cones, *obs_arrays(twins), CONFIG)
        assert id_pairs(state.cones, result) == ((0, 7),) and result.new_observations == (1,)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(33)
        cones = {i: make_cone(i, tuple(rng.uniform(0, 10, 2)), sigma=0.3) for i in range(6)}
        state = map_of(*cones.values())
        obs = [make_obs(tuple(c.position.mean + rng.normal(scale=0.2, size=2)), sigma=0.2) for c in cones.values()]
        base = associate(state.cones, *obs_arrays(obs), CONFIG)
        perm = rng.permutation(len(obs))
        shuffled = [obs[i] for i in perm]
        result = associate(state.cones, *obs_arrays(shuffled), CONFIG)
        inverse = np.argsort(perm)
        remapped = sorted((int(inverse[i]), cid) for i, cid in id_pairs(state.cones, base))
        assert sorted(id_pairs(state.cones, result)) == remapped


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
        evidence = np.array([[1e-12, 1e-12, 1e-12]])
        out = update_color(evidence, np.array([[1.0, 0.0, 0.0]]))
        assert color_of(out[0]).as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)

    def test_normalized_sum(self):
        cone = make_cone(evidence=(1.0, 0.0, 0.0))
        out = update_color(cone.color_evidence[None], np.array([[0.0, 1.0, 0.0]]))
        assert color_of(out[0]).as_array() == pytest.approx([0.5, 0.5, 0.0], abs=1e-9)

    def test_uniform_evidence_never_flips_argmax(self):
        evidence = make_cone(evidence=(0.6, 0.3, 0.1)).color_evidence[None]
        for _ in range(50):
            evidence = update_color(evidence, np.array([[1 / 3, 1 / 3, 1 / 3]]))
            assert color_of(evidence[0]).argmax_class() is ConeClass.BLUE


class TestExistence:
    def test_out_of_fov_cone_untouched(self):
        cone = make_cone(mean=(-20.0, 0.0), existence=0.7)  # behind the ego
        state = map_of(cone)
        for _ in range(100):
            result = associate(state.cones, *obs_arrays([]), CONFIG)
            assert unmatched_in_fov(state, result) == ()
            state = negative_pass(state, result)
        assert state.cones.existence[0] == pytest.approx(0.7)

    def test_certain_false_positive_rejected_within_half_second(self):
        frame_rate = 10.0
        cfg = LocalMapConfig.for_frame_rate(frame_rate)
        cone = make_cone(mean=(5.0, 0.0), existence=1.0)
        state = map_of(cone)
        misses = 0
        while 0 in state.cones.ids:
            result = associate(state.cones, *obs_arrays([]), cfg)
            assert unmatched_in_fov(state, result, cfg) == (0,)
            state = negative_pass(state, result, cfg)
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
    run = SimRun.constant_speed(track, speed, frame_rate)
    rng = np.random.default_rng(run.seed)
    state = LocalMapState()
    snapshots = []
    start_pose = None
    for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
        start_pose = start_pose or pose
        obs = observe_cones(track, pose, profile, rng, timestamp)
        state, snap = ingest_frame(state, [obs], vel, dt, cfg, mode=mode)
        snapshots.append(snap)
    return state, snapshots, start_pose


class TestIngest:
    def test_noise_free_positions_exact(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        state, snapshots, start_pose = run_noise_free_lap(track, mode=MapMode.FUSION)
        truth = track.cone_positions()
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
        run = SimRun.constant_speed(track, 5.0, frame_rate)
        rng = np.random.default_rng(0)
        state = LocalMapState()
        fp_id = None
        fp_gone_at = None
        inject_at = 1.0
        for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
            obs = observe_cones(track, pose, profile, rng, timestamp)
            if math.isclose(timestamp, inject_at):
                # phantom cone 6 m dead ahead, observed exactly once
                phantom = make_obs((6.0, 0.0), sigma=0.05, color=(0.0, 0.0, 1.0), t=timestamp)
                obs = joined(obs, phantom)
            state, snap = ingest_frame(state, [obs], vel, dt, cfg)
            if math.isclose(timestamp, inject_at):
                truth = track.cone_positions()
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
        run = SimRun.constant_speed(track, 5.0, 10.0)
        rng = np.random.default_rng(0)
        state = LocalMapState()
        first_snap = None
        first_copy = None
        for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
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
        run = SimRun.constant_speed(track, 5.0, 10.0)
        rng = np.random.default_rng(3)
        state = LocalMapState()
        for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
            obs = observe_cones(track, pose, profile, rng, timestamp)
            before = dict(zip(state.cones.ids.tolist(), np.trace(state.cones.covs, axis1=1, axis2=2)))
            predicted = predict(state, vel, dt, cfg)
            grown = dict(zip(predicted.cones.ids.tolist(), np.trace(predicted.cones.covs, axis1=1, axis2=2)))
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
        rng = np.random.default_rng(5)
        evidence = make_cone().color_evidence[None]
        for _ in range(100):
            ev = rng.dirichlet([1, 1, 1])
            evidence = update_color(evidence, ev[None], weight=rng.uniform(0.1, 2.0))
            arr = color_of(evidence[0]).as_array()
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


class TestSnapshotLog:
    def test_roundtrip(self, tmp_path):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        _, snapshots, _ = run_noise_free_lap(track)
        path = tmp_path / "snaps.ndjson"
        with SnapshotLogWriter(path) as writer:
            for snap in snapshots[:20]:
                writer.write(snap)
        loaded = read_snapshot_log(path)
        assert len(loaded) == 20
        for orig, back in zip(snapshots[:20], loaded):
            assert snapshot_to_dict(orig) == snapshot_to_dict(back)

    def test_truncated_tail_tolerated(self, tmp_path):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        _, snapshots, _ = run_noise_free_lap(track)
        path = tmp_path / "snaps.ndjson"
        with SnapshotLogWriter(path) as writer:
            for snap in snapshots[:5]:
                writer.write(snap)
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # chop mid-record
        loaded = read_snapshot_log(path)
        assert len(loaded) == 4

    @pytest.mark.parametrize("bad_line, tolerated", [(3, False), (6, True)])
    def test_only_a_malformed_last_record_is_tolerated(self, tmp_path, bad_line, tolerated):
        track = generate_track(TrackSpec(kind="circle", radius_m=20.0), seed=1)
        _, snapshots, _ = run_noise_free_lap(track)
        path = tmp_path / "snaps.ndjson"
        with SnapshotLogWriter(path) as writer:
            for snap in snapshots[10:15]:
                writer.write(snap)
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[bad_line - 1])
        record["cones"][0]["existence"] = 7.0
        lines[bad_line - 1] = json.dumps(record) + "\n"
        path.write_text("".join(lines) + "\n")  # a trailing blank line does not count as a record
        if tolerated:
            assert len(read_snapshot_log(path)) == 4
        else:
            with pytest.raises(ValueError, match="line 3"):
                read_snapshot_log(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("x_m", math.nan),
            ("cov_m2", [[math.inf, 0.0], [0.0, 1.0]]),
            ("color_evidence", [-1.0, 1.0, 1.0]),
            ("color_evidence", [math.nan, 1.0, 1.0]),
            ("existence", 1.5),
        ],
    )
    def test_malformed_cone_row_rejected(self, field, value):
        cones = ConeTable.from_estimates([make_cone(3), make_cone(1, (1.0, 0.0))])
        row = snapshot_to_dict(LocalMapSnapshot(0.0, Pose2.identity(), cones, frozenset({1}), MapMode.FUSION))
        assert snapshot_to_dict(snapshot_from_dict(row)) == row
        row["cones"][0][field] = value
        with pytest.raises(ValueError):
            snapshot_from_dict(row)

    def test_cone_rows_out_of_id_order_load_sorted(self):
        cones = ConeTable.from_estimates([make_cone(3), make_cone(1, (1.0, 0.0))])
        row = snapshot_to_dict(LocalMapSnapshot(0.0, Pose2.identity(), cones, frozenset({1}), MapMode.FUSION))
        swapped = dict(row, cones=row["cones"][::-1])
        assert snapshot_to_dict(snapshot_from_dict(swapped)) == row

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"schema_version": 99, "kind": "snapshot_log"}\n')
        with pytest.raises(SchemaMismatchError):
            read_snapshot_log(path)


def degraded_lap_snapshots(length_m=90.0, seed=455):
    """Snapshots of a seeded lap whose fusion pipeline fails at 3 s, so both single-sensor sources associate."""
    spec = dataclasses.replace(load_config("modes-5ms").track_spec, length_m=length_m)
    track = generate_track(spec, seed=seed)
    profiles = {m: default_profile(m) for m in ("fusion", "lidar_only", "camera_only")}
    config = LocalMapConfig.for_profile(profiles["lidar_only"], 10.0)
    run = SimRun.constant_speed(track, 5.0, 10.0, seed=seed)
    rng = np.random.default_rng(seed)
    state, snapshots = LocalMapState(), []
    for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
        alive = ["fusion"] if timestamp < 3.0 else ["lidar_only", "camera_only"]
        batches = [observe_cones(track, pose, profiles[m], rng, timestamp) for m in alive]
        state, snap = ingest_frame(state, batches, noisy_velocity(vel, profiles["fusion"], rng), dt, config)
        snapshots.append(snap)
    return snapshots


def json_line(snapshot):
    return json.dumps(snapshot_to_dict(snapshot), sort_keys=True) + "\n"


def written_lines(path, snapshots):
    with SnapshotLogWriter(path) as writer:
        for snap in snapshots:
            writer.write(snap)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]


finite_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300, 0.1]),
)


@st.composite
def snapshots(draw):
    """A snapshot of random cone rows, possibly none, with ids up to 2**53."""
    ids = sorted(draw(st.sets(st.integers(0, 2**53), max_size=8)))
    n = len(ids)
    columns = {name: draw(st.lists(finite_float, min_size=n * width, max_size=n * width)) for name, width in
               (("means", 2), ("covs", 4), ("color_evidence", 3), ("existence", 1), ("last_seen", 1))}
    cones = ConeTable(
        np.array(ids, np.int64),
        np.array(columns["means"], float).reshape(n, 2),
        np.array(columns["covs"], float).reshape(n, 2, 2),
        np.array(columns["color_evidence"], float).reshape(n, 3),
        np.array(columns["existence"], float),
        np.array(columns["last_seen"], float),
    )
    # the filter's ego and time are numpy floats, which json writes as plain floats
    x, y, theta, timestamp = (np.float64(draw(finite_float)) for _ in range(4))
    observed = draw(st.sets(st.sampled_from(ids))) if ids else set()
    ego = Pose2(x, y, draw(st.floats(-math.pi, math.pi)))
    return LocalMapSnapshot(timestamp, ego, cones, frozenset(observed), draw(st.sampled_from(list(MapMode))))


class TestSnapshotLogWriterMatchesJson:
    """The writer's template against ``json.dumps`` of the row dict, the encoding it replaced."""

    def test_every_line_of_a_seeded_degraded_lap(self, tmp_path):
        lap = degraded_lap_snapshots()
        assert {s.mode for s in lap} == {MapMode.FUSION, MapMode.DEGRADED}
        assert written_lines(tmp_path / "snaps.ndjson", lap) == [json_line(s) for s in lap]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(snapshot=snapshots())
    def test_random_cone_tables(self, tmp_path, snapshot):
        assert written_lines(tmp_path / "snap.ndjson", [snapshot]) == [json_line(snapshot)]


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
            ("color_weights", (("degraded", "lidar_only", math.nan),)),
        ],
    )
    def test_bad_field_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            LocalMapConfig(**{name: value})

    def test_eviction_can_be_switched_off(self):
        assert LocalMapConfig(eviction_timeout_s=None).eviction_timeout_s is None


class TestGoldenBytes:
    # sha256 of snapshots.ndjson for the lap below, recorded with the
    # per-cone (dict of ConeEstimate) filter the array filter replaced
    SNAPSHOTS_SHA256 = "1e7e7455bf6fb878584e6a7ff948eba9dc9d4ab9be735c5d18a739edcd31d066"

    def test_degraded_lap_writes_the_recorded_snapshot_log(self, tmp_path):
        # fusion fails at 3 s, so both single-sensor sources associate in
        # turn and the lidar's color evidence is weighted
        base = load_config("modes-5ms")
        config = dataclasses.replace(
            base,
            track_spec=dataclasses.replace(base.track_spec, length_m=90.0),
            mode_schedule=[{"time_s": 3.0, "fail": ["fusion"]}],
            plan_enabled=False,
        )
        run_pipeline(config, tmp_path)
        assert hashlib.sha256((tmp_path / "snapshots.ndjson").read_bytes()).hexdigest() == self.SNAPSHOTS_SHA256


# ---------------------------------------------------------------------------
# Per-cone reference: the dict-of-ConeEstimate filter the array filter
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
        cones[cid] = replace(cone, position=Gaussian2(cone.position.mean, cov))
    return replace(state, ego=ego, cones=cones, time=state.time + dt)


@dataclasses.dataclass(frozen=True)
class RefObservation:
    """One detection of the per-cone reference: a Gaussian and a color distribution."""

    position: Gaussian2
    color: np.ndarray


def ref_observations(batch):
    """A batch's rows, one :class:`RefObservation` (one ``Gaussian2``) each."""
    return [RefObservation(Gaussian2(m, c), color) for m, c, color in zip(batch.means, batch.covs, batch.colors)]


def ref_observation_to_local(ego, obs):
    mean = transform_point(ego, obs.position.mean)
    return replace(obs, position=Gaussian2(mean, rotate_covariance(ego.theta, obs.position.cov)))


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
    return replace(cone, position=Gaussian2(mean, cov))


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
        weight = config.color_weight(mode, source)
        for obs_idx, cid in pairs:
            cone = ref_update_position(cones[cid], local[obs_idx])
            evidence = cone.color_evidence + weight * local[obs_idx].color
            cones[cid] = replace(cone, color_evidence=evidence, last_seen=now)
            matched.add(cid)
            observed.add(cid)
        next_id = state.next_cone_id
        for obs_idx in new:
            o = local[obs_idx]
            cones[next_id] = ConeEstimate(next_id, o.position, weight * o.color + 1e-12, config.initial_existence, now)
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
        run = SimRun.constant_speed(track, 5.0, 10.0, seed=455)
        rng = np.random.default_rng(455)
        state, ref = LocalMapState(), RefState()
        modes = set()
        for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
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
