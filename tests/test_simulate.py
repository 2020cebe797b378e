import json
import math

import numpy as np
import pytest

from conetrack.core import ConeClass, Pose2, Velocity2, integrate_velocity
from conetrack.simulate import (
    CenterlineGeometry,
    InfeasibleTrackError,
    ScenarioDriver,
    SensorProfile,
    SimRun,
    TrackDefinition,
    TrackSpec,
    curvature_limited_speed_profile,
    default_profile,
    generate_track,
    load_track,
    noise_free_profile,
    noisy_velocity,
    observe_cones,
    save_track,
    validate_track,
)

CIRCLE_SPEC = TrackSpec(kind="circle", radius_m=30.0, cone_spacing_m=5.0)


class TestTrackGeneration:
    def test_circle_cone_count(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        expected_per_side = math.floor(2 * math.pi * 30.0 / 5.0)
        blue = [c for c in track.cones if c.color == "blue"]
        yellow = [c for c in track.cones if c.color == "yellow"]
        assert len(blue) == len(yellow) == expected_per_side
        orange = [c for c in track.cones if c.color == "orange"]
        assert len(orange) == 2

    def test_deterministic_per_seed(self):
        spec = TrackSpec(length_m=250.0)
        a = generate_track(spec, seed=42)
        b = generate_track(spec, seed=42)
        assert a.to_dict() == b.to_dict()
        c = generate_track(spec, seed=43)
        assert a.to_dict() != c.to_dict()

    def test_length_in_rule_band(self):
        track = generate_track(TrackSpec(length_m=250.0), seed=3)
        assert 200.0 <= track.total_length <= 300.0
        assert track.total_length == pytest.approx(250.0, abs=1.0)

    def test_curvature_respects_min_radius(self):
        spec = TrackSpec(length_m=250.0, min_radius_m=6.0, hairpin_count=2)
        track = generate_track(spec, seed=5)
        geom = CenterlineGeometry(track.centerline)
        for s in np.linspace(0, geom.length, 400, endpoint=False):
            kappa = abs(geom.curvature_at(s, window_m=2.0))
            assert kappa <= 1.0 / spec.min_radius_m * 1.15

    def test_infeasible_specs_rejected(self):
        with pytest.raises(InfeasibleTrackError):
            generate_track(TrackSpec(track_width_m=0.0), seed=0)
        with pytest.raises(InfeasibleTrackError):
            generate_track(TrackSpec(min_radius_m=2.0, track_width_m=4.0), seed=0)

    def test_validator_catches_wrong_side(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        cones = list(track.cones)
        bad = cones[0]
        # move a blue cone onto the right boundary
        geom = CenterlineGeometry(track.centerline)
        s = geom.nearest_arc_length(bad.position)
        p = geom.point_at(s)
        flipped = type(bad)(2 * p - bad.position, "blue")
        cones[0] = flipped
        broken = TrackDefinition(tuple(cones), track.centerline, track.total_length)
        with pytest.raises(Exception):
            validate_track(broken)

    def test_json_roundtrip(self, tmp_path):
        track = generate_track(TrackSpec(length_m=220.0), seed=9)
        path = tmp_path / "track.json"
        save_track(track, path)
        loaded = load_track(path)
        assert loaded.total_length == pytest.approx(track.total_length)
        assert np.allclose(loaded.cone_positions(), track.cone_positions())
        data = json.loads(path.read_text())
        assert "total_length_m" in data and "cones" in data


class TestSensorProfile:
    def test_step_lookup(self):
        p = default_profile("lidar_only")
        assert p.color_accuracy(np.array([1.0]))[0] == pytest.approx(0.88)
        assert p.color_accuracy(np.array([13.0]))[0] == pytest.approx(0.80)
        assert p.color_accuracy(np.array([99.0]))[0] == pytest.approx(0.80)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            SensorProfile(mode="fusion", recall_bins=((10.0, 0.9), (5.0, 0.8)))
        with pytest.raises(ValueError):
            SensorProfile(mode="fusion", recall_bins=((10.0, 1.4),))

    def test_json_roundtrip(self, tmp_path):
        from conetrack.simulate import load_profile, save_profile

        p = default_profile("camera_only")
        path = tmp_path / "prof.json"
        save_profile(p, path)
        assert load_profile(path) == p


class TestFrameSimulation:
    def test_noise_free_observations_exact(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        profile = noise_free_profile()
        pose = CenterlineGeometry(track.centerline).pose_at(0.0)
        rng = np.random.default_rng(0)
        obs = observe_cones(track, pose, profile, rng, 0.0)
        assert obs, "cones expected in the frustum at the start line"
        positions = track.cone_positions()
        for o in obs:
            world = pose.rotation() @ o.position.mean + pose.position
            dists = np.hypot(*(positions - world).T)
            assert dists.min() < 1e-9

    def test_out_of_range_cone_never_observed(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        profile = noise_free_profile(max_range_m=10.0)
        pose = Pose2(0.0, 0.0, 0.0)  # circle center: all cones ~28-32 m away
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert observe_cones(track, pose, profile, rng, 0.0) == []

    def test_recall_monte_carlo(self):
        # one cone at 10 m dead ahead, recall 0.9 configured
        track = TrackDefinition(
            (type(generate_track(CIRCLE_SPEC, 1).cones[0])(np.array([10.0, 0.0]), "blue"),),
            np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0]]),
            20.0,
        )
        profile = SensorProfile(
            mode="fusion",
            recall_bins=((15.0, 0.9),),
            false_positives_per_frame=0.0,
            sigma_base_m=0.0,
            sigma_range_coeff_m_per_m2=0.0,
        )
        rng = np.random.default_rng(123)
        pose = Pose2(0, 0, 0)
        hits = sum(bool(observe_cones(track, pose, profile, rng, 0.0)) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(0.9, abs=0.01)

    def test_position_noise_calibrated_per_bin(self):
        cones = []
        cone_cls = type(generate_track(CIRCLE_SPEC, 1).cones[0])
        for r in (3.0, 8.0, 13.0):
            cones.append(cone_cls(np.array([r, 0.0]), "blue"))
        track = TrackDefinition(tuple(cones), np.array([[0.0, 0.0], [7.0, 0.0], [14.0, 0.0]]), 21.0)
        profile = SensorProfile(
            mode="fusion",
            sigma_base_m=0.05,
            sigma_range_coeff_m_per_m2=0.001,
            recall_bins=((15.0, 1.0),),
            false_positives_per_frame=0.0,
        )
        rng = np.random.default_rng(7)
        pose = Pose2(0, 0, 0)
        errors = {r: [] for r in (3.0, 8.0, 13.0)}
        for _ in range(10_000):
            for o in observe_cones(track, pose, profile, rng, 0.0):
                r = min(errors, key=lambda rr: abs(rr - np.hypot(*o.position.mean)))
                truth = np.array([r, 0.0])
                errors[r].append(o.position.mean - truth)
        for r, errs in errors.items():
            expected = 0.05 + 0.001 * r * r
            measured = np.asarray(errs).std(axis=0)
            assert measured[0] == pytest.approx(expected, rel=0.05)
            assert measured[1] == pytest.approx(expected, rel=0.05)

    def test_color_accuracy_calibrated(self):
        cone_cls = type(generate_track(CIRCLE_SPEC, 1).cones[0])
        track = TrackDefinition(
            (cone_cls(np.array([9.0, 0.0]), "yellow"),),
            np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]]),
            15.0,
        )
        profile = SensorProfile(
            mode="fusion",
            color_accuracy_bins=((15.0, 0.85),),
            recall_bins=((15.0, 1.0),),
            false_positives_per_frame=0.0,
        )
        rng = np.random.default_rng(77)
        pose = Pose2(0, 0, 0)
        n, correct = 20_000, 0
        for _ in range(n):
            (o,) = observe_cones(track, pose, profile, rng, 0.0)
            correct += o.color.argmax_class() is ConeClass.YELLOW
        assert correct / n == pytest.approx(0.85, abs=0.02)

    def test_false_positive_rate(self):
        cone_cls = type(generate_track(CIRCLE_SPEC, 1).cones[0])
        track = TrackDefinition(
            (cone_cls(np.array([100.0, 0.0]), "blue"),),
            np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]]),
            15.0,
        )
        profile = SensorProfile(mode="fusion", false_positives_per_frame=0.5)
        rng = np.random.default_rng(5)
        pose = Pose2(0, 0, 0)
        total = sum(len(observe_cones(track, pose, profile, rng, 0.0)) for _ in range(10_000))
        assert total / 10_000 == pytest.approx(0.5, abs=0.03)



def sensor_stream(run, profile):
    """(timestamp, observations, noisy velocity) per frame of one driven lap."""
    rng = np.random.default_rng(run.seed)
    for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
        obs = observe_cones(run.track, pose, profile, rng, timestamp)
        yield timestamp, obs, noisy_velocity(vel, profile, rng)


class TestScenario:
    def test_frame_count(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=213.0 / (2 * math.pi)), seed=1)
        assert track.total_length == pytest.approx(213.0, abs=0.5)
        run = SimRun.constant_speed(track, 5.0, frame_rate_hz=10.0)
        frames = list(sensor_stream(run, noise_free_profile()))
        expected = track.total_length / (5.0 * 0.1)
        assert abs(len(frames) - expected) <= 1.0

    def test_stream_deterministic(self):
        track = generate_track(TrackSpec(length_m=210.0), seed=2)
        run = SimRun.constant_speed(track, 8.0, seed=99)
        profile = default_profile("fusion")

        def digest(frames):
            parts = []
            for timestamp, observations, velocity in frames:
                parts.append((timestamp, velocity.vx, velocity.vy, velocity.yaw_rate))
                for o in observations:
                    parts.append(tuple(o.position.mean) + tuple(o.color.as_array()))
            return parts

        assert digest(sensor_stream(run, profile)) == digest(sensor_stream(run, profile))

    def test_zero_speed_profile_rejected(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        with pytest.raises(ValueError):
            SimRun(track, (), 10.0, 0)
        with pytest.raises(ValueError):
            SimRun(track, ((0.0, 0.0),), 10.0, 0)

    def test_discrete_velocities_dead_reckon_exactly(self):
        track = generate_track(TrackSpec(length_m=205.0), seed=4)
        run = SimRun.constant_speed(track, 6.0)
        pose = None
        for timestamp, dt, true_pose, vel in ScenarioDriver(run).frames():
            pose = true_pose if pose is None else integrate_velocity(pose, vel, dt)
            assert pose.as_array()[:2] == pytest.approx(true_pose.as_array()[:2], abs=1e-9)

    def test_curvature_limited_profile_slows_in_turns(self):
        track = generate_track(TrackSpec(length_m=250.0, hairpin_count=2), seed=6)
        profile = curvature_limited_speed_profile(track, 12.0, lateral_accel_mps2=6.0)
        speeds = np.array([v for _, v in profile])
        assert speeds.max() == pytest.approx(12.0)
        assert speeds.min() < 9.0
