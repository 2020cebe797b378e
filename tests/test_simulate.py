import json
import math

import numpy as np
import pytest

from conetrack.core import ColorDistribution, ConeClass, Gaussian2, Pose2, SensorSource, Velocity2, integrate_velocity
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

    @pytest.mark.parametrize(
        "name, value",
        [
            ("mode", "radar"),
            ("max_range_m", 0.0),
            ("max_range_m", math.inf),
            ("fov_half_angle_rad", 0.0),
            ("fov_half_angle_rad", 3.5),
            ("sigma_base_m", math.nan),
            ("sigma_base_m", -0.01),
            ("sigma_range_coeff_m_per_m2", math.inf),
            ("false_positives_per_frame", -0.5),
            ("color_confidence", math.nan),
            ("velocity_sigma", (0.05, math.nan, 0.004)),
            ("velocity_sigma_per_speed", (0.004, 0.002)),
            ("recall_bins", ((math.nan, 0.9),)),
            ("recall_bins", ((0.0, 0.9),)),
            ("color_accuracy_bins", ((15.0, math.nan),)),
            ("color_accuracy_bins", ()),
        ],
    )
    def test_bad_field_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=name):
            SensorProfile(**{"mode": "fusion", name: value})

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
        assert len(obs), "cones expected in the frustum at the start line"
        positions = track.cone_positions()
        for mean in obs.means:
            world = pose.rotation() @ mean + pose.position
            dists = np.hypot(*(positions - world).T)
            assert dists.min() < 1e-9

    def test_out_of_range_cone_never_observed(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        profile = noise_free_profile(max_range_m=10.0)
        pose = Pose2(0.0, 0.0, 0.0)  # circle center: all cones ~28-32 m away
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert len(observe_cones(track, pose, profile, rng, 0.0)) == 0

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
        hits = sum(bool(len(observe_cones(track, pose, profile, rng, 0.0))) for _ in range(10_000))
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
            for mean in observe_cones(track, pose, profile, rng, 0.0).means:
                r = min(errors, key=lambda rr: abs(rr - np.hypot(*mean)))
                truth = np.array([r, 0.0])
                errors[r].append(mean - truth)
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
            (color,) = observe_cones(track, pose, profile, rng, 0.0).colors
            correct += ColorDistribution(*color).argmax_class() is ConeClass.YELLOW
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
                for mean, color in zip(observations.means, observations.colors):
                    parts.append(tuple(mean) + tuple(color))
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


# ---------------------------------------------------------------------------
# Per-detection reference: the observe_cones that built one Gaussian2 and one
# ColorDistribution per detection, kept here to pin the batch to it bit for bit

REF_CLASS_INDEX = {"blue": 0, "yellow": 1, "orange": 2, "unknown": 2}


def ref_peaked_distribution(class_idx, confidence):
    rest = (1.0 - confidence) / 2.0
    out = []
    for idx in class_idx:
        probs = [rest, rest, rest]
        probs[int(idx)] = confidence
        out.append(ColorDistribution(*probs))
    return out


def ref_observe_cones(track, true_pose, profile, rng, timestamp):
    """Returns the detections as (Gaussian2, ColorDistribution) pairs, the false-positive count and the confused count."""
    positions = track.cone_positions()
    rel = positions - true_pose.position
    c, s = math.cos(true_pose.theta), math.sin(true_pose.theta)
    body = np.column_stack([c * rel[:, 0] + s * rel[:, 1], -s * rel[:, 0] + c * rel[:, 1]])
    ranges = np.hypot(body[:, 0], body[:, 1])
    bearings = np.arctan2(body[:, 1], body[:, 0])
    in_frustum = (ranges <= profile.max_range_m) & (np.abs(bearings) <= profile.fov_half_angle_rad)

    idx = np.flatnonzero(in_frustum)
    detected = idx[rng.random(len(idx)) < profile.recall(ranges[idx])]

    obs, confused = [], 0
    if len(detected):
        r = ranges[detected]
        sigma = profile.position_sigma(r)
        noisy = body[detected] + rng.normal(size=(len(detected), 2)) * sigma[:, None]
        accuracy = profile.color_accuracy(r)
        correct = rng.random(len(detected)) < accuracy
        alt_pick = rng.integers(0, 2, size=len(detected))
        true_idx = np.array([REF_CLASS_INDEX[track.cones[i].color] for i in detected])
        sampled = true_idx.copy()
        for k in np.flatnonzero(~correct):
            others = [j for j in range(3) if j != true_idx[k]]
            sampled[k] = others[alt_pick[k]]
            confused += 1
        colors = ref_peaked_distribution(sampled, profile.color_confidence)
        for k in range(len(detected)):
            cov = (sigma[k] ** 2) * np.eye(2)
            obs.append((Gaussian2(noisy[k], cov), colors[k]))

    n_fp = int(rng.poisson(profile.false_positives_per_frame))
    if n_fp:
        fp_bearing = rng.uniform(-profile.fov_half_angle_rad, profile.fov_half_angle_rad, size=n_fp)
        fp_range = profile.max_range_m * np.sqrt(rng.random(n_fp))
        fp_body = np.column_stack([fp_range * np.cos(fp_bearing), fp_range * np.sin(fp_bearing)])
        fp_sigma = profile.position_sigma(fp_range)
        fp_class = rng.integers(0, 3, size=n_fp)
        fp_colors = ref_peaked_distribution(fp_class, profile.color_confidence)
        for k in range(n_fp):
            cov = (fp_sigma[k] ** 2) * np.eye(2)
            obs.append((Gaussian2(fp_body[k], cov), fp_colors[k]))
    return obs, n_fp, confused


class TestBatchMatchesPerDetectionReference:
    @pytest.mark.parametrize("mode", ["fusion", "lidar_only", "camera_only"])
    @pytest.mark.parametrize("make_profile", [default_profile, noise_free_profile], ids=["builtin", "noise_free"])
    def test_seeded_lap_bit_identical(self, mode, make_profile):
        profile = make_profile(mode)
        if make_profile is noise_free_profile:  # confusion and false positives on top of exact positions
            profile = SensorProfile(**{**profile.to_dict(), "color_accuracy_bins": [[15.0, 0.8]], "false_positives_per_frame": 0.3})
        track = generate_track(TrackSpec(length_m=200.0), seed=11)
        run = SimRun.constant_speed(track, 5.0, seed=11)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        false_positives = confused = 0
        for timestamp, _, pose, _ in ScenarioDriver(run).frames():
            batch = observe_cones(track, pose, profile, rng, timestamp)
            ref, n_fp, n_confused = ref_observe_cones(track, pose, profile, ref_rng, timestamp)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert (batch.source, batch.timestamp) == (SensorSource(mode), timestamp)
            assert np.array_equal(batch.means, np.array([g.mean for g, _ in ref]).reshape(-1, 2))
            assert np.array_equal(batch.covs, np.array([g.cov for g, _ in ref]).reshape(-1, 2, 2))
            assert np.array_equal(batch.colors, np.array([c.as_array() for _, c in ref]).reshape(-1, 3))
            assert not any(column.flags.writeable for column in (batch.means, batch.covs, batch.colors))
            false_positives += n_fp
            confused += n_confused
        assert false_positives > 0 and confused > 0
