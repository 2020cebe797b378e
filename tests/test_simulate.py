import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from cone_reference import ConeClass, RefGaussian, color_class
from map_reference import pose_array
from simulate_reference import (
    all_segments_nearest_arc_length,
    reference_centerline_poses,
    reference_discrete_frames,
    reference_observe_cones,
)
from conetrack.config import load_config
from conetrack.core import Pose2, SensorSource, Velocity2, integrate_velocity
from conetrack.simulate import (
    TRACK_COLORS,
    CenterlineGeometry,
    MAX_TRACK_SAMPLES,
    InfeasibleTrackError,
    SensorProfile,
    TrackDefinition,
    TrackSpec,
    TrackValidationError,
    _periodic_spline,
    _periodic_spline_derivatives,
    centerline_poses,
    curvature_limited_speed_profile,
    default_profile,
    discrete_frames,
    generate_track,
    load_track,
    noise_free_profile,
    noisy_velocity,
    observe_cones,
    save_track,
    speed_lookup,
    validate_spec,
    validate_track,
)

CIRCLE_SPEC = TrackSpec(kind="circle", radius_m=30.0, cone_spacing_m=5.0)


def one_color_track(points, color, centerline, length):
    """A track whose cones at ``points`` all have the colour named ``color``."""
    return TrackDefinition(points, [TRACK_COLORS.index(color)] * len(points), centerline, length)


class TestTrackGeneration:
    def test_circle_cone_count(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        expected_per_side = math.floor(2 * math.pi * 30.0 / 5.0)
        names = [TRACK_COLORS[code] for code in track.colors.tolist()]
        assert names.count("blue") == names.count("yellow") == expected_per_side
        assert names.count("orange") == 2

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

    def test_sample_and_station_counts_capped(self):
        # at the cap a spec passes; one sample or station over it is rejected naming both fields
        validate_spec(TrackSpec(length_m=MAX_TRACK_SAMPLES * 0.5, cone_spacing_m=0.5))
        for over, fields in (
            (TrackSpec(length_m=(MAX_TRACK_SAMPLES + 1) * 0.5), "length_m 5000.5 and centerline_resolution_m 0.5"),
            (TrackSpec(length_m=1000.0, cone_spacing_m=1000.0 / (MAX_TRACK_SAMPLES + 1)), "length_m 1000.0 and cone_spacing_m"),
            (TrackSpec(kind="circle", radius_m=1e300), "radius_m 1e+300 and centerline_resolution_m 0.5"),
        ):
            with pytest.raises(InfeasibleTrackError, match=re.escape(fields)):
                validate_spec(over)

    def test_validator_catches_wrong_side(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        positions = np.array(track.positions)
        assert TRACK_COLORS[track.colors[0]] == "blue"
        # move a blue cone onto the right boundary
        geom = CenterlineGeometry(track.centerline)
        s = geom.nearest_arc_length(positions[0])
        positions[0] = 2 * geom.point_at(s) - positions[0]
        broken = TrackDefinition(positions, track.colors, track.centerline, track.total_length)
        with pytest.raises(Exception):
            validate_track(broken)

    def test_validator_names_an_empty_side_or_a_repeated_centerline_point(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        no_yellow = track.colors != TRACK_COLORS.index("yellow")
        line = track.centerline
        broken = {
            "right side has no cones": (track.positions[no_yellow], track.colors[no_yellow], line),
            "left side has no cones": (np.empty((0, 2)), [], line),
            "centerline has repeated points": (track.positions, track.colors, np.insert(line, 1, line[1], axis=0)),
        }
        for message, (positions, colors, centerline) in broken.items():
            with pytest.raises(TrackValidationError, match=message):
                validate_track(TrackDefinition(positions, colors, centerline, track.total_length))

    def test_json_roundtrip(self, tmp_path):
        track = generate_track(TrackSpec(length_m=220.0), seed=9)
        path, again = tmp_path / "track.json", tmp_path / "again.json"
        save_track(track, path)
        loaded = load_track(path)
        save_track(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert loaded.total_length == track.total_length
        assert np.array_equal(loaded.positions, track.positions)
        assert np.array_equal(loaded.colors, track.colors)
        for arrays in ((track.positions, track.colors), (loaded.positions, loaded.colors)):
            assert not any(a.flags.writeable for a in arrays)
        data = json.loads(path.read_text())
        assert "total_length_m" in data and "cones" in data


class TestGoldenBytes:
    """``save_track`` of each builtin config's track, and of a 500 m loop, keeps its bytes."""

    DIGESTS = {
        "fsg-like-5ms": "3da60b16be0279a101b119c74768db5fea70a33c6feaecd1fe5ad3c3a985f7a5",
        "fsg-like-12ms": "3da60b16be0279a101b119c74768db5fea70a33c6feaecd1fe5ad3c3a985f7a5",
        "modes-5ms": "2715e1b5da95521b9d5c0ff8eeb9f3d253211507602742ef98e2c90c01be3c5a",
        "noise-free-circle": "84e96cded7c6ab8d04bee9f844a692372215fcea0c4ba297194110ec6281671f",
        "planning-15m": "f948b0c186503a4cb45878b9de2ad6f3d2e4f7be1c67d6f1b04a202251e38273",
        # fsg-like-5ms's spec and seed, stretched to 500 m
        "fsg-like-5ms-500m": "d170c1690956ace78fc8734b4c19cc67a63b36cc6e3f6aefa695c750501ca0dc",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_track_file_digest(self, name, tmp_path):
        config = load_config(name.removesuffix("-500m"))
        spec = dataclasses.replace(config.track_spec, length_m=500.0) if name.endswith("-500m") else config.track_spec
        path = tmp_path / "track.json"
        save_track(generate_track(spec, config.seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[name]


@st.composite
def radial_control_points(draw) -> np.ndarray:
    """Loop-generator radii: 6-40 control points around a 1-1000 m scale, with variation and hairpin bumps."""
    n = draw(st.integers(6, 40))
    scale = draw(st.floats(1.0, 1000.0))
    variation = draw(st.floats(0.0, 0.5))
    raw = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    hairpins = draw(st.lists(st.integers(0, n - 1), max_size=n // 3, unique=True))
    radii = scale * (1.0 + variation * raw)
    radii[hairpins] *= 1.0 + draw(st.floats(0.0, 1.0))
    return radii


class TestPeriodicSpline:
    """The loop generator's radius spline is scipy's periodic ``CubicSpline``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(radial_control_points())
    def test_matches_scipy_bit_for_bit(self, radii):
        phi = np.concatenate([np.linspace(0.0, 2 * math.pi, len(radii), endpoint=False), [2 * math.pi]])
        r = np.concatenate([radii, [radii[0]]])
        dense_phi = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        reference = CubicSpline(phi, r, bc_type="periodic")
        coeffs = _periodic_spline(phi, r)
        assert np.array_equal(coeffs, reference.c)
        for order, values in enumerate(_periodic_spline_derivatives(phi, coeffs, dense_phi)):
            assert np.array_equal(values, reference(dense_phi, order)), order


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
        from conetrack.simulate import load_profile

        p = default_profile("camera_only")
        path = tmp_path / "prof.json"
        path.write_text(json.dumps(dataclasses.asdict(p)))
        assert load_profile(path) == p


class TestFrameSimulation:
    def test_noise_free_observations_exact(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        profile = noise_free_profile()
        pose = CenterlineGeometry(track.centerline).pose_at(0.0)
        rng = np.random.default_rng(0)
        obs = observe_cones(track, pose, profile, rng, 0.0)
        assert len(obs), "cones expected in the frustum at the start line"
        positions = track.positions
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
        track = one_color_track(
            np.array([[10.0, 0.0]]), "blue", np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0]]), 20.0
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
        points = np.array([[r, 0.0] for r in (3.0, 8.0, 13.0)])
        track = one_color_track(points, "blue", np.array([[0.0, 0.0], [7.0, 0.0], [14.0, 0.0]]), 21.0)
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
        track = one_color_track(np.array([[9.0, 0.0]]), "yellow", np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]]), 15.0)
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
            correct += color_class(color) is ConeClass.YELLOW
        assert correct / n == pytest.approx(0.85, abs=0.02)

    def test_false_positive_rate(self):
        track = one_color_track(np.array([[100.0, 0.0]]), "blue", np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]]), 15.0)
        profile = SensorProfile(mode="fusion", false_positives_per_frame=0.5)
        rng = np.random.default_rng(5)
        pose = Pose2(0, 0, 0)
        total = sum(len(observe_cones(track, pose, profile, rng, 0.0)) for _ in range(10_000))
        assert total / 10_000 == pytest.approx(0.5, abs=0.03)



def sensor_stream(track, speed_profile, profile, seed=0):
    """(timestamp, observations, noisy velocity) per frame of one lap driven at 10 Hz, from an rng seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    poses = centerline_poses(CenterlineGeometry(track.centerline), speed_profile, 0.1)
    for timestamp, dt, pose, vel in discrete_frames(poses, 0.1):
        obs = observe_cones(track, pose, profile, rng, timestamp)
        yield timestamp, obs, noisy_velocity(vel, profile, rng)


class TestScenario:
    def test_frame_count(self):
        track = generate_track(TrackSpec(kind="circle", radius_m=213.0 / (2 * math.pi)), seed=1)
        assert track.total_length == pytest.approx(213.0, abs=0.5)
        frames = list(sensor_stream(track, ((0.0, 5.0),), noise_free_profile()))
        expected = track.total_length / (5.0 * 0.1)
        assert abs(len(frames) - expected) <= 1.0

    def test_stream_deterministic(self):
        track = generate_track(TrackSpec(length_m=210.0), seed=2)
        profile = default_profile("fusion")

        def digest(frames):
            parts = []
            for timestamp, observations, velocity in frames:
                parts.append((timestamp, velocity.vx, velocity.vy, velocity.yaw_rate))
                for mean, color in zip(observations.means, observations.colors):
                    parts.append(tuple(mean) + tuple(color))
            return parts

        first, second = (digest(sensor_stream(track, ((0.0, 8.0),), profile, 99)) for _ in range(2))
        assert first == second

    def test_discrete_velocities_dead_reckon_exactly(self):
        track = generate_track(TrackSpec(length_m=205.0), seed=4)
        pose = None
        poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 6.0),), 0.1)
        for timestamp, dt, true_pose, vel in discrete_frames(poses, 0.1):
            pose = true_pose if pose is None else integrate_velocity(pose, vel, dt)
            assert pose_array(pose)[:2] == pytest.approx(pose_array(true_pose)[:2], abs=1e-9)

    def test_curvature_limited_profile_slows_in_turns(self):
        track = generate_track(TrackSpec(length_m=250.0, hairpin_count=2), seed=6)
        profile = curvature_limited_speed_profile(track, 12.0, lateral_accel_mps2=6.0)
        speeds = np.array([v for _, v in profile])
        assert speeds.max() == pytest.approx(12.0)
        assert speeds.min() < 9.0

    def test_profile_never_exceeds_a_max_speed_below_the_floor(self):
        track = generate_track(TrackSpec(length_m=250.0, hairpin_count=2), seed=6)
        profile = curvature_limited_speed_profile(track, 0.5)
        assert profile and all(0.0 < v <= 0.5 for _, v in profile)

    def test_profile_floors_at_one_mps_below_a_higher_max_speed(self):
        # a 0.05 m/s^2 lateral limit would cap every turn well under 1 m/s
        track = generate_track(TrackSpec(length_m=250.0, hairpin_count=2), seed=6)
        speeds = [v for _, v in curvature_limited_speed_profile(track, 12.0, lateral_accel_mps2=0.05)]
        assert min(speeds) == 1.0
        assert max(speeds) == pytest.approx(12.0)

    def test_speed_lookup_interpolates_and_holds_the_ends(self):
        speed_at = speed_lookup(((10.0, 2.0), (20.0, 6.0), (40.0, 4.0)))
        assert [speed_at(s) for s in (0.0, 10.0, 15.0, 20.0, 30.0, 40.0, 99.0)] == pytest.approx(
            [2.0, 2.0, 4.0, 6.0, 5.0, 4.0, 4.0]
        )
        assert isinstance(speed_at(15.0), float)

    def test_centerline_poses_step_at_the_profile_speed(self):
        track = generate_track(CIRCLE_SPEC, seed=1)
        geom = CenterlineGeometry(track.centerline)
        speed_profile = ((0.0, 2.0), (60.0, 12.0), (120.0, 4.0))
        arcs = [geom.nearest_arc_length(pose.position) for pose in centerline_poses(geom, speed_profile, 0.1)]
        expected = np.interp(arcs[:-1], [s for s, _ in speed_profile], [v for _, v in speed_profile]) * 0.1
        assert np.diff(arcs) == pytest.approx(expected, abs=1e-9)
        assert arcs[-1] < geom.length <= arcs[-1] + 4.0 * 0.1


# ---------------------------------------------------------------------------
# Per-detection reference: the observe_cones that built one Gaussian and one
# colour distribution per detection, kept here to pin the batch to it bit for bit

REF_CLASS_INDEX = {"blue": 0, "yellow": 1, "orange": 2, "unknown": 2}


def ref_peaked_distribution(class_idx, confidence):
    rest = (1.0 - confidence) / 2.0
    out = []
    for idx in class_idx:
        probs = [rest, rest, rest]
        probs[int(idx)] = confidence
        out.append(np.array(probs))
    return out


def ref_observe_cones(track, true_pose, profile, rng, timestamp):
    """Returns the detections as (RefGaussian, probabilities) pairs, the false-positive count and the confused count."""
    positions = track.positions
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
        true_idx = np.array([REF_CLASS_INDEX[TRACK_COLORS[track.colors[i]]] for i in detected])
        sampled = true_idx.copy()
        for k in np.flatnonzero(~correct):
            others = [j for j in range(3) if j != true_idx[k]]
            sampled[k] = others[alt_pick[k]]
            confused += 1
        colors = ref_peaked_distribution(sampled, profile.color_confidence)
        for k in range(len(detected)):
            cov = (sigma[k] ** 2) * np.eye(2)
            obs.append((RefGaussian(noisy[k], cov), colors[k]))

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
            obs.append((RefGaussian(fp_body[k], cov), fp_colors[k]))
    return obs, n_fp, confused


class TestBatchMatchesPerDetectionReference:
    @pytest.mark.parametrize("mode", ["fusion", "lidar_only", "camera_only"])
    @pytest.mark.parametrize("make_profile", [default_profile, noise_free_profile], ids=["builtin", "noise_free"])
    def test_seeded_lap_bit_identical(self, mode, make_profile):
        profile = make_profile(mode)
        if make_profile is noise_free_profile:  # confusion and false positives on top of exact positions
            profile = SensorProfile(**{**dataclasses.asdict(profile), "color_accuracy_bins": [[15.0, 0.8]], "false_positives_per_frame": 0.3})
        track = generate_track(TrackSpec(length_m=200.0), seed=11)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        false_positives = confused = 0
        poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 5.0),), 0.1)
        for timestamp, _, pose, _ in discrete_frames(poses, 0.1):
            batch = observe_cones(track, pose, profile, rng, timestamp)
            ref, n_fp, n_confused = ref_observe_cones(track, pose, profile, ref_rng, timestamp)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert (batch.source, batch.timestamp) == (SensorSource(mode), timestamp)
            assert np.array_equal(batch.means, np.array([g.mean for g, _ in ref]).reshape(-1, 2))
            assert np.array_equal(batch.covs, np.array([g.cov for g, _ in ref]).reshape(-1, 2, 2))
            assert np.array_equal(batch.colors, np.array([c for _, c in ref]).reshape(-1, 3))
            assert not any(column.flags.writeable for column in (batch.means, batch.covs, batch.colors))
            false_positives += n_fp
            confused += n_confused
        assert false_positives > 0 and confused > 0


BUILTINS = ("fsg-like-12ms", "fsg-like-5ms", "modes-5ms", "noise-free-circle", "planning-15m")


def closed_loop(points) -> list[tuple[float, float]]:
    """``points`` without consecutive repeats, the last not repeating the first."""
    out = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    while len(out) > 1 and out[-1] == out[0]:
        out.pop()
    return out


@st.composite
def lattice_loops(draw):
    """A closed polyline through integer points (crossing itself or doubling back as it may), scaled by a
    power of two, and query points on its half-unit lattice: the arithmetic is exact, so equal distances
    to two segments (ties) are common."""
    scale = 2.0 ** draw(st.integers(-3, 4))
    corners = closed_loop(draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=12)))
    assume(len(corners) >= 3)
    queries = draw(st.lists(st.tuples(st.integers(-16, 16), st.integers(-16, 16)), min_size=1, max_size=40))
    line = scale * np.array(corners, float)
    return line, np.vstack([line, 0.5 * scale * np.array(queries, float)])


@st.composite
def paperclip_loops(draw):
    """Two long strands ``gap`` apart, joined at both ends, in many segments; query points between and
    around the strands, on the vertices and on the midline, equidistant from both."""
    gap = draw(st.sampled_from([1e-9, 1e-4, 0.01, 0.3, 1.0, 2.0, 5.0]))
    length = draw(st.sampled_from([8.0, 40.0, 100.0]))
    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    xs = np.arange(0.0, length + step / 2, step)
    line = np.vstack([np.column_stack([xs, np.zeros_like(xs)]), np.column_stack([xs[::-1], np.full_like(xs, gap)])])
    along = st.floats(-3.0, length + 3.0, allow_nan=False)
    queries = draw(st.lists(st.tuples(along, st.floats(-3.0, gap + 3.0, allow_nan=False)), max_size=20))
    midline = draw(st.lists(st.integers(0, 2 * len(xs)).map(lambda k: (0.5 * step * k, 0.5 * gap)), max_size=10))
    return line, np.array([*queries, *midline, *line.tolist()], float).reshape(-1, 2)


@st.composite
def wandering_loops(draw):
    """A random closed polyline with segments from 1 mm to 50 m, and query points near and far from it."""
    steps = draw(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)), min_size=3, max_size=30))
    line = np.cumsum(np.array(steps), axis=0)
    assume(len(closed_loop([tuple(p) for p in line.tolist()])) == len(line))
    assume(np.all(np.hypot(*np.diff(np.vstack([line, line[:1]]), axis=0).T) > 1e-3))
    offsets = draw(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), max_size=20))
    picks = draw(st.lists(st.integers(0, len(line) - 1), min_size=len(offsets), max_size=len(offsets)))
    far = draw(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), max_size=4))
    near = line[picks] + np.array(offsets).reshape(-1, 2)
    return line, np.vstack([line, near, np.array(far, float).reshape(-1, 2)])


class TestGridProjectionMatchesAllSegments:
    """``nearest_arc_lengths`` against the projection that scans every segment, bit for bit."""

    @staticmethod
    def check(centerline, points):
        geom = CenterlineGeometry(centerline)
        points = np.asarray(points, float).reshape(-1, 2)
        expected = np.array([all_segments_nearest_arc_length(geom, p) for p in points])
        assert geom.nearest_arc_lengths(points).tobytes() == expected.tobytes()
        return geom, expected

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_tracks(self, name):
        config = load_config(name)
        track = generate_track(config.track_spec, config.seed)
        line = track.centerline
        near = line + np.random.default_rng(3).normal(scale=3.0, size=line.shape)
        midpoints = 0.5 * (line + np.roll(line, -1, axis=0))
        geom, expected = self.check(line, np.vstack([track.positions, line, midpoints, near]))
        assert [geom.nearest_arc_length(p) for p in track.positions] == expected[: len(track.positions)].tolist()

    def test_one_km_track_at_half_metre_spacing(self):
        spec = dataclasses.replace(load_config("fsg-like-5ms").track_spec, length_m=1000.0, cone_spacing_m=0.5)
        track = generate_track(spec, 808)
        assert len(track.positions) == 4000  # 1,999 stations and the two start-line cones
        self.check(track.centerline, track.positions)

    @settings(max_examples=200, deadline=None)
    @given(lattice_loops())
    @example((np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [0.0, 2.0]]), np.array([[2.0, 1.0], [4.0, 1.0], [2.0, 5.0]])))
    def test_lattice_loops_and_ties(self, loop):
        self.check(*loop)

    @settings(max_examples=150, deadline=None)
    @given(paperclip_loops())
    def test_tracks_passing_close_to_themselves(self, loop):
        self.check(*loop)

    @settings(max_examples=150, deadline=None)
    @given(wandering_loops())
    def test_wandering_loops_near_and_far(self, loop):
        self.check(*loop)

    def test_points_far_off_the_grid(self):
        line = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 5.0], [0.0, 5.0]])
        self.check(line, [[1e6, 1e6], [-1e7, 2.5], [5.0, -1e5]])
        with np.errstate(over="ignore"):  # every squared distance overflows: the first segment, as argmin takes it
            self.check(line, [[1e300, -1e300]])

    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_a_point_that_is_not_finite_is_rejected(self, point):
        with pytest.raises(ValueError, match="cannot project"):
            CenterlineGeometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])).nearest_arc_lengths(np.array([point]))


class TestFloatDriverMatchesSearchsorted:
    """The ground-truth driver's float lookups give the poses and velocities of ``np.searchsorted`` and numpy rows."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_every_builtin_speed_profile(self, name):
        config = load_config(name)
        track = generate_track(config.track_spec, config.seed)
        geom = CenterlineGeometry(track.centerline)
        profile = curvature_limited_speed_profile(track, config.max_speed_mps, config.lateral_accel_mps2)
        dt = 1.0 / config.frame_rate_hz
        mine = list(discrete_frames(centerline_poses(geom, profile, dt), dt))
        theirs = list(reference_discrete_frames(reference_centerline_poses(geom, profile, dt), dt))
        assert len(mine) == len(theirs) > 100

        def values(frame):
            t, step, pose, vel = frame
            return [float(v).hex() for v in (t, step, pose.x, pose.y, pose.theta, vel.vx, vel.vy, vel.yaw_rate)]

        assert [values(frame) for frame in mine] == [values(frame) for frame in theirs]


MANY_BINS = SensorProfile(
    mode="camera_only",
    max_range_m=16.0,
    recall_bins=((2.0, 0.9), (4.0, 0.99), (6.0, 0.7), (9.0, 0.85), (12.0, 0.5), (14.0, 0.95)),
    color_accuracy_bins=((3.0, 0.6), (5.0, 0.9), (8.0, 0.75), (11.0, 0.95), (13.0, 0.8)),
    false_positives_per_frame=1.5,
)


class TestObserveConesMatchesRebuiltTables:
    """``observe_cones`` against the form that rebuilt its step tables and stacked every cone's body-frame point."""

    @pytest.mark.parametrize(
        "profile",
        [
            default_profile("fusion"),
            default_profile("lidar_only"),
            default_profile("camera_only"),
            MANY_BINS,
            dataclasses.replace(default_profile("lidar_only"), false_positives_per_frame=3.0, fov_half_angle_rad=math.pi),
        ],
        ids=["fusion", "lidar_only", "camera_only", "many_bins", "all_round_false_positives"],
    )
    def test_seeded_frames(self, profile):
        track = generate_track(TrackSpec(length_m=200.0), seed=11)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        detections = 0
        poses = centerline_poses(CenterlineGeometry(track.centerline), ((0.0, 6.0),), 0.1)
        for timestamp, _, pose, _ in discrete_frames(poses, 0.1):
            batch = observe_cones(track, pose, profile, rng, timestamp)
            ref = reference_observe_cones(track, pose, profile, ref_rng, timestamp)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert (batch.source, batch.timestamp) == (ref.source, ref.timestamp)
            for name in ("means", "covs", "colors"):
                mine, theirs = getattr(batch, name), getattr(ref, name)
                assert (mine.shape, mine.tobytes()) == (theirs.shape, theirs.tobytes()), name
            detections += len(batch)
        assert detections > 500
