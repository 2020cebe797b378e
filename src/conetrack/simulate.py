"""Synthetic track and sensor front end.

Generates closed-loop test tracks and per-frame cone observations with
distance-dependent position noise, range-dependent color confusion, detection
dropouts, and false positives. The stream stands in for the real perception
pipelines so the mapping and planning stages can be exercised at desk scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .core import (
    COV_EIGENVALUE_FLOOR,
    ObservationBatch,
    Pose2,
    SensorSource,
    Velocity2,
    check_range,
    is_finite_number,
    normalize_angle,
)

TRACK_SCHEMA_VERSION = 1


class InfeasibleTrackError(ValueError):
    """Raised when a track spec cannot be realized within its own limits."""


class TrackValidationError(ValueError):
    """Raised when a generated or loaded track violates the rule limits."""


@dataclass(frozen=True)
class TrackCone:
    position: np.ndarray  # world frame, meters
    color: str  # "blue" | "yellow" | "orange"

    def __post_init__(self) -> None:
        pos = np.array(self.position, dtype=float).reshape(2)
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        if self.color not in ("blue", "yellow", "orange"):
            raise ValueError(f"unknown cone color {self.color!r}")


@dataclass(frozen=True)
class TrackLimits:
    """Rule-like bounds the generator and validator enforce (configurable)."""

    min_width_m: float = 3.0
    max_width_m: float = 5.0
    # same-side spacing is measured as arc distance along the centerline
    # between consecutive cone projections
    max_same_side_spacing_m: float = 5.0
    # evenly redistributing floor(L / spacing) stations can stretch gaps
    # slightly past nominal; the validator allows this much slack
    spacing_slack_m: float = 0.5


@dataclass(frozen=True)
class TrackDefinition:
    """Ground-truth track: cones, centerline polyline, and loop length."""

    cones: tuple[TrackCone, ...]
    centerline: np.ndarray  # (K, 2), closed loop, last point != first
    total_length: float

    def __post_init__(self) -> None:
        line = np.array(self.centerline, dtype=float)
        line.setflags(write=False)
        object.__setattr__(self, "centerline", line)
        object.__setattr__(self, "cones", tuple(self.cones))
        positions = np.array([c.position for c in self.cones], dtype=float).reshape(-1, 2)
        positions.setflags(write=False)
        object.__setattr__(self, "_positions", positions)

    def cone_positions(self) -> np.ndarray:
        """(n, 2) world positions, one row per cone; read-only, computed once."""
        return self._positions

    def to_dict(self) -> dict:
        return {
            "schema_version": TRACK_SCHEMA_VERSION,
            "total_length_m": self.total_length,
            "cones": [
                {"x_m": float(c.position[0]), "y_m": float(c.position[1]), "color": c.color}
                for c in self.cones
            ],
            "centerline_m": [[float(x), float(y)] for x, y in self.centerline],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrackDefinition":
        """Parse a track document; a missing or mistyped field raises :class:`TrackValidationError` naming it."""
        if not isinstance(data, dict):
            raise TrackValidationError("a track must be a JSON object")
        for key in ("cones", "centerline_m", "total_length_m"):
            if key not in data:
                raise TrackValidationError(f"track field {key!r} is missing")
        if not isinstance(data["cones"], list):
            raise TrackValidationError("track field 'cones' needs a list of cones")
        cones = []
        for k, c in enumerate(data["cones"]):
            if not isinstance(c, dict) or not (is_finite_number(c.get("x_m")) and is_finite_number(c.get("y_m"))):
                raise TrackValidationError(f"track field 'cones' item {k} needs numeric x_m and y_m: {c!r}")
            try:
                cones.append(TrackCone(np.array([c["x_m"], c["y_m"]], dtype=float), c.get("color")))
            except ValueError as exc:
                raise TrackValidationError(f"track field 'cones' item {k}: {exc}") from exc
        line = data["centerline_m"]
        if not (
            isinstance(line, list) and len(line) >= 3
            and all(isinstance(p, list) and len(p) == 2 and all(map(is_finite_number, p)) for p in line)
        ):
            raise TrackValidationError("track field 'centerline_m' needs a list of at least 3 [x, y] number pairs")
        length = data["total_length_m"]
        if not (is_finite_number(length) and length > 0):
            raise TrackValidationError(f"track field 'total_length_m' needs a positive number, got {length!r}")
        return cls(tuple(cones), np.array(line, dtype=float), float(length))


def save_track(track: TrackDefinition, path: Path | str) -> None:
    Path(path).write_text(json.dumps(track.to_dict(), indent=None, sort_keys=True))


def load_track(path: Path | str) -> TrackDefinition:
    return TrackDefinition.from_dict(json.loads(Path(path).read_text()))


class CenterlineGeometry:
    """Arc-length lookup (point, tangent, heading, curvature) on a closed centerline."""

    def __init__(self, centerline: np.ndarray):
        pts = np.asarray(centerline, dtype=float)
        closed = np.vstack([pts, pts[:1]])
        seg = np.diff(closed, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seg_len <= 0):
            raise ValueError("centerline has repeated points")
        self.points = pts
        self.cum_s = np.concatenate([[0.0], np.cumsum(seg_len)])
        self.length = float(self.cum_s[-1])
        self._seg = seg
        self._seg_len = seg_len

    def point_at(self, s: float) -> np.ndarray:
        s = s % self.length
        i = int(np.searchsorted(self.cum_s, s, side="right") - 1)
        i = min(i, len(self._seg) - 1)
        t = (s - self.cum_s[i]) / self._seg_len[i]
        base = self.points[i] if i < len(self.points) else self.points[0]
        return base + t * self._seg[i]

    def heading_at(self, s: float) -> float:
        s = s % self.length
        i = int(np.searchsorted(self.cum_s, s, side="right") - 1)
        i = min(i, len(self._seg) - 1)
        return math.atan2(self._seg[i, 1], self._seg[i, 0])

    def pose_at(self, s: float) -> Pose2:
        p = self.point_at(s)
        return Pose2(p[0], p[1], self.heading_at(s))

    def curvature_at(self, s: float, window_m: float = 2.0) -> float:
        # chord headings through interpolated points; immune to the
        # segment quantization of heading_at
        p0 = self.point_at(s - window_m / 2)
        p1 = self.point_at(s)
        p2 = self.point_at(s + window_m / 2)
        h1 = math.atan2(p1[1] - p0[1], p1[0] - p0[0])
        h2 = math.atan2(p2[1] - p1[1], p2[0] - p1[0])
        span = 0.5 * (np.hypot(*(p1 - p0)) + np.hypot(*(p2 - p1)))
        return normalize_angle(h2 - h1) / max(span, 1e-9)

    def nearest_arc_length(self, point: np.ndarray) -> float:
        """Arc length of the exact orthogonal projection onto the polyline."""
        p = np.asarray(point, dtype=float)
        rel = p - self.points
        t = np.clip(
            (rel[:, 0] * self._seg[:, 0] + rel[:, 1] * self._seg[:, 1]) / self._seg_len**2, 0.0, 1.0
        )
        foot = self.points + t[:, None] * self._seg
        d2 = np.sum((p - foot) ** 2, axis=1)
        i = int(np.argmin(d2))
        return float(self.cum_s[i] + t[i] * self._seg_len[i])


@dataclass(frozen=True)
class TrackSpec:
    """Parameters for the track generator.

    ``kind`` selects a plain circle or a randomized closed loop built from a
    periodic radial spline whose bumps create tight, near-minimum-radius
    turns (the "hairpin" segments).
    """

    kind: str = "loop"  # "loop" | "circle"
    length_m: float = 250.0
    radius_m: float = 30.0  # circle kind only
    track_width_m: float = 4.0
    cone_spacing_m: float = 5.0
    min_radius_m: float = 6.0
    hairpin_count: int = 2
    control_points: int = 12
    radial_variation: float = 0.22
    hairpin_depth: float = 0.45
    centerline_resolution_m: float = 0.5

    @classmethod
    def from_dict(cls, data: dict) -> "TrackSpec":
        return cls(**data)


def validate_spec(spec: TrackSpec, limits: TrackLimits = TrackLimits()) -> None:
    if not limits.min_width_m <= spec.track_width_m <= limits.max_width_m:
        raise InfeasibleTrackError(
            f"track width {spec.track_width_m} m outside [{limits.min_width_m}, {limits.max_width_m}]"
        )
    if spec.cone_spacing_m <= 0 or spec.cone_spacing_m > limits.max_same_side_spacing_m:
        raise InfeasibleTrackError(f"cone spacing {spec.cone_spacing_m} m outside (0, {limits.max_same_side_spacing_m}]")
    if spec.min_radius_m < spec.track_width_m:
        raise InfeasibleTrackError(
            f"minimum radius {spec.min_radius_m} m too small for width {spec.track_width_m} m"
        )
    if spec.kind not in ("loop", "circle"):
        raise InfeasibleTrackError(f"unknown track kind {spec.kind!r}")
    if spec.kind == "circle" and spec.radius_m < spec.min_radius_m:
        raise InfeasibleTrackError("circle radius below minimum radius")
    if spec.kind == "loop" and spec.control_points < 6:
        raise InfeasibleTrackError("loop generator needs at least 6 control points")


def validate_track(track: TrackDefinition, limits: TrackLimits = TrackLimits()) -> None:
    """Check side assignment, spacing, and width against the rule limits."""
    geom = CenterlineGeometry(track.centerline)
    sides: dict[str, list[tuple[float, np.ndarray]]] = {"left": [], "right": []}
    for cone in track.cones:
        s = geom.nearest_arc_length(cone.position)
        p = geom.point_at(s)
        heading = geom.heading_at(s)
        tangent = np.array([math.cos(heading), math.sin(heading)])
        off = cone.position - p
        cross = tangent[0] * off[1] - tangent[1] * off[0]
        side = "left" if cross > 0 else "right"
        lateral = abs(cross)
        half_min, half_max = limits.min_width_m / 2, limits.max_width_m / 2
        if not half_min - 0.3 <= lateral <= half_max + 0.3:
            raise TrackValidationError(
                f"cone at {cone.position} sits {lateral:.2f} m off the centerline"
            )
        if cone.color == "blue" and side != "left":
            raise TrackValidationError(f"blue cone at {cone.position} is on the right side")
        if cone.color == "yellow" and side != "right":
            raise TrackValidationError(f"yellow cone at {cone.position} is on the left side")
        if cone.color != "orange":
            sides[side].append((s, cone.position))
    max_gap = limits.max_same_side_spacing_m + limits.spacing_slack_m
    for side, entries in sides.items():
        entries.sort(key=lambda e: e[0])
        arcs = np.array([e[0] for e in entries])
        gaps = np.diff(np.concatenate([arcs, [arcs[0] + geom.length]]))
        if gaps.max() > max_gap + 1e-9:
            raise TrackValidationError(
                f"{side} side has a {gaps.max():.2f} m gap (limit {max_gap:.2f} m)"
            )


def _loop_centerline(spec: TrackSpec, seed: int) -> np.ndarray:
    """Closed centerline from a periodic radial spline, scaled to length."""
    rng = np.random.default_rng(seed)
    n = spec.control_points
    base_radius = spec.length_m / (2 * math.pi)
    variation = spec.radial_variation
    depth = spec.hairpin_depth

    angles = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    raw = rng.uniform(-1.0, 1.0, size=n)
    hairpin_idx = rng.choice(n, size=min(spec.hairpin_count, n // 3), replace=False) if spec.hairpin_count else np.array([], dtype=int)

    for attempt in range(20):
        radii = base_radius * (1.0 + variation * raw)
        # narrow radial bumps create out-and-back turns near the minimum radius
        radii = radii.copy()
        radii[hairpin_idx] *= 1.0 + depth
        phi = np.concatenate([angles, [2 * math.pi]])
        r = np.concatenate([radii, [radii[0]]])
        spline = CubicSpline(phi, r, bc_type="periodic")

        dense_phi = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        rr = spline(dense_phi)
        if np.any(rr <= spec.track_width_m):
            variation *= 0.8
            depth *= 0.85
            continue
        pts = np.column_stack([rr * np.cos(dense_phi), rr * np.sin(dense_phi)])
        seg = np.diff(np.vstack([pts, pts[:1]]), axis=0)
        length = float(np.hypot(seg[:, 0], seg[:, 1]).sum())
        scale = spec.length_m / length
        rr_scaled = rr * scale
        # curvature of a polar curve; scaling by c scales radii of curvature by c
        dr = spline(dense_phi, 1) * scale
        ddr = spline(dense_phi, 2) * scale
        denom = (rr_scaled**2 + dr**2) ** 1.5
        kappa = np.abs(rr_scaled**2 + 2 * dr**2 - rr_scaled * ddr) / denom
        if kappa.max() > 1.0 / spec.min_radius_m:
            variation *= 0.8
            depth *= 0.85
            continue
        pts_scaled = pts * scale
        # resample uniformly in arc length
        seg = np.diff(np.vstack([pts_scaled, pts_scaled[:1]]), axis=0)
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
        total = cum[-1]
        n_samples = max(int(round(total / spec.centerline_resolution_m)), 32)
        targets = np.linspace(0.0, total, n_samples, endpoint=False)
        closed = np.vstack([pts_scaled, pts_scaled[:1]])
        out = np.column_stack(
            [np.interp(targets, cum, closed[:, 0]), np.interp(targets, cum, closed[:, 1])]
        )
        return out
    raise InfeasibleTrackError(
        f"could not satisfy min radius {spec.min_radius_m} m for length {spec.length_m} m"
    )


def _circle_centerline(spec: TrackSpec) -> np.ndarray:
    n = max(int(round(2 * math.pi * spec.radius_m / spec.centerline_resolution_m)), 32)
    phi = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return np.column_stack([spec.radius_m * np.cos(phi), spec.radius_m * np.sin(phi)])


def generate_track(
    spec: TrackSpec, seed: int, limits: TrackLimits = TrackLimits()
) -> TrackDefinition:
    """Build a closed rule-conforming track; deterministic for a given seed."""
    validate_spec(spec, limits)
    centerline = _circle_centerline(spec) if spec.kind == "circle" else _loop_centerline(spec, seed)
    geom = CenterlineGeometry(centerline)
    length = geom.length

    n_stations = int(length / spec.cone_spacing_m)
    if n_stations < 4:
        raise InfeasibleTrackError("track too short for cone spacing")
    station_gap = length / n_stations
    half_w = spec.track_width_m / 2

    cones: list[TrackCone] = []
    for j in range(n_stations):
        s = j * station_gap
        p = geom.point_at(s)
        heading = geom.heading_at(s)
        normal = np.array([-math.sin(heading), math.cos(heading)])
        cones.append(TrackCone(p + half_w * normal, "blue"))
        cones.append(TrackCone(p - half_w * normal, "yellow"))
    # start line markers halfway into the first gap, one per side
    s0 = station_gap / 2
    p = geom.point_at(s0)
    heading = geom.heading_at(s0)
    normal = np.array([-math.sin(heading), math.cos(heading)])
    cones.append(TrackCone(p + half_w * normal, "orange"))
    cones.append(TrackCone(p - half_w * normal, "orange"))

    track = TrackDefinition(tuple(cones), centerline, length)
    validate_track(track, limits)
    return track


# ---------------------------------------------------------------------------
# Sensor profiles


@dataclass(frozen=True)
class SensorProfile:
    """Noise and detection model for one perception pipeline.

    ``color_accuracy_bins`` / ``recall_bins`` are ``(range_upper_edge_m, value)``
    step functions; the last value extends beyond the last edge. Position noise
    grows with the square of range: ``sigma = base + coeff * r^2``.
    """

    mode: str  # "fusion" | "lidar_only" | "camera_only"
    max_range_m: float = 15.0
    fov_half_angle_rad: float = 1.1
    sigma_base_m: float = 0.05
    sigma_range_coeff_m_per_m2: float = 0.0008
    color_accuracy_bins: tuple[tuple[float, float], ...] = (
        (5.0, 0.99),
        (7.5, 0.99),
        (10.0, 1.0),
        (12.5, 1.0),
        (15.0, 1.0),
    )
    recall_bins: tuple[tuple[float, float], ...] = ((15.0, 0.97),)
    false_positives_per_frame: float = 0.05
    color_confidence: float = 0.92
    velocity_sigma: tuple[float, float, float] = (0.05, 0.03, 0.004)
    velocity_sigma_per_speed: tuple[float, float, float] = (0.004, 0.002, 0.0004)

    def __post_init__(self) -> None:
        """Reject a field out of range, naming it; the all-zero noise of a noise-free profile is valid."""
        if self.mode not in {source.value for source in SensorSource}:
            raise ValueError(f"sensor profile mode must be fusion, lidar_only or camera_only, got {self.mode!r}")
        check_range("sensor profile max_range_m", self.max_range_m, 0.0, math.inf, False)
        check_range("sensor profile fov_half_angle_rad", self.fov_half_angle_rad, 0.0, math.pi, False)
        for name in ("sigma_base_m", "sigma_range_coeff_m_per_m2", "false_positives_per_frame"):
            check_range(f"sensor profile {name}", getattr(self, name), 0.0, math.inf, True)
        check_range("sensor profile color_confidence", self.color_confidence, 1 / 3, 1.0, True)
        for name in ("velocity_sigma", "velocity_sigma_per_speed"):
            sigmas = tuple(getattr(self, name))
            if len(sigmas) != 3:
                raise ValueError(f"sensor profile {name} must be three sigmas, got {sigmas!r}")
            for sigma in sigmas:
                check_range(f"sensor profile {name}", sigma, 0.0, math.inf, True)
            object.__setattr__(self, name, sigmas)
        for name in ("color_accuracy_bins", "recall_bins"):
            bins = tuple(tuple(b) for b in getattr(self, name))
            if not bins or any(len(b) != 2 for b in bins):
                raise ValueError(f"sensor profile {name} must be (range edge, value) pairs, got {bins!r}")
            for edge, value in bins:
                check_range(f"sensor profile {name} edge", edge, 0.0, math.inf, False)
                check_range(f"sensor profile {name} value", value, 0.0, 1.0, True)
            if [e for e, _ in bins] != sorted(e for e, _ in bins):
                raise ValueError(f"sensor profile {name} edges must be ordered")
            object.__setattr__(self, name, bins)

    @property
    def source(self) -> SensorSource:
        return SensorSource(self.mode)

    def position_sigma(self, ranges: np.ndarray) -> np.ndarray:
        return self.sigma_base_m + self.sigma_range_coeff_m_per_m2 * np.square(ranges)

    def color_accuracy(self, ranges: np.ndarray) -> np.ndarray:
        return _step_lookup(self.color_accuracy_bins, ranges)

    def recall(self, ranges: np.ndarray) -> np.ndarray:
        return _step_lookup(self.recall_bins, ranges)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "max_range_m": self.max_range_m,
            "fov_half_angle_rad": self.fov_half_angle_rad,
            "sigma_base_m": self.sigma_base_m,
            "sigma_range_coeff_m_per_m2": self.sigma_range_coeff_m_per_m2,
            "color_accuracy_bins": [list(b) for b in self.color_accuracy_bins],
            "recall_bins": [list(b) for b in self.recall_bins],
            "false_positives_per_frame": self.false_positives_per_frame,
            "color_confidence": self.color_confidence,
            "velocity_sigma": list(self.velocity_sigma),
            "velocity_sigma_per_speed": list(self.velocity_sigma_per_speed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SensorProfile":
        return cls(**data)


def _step_lookup(bins: Sequence[tuple[float, float]], ranges: np.ndarray) -> np.ndarray:
    edges = np.array([e for e, _ in bins])
    values = np.array([v for _, v in bins])
    idx = np.minimum(np.searchsorted(edges, ranges, side="left"), len(values) - 1)
    return values[idx]


def save_profile(profile: SensorProfile, path: Path | str) -> None:
    Path(path).write_text(json.dumps(profile.to_dict(), indent=2, sort_keys=True))


def load_profile(path: Path | str) -> SensorProfile:
    return SensorProfile.from_dict(json.loads(Path(path).read_text()))


def noise_free_profile(mode: str = "fusion", max_range_m: float = 15.0) -> SensorProfile:
    return SensorProfile(
        mode=mode,
        max_range_m=max_range_m,
        sigma_base_m=0.0,
        sigma_range_coeff_m_per_m2=0.0,
        color_accuracy_bins=((max_range_m, 1.0),),
        recall_bins=((max_range_m, 1.0),),
        false_positives_per_frame=0.0,
        color_confidence=1.0,
        velocity_sigma=(0.0, 0.0, 0.0),
        velocity_sigma_per_speed=(0.0, 0.0, 0.0),
    )


def default_profile(mode: str) -> SensorProfile:
    """Stock profiles for the three pipelines; tunable via JSON overrides."""
    if mode == "fusion":
        return SensorProfile(mode="fusion")
    if mode == "lidar_only":
        # sharp ranging, unreliable color far out
        return SensorProfile(
            mode="lidar_only",
            sigma_base_m=0.04,
            sigma_range_coeff_m_per_m2=0.0006,
            color_accuracy_bins=((5.0, 0.88), (7.5, 0.93), (10.0, 0.89), (12.5, 0.87), (15.0, 0.80)),
            color_confidence=0.75,
        )
    if mode == "camera_only":
        # size-from-bounding-box depth: strong range noise, good color
        return SensorProfile(
            mode="camera_only",
            sigma_base_m=0.08,
            sigma_range_coeff_m_per_m2=0.003,
            color_accuracy_bins=((5.0, 0.99), (7.5, 0.99), (10.0, 1.0), (12.5, 1.0), (15.0, 1.0)),
            recall_bins=((10.0, 0.95), (15.0, 0.75)),
            color_confidence=0.95,
        )
    raise ValueError(f"unknown profile mode {mode!r}")


# ---------------------------------------------------------------------------
# Scenario simulation


@dataclass(frozen=True)
class SimRun:
    """One simulated lap: a track, a speed profile, a frame rate, and a seed."""

    track: TrackDefinition
    speed_profile: tuple[tuple[float, float], ...]  # (arc_length_m, speed_mps) breakpoints
    frame_rate_hz: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        profile = tuple((float(s), float(v)) for s, v in self.speed_profile)
        if not profile:
            raise ValueError("speed profile must not be empty")
        if any(v <= 0 for _, v in profile):
            raise ValueError("speeds must be positive")
        if self.frame_rate_hz <= 0:
            raise ValueError("frame rate must be positive")
        object.__setattr__(self, "speed_profile", profile)

    @classmethod
    def constant_speed(cls, track: TrackDefinition, speed_mps: float, frame_rate_hz: float = 10.0, seed: int = 0) -> "SimRun":
        return cls(track, ((0.0, speed_mps),), frame_rate_hz, seed)

    def speed_at(self, s: float) -> float:
        arcs = np.array([a for a, _ in self.speed_profile])
        speeds = np.array([v for _, v in self.speed_profile])
        return float(np.interp(s, arcs, speeds))


def curvature_limited_speed_profile(
    track: TrackDefinition, max_speed_mps: float, lateral_accel_mps2: float = 6.0, step_m: float = 2.0
) -> tuple[tuple[float, float], ...]:
    """Speed breakpoints capped by v^2 * |curvature| <= lateral acceleration."""
    geom = CenterlineGeometry(track.centerline)
    out = []
    s = 0.0
    while s < geom.length:
        kappa = abs(geom.curvature_at(s, window_m=4.0))
        v = max_speed_mps if kappa < 1e-6 else min(max_speed_mps, math.sqrt(lateral_accel_mps2 / kappa))
        out.append((s, max(v, 1.0)))
        s += step_m
    return tuple(out)


_CLASS_INDEX = {"blue": 0, "yellow": 1, "orange": 2, "unknown": 2}


def observe_cones(
    track: TrackDefinition, true_pose: Pose2, profile: SensorProfile, rng: np.random.Generator, timestamp: float
) -> ObservationBatch:
    """Sample one frame of cone detections in the car frame: detections, then false positives."""
    rel = track.cone_positions() - true_pose.position
    c, s = math.cos(true_pose.theta), math.sin(true_pose.theta)
    x, y = c * rel[:, 0] + s * rel[:, 1], -s * rel[:, 0] + c * rel[:, 1]
    ranges = np.hypot(x, y)
    in_range = np.flatnonzero(ranges <= profile.max_range_m)
    idx = in_range[np.abs(np.arctan2(y[in_range], x[in_range])) <= profile.fov_half_angle_rad]
    detected = idx[rng.random(len(idx)) < profile.recall(ranges[idx])]

    r = ranges[detected]
    sigma = profile.position_sigma(r)
    noise = rng.normal(size=(len(detected), 2)) * sigma[:, None]
    correct = rng.random(len(detected)) < profile.color_accuracy(r)
    alt_pick = rng.integers(0, 2, size=len(detected))
    true_idx = np.array([_CLASS_INDEX[track.cones[i].color] for i in detected], dtype=np.intp)
    # a confused detection takes the lower (pick 0) or higher (pick 1) of the two other classes
    classes = np.where(correct, true_idx, alt_pick + (alt_pick >= true_idx))
    means = np.column_stack([x[detected], y[detected]]) + noise

    n_fp = int(rng.poisson(profile.false_positives_per_frame))
    if n_fp:
        fp_bearing = rng.uniform(-profile.fov_half_angle_rad, profile.fov_half_angle_rad, size=n_fp)
        fp_range = profile.max_range_m * np.sqrt(rng.random(n_fp))  # uniform over frustum area
        means = np.concatenate([means, np.column_stack([fp_range * np.cos(fp_bearing), fp_range * np.sin(fp_bearing)])])
        sigma = np.concatenate([sigma, profile.position_sigma(fp_range)])
        classes = np.concatenate([classes, rng.integers(0, 3, size=n_fp)])

    # C pow, not sigma * sigma: the two differ in the last bit for about one
    # sigma in a thousand. An isotropic covariance's eigenvalues are its
    # diagonal, so flooring them is project_spd's projection.
    variances = np.maximum(np.float_power(sigma, 2), COV_EIGENVALUE_FLOOR)
    covs = np.zeros((len(sigma), 2, 2))
    covs[:, 0, 0] = covs[:, 1, 1] = variances
    colors = np.full((len(classes), 3), (1.0 - profile.color_confidence) / 2.0)
    colors[np.arange(len(classes)), classes] = profile.color_confidence
    return ObservationBatch(profile.source, timestamp, means, covs, colors)


def noisy_velocity(true_vel: Velocity2, profile: SensorProfile, rng: np.random.Generator) -> Velocity2:
    speed = abs(true_vel.vx)
    sig = [
        profile.velocity_sigma[i] + profile.velocity_sigma_per_speed[i] * speed for i in range(3)
    ]
    noise = rng.normal(size=3)
    return Velocity2(
        true_vel.vx + sig[0] * noise[0],
        true_vel.vy + sig[1] * noise[1],
        true_vel.yaw_rate + sig[2] * noise[2],
    )


def discrete_frames(poses: Iterable[Pose2], dt: float) -> Iterator[tuple[float, float, Pose2, Velocity2]]:
    """Yield (timestamp, dt, true_pose, true_velocity) for true poses one frame period apart.

    The true body velocity emitted for frame ``k`` is the exact discrete
    increment from pose ``k-1`` to pose ``k``, so a noise-free consumer that
    dead-reckons with single-step Euler integration reproduces the true pose
    exactly. Noise is layered on top of this discrete ground truth. The first
    frame has zero dt and zero velocity.
    """
    prev: Pose2 | None = None
    for k, pose in enumerate(poses):
        if prev is None:
            yield 0.0, 0.0, pose, Velocity2.zero()
        else:
            d = pose.position - prev.position
            c, s = math.cos(prev.theta), math.sin(prev.theta)
            vel = Velocity2(
                (c * d[0] + s * d[1]) / dt,
                (-s * d[0] + c * d[1]) / dt,
                normalize_angle(pose.theta - prev.theta) / dt,
            )
            yield k * dt, dt, pose, vel
        prev = pose


class ScenarioDriver:
    """Steps the true pose along the centerline one lap at the frame rate."""

    def __init__(self, run: SimRun):
        self.run = run
        self.geom = CenterlineGeometry(run.track.centerline)
        self.dt = 1.0 / run.frame_rate_hz

    def frames(self) -> Iterator[tuple[float, float, Pose2, Velocity2]]:
        """Yield (timestamp, dt, true_pose, true_velocity) until the lap closes (see :func:`discrete_frames`)."""
        return discrete_frames(self._poses(), self.dt)

    def _poses(self) -> Iterator[Pose2]:
        s = 0.0
        while s < self.geom.length:
            yield self.geom.pose_at(s)
            s += self.run.speed_at(s) * self.dt
