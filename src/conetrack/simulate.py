"""Synthetic track and sensor front end.

Generates closed-loop test tracks and per-frame cone observations with
distance-dependent position noise, range-dependent color confusion, detection
dropouts, and false positives. The stream stands in for the real perception
pipelines so the mapping and planning stages can be exercised at desk scale.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .centerline import CenterlineGeometry
from .core import (
    COV_EIGENVALUE_FLOOR,
    Bound,
    ObservationBatch,
    Pose2,
    SensorSource,
    Velocity2,
    check_bounds,
    check_range,
    is_finite_number,
    normalize_angle,
)

TRACK_SCHEMA_VERSION = 1
# the names of the track's colour codes, used only where track.json is written
# and read; codes 0-2 are also the observation classes blue, yellow and
# unknown, so an orange cone reads as unknown
TRACK_COLORS = ("blue", "yellow", "orange")


class InfeasibleTrackError(ValueError):
    """Raised when a track spec cannot be realized within its own limits."""


class TrackValidationError(ValueError):
    """Raised when a generated or loaded track violates the rule limits."""


# Rule-like bounds the generator and validator enforce
MIN_WIDTH_M = 3.0
MAX_WIDTH_M = 5.0
# same-side spacing is measured as arc distance along the centerline between
# consecutive cone projections
MAX_SAME_SIDE_SPACING_M = 5.0
# the most centerline samples, and the most cone stations, a spec may ask
# for: a 5 km loop at the default 0.5 m resolution
MAX_TRACK_SAMPLES = 10_000
# evenly redistributing floor(L / spacing) stations can stretch gaps slightly
# past nominal; the validator allows this much slack
SPACING_SLACK_M = 0.5


@dataclass(frozen=True)
class TrackDefinition:
    """Ground-truth track: cone positions and colour codes, centerline polyline, and loop length.

    ``positions`` is a read-only (n, 2) array of world positions in metres and
    ``colors`` a read-only (n,) array of codes into :data:`TRACK_COLORS`, one
    row per cone.
    """

    positions: np.ndarray
    colors: np.ndarray
    centerline: np.ndarray  # (K, 2), closed loop, last point != first
    total_length: float

    def __post_init__(self) -> None:
        for name, value in (
            ("positions", np.array(self.positions, dtype=float).reshape(-1, 2)),
            ("colors", np.array(self.colors, dtype=np.intp).reshape(-1)),
            ("centerline", np.array(self.centerline, dtype=float)),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {
            "schema_version": TRACK_SCHEMA_VERSION,
            "total_length_m": self.total_length,
            "cones": [
                {"x_m": x, "y_m": y, "color": TRACK_COLORS[code]}
                for (x, y), code in zip(self.positions.tolist(), self.colors.tolist())
            ],
            "centerline_m": self.centerline.tolist(),
        }

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The cones' x and y, each a contiguous read-only column."""
        columns = tuple(np.ascontiguousarray(self.positions[:, k]) for k in (0, 1))
        for column in columns:
            column.setflags(write=False)
        return columns

    def start_pose(self) -> Pose2:
        """Where the lap starts, and the origin of its map frame: the centerline's pose at arc length 0."""
        return CenterlineGeometry(self.centerline).pose_at(0.0)

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
        positions, colors = [], []
        for k, c in enumerate(data["cones"]):
            if not isinstance(c, dict) or not (is_finite_number(c.get("x_m")) and is_finite_number(c.get("y_m"))):
                raise TrackValidationError(f"track field 'cones' item {k} needs numeric x_m and y_m: {c!r}")
            if c.get("color") not in TRACK_COLORS:
                raise TrackValidationError(f"track field 'cones' item {k}: unknown cone color {c.get('color')!r}")
            positions.append((c["x_m"], c["y_m"]))
            colors.append(TRACK_COLORS.index(c["color"]))
        line = data["centerline_m"]
        if not (
            isinstance(line, list) and len(line) >= 3
            and all(isinstance(p, list) and len(p) == 2 and all(map(is_finite_number, p)) for p in line)
        ):
            raise TrackValidationError("track field 'centerline_m' needs a list of at least 3 [x, y] number pairs")
        length = data["total_length_m"]
        if not (is_finite_number(length) and length > 0):
            raise TrackValidationError(f"track field 'total_length_m' needs a positive number, got {length!r}")
        return cls(positions, colors, line, float(length))


def save_track(track: TrackDefinition, path: Path | str) -> None:
    Path(path).write_text(json.dumps(track.to_dict(), indent=None, sort_keys=True))


def load_track(path: Path | str) -> TrackDefinition:
    """Read a track file; one that breaks the rule limits raises :class:`TrackValidationError`."""
    track = TrackDefinition.from_dict(json.loads(Path(path).read_text()))
    validate_track(track)
    return track


TRACK_KINDS = ("loop", "circle")
# the rule limits on width, spacing and radius are checked by ``validate_spec``
_SPEC_BOUNDS = {
    "length_m": Bound(0.0, low_ok=False),
    "radius_m": Bound(0.0, low_ok=False),
    "track_width_m": Bound(0.0),
    "cone_spacing_m": Bound(0.0),
    "min_radius_m": Bound(0.0, low_ok=False),
    "hairpin_count": Bound(0, integer=True),
    "control_points": Bound(0, integer=True),
    "radial_variation": Bound(0.0),
    "hairpin_depth": Bound(0.0),
    "centerline_resolution_m": Bound(0.0, low_ok=False),
}


@dataclass(frozen=True)
class TrackSpec:
    """Parameters for the track generator.

    ``kind`` selects a plain circle or a randomized closed loop built from a
    periodic radial spline whose bumps create tight, near-minimum-radius
    turns (the "hairpin" segments). A ``kind`` outside :data:`TRACK_KINDS`,
    a field that is not a finite number in its range, or a count that is not
    a non-negative integer, raises ``ValueError`` naming it.
    """

    kind: str = "loop"  # one of TRACK_KINDS
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

    def __post_init__(self) -> None:
        if self.kind not in TRACK_KINDS:
            raise ValueError(f"track spec kind must be one of {TRACK_KINDS}, got {self.kind!r}")
        check_bounds("track spec", self, _SPEC_BOUNDS)


def validate_spec(spec: TrackSpec) -> None:
    if not MIN_WIDTH_M <= spec.track_width_m <= MAX_WIDTH_M:
        raise InfeasibleTrackError(f"track width {spec.track_width_m} m outside [{MIN_WIDTH_M}, {MAX_WIDTH_M}]")
    if spec.cone_spacing_m <= 0 or spec.cone_spacing_m > MAX_SAME_SIDE_SPACING_M:
        raise InfeasibleTrackError(f"cone spacing {spec.cone_spacing_m} m outside (0, {MAX_SAME_SIDE_SPACING_M}]")
    if spec.min_radius_m < spec.track_width_m:
        raise InfeasibleTrackError(
            f"minimum radius {spec.min_radius_m} m too small for width {spec.track_width_m} m"
        )
    if spec.kind == "circle" and spec.radius_m < spec.min_radius_m:
        raise InfeasibleTrackError("circle radius below minimum radius")
    if spec.kind == "loop" and spec.control_points < 6:
        raise InfeasibleTrackError("loop generator needs at least 6 control points")
    length_field = "radius_m" if spec.kind == "circle" else "length_m"
    length = 2 * math.pi * spec.radius_m if spec.kind == "circle" else spec.length_m
    for what, step_field in (("centerline samples", "centerline_resolution_m"), ("cone stations", "cone_spacing_m")):
        count = length / getattr(spec, step_field)
        if not count <= MAX_TRACK_SAMPLES:  # an infinite count fails too
            raise InfeasibleTrackError(
                f"track spec {length_field} {getattr(spec, length_field)} and {step_field} {getattr(spec, step_field)}"
                f" ask for {count:.3g} {what}, over the cap of {MAX_TRACK_SAMPLES}"
            )


def boundary_order(
    track: TrackDefinition, geom: CenterlineGeometry
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Each cone's arc length along ``geom``, and the blue (left) and yellow (right) rows in arc order.

    One ``nearest_arc_lengths`` call projects every cone. The sort is stable,
    so cones at the same arc length keep their row order.
    """
    arcs = geom.nearest_arc_lengths(track.positions)
    sides = (np.flatnonzero(track.colors == code) for code in (0, 1))
    return arcs, tuple(rows[np.argsort(arcs[rows], kind="stable")] for rows in sides)


def validate_track(track: TrackDefinition) -> None:
    """Check the centerline and its length, side assignment, width and spacing against the rule limits."""
    try:
        geom = CenterlineGeometry(track.centerline)
    except ValueError as exc:
        raise TrackValidationError(str(exc)) from exc
    if not math.isclose(track.total_length, geom.length, rel_tol=1e-9):
        raise TrackValidationError(
            f"track field 'total_length_m' is {track.total_length!r}, not the centerline's length {geom.length!r}"
        )
    arcs, sides = boundary_order(track, geom)
    half_min, half_max = MIN_WIDTH_M / 2, MAX_WIDTH_M / 2
    for position, s, code in zip(track.positions, arcs.tolist(), track.colors.tolist()):
        heading = geom.heading_at(s)
        off = position - geom.point_at(s)
        cross = math.cos(heading) * off[1] - math.sin(heading) * off[0]
        lateral = abs(cross)
        if not half_min - 0.3 <= lateral <= half_max + 0.3:
            raise TrackValidationError(f"cone at {position} sits {lateral:.2f} m off the centerline")
        # blue (code 0) belongs on the left, where cross > 0; yellow (1) on the right
        if code < 2 and (cross > 0) != (code == 0):
            side = "right" if code == 0 else "left"
            raise TrackValidationError(f"{TRACK_COLORS[code]} cone at {position} is on the {side} side")
    max_gap = MAX_SAME_SIDE_SPACING_M + SPACING_SLACK_M
    for side, rows in zip(("left", "right"), sides):
        if not len(rows):
            raise TrackValidationError(f"{side} side has no cones")
        side_arcs = arcs[rows]
        gaps = np.diff(np.concatenate([side_arcs, [side_arcs[0] + geom.length]]))
        if gaps.max() > max_gap + 1e-9:
            raise TrackValidationError(
                f"{side} side has a {gaps.max():.2f} m gap (limit {max_gap:.2f} m)"
            )


def _periodic_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the periodic cubic spline through ``(x, y)``, where ``y[-1] == y[0]``.

    Row ``3 - k`` of the ``(4, len(x) - 1)`` result multiplies ``(t - x[i])**k``
    on interval ``i``. This is scipy 1.17's ``CubicSpline(x, y,
    bc_type="periodic")`` for seven or more knots, operation for operation, so
    the coefficients equal its ``c`` bit for bit: the cyclic tridiagonal system
    is condensed to two banded solves, then the knot slopes become Hermite
    coefficients.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # the (n-1) x (n-1) cyclic system for the slopes at x[:-1], banded
    # without its last row and column, whose entries are kept apart
    band = np.zeros((3, n - 1))
    band[1, 1:] = 2 * (dx[:-1] + dx[1:])
    band[0, 2:] = dx[:-2]
    band[-1, :-1] = dx[1:]
    band[1, 0] = 2 * (dx[-1] + dx[0])
    band[0, 1] = dx[-1]
    rhs = np.empty(n - 1)
    rhs[1:] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs[0] = 3 * (dx[0] * slope[-1] + dx[-1] * slope[0])
    rhs[-1] = 3 * (dx[-1] * slope[-2] + dx[-2] * slope[-1])
    condensed = band[:, :-1]
    b1 = rhs[:-1]
    b2 = np.zeros_like(b1)
    b2[0] = -dx[0]
    b2[-1] = -dx[-3]
    m = len(b1)
    s1 = solve_banded((1, 1), condensed, b1.reshape(m, -1), check_finite=False).reshape(m)
    s2 = solve_banded((1, 1), condensed, b2.reshape(m, -1), check_finite=False).reshape(m)
    # the slope at x[-2], from the row and column left out of the condensed system
    s_last = (rhs[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1]) / (
        2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]
    )
    s = np.empty(n)
    s[:-2] = s1 + s_last * s2
    s[-2] = s_last
    s[-1] = s[0]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _periodic_spline_derivatives(
    x: np.ndarray, coeffs: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, first and second derivative of a :func:`_periodic_spline` at ``at``.

    Bit for bit scipy's ``PPoly`` with periodic extrapolation: ``at`` is
    wrapped into ``[x[0], x[-1]]``, and each order is an ascending-power sum
    from 0.0 whose terms are ``(c * s**k) * prefactor``, the powers built by
    repeated multiplication (not Horner's form).
    """
    at = x[0] + (at - x[0]) % (x[-1] - x[0])
    i = np.minimum(np.searchsorted(x, at, side="right") - 1, len(x) - 2)
    s = at - x[i]
    c3, c2, c1, c0 = coeffs[:, i]  # c_k multiplies s**k
    s2 = s * s
    r = 0.0 + c0 + c1 * s + c2 * s2 + c3 * (s2 * s)
    dr = 0.0 + c1 + (c2 * s) * 2.0 + (c3 * s2) * 3.0
    ddr = 0.0 + c2 * 2.0 + (c3 * s) * 6.0
    return r, dr, ddr


def _loop_centerline(spec: TrackSpec, seed: int) -> np.ndarray:
    """Closed centerline from a periodic radial spline, scaled to length."""
    rng = np.random.default_rng(seed)
    n = spec.control_points
    base_radius = spec.length_m / (2 * math.pi)
    variation = spec.radial_variation
    depth = spec.hairpin_depth

    angles = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    phi = np.concatenate([angles, [2 * math.pi]])
    dense_phi = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    raw = rng.uniform(-1.0, 1.0, size=n)
    hairpin_idx = rng.choice(n, size=min(spec.hairpin_count, n // 3), replace=False) if spec.hairpin_count else np.array([], dtype=int)

    for attempt in range(20):
        radii = base_radius * (1.0 + variation * raw)
        # narrow radial bumps create out-and-back turns near the minimum radius
        radii = radii.copy()
        radii[hairpin_idx] *= 1.0 + depth
        r = np.concatenate([radii, [radii[0]]])
        rr, dr, ddr = _periodic_spline_derivatives(phi, _periodic_spline(phi, r), dense_phi)
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
        dr = dr * scale
        ddr = ddr * scale
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


def generate_track(spec: TrackSpec, seed: int) -> TrackDefinition:
    """Build a closed rule-conforming track; deterministic for a given seed."""
    validate_spec(spec)
    centerline = _circle_centerline(spec) if spec.kind == "circle" else _loop_centerline(spec, seed)
    geom = CenterlineGeometry(centerline)
    length = geom.length

    n_stations = int(length / spec.cone_spacing_m)
    if n_stations < 4:
        raise InfeasibleTrackError("track too short for cone spacing")
    station_gap = length / n_stations
    half_w = spec.track_width_m / 2

    # a blue (left) and a yellow (right) cone per station, then the start
    # line's two orange markers halfway into the first gap
    rows = []
    for s in [j * station_gap for j in range(n_stations)] + [station_gap / 2]:
        p = geom.point_at(s)
        heading = geom.heading_at(s)
        normal = np.array([-math.sin(heading), math.cos(heading)])
        rows += (p + half_w * normal, p - half_w * normal)

    track = TrackDefinition(rows, [0, 1] * n_stations + [2, 2], centerline, length)
    validate_track(track)
    return track


# ---------------------------------------------------------------------------
# Sensor profiles


# Upper limits of a profile's noise, far above every shipped profile (0.05
# false positives a frame; velocity sigmas of at most 0.05 m/s and 0.004 m/s
# per m/s). Beyond them a frame's Poisson draw or a noisy velocity reading
# fails mid-run.
MAX_FALSE_POSITIVES_PER_FRAME = 100.0
# for vx, vy (m/s) and yaw rate (rad/s), and for their growth per m/s of speed
MAX_VELOCITY_SIGMA = 100.0

# the range bins keep their own check, in ``SensorProfile.__post_init__``
_PROFILE_BOUNDS = {
    "max_range_m": Bound(0.0, low_ok=False),
    "fov_half_angle_rad": Bound(0.0, math.pi, low_ok=False),
    "sigma_base_m": Bound(0.0),
    "sigma_range_coeff_m_per_m2": Bound(0.0),
    "false_positives_per_frame": Bound(0.0, MAX_FALSE_POSITIVES_PER_FRAME),
    "color_confidence": Bound(1 / 3, 1.0),
    "velocity_sigma": Bound(0.0, MAX_VELOCITY_SIGMA, count=3),
    "velocity_sigma_per_speed": Bound(0.0, MAX_VELOCITY_SIGMA, count=3),
}


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
        check_bounds("sensor profile", self, _PROFILE_BOUNDS)
        for name in ("velocity_sigma", "velocity_sigma_per_speed"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
        return _step_lookup(*self._steps["color_accuracy_bins"], ranges)

    def recall(self, ranges: np.ndarray) -> np.ndarray:
        return _step_lookup(*self._steps["recall_bins"], ranges)

    @functools.cached_property
    def _steps(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The (edges, values) arrays of each step function, built on first use."""
        return {
            name: (np.array([e for e, _ in bins]), np.array([v for _, v in bins]))
            for name, bins in (("color_accuracy_bins", self.color_accuracy_bins), ("recall_bins", self.recall_bins))
        }


def _step_lookup(edges: np.ndarray, values: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    idx = np.minimum(np.searchsorted(edges, ranges, side="left"), len(values) - 1)
    return values.take(idx)


def load_profile(path: Path | str) -> SensorProfile:
    return SensorProfile(**json.loads(Path(path).read_text()))


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


def curvature_limited_speed_profile(
    track: TrackDefinition, max_speed_mps: float, lateral_accel_mps2: float = 6.0, step_m: float = 2.0
) -> tuple[tuple[float, float], ...]:
    """Speed breakpoints capped by v^2 * |curvature| <= lateral acceleration.

    Every speed is floored at 1 m/s, or at ``max_speed_mps`` when that is lower.
    """
    geom = CenterlineGeometry(track.centerline)
    floor = min(1.0, max_speed_mps)
    out = []
    s = 0.0
    while s < geom.length:
        kappa = abs(geom.curvature_at(s, window_m=4.0))
        v = max_speed_mps if kappa < 1e-6 else min(max_speed_mps, math.sqrt(lateral_accel_mps2 / kappa))
        out.append((s, max(v, floor)))
        s += step_m
    return tuple(out)


def observe_cones(
    track: TrackDefinition, true_pose: Pose2, profile: SensorProfile, rng: np.random.Generator, timestamp: float
) -> ObservationBatch:
    """Sample one frame of cone detections in the car frame: detections, then false positives."""
    # body_frame_point's arithmetic, on the track's x and y columns
    c, s = math.cos(true_pose.theta), math.sin(true_pose.theta)
    xs, ys = track.columns
    dx, dy = xs - true_pose.x, ys - true_pose.y
    x, y = c * dx + s * dy, -s * dx + c * dy
    ranges = np.hypot(x, y)
    in_range = np.flatnonzero(ranges <= profile.max_range_m)
    idx = in_range[np.abs(np.arctan2(y.take(in_range), x.take(in_range))) <= profile.fov_half_angle_rad]
    detected = idx[rng.random(len(idx)) < profile.recall(ranges.take(idx))]

    r = ranges.take(detected)
    sigma = profile.position_sigma(r)
    noise = rng.normal(size=(len(detected), 2)) * sigma[:, None]
    correct = rng.random(len(detected)) < profile.color_accuracy(r)
    alt_pick = rng.integers(0, 2, size=len(detected))
    true_idx = track.colors.take(detected)
    # a confused detection takes the lower (pick 0) or higher (pick 1) of the two other classes
    classes = np.where(correct, true_idx, alt_pick + (alt_pick >= true_idx))
    means = np.column_stack([x.take(detected), y.take(detected)]) + noise

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
            dx, dy = pose.x - prev.x, pose.y - prev.y
            c, s = math.cos(prev.theta), math.sin(prev.theta)
            vel = Velocity2(
                (c * dx + s * dy) / dt,
                (-s * dx + c * dy) / dt,
                normalize_angle(pose.theta - prev.theta) / dt,
            )
            yield k * dt, dt, pose, vel
        prev = pose


def speed_lookup(speed_profile: Sequence[tuple[float, float]]) -> Callable[[float], float]:
    """The speed at an arc length: linear between ``(arc_length_m, speed_mps)`` breakpoints, flat past the ends."""
    arcs = np.array([s for s, _ in speed_profile], dtype=float)
    speeds = np.array([v for _, v in speed_profile], dtype=float)
    return lambda s: float(np.interp(s, arcs, speeds))


def centerline_poses(
    geom: CenterlineGeometry, speed_profile: Sequence[tuple[float, float]], dt: float
) -> Iterator[Pose2]:
    """True poses on the centerline for one lap, each the profile's speed times ``dt`` past the last."""
    speed_at = speed_lookup(speed_profile)
    s = 0.0
    while s < geom.length:
        yield geom.pose_at(s)
        s += speed_at(s) * dt
