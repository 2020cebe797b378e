"""Shared geometry and probability for the mapping pipeline.

Planar poses and velocities, the SPD projection of covariance stacks, the
pairwise Bhattacharyya distance, the greedy one-to-one matcher, one
source's observation batch, and the range checks applied to outside input,
among them every config's fields.
Values are immutable (frozen dataclasses, read-only arrays), so a snapshot
can share them without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Minimum covariance eigenvalue, m^2. Keeps filters away from singular updates
# after long chains of float round-off.
COV_EIGENVALUE_FLOOR = 1e-9

# The largest |coordinate| of an ego or waypoint in a log, m: far beyond any track, and path lengths stay finite
MAX_LOG_COORDINATE_M = 1e6


def is_finite_number(value) -> bool:
    """True for a finite int or float read from outside input (a bool is not a number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_range(name: str, value, low: float, high: float, low_ok: bool) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite number in the interval.

    The interval is ``[low, high]`` or ``(low, high]`` per ``low_ok``.
    """
    if not (is_finite_number(value) and (value >= low if low_ok else value > low) and value <= high):
        interval = f"{'[' if low_ok else '('}{low}, {high}]"
        raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")


class Bound(NamedTuple):
    """The values a config field takes.

    A finite number in ``[low, high]`` (``(low, high]`` unless ``low_ok``);
    with ``integer``, an integer in ``[low, high]`` (a bool is not one);
    with ``count``, a list or tuple of that many finite numbers in the
    interval.
    """

    low: float
    high: float = math.inf
    low_ok: bool = True
    integer: bool = False
    count: int | None = None


def check_bounds(label: str, obj, bounds: dict[str, Bound]) -> None:
    """Raise ``ValueError`` naming ``label`` and the field unless each field of ``obj`` in ``bounds`` is within it."""
    for name, bound in bounds.items():
        value = getattr(obj, name)
        if bound.integer:
            if isinstance(value, bool) or not isinstance(value, int) or not bound.low <= value <= bound.high:
                span = f">= {bound.low}" if bound.high == math.inf else f"in [{bound.low}, {bound.high}]"
                raise ValueError(f"{label} {name} must be an integer {span}, got {value!r}")
        elif bound.count is not None:
            if not (isinstance(value, (tuple, list)) and len(value) == bound.count):
                raise ValueError(f"{label} {name} must be {bound.count} numbers, got {value!r}")
            for item in value:
                check_range(f"{label} {name}", item, bound.low, bound.high, bound.low_ok)
        else:
            check_range(f"{label} {name}", value, bound.low, bound.high, bound.low_ok)


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.pi - (math.pi - theta) % TWO_PI
    # float modulo can round to the modulus itself, landing on the open end
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Pose2:
    """Planar pose: position in meters, heading in radians.

    The heading is normalized to (-pi, pi] on construction, so any pose built
    through :func:`compose` / :func:`integrate_velocity` stays normalized.
    """

    x: float
    y: float
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def rotation(self) -> np.ndarray:
        """2x2 rotation matrix mapping body-frame vectors to the parent frame."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Velocity2:
    """Body-frame velocity: longitudinal, lateral, and yaw rate."""

    vx: float
    vy: float
    yaw_rate: float

    def __post_init__(self) -> None:
        for name in ("vx", "vy", "yaw_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"velocity component {name} must be finite")

    @staticmethod
    def zero() -> "Velocity2":
        return Velocity2(0.0, 0.0, 0.0)


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Compose two poses: ``b`` expressed in ``a``'s frame, mapped to a's parent frame."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        a.theta + b.theta,
    )


def invert(p: Pose2) -> Pose2:
    """Inverse pose, so that ``compose(p, invert(p))`` is the identity."""
    c, s = math.cos(p.theta), math.sin(p.theta)
    return Pose2(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.theta)


def relative_pose(a: Pose2, b: Pose2) -> Pose2:
    """Pose of ``b`` expressed in ``a``'s frame (``a^-1 (+) b``)."""
    return compose(invert(a), b)


def transform_point(pose: Pose2, point: np.ndarray) -> np.ndarray:
    """Map body-frame points, shape (..., 2), into the pose's parent frame."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    p = np.asarray(point, dtype=float)
    x, y = p[..., 0], p[..., 1]
    out = np.empty(p.shape)
    out[..., 0], out[..., 1] = pose.x + c * x - s * y, pose.y + s * x + c * y
    return out


def body_frame_point(pose: Pose2, point: np.ndarray) -> np.ndarray:
    """Map parent-frame points, shape (..., 2), into the pose's body frame."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    p = np.asarray(point, dtype=float)
    dx, dy = p[..., 0] - pose.x, p[..., 1] - pose.y
    out = np.empty(p.shape)
    out[..., 0], out[..., 1] = c * dx + s * dy, -s * dx + c * dy
    return out


def rotate_covariance(theta: float, cov: np.ndarray) -> np.ndarray:
    """``R cov R^T`` for one covariance or a stack (..., 2, 2); a stack is one
    batched matmul, which gives each matrix the bits the single product does."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ cov @ rot.T


def integrate_velocity(pose: Pose2, vel: Velocity2, dt: float) -> Pose2:
    """Advance a pose by body-frame velocities over ``dt`` (single Euler step).

    The body velocity is rotated by the current heading and integrated; the
    heading advances by ``yaw_rate * dt``. Callers that need finer temporal
    resolution sub-step the interval themselves.
    """
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    return Pose2(
        pose.x + (c * vel.vx - s * vel.vy) * dt,
        pose.y + (s * vel.vx + c * vel.vy) * dt,
        pose.theta + vel.yaw_rate * dt,
    )


# names of the colour classes 0-2, the columns of colour evidence
CLASS_NAMES = ("blue", "yellow", "unknown")


def color_probabilities(evidence: np.ndarray) -> np.ndarray:
    """(k, 3) (blue, yellow, unknown) probabilities of (k, 3) colour evidence: each row over its sum, added
    left to right; a row whose sum is not positive reads as unknown. A row's class code is its ``argmax``."""
    total = (evidence[:, 0] + evidence[:, 1] + evidence[:, 2])[:, None]
    unknown = np.zeros(evidence.shape)
    unknown[:, 2] = 1.0
    return np.divide(evidence, total, out=unknown, where=total > 0)


# Where the closed-form smallest eigenvalue clears the floor by this much
# (relative to the matrix's entries), eigh's would too; the two differ by a
# few units in the last place of the largest entry.
_SPD_MARGIN = 1e-12


def _clear_of_floor(a, b, d, floor: float):
    """Closed-form smallest eigenvalue of [[a, b], [b, d]] clears ``floor`` by the margin (False on NaN)."""
    return 0.5 * (a + d) - np.hypot(0.5 * (a - d), b) >= floor + _SPD_MARGIN * (abs(a) + abs(b) + abs(d))


def project_spd(cov: np.ndarray, floor: float = COV_EIGENVALUE_FLOOR) -> np.ndarray:
    """Project a stack of 2x2 matrices (..., 2, 2) onto the SPD cone: symmetrize, floor eigenvalues.

    Only a matrix whose closed-form smallest eigenvalue is below the floor or
    within a rounding margin of it goes to ``eigh``; every other matrix is
    returned symmetrized, which is what the eigh test gives it too.
    """
    sym = 0.5 * (cov + cov.swapaxes(-1, -2))
    clear = _clear_of_floor(sym[..., 0, 0], sym[..., 0, 1], sym[..., 1, 1], floor)
    if not clear.all():
        near = ~clear
        sym[near] = [_floor_eigenvalues(m, floor) for m in sym[near]]
    return sym


def _floor_eigenvalues(sym: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= floor:
        return sym
    vals = np.maximum(vals, floor)
    return (vecs * vals) @ vecs.T


def bhattacharyya_distances(
    means_a: np.ndarray, covs_a: np.ndarray, means_b: np.ndarray, covs_b: np.ndarray
) -> np.ndarray:
    """Bhattacharyya distances between the Gaussians of matching rows, (k,).

    Row i of ``a``, (k, 2) means and (k, 2, 2) covariances, meets row i of
    ``b``. Each distance is the elementwise two-Gaussian form, so a pair gets
    the same bits whatever else is in the arrays; the tests pin it to the
    scalar form.
    """
    avg = 0.5 * (covs_a + covs_b)
    a00, a01, a10, a11 = avg[:, 0, 0], avg[:, 0, 1], avg[:, 1, 0], avg[:, 1, 1]
    det_avg = a00 * a11 - a01 * a10
    det_a = covs_a[:, 0, 0] * covs_a[:, 1, 1] - covs_a[:, 0, 1] * covs_a[:, 1, 0]
    det_b = covs_b[:, 0, 0] * covs_b[:, 1, 1] - covs_b[:, 0, 1] * covs_b[:, 1, 0]
    dx, dy = (means_a - means_b).T
    maha = (dx * (a11 * dx - a01 * dy) + dy * (a00 * dy - a10 * dx)) / det_avg  # d' adj(avg) d / det(avg)
    return 0.125 * maha + 0.5 * np.log(det_avg / np.sqrt(det_a * det_b))


def greedy_pairs(rows: np.ndarray, cols: np.ndarray, dist: np.ndarray) -> list[tuple[int, int]]:
    """Greedy one-to-one matching of candidate (row, column, distance) triples, by ascending distance.

    The candidates come in ascending (row, column) order, each pair at most
    once, and every one of them may be made: the caller leaves out the pairs
    beyond its gate. Ties go to the lower row, then the lower column. Returns
    the (row, column) pairs in ascending order.
    """
    order = dist.argsort(kind="stable")  # a stable sort keeps the (row, column) order within a tie
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for r, c in zip(rows.take(order).tolist(), cols.take(order).tolist()):
        if r in used_rows or c in used_cols:
            continue
        used_rows.add(r)
        used_cols.add(c)
        pairs.append((r, c))
    return sorted(pairs)


class SensorSource(Enum):
    """Which perception pipeline produced an observation."""

    FUSION = "fusion"
    LIDAR_ONLY = "lidar_only"
    CAMERA_ONLY = "camera_only"


@dataclass(frozen=True, eq=False)
class ObservationBatch:
    """One source's detections in one frame, in the car frame, as read-only arrays.

    ``means`` (k, 2) in meters; ``covs`` (k, 2, 2) SPD covariances in m^2;
    ``colors`` (k, 3) the per-detection distribution over {blue, yellow,
    unknown}. A delivered batch marks its source as alive even when empty.
    """

    source: SensorSource
    timestamp: float
    means: np.ndarray
    covs: np.ndarray
    colors: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.means, self.covs, self.colors):
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.means)
