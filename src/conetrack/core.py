"""Shared geometric and probabilistic value types for the mapping pipeline.

Everything here is immutable and side-effect free so downstream stages can
hand these objects across threads (and into frozen snapshots) without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi

# Minimum covariance eigenvalue, m^2. Keeps filters away from singular updates
# after long chains of float round-off.
COV_EIGENVALUE_FLOOR = 1e-9


def is_finite_number(value) -> bool:
    """True for a finite int or float read from outside input (a bool is not a number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta], dtype=float)

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
    return np.stack([pose.x + c * x - s * y, pose.y + s * x + c * y], axis=-1)


def body_frame_point(pose: Pose2, point: np.ndarray) -> np.ndarray:
    """Map parent-frame points, shape (..., 2), into the pose's body frame."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    p = np.asarray(point, dtype=float)
    dx, dy = p[..., 0] - pose.x, p[..., 1] - pose.y
    return np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1)


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


class ConeClass(Enum):
    """Color classes carried by detection probability distributions."""

    BLUE = "blue"
    YELLOW = "yellow"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ColorDistribution:
    """Categorical distribution over {blue, yellow, unknown}."""

    p_blue: float
    p_yellow: float
    p_unknown: float

    def __post_init__(self) -> None:
        total = self.p_blue + self.p_yellow + self.p_unknown
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"color probabilities must sum to 1, got {total}")
        for p in (self.p_blue, self.p_yellow, self.p_unknown):
            if p < -1e-12 or p > 1.0 + 1e-12:
                raise ValueError(f"color probability out of [0, 1]: {p}")

    @classmethod
    def from_evidence(cls, evidence: np.ndarray) -> "ColorDistribution":
        """Normalize non-negative per-class evidence into a distribution."""
        ev = np.asarray(evidence, dtype=float)
        if ev.shape != (3,) or np.any(ev < 0):
            raise ValueError("evidence must be 3 non-negative accumulators")
        total = float(ev.sum())
        if total <= 0:
            raise ValueError("evidence sum must be positive")
        return cls(ev[0] / total, ev[1] / total, ev[2] / total)

    @staticmethod
    def certain(cone_class: ConeClass) -> "ColorDistribution":
        return ColorDistribution(
            1.0 if cone_class is ConeClass.BLUE else 0.0,
            1.0 if cone_class is ConeClass.YELLOW else 0.0,
            1.0 if cone_class is ConeClass.UNKNOWN else 0.0,
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.p_blue, self.p_yellow, self.p_unknown])

    def argmax_class(self) -> ConeClass:
        idx = int(np.argmax(self.as_array()))
        return (ConeClass.BLUE, ConeClass.YELLOW, ConeClass.UNKNOWN)[idx]


# Where the closed-form smallest eigenvalue clears the floor by this much
# (relative to the matrix's entries), eigh's would too; the two differ by a
# few units in the last place of the largest entry.
_SPD_MARGIN = 1e-12


def _clear_of_floor(a, b, d, floor: float, hypot):
    """Closed-form smallest eigenvalue of [[a, b], [b, d]] clears ``floor`` by the margin (False on NaN)."""
    return 0.5 * (a + d) - hypot(0.5 * (a - d), b) >= floor + _SPD_MARGIN * (abs(a) + abs(b) + abs(d))


def project_spd(cov: np.ndarray, floor: float = COV_EIGENVALUE_FLOOR) -> np.ndarray:
    """Project a 2x2 matrix, or a stack (..., 2, 2), onto the SPD cone: symmetrize, floor eigenvalues.

    Only a matrix whose closed-form smallest eigenvalue is below the floor or
    within a rounding margin of it goes to ``eigh``; every other matrix is
    returned symmetrized, which is what the eigh test gives it too.
    """
    if cov.ndim == 2:  # numpy on 0-d values costs more than eigh itself
        sym = 0.5 * (cov + cov.T)
        (a, b), (_, d) = sym.tolist()
        return sym if _clear_of_floor(a, b, d, floor, math.hypot) else _floor_eigenvalues(sym, floor)
    sym = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    clear = _clear_of_floor(sym[..., 0, 0], sym[..., 0, 1], sym[..., 1, 1], floor, np.hypot)
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


def _check_spd(cov: np.ndarray, name: str) -> None:
    if abs(cov[0, 1] - cov[1, 0]) > 1e-9:
        raise ValueError(f"{name} covariance is not symmetric")
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if cov[0, 0] <= 0 or det <= 0:
        raise ValueError(f"{name} covariance is not positive definite")


@dataclass(frozen=True, eq=False)
class Gaussian2:
    """2D Gaussian over positions: mean in meters, SPD covariance in m^2.

    The covariance is symmetrized and eigenvalue-floored on construction, and
    both arrays are made read-only so shared references stay consistent. A
    NaN or infinite entry raises ``ValueError``.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        if not all(map(math.isfinite, mean.tolist() + cov.ravel().tolist())):
            raise ValueError(f"Gaussian2 needs a finite mean and covariance, got {mean.tolist()} and {cov.tolist()}")
        cov = project_spd(cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def isotropic(cls, mean, sigma: float) -> "Gaussian2":
        var = sigma * sigma
        return cls(mean, np.array([[var, 0.0], [0.0, var]]))


def bhattacharyya_distance(a: Gaussian2, b: Gaussian2) -> float:
    """Bhattacharyya distance between two 2D Gaussians.

    Combines Mahalanobis-style mean separation under the averaged covariance
    with a covariance-mismatch term; zero iff the distributions are identical.
    """
    _check_spd(a.cov, "first")
    _check_spd(b.cov, "second")
    avg = 0.5 * (a.cov + b.cov)
    det_avg = avg[0, 0] * avg[1, 1] - avg[0, 1] * avg[1, 0]
    det_a = a.cov[0, 0] * a.cov[1, 1] - a.cov[0, 1] * a.cov[1, 0]
    det_b = b.cov[0, 0] * b.cov[1, 1] - b.cov[0, 1] * b.cov[1, 0]
    d = a.mean - b.mean
    # inv(avg) @ d via the 2x2 adjugate
    solved = np.array([avg[1, 1] * d[0] - avg[0, 1] * d[1], -avg[1, 0] * d[0] + avg[0, 0] * d[1]]) / det_avg
    maha = float(d @ solved)
    return 0.125 * maha + 0.5 * math.log(det_avg / math.sqrt(det_a * det_b))


def bhattacharyya_distance_matrix(
    means_a: np.ndarray, covs_a: np.ndarray, means_b: np.ndarray, covs_b: np.ndarray
) -> np.ndarray:
    """All-pairs Bhattacharyya distances, (len(a), len(b)).

    Vectorized for the data-association hot path; agrees with the scalar form.
    """
    n, m = len(means_a), len(means_b)
    avg = 0.5 * (covs_a[:, None, :, :] + covs_b[None, :, :, :])  # (n, m, 2, 2)
    det_avg = avg[..., 0, 0] * avg[..., 1, 1] - avg[..., 0, 1] * avg[..., 1, 0]
    det_a = covs_a[:, 0, 0] * covs_a[:, 1, 1] - covs_a[:, 0, 1] * covs_a[:, 1, 0]
    det_b = covs_b[:, 0, 0] * covs_b[:, 1, 1] - covs_b[:, 0, 1] * covs_b[:, 1, 0]
    d = means_a[:, None, :] - means_b[None, :, :]  # (n, m, 2)
    sx = avg[..., 1, 1] * d[..., 0] - avg[..., 0, 1] * d[..., 1]
    sy = -avg[..., 1, 0] * d[..., 0] + avg[..., 0, 0] * d[..., 1]
    maha = (d[..., 0] * sx + d[..., 1] * sy) / det_avg
    mismatch = 0.5 * np.log(det_avg / np.sqrt(det_a[:, None] * det_b[None, :]))
    return (0.125 * maha + mismatch).reshape(n, m)


class SensorSource(Enum):
    """Which perception pipeline produced an observation."""

    FUSION = "fusion"
    LIDAR_ONLY = "lidar_only"
    CAMERA_ONLY = "camera_only"


@dataclass(frozen=True)
class ConeObservation:
    """One detected cone in the car frame at a given time."""

    position: Gaussian2
    color: ColorDistribution
    timestamp: float
    source: SensorSource


@dataclass(frozen=True, eq=False)
class ConeEstimate:
    """One local-map cone, for callers that build a map cone by cone.

    The local map itself holds its cones as arrays (``local_map.ConeTable``).
    ``color_evidence`` accumulates per-class observation mass; the cone's
    color distribution is its normalization. ``existence`` is the
    negative-observation certainty score.
    """

    id: int
    position: Gaussian2
    color_evidence: np.ndarray
    existence: float
    last_seen: float

    def __post_init__(self) -> None:
        ev = np.array(self.color_evidence, dtype=float).reshape(3)
        values = ev.tolist()
        if not (min(values) >= 0 and 0 < sum(values) < math.inf):
            raise ValueError("color evidence must be finite and non-negative with positive sum")
        ev.setflags(write=False)
        object.__setattr__(self, "color_evidence", ev)
        if not 0.0 <= self.existence <= 1.0:
            raise ValueError(f"existence must be in [0, 1], got {self.existence}")
