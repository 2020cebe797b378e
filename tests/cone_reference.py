"""Per-cone references for the tests, and the one helper tests build cone tables with.

The pipeline holds cones only as ``local_map.ConeTable`` arrays and colour
classes as integer codes. The types here are the per-cone forms those replaced:
a Gaussian with its checks, a cone record, the colour class enum, the scalar
Bhattacharyya distance and the per-cone snapshot-log reader. Tests pin the array code to them bit for bit.

Also here is the all-pairs association the gated ``local_map.associate``
replaced: every (observation, cone) distance as one matrix, and the greedy
matcher over a dense matrix.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from conetrack.core import Pose2, project_spd
from conetrack.local_map import ConeTable, LocalMapSnapshot, MapMode


class ConeClass(Enum):
    """Colour classes as a per-class enum, the form the integer class codes replaced."""

    BLUE = "blue"
    YELLOW = "yellow"
    UNKNOWN = "unknown"


CLASSES = (ConeClass.BLUE, ConeClass.YELLOW, ConeClass.UNKNOWN)


@dataclass(frozen=True, eq=False)
class RefGaussian:
    """2D Gaussian over positions: finite mean and covariance, the covariance projected onto the SPD cone."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        if not all(map(math.isfinite, mean.tolist() + cov.ravel().tolist())):
            raise ValueError(f"a Gaussian needs a finite mean and covariance, got {mean.tolist()} and {cov.tolist()}")
        cov = project_spd(cov[None])[0]
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def isotropic(cls, mean, sigma: float) -> "RefGaussian":
        var = sigma * sigma
        return cls(mean, np.array([[var, 0.0], [0.0, var]]))


def _check_spd(cov: np.ndarray, name: str) -> None:
    if abs(cov[0, 1] - cov[1, 0]) > 1e-9:
        raise ValueError(f"{name} covariance is not symmetric")
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    if cov[0, 0] <= 0 or det <= 0:
        raise ValueError(f"{name} covariance is not positive definite")


def ref_bhattacharyya_distance(a: RefGaussian, b: RefGaussian) -> float:
    """Bhattacharyya distance between two Gaussians, one pair at a time."""
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


@dataclass(frozen=True, eq=False)
class RefCone:
    """One local-map cone: colour evidence finite and non-negative with a positive sum, existence in [0, 1]."""

    id: int
    position: RefGaussian
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


def cone_table(cones=()) -> ConeTable:
    """Cone records packed into a table sorted by id."""
    cones = sorted(cones, key=lambda c: c.id)
    return ConeTable(
        np.array([c.id for c in cones], np.int64),
        np.array([c.position.mean for c in cones], float).reshape(-1, 2),
        np.array([c.position.cov for c in cones], float).reshape(-1, 2, 2),
        np.array([c.color_evidence for c in cones], float).reshape(-1, 3),
        np.array([c.existence for c in cones], float),
        np.array([c.last_seen for c in cones], float),
    )


def color_probabilities(evidence) -> np.ndarray:
    """(blue, yellow, unknown) probabilities: the evidence divided by its sum."""
    ev = np.asarray(evidence, dtype=float)
    return ev / float(ev.sum())


def color_class(probabilities) -> ConeClass:
    return CLASSES[int(np.argmax(probabilities))]


def ref_snapshot_from_dict(data: dict) -> LocalMapSnapshot:
    """The per-cone snapshot-log reader: one checked :class:`RefCone` per row, packed by :func:`cone_table`."""
    cones = cone_table(
        RefCone(
            id=c["id"],
            position=RefGaussian(np.array([c["x_m"], c["y_m"]]), np.array(c["cov_m2"])),
            color_evidence=np.array(c["color_evidence"]),
            existence=c["existence"],
            last_seen=c["last_seen_s"],
        )
        for c in data["cones"]
    )
    ego = Pose2(data["ego"]["x_m"], data["ego"]["y_m"], data["ego"]["theta_rad"])
    return LocalMapSnapshot(data["timestamp_s"], ego, cones, frozenset(data["observed_ids"]), MapMode(data["mode"]))


def bhattacharyya_distance_matrix(
    means_a: np.ndarray, covs_a: np.ndarray, means_b: np.ndarray, covs_b: np.ndarray
) -> np.ndarray:
    """All-pairs Bhattacharyya distances, (len(a), len(b)), in one broadcast."""
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


def dense_greedy_pairs(dist: np.ndarray, gate: float) -> list[tuple[int, int]]:
    """Greedy one-to-one matching of the rows and columns of ``dist``, by ascending distance.

    Pairs farther than ``gate`` are never made. Ties go to the lower row,
    then the lower column. Returns the (row, column) pairs in ascending order.
    """
    rows, cols = np.nonzero(dist <= gate)  # row-major, so a stable sort breaks ties by row, then column
    order = np.argsort(dist[rows, cols], kind="stable")
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for r, c in zip(rows[order].tolist(), cols[order].tolist()):
        if r in used_rows or c in used_cols:
            continue
        used_rows.add(r)
        used_cols.add(c)
        pairs.append((r, c))
    return sorted(pairs)


def all_pairs_associate(cone_means, cone_covs, means, covs, gate) -> list[tuple[int, int]]:
    """``local_map.associate`` with every (observation, cone) distance: (observation, cone row) pairs by observation."""
    if not len(means) or not len(cone_means):
        return []
    dist = bhattacharyya_distance_matrix(means, covs, cone_means, cone_covs)
    # cone rows first, so ties go to the lower row (rows ascend with cone id)
    return sorted((o, c) for c, o in dense_greedy_pairs(dist.T, gate))
