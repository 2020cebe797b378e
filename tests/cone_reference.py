"""Per-cone references for the tests, and the one helper tests build cone tables with.

The pipeline holds cones only as ``local_map.ConeTable`` arrays and colour
classes as integer codes. The types here are the per-cone forms those replaced:
a Gaussian with its checks, a cone record, the colour class enum, the scalar
Bhattacharyya distance and the per-cone snapshot-log reader. Tests pin the array code to them bit for bit.

Also here is the all-pairs association the gated ``local_map.associate``
replaced: every (observation, cone) distance as one matrix, and the greedy
matcher over a dense matrix.

``local_map.ingest_frame`` takes every near pair directly when no cone and
no observation is in two of them, skips the transform and projection of a
frame that feeds no observation, and scores existence, pruning and eviction
in one loop over the map's rows in plain floats. :func:`array_ingest_frame`
and :func:`greedy_associate` are the forms it replaced: every frame through
the concatenations, the greedy match's sort and loop for every pair, and
the existence and keep masks as numpy expressions with the frustum test of
:func:`array_in_frustum`.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from conetrack.core import (
    ObservationBatch,
    Pose2,
    Velocity2,
    bhattacharyya_distances,
    greedy_pairs,
    integrate_velocity,
    project_spd,
    rotate_covariance,
    transform_point,
)
from conetrack.local_map import (
    MODE_SOURCES,
    ConeTable,
    LocalMapConfig,
    LocalMapSnapshot,
    LocalMapState,
    MapMode,
    _gate_half_width,
    _grow_covariances,
    mode_of,
    update_position,
)


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


def greedy_associate(
    cone_means: np.ndarray, cone_covs: np.ndarray, means: np.ndarray, covs: np.ndarray, gate: float
) -> list[tuple[int, int]]:
    """``local_map.associate`` with every near pair through the greedy match, contended or not."""
    if not len(means) or not len(cone_means):
        return []
    half_width = _gate_half_width(cone_covs, covs, gate)
    dx, dy = cone_means[:, 0, None] - means[:, 0], cone_means[:, 1, None] - means[:, 1]
    rows, obs = ((np.abs(dx) <= half_width) & (np.abs(dy) <= half_width)).nonzero()
    dist = bhattacharyya_distances(means.take(obs, 0), covs.take(obs, 0), cone_means.take(rows, 0), cone_covs.take(rows, 0))
    near = dist <= gate
    return sorted((o, c) for c, o in greedy_pairs(rows[near], obs[near], dist[near]))


def array_in_frustum(ego: Pose2, means: np.ndarray, config: LocalMapConfig, shrink: float) -> np.ndarray:
    """Which rows of ``means`` lie in the sensor frustum scaled by ``shrink``, from an ego position array."""
    max_r, max_bearing = config.max_range_m * shrink, config.fov_half_angle_rad * shrink
    inside = []
    for dx, dy in (means - np.array([ego.x, ego.y], dtype=float)).tolist():
        bearing = math.atan2(dy, dx) - ego.theta
        inside.append(math.hypot(dx, dy) <= max_r and abs(math.atan2(math.sin(bearing), math.cos(bearing))) <= max_bearing)
    return np.array(inside, bool)


def array_ingest_frame(
    state: LocalMapState,
    batches: Sequence[ObservationBatch],
    vel: Velocity2,
    dt: float,
    config: LocalMapConfig,
    mode: MapMode | None = None,
) -> tuple[LocalMapState, LocalMapSnapshot]:
    """``local_map.ingest_frame`` with its columns concatenated on every frame and its existence,
    pruning and eviction as numpy masks, associating by :func:`greedy_associate`."""
    by_source = {batch.source: batch for batch in batches}
    if len(by_source) != len(batches):
        raise ValueError(f"more than one observation batch per source: {[b.source.value for b in batches]}")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    cones = state.cones
    ego, now = state.ego, state.time
    if dt > 0:
        ego, now = integrate_velocity(ego, vel, dt), now + dt

    last_source_time = dict(state.last_source_time)
    for source in by_source:
        last_source_time[source] = now
    live = frozenset(source for source, last in last_source_time.items() if now - last <= config.staleness_timeout_s)
    active_mode = mode or mode_of(live) or state.mode

    fed = [(by_source[source], weight) for source, weight in MODE_SOURCES[active_mode] if len(by_source.get(source, ()))]
    n = len(cones)
    means = np.concatenate([cones.means, *(batch.means for batch, _ in fed)])
    means[n:] = transform_point(ego, means[n:])
    rotated = rotate_covariance(ego.theta, np.concatenate([cones.covs[:0], *(batch.covs for batch, _ in fed)]))
    if dt > 0:
        covs = project_spd(np.concatenate([_grow_covariances(cones.covs, dt, config), rotated]))
    else:
        covs = np.concatenate([cones.covs, project_spd(rotated)])
    obs_means, obs_covs = means[n:], covs[n:]
    evidence = np.concatenate([cones.color_evidence, np.empty((len(means) - n, 3))])
    last_seen = np.concatenate([cones.last_seen, np.full(len(means) - n, now)])
    matched = np.zeros(len(means), bool)

    used = n
    first = 0
    for batch, weight in fed:
        k = len(batch)
        src_means, src_covs = obs_means[first : first + k], obs_covs[first : first + k]
        first += k
        pairs = greedy_associate(means[:used], covs[:used], src_means, src_covs, config.gate_distance)
        obs, rows = np.array(pairs, np.intp).reshape(-1, 2).T
        if pairs:
            means[rows], covs[rows] = update_position(
                means.take(rows, 0), covs.take(rows, 0), src_means.take(obs, 0), src_covs.take(obs, 0)
            )
            evidence[rows] += weight * batch.colors.take(obs, 0)
            last_seen[rows] = now
            matched[rows] = True
        if len(pairs) < k:
            new = np.ones(k, bool)
            new[obs] = False
            fresh = slice(used, used + k - len(pairs))
            used = fresh.stop
            means[fresh], covs[fresh] = src_means[new], src_covs[new]
            evidence[fresh] = weight * batch.colors[new] + 1e-12
    next_id = state.next_cone_id + used - n
    ids = np.concatenate([cones.ids, np.arange(state.next_cone_id, next_id)])
    means, covs, evidence, last_seen, matched = means[:used], covs[:used], evidence[:used], last_seen[:used], matched[:used]
    existence = np.concatenate([cones.existence, np.full(used - n, config.initial_existence)])
    observed = matched.copy()
    observed[n:] = True
    observed_ids = frozenset(ids[observed].tolist())

    unseen = ~observed
    unseen[unseen] = array_in_frustum(ego, means[unseen], config, config.negative_frustum_shrink)
    e = existence
    existence = np.where(matched, e + config.existence_gain * (1.0 - e), np.where(unseen, e * config.existence_decay, e))
    keep = (~unseen | (existence >= config.prune_threshold)) & (now - last_seen <= config.eviction_timeout_s)
    cones = ConeTable(ids, means, covs, evidence, existence, last_seen)
    if not keep.all():
        cones = cones.take(keep)
    state = LocalMapState(ego, cones, now, active_mode, next_id, last_source_time)
    return state, LocalMapSnapshot(now, ego, cones, observed_ids, active_mode)
