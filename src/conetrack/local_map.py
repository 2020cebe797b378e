"""Short-horizon filtered landmark map.

Fuses per-frame cone observations with velocity dead reckoning: the ego pose
is integrated from velocity readings starting at the origin, per-cone position
uncertainty is filtered with linear Kalman updates and grown with a process
noise term on prediction, colors accumulate as normalized evidence sums, and
an existence score driven by negative observations prunes false positives.

The map is a :class:`ConeTable`, one row per cone in ascending id order, and
every filter step is a vectorized pure function that returns new read-only
arrays, so an emitted snapshot shares the state's arrays and never changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ConeEstimate,
    Gaussian2,
    ObservationBatch,
    Pose2,
    SensorSource,
    Velocity2,
    bhattacharyya_distance_matrix,
    check_range,
    integrate_velocity,
    project_spd,
    rotate_covariance,
    transform_point,
)

SNAPSHOT_SCHEMA_VERSION = 1


class MapMode(Enum):
    """Operating mode, selected from which pipelines are currently alive."""

    FUSION = "fusion"
    LIDAR_ONLY = "lidar_only"
    CAMERA_ONLY = "camera_only"
    DEGRADED = "degraded"  # fusion down, both single-sensor pipelines up


# which observation sources feed the map in each mode; when fusion runs, the
# single-sensor pipelines are redundant and must not be fused in again
_MODE_SOURCES = {
    MapMode.FUSION: (SensorSource.FUSION,),
    MapMode.LIDAR_ONLY: (SensorSource.LIDAR_ONLY,),
    MapMode.CAMERA_ONLY: (SensorSource.CAMERA_ONLY,),
    MapMode.DEGRADED: (SensorSource.LIDAR_ONLY, SensorSource.CAMERA_ONLY),
}

# (field, lowest, highest, whether the lowest value itself is allowed)
_CONFIG_RANGES = (
    ("gate_distance", 0.0, math.inf, False),
    ("covariance_ceiling", 0.0, math.inf, False),
    ("max_range_m", 0.0, math.inf, False),
    ("fov_half_angle_rad", 0.0, math.pi, False),
    ("negative_frustum_shrink", 0.0, 1.0, False),
    ("existence_gain", 0.0, 1.0, True),
    ("existence_decay", 0.0, 1.0, True),
    ("prune_threshold", 0.0, 1.0, True),
    ("initial_existence", 0.0, 1.0, True),
    ("staleness_timeout_s", 0.0, math.inf, True),
)


@dataclass(frozen=True)
class LocalMapConfig:
    """Tunable filter parameters.

    The odometry process noise and existence dynamics are hand-set defaults
    (not calibrated against any recorded data); ``for_frame_rate`` picks an
    existence decay that rejects a fully-certain false positive in under half
    a second of consecutive misses.
    """

    # Bhattacharyya gate. The covariance-mismatch term alone reaches ~2 when
    # a long-unseen cone (grown covariance) meets a tight fresh observation,
    # so the gate must sit above that for revisits to re-associate; neighbor
    # confusion at rule-legal cone spacing stays far beyond this value.
    gate_distance: float = 3.0
    process_noise_rate: tuple[float, float] = (0.02, 0.02)  # m^2 per second
    # covariance growth saturates here (per-axis variance, m^2); bounds the
    # mismatch term for arbitrarily long revisit gaps
    covariance_ceiling: float = 0.25
    max_range_m: float = 15.0
    fov_half_angle_rad: float = 1.1
    negative_frustum_shrink: float = 0.9  # avoid penalizing cones at the frustum edge
    existence_gain: float = 0.5
    existence_decay: float = 0.45
    prune_threshold: float = 0.1
    initial_existence: float = 0.5
    # cones unseen this long are evicted: the map holds recently observed
    # cones only. Revisited ground then re-enters as fresh ids, which is what
    # lets the global map's Euclidean re-association carry loop-closure
    # information instead of the filter absorbing the drift locally.
    eviction_timeout_s: float = 8.0
    staleness_timeout_s: float = 0.35
    # per-(mode, source) color evidence scaling; unlisted pairs weigh 1.0
    color_weights: tuple[tuple[str, str, float], ...] = ((MapMode.DEGRADED.value, SensorSource.LIDAR_ONLY.value, 0.3),)

    def __post_init__(self) -> None:
        for name, low, high, low_ok in _CONFIG_RANGES:
            check_range(f"local map {name}", getattr(self, name), low, high, low_ok)
        if self.eviction_timeout_s is not None:
            check_range("local map eviction_timeout_s", self.eviction_timeout_s, 0.0, math.inf, False)
        rates = self.process_noise_rate
        if not (isinstance(rates, (tuple, list)) and len(rates) == 2):
            raise ValueError(f"local map process_noise_rate must be two rates, got {rates!r}")
        for rate in rates:
            check_range("local map process_noise_rate", rate, 0.0, math.inf, True)
        for entry in self.color_weights:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 3):
                raise ValueError(f"local map color_weights entries must be (mode, source, weight), got {entry!r}")
            check_range("local map color_weights", entry[2], 0.0, math.inf, True)

    def color_weight(self, mode: MapMode, source: SensorSource) -> float:
        for mode_v, source_v, w in self.color_weights:
            if mode_v == mode.value and source_v == source.value:
                return w
        return 1.0

    @classmethod
    def for_frame_rate(
        cls, frame_rate_hz: float, max_range_m: float = 15.0, fov_half_angle_rad: float = 1.1, **overrides
    ) -> "LocalMapConfig":
        base = cls(max_range_m=max_range_m, fov_half_angle_rad=fov_half_angle_rad, **overrides)
        # misses strictly inside 0.5 s must take a certain cone below the
        # prune threshold: decay^n < threshold with n = frames in (0, 0.5 s)
        n = max(int(math.ceil(0.5 * frame_rate_hz)) - 1, 1)
        decay = min(base.existence_decay, (0.5 * base.prune_threshold) ** (1.0 / n))
        return replace(base, existence_decay=decay)

    @classmethod
    def for_profile(cls, profile, frame_rate_hz: float, **overrides) -> "LocalMapConfig":
        """Derive frustum limits from a sensor profile.

        A drift-free velocity source (all sigmas zero) needs no covariance
        growth; otherwise the hand-set default applies.
        """
        if "process_noise_rate" not in overrides:
            drifts = tuple(profile.velocity_sigma) + tuple(profile.velocity_sigma_per_speed)
            if all(v == 0.0 for v in drifts):
                overrides["process_noise_rate"] = (0.0, 0.0)
        return cls.for_frame_rate(
            frame_rate_hz,
            max_range_m=profile.max_range_m,
            fov_half_angle_rad=profile.fov_half_angle_rad,
            **overrides,
        )


@dataclass(frozen=True, eq=False)
class ConeTable:
    """The map's cones as read-only arrays, one row per cone in ascending id order.

    ``ids`` (n,); ``means`` (n, 2) and ``covs`` (n, 2, 2) in the local-map
    frame; ``color_evidence`` (n, 3) per-class observation mass, whose
    normalization is the cone's color; ``existence`` (n,) the
    negative-observation score; ``last_seen`` (n,) the last frame time that
    matched or created the cone.
    """

    ids: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    color_evidence: np.ndarray
    existence: np.ndarray
    last_seen: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.ids, self.means, self.covs, self.color_evidence, self.existence, self.last_seen):
            column.setflags(write=False)

    @classmethod
    def from_estimates(cls, cones: Iterable[ConeEstimate] = ()) -> "ConeTable":
        """Pack cone estimates, built one at a time at the API edge, into a table sorted by id."""
        cones = sorted(cones, key=lambda c: c.id)
        return cls(
            np.array([c.id for c in cones], np.int64),
            np.array([c.position.mean for c in cones], float).reshape(-1, 2),
            np.array([c.position.cov for c in cones], float).reshape(-1, 2, 2),
            np.array([c.color_evidence for c in cones], float).reshape(-1, 3),
            np.array([c.existence for c in cones], float),
            np.array([c.last_seen for c in cones], float),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "ConeTable":
        """The table of the given rows (indices or a boolean mask), in that order."""
        return ConeTable(
            self.ids[rows], self.means[rows], self.covs[rows], self.color_evidence[rows], self.existence[rows], self.last_seen[rows]
        )


@dataclass(frozen=True)
class LocalMapState:
    """Filter state; treat as immutable and use the module operations."""

    ego: Pose2 = field(default_factory=Pose2.identity)
    cones: ConeTable = field(default_factory=ConeTable.from_estimates)
    time: float = 0.0
    mode: MapMode = MapMode.FUSION
    next_cone_id: int = 0
    last_source_time: dict[SensorSource, float] = field(default_factory=dict)


@dataclass(frozen=True)
class AssociationResult:
    """One-to-one matching of a batch of observations against the map."""

    pairs: tuple[tuple[int, int], ...]  # (observation index, cone row), by observation index
    new_observations: tuple[int, ...]  # unmatched observation indices


@dataclass(frozen=True)
class LocalMapSnapshot:
    """Frozen copy of the map at one frame time.

    Cone ids are stable across snapshots (never reused), which is what lets
    downstream consumers re-use the map's data associations. ``observed_ids``
    lists the cones matched or created by the latest frame.
    """

    timestamp: float
    ego: Pose2
    cones: ConeTable
    observed_ids: frozenset[int]
    mode: MapMode


def predict(state: LocalMapState, vel: Velocity2, dt: float, config: LocalMapConfig) -> LocalMapState:
    """Dead-reckon the ego pose and grow every cone covariance by Q * dt.

    Growth saturates at the configured ceiling (uniform shrink back onto it),
    so estimates stay associable after arbitrarily long out-of-view gaps.
    """
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if dt == 0:
        return state
    cones = state.cones
    covs = cones.covs + np.diag(config.process_noise_rate) * dt
    mean_var = 0.5 * (covs[:, 0, 0] + covs[:, 1, 1])
    over = mean_var > config.covariance_ceiling
    if over.any():
        covs[over] = covs[over] * (config.covariance_ceiling / mean_var[over])[:, None, None]
    grown = ConeTable(cones.ids, cones.means, project_spd(covs), cones.color_evidence, cones.existence, cones.last_seen)
    return LocalMapState(
        integrate_velocity(state.ego, vel, dt), grown, state.time + dt, state.mode, state.next_cone_id, state.last_source_time
    )


def observations_to_local(ego: Pose2, means: np.ndarray, covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-express car-frame observations, (k, 2) means and (k, 2, 2) covariances, in the local-map frame."""
    return transform_point(ego, means), project_spd(rotate_covariance(ego.theta, covs))


def _in_frustum(ego: Pose2, means: np.ndarray, config: LocalMapConfig, shrink: float) -> np.ndarray:
    """Which rows of ``means`` lie in the sensor frustum scaled by ``shrink``."""
    max_r, max_bearing = config.max_range_m * shrink, config.fov_half_angle_rad * shrink
    inside = []
    for dx, dy in (means - ego.position).tolist():
        bearing = math.atan2(dy, dx) - ego.theta
        inside.append(math.hypot(dx, dy) <= max_r and abs(math.atan2(math.sin(bearing), math.cos(bearing))) <= max_bearing)
    return np.array(inside, bool)


def associate(cones: ConeTable, means: np.ndarray, covs: np.ndarray, config: LocalMapConfig) -> AssociationResult:
    """Greedy one-to-one matching by ascending Bhattacharyya distance.

    Observations, (k, 2) means and (k, 2, 2) covariances, must already be
    expressed in the local-map frame. Ties are broken by cone id, then by
    observation index. Matches above the gate are rejected; leftover
    observations are new.
    """
    if not len(means) or not len(cones):
        return AssociationResult((), tuple(range(len(means))))
    dist = bhattacharyya_distance_matrix(means, covs, cones.means, cones.covs)
    oi, ci = np.nonzero(dist <= config.gate_distance)
    order = np.lexsort((oi, ci, dist[oi, ci]))  # rows ascend with cone id
    used_obs: set[int] = set()
    used_rows: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for o, c in zip(oi[order].tolist(), ci[order].tolist()):
        if o in used_obs or c in used_rows:
            continue
        used_obs.add(o)
        used_rows.add(c)
        pairs.append((o, c))
    new = tuple(i for i in range(len(means)) if i not in used_obs)
    return AssociationResult(tuple(sorted(pairs)), new)


def update_position(
    means: np.ndarray, covs: np.ndarray, obs_means: np.ndarray, obs_covs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear Kalman updates with an identity observation model, one per row.

    The products are batched ``np.matmul`` in the operand order of the
    one-matrix update, which gives each row the same bits.
    """
    innovation_cov = covs + obs_covs
    s00, s01, s10, s11 = (innovation_cov[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    det = s00 * s11 - s01 * s10
    if not (np.all(det > 0) and np.all(np.isfinite(det))):
        raise ValueError("singular innovation covariance")
    inv = np.stack([s11, -s01, -s10, s00], axis=-1).reshape(-1, 2, 2) / det[:, None, None]
    gain = covs @ inv
    updated = means + (gain @ (obs_means - means)[:, :, None])[:, :, 0]
    return updated, project_spd((np.eye(2) - gain) @ covs)


def update_color(evidence: np.ndarray, colors: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """Accumulate color evidence, one row per cone; the reported color is its normalization."""
    return evidence + weight * colors


def unseen_in_fov(cones: ConeTable, ego: Pose2, observed: np.ndarray, config: LocalMapConfig) -> np.ndarray:
    """Rows the sensors should have seen but did not: not ``observed``, inside the shrunk frustum."""
    return ~observed & _in_frustum(ego, cones.means, config, config.negative_frustum_shrink)


def apply_negative_observations(
    cones: ConeTable, matched: np.ndarray, unseen: np.ndarray, config: LocalMapConfig
) -> ConeTable:
    """Existence bookkeeping: boost ``matched`` rows, decay ``unseen`` rows.

    Unseen cones whose existence falls below the prune threshold are deleted.
    """
    e = cones.existence
    existence = np.where(matched, e + config.existence_gain * (1.0 - e), np.where(unseen, e * config.existence_decay, e))
    table = ConeTable(cones.ids, cones.means, cones.covs, cones.color_evidence, existence, cones.last_seen)
    keep = ~unseen | (existence >= config.prune_threshold)
    return table if keep.all() else table.take(keep)


def _resolve_mode(last_source_time: dict[SensorSource, float], mode: MapMode, now: float, config: LocalMapConfig) -> MapMode:
    def fresh(source: SensorSource) -> bool:
        last = last_source_time.get(source)
        return last is not None and now - last <= config.staleness_timeout_s

    if fresh(SensorSource.FUSION):
        return MapMode.FUSION
    lidar, camera = fresh(SensorSource.LIDAR_ONLY), fresh(SensorSource.CAMERA_ONLY)
    if lidar and camera:
        return MapMode.DEGRADED
    if lidar:
        return MapMode.LIDAR_ONLY
    if camera:
        return MapMode.CAMERA_ONLY
    return mode


def ingest_frame(
    state: LocalMapState,
    batches: Sequence[ObservationBatch],
    vel: Velocity2,
    dt: float,
    config: LocalMapConfig,
    mode: MapMode | None = None,
) -> tuple[LocalMapState, LocalMapSnapshot]:
    """Run one full filter step and emit a frozen snapshot.

    predict -> per-source association -> Kalman/color updates -> negative
    observation pass -> prune -> eviction -> snapshot. ``batches`` holds at
    most one batch per source; a delivered batch, even an empty one, marks
    its pipeline as alive. Each source associates against the map the
    previous source left. ``mode`` forces the operating mode; otherwise it is
    derived from per-source message staleness.
    """
    by_source = {batch.source: batch for batch in batches}
    if len(by_source) != len(batches):
        raise ValueError(f"more than one observation batch per source: {[b.source.value for b in batches]}")
    state = predict(state, vel, dt, config)
    now, ego = state.time, state.ego

    last_source_time = dict(state.last_source_time)
    for source in by_source:
        last_source_time[source] = now
    active_mode = mode if mode is not None else _resolve_mode(last_source_time, state.mode, now, config)

    cones, next_id = state.cones, state.next_cone_id
    matched = np.zeros(len(cones), bool)
    for source in _MODE_SOURCES[active_mode]:
        batch = by_source.get(source)
        if batch is None or not len(batch):
            continue
        means, covs = observations_to_local(ego, batch.means, batch.covs)
        weight = config.color_weight(active_mode, source)
        assoc = associate(cones, means, covs, config)
        obs = [o for o, _ in assoc.pairs]
        rows = [c for _, c in assoc.pairs]
        new = list(assoc.new_observations)
        # matched rows get the Kalman and color updates; new observations become rows at the end
        table_means = np.concatenate([cones.means, means[new]])
        table_covs = np.concatenate([cones.covs, covs[new]])
        evidence = np.concatenate([cones.color_evidence, weight * batch.colors[new] + 1e-12])
        last_seen = np.concatenate([cones.last_seen, np.full(len(new), now)])
        table_means[rows], table_covs[rows] = update_position(cones.means[rows], cones.covs[rows], means[obs], covs[obs])
        evidence[rows] = update_color(cones.color_evidence[rows], batch.colors[obs], weight)
        last_seen[rows] = now
        ids = np.concatenate([cones.ids, np.arange(next_id, next_id + len(new))])
        existence = np.concatenate([cones.existence, np.full(len(new), config.initial_existence)])
        cones = ConeTable(ids, table_means, table_covs, evidence, existence, last_seen)
        next_id += len(new)
        matched = np.concatenate([matched, np.zeros(len(new), bool)])
        matched[rows] = True
    observed = matched.copy()
    observed[len(state.cones) :] = True  # the rows the frame created
    # an observed cone is neither pruned (it is not unseen) nor evicted (seen now)
    observed_ids = frozenset(cones.ids[observed].tolist())

    cones = apply_negative_observations(cones, matched, unseen_in_fov(cones, ego, observed, config), config)
    if config.eviction_timeout_s is not None:
        fresh = now - cones.last_seen <= config.eviction_timeout_s
        if not fresh.all():
            cones = cones.take(fresh)
    state = LocalMapState(ego, cones, now, active_mode, next_id, last_source_time)
    return state, LocalMapSnapshot(now, ego, cones, observed_ids, active_mode)


# ---------------------------------------------------------------------------
# Snapshot log serialization (newline-delimited JSON)


def snapshot_from_dict(data: dict) -> LocalMapSnapshot:
    """One snapshot log row; its cones are checked one at a time, as :class:`ConeEstimate` views."""
    cones = ConeTable.from_estimates(
        ConeEstimate(
            id=c["id"],
            position=Gaussian2(np.array([c["x_m"], c["y_m"]]), np.array(c["cov_m2"])),
            color_evidence=np.array(c["color_evidence"]),
            existence=c["existence"],
            last_seen=c["last_seen_s"],
        )
        for c in data["cones"]
    )
    ego = Pose2(data["ego"]["x_m"], data["ego"]["y_m"], data["ego"]["theta_rad"])
    return LocalMapSnapshot(data["timestamp_s"], ego, cones, frozenset(data["observed_ids"]), MapMode(data["mode"]))


# One snapshot log line, keys in sorted order, with json's separators. ``%r``
# of a finite Python float is the text json writes for it, and ``%d`` of an
# id held as a float is its integer text (ids stay below 2**53).
_CONE_ROW = (
    '{"color_evidence": [%r, %r, %r], "cov_m2": [[%r, %r], [%r, %r]], '
    '"existence": %r, "id": %d, "last_seen_s": %r, "x_m": %r, "y_m": %r}'
)
_SNAPSHOT_LINE = (
    '{"cones": [%s], "ego": {"theta_rad": %r, "x_m": %r, "y_m": %r}, '
    '"mode": "%s", "observed_ids": [%s], "timestamp_s": %r}\n'
)


class SnapshotLogWriter:
    """Writes one snapshot per line, with a schema header line."""

    def __init__(self, path: Path | str):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(json.dumps({"schema_version": SNAPSHOT_SCHEMA_VERSION, "kind": "snapshot_log"}, sort_keys=True) + "\n")

    def write(self, snapshot: LocalMapSnapshot) -> None:
        """Format the snapshot's finite arrays straight into its JSON line."""
        cones, ego = snapshot.cones, snapshot.ego
        n = len(cones)
        columns = (cones.color_evidence, cones.covs.reshape(n, 4), cones.existence, cones.ids, cones.last_seen, cones.means)
        rows = ", ".join([_CONE_ROW] * n) % tuple(np.column_stack(columns).ravel().tolist())
        observed = ", ".join(map(str, sorted(snapshot.observed_ids)))
        # the filter's ego and time can be numpy floats, whose %r is not json's text
        fields = (rows, float(ego.theta), float(ego.x), float(ego.y), snapshot.mode.value, observed, float(snapshot.timestamp))
        self._fh.write(_SNAPSHOT_LINE % fields)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SnapshotLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SchemaMismatchError(ValueError):
    """Log header version differs from what this build writes."""


def read_snapshot_log(path: Path | str, strict: bool = False) -> list[LocalMapSnapshot]:
    """Read a snapshot log; a malformed last record is tolerated unless ``strict``.

    Only the last non-empty line can be a truncated tail: a malformed record
    followed by another line raises ``ValueError`` naming its line. Raises
    :class:`SchemaMismatchError` when the header announces another schema
    version.
    """
    snapshots: list[LocalMapSnapshot] = []
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise SchemaMismatchError("snapshot log missing schema header") from exc
        if header.get("kind") != "snapshot_log" or header.get("schema_version") != SNAPSHOT_SCHEMA_VERSION:
            raise SchemaMismatchError(f"unsupported snapshot log header: {header}")
        lines = [(number, line) for number, line in enumerate(fh, start=2) if line.strip()]
    for number, line in lines:
        try:
            snapshots.append(snapshot_from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            if strict:
                raise
            if number != lines[-1][0]:
                raise ValueError(f"malformed snapshot record on line {number}, before the last line: {exc!r}") from exc
    return snapshots
