"""Short-horizon filtered landmark map.

Fuses per-frame cone observations with velocity dead reckoning: the ego pose
is integrated from velocity readings starting at the origin, per-cone position
uncertainty is filtered with linear Kalman updates and grown with a process
noise term on prediction, colors accumulate as normalized evidence sums, and
an existence score driven by negative observations prunes false positives.

The map is a :class:`ConeTable`, one row per cone in ascending id order.
:func:`ingest_frame` steps it in one vectorized pass over its columns and
builds one new read-only table per frame, so an emitted snapshot shares the
state's arrays and never changes.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    MAX_LOG_COORDINATE_M,
    Bound,
    ObservationBatch,
    Pose2,
    SensorSource,
    Velocity2,
    bhattacharyya_distances,
    check_bounds,
    greedy_pairs,
    integrate_velocity,
    is_finite_number,
    project_spd,
    rotate_covariance,
    transform_point,
)

SNAPSHOT_SCHEMA_VERSION = 2
MAX_SNAPSHOT_TIME_S = 1e9  # the largest |timestamp_s| of a snapshot log, about 32 years


class MapMode(Enum):
    """Operating mode, selected from which pipelines are currently alive."""

    FUSION = "fusion"
    LIDAR_ONLY = "lidar_only"
    CAMERA_ONLY = "camera_only"
    DEGRADED = "degraded"  # fusion down, both single-sensor pipelines up


# The (source, colour evidence weight) pairs that feed the map in each mode,
# in association order. The modes are listed in order of preference: the
# first whose sources are all live is the one they select. When fusion runs,
# the single-sensor pipelines are redundant and must not be fused in again;
# in degraded mode the lidar's colour guess counts for less than the camera's.
MODE_SOURCES = {
    MapMode.FUSION: ((SensorSource.FUSION, 1.0),),
    MapMode.DEGRADED: ((SensorSource.LIDAR_ONLY, 0.3), (SensorSource.CAMERA_ONLY, 1.0)),
    MapMode.LIDAR_ONLY: ((SensorSource.LIDAR_ONLY, 1.0),),
    MapMode.CAMERA_ONLY: ((SensorSource.CAMERA_ONLY, 1.0),),
}


@functools.cache
def mode_of(live: frozenset[SensorSource]) -> MapMode | None:
    """The mode a set of live sources selects (see :data:`MODE_SOURCES`), or None when none is live."""
    return next((mode for mode, pairs in MODE_SOURCES.items() if all(s in live for s, _ in pairs)), None)


_CONFIG_BOUNDS = {
    "gate_distance": Bound(0.0, low_ok=False),
    "process_noise_rate": Bound(0.0, count=2),
    "covariance_ceiling": Bound(0.0, low_ok=False),
    "max_range_m": Bound(0.0, low_ok=False),
    "fov_half_angle_rad": Bound(0.0, math.pi, low_ok=False),
    "negative_frustum_shrink": Bound(0.0, 1.0, low_ok=False),
    "existence_gain": Bound(0.0, 1.0),
    "existence_decay": Bound(0.0, 1.0),
    "prune_threshold": Bound(0.0, 1.0),
    "initial_existence": Bound(0.0, 1.0),
    "eviction_timeout_s": Bound(0.0, low_ok=False),
    "staleness_timeout_s": Bound(0.0),
}


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

    def __post_init__(self) -> None:
        check_bounds("local map", self, _CONFIG_BOUNDS)

    @classmethod
    def for_frame_rate(cls, frame_rate_hz: float, **overrides) -> "LocalMapConfig":
        """The config with ``existence_decay`` capped for the frame rate; an
        ``existence_decay`` override above the cap raises ``ValueError``."""
        base = cls(**overrides)
        # misses strictly inside 0.5 s must take a certain cone below the
        # prune threshold: decay^n < threshold with n = frames in (0, 0.5 s)
        n = max(int(math.ceil(0.5 * frame_rate_hz)) - 1, 1)
        cap = (0.5 * base.prune_threshold) ** (1.0 / n)
        decay = overrides.get("existence_decay", 0.0)
        if decay > cap:
            raise ValueError(f"existence_decay {decay} is above {cap}, the cap at {frame_rate_hz} Hz")
        return replace(base, existence_decay=min(base.existence_decay, cap))

    @classmethod
    def for_profile(cls, profile, frame_rate_hz: float, **overrides) -> "LocalMapConfig":
        """Derive frustum limits from a sensor profile.

        A drift-free velocity source (all sigmas zero) needs no covariance
        growth; otherwise the hand-set default applies. The range and field of
        view are the profile's: an override of either raises ``ValueError``.
        """
        for key in ("max_range_m", "fov_half_angle_rad"):
            if key in overrides:
                raise ValueError(f"{key} comes from the sensor profile; set the profile's {key} instead")
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
    def empty(cls) -> "ConeTable":
        return cls(np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros((0, 2, 2)), np.zeros((0, 3)), np.zeros(0), np.zeros(0))

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
    cones: ConeTable = field(default_factory=ConeTable.empty)
    time: float = 0.0
    mode: MapMode = MapMode.FUSION
    next_cone_id: int = 0
    last_source_time: dict[SensorSource, float] = field(default_factory=dict)


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


def _grow_covariances(covs: np.ndarray, dt: float, config: LocalMapConfig) -> np.ndarray:
    """Cone covariances, (n, 2, 2), grown by Q * dt; the caller projects them onto the SPD cone.

    Growth saturates at the configured ceiling (uniform shrink back onto it),
    so estimates stay associable after arbitrarily long out-of-view gaps.
    """
    qx, qy = config.process_noise_rate
    covs = covs + np.array(((qx * dt, 0.0), (0.0, qy * dt)))
    mean_var = 0.5 * (covs[:, 0, 0] + covs[:, 1, 1])
    over = mean_var > config.covariance_ceiling
    if over.any():
        covs[over] = covs[over] * (config.covariance_ceiling / mean_var[over])[:, None, None]
    return covs


# The gate box's squared half-width over the bound it must hold (see
# _gate_half_width). A computed distance can round below the exact one: by a
# relative 1e-6 or so when a covariance sits at the eigenvalue floor, where
# the 2x2 determinants cancel. The margin keeps every pair whose computed
# distance could pass the gate inside the box.
_GATE_BOX_MARGIN = 1.125


def _gate_half_width(cone_covs: np.ndarray, covs: np.ndarray, gate: float) -> float:
    """Half-width of the square around a cone outside which no observation is within ``gate``.

    With d the mean difference and S the average covariance, the Bhattacharyya
    distance is at least |d|^2 / (8 tr S): its Mahalanobis term is
    d' S^-1 d / 8 with S's largest eigenvalue at most tr S, and its
    covariance-mismatch term is not negative (log det is concave). tr S is
    at most half the largest cone trace plus half the largest observation
    trace, so a pair within the gate has |d|^2 at most 4 gate times their sum.
    """
    largest = float((cone_covs[:, 0, 0] + cone_covs[:, 1, 1]).max() + (covs[:, 0, 0] + covs[:, 1, 1]).max())
    return math.sqrt(4.0 * gate * largest * _GATE_BOX_MARGIN)


def associate(
    cone_means: np.ndarray, cone_covs: np.ndarray, means: np.ndarray, covs: np.ndarray, gate: float
) -> list[tuple[int, int]]:
    """Greedy one-to-one matching by ascending Bhattacharyya distance: (observation, cone row) pairs by observation.

    The map's cones, (n, 2) means and (n, 2, 2) SPD covariances in ascending
    id order, meet observations, (k, 2) and (k, 2, 2), already expressed in
    the local-map frame. Only the pairs inside the gate box
    (:func:`_gate_half_width`) get a distance; no pair outside it can pass
    the gate. Ties are broken by cone id, then by observation index.
    Matches above ``gate`` are rejected; an observation in no pair is new.
    Near pairs that share no cone and no observation are all taken, with no
    greedy pass.
    """
    if not len(means) or not len(cone_means):
        return []
    half_width = _gate_half_width(cone_covs, covs, gate)
    dx, dy = cone_means[:, 0, None] - means[:, 0], cone_means[:, 1, None] - means[:, 1]
    rows, obs = ((np.abs(dx) <= half_width) & (np.abs(dy) <= half_width)).nonzero()
    # ``take`` gathers rows as fancy indexing does, at a fraction of its overhead on small arrays
    dist = bhattacharyya_distances(means.take(obs, 0), covs.take(obs, 0), cone_means.take(rows, 0), cone_covs.take(rows, 0))
    near = dist <= gate
    rows, obs = rows[near], obs[near]
    near_rows, near_obs = rows.tolist(), obs.tolist()
    if len(set(near_rows)) == len(near_rows) == len(set(near_obs)):
        # no cone and no observation is in two pairs, so the greedy match takes every pair
        return sorted(zip(near_obs, near_rows))
    # candidates in (cone row, observation) order, so ties go to the lower row (rows ascend with cone id)
    return sorted((o, c) for c, o in greedy_pairs(rows, obs, dist[near]))


# the identity observation model of update_position, and the signs of a 2x2 adjugate
_EYE2 = np.eye(2)
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def update_position(
    means: np.ndarray, covs: np.ndarray, obs_means: np.ndarray, obs_covs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Linear Kalman updates with an identity observation model, one per row.

    The products are batched ``np.matmul`` in the operand order of the
    one-matrix update, which gives each row the same bits.
    """
    innovation_cov = covs + obs_covs
    s00, s01, s10, s11 = innovation_cov[:, 0, 0], innovation_cov[:, 0, 1], innovation_cov[:, 1, 0], innovation_cov[:, 1, 1]
    det = s00 * s11 - s01 * s10
    if not all(0.0 < d < math.inf for d in det.tolist()):
        raise ValueError("singular innovation covariance")
    # the adjugate [[s11, -s01], [-s10, s00]] over the determinant: entries reversed and transposed, signs flipped
    inv = innovation_cov[:, ::-1, ::-1].transpose(0, 2, 1) * _ADJUGATE_SIGNS / det[:, None, None]
    gain = covs @ inv
    updated = means + (gain @ (obs_means - means)[:, :, None])[:, :, 0]
    return updated, project_spd((_EYE2 - gain) @ covs)


def ingest_frame(
    state: LocalMapState,
    batches: Sequence[ObservationBatch],
    vel: Velocity2,
    dt: float,
    config: LocalMapConfig,
    mode: MapMode | None = None,
) -> tuple[LocalMapState, LocalMapSnapshot]:
    """Run one full filter step and emit a frozen snapshot.

    One pass over the map's columns: dead-reckon the ego and grow the
    covariances (a zero ``dt`` leaves both as they are); move every source's
    observations to the local-map frame in one transform and one projection;
    per source, association, Kalman and colour updates and new rows, filled
    in place into columns sized for every observation to be new; then the
    existence score, pruning and eviction in one loop over the map's rows,
    and the frame's one table. ``batches`` holds at most one batch per
    source; a delivered batch, even an empty one, marks its pipeline as
    alive. Each source associates against the columns the previous source
    left. ``mode`` forces the operating mode; otherwise :func:`mode_of` picks
    it from the sources whose last batch is no older than the staleness
    timeout, and with none of them live the mode holds.
    """
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
    n = used = len(cones)  # the map's rows, and the rows filled
    means, covs, evidence = cones.means, cones.covs, cones.color_evidence
    if dt > 0:  # a zero dt leaves the map's covariances as they are
        covs = _grow_covariances(covs, dt, config)
    matched: set[int] = set()  # the rows a source matched
    if fed:
        # The columns hold the map's n rows, then every observation the frame
        # feeds in, moved to the local-map frame in one transform and one
        # projection (with the grown covariances: it acts on each matrix
        # alone). Each source writes its new rows after the rows filled so
        # far, which is at or above its own observations' rows, and only once
        # it has read them.
        means = np.concatenate([means, transform_point(ego, np.concatenate([batch.means for batch, _ in fed]))])
        rotated = rotate_covariance(ego.theta, np.concatenate([batch.covs for batch, _ in fed]))
        covs = project_spd(np.concatenate([covs, rotated])) if dt > 0 else np.concatenate([covs, project_spd(rotated)])
        evidence = np.concatenate([evidence, np.empty((len(means) - n, 3))])
        first = n  # the source's first row
        for batch, weight in fed:
            k = len(batch)
            src = slice(first, first + k)
            first = src.stop
            src_means, src_covs = means[src], covs[src]
            pairs = associate(means[:used], covs[:used], src_means, src_covs, config.gate_distance)
            if pairs:  # matched rows get the Kalman and colour updates
                obs, rows = (np.array(column, np.intp) for column in zip(*pairs))
                means[rows], covs[rows] = update_position(
                    means.take(rows, 0), covs.take(rows, 0), src_means.take(obs, 0), src_covs.take(obs, 0)
                )
                evidence[rows] += weight * batch.colors.take(obs, 0)
                matched.update(rows.tolist())
            if len(pairs) < k:  # new observations fill the next rows
                new = np.ones(k, bool)
                if pairs:
                    new[obs] = False
                fresh = slice(used, used + k - len(pairs))
                used = fresh.stop
                means[fresh], covs[fresh] = src_means[new], src_covs[new]
                evidence[fresh] = weight * batch.colors[new] + 1e-12
        means, covs, evidence = means[:used], covs[:used], evidence[:used]
    elif dt > 0:
        covs = project_spd(covs)

    # existence: matched rows gain, unseen rows (inside the shrunk frustum
    # but not observed) decay and go below the prune threshold; rows not seen
    # for the eviction timeout go too. A new row is observed now, so neither
    # pruned nor evicted; one a later source matched gains as well. The
    # frustum test is the scalar ``math`` form.
    initial, gain, decay = config.initial_existence, config.existence_gain, config.existence_decay
    existence = cones.existence.tolist() + [initial] * (used - n)
    last_seen = cones.last_seen.tolist() + [now] * (used - n)
    ids = cones.ids.tolist()
    observed_ids = set(range(state.next_cone_id, state.next_cone_id + used - n))
    for k in matched:
        existence[k] += gain * (1.0 - existence[k])
        if k < n:
            last_seen[k] = now
            observed_ids.add(ids[k])
    max_r = config.max_range_m * config.negative_frustum_shrink
    max_bearing = config.fov_half_angle_rad * config.negative_frustum_shrink
    prune, timeout = config.prune_threshold, config.eviction_timeout_s
    ego_x, ego_y, ego_theta = ego.x, ego.y, ego.theta
    hypot, atan2, sin, cos = math.hypot, math.atan2, math.sin, math.cos
    drop = []
    xs, ys = cones.means.T.tolist()
    for k, x, y, seen in zip(range(n), xs, ys, last_seen):
        if k in matched:
            continue
        dx, dy = x - ego_x, y - ego_y
        if hypot(dx, dy) <= max_r:
            bearing = atan2(dy, dx) - ego_theta
            if abs(atan2(sin(bearing), cos(bearing))) <= max_bearing:
                existence[k] *= decay
                if not existence[k] >= prune:
                    drop.append(k)
                    continue
        if not now - seen <= timeout:
            drop.append(k)
    next_id = state.next_cone_id + used - n
    cones = ConeTable(
        np.concatenate([cones.ids, np.arange(state.next_cone_id, next_id)]) if used > n else cones.ids,
        means,
        covs,
        evidence,
        np.array(existence, float),
        np.array(last_seen, float),
    )
    if drop:
        keep = np.ones(used, bool)
        keep[drop] = False
        cones = cones.take(keep)
    state = LocalMapState(ego, cones, now, active_mode, next_id, last_source_time)
    return state, LocalMapSnapshot(now, ego, cones, frozenset(observed_ids), active_mode)


# ---------------------------------------------------------------------------
# Snapshot log serialization: newline-delimited JSON, each ConeTable column
# as the base64 of its little-endian bytes


# (log name, ConeTable attribute, little-endian dtype, row shape) of each column
_COLUMNS = (
    ("id", "ids", "<i8", ()),
    ("means_m", "means", "<f8", (2,)),
    ("cov_m2", "covs", "<f8", (2, 2)),
    ("color_evidence", "color_evidence", "<f8", (3,)),
    ("existence", "existence", "<f8", ()),
    ("last_seen_s", "last_seen", "<f8", ()),
)
_HEADER = {
    "kind": "snapshot_log",
    "schema_version": SNAPSHOT_SCHEMA_VERSION,
    "columns": {name: {"dtype": dtype, "shape": list(shape)} for name, _, dtype, shape in _COLUMNS},
}


def _decode_column(cones: dict, name: str, dtype: str, shape: tuple, count: int) -> np.ndarray:
    """One column of a record's ``count`` cones, as a native array of shape ``(count, *shape)``.

    A column that is not a base64 string, or whose bytes do not hold
    ``count`` rows, raises ``ValueError`` naming it.
    """
    text = cones[name]
    if not isinstance(text, str):
        raise ValueError(f"cone column {name} must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"cone column {name} is not valid base64: {exc}") from exc
    expected = count * math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise ValueError(f"cone column {name} holds {len(raw)} bytes, not the {expected} of {count} cones")
    return np.frombuffer(raw, dtype).astype(dtype[1:], copy=False).reshape(count, *shape)


def snapshot_from_dict(data: dict) -> LocalMapSnapshot:
    """One snapshot log record, its columns decoded into a :class:`ConeTable` sorted by id.

    A malformed record raises ``ValueError``: a missing key, a value of the
    wrong type, a column that is not base64 or does not hold ``count`` rows,
    a repeated id, a non-finite number, a covariance whose projection onto
    the SPD cone overflows, color evidence that is negative or lacks a finite
    positive sum, existence outside [0, 1], an ego or time past ``MAX_LOG_COORDINATE_M``
    or ``MAX_SNAPSHOT_TIME_S``, an unknown mode, or observed ids that are not
    a list of integers naming cones of the record.
    """
    try:
        cones, ego, timestamp, observed = (data[key] for key in ("cones", "ego", "timestamp_s", "observed_ids"))
        ego = [ego[key] for key in ("x_m", "y_m", "theta_rad")]
        mode = MapMode(data["mode"])
        count = cones["count"]
        if not (isinstance(count, int) and not isinstance(count, bool) and count >= 0):
            raise ValueError(f"cone count must be a non-negative integer, got {count!r}")
        ids, means, covs, evidence, existence, last_seen = (
            _decode_column(cones, name, dtype, shape, count) for name, _, dtype, shape in _COLUMNS
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed snapshot record: {exc!r}") from exc
    if not (np.isfinite(means).all() and np.isfinite(covs).all() and np.isfinite(last_seen).all()):
        raise ValueError("cone means_m, cov_m2 and last_seen_s must be finite")
    with np.errstate(over="ignore"):
        total = evidence.sum(axis=1)
    if not ((evidence >= 0).all() and ((total > 0) & np.isfinite(total)).all()):
        raise ValueError("cone color_evidence must be non-negative with a finite, positive sum")
    if not ((existence >= 0) & (existence <= 1)).all():
        raise ValueError("cone existence must be in [0, 1]")
    finite = all(map(is_finite_number, [*ego, timestamp]))
    if not (finite and max(map(abs, ego[:2])) <= MAX_LOG_COORDINATE_M and abs(timestamp) <= MAX_SNAPSHOT_TIME_S):
        raise ValueError(
            f"snapshot ego and timestamp_s must be finite numbers, with x_m and y_m within {MAX_LOG_COORDINATE_M:g} m"
            f" of the origin and timestamp_s within {MAX_SNAPSHOT_TIME_S:g} s of zero, got {ego} and {timestamp!r}"
        )
    if not (isinstance(observed, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in observed)):
        raise ValueError(f"snapshot observed_ids must be a list of integers, got {observed!r}")
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if len(repeated):
        raise ValueError(f"cone id repeats in the record: {sorted(set(repeated.tolist()))}")
    stray = set(observed).difference(sorted_ids.tolist())
    if stray:
        raise ValueError(f"snapshot observed_ids name cones not in the record: {sorted(stray)}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            covs = project_spd(covs)
    except FloatingPointError as exc:  # finite entries near the largest float
        raise ValueError(f"cone cov_m2 overflows when projected onto the SPD cone: {exc}") from exc
    cones = ConeTable(ids, means, covs, evidence, existence, last_seen).take(order)
    return LocalMapSnapshot(timestamp, Pose2(*ego), cones, frozenset(observed), mode)


def encode_column(column: np.ndarray, dtype: str) -> str:
    """Base64 text of ``column``'s bytes as ``dtype``, the cell format of the snapshot log and graph.json."""
    return base64.b64encode(column.astype(dtype, copy=False).tobytes()).decode("ascii")


# One snapshot log line: the bytes of ``json.dumps(record, sort_keys=True)``,
# formatted without json's per-character scan of the column text. Base64 text
# needs no escaping, and ``%r`` of a finite Python float is the text json
# writes for it.
_RECORD_LINE = (
    '{"cones": {"color_evidence": "%(color_evidence)s", "count": %(count)d, "cov_m2": "%(cov_m2)s", '
    '"existence": "%(existence)s", "id": "%(id)s", "last_seen_s": "%(last_seen_s)s", "means_m": "%(means_m)s"}, '
    '"ego": {"theta_rad": %(theta_rad)r, "x_m": %(x_m)r, "y_m": %(y_m)r}, "mode": "%(mode)s", '
    '"observed_ids": [%(observed_ids)s], "timestamp_s": %(timestamp_s)r}\n'
)


class SnapshotLogWriter:
    """Writes one snapshot per line, after a header line naming the schema and the column layout."""

    def __init__(self, path: Path | str):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(json.dumps(_HEADER, sort_keys=True) + "\n")

    def write(self, snapshot: LocalMapSnapshot) -> None:
        cones, ego = snapshot.cones, snapshot.ego
        fields = {name: encode_column(getattr(cones, attr), dtype) for name, attr, dtype, _ in _COLUMNS}
        # the filter's ego and time can be numpy floats, whose %r is not json's text
        fields.update(
            count=len(cones),
            theta_rad=float(ego.theta),
            x_m=float(ego.x),
            y_m=float(ego.y),
            mode=snapshot.mode.value,
            observed_ids=", ".join(map(str, sorted(snapshot.observed_ids))),
            timestamp_s=float(snapshot.timestamp),
        )
        self._fh.write(_RECORD_LINE % fields)

    def close(self) -> None:
        self._fh.close()


class SchemaMismatchError(ValueError):
    """Log header differs from what this build writes."""


def read_snapshot_log(path: Path | str) -> list[LocalMapSnapshot]:
    """Read a snapshot log; a malformed last record is read as a truncated tail and dropped.

    Only the last non-empty line can be a truncated tail: a malformed record
    followed by another line raises ``ValueError`` naming its line. A record
    is malformed when it is not UTF-8 JSON, fails :func:`snapshot_from_dict`,
    or is not later than the record before it. Raises
    :class:`SchemaMismatchError` when the header is not this schema's.
    """
    snapshots: list[LocalMapSnapshot] = []
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SchemaMismatchError("snapshot log missing schema header") from exc
        if header != _HEADER:
            raise SchemaMismatchError(f"unsupported snapshot log header on line 1: {header!r}")
        lines = [(number, line) for number, line in enumerate(fh, start=2) if line.strip()]
    for number, line in lines:
        try:
            snapshot = snapshot_from_dict(json.loads(line.decode("utf-8")))
            if snapshots and not snapshot.timestamp > snapshots[-1].timestamp:
                previous = snapshots[-1].timestamp
                raise ValueError(f"timestamp_s {snapshot.timestamp!r} is not after the previous record's {previous!r}")
            snapshots.append(snapshot)
        except ValueError as exc:  # malformed UTF-8, JSON or record
            if number != lines[-1][0]:
                raise ValueError(f"malformed snapshot record on line {number}, before the last line: {exc!r}") from exc
    return snapshots
