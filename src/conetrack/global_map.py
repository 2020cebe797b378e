"""Globally consistent cone map via pose-landmark graph optimization.

Snapshots from the local map append a pose (chained by an odometry edge, the
motion between consecutive snapshot egos) plus body-frame observation edges to
landmarks. New landmarks are created only for cones observed in the latest
frame and close to the car; association first re-uses the local map's stable
cone ids, then falls back to Euclidean matching against existing landmarks.
Loop closure emerges from that re-association when the lap returns to mapped
ground. The joint nonlinear least squares problem is solved by damped
Gauss-Newton iterations on sparse normal equations.
"""

from __future__ import annotations

import array
import itertools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import (
    CLASS_NAMES,
    Bound,
    Pose2,
    body_frame_point,
    check_bounds,
    color_probabilities,
    compose,
    is_finite_number,
    normalize_angle,
    relative_pose,
    transform_point,
)
from .local_map import LocalMapSnapshot, encode_column

GRAPH_SCHEMA_VERSION = 2

# one row per edge; odometry row k links pose k to pose k + 1. Every edge's information matrix is diagonal: an
# odometry edge holds its diagonal, an observation edge, whose noise is isotropic, the one value on its diagonal
ODOMETRY_EDGE = np.dtype([("relative", float, (3,)), ("information", float, (3,))])
OBSERVATION_EDGE = np.dtype([("pose", np.intp), ("landmark", np.intp), ("measurement", float, (2,)), ("information", float)])
# one row per local cone id linked to a landmark, with that id's colour evidence
LINK = np.dtype([("local_id", np.int64), ("landmark", np.intp), ("evidence", float, (3,))])


class GraphStructureError(ValueError):
    """Graph is structurally under-determined beyond the gauge freedom."""


# Noise sigma limits: over snapshot gaps of 1 ms to 2 * MAX_SNAPSHOT_TIME_S, an odometry edge's information,
# 1 / (rate^2 gap), stays a finite positive float, and the square of the observation sigma floor stays finite
MIN_SIGMA_RATE = 1e-9
MAX_NOISE_SIGMA = 1e9

_CONFIG_BOUNDS = {
    "proximity_radius_m": Bound(0.0, low_ok=False),
    "association_radius_m": Bound(0.0, low_ok=False),
    "odometry_sigma_rates": Bound(MIN_SIGMA_RATE, MAX_NOISE_SIGMA, count=3),
    "observation_sigma_floor_m": Bound(0.0, MAX_NOISE_SIGMA),
    "max_iterations": Bound(1, integer=True),
    "relative_tolerance": Bound(0.0),
    "absolute_cost_floor": Bound(0.0),
    "initial_lambda": Bound(0.0, low_ok=False),
    "lambda_up": Bound(1.0, low_ok=False),
    "lambda_down": Bound(0.0, 1.0, low_ok=False),
    "max_lambda_steps": Bound(1, integer=True),
    "export_min_edges": Bound(0, integer=True),
}


@dataclass(frozen=True)
class GlobalMapConfig:
    proximity_radius_m: float = 8.0  # only near cones become landmarks
    association_radius_m: float = 1.5  # Euclidean landmark re-association gate
    odometry_sigma_rates: tuple[float, float, float] = (0.08, 0.08, 0.012)  # per sqrt-second
    # consecutive virtual measurements of one cone share the filter's error;
    # the floor keeps their stacked information from overwhelming odometry
    observation_sigma_floor_m: float = 0.15
    max_iterations: int = 100
    relative_tolerance: float = 1e-8
    absolute_cost_floor: float = 1e-20
    initial_lambda: float = 1e-6
    lambda_up: float = 10.0
    lambda_down: float = 0.25
    max_lambda_steps: int = 10
    # landmarks with fewer observation edges than this are dropped at export
    # (transient association outliers die young)
    export_min_edges: int = 1

    def __post_init__(self) -> None:
        check_bounds("global map", self, _CONFIG_BOUNDS)
        if self.lambda_down == 1.0:  # a damping that never relaxes
            raise ValueError("global map lambda_down must be below 1.0, got 1.0")


@dataclass
class OptimizeResult:
    poses: np.ndarray  # (n, 3) solved (x, y, theta), row k = pose k
    landmarks: np.ndarray  # (m, 2) solved positions
    final_cost: float
    iterations: int
    converged: bool
    message: str


class _Rows:
    """A growable array: ``rows`` views the filled prefix of a buffer whose
    capacity doubles when an append overflows it."""

    def __init__(self, dtype, row_shape: tuple[int, ...] = ()):
        self._buffer = np.zeros((16, *row_shape), dtype)
        self.rows = self._buffer[:0]

    def append(self, new) -> None:
        self.grow(len(new))[...] = new

    def grow(self, count: int) -> np.ndarray:
        """Add ``count`` rows of zeros at the end; returns them, to be filled in place."""
        n = len(self.rows)
        end = n + count
        if end > len(self._buffer):
            grown = np.zeros((max(end, 2 * len(self._buffer)), *self._buffer.shape[1:]), self._buffer.dtype)
            grown[:n] = self.rows
            self._buffer = grown
        self.rows = self._buffer[:end]
        return self.rows[n:]


class _QueuedRows:
    """Pose and edge rows not yet in the graph's arrays, as flat ``array.array`` columns:
    eight bytes a value and no Python object a row."""

    def __init__(self) -> None:
        self.poses = array.array("d")  # x, y, theta a pose
        self.relative = array.array("d")  # x, y, theta an odometry edge
        self.odometry_information = array.array("d")  # 3 an odometry edge: its information's diagonal
        self.observation_pose = array.array("q")
        self.landmark = array.array("q")
        self.measurement = array.array("d")  # 2 an observation edge
        self.variance = array.array("d")  # 1 an observation edge


class Graph:
    """Pose-landmark graph held as arrays; single writer, grown in place.

    ``poses`` (n, 3) holds pose k as (x, y, theta) in row k, pose 0 being the
    gauge; ``landmarks`` (m, 2) the landmark positions; ``odometry_edges``
    (``ODOMETRY_EDGE`` rows) the motion from pose k to k + 1 in row k;
    ``observation_edges`` (``OBSERVATION_EDGE`` rows) body-frame landmark
    measurements. ``links`` (``LINK`` rows, in link order) ties each local
    cone id to one landmark and holds that id's latest (blue, yellow,
    unknown) colour evidence; ``link_index`` maps a local id to its row.
    ``last_timestamp`` and ``last_ego`` are those of the last snapshot added,
    from which the next one's odometry edge is taken, and ``last_pose`` is
    the last pose added or merged, from which the next pose is chained.
    :func:`optimize` reads the arrays; :meth:`merge_estimates` writes a solve
    back.

    :meth:`add_pose` and :meth:`add_observations` queue their rows as they
    come; the pose and edge arrays take the queue in one block each when one
    of them is next read.
    """

    def __init__(self) -> None:
        self._poses = _Rows(float, (3,))
        self._landmarks = _Rows(float, (2,))
        self._links = _Rows(LINK)
        self._odometry = _Rows(ODOMETRY_EDGE)
        self._observations = _Rows(OBSERVATION_EDGE)
        self._queued = _QueuedRows()
        self.link_index: dict[int, int] = {}
        self.pose_count = 0
        self.last_pose: Pose2 | None = None
        self.last_timestamp: float | None = None
        self.last_ego: Pose2 | None = None
        self.optimized = False

    @property
    def poses(self) -> np.ndarray:
        self._build_queued()
        return self._poses.rows

    @property
    def landmarks(self) -> np.ndarray:
        return self._landmarks.rows

    @property
    def links(self) -> np.ndarray:
        return self._links.rows

    @property
    def odometry_edges(self) -> np.ndarray:
        self._build_queued()
        return self._odometry.rows

    @property
    def observation_edges(self) -> np.ndarray:
        self._build_queued()
        return self._observations.rows

    def add_pose(self, pose: Pose2, odometry: Pose2 | None = None, information=None) -> None:
        """Queue a pose; each pose after the first comes with the odometry edge from its predecessor
        and the three values on the diagonal of that edge's information matrix."""
        if (odometry is None) != (self.last_pose is None):
            raise ValueError("every pose but the first is chained to its predecessor by one odometry edge")
        self._queued.poses.extend((pose.x, pose.y, pose.theta))
        if odometry is not None:
            self._queued.relative.extend((odometry.x, odometry.y, odometry.theta))
            self._queued.odometry_information.extend(information)
        self.pose_count += 1
        self.last_pose = pose

    def add_landmarks(self, positions) -> np.ndarray:
        """Append (k, 2) landmark positions; returns their rows."""
        start = len(self.landmarks)
        self._landmarks.append(np.reshape(positions, (-1, 2)))
        return np.arange(start, len(self.landmarks))

    def add_links(self, local_ids, landmarks, evidence) -> None:
        """Link distinct local cone ids, none linked yet, to landmark rows, with (k, 3) colour evidence."""
        rows = np.zeros(len(local_ids), LINK)
        rows["local_id"] = local_ids
        rows["landmark"] = landmarks
        rows["evidence"] = np.reshape(evidence, (-1, 3))
        start = len(self.links)
        self._links.append(rows)
        self.link_index.update(zip(local_ids, range(start, start + len(local_ids))))

    def colors(self) -> np.ndarray:
        """(m, 3) colour probabilities of the landmarks: each one's links'
        evidence added into zeros in link order, by ``np.add.at``."""
        totals = np.zeros((len(self.landmarks), 3))
        np.add.at(totals, self.links["landmark"], self.links["evidence"])
        return color_probabilities(totals)

    def add_observations(self, pose, landmark, measurement, variances) -> None:
        """Queue k observation edges: a pose row, or one per edge, landmark rows, (k, 2) measurements and
        the (k,) variances of their isotropic noise, each edge's information being ``1.0 / variance``."""
        queued, count = self._queued, len(landmark)
        queued.observation_pose.extend(itertools.repeat(pose, count) if np.ndim(pose) == 0 else pose)
        queued.landmark.frombytes(np.asarray(landmark, np.int64).tobytes())
        queued.measurement.frombytes(np.asarray(measurement, float).tobytes())
        queued.variance.frombytes(np.asarray(variances, float).tobytes())

    def _build_queued(self) -> None:
        """Write the queued poses and edges into their arrays, one block per array, and empty the queue."""
        queued = self._queued
        if not (queued.poses or queued.observation_pose):
            return
        self._queued = _QueuedRows()
        self._poses.append(np.frombuffer(queued.poses, float).reshape(-1, 3))
        edges = self._odometry.grow(len(queued.relative) // 3)
        edges["relative"] = np.frombuffer(queued.relative, float).reshape(-1, 3)
        edges["information"] = np.frombuffer(queued.odometry_information, float).reshape(-1, 3)
        edges = self._observations.grow(len(queued.observation_pose))
        edges["pose"] = np.frombuffer(queued.observation_pose, np.int64)
        edges["landmark"] = np.frombuffer(queued.landmark, np.int64)
        edges["measurement"] = np.frombuffer(queued.measurement, float).reshape(-1, 2)
        edges["information"] = 1.0 / np.frombuffer(queued.variance, float)

    def merge_estimates(self, result: OptimizeResult) -> None:
        """Commit a solve of this graph: its poses and landmarks overwrite the graph's.

        Headings are normalized as :class:`Pose2` normalizes them.
        """
        self.poses[:, :2] = result.poses[:, :2]
        self.poses[:, 2] = [normalize_angle(theta) for theta in result.poses[:, 2].tolist()]
        self.landmarks[:] = result.landmarks
        if len(self.poses):
            self.last_pose = _row_pose(self.poses[-1])
        self.optimized = True


def _row_pose(row: np.ndarray) -> Pose2:
    """The pose a row of ``Graph.poses`` holds; ``Pose2(*row)`` would normalize
    the heading a second time, which can change its last bit."""
    pose = Pose2(float(row[0]), float(row[1]), 0.0)
    object.__setattr__(pose, "theta", float(row[2]))
    return pose


def add_snapshot(graph: Graph, snapshot: LocalMapSnapshot, config: GlobalMapConfig = GlobalMapConfig()) -> Graph:
    """Append one local-map snapshot to the graph (mutates and returns it).

    The first snapshot's pose is the identity; each later one is chained to
    its predecessor by the odometry edge ``relative_pose(previous ego, ego)``.
    Each observed cone within the proximity radius becomes an observation
    edge; a new local id is linked by :func:`_associate_landmarks` or to a new landmark.
    """
    if graph.last_timestamp is not None and snapshot.timestamp <= graph.last_timestamp:
        raise ValueError(f"snapshot at {snapshot.timestamp} s arrived after {graph.last_timestamp} s")
    ego = snapshot.ego
    if graph.last_ego is None:
        pose = Pose2.identity()
        graph.add_pose(pose)
    else:
        odometry = relative_pose(graph.last_ego, ego)
        pose = compose(graph.last_pose, odometry)
        dt_f = max(snapshot.timestamp - graph.last_timestamp, 1e-3)
        graph.add_pose(pose, odometry, [1.0 / (sigma * sigma * dt_f) for sigma in config.odometry_sigma_rates])
    graph.last_timestamp, graph.last_ego = snapshot.timestamp, ego

    cones = snapshot.cones
    ids = cones.ids.tolist()
    observed = [k for k, cid in enumerate(ids) if cid in snapshot.observed_ids]
    offsets = (cones.means[observed] - ego.position).tolist()
    # math.hypot, not np.hypot: the two can differ in the last bit
    rows = [k for k, (dx, dy) in zip(observed, offsets) if not math.hypot(dx, dy) > config.proximity_radius_m]
    measurements = body_frame_point(ego, cones.means[rows])
    evidence = cones.color_evidence[rows]
    link_rows = [graph.link_index.get(ids[k]) for k in rows]
    old = [j for j, row in enumerate(link_rows) if row is not None]
    new = [j for j, row in enumerate(link_rows) if row is None]
    linked = [link_rows[j] for j in old]
    graph.links["evidence"][linked] = evidence[old]
    landmarks = np.empty(len(rows), np.intp)
    landmarks[old] = graph.links["landmark"][linked]
    if new:
        world_guesses = transform_point(pose, measurements[new])
        matched = _associate_landmarks(graph, world_guesses, evidence[new], ids, config.association_radius_m)
        unmatched = matched < 0
        matched[unmatched] = graph.add_landmarks(world_guesses[unmatched])
        graph.add_links([ids[rows[j]] for j in new], matched, evidence[new])
        landmarks[new] = matched
    floor = config.observation_sigma_floor_m**2
    variances = np.maximum((cones.covs[rows, 0, 0] + cones.covs[rows, 1, 1]) / 2.0, floor)
    graph.add_observations(graph.pose_count - 1, landmarks, measurements, variances)
    return graph


def _associate_landmarks(graph: Graph, points: np.ndarray, evidence: np.ndarray, live_ids, radius: float) -> np.ndarray:
    """The landmark each new cone, a row of ``points`` (k, 2) and of ``evidence`` (k, 3), re-associates with, or -1.

    In row order, each cone takes the nearest compatible landmark within the
    merge radius; the highest id wins a tie. Compatible: not linked to a cone
    in ``live_ids`` (the local map already separated those), not taken by an
    earlier cone, and of the same dominant colour class, so a drifted revisit
    cannot collapse differently-coloured neighbours.
    """
    matched = np.full(len(points), -1, np.intp)
    dx = graph.landmarks[:, 0] - points[:, :1]
    dy = graph.landmarks[:, 1] - points[:, 1:]
    # a landmark outside the box around a point is outside the radius too
    inside = (np.abs(dx) <= radius) & (np.abs(dy) <= radius)
    inside[:, graph.links["landmark"][[row for row in map(graph.link_index.get, live_ids) if row is not None]]] = False
    if inside.any():  # the classes only for a batch whose boxes hold a landmark
        inside &= graph.colors().argmax(axis=1) == color_probabilities(evidence).argmax(axis=1)[:, None]
    cone, landmark = np.nonzero(inside)
    taken: set[int] = set()
    for i, pairs in itertools.groupby(zip(cone.tolist(), landmark.tolist()), key=operator.itemgetter(0)):
        # the nearest, a tie to the highest id; math.hypot, not np.hypot: the two can differ in the last bit
        d, best = min(((math.hypot(dx[i, lm], dy[i, lm]), -lm) for _, lm in pairs if lm not in taken), default=(math.inf, 0))
        if d <= radius:
            taken.add(-best)
            matched[i] = -best
    return matched


# ---------------------------------------------------------------------------
# Residuals and Jacobians


def _odometry_batch(pi: np.ndarray, pj: np.ndarray, z: np.ndarray, jac: bool):
    """Residuals of odometry edges, one row each: measured increment vs estimated increment.

    The pose difference is mapped to a (dx, dy, dtheta) vector with the angle
    normalized, the conventional pose-graph parameterization. With ``jac``,
    also the Jacobians with respect to pose i and pose j.
    """
    ci, si = np.cos(pi[:, 2]), np.sin(pi[:, 2])
    cz, sz = np.cos(z[:, 2]), np.sin(z[:, 2])
    dx = pj[:, 0] - pi[:, 0]
    dy = pj[:, 1] - pi[:, 1]
    # increment expressed in pose i's frame
    ax = ci * dx + si * dy
    ay = -si * dx + ci * dy
    rx = cz * (ax - z[:, 0]) + sz * (ay - z[:, 1])
    ry = -sz * (ax - z[:, 0]) + cz * (ay - z[:, 1])
    rt = pj[:, 2] - pi[:, 2] - z[:, 2]
    rt = np.arctan2(np.sin(rt), np.cos(rt))
    res = np.stack([rx, ry, rt], axis=1)
    if not jac:
        return res, (None, None)
    n = len(pi)
    ji = np.zeros((n, 3, 3))
    jj = np.zeros((n, 3, 3))
    # A = Rz^T Ri^T
    a00 = cz * ci + sz * -si
    a01 = cz * si + sz * ci
    a10 = -sz * ci + cz * -si
    a11 = -sz * si + cz * ci
    ji[:, 0, 0], ji[:, 0, 1] = -a00, -a01
    ji[:, 1, 0], ji[:, 1, 1] = -a10, -a11
    jj[:, 0, 0], jj[:, 0, 1] = a00, a01
    jj[:, 1, 0], jj[:, 1, 1] = a10, a11
    # d(Ri^T)/dtheta applied to (pj - pi), then rotated by Rz^T
    bx = -si * dx + ci * dy
    by = -ci * dx - si * dy
    ji[:, 0, 2] = cz * bx + sz * by
    ji[:, 1, 2] = -sz * bx + cz * by
    ji[:, 2, 2] = -1.0
    jj[:, 2, 2] = 1.0
    return res, (ji, jj)


def _observation_batch(pose: np.ndarray, lm: np.ndarray, z: np.ndarray, jac: bool):
    """Residuals of observation edges, one row each: body-frame measurement minus prediction.

    With ``jac``, also the Jacobians with respect to the pose and the landmark.
    """
    c, s = np.cos(pose[:, 2]), np.sin(pose[:, 2])
    dx = lm[:, 0] - pose[:, 0]
    dy = lm[:, 1] - pose[:, 1]
    hx = c * dx + s * dy
    hy = -s * dx + c * dy
    res = np.stack([z[:, 0] - hx, z[:, 1] - hy], axis=1)
    if not jac:
        return res, (None, None)
    n = len(pose)
    jp = np.zeros((n, 2, 3))
    jl = np.zeros((n, 2, 2))
    # dr/dp = R^T, dr/dl = -R^T
    jp[:, 0, 0], jp[:, 0, 1] = c, s
    jp[:, 1, 0], jp[:, 1, 1] = -s, c
    jl[:, 0, 0], jl[:, 0, 1] = -c, -s
    jl[:, 1, 0], jl[:, 1, 1] = s, -c
    # dr/dtheta = -d(R^T)/dtheta (l - p)
    jp[:, 0, 2] = -(-s * dx + c * dy)
    jp[:, 1, 2] = -(-c * dx - s * dy)
    return res, (jp, jl)


# ---------------------------------------------------------------------------
# Solver


def _check_structure(graph: Graph) -> None:
    if not len(graph.poses):
        raise GraphStructureError("graph has no pose nodes")
    edge_counts = np.bincount(graph.observation_edges["landmark"], minlength=len(graph.landmarks))
    if not edge_counts.all():
        missing = np.flatnonzero(edge_counts == 0).tolist()
        raise GraphStructureError(f"landmarks without observation edges: {missing}")


def _row_weights(odometry: np.ndarray, observations: np.ndarray) -> np.ndarray:
    """Each residual row's weight, in :func:`_assemble`'s row order: the square root of its information, which
    for a diagonal information matrix is its Cholesky factor's diagonal entry."""
    return np.concatenate([np.sqrt(odometry["information"]).ravel(), np.repeat(np.sqrt(observations["information"]), 2)])


class _JacobianPattern(NamedTuple):
    """The CSR pattern of a graph's Jacobian, fixed while its edges are.

    Entry ``order[k]`` of the concatenated unwhitened blocks (see
    :func:`_assemble`) is the Jacobian's ``k``-th stored value, which lies
    in residual row ``rows[k]``; ``indices`` and ``indptr`` are the CSR
    column indices and row pointers. All four are int32.
    """

    order: np.ndarray
    rows: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def _jacobian_pattern(n_poses: int, n_landmarks: int, odometry: np.ndarray, observations: np.ndarray) -> _JacobianPattern:
    """The Jacobian pattern of a graph's edges.

    Variable layout: poses 1..n-1 as (x, y, theta) blocks, then landmarks as
    (x, y) blocks. Each edge's residual rows follow the last edge's, odometry
    edges first; its two Jacobian blocks, raveled row-major, follow in the
    order :func:`_assemble` concatenates them. Pose 0 is the fixed gauge: its
    blocks fall at negative columns and are left out. The rest are ordered
    by row, then column. No (row, column) pair repeats, so the matrix is the
    one a COO-to-CSR conversion of the same entries gives, bit for bit.
    """
    n_pose_vars = 3 * (n_poses - 1)
    oi = np.arange(len(odometry))
    pidx, lidx = observations["pose"], observations["landmark"]
    obs_rows = 3 * len(odometry) + 2 * np.arange(len(observations))
    blocks = (  # (first row, first column, height, width) of each block, per edge
        (3 * oi, 3 * (oi - 1), 3, 3),
        (3 * oi, 3 * oi, 3, 3),
        (obs_rows, 3 * (pidx - 1), 2, 3),
        (obs_rows, n_pose_vars + 2 * lidx, 2, 2),
    )
    rows = np.concatenate([(r[:, None] + np.repeat(np.arange(h), w)).ravel() for r, _, h, w in blocks])
    cols = np.concatenate([(c[:, None] + np.tile(np.arange(w), h)).ravel() for _, c, h, w in blocks])
    free = np.flatnonzero(cols >= 0)
    order = free[np.lexsort((cols[free], rows[free]))]
    n_rows = 3 * len(odometry) + 2 * len(observations)
    indptr = np.zeros(n_rows + 1, np.int32)
    np.cumsum(np.bincount(rows[order], minlength=n_rows), out=indptr[1:])
    shape = (n_rows, n_pose_vars + 2 * n_landmarks)
    value_rows = np.repeat(np.arange(n_rows, dtype=np.int32), np.diff(indptr))
    return _JacobianPattern(order.astype(np.int32), value_rows, cols[order].astype(np.int32), indptr, shape)


def _assemble(poses, lms, odometry: np.ndarray, observations: np.ndarray, weights: np.ndarray, pattern=None):
    """Residual vector whitened by the :func:`_row_weights` and, given the edges'
    :func:`_jacobian_pattern`, the sparse Jacobian whitened by the same weights."""
    jac = pattern is not None
    pidx, lidx = observations["pose"], observations["landmark"]
    odo_res, odo_jac = _odometry_batch(poses[:-1], poses[1:], odometry["relative"], jac)  # edge k: pose k to k + 1
    obs_res, obs_jac = _observation_batch(poses[pidx], lms[lidx], observations["measurement"], jac)
    residuals = np.concatenate([odo_res.ravel(), obs_res.ravel()]) * weights
    if not jac:
        return residuals, None
    values = np.concatenate([block.ravel() for block in (*odo_jac, *obs_jac)])[pattern.order] * weights[pattern.rows]
    return residuals, sp.csr_matrix((values, pattern.indices, pattern.indptr), shape=pattern.shape)


def _factor(damped: sp.csc_matrix):
    """Sparse LU of the damped normal matrix in SuperLU's symmetric mode.

    The matrix is symmetric positive definite: a minimum-degree ordering of
    its pattern with pivots kept on the diagonal (a sparse Cholesky in LU
    form) fills in far less than a column ordering with partial pivoting.
    """
    return splu(damped, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _apply_step(poses: np.ndarray, lms: np.ndarray, delta: np.ndarray):
    new_poses = poses.copy()
    n_pose_vars = 3 * (len(poses) - 1)
    if n_pose_vars:
        new_poses[1:] += delta[:n_pose_vars].reshape(-1, 3)
        new_poses[1:, 2] = np.arctan2(np.sin(new_poses[1:, 2]), np.cos(new_poses[1:, 2]))
    new_lms = lms.copy()
    if len(lms):
        new_lms += delta[n_pose_vars:].reshape(-1, 2)
    return new_poses, new_lms


def residual_cost(residuals: np.ndarray) -> float:
    """The graph cost of whitened residuals: their squares summed by numpy's pairwise ``add.reduce``.

    Not ``residuals @ residuals``: above 10,000 entries OpenBLAS splits that
    dot product across threads, so its last bits would follow the thread
    count, and the woken threads keep spinning after the call.
    """
    return float(np.add.reduce(residuals * residuals))


def optimize(graph: Graph, config: GlobalMapConfig = GlobalMapConfig()) -> OptimizeResult:
    """Damped Gauss-Newton on the full graph; returns the solved estimates.

    The graph is read, not changed: :meth:`Graph.merge_estimates` commits the
    result. The first pose is held fixed as the gauge. Iterations stop when
    the relative cost decrease falls under the configured tolerance, the
    damping stalls, or the iteration budget runs out; accepted steps never
    increase the cost.
    """
    _check_structure(graph)
    odometry, observations = graph.odometry_edges, graph.observation_edges
    weights = _row_weights(odometry, observations)
    poses, lms = graph.poses.copy(), graph.landmarks.copy()

    def total_cost(p, l):
        res, _ = _assemble(p, l, odometry, observations, weights)
        return residual_cost(res)

    cost = total_cost(poses, lms)
    if 3 * (len(poses) - 1) + 2 * len(lms) == 0 or cost < config.absolute_cost_floor:
        return OptimizeResult(poses, lms, cost, 0, True, "already at a zero-residual configuration")
    lam = config.initial_lambda
    pattern = _jacobian_pattern(len(poses), len(lms), odometry, observations)
    for iterations in range(1, config.max_iterations + 1):
        residuals, jacobian = _assemble(poses, lms, odometry, observations, weights, pattern)
        hess = (jacobian.T @ jacobian).tocsc()
        grad = jacobian.T @ residuals
        # the Jacobian goes once the normal equations hold it, and they
        # go before the next assembly: no two steps' matrices coexist
        del residuals, jacobian
        diag = np.maximum(hess.diagonal(), 1e-9)
        prev_cost = cost
        for _ in range(config.max_lambda_steps):
            try:
                delta = _factor(hess + sp.diags(lam * diag)).solve(-grad)
            except RuntimeError:  # a singular damped system
                delta = None
            if delta is not None and np.all(np.isfinite(delta)):
                cand_poses, cand_lms = _apply_step(poses, lms, delta)
                cand_cost = total_cost(cand_poses, cand_lms)
                if cand_cost < cost:
                    poses, lms, cost = cand_poses, cand_lms, cand_cost
                    lam = max(lam * config.lambda_down, 1e-12)
                    break
            lam *= config.lambda_up  # the step failed or did not lower the cost
        else:
            return OptimizeResult(poses, lms, cost, iterations, True, "damping stalled at a local minimum")
        del hess, diag
        if cost < config.absolute_cost_floor:
            return OptimizeResult(poses, lms, cost, iterations, True, "cost below absolute floor")
        if (prev_cost - cost) / max(prev_cost, 1e-300) < config.relative_tolerance:
            return OptimizeResult(poses, lms, cost, iterations, True, "relative cost decrease below tolerance")
    return OptimizeResult(poses, lms, cost, config.max_iterations, False, "iteration budget exhausted")


def residual_summary(graph: Graph) -> dict:
    """Post-solve map health from the graph's estimates: the largest
    observation residual in metres, the count of residuals over 0.5 m (a
    suspect association) and the sorted landmark ids those edges touch."""
    edges = graph.observation_edges
    residuals, _ = _observation_batch(
        graph.poses[edges["pose"]], graph.landmarks[edges["landmark"]], edges["measurement"], jac=False
    )
    lengths = np.hypot(residuals[:, 0], residuals[:, 1])
    over = lengths > 0.5
    return {
        "max_residual_m": float(lengths.max(initial=0.0)),
        "residuals_over_0_5m": int(over.sum()),
        "residual_landmarks_over_0_5m": sorted(set(edges["landmark"][over].tolist())),
    }


def export_map(graph: Graph, min_edges: int = 1) -> list[dict]:
    """Landmark positions and merged colors as JSON-ready records.

    ``min_edges`` drops landmarks observed fewer times than stated.
    """
    edge_counts = np.bincount(graph.observation_edges["landmark"], minlength=len(graph.landmarks)).tolist()
    colors = graph.colors()
    return [
        {"id": i, "x_m": x, "y_m": y, "color": CLASS_NAMES[k], "p_blue": p_blue, "p_yellow": p_yellow, "p_unknown": p_unknown}
        for i, ((x, y), (p_blue, p_yellow, p_unknown), k) in enumerate(
            zip(graph.landmarks.tolist(), colors.tolist(), colors.argmax(axis=1).tolist())
        )
        if edge_counts[i] >= min_edges
    ]


def save_map(records: list[dict], path: Path | str) -> None:
    Path(path).write_text(json.dumps(records, sort_keys=True))


def load_map(path: Path | str) -> list[dict]:
    """Read an exported map; raises ``ValueError`` naming a record that is not an object with finite ``x_m`` and ``y_m``."""
    records = json.loads(Path(path).read_text())
    if not isinstance(records, list):
        raise ValueError("a map must be a JSON list of landmark records")
    for k, record in enumerate(records):
        if not (isinstance(record, dict) and is_finite_number(record.get("x_m")) and is_finite_number(record.get("y_m"))):
            raise ValueError(f"map record {k} needs finite numeric x_m and y_m: {record!r}")
    return records


def save_graph(graph: Graph, path: Path | str) -> None:
    """Write ``graph.json`` (schema 2): a header naming each array column's
    dtype and shape, and each column as the base64 of its little-endian bytes.

    Each link is a colour evidence row, in landmark order and then link
    order, and a local link row, in local id order. Each edge's information
    is written as its full matrix, zero off the diagonal.
    """
    links = graph.links
    by_landmark = links[links["landmark"].argsort(kind="stable")]
    by_local_id = links[links["local_id"].argsort(kind="stable")]
    odometry, observations = graph.odometry_edges, graph.observation_edges
    columns = {
        "poses": (graph.poses, "<f8"),
        "landmarks": (graph.landmarks, "<f8"),
        "odometry_relative": (odometry["relative"], "<f8"),
        "odometry_information": (odometry["information"][:, :, None] * np.eye(3), "<f8"),
        "observation_pose": (observations["pose"], "<i8"),
        "observation_landmark": (observations["landmark"], "<i8"),
        "observation_measurement_m": (observations["measurement"], "<f8"),
        "observation_information": (observations["information"][:, None, None] * np.eye(2), "<f8"),
        "color_evidence_landmark": (by_landmark["landmark"], "<i8"),
        "color_evidence_local_id": (by_landmark["local_id"], "<i8"),
        "color_evidence": (by_landmark["evidence"], "<f8"),
        "local_link_id": (by_local_id["local_id"], "<i8"),
        "local_link_landmark": (by_local_id["landmark"], "<i8"),
    }
    document = {
        "kind": "pose_landmark_graph",
        "schema_version": GRAPH_SCHEMA_VERSION,
        "optimized": graph.optimized,
        "last_timestamp_s": graph.last_timestamp,
        "columns": {name: {"dtype": dtype, "shape": list(column.shape)} for name, (column, dtype) in columns.items()},
        "data": {name: encode_column(column, dtype) for name, (column, dtype) in columns.items()},
    }
    Path(path).write_text(json.dumps(document))
