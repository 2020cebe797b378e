"""Globally consistent cone map via pose-landmark graph optimization.

Snapshots from the local map append a pose (chained by an odometry edge
integrated from the velocity estimate) plus body-frame observation edges to
landmarks. New landmarks are created only for cones observed in the latest
frame and close to the car; association first re-uses the local map's stable
cone ids, then falls back to Euclidean matching against existing landmarks.
Loop closure emerges from that re-association when the lap returns to mapped
ground. The joint nonlinear least squares problem is solved by damped
Gauss-Newton iterations on sparse normal equations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import (
    ColorDistribution,
    ConeClass,
    Pose2,
    body_frame_point,
    check_range,
    compose,
    normalize_angle,
    transform_point,
)
from .local_map import LocalMapSnapshot

GRAPH_SCHEMA_VERSION = 1

# one row per edge; odometry row k links pose k to pose k + 1
ODOMETRY_EDGE = np.dtype([("relative", float, (3,)), ("information", float, (3, 3))])
OBSERVATION_EDGE = np.dtype(
    [("pose", np.intp), ("landmark", np.intp), ("measurement", float, (2,)), ("information", float, (2, 2))]
)
# landmark class codes, in ColorDistribution.argmax_class order
_CLASSES = (ConeClass.BLUE, ConeClass.YELLOW, ConeClass.UNKNOWN)


class GraphStructureError(ValueError):
    """Graph is structurally under-determined beyond the gauge freedom."""


# (field, lowest, highest, whether the lowest value itself is allowed)
_CONFIG_RANGES = (
    ("proximity_radius_m", 0.0, math.inf, False),
    ("association_radius_m", 0.0, math.inf, False),
    ("observation_sigma_floor_m", 0.0, math.inf, True),
    ("relative_tolerance", 0.0, math.inf, True),
    ("absolute_cost_floor", 0.0, math.inf, True),
    ("initial_lambda", 0.0, math.inf, False),
    ("lambda_up", 1.0, math.inf, False),
    ("lambda_down", 0.0, 1.0, False),
)


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
    optimize_every: int = 10  # snapshots between incremental optimizations; 0 leaves only the final solve
    # landmarks with fewer observation edges than this are dropped at export
    # (transient association outliers die young)
    export_min_edges: int = 1

    def __post_init__(self) -> None:
        for name, low, high, low_ok in _CONFIG_RANGES:
            check_range(f"global map {name}", getattr(self, name), low, high, low_ok)
        if self.lambda_down == 1.0:  # a damping that never relaxes
            raise ValueError("global map lambda_down must be below 1.0, got 1.0")
        rates = self.odometry_sigma_rates
        if not (isinstance(rates, (tuple, list)) and len(rates) == 3):
            raise ValueError(f"global map odometry_sigma_rates must be three rates, got {rates!r}")
        for rate in rates:
            check_range("global map odometry_sigma_rates", rate, 0.0, math.inf, False)
        for name, low in (("max_iterations", 1), ("max_lambda_steps", 1), ("optimize_every", 0), ("export_min_edges", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"global map {name} must be an integer >= {low}, got {value!r}")


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
        n = len(self.rows)
        end = n + len(new)
        if end > len(self._buffer):
            grown = np.zeros((max(end, 2 * len(self._buffer)), *self._buffer.shape[1:]), self._buffer.dtype)
            grown[:n] = self.rows
            self._buffer = grown
        self._buffer[n:end] = new
        self.rows = self._buffer[:end]


class Graph:
    """Pose-landmark graph held as arrays; single writer, grown in place.

    ``poses`` (n, 3) holds pose k as (x, y, theta) in row k, pose 0 being the
    gauge; ``landmarks`` (m, 2) the landmark positions; ``odometry_edges``
    (``ODOMETRY_EDGE`` rows) the motion from pose k to k + 1 in row k;
    ``observation_edges`` (``OBSERVATION_EDGE`` rows) body-frame landmark
    measurements. ``color_evidence[i]`` is landmark i's ``{local cone id:
    evidence}`` in link order, its dominant class cached beside it.
    :func:`optimize` reads the arrays; :meth:`merge_estimates` writes a solve back.
    """

    def __init__(self) -> None:
        self._poses = _Rows(float, (3,))
        self._landmarks = _Rows(float, (2,))
        self._classes = _Rows(np.int8)
        self._odometry = _Rows(ODOMETRY_EDGE)
        self._observations = _Rows(OBSERVATION_EDGE)
        self.color_evidence: list[dict[int, np.ndarray]] = []
        self.local_links: dict[int, int] = {}
        self.last_timestamp: float | None = None
        self.optimized = False

    @property
    def poses(self) -> np.ndarray:
        return self._poses.rows

    @property
    def landmarks(self) -> np.ndarray:
        return self._landmarks.rows

    @property
    def odometry_edges(self) -> np.ndarray:
        return self._odometry.rows

    @property
    def observation_edges(self) -> np.ndarray:
        return self._observations.rows

    def add_pose(self, pose: Pose2, odometry: Pose2 | None = None, information=None) -> None:
        """Append a pose; each pose after the first comes with the odometry edge from its predecessor."""
        if (odometry is None) != (len(self.poses) == 0):
            raise ValueError("every pose but the first is chained to its predecessor by one odometry edge")
        self._poses.append([pose.as_array()])
        if odometry is not None:
            self._odometry.append(np.array([(odometry.as_array(), information)], ODOMETRY_EDGE))

    def add_landmark(self, position: np.ndarray) -> int:
        """Append a landmark without color evidence; returns its row."""
        self._landmarks.append([position])
        self._classes.append([_CLASSES.index(ConeClass.UNKNOWN)])
        self.color_evidence.append({})
        return len(self.landmarks) - 1

    def update_color(self, landmark: int, local_id: int, evidence: np.ndarray) -> None:
        """Set local cone ``local_id``'s color evidence for ``landmark`` and refresh its class."""
        merged = self.color_evidence[landmark]
        merged[local_id] = np.array(evidence)  # a row view would keep its whole snapshot block alive
        self._classes.rows[landmark] = _CLASSES.index(_merged_color(merged).argmax_class())

    def add_observations(self, pose, landmark, measurement, information) -> None:
        """Append observation edges: pose rows, landmark rows, (k, 2) measurements, (k, 2, 2) information."""
        edges = np.zeros(len(landmark), OBSERVATION_EDGE)
        edges["pose"] = pose
        edges["landmark"] = landmark
        edges["measurement"] = np.reshape(measurement, (-1, 2))
        edges["information"] = np.reshape(information, (-1, 2, 2))
        self._observations.append(edges)

    def merge_estimates(self, result: OptimizeResult) -> None:
        """Commit a solve: its poses and landmarks overwrite the first rows of this graph's.

        Rows added after the solved graph was read keep their construction
        estimates. Headings are normalized as :class:`Pose2` normalizes them.
        """
        n, m = len(result.poses), len(result.landmarks)
        self.poses[:n, :2] = result.poses[:, :2]
        self.poses[:n, 2] = [normalize_angle(theta) for theta in result.poses[:, 2].tolist()]
        self.landmarks[:m] = result.landmarks
        self.optimized = True


def _merged_color(evidence: dict[int, np.ndarray]) -> ColorDistribution:
    total = np.zeros(3)
    for ev in evidence.values():
        total += ev
    if total.sum() <= 0:
        return ColorDistribution(0.0, 0.0, 1.0)
    return ColorDistribution.from_evidence(total)


def _row_pose(row: np.ndarray) -> Pose2:
    """The pose a row of ``Graph.poses`` holds; ``Pose2(*row)`` would normalize
    the heading a second time, which can change its last bit."""
    pose = Pose2(float(row[0]), float(row[1]), 0.0)
    object.__setattr__(pose, "theta", float(row[2]))
    return pose


def add_snapshot(
    graph: Graph, snapshot: LocalMapSnapshot, odometry: Pose2, config: GlobalMapConfig = GlobalMapConfig()
) -> Graph:
    """Append one local-map snapshot to the graph (mutates and returns it)."""
    if graph.last_timestamp is not None and snapshot.timestamp <= graph.last_timestamp:
        raise ValueError(
            f"snapshot at {snapshot.timestamp} s arrived after {graph.last_timestamp} s"
        )
    dt = 0.0 if graph.last_timestamp is None else snapshot.timestamp - graph.last_timestamp
    graph.last_timestamp = snapshot.timestamp

    if len(graph.poses):
        pose = compose(_row_pose(graph.poses[-1]), odometry)
        sx, sy, st = config.odometry_sigma_rates
        dt_f = max(dt, 1e-3)
        info = np.diag([1.0 / (sx * sx * dt_f), 1.0 / (sy * sy * dt_f), 1.0 / (st * st * dt_f)])
        graph.add_pose(pose, odometry, info)
    else:
        pose = Pose2.identity()
        graph.add_pose(pose)

    ego = snapshot.ego
    cones = snapshot.cones
    ids = cones.ids.tolist()
    # a landmark whose linked local cone is still alive in this snapshot is a
    # different physical cone than any newly created local id: the local map's
    # probabilistic association already separated them
    live_ids = set(ids)
    rows = [k for k, cid in enumerate(ids) if cid in snapshot.observed_ids]
    means = cones.means[rows]
    measurements = body_frame_point(ego, means)
    evidence = cones.color_evidence[rows]
    floor = config.observation_sigma_floor_m**2
    variances = np.maximum((cones.covs[rows, 0, 0] + cones.covs[rows, 1, 1]) / 2.0, floor)
    landmarks, kept = [], []
    for j, (dx, dy) in enumerate((means - ego.position).tolist()):
        if math.hypot(dx, dy) > config.proximity_radius_m:
            continue
        cid = ids[rows[j]]
        lm = graph.local_links.get(cid)
        if lm is None:
            world_guess = transform_point(pose, measurements[j])
            cone_class = ColorDistribution.from_evidence(evidence[j]).argmax_class()
            lm = _associate_landmark(graph, world_guess, config.association_radius_m, live_ids, cone_class)
            if lm is None:
                lm = graph.add_landmark(world_guess)
            graph.local_links[cid] = lm
        graph.update_color(lm, cid, evidence[j])
        landmarks.append(lm)
        kept.append(j)
    graph.add_observations(
        len(graph.poses) - 1, landmarks, measurements[kept], np.eye(2) / variances[kept].reshape(-1, 1, 1)
    )
    return graph


def _associate_landmark(
    graph: Graph, world_point: np.ndarray, radius: float, live_ids: set[int], cone_class: ConeClass
) -> int | None:
    """Nearest compatible landmark within the merge radius, if any; the highest id wins a tie.

    Compatibility: no link to a cone still alive in the current snapshot (the
    local map already separated those), and the same dominant color class, so
    a drifted revisit cannot collapse differently-colored neighbors.
    """
    offset = graph.landmarks - world_point
    # a landmark outside the box around the point is outside the radius too
    candidate = (graph._classes.rows == _CLASSES.index(cone_class)) & (np.abs(offset) <= radius).all(axis=1)
    candidate[[graph.local_links[c] for c in live_ids if c in graph.local_links]] = False
    best = None
    best_d = radius
    for i in np.flatnonzero(candidate).tolist():
        # math.hypot, not np.hypot: the two can differ in the last bit
        d = math.hypot(offset[i, 0], offset[i, 1])
        if d <= best_d:
            best_d = d
            best = i
    return best


# ---------------------------------------------------------------------------
# Residuals and Jacobians


def odometry_residual(pose_i: np.ndarray, pose_j: np.ndarray, meas: np.ndarray) -> np.ndarray:
    """Residual of one odometry edge: measured increment vs estimated increment.

    The pose difference is mapped to a (dx, dy, dtheta) vector with the angle
    normalized, the conventional pose-graph parameterization.
    """
    r, (_, _) = _odometry_batch(pose_i[None, :], pose_j[None, :], meas[None, :], jac=False)
    return r[0]


def odometry_jacobians(pose_i: np.ndarray, pose_j: np.ndarray, meas: np.ndarray):
    _, (ji, jj) = _odometry_batch(pose_i[None, :], pose_j[None, :], meas[None, :], jac=True)
    return ji[0], jj[0]


def observation_residual(pose: np.ndarray, landmark: np.ndarray, meas: np.ndarray) -> np.ndarray:
    """Residual of one observation edge: body-frame measurement minus prediction."""
    r, _ = _observation_batch(pose[None, :], landmark[None, :], meas[None, :], jac=False)
    return r[0]


def observation_jacobians(pose: np.ndarray, landmark: np.ndarray, meas: np.ndarray):
    _, (jp, jl) = _observation_batch(pose[None, :], landmark[None, :], meas[None, :], jac=True)
    return jp[0], jl[0]


def _odometry_batch(pi: np.ndarray, pj: np.ndarray, z: np.ndarray, jac: bool):
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


def _whiten(information: np.ndarray) -> np.ndarray:
    # info = L L^T; whitened residual is L^T r
    return np.linalg.cholesky(information).transpose(0, 2, 1)


def _assemble(poses, lms, odometry: np.ndarray, observations: np.ndarray, sqrt_odo, sqrt_obs, jac: bool):
    """Whitened residual vector and (optionally) sparse Jacobian.

    Variable layout: poses 1..n-1 as (x, y, theta) blocks, then landmarks as
    (x, y) blocks. Pose 0 is the fixed gauge.
    """
    n_odo = len(odometry)
    n_obs = len(observations)
    n_pose_vars = 3 * (len(poses) - 1)
    n_vars = n_pose_vars + 2 * len(lms)
    residuals = np.zeros(3 * n_odo + 2 * n_obs)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    if n_odo:
        oi = np.arange(n_odo)
        oj = oi + 1
        res, (ji, jj) = _odometry_batch(poses[oi], poses[oj], odometry["relative"], jac)
        wres = np.einsum("eab,eb->ea", sqrt_odo, res)
        residuals[: 3 * n_odo] = wres.ravel()
        if jac:
            wji = np.einsum("eab,ebc->eac", sqrt_odo, ji)
            wjj = np.einsum("eab,ebc->eac", sqrt_odo, jj)
            row_base = 3 * np.arange(n_odo)
            for nodes, blocks in ((oi, wji), (oj, wjj)):
                free = nodes > 0
                if not free.any():
                    continue
                e_idx = np.flatnonzero(free)
                col_base = 3 * (nodes[e_idx] - 1)
                r = (row_base[e_idx, None, None] + np.arange(3)[None, :, None]).repeat(3, axis=2)
                cmat = (col_base[:, None, None] + np.arange(3)[None, None, :]).repeat(3, axis=1)
                rows.append(r.ravel())
                cols.append(cmat.ravel())
                vals.append(blocks[e_idx].ravel())

    if n_obs:
        pidx = observations["pose"]
        lidx = observations["landmark"]
        z = observations["measurement"]
        res, (jp, jl) = _observation_batch(poses[pidx], lms[lidx], z, jac)
        wres = np.einsum("eab,eb->ea", sqrt_obs, res)
        residuals[3 * n_odo :] = wres.ravel()
        if jac:
            wjp = np.einsum("eab,ebc->eac", sqrt_obs, jp)
            wjl = np.einsum("eab,ebc->eac", sqrt_obs, jl)
            row_base = 3 * n_odo + 2 * np.arange(n_obs)
            free = pidx > 0
            if free.any():
                e_idx = np.flatnonzero(free)
                col_base = 3 * (pidx[e_idx] - 1)
                r = (row_base[e_idx, None, None] + np.arange(2)[None, :, None]).repeat(3, axis=2)
                cmat = (col_base[:, None, None] + np.arange(3)[None, None, :]).repeat(2, axis=1)
                rows.append(r.ravel())
                cols.append(cmat.ravel())
                vals.append(wjp[e_idx].ravel())
            col_base = n_pose_vars + 2 * lidx
            r = (row_base[:, None, None] + np.arange(2)[None, :, None]).repeat(2, axis=2)
            cmat = (col_base[:, None, None] + np.arange(2)[None, None, :]).repeat(2, axis=1)
            rows.append(r.ravel())
            cols.append(cmat.ravel())
            vals.append(wjl.ravel())

    if not jac:
        return residuals, None
    jacobian = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(residuals), n_vars),
    ).tocsr()
    return residuals, jacobian


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
    sqrt_odo = _whiten(odometry["information"])
    sqrt_obs = _whiten(observations["information"])
    poses, lms = graph.poses.copy(), graph.landmarks.copy()

    def total_cost(p, l):
        res, _ = _assemble(p, l, odometry, observations, sqrt_odo, sqrt_obs, jac=False)
        return float(res @ res)

    cost = total_cost(poses, lms)
    lam = config.initial_lambda
    iterations = 0
    converged = False
    message = "iteration budget exhausted"
    n_vars = 3 * (len(poses) - 1) + 2 * len(lms)

    if n_vars == 0 or cost < config.absolute_cost_floor:
        converged = True
        message = "already at a zero-residual configuration"
    else:
        for _ in range(config.max_iterations):
            residuals, jacobian = _assemble(poses, lms, odometry, observations, sqrt_odo, sqrt_obs, jac=True)
            hess = (jacobian.T @ jacobian).tocsc()
            grad = jacobian.T @ residuals
            diag = np.maximum(hess.diagonal(), 1e-9)
            accepted = False
            for _ in range(config.max_lambda_steps):
                damped = hess + sp.diags(lam * diag)
                try:
                    delta = splu(damped).solve(-grad)
                except RuntimeError:
                    lam *= config.lambda_up
                    continue
                if not np.all(np.isfinite(delta)):
                    lam *= config.lambda_up
                    continue
                cand_poses, cand_lms = _apply_step(poses, lms, delta)
                cand_cost = total_cost(cand_poses, cand_lms)
                if cand_cost < cost:
                    poses, lms = cand_poses, cand_lms
                    prev_cost, cost = cost, cand_cost
                    lam = max(lam * config.lambda_down, 1e-12)
                    accepted = True
                    break
                lam *= config.lambda_up
            iterations += 1
            if not accepted:
                converged = True
                message = "damping stalled at a local minimum"
                break
            if cost < config.absolute_cost_floor:
                converged = True
                message = "cost below absolute floor"
                break
            if (prev_cost - cost) / max(prev_cost, 1e-300) < config.relative_tolerance:
                converged = True
                message = "relative cost decrease below tolerance"
                break

    return OptimizeResult(poses, lms, cost, iterations, converged, message)


def export_map(graph: Graph, min_edges: int = 1) -> list[dict]:
    """Landmark positions and merged colors as JSON-ready records.

    ``min_edges`` drops landmarks observed fewer times than stated.
    """
    edge_counts = np.bincount(graph.observation_edges["landmark"], minlength=len(graph.landmarks))
    out = []
    for i, (x, y) in enumerate(graph.landmarks.tolist()):
        if edge_counts[i] < min_edges:
            continue
        color = _merged_color(graph.color_evidence[i])
        out.append(
            {
                "id": i,
                "x_m": x,
                "y_m": y,
                "color": color.argmax_class().value,
                "p_blue": color.p_blue,
                "p_yellow": color.p_yellow,
                "p_unknown": color.p_unknown,
            }
        )
    return out


def save_map(records: list[dict], path: Path | str) -> None:
    Path(path).write_text(json.dumps(records, sort_keys=True))


def load_map(path: Path | str) -> list[dict]:
    return json.loads(Path(path).read_text())


def graph_to_dict(graph: Graph) -> dict:
    links: list[list[int]] = [[] for _ in graph.color_evidence]
    for local_id, lm in graph.local_links.items():
        links[lm].append(local_id)
    odometry, observations = graph.odometry_edges, graph.observation_edges
    return {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "optimized": graph.optimized,
        "last_timestamp_s": graph.last_timestamp,
        "poses": [
            {"id": k, "x_m": x, "y_m": y, "theta_rad": theta}
            for k, (x, y, theta) in enumerate(graph.poses.tolist())
        ],
        "landmarks": [
            {
                "id": i,
                "x_m": x,
                "y_m": y,
                "color_evidence": {str(k): [float(v) for v in ev] for k, ev in sorted(evidence.items())},
                "local_id_links": sorted(links[i]),
            }
            for i, ((x, y), evidence) in enumerate(zip(graph.landmarks.tolist(), graph.color_evidence))
        ],
        "odometry_edges": [
            {"from": k, "to": k + 1, "relative": relative, "information": information}
            for k, (relative, information) in enumerate(
                zip(odometry["relative"].tolist(), odometry["information"].tolist())
            )
        ],
        "observation_edges": [
            {"pose": pose, "landmark": lm, "measurement_m": measurement, "information": information}
            for pose, lm, measurement, information in zip(
                observations["pose"].tolist(),
                observations["landmark"].tolist(),
                observations["measurement"].tolist(),
                observations["information"].tolist(),
            )
        ],
        "local_links": {str(k): v for k, v in sorted(graph.local_links.items())},
    }


def graph_from_dict(data: dict) -> Graph:
    if data.get("schema_version") != GRAPH_SCHEMA_VERSION:
        raise ValueError(f"unsupported graph schema: {data.get('schema_version')}")
    g = Graph()
    g.optimized = data["optimized"]
    g.last_timestamp = data["last_timestamp_s"]
    odometry = data["odometry_edges"]
    if [(e["from"], e["to"]) for e in odometry] != [(k, k + 1) for k in range(len(data["poses"]) - 1)]:
        raise ValueError("odometry edges must chain each pose to the next")
    for k, p in enumerate(data["poses"]):
        pose = Pose2(p["x_m"], p["y_m"], p["theta_rad"])
        if k == 0:
            g.add_pose(pose)
        else:
            g.add_pose(pose, Pose2(*odometry[k - 1]["relative"]), np.array(odometry[k - 1]["information"]))
    for l in data["landmarks"]:
        lm = g.add_landmark(np.array([l["x_m"], l["y_m"]]))
        for local_id, ev in l["color_evidence"].items():
            g.update_color(lm, int(local_id), np.array(ev))
    edges = data["observation_edges"]
    g.add_observations(
        [e["pose"] for e in edges],
        [e["landmark"] for e in edges],
        [e["measurement_m"] for e in edges],
        [e["information"] for e in edges],
    )
    g.local_links = {int(k): v for k, v in data["local_links"].items()}
    return g


def save_graph(graph: Graph, path: Path | str) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(graph), sort_keys=True))


def load_graph(path: Path | str) -> Graph:
    return graph_from_dict(json.loads(Path(path).read_text()))
