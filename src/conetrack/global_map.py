"""Globally consistent cone map via pose-landmark graph optimization.

Snapshots from the local map append a pose node (chained by an odometry edge
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import (
    ColorDistribution,
    Pose2,
    body_frame_point,
    compose,
    transform_point,
)
from .local_map import LocalMapSnapshot

GRAPH_SCHEMA_VERSION = 1


class GraphStructureError(ValueError):
    """Graph is structurally under-determined beyond the gauge freedom."""


@dataclass
class PoseNode:
    id: int
    pose: Pose2


@dataclass
class LandmarkNode:
    id: int
    position: np.ndarray  # (2,) world frame, current estimate
    color_evidence: dict[int, np.ndarray] = field(default_factory=dict)  # by local cone id
    local_id_links: set[int] = field(default_factory=set)

    def merged_color(self) -> ColorDistribution:
        total = np.zeros(3)
        for ev in self.color_evidence.values():
            total += ev
        if total.sum() <= 0:
            return ColorDistribution(0.0, 0.0, 1.0)
        return ColorDistribution.from_evidence(total)


@dataclass(frozen=True)
class OdometryEdge:
    from_id: int
    to_id: int
    relative: Pose2
    information: np.ndarray  # 3x3

    def __post_init__(self) -> None:
        if self.to_id != self.from_id + 1:
            raise ValueError("odometry edges connect consecutive poses")
        info = np.array(self.information, dtype=float).reshape(3, 3)
        info.setflags(write=False)
        object.__setattr__(self, "information", info)


@dataclass(frozen=True)
class ObservationEdge:
    pose_id: int
    landmark_id: int
    measurement: np.ndarray  # (2,) body frame
    information: np.ndarray  # 2x2

    def __post_init__(self) -> None:
        meas = np.array(self.measurement, dtype=float).reshape(2)
        info = np.array(self.information, dtype=float).reshape(2, 2)
        meas.setflags(write=False)
        info.setflags(write=False)
        object.__setattr__(self, "measurement", meas)
        object.__setattr__(self, "information", info)


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


class Graph:
    """Pose-landmark graph; single-writer construction, copy-on-optimize."""

    def __init__(self) -> None:
        self.poses: list[PoseNode] = []
        self.landmarks: list[LandmarkNode] = []
        self.odometry_edges: list[OdometryEdge] = []
        self.observation_edges: list[ObservationEdge] = []
        self.local_links: dict[int, int] = {}  # local cone id -> landmark id
        self.last_timestamp: float | None = None
        self.optimized = False

    def copy(self) -> "Graph":
        g = Graph()
        g.poses = [PoseNode(p.id, p.pose) for p in self.poses]
        g.landmarks = [
            LandmarkNode(
                l.id,
                l.position.copy(),
                {k: v.copy() for k, v in l.color_evidence.items()},
                set(l.local_id_links),
            )
            for l in self.landmarks
        ]
        g.odometry_edges = list(self.odometry_edges)
        g.observation_edges = list(self.observation_edges)
        g.local_links = dict(self.local_links)
        g.last_timestamp = self.last_timestamp
        g.optimized = self.optimized
        return g

    def merge_estimates(self, optimized: "Graph") -> None:
        """Pull node estimates from an optimized copy back by id.

        Nodes added after the copy was taken keep their construction-time
        estimates, so optimization can run beside ongoing construction.
        """
        for node in optimized.poses:
            if node.id < len(self.poses):
                self.poses[node.id].pose = node.pose
        by_id = {l.id: l for l in self.landmarks}
        for lm in optimized.landmarks:
            if lm.id in by_id:
                by_id[lm.id].position = lm.position.copy()
        self.optimized = self.optimized or optimized.optimized


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

    if not graph.poses:
        pose_est = Pose2.identity()
        graph.poses.append(PoseNode(0, pose_est))
    else:
        prev = graph.poses[-1]
        pose_est = compose(prev.pose, odometry)
        node = PoseNode(prev.id + 1, pose_est)
        graph.poses.append(node)
        sx, sy, st = config.odometry_sigma_rates
        dt_f = max(dt, 1e-3)
        info = np.diag([1.0 / (sx * sx * dt_f), 1.0 / (sy * sy * dt_f), 1.0 / (st * st * dt_f)])
        graph.odometry_edges.append(OdometryEdge(prev.id, node.id, odometry, info))

    pose_node = graph.poses[-1]
    ego = snapshot.ego
    # a landmark whose linked local cone is still alive in this snapshot is a
    # different physical cone than any newly created local id: the local map's
    # probabilistic association already separated them
    live_ids = {c.id for c in snapshot.cones}
    for cone in snapshot.cones:
        if cone.id not in snapshot.observed_ids:
            continue
        offset = cone.position.mean - ego.position
        if math.hypot(offset[0], offset[1]) > config.proximity_radius_m:
            continue
        z = body_frame_point(ego, cone.position.mean)
        lm_id = graph.local_links.get(cone.id)
        if lm_id is None:
            world_guess = transform_point(pose_node.pose, z)
            lm_id = _associate_landmark(
                graph, world_guess, config.association_radius_m, live_ids, cone.color.argmax_class()
            )
            if lm_id is None:
                lm_id = len(graph.landmarks)
                graph.landmarks.append(LandmarkNode(lm_id, world_guess.copy()))
            graph.local_links[cone.id] = lm_id
        landmark = graph.landmarks[lm_id]
        landmark.local_id_links.add(cone.id)
        landmark.color_evidence[cone.id] = np.array(cone.color_evidence)
        sigma_sq = max(
            float(np.trace(cone.position.cov)) / 2.0, config.observation_sigma_floor_m**2
        )
        graph.observation_edges.append(
            ObservationEdge(pose_node.id, lm_id, z, np.eye(2) / sigma_sq)
        )
    return graph


def _associate_landmark(
    graph: Graph,
    world_point: np.ndarray,
    radius: float,
    exclude_live: set[int] = frozenset(),
    cone_class=None,
) -> int | None:
    """Nearest compatible landmark within the merge radius, if any.

    Compatibility: no link to a cone still alive in the current snapshot (the
    local map already separated those), and the same dominant color class, so
    a drifted revisit cannot collapse differently-colored neighbors.
    """
    best = None
    best_d = radius
    for lm in graph.landmarks:
        if lm.local_id_links & exclude_live:
            continue
        if cone_class is not None and lm.merged_color().argmax_class() is not cone_class:
            continue
        d = math.hypot(lm.position[0] - world_point[0], lm.position[1] - world_point[1])
        if d <= best_d:
            best_d = d
            best = lm.id
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


@dataclass
class OptimizeResult:
    graph: Graph
    final_cost: float
    iterations: int
    converged: bool
    message: str


def _check_structure(graph: Graph) -> None:
    if not graph.poses:
        raise GraphStructureError("graph has no pose nodes")
    touched = np.zeros(len(graph.landmarks), dtype=bool)
    for edge in graph.observation_edges:
        touched[edge.landmark_id] = True
    if len(graph.landmarks) and not touched.all():
        missing = [int(i) for i in np.flatnonzero(~touched)]
        raise GraphStructureError(f"landmarks without observation edges: {missing}")
    if len(graph.odometry_edges) != max(len(graph.poses) - 1, 0):
        raise GraphStructureError("odometry chain does not cover all poses")


def _pack(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    poses = np.array([p.pose.as_array() for p in graph.poses])
    lms = (
        np.array([l.position for l in graph.landmarks])
        if graph.landmarks
        else np.zeros((0, 2))
    )
    return poses, lms


def _whiten(information: np.ndarray) -> np.ndarray:
    # info = L L^T; whitened residual is L^T r
    return np.linalg.cholesky(information).transpose(0, 2, 1)


def _assemble(graph: Graph, poses: np.ndarray, lms: np.ndarray, sqrt_odo, sqrt_obs, jac: bool):
    """Whitened residual vector and (optionally) sparse Jacobian.

    Variable layout: poses 1..n-1 as (x, y, theta) blocks, then landmarks as
    (x, y) blocks. Pose 0 is the fixed gauge.
    """
    n_odo = len(graph.odometry_edges)
    n_obs = len(graph.observation_edges)
    n_pose_vars = 3 * (len(poses) - 1)
    n_vars = n_pose_vars + 2 * len(lms)
    residuals = np.zeros(3 * n_odo + 2 * n_obs)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    if n_odo:
        oi = np.array([e.from_id for e in graph.odometry_edges])
        oj = np.array([e.to_id for e in graph.odometry_edges])
        oz = np.array([e.relative.as_array() for e in graph.odometry_edges])
        res, (ji, jj) = _odometry_batch(poses[oi], poses[oj], oz, jac)
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
        pidx = np.array([e.pose_id for e in graph.observation_edges])
        lidx = np.array([e.landmark_id for e in graph.observation_edges])
        z = np.array([e.measurement for e in graph.observation_edges])
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
    """Damped Gauss-Newton on the full graph; returns an optimized copy.

    The first pose is held fixed as the gauge. Iterations stop when the
    relative cost decrease falls under the configured tolerance, the damping
    stalls, or the iteration budget runs out; accepted steps never increase
    the cost.
    """
    _check_structure(graph)
    work = graph.copy()
    poses, lms = _pack(work)
    sqrt_odo = (
        _whiten(np.array([e.information for e in work.odometry_edges]))
        if work.odometry_edges
        else np.zeros((0, 3, 3))
    )
    sqrt_obs = (
        _whiten(np.array([e.information for e in work.observation_edges]))
        if work.observation_edges
        else np.zeros((0, 2, 2))
    )

    def total_cost(p, l):
        res, _ = _assemble(work, p, l, sqrt_odo, sqrt_obs, jac=False)
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
            residuals, jacobian = _assemble(work, poses, lms, sqrt_odo, sqrt_obs, jac=True)
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

    for k, node in enumerate(work.poses):
        node.pose = Pose2(*poses[k])
    for k, lm in enumerate(work.landmarks):
        lm.position = lms[k].copy()
    work.optimized = True
    return OptimizeResult(work, cost, iterations, converged, message)


def export_map(graph: Graph, require_optimized: bool = True, min_edges: int = 1) -> list[dict]:
    """Landmark positions and merged colors as JSON-ready records.

    ``min_edges`` drops landmarks observed fewer times than stated.
    """
    if require_optimized and not graph.optimized:
        raise ValueError("graph has not been optimized; pass require_optimized=False to export anyway")
    edge_counts: dict[int, int] = {}
    for edge in graph.observation_edges:
        edge_counts[edge.landmark_id] = edge_counts.get(edge.landmark_id, 0) + 1
    out = []
    for lm in graph.landmarks:
        if edge_counts.get(lm.id, 0) < min_edges:
            continue
        color = lm.merged_color()
        out.append(
            {
                "id": lm.id,
                "x_m": float(lm.position[0]),
                "y_m": float(lm.position[1]),
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
    return {
        "schema_version": GRAPH_SCHEMA_VERSION,
        "optimized": graph.optimized,
        "last_timestamp_s": graph.last_timestamp,
        "poses": [
            {"id": p.id, "x_m": p.pose.x, "y_m": p.pose.y, "theta_rad": p.pose.theta}
            for p in graph.poses
        ],
        "landmarks": [
            {
                "id": l.id,
                "x_m": float(l.position[0]),
                "y_m": float(l.position[1]),
                "color_evidence": {str(k): [float(x) for x in v] for k, v in sorted(l.color_evidence.items())},
                "local_id_links": sorted(l.local_id_links),
            }
            for l in graph.landmarks
        ],
        "odometry_edges": [
            {
                "from": e.from_id,
                "to": e.to_id,
                "relative": [e.relative.x, e.relative.y, e.relative.theta],
                "information": [[float(v) for v in row] for row in e.information],
            }
            for e in graph.odometry_edges
        ],
        "observation_edges": [
            {
                "pose": e.pose_id,
                "landmark": e.landmark_id,
                "measurement_m": [float(v) for v in e.measurement],
                "information": [[float(v) for v in row] for row in e.information],
            }
            for e in graph.observation_edges
        ],
        "local_links": {str(k): v for k, v in sorted(graph.local_links.items())},
    }


def graph_from_dict(data: dict) -> Graph:
    if data.get("schema_version") != GRAPH_SCHEMA_VERSION:
        raise ValueError(f"unsupported graph schema: {data.get('schema_version')}")
    g = Graph()
    g.optimized = data["optimized"]
    g.last_timestamp = data["last_timestamp_s"]
    g.poses = [PoseNode(p["id"], Pose2(p["x_m"], p["y_m"], p["theta_rad"])) for p in data["poses"]]
    for l in data["landmarks"]:
        g.landmarks.append(
            LandmarkNode(
                l["id"],
                np.array([l["x_m"], l["y_m"]]),
                {int(k): np.array(v) for k, v in l["color_evidence"].items()},
                set(l["local_id_links"]),
            )
        )
    g.odometry_edges = [
        OdometryEdge(e["from"], e["to"], Pose2(*e["relative"]), np.array(e["information"]))
        for e in data["odometry_edges"]
    ]
    g.observation_edges = [
        ObservationEdge(e["pose"], e["landmark"], np.array(e["measurement_m"]), np.array(e["information"]))
        for e in data["observation_edges"]
    ]
    g.local_links = {int(k): v for k, v in data["local_links"].items()}
    return g


def save_graph(graph: Graph, path: Path | str) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(graph), sort_keys=True))


def load_graph(path: Path | str) -> Graph:
    return graph_from_dict(json.loads(Path(path).read_text()))
