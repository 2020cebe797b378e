"""References for the global map and its evaluation.

The solver evaluates its edges in batches, writes its Jacobian into one
cached CSR pattern, factors its normal equations in SuperLU's symmetric mode
and ICP finds its own correspondences. The functions here are the forms tests
check those against: one edge's residual or Jacobians, the Jacobian built as
a COO matrix and converted to CSR, the damped Gauss-Newton solve on that
Jacobian with a general sparse LU (COLAMD column ordering, partial
pivoting), and the closed-form alignment of two point sets whose rows pair
up. The planner-log exit test meets each segment only with the ring edges
near it; ``broadcast_first_exit_distances`` meets it with every edge. The
map's colour probabilities are plain-float arithmetic;
``numpy_color_probabilities`` is the numpy form they equal.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conetrack.evaluate import EXIT_TEST_CHUNK, AlignmentResult, _rigid_fit
from conetrack.global_map import (
    GlobalMapConfig,
    OptimizeResult,
    _apply_step,
    _check_structure,
    _observation_batch,
    _odometry_batch,
    _whiten,
    residual_cost,
)


def one_edge(batch, *rows, jac=False):
    """``batch`` (``global_map._odometry_batch`` or ``_observation_batch``) on one edge's rows.

    Returns the edge's residual, or with ``jac`` its two Jacobians.
    """
    residuals, jacobians = batch(*(row[None, :] for row in rows), jac=jac)
    return tuple(j[0] for j in jacobians) if jac else residuals[0]


def numpy_color_probabilities(evidence) -> np.ndarray:
    """(blue, yellow, unknown) probabilities of the sum of colour evidence arrays; no evidence reads as unknown."""
    total = np.zeros(3)
    for ev in evidence:
        total += ev
    total_sum = float(total.sum())
    return total / total_sum if total_sum > 0 else np.array([0.0, 0.0, 1.0])


def _place(first_row: np.ndarray, first_col: np.ndarray, blocks: np.ndarray):
    """Row, column and value of every entry of the (k, h, w) ``blocks``; block
    e's top-left entry is at (first_row[e], first_col[e]). Blocks at negative
    columns, those of the gauge pose, are dropped."""
    free = first_col >= 0
    first_row, first_col, blocks = first_row[free], first_col[free], blocks[free]
    _, h, w = blocks.shape
    rows = first_row[:, None] + np.repeat(np.arange(h), w)
    cols = first_col[:, None] + np.tile(np.arange(w), h)
    return rows.ravel(), cols.ravel(), blocks.ravel()


def coo_assemble(poses, lms, odometry, observations, sqrt_odo, sqrt_obs, jac: bool):
    """Whitened residual vector and (with ``jac``) the sparse Jacobian, built as
    a COO matrix from int64 rows and columns and converted to CSR.

    Variable layout: poses 1..n-1 as (x, y, theta) blocks, then landmarks as
    (x, y) blocks. Pose 0 is the fixed gauge: its blocks fall at negative
    columns, which :func:`_place` drops.
    """
    n_pose_vars = 3 * (len(poses) - 1)
    oi = np.arange(len(odometry))
    pidx, lidx = observations["pose"], observations["landmark"]
    # per edge type: square-root information, residuals and Jacobians, and the first column of each Jacobian's node
    edge_types = (
        (sqrt_odo, _odometry_batch(poses[oi], poses[oi + 1], odometry["relative"], jac), (3 * (oi - 1), 3 * oi)),
        (
            sqrt_obs,
            _observation_batch(poses[pidx], lms[lidx], observations["measurement"], jac),
            (3 * (pidx - 1), n_pose_vars + 2 * lidx),
        ),
    )
    residuals, entries, row = [], [], 0
    for sqrt_info, (res, jacobians), first_cols in edge_types:
        residuals.append(np.einsum("eab,eb->ea", sqrt_info, res).ravel())
        if jac:
            first_rows = row + res.shape[1] * np.arange(len(res))
            for first_col, block in zip(first_cols, jacobians):
                entries.append(_place(first_rows, first_col, np.einsum("eab,ebc->eac", sqrt_info, block)))
        row += res.size
    residuals = np.concatenate(residuals)
    if not jac:
        return residuals, None
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    jacobian = sp.coo_matrix((vals, (rows, cols)), shape=(len(residuals), n_pose_vars + 2 * len(lms))).tocsr()
    return residuals, jacobian


def colamd_optimize(graph, config=GlobalMapConfig()) -> OptimizeResult:
    """Damped Gauss-Newton on the graph, each step's Jacobian from
    :func:`coo_assemble` and its step solved by ``splu``'s default general LU;
    the same iteration, damping and stopping rules as ``global_map.optimize``."""
    _check_structure(graph)
    odometry, observations = graph.odometry_edges, graph.observation_edges
    sqrt_odo = _whiten(odometry["information"])
    sqrt_obs = _whiten(observations["information"])
    poses, lms = graph.poses.copy(), graph.landmarks.copy()

    def total_cost(p, l):
        res, _ = coo_assemble(p, l, odometry, observations, sqrt_odo, sqrt_obs, jac=False)
        return residual_cost(res)

    cost = total_cost(poses, lms)
    lam = config.initial_lambda
    iterations = 0
    if 3 * (len(poses) - 1) + 2 * len(lms) == 0 or cost < config.absolute_cost_floor:
        return OptimizeResult(poses, lms, cost, 0, True, "already at a zero-residual configuration")
    for _ in range(config.max_iterations):
        residuals, jacobian = coo_assemble(poses, lms, odometry, observations, sqrt_odo, sqrt_obs, jac=True)
        hess = (jacobian.T @ jacobian).tocsc()
        grad = jacobian.T @ residuals
        diag = np.maximum(hess.diagonal(), 1e-9)
        accepted = False
        for _ in range(config.max_lambda_steps):
            try:
                delta = splu(hess + sp.diags(lam * diag)).solve(-grad)
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
            return OptimizeResult(poses, lms, cost, iterations, True, "damping stalled at a local minimum")
        if cost < config.absolute_cost_floor:
            return OptimizeResult(poses, lms, cost, iterations, True, "cost below absolute floor")
        if (prev_cost - cost) / max(prev_cost, 1e-300) < config.relative_tolerance:
            return OptimizeResult(poses, lms, cost, iterations, True, "relative cost decrease below tolerance")
    return OptimizeResult(poses, lms, cost, iterations, False, "iteration budget exhausted")


def align_exact_correspondences(estimated: np.ndarray, truth: np.ndarray) -> AlignmentResult:
    """Closed-form alignment when row i of both sets is the same physical cone."""
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or len(est) == 0:
        raise ValueError("exact-correspondence sets must be non-empty and equal-sized")
    theta, trans = _rigid_fit(est, tru)
    c, s = math.cos(theta), math.sin(theta)
    moved = est @ np.array([[c, -s], [s, c]]).T + trans
    rmse = float(np.sqrt(np.mean(np.sum((moved - tru) ** 2, axis=1))))
    pairs = tuple((k, k) for k in range(len(est)))
    return AlignmentResult(theta, trans, pairs, rmse, 0, 0)


def broadcast_first_exit_distances(points, offsets, corridor) -> list:
    """``evaluate.first_exit_distances`` with every segment met by every ring
    edge, in broadcasts over ``EXIT_TEST_CHUNK`` segments at a time."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    starts = points[:-1]
    seg = points[1:] - starts
    seg_lens = np.hypot(seg[:, 0], seg[:, 1]).tolist()
    first_t = np.empty(len(seg))
    inside = np.empty(len(points), dtype=bool)
    q1x, q1y = corridor.edge_start[:, 0], corridor.edge_start[:, 1]
    ex, ey = corridor.edge_end[:, 0] - q1x, corridor.edge_end[:, 1] - q1y
    for lo in range(0, len(seg), EXIT_TEST_CHUNK):
        rows = slice(lo, lo + EXIT_TEST_CHUNK)
        dx, dy = seg[rows, :1], seg[rows, 1:]
        wx, wy = q1x - starts[rows, :1], q1y - starts[rows, 1:]
        denom = dx * ey - dy * ex
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (wx * ey - wy * ex) / denom
            u = (wx * dy - wy * dx) / denom
        crossed = ~(np.abs(denom) < 1e-15) & (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)
        first_t[rows] = np.where(crossed, t, np.inf).min(axis=1)
    for lo in range(0, len(points), EXIT_TEST_CHUNK):
        rows = slice(lo, lo + EXIT_TEST_CHUNK)
        inside[rows] = corridor.contains(points[rows])
    first_t, inside = first_t.tolist(), inside.tolist()
    exits = []
    for start, end in zip(offsets, offsets[1:]):
        arc, exit_d = 0.0, None
        for k in range(start, end - 1):
            if first_t[k] != math.inf:
                exit_d = arc + first_t[k] * seg_lens[k]
                break
            if not inside[k + 1]:
                exit_d = arc + seg_lens[k]
                break
            arc += seg_lens[k]
        exits.append(exit_d)
    return exits
