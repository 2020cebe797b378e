"""References for the global map and its evaluation.

The solver evaluates its edges in batches, factors its normal equations in
SuperLU's symmetric mode and ICP finds its own correspondences. The functions
here are the forms tests check those against: one edge's residual or
Jacobians, the damped Gauss-Newton solve with a general sparse LU (COLAMD
column ordering, partial pivoting), and the closed-form alignment of two
point sets whose rows pair up. The map's colour probabilities are plain-float
arithmetic; ``numpy_color_probabilities`` is the numpy form they equal.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conetrack.evaluate import AlignmentResult, _rigid_fit
from conetrack.global_map import (
    GlobalMapConfig,
    OptimizeResult,
    _apply_step,
    _assemble,
    _check_structure,
    _whiten,
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


def colamd_optimize(graph, config=GlobalMapConfig()) -> OptimizeResult:
    """Damped Gauss-Newton on the graph, each step solved by ``splu``'s
    default general LU; the same iteration, damping and stopping rules as
    ``global_map.optimize``."""
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
    if 3 * (len(poses) - 1) + 2 * len(lms) == 0 or cost < config.absolute_cost_floor:
        return OptimizeResult(poses, lms, cost, 0, True, "already at a zero-residual configuration")
    for _ in range(config.max_iterations):
        residuals, jacobian = _assemble(poses, lms, odometry, observations, sqrt_odo, sqrt_obs, jac=True)
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
