"""References for the global map and its evaluation.

The solver evaluates its edges in batches and ICP finds its own
correspondences. The functions here are the one-edge and exact-correspondence
forms tests check those against: one edge's residual or Jacobians, and the
closed-form alignment of two point sets whose rows pair up.
"""

import math

import numpy as np

from conetrack.evaluate import AlignmentResult, _rigid_fit


def one_edge(batch, *rows, jac=False):
    """``batch`` (``global_map._odometry_batch`` or ``_observation_batch``) on one edge's rows.

    Returns the edge's residual, or with ``jac`` its two Jacobians.
    """
    residuals, jacobians = batch(*(row[None, :] for row in rows), jac=jac)
    return tuple(j[0] for j in jacobians) if jac else residuals[0]


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
