"""References for the planner's scores.

The search in ``planner.enumerate_paths`` computes each path's features and
log prior in plain floats, adding in numpy's summation order. The functions
here are the numpy expressions those features and that prior are defined by,
evaluated on a path's geometry from scratch. Tests pin the search to them bit
for bit. :func:`log_likelihood` scores one path's cone roles from scratch,
from the per-cone log terms the search computes once per snapshot.
"""

import functools
import operator
from typing import Iterable, Sequence

import numpy as np

from conetrack.core import normalize_angle
from conetrack.planner import (
    LIKELIHOOD_FLOOR,
    PathFeatures,
    SearchLimits,
    _cone_log_terms,
)


def reference_population_std(values: Sequence[float]) -> float:
    """The np.mean form the planner's standard deviation must reproduce bit for bit."""
    if len(values) < 1:
        return 0.0
    arr = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))


def compute_features(
    waypoints: np.ndarray,
    crossed_edges: Sequence[tuple[int, int]],
    points: np.ndarray,
    left_sequence: Sequence[int],
    right_sequence: Sequence[int],
    limits: SearchLimits,
) -> PathFeatures:
    """Evaluate the six scoring features on a path's geometry.

    Sides with fewer than two cones contribute a zero spacing deviation so
    sparse far-field candidates are not discarded outright.
    """
    wp = np.asarray(waypoints, dtype=float)
    if len(wp) >= 2:
        seg = np.diff(wp, axis=0)
        length = float(np.hypot(seg[:, 0], seg[:, 1]).sum())
        headings = np.arctan2(seg[:, 1], seg[:, 0])
        turns = [abs(normalize_angle(b - a)) for a, b in zip(headings, headings[1:])]
        max_turn = max(turns) if turns else 0.0
    else:
        length = 0.0
        max_turn = 0.0

    def side_std(sequence: Sequence[int]) -> float:
        if len(sequence) < 2:
            return 0.0
        gaps = [
            float(np.hypot(*(points[b] - points[a])))
            for a, b in zip(sequence, sequence[1:])
        ]
        return reference_population_std(gaps)

    widths = [float(np.hypot(*(points[b] - points[a]))) for a, b in crossed_edges]
    return PathFeatures(
        max_heading_change_rad=max_turn,
        left_spacing_std_m=side_std(left_sequence),
        right_spacing_std_m=side_std(right_sequence),
        width_std_m=reference_population_std(widths),
        crossed_edges_capped=float(min(len(crossed_edges), limits.desired_edge_count)),
        length_m=length,
    )


def features_array(features: PathFeatures) -> np.ndarray:
    """The six features as one float64 array, in the prior's term order."""
    return np.array(
        [
            features.max_heading_change_rad,
            features.left_spacing_std_m,
            features.right_spacing_std_m,
            features.width_std_m,
            features.crossed_edges_capped,
            features.length_m,
        ]
    )


def reference_log_prior(
    features: PathFeatures, terms: Sequence[tuple[float, float, float]], prior_weight: float
) -> float:
    """Log prior in numpy float64 scalars, one feature of :func:`features_array` at a time.

    ``terms`` holds one ``(weight, setpoint, scale)`` per feature, as
    ``planner.prior_terms`` gives them.
    """
    cost = 0.0
    for value, (weight, setpoint, scale) in zip(features_array(features), terms):
        cost += weight * (value - setpoint) ** 2 / scale
    return float(-prior_weight * cost)


def log_likelihood(
    color_evidence: np.ndarray, left_cones: Iterable[int], right_cones: Iterable[int], floor: float = LIKELIHOOD_FLOOR
) -> float:
    """Color agreement of every snapshot cone, one (n, 3) evidence row each, with its role under this path."""
    left, right, other = _cone_log_terms(color_evidence, floor)
    values = list(other)
    for idx in right_cones:
        values[idx] = right[idx]
    for idx in left_cones:  # a cone in both sets counts as left
        values[idx] = left[idx]
    return functools.reduce(operator.add, values, 0.0)  # one cone at a time, in index order
