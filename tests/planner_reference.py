"""References for the planner's scores.

The search in ``planner.enumerate_paths`` computes each path's features and
log prior in plain floats, adding in numpy's summation order. The functions
here are the numpy expressions those features and that prior are defined by,
evaluated on a path's geometry from scratch. Tests pin the search to them bit
for bit. :func:`log_likelihood` scores one path's cone roles from scratch,
from the per-cone log terms the search computes once per snapshot.
:func:`reference_enumerate_paths` is the search as it stood before it kept
each path as one flat tuple: a ``_PartialPath`` dataclass per path, a set
of visited triangles, and tables read from strided views. Tests require
the search's candidates to equal the ones it emits, repr for repr.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from conetrack.core import Pose2, normalize_angle
from conetrack.planner import (
    LIKELIHOOD_FLOOR,
    CandidatePath,
    PathFeatures,
    PlannerConfig,
    SearchLimits,
    Triangulation,
    _cone_log_terms,
    _np_sum,
    _population_std,
    prior_terms,
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


def reference_search_tables(tri: Triangulation) -> tuple[list, ...]:
    """Per-snapshot geometry the search looks up instead of recomputing, as eleven flat lists.

    Edge slot ``3 * t + k`` is the edge of triangle ``t`` facing its vertex
    ``k``, as in ``Triangulation.neighbors``. Per slot: ``neighbor`` (-1 on
    the hull), the sorted cone pair ``lo``/``hi``, the midpoint
    ``mid_x``/``mid_y`` and ``twin``, the same edge's slot in the neighbor
    (meaningless on the hull).
    Step ``3 * slot + k`` moves from the midpoint of edge ``slot`` to that of
    edge ``k`` of the same triangle: ``step_x``, ``step_y``, ``step_len`` and
    ``step_heading``. ``width`` is the slot's edge length, the distance
    from cone ``lo`` to cone ``hi``. Distances and headings come from
    ``np.hypot`` and ``np.arctan2``, which define the path features;
    ``math.hypot`` differs from ``np.hypot`` in the last bit on some inputs.
    The lists are flat so that building them allocates few objects, and are
    returned in the order named here.
    """
    pts = tri.points
    facing = tri.simplices[:, [[1, 2], [0, 2], [0, 1]]]  # (m, 3, 2): the edge facing each vertex
    lo, hi = facing.min(axis=2), facing.max(axis=2)
    mid = 0.5 * (pts[lo] + pts[hi])
    step = mid[:, None, :, :] - mid[:, :, None, :]  # step[t, i, k] = mid[t, k] - mid[t, i]
    nbs = tri.neighbors
    twin = 3 * nbs + np.argmax(nbs[nbs] == np.arange(len(nbs))[:, None, None], axis=2)
    return tuple(
        table.ravel().tolist()
        for table in (
            nbs,
            lo,
            hi,
            mid[..., 0],
            mid[..., 1],
            twin,
            step[..., 0],
            step[..., 1],
            np.hypot(step[..., 0], step[..., 1]),
            np.arctan2(step[..., 1], step[..., 0]),
            np.hypot(pts[hi, 0] - pts[lo, 0], pts[hi, 1] - pts[lo, 1]),
        )
    )


@dataclass(slots=True)
class _PartialPath:
    """A path as the search grows it, with the state one extension updates in O(1).

    The state is the per-segment lengths, the last step and its heading, the
    crossed-edge widths, each side's cone sequence and its gaps (the distances
    between consecutive cones), every cone's log term and the lowest cone
    index that voted, and the six feature values, among them the running
    maximum turn and each side's spacing deviation.
    Deviations are reduced afresh from their per-element lists, never kept as
    running sums, so the features are exactly those of the path's own
    geometry. The running length is the left fold of the segment lengths
    from 0.0, which is their numpy sum while there are fewer than 8. The
    crossed edges and waypoints are tuples a candidate keeps as they are.
    The defaults describe the root: no edge crossed yet.
    """

    triangle: int
    slot: int  # the edge slot the path entered the triangle by; -1 at the root
    visited: set[int]
    log_terms: list[float]  # every cone's log term: its side's, or its most probable class's if it has not voted
    low: int  # the lowest cone index that voted; len(log_terms) at the root
    crossed: tuple[tuple[int, int], ...] = ()
    waypoints: tuple[tuple[float, float], ...] = ()
    net_votes: dict[int, int] = field(default_factory=dict)  # left minus right votes, in first-crossing order
    length: float = 0.0
    step: tuple[float, float, float] = (0.0, 0.0, 0.0)  # (dx, dy, length) into the last waypoint
    seg_lengths: list[float] = field(default_factory=list)  # waypoint-to-waypoint segment lengths
    heading: float | None = None  # heading of the last segment
    widths: list[float] = field(default_factory=list)  # crossed-edge lengths
    left: tuple[int, ...] = ()  # left cones in first-crossing order
    right: tuple[int, ...] = ()
    left_gaps: list[float] = field(default_factory=list)  # distances between consecutive left cones
    right_gaps: list[float] = field(default_factory=list)
    features: tuple[float, ...] = (0.0,) * 6  # the PathFeatures values, in order
    log_prior: float = 0.0
    log_likelihood: float = 0.0
    log_posterior: float = 0.0

    def candidate(self) -> CandidatePath:
        return CandidatePath(
            self.waypoints,
            self.crossed,
            self.left,
            self.right,
            self.features,
            self.log_prior,
            self.log_likelihood,
            self.log_posterior,
        )


def reference_enumerate_paths(
    tri: Triangulation,
    ego: Pose2,
    color_evidence: np.ndarray,
    config: PlannerConfig,
) -> list[CandidatePath]:
    """Grow maximal scored candidate paths triangle-to-triangle from the ego.

    The root triangle is the one whose centroid is nearest a probe point 1 m
    ahead of the ego. Expansion crosses interior edges into unvisited
    triangles, stopping at the edge budget, the length cap, or a dead end;
    each stop emits one candidate. The frontier is beam-limited by posterior
    for bounded worst-case cost.

    Each path is scored once, when the search grows it: its features, log
    prior, log likelihood and log posterior are those of the candidate it
    would emit. A step that lowers the posterior is treated as a dead end:
    consistent corridor extensions always score upward through the
    edge-count and length terms, so growth stops exactly where continuing
    would mean crossing evidence that contradicts the path, instead of baking
    a bad tail into every candidate. Scores are plain-float arithmetic that
    sums in numpy's order (:func:`_np_sum`), so they equal the numpy
    expressions of the features bit for bit. The log prior sums the
    :func:`prior_terms` in a left fold from 0.0; the tables and the prior's
    terms are read from locals, hoisted once per snapshot. The log
    likelihood is the left fold of every cone's log term from 0.0; below a
    path's lowest voting cone those are the snapshot's ``other`` terms, whose
    fold up to each index is computed once per snapshot.
    """
    limits = config.limits
    max_edges, max_length = limits.max_edges, limits.max_length_m
    max_step_length, max_step_turn = limits.max_step_length_m, limits.max_step_turn_rad
    desired = float(limits.desired_edge_count)
    prior_weight = config.prior_weight
    terms = prior_terms(limits)
    left_terms, right_terms, other_terms = _cone_log_terms(color_evidence, LIKELIHOOD_FLOOR)
    other_prefix = list(itertools.accumulate(other_terms, initial=0.0))  # other_prefix[i]: the fold of other_terms[:i]
    (neighbor, edge_lo, edge_hi, mid_xs, mid_ys, twin, step_xs, step_ys, step_lens, step_headings, edge_width) = reference_search_tables(tri)
    cone_xs, cone_ys = tri.points[:, 0].tolist(), tri.points[:, 1].tolist()
    # cone-to-cone distance by sorted pair, seeded with every triangulation
    # edge: consecutive cones of a side nearly always share one, and a pair
    # that does not is computed once, with the same np.hypot. Swapping a pair
    # negates both differences, which leaves np.hypot's result unchanged
    pair_distance = dict(zip(zip(edge_lo, edge_hi), edge_width))
    heading = np.array([math.cos(ego.theta), math.sin(ego.theta)])
    centroids = tri.points[tri.simplices].mean(axis=1)
    probe = ego.position + heading
    start = int(np.argmin(np.hypot(centroids[:, 0] - probe[0], centroids[:, 1] - probe[1])))
    heading_xy = tuple(heading.tolist())
    ego_x, ego_y = ego.position.tolist()
    add = operator.add
    fold = functools.reduce

    def cone_distance(a: int, b: int) -> float:
        pair = (a, b) if a < b else (b, a)
        d = pair_distance.get(pair)
        if d is None:
            lo, hi = pair
            d = pair_distance[pair] = float(np.hypot(cone_xs[hi] - cone_xs[lo], cone_ys[hi] - cone_ys[lo]))
        return d

    def gaps(sequence: tuple[int, ...]) -> list[float]:
        return [cone_distance(a, b) for a, b in zip(sequence, sequence[1:])]

    def extend(partial: _PartialPath, k: int) -> _PartialPath:
        slot = 3 * partial.triangle + k
        lo, hi = edge_lo[slot], edge_hi[slot]
        mid_x, mid_y = mid_xs[slot], mid_ys[slot]
        if partial.waypoints:
            move = 3 * partial.slot + k
            dx, dy, seg_len = step_xs[move], step_ys[move], step_lens[move]
            seg_heading = step_headings[move]
            length = partial.length + seg_len
            seg_lengths = partial.seg_lengths + [seg_len]
            max_turn = partial.features[0]
            if partial.heading is not None:
                turn = abs(normalize_angle(seg_heading - partial.heading))
                if turn > max_turn:
                    max_turn = turn
        else:  # the first waypoint: its step runs from the ego and adds no segment
            dx, dy = mid_x - ego_x, mid_y - ego_y
            seg_len = float(np.hypot(dx, dy))
            length, seg_lengths, seg_heading, max_turn = 0.0, [], None, 0.0
        d_x, d_y = heading_xy if seg_len < 1e-12 else (dx, dy)
        # a new cone joins the end of its side, adding one gap, and sets its
        # log term; a known cone whose net vote changes sign reorders both
        # sides, which are then rebuilt with their gaps and terms. A side left
        # untouched keeps its tuple, and with it its spacing deviation
        net_votes = partial.net_votes.copy()
        left, right, flipped = partial.left, partial.right, False
        left_gaps, right_gaps = partial.left_gaps, partial.right_gaps
        log_terms, low = partial.log_terms, partial.low
        for idx in (lo, hi):
            vote = 1 if d_x * (cone_ys[idx] - mid_y) - d_y * (cone_xs[idx] - mid_x) > 0 else -1
            before = net_votes.get(idx)
            if before is None:
                net_votes[idx] = vote
                if log_terms is partial.log_terms:
                    log_terms = log_terms.copy()
                if idx < low:
                    low = idx
                if vote > 0:
                    if left:
                        left_gaps = left_gaps + [cone_distance(left[-1], idx)]
                    left += (idx,)
                    log_terms[idx] = left_terms[idx]
                else:
                    if right:
                        right_gaps = right_gaps + [cone_distance(right[-1], idx)]
                    right += (idx,)
                    log_terms[idx] = right_terms[idx]
            else:
                net_votes[idx] = before + vote
                flipped |= (before >= 0) != (before + vote >= 0)
        if flipped:
            left = tuple(idx for idx, net in net_votes.items() if net >= 0)
            right = tuple(idx for idx, net in net_votes.items() if net < 0)
            left_gaps, right_gaps = gaps(left), gaps(right)
            log_terms = other_terms.copy()
            for idx in right:
                log_terms[idx] = right_terms[idx]
            for idx in left:
                log_terms[idx] = left_terms[idx]
        widths = partial.widths + [edge_width[slot]]
        crossed = len(partial.crossed) + 1.0
        features = (
            max_turn,
            partial.features[1] if left is partial.left else (_population_std(left_gaps) if left_gaps else 0.0),
            partial.features[2] if right is partial.right else (_population_std(right_gaps) if right_gaps else 0.0),
            _population_std(widths),
            desired if desired < crossed else crossed,
            length if len(seg_lengths) < 8 else _np_sum(seg_lengths),
        )
        cost = 0.0
        for value, (weight, setpoint, scale) in zip(features, terms):
            cost += weight * (value - setpoint) ** 2 / scale
        lp = -prior_weight * cost
        # every cone's log term added one cone at a time in index order from
        # 0.0, never a pairwise or compensated sum: every logged score depends
        # on this exact order. Unchanged terms keep the parent's sum
        if log_terms is partial.log_terms:
            ll = partial.log_likelihood
        else:
            ll = fold(add, log_terms[low:], other_prefix[low])
        nb = neighbor[slot]
        return _PartialPath(
            nb,
            twin[slot],
            partial.visited | {nb},
            log_terms,
            low,
            partial.crossed + ((lo, hi),),
            partial.waypoints + ((mid_x, mid_y),),
            net_votes,
            length,
            (dx, dy, seg_len),
            seg_lengths,
            seg_heading,
            widths,
            left,
            right,
            left_gaps,
            right_gaps,
            features,
            lp,
            ll,
            lp + ll,
        )

    root = _PartialPath(triangle=start, slot=-1, visited={start}, log_terms=other_terms, low=len(other_terms))
    first_moves = []
    for k in range(3):
        slot = 3 * start + k
        if neighbor[slot] >= 0:
            midpoint = np.array([mid_xs[slot], mid_ys[slot]])
            first_moves.append((float((midpoint - ego.position) @ heading) > 0.0, k))
    if any(ahead for ahead, _ in first_moves):  # leave the start triangle forward where the ego can
        first_moves = [m for m in first_moves if m[0]]

    frontier = [extend(root, k) for _, k in first_moves]
    candidates: list[CandidatePath] = []
    while frontier:
        next_frontier: list[_PartialPath] = []
        for partial in frontier:
            if len(partial.crossed) >= max_edges or partial.length >= max_length:
                candidates.append(partial.candidate())
                continue
            # grow into each unvisited neighbor reached without too long a
            # step or too sharp a turn; a child that lowers the posterior is
            # a dead end
            base, entry, visited = 3 * partial.triangle, partial.slot, partial.visited
            prev_x, prev_y, prev_len = partial.step
            floor = partial.log_posterior - 1e-9
            grown = False
            for k in range(3):
                slot = base + k
                nb = neighbor[slot]
                if nb < 0 or nb in visited or slot == entry:
                    continue
                move = 3 * entry + k
                new_len = step_lens[move]
                if new_len > max_step_length:
                    continue
                if not (new_len < 1e-12 or prev_len < 1e-12):
                    new_x, new_y = step_xs[move], step_ys[move]
                    turn = math.atan2(prev_x * new_y - prev_y * new_x, prev_x * new_x + prev_y * new_y)
                    if not abs(turn) <= max_step_turn:
                        continue
                child = extend(partial, k)
                if child.log_posterior >= floor:
                    next_frontier.append(child)
                    grown = True
            if not grown:
                candidates.append(partial.candidate())
        if limits.beam_width is not None and len(next_frontier) > limits.beam_width:
            next_frontier.sort(key=lambda p: (-p.log_posterior, p.crossed))
            next_frontier = next_frontier[: limits.beam_width]
        frontier = next_frontier
    return candidates
