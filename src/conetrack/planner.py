"""Track boundary and middle-path estimation from a local-map snapshot.

Three stages: the cone layout is discretized by Delaunay triangulation,
candidate middle paths are grown through adjacent triangles (waypoints are the
midpoints of crossed edges), and the best candidate is picked by Bayesian
scoring. The log-prior penalizes geometric irregularity through six
hand-crafted features; the log-likelihood multiplies each observed cone's
probability of the color class its assigned role requires: left-boundary
cones count the better of blue/unknown, right-boundary cones the better of
yellow/unknown, and every remaining cone its most probable class, so the
whole snapshot votes on every candidate.

The search always scores: each path is scored once, as the search grows it,
and that one score gates its extensions, orders the beam and is the score
the emitted candidate carries.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import Bound, Pose2, check_bounds, check_range, color_probabilities, is_finite_number, normalize_angle

LIKELIHOOD_FLOOR = 1e-6
# the first line of planner_log.ndjson; each line after it is one plan_record
PLANNER_LOG_HEADER = {"kind": "planner_log", "schema_version": 1}
# The largest ego or waypoint coordinate a planner log may hold, in metres:
# far beyond any track, and small enough that path lengths stay finite
MAX_LOG_COORDINATE_M = 1e6


class DegenerateSnapshotError(ValueError):
    """Too few or collinear cones; no triangulation exists."""


@dataclass(frozen=True)
class Triangulation:
    """Delaunay triangulation over cone positions.

    ``neighbors[t, k]`` is the triangle across the edge opposite vertex ``k``
    of triangle ``t`` (or -1 on the hull), mirroring scipy's convention.
    """

    points: np.ndarray  # (n, 2)
    simplices: np.ndarray  # (m, 3) vertex indices
    neighbors: np.ndarray  # (m, 3)


def triangulate(positions: np.ndarray) -> Triangulation:
    """Delaunay triangulation of cone positions.

    ``scipy.spatial`` is imported on the first call, not with the module: a
    run that never plans never loads it, nor the ``scipy.special`` and
    ``scipy.constants`` it brings in.
    """
    from scipy.spatial import Delaunay, QhullError

    pts = np.asarray(positions, dtype=float)
    if len(pts) < 3:
        raise DegenerateSnapshotError(f"need at least 3 cones, got {len(pts)}")
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise DegenerateSnapshotError("cones are degenerate (collinear?)") from exc
    if tri.simplices.size == 0:
        raise DegenerateSnapshotError("triangulation is empty")
    return Triangulation(pts, tri.simplices.copy(), tri.neighbors.copy())


class PathFeatures(NamedTuple):
    """Geometric features of a candidate path, in the order the prior's terms weigh them."""

    max_heading_change_rad: float  # sharpest bend between consecutive segments
    left_spacing_std_m: float  # std of consecutive left-cone gaps
    right_spacing_std_m: float  # std of consecutive right-cone gaps
    width_std_m: float  # std of crossed-edge lengths
    crossed_edges_capped: float  # edge count, saturated at the desired number
    length_m: float  # waypoint polyline length


class _CandidateFields(NamedTuple):
    waypoint_pairs: tuple[tuple[float, float], ...]  # crossed-edge midpoints, in path order
    crossed_edges: tuple[tuple[int, int], ...]  # cone index pairs
    left_sequence: tuple[int, ...]  # left cones in first-crossing order
    right_sequence: tuple[int, ...]
    feature_values: tuple[float, ...]  # the six PathFeatures values, in order
    log_prior: float
    log_likelihood: float
    log_posterior: float


class CandidatePath(_CandidateFields):
    """A middle path the search emitted: its geometry, cone sides, features and scores.

    An immutable tuple of the search's tuples; construction checks one
    waypoint per crossed edge and disjoint sides. ``waypoints`` (a read-only
    (k, 2) array), ``left_cones``, ``right_cones`` and ``features`` are built
    on each read, so a candidate that is only counted costs no array or set.
    """

    __slots__ = ()

    def __new__(cls, *fields, **named_fields):
        self = super().__new__(cls, *fields, **named_fields)
        if len(self.waypoint_pairs) != len(self.crossed_edges):
            raise ValueError("one waypoint per crossed edge required")
        if not set(self.left_sequence).isdisjoint(self.right_sequence):
            raise ValueError("left and right cone sets must be disjoint")
        return self

    @property
    def waypoints(self) -> np.ndarray:
        wp = np.array(self.waypoint_pairs, dtype=float).reshape(-1, 2)
        wp.setflags(write=False)
        return wp

    @property
    def left_cones(self) -> frozenset[int]:
        return frozenset(self.left_sequence)

    @property
    def right_cones(self) -> frozenset[int]:
        return frozenset(self.right_sequence)

    @property
    def features(self) -> PathFeatures:
        return PathFeatures._make(self.feature_values)


@dataclass(frozen=True)
class SearchLimits:
    max_edges: int = 25
    max_length_m: float = 15.0
    desired_edge_count: int = 15
    beam_width: int | None = 300  # None: exhaustive enumeration
    # middle paths never double back; expansions turning harder than this
    # are treated as dead ends
    max_step_turn_rad: float = math.pi / 2
    # rule-limit geometry bounds the distance between consecutive crossed-edge
    # midpoints; longer jumps mean leaving the cone corridor (sliver edges)
    max_step_length_m: float = 6.0


def prior_terms(limits: SearchLimits) -> tuple[tuple[float, float, float], ...]:
    """The validity prior's ``(weight, setpoint, scale)`` per feature, in :class:`PathFeatures` order.

    A path's log prior is ``-prior_weight`` times the sum of
    ``weight * (value - setpoint) ** 2 / scale`` over its features. The
    weights follow the published operating point; the setpoints and scales
    are uncalibrated defaults chosen for dimensional comparability. The edge
    count aims at the search's ``desired_edge_count``, and the length at its
    ``max_length_m``, on the scale of that length squared.
    """
    return (
        (0.1, 0.0, math.pi**2),
        (0.1, 0.0, 1.0),
        (0.1, 0.0, 1.0),
        (0.1, 0.0, 1.0),
        (0.1, float(limits.desired_edge_count), 1.0),
        (0.5, limits.max_length_m, limits.max_length_m**2),
    )


def _np_sum(values: Sequence[float]) -> float:
    """Sum of a non-empty float sequence, added in the order numpy's float64 ``add.reduce`` adds it.

    Under 8 values a left fold; up to 128, eight running sums over every
    eighth value, combined pairwise, then the remainder; above that, the two
    halves split at a multiple of 8. numpy adds the result to an output that
    starts at +0.0, so the sum is never -0.0. Plain floats, bit for bit what
    numpy gives, without a numpy call per sum.
    """
    n = len(values)
    if n < 8:
        return functools.reduce(operator.add, values, 0.0)
    if n <= 128:
        m = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
        for i in range(8, m, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
            r0, r1, r2, r3, r4, r5, r6, r7 = r0 + a0, r1 + a1, r2 + a2, r3 + a3, r4 + a4, r5 + a5, r6 + a6, r7 + a7
        return functools.reduce(operator.add, values[m:], 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))))
    half = n // 2
    half -= half % 8
    return _np_sum(values[:half]) + _np_sum(values[half:])


def _population_std(values: Sequence[float], fold: float | None = None) -> float:
    """Population standard deviation of a non-empty sequence, as ``np.sqrt(np.mean((a - a.mean()) ** 2))`` gives it.

    ``fold`` is the values' left fold from 0.0 where the caller carries it;
    under 8 values it is their numpy sum.
    """
    n = len(values)
    if n < 8:  # the left fold _np_sum gives, without its call
        mean = (functools.reduce(operator.add, values, 0.0) if fold is None else fold) / n
        return math.sqrt(functools.reduce(operator.add, [(x - mean) * (x - mean) for x in values], 0.0) / n)
    mean = _np_sum(values) / n
    return math.sqrt(_np_sum([(x - mean) * (x - mean) for x in values]) / n)


def _cone_log_terms(color_evidence: np.ndarray, floor: float) -> tuple[list[float], list[float], list[float]]:
    """Per-cone log color probability as a left cone, a right cone and neither.

    ``color_evidence`` is (n, 3) per-class evidence; a cone's color is
    :func:`color_probabilities` of its row. Each floored maximum is an exact
    ``np.maximum``; the logs are ``math.log``, whose last bit numpy's
    vectorized log does not promise.
    """
    blue, yellow, unknown = color_probabilities(color_evidence).T
    left = np.maximum(np.maximum(blue, unknown), floor)
    right = np.maximum(np.maximum(yellow, unknown), floor)
    other = np.maximum(np.maximum(blue, yellow), np.maximum(unknown, floor))
    return tuple(list(map(math.log, side.tolist())) for side in (left, right, other))


def _search_tables(tri: Triangulation) -> tuple[list, ...]:
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
    geometry. The running length and width sum are the left folds of the
    segment lengths and widths from 0.0, which are their numpy sums while
    there are fewer than 8. The crossed edges and waypoints are tuples a
    candidate keeps as they are. The defaults describe the root: no edge
    crossed yet.
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
    width_sum: float = 0.0
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


def enumerate_paths(
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
    (neighbor, edge_lo, edge_hi, mid_xs, mid_ys, twin, step_xs, step_ys, step_lens, step_headings, edge_width) = _search_tables(tri)
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
        width_sum = partial.width_sum + edge_width[slot]
        crossed = len(partial.crossed) + 1.0
        features = (
            max_turn,
            partial.features[1] if left is partial.left else (_population_std(left_gaps) if left_gaps else 0.0),
            partial.features[2] if right is partial.right else (_population_std(right_gaps) if right_gaps else 0.0),
            _population_std(widths, width_sum),
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
            width_sum,
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


def select_path(candidates: Sequence[CandidatePath]) -> CandidatePath | None:
    """Highest-posterior candidate; ties prefer longer, then straighter paths."""
    best = None
    best_key = None
    for idx, cand in enumerate(candidates):
        values = cand.feature_values  # the features' floats, without building them
        key = (-cand.log_posterior, -values[5], values[0], idx)
        if best_key is None or key < best_key:
            best_key = key
            best = cand
    return best


_LIMIT_BOUNDS = {
    "max_edges": Bound(1, integer=True),
    "max_length_m": Bound(0.0, low_ok=False),
    "desired_edge_count": Bound(1, integer=True),
    "beam_width": Bound(1, integer=True),
    "max_step_turn_rad": Bound(0.0, math.pi, low_ok=False),
    "max_step_length_m": Bound(0.0, low_ok=False),
}


@dataclass(frozen=True)
class PlannerConfig:
    """The search's limits and the weight of the validity prior, whose terms :func:`prior_terms` derives from them."""

    limits: SearchLimits = SearchLimits()
    prior_weight: float = 29.0

    def __post_init__(self) -> None:
        bounds = _LIMIT_BOUNDS
        if self.limits.beam_width is None:  # exhaustive enumeration
            bounds = {name: bound for name, bound in bounds.items() if name != "beam_width"}
        check_bounds("planner", self.limits, bounds)
        check_range("planner prior_weight", self.prior_weight, 0.0, math.inf, True)


@dataclass(frozen=True)
class PlanResult:
    selected: CandidatePath | None
    candidates: tuple[CandidatePath, ...]
    cone_ids: tuple[int, ...]  # snapshot cone ids, indexed by triangulation vertex


def plan_snapshot(snapshot, config: PlannerConfig = PlannerConfig()) -> PlanResult:
    """Full planning pass over one snapshot; empty result when degenerate."""
    cones = snapshot.cones
    cone_ids = tuple(cones.ids.tolist())
    if len(cones) < 3:
        return PlanResult(None, (), cone_ids)
    try:
        tri = triangulate(cones.means)
    except DegenerateSnapshotError:
        return PlanResult(None, (), cone_ids)
    candidates = enumerate_paths(tri, snapshot.ego, cones.color_evidence, config)
    return PlanResult(select_path(candidates), tuple(candidates), cone_ids)


def plan_record(result: PlanResult, snapshot, verbose_candidates: bool = False) -> dict:
    """JSON-ready planner output for one snapshot."""
    record: dict = {
        "timestamp_s": snapshot.timestamp,
        "ego": {"x_m": snapshot.ego.x, "y_m": snapshot.ego.y, "theta_rad": snapshot.ego.theta},
        "n_candidates": len(result.candidates),
    }
    sel = result.selected
    if sel is None:
        record["waypoints_m"] = []
    else:
        record["waypoints_m"] = [[float(x), float(y)] for x, y in sel.waypoints]
        record["left_cone_ids"] = sorted(result.cone_ids[i] for i in sel.left_cones)
        record["right_cone_ids"] = sorted(result.cone_ids[i] for i in sel.right_cones)
        record["log_prior"] = sel.log_prior
        record["log_likelihood"] = sel.log_likelihood
        record["log_posterior"] = sel.log_posterior
        record["length_m"] = sel.features.length_m
    if verbose_candidates:
        record["candidates"] = [
            {
                "log_prior": c.log_prior,
                "log_likelihood": c.log_likelihood,
                "log_posterior": c.log_posterior,
                "length_m": c.features.length_m,
                "n_edges": len(c.crossed_edges),
            }
            for c in result.candidates
        ]
    return record


class PlannerLogWriter:
    """Writes the planner log: the header line, then one :func:`plan_record` per line."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(json.dumps(PLANNER_LOG_HEADER, sort_keys=True) + "\n")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.close()


def _check_planner_record(record, number: int) -> dict:
    """A planner log record, or ``ValueError`` naming its line: an object with a finite ego and time and finite
    waypoints, whose ego and waypoint coordinates are within ``MAX_LOG_COORDINATE_M``."""
    if not isinstance(record, dict):
        raise ValueError(f"planner log record on line {number} is not a JSON object")
    ego = record.get("ego")
    if not (isinstance(ego, dict) and all(is_finite_number(ego.get(k)) for k in ("x_m", "y_m", "theta_rad"))):
        raise ValueError(f"planner log record on line {number} needs an ego with finite x_m, y_m and theta_rad")
    if not is_finite_number(record.get("timestamp_s")):
        raise ValueError(f"planner log record on line {number} needs a finite timestamp_s")
    waypoints = record.get("waypoints_m") or []
    pairs = isinstance(waypoints, list) and all(isinstance(p, list) and len(p) == 2 for p in waypoints)
    if not (pairs and all(is_finite_number(v) for p in waypoints for v in p)):
        raise ValueError(f"planner log record on line {number}: waypoints_m must be a list of finite [x, y] pairs")
    coordinates = [ego["x_m"], ego["y_m"], *(v for p in waypoints for v in p)]
    if not all(abs(v) <= MAX_LOG_COORDINATE_M for v in coordinates):
        raise ValueError(
            f"planner log record on line {number}: ego and waypoint coordinates must be within "
            f"{MAX_LOG_COORDINATE_M:g} m of the origin"
        )
    return record


def read_planner_log(path) -> list[dict]:
    """The records of a planner log; ``ValueError`` naming the line of a bad header or record."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header != PLANNER_LOG_HEADER:
            version = PLANNER_LOG_HEADER["schema_version"]
            raise ValueError(f"line 1 is not a planner log header of version {version}: {header!r}")
        return [_check_planner_record(json.loads(line), number) for number, line in enumerate(fh, start=2) if line.strip()]
