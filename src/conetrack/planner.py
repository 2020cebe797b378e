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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import MAX_LOG_COORDINATE_M, Bound, Pose2, check_bounds, check_range, color_probabilities, is_finite_number, normalize_angle

LIKELIHOOD_FLOOR = 1e-6
# the first line of planner_log.ndjson; each line after it is one plan_record
PLANNER_LOG_HEADER = {"kind": "planner_log", "schema_version": 1}
# The smallest length cap of the search, in metres: the prior's length term
# divides by the cap squared, which must be a normal float. The largest is
# MAX_LOG_COORDINATE_M, so that the term's square stays finite
MIN_MAX_LENGTH_M = 1e-150
# The largest desired edge count, far beyond any path through a snapshot:
# the prior squares its distance from a path's count as a float
MAX_DESIRED_EDGE_COUNT = 10**6


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


def _np_sum_appended(total: float, values: Sequence[float]) -> float:
    """:func:`_np_sum` of ``values``, given ``total``, that of all but its last value.

    Up to 128 values, numpy's sum only regroups where the count reaches a
    multiple of 8; elsewhere it is the previous sum plus the new value.
    """
    n = len(values)
    return total + values[-1] if n & 7 and n <= 128 else _np_sum(values)


def _population_std(values: Sequence[float], total: float | None = None) -> float:
    """Population standard deviation of a non-empty sequence, as ``np.sqrt(np.mean((a - a.mean()) ** 2))`` gives it.

    ``total`` is the values' numpy sum (:func:`_np_sum`) where the caller
    carries it.
    """
    n = len(values)
    mean = (_np_sum(values) if total is None else total) / n
    if n < 8:  # the left fold _np_sum gives, without its call or a list
        squares = 0.0
        for x in values:
            squares += (x - mean) * (x - mean)
        return math.sqrt(squares / n)
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
    """Per-snapshot geometry the search looks up instead of recomputing, as nine flat lists.

    Edge slot ``3 * t + k`` is the edge of triangle ``t`` facing its vertex
    ``k``, as in ``Triangulation.neighbors``. Per slot: ``neighbor`` (-1 on
    the hull), the sorted cone pair ``lo``/``hi``, the midpoint
    ``mid_x``/``mid_y`` and ``twin``, the same edge's slot in the neighbor
    (meaningless on the hull). Step ``3 * slot + k`` moves from the midpoint
    of edge ``slot`` to that of edge ``k`` of the same triangle, by
    ``mid_x[3 * t + k] - mid_x[slot]`` and the same in y, which the search
    subtracts itself: the tables hold its ``step_len`` and ``step_heading``.
    ``width`` is the slot's edge length, the distance from cone ``lo`` to
    cone ``hi``. Distances and headings come from ``np.hypot`` and
    ``np.arctan2``, which define the path features; ``math.hypot`` differs
    from ``np.hypot`` in the last bit on some inputs. Every table is computed
    on contiguous per-axis arrays, so each list is one ``tolist`` of a
    C-ordered array; they are returned in the order named here.
    """
    px, py = tri.points.T.copy()
    facing = tri.simplices[:, [[1, 2], [0, 2], [0, 1]]]  # (m, 3, 2): the edge facing each vertex
    lo, hi = facing.min(axis=2), facing.max(axis=2)
    x_lo, x_hi, y_lo, y_hi = px[lo], px[hi], py[lo], py[hi]
    mid_x, mid_y = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
    step_x = mid_x[:, None, :] - mid_x[:, :, None]  # step_x[t, i, k] = mid_x[t, k] - mid_x[t, i]
    step_y = mid_y[:, None, :] - mid_y[:, :, None]
    nbs = tri.neighbors
    twin = 3 * nbs + np.argmax(nbs[nbs] == np.arange(len(nbs))[:, None, None], axis=2)
    return tuple(
        table.ravel().tolist()
        for table in (
            nbs,
            lo,
            hi,
            mid_x,
            mid_y,
            twin,
            np.hypot(step_x, step_y),
            np.arctan2(step_y, step_x),
            np.hypot(x_hi - x_lo, y_hi - y_lo),
        )
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
    a bad tail into every candidate.

    A path is one flat tuple of the state an extension updates in O(1) (see
    ``extend``), whose last eight items are its candidate's fields; the
    visited triangles are an int bitmask. Scores are plain-float arithmetic
    that sums in numpy's order (:func:`_np_sum`), so they equal the numpy
    expressions of the features bit for bit: the segment lengths, widths and
    gaps carry their numpy sums (:func:`_np_sum_appended`), and deviations
    are reduced afresh from their lists. The log prior adds the six
    :func:`prior_terms` to 0.0 in order. The log likelihood is the left fold
    of every cone's log term from 0.0; below a path's lowest voting cone
    those are the snapshot's ``other`` terms, whose fold up to each index is
    computed once per snapshot. The search builds only valid candidates (one
    waypoint per crossed edge, disjoint sides), so it skips
    ``CandidatePath``'s checks.
    """
    limits = config.limits
    max_edges, max_length = limits.max_edges, limits.max_length_m
    max_step_length, max_step_turn = limits.max_step_length_m, limits.max_step_turn_rad
    desired = float(limits.desired_edge_count)
    prior_weight = config.prior_weight
    (w0, s0, c0), (w1, s1, c1), (w2, s2, c2), (w3, s3, c3), (w4, s4, c4), (w5, s5, c5) = prior_terms(limits)
    left_terms, right_terms, other_terms = _cone_log_terms(color_evidence, LIKELIHOOD_FLOOR)
    other_prefix = list(itertools.accumulate(other_terms, initial=0.0))  # other_prefix[i]: the fold of other_terms[:i]
    (neighbor, edge_lo, edge_hi, mid_xs, mid_ys, twin, step_lens, step_headings, edge_width) = _search_tables(tri)
    # visited-set bits by triangle; bit[-1] stands for the hull, which every path has visited
    bit = [1 << t for t in range(len(tri.simplices) + 1)]
    cone_xs, cone_ys = tri.points[:, 0].tolist(), tri.points[:, 1].tolist()
    edge_pair = list(zip(edge_lo, edge_hi))  # each slot's (lo, hi), the pair a path that crosses it keeps
    # cone-to-cone distance by sorted pair, seeded with every triangulation
    # edge: consecutive cones of a side nearly always share one, and a pair
    # that does not is computed once, with the same np.hypot. Swapping a pair
    # negates both differences, which leaves np.hypot's result unchanged
    pair_distance = dict(zip(edge_pair, edge_width))
    heading = np.array([math.cos(ego.theta), math.sin(ego.theta)])
    centroids = tri.points[tri.simplices].mean(axis=1)
    probe = ego.position + heading
    start = int(np.argmin(np.hypot(centroids[:, 0] - probe[0], centroids[:, 1] - probe[1])))
    heading_xy = tuple(heading.tolist())
    ego_x, ego_y = ego.position.tolist()
    add = operator.add
    fold = functools.reduce
    new_candidate = tuple.__new__

    def cone_distance(a: int, b: int) -> float:
        pair = (a, b) if a < b else (b, a)
        d = pair_distance.get(pair)
        if d is None:
            lo, hi = pair
            d = pair_distance[pair] = float(np.hypot(cone_xs[hi] - cone_xs[lo], cone_ys[hi] - cone_ys[lo]))
        return d

    def gaps(sequence: tuple[int, ...]) -> tuple[list[float], float]:
        """The gaps between a side's consecutive cones, and their numpy sum."""
        values = [cone_distance(a, b) for a, b in zip(sequence, sequence[1:])]
        return values, _np_sum(values) if values else 0.0

    def extend(path: tuple, slot: int, move: int) -> tuple:
        """The path grown across edge ``slot``, by step ``move`` (-1 from the ego to the first waypoint).

        A path holds [0] its triangle, [1] the slot it entered by (-1 at the
        root), [2] the visited bitmask, [3] its length, the left fold of its
        segment lengths from 0.0 that the length cap tests, [4:7] its last
        step's dx, dy and length, [7] that step's heading (None before the
        second waypoint), [8] its segment lengths, [9:11] its crossed-edge
        widths and their numpy sum, [11:15] the gaps between consecutive
        left cones and between consecutive right cones, and their numpy
        sums, [15] each cone's left minus right votes, in first-crossing
        order, [16] every cone's log term (its side's, or its most probable
        class's if it has not voted), [17] the lowest cone index that voted,
        and then its candidate's fields: [18] waypoints, [19] crossed edges,
        [20:22] left and right cones in first-crossing order, [22] features
        and [23:26] the three scores.
        """
        (_, entry, visited, length, _, _, _, last_heading, seg_lengths, widths, width_sum, left_gaps, right_gaps,
         left_gap_sum, right_gap_sum, net_votes, log_terms, low,
         waypoints, crossed, left, right, features, _, ll, _) = path
        pair = edge_pair[slot]
        mid_x, mid_y = mid_xs[slot], mid_ys[slot]
        max_turn, left_std, right_std, _, _, path_length = features
        if move >= 0:
            dx, dy, seg_len = mid_x - mid_xs[entry], mid_y - mid_ys[entry], step_lens[move]
            seg_heading = step_headings[move]
            length += seg_len
            seg_lengths = seg_lengths + [seg_len]
            path_length = _np_sum_appended(path_length, seg_lengths)
            if last_heading is not None:
                turn = abs(normalize_angle(seg_heading - last_heading))
                if turn > max_turn:
                    max_turn = turn
        else:  # the first waypoint: its step runs from the ego and adds no segment
            dx, dy = mid_x - ego_x, mid_y - ego_y
            seg_len = float(np.hypot(dx, dy))
            seg_heading = None
        d_x, d_y = heading_xy if seg_len < 1e-12 else (dx, dy)
        # a new cone joins the end of its side, adding one gap, and sets its
        # log term; a known cone whose net vote changes sign reorders both
        # sides, which are then rebuilt with their gaps and terms. A side left
        # untouched keeps its tuple, and with it its spacing deviation
        net_votes = net_votes.copy()
        new_left, new_right, terms, flipped = left, right, log_terms, False
        for idx in pair:
            vote = 1 if d_x * (cone_ys[idx] - mid_y) - d_y * (cone_xs[idx] - mid_x) > 0 else -1
            before = net_votes.get(idx)
            if before is None:
                net_votes[idx] = vote
                if terms is log_terms:
                    terms = log_terms.copy()
                if idx < low:
                    low = idx
                if vote > 0:
                    if new_left:
                        left_gaps = left_gaps + [cone_distance(new_left[-1], idx)]
                        left_gap_sum = _np_sum_appended(left_gap_sum, left_gaps)
                    new_left += (idx,)
                    terms[idx] = left_terms[idx]
                else:
                    if new_right:
                        right_gaps = right_gaps + [cone_distance(new_right[-1], idx)]
                        right_gap_sum = _np_sum_appended(right_gap_sum, right_gaps)
                    new_right += (idx,)
                    terms[idx] = right_terms[idx]
            else:
                net_votes[idx] = before + vote
                flipped |= (before >= 0) != (before + vote >= 0)
        if flipped:
            new_left = tuple(idx for idx, net in net_votes.items() if net >= 0)
            new_right = tuple(idx for idx, net in net_votes.items() if net < 0)
            left_gaps, left_gap_sum = gaps(new_left)
            right_gaps, right_gap_sum = gaps(new_right)
            terms = other_terms.copy()
            for idx in new_right:
                terms[idx] = right_terms[idx]
            for idx in new_left:
                terms[idx] = left_terms[idx]
        if new_left is not left:
            left_std = _population_std(left_gaps, left_gap_sum) if left_gaps else 0.0
        if new_right is not right:
            right_std = _population_std(right_gaps, right_gap_sum) if right_gaps else 0.0
        widths = widths + [edge_width[slot]]
        width_sum = _np_sum_appended(width_sum, widths)
        width_std = _population_std(widths, width_sum)
        count = len(crossed) + 1.0
        count = desired if desired < count else count
        cost = (
            0.0
            + w0 * (max_turn - s0) ** 2 / c0
            + w1 * (left_std - s1) ** 2 / c1
            + w2 * (right_std - s2) ** 2 / c2
            + w3 * (width_std - s3) ** 2 / c3
            + w4 * (count - s4) ** 2 / c4
            + w5 * (path_length - s5) ** 2 / c5
        )
        lp = -prior_weight * cost
        # every cone's log term added one cone at a time in index order from
        # 0.0, never a pairwise or compensated sum: every logged score depends
        # on this exact order. Unchanged terms keep the parent's sum
        if terms is not log_terms:
            ll = fold(add, terms[low:], other_prefix[low])
        nb = neighbor[slot]
        return (nb, twin[slot], visited | bit[nb], length, dx, dy, seg_len, seg_heading, seg_lengths, widths, width_sum,
                left_gaps, right_gaps, left_gap_sum, right_gap_sum, net_votes, terms, low,
                waypoints + ((mid_x, mid_y),), crossed + (pair,), new_left, new_right,
                (max_turn, left_std, right_std, width_std, count, path_length), lp, ll, lp + ll)

    # no edge crossed yet; no cone has voted, so low is past the last one
    root = (start, -1, bit[start] | bit[-1], 0.0, 0.0, 0.0, 0.0, None, [], [], 0.0, [], [], 0.0, 0.0, {}, other_terms)
    root += (len(other_terms), (), (), (), (), (0.0,) * 6, 0.0, 0.0, 0.0)
    first_moves = []
    for k in range(3):
        slot = 3 * start + k
        if neighbor[slot] >= 0:
            midpoint = np.array([mid_xs[slot], mid_ys[slot]])
            first_moves.append((float((midpoint - ego.position) @ heading) > 0.0, slot))
    if any(ahead for ahead, _ in first_moves):  # leave the start triangle forward where the ego can
        first_moves = [m for m in first_moves if m[0]]

    frontier = [extend(root, slot, -1) for _, slot in first_moves]
    candidates: list[CandidatePath] = []
    while frontier:
        next_frontier: list[tuple] = []
        for path in frontier:
            triangle, entry, visited, length, prev_x, prev_y, prev_len = path[:7]
            if len(path[19]) >= max_edges or length >= max_length:
                candidates.append(new_candidate(CandidatePath, path[18:]))
                continue
            # grow into each unvisited neighbor reached without too long a
            # step or too sharp a turn; a child that lowers the posterior is
            # a dead end. The hull and the triangle entered from are visited
            floor = path[25] - 1e-9
            grown = False
            base, move_base, entry_x, entry_y = 3 * triangle, 3 * entry, mid_xs[entry], mid_ys[entry]
            for k in range(3):
                slot = base + k
                if visited & bit[neighbor[slot]]:
                    continue
                move = move_base + k
                new_len = step_lens[move]
                if new_len > max_step_length:
                    continue
                if not (new_len < 1e-12 or prev_len < 1e-12):
                    new_x, new_y = mid_xs[slot] - entry_x, mid_ys[slot] - entry_y
                    turn = math.atan2(prev_x * new_y - prev_y * new_x, prev_x * new_x + prev_y * new_y)
                    if not abs(turn) <= max_step_turn:
                        continue
                child = extend(path, slot, move)
                if child[25] >= floor:
                    next_frontier.append(child)
                    grown = True
            if not grown:
                candidates.append(new_candidate(CandidatePath, path[18:]))
        if limits.beam_width is not None and len(next_frontier) > limits.beam_width:
            next_frontier.sort(key=lambda p: (-p[25], p[19]))
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
    "max_length_m": Bound(MIN_MAX_LENGTH_M, MAX_LOG_COORDINATE_M),
    "desired_edge_count": Bound(1, MAX_DESIRED_EDGE_COUNT, integer=True),
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
