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
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .core import Pose2, check_range, normalize_angle

LIKELIHOOD_FLOOR = 1e-6
# version in the planner_log.ndjson header; its records are plan_record's
PLANNER_LOG_SCHEMA_VERSION = 1


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
    """Delaunay triangulation of cone positions."""
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


@dataclass(frozen=True)
class CandidatePath:
    waypoints: np.ndarray  # (k, 2) crossed-edge midpoints, in path order
    crossed_edges: tuple[tuple[int, int], ...]  # cone index pairs
    left_cones: frozenset[int]
    right_cones: frozenset[int]
    left_sequence: tuple[int, ...]  # left cones in first-crossing order
    right_sequence: tuple[int, ...]
    features: PathFeatures
    log_prior: float
    log_likelihood: float
    log_posterior: float

    def __post_init__(self) -> None:
        wp = np.asarray(self.waypoints, dtype=float).reshape(-1, 2)
        wp.setflags(write=False)
        object.__setattr__(self, "waypoints", wp)
        if len(wp) != len(self.crossed_edges):
            raise ValueError("one waypoint per crossed edge required")
        if self.left_cones & self.right_cones:
            raise ValueError("left and right cone sets must be disjoint")


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


@dataclass(frozen=True)
class FeatureTerm:
    weight: float
    setpoint: float
    scale: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("feature scale must be positive")
        if self.weight < 0:
            raise ValueError("feature weight must be non-negative")


@dataclass(frozen=True)
class PriorConfig:
    """Validity prior: exp(-prior_weight * sum of weighted feature deviations)."""

    prior_weight: float = 29.0
    terms: tuple[FeatureTerm, ...] = ()

    @classmethod
    def defaults(cls, limits: SearchLimits = SearchLimits()) -> "PriorConfig":
        # feature weights follow the published operating point; setpoints and
        # scales are uncalibrated defaults chosen for dimensional comparability
        return cls(
            prior_weight=29.0,
            terms=(
                FeatureTerm(0.1, 0.0, math.pi**2),
                FeatureTerm(0.1, 0.0, 1.0),
                FeatureTerm(0.1, 0.0, 1.0),
                FeatureTerm(0.1, 0.0, 1.0),
                FeatureTerm(0.1, float(limits.desired_edge_count), 1.0),
                FeatureTerm(0.5, limits.max_length_m, limits.max_length_m**2),
            ),
        )

    def __post_init__(self) -> None:
        if self.terms and len(self.terms) != 6:
            raise ValueError("exactly one term per feature required")


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


def _population_std(values: Sequence[float]) -> float:
    """Population standard deviation of a non-empty sequence, as ``np.sqrt(np.mean((a - a.mean()) ** 2))`` gives it."""
    n = len(values)
    mean = _np_sum(values) / n
    return math.sqrt(_np_sum([(x - mean) * (x - mean) for x in values]) / n)


def log_prior(features: Sequence[float], config: PriorConfig) -> float:
    """Log of the validity prior: negative weighted squared feature deviations.

    ``features`` is a :class:`PathFeatures` or the same six floats in its order.
    """
    cost = 0.0
    for value, term in zip(features, config.terms):
        cost += term.weight * (value - term.setpoint) ** 2 / term.scale
    return -config.prior_weight * cost


def _cone_log_terms(color_evidence: np.ndarray, floor: float) -> tuple[list[float], list[float], list[float]]:
    """Per-cone log color probability as a left cone, a right cone and neither.

    ``color_evidence`` is (n, 3) per-class evidence; a cone's color is its
    row divided by the row's sum, added left to right as ``ndarray.sum`` adds
    three values.
    """
    ev = color_evidence
    probabilities = ev / (ev[:, 0] + ev[:, 1] + ev[:, 2])[:, None]
    left, right, other = [], [], []
    for blue, yellow, unknown in probabilities.tolist():
        left.append(math.log(max(blue, unknown, floor)))
        right.append(math.log(max(yellow, unknown, floor)))
        other.append(math.log(max(blue, yellow, unknown, floor)))
    return left, right, other


def _summed_log_terms(
    terms: tuple[list[float], list[float], list[float]], left_cones: Iterable[int], right_cones: Iterable[int]
) -> float:
    left, right, other = terms
    values = list(other)
    for idx in right_cones:
        values[idx] = right[idx]
    for idx in left_cones:  # a cone in both sets counts as left
        values[idx] = left[idx]
    # one cone at a time in index order from 0.0, never a pairwise or
    # compensated sum: every logged score depends on this exact order
    return functools.reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class _SearchTables:
    """Per-snapshot geometry the search looks up instead of recomputing.

    Edge slot ``3 * t + k`` is the edge of triangle ``t`` facing its vertex
    ``k``, as in ``Triangulation.neighbors``. Per slot: ``neighbor`` (-1 on
    the hull), the sorted cone pair ``lo``/``hi``, the midpoint
    ``mid_x``/``mid_y`` and ``twin``, the same edge's slot in the neighbor
    (meaningless on the hull).
    Step ``3 * slot + k`` moves from the midpoint of edge ``slot`` to that of
    edge ``k`` of the same triangle: ``step_x``, ``step_y``, ``step_len`` and
    ``step_heading``. ``dist[a][b]`` is the distance from cone ``a`` to cone
    ``b``. Distances and headings come from ``np.hypot`` and ``np.arctan2``,
    which define the path features; ``math.hypot`` differs from ``np.hypot``
    in the last bit on some inputs. The lists are flat so that building them
    allocates few objects.
    """

    neighbor: list[int]
    lo: list[int]
    hi: list[int]
    mid_x: list[float]
    mid_y: list[float]
    twin: list[int]
    step_x: list[float]
    step_y: list[float]
    step_len: list[float]
    step_heading: list[float]
    dist: list[list[float]]

    @classmethod
    def build(cls, tri: Triangulation) -> "_SearchTables":
        pts = tri.points
        facing = tri.simplices[:, [[1, 2], [0, 2], [0, 1]]]  # (m, 3, 2): the edge facing each vertex
        lo, hi = facing.min(axis=2), facing.max(axis=2)
        mid = 0.5 * (pts[lo] + pts[hi])
        step = mid[:, None, :, :] - mid[:, :, None, :]  # step[t, i, k] = mid[t, k] - mid[t, i]
        nbs = tri.neighbors
        twin = 3 * nbs + np.argmax(nbs[nbs] == np.arange(len(nbs))[:, None, None], axis=2)
        return cls(
            neighbor=nbs.ravel().tolist(),
            lo=lo.ravel().tolist(),
            hi=hi.ravel().tolist(),
            mid_x=mid[..., 0].ravel().tolist(),
            mid_y=mid[..., 1].ravel().tolist(),
            twin=twin.ravel().tolist(),
            step_x=step[..., 0].ravel().tolist(),
            step_y=step[..., 1].ravel().tolist(),
            step_len=np.hypot(step[..., 0], step[..., 1]).ravel().tolist(),
            step_heading=np.arctan2(step[..., 1], step[..., 0]).ravel().tolist(),
            dist=np.hypot(pts[None, :, 0] - pts[:, None, 0], pts[None, :, 1] - pts[:, None, 1]).tolist(),
        )


@dataclass(slots=True)
class _PartialPath:
    """A path as the search grows it, with the state one extension updates in O(1).

    The state is the per-segment lengths, the last step and its heading, the
    crossed-edge widths, each side's cone sequence and the six feature values,
    among them the running maximum turn and each side's spacing deviation.
    Length and deviations are reduced afresh from their per-element lists,
    never kept as running sums, so the features are exactly those of the
    path's own geometry. The defaults describe the root: no edge crossed yet.
    """

    triangle: int
    slot: int  # the edge slot the path entered the triangle by; -1 at the root
    visited: set[int]
    crossed: list[tuple[int, int]] = field(default_factory=list)
    waypoints: list[tuple[float, float]] = field(default_factory=list)
    net_votes: dict[int, int] = field(default_factory=dict)  # left minus right votes, in first-crossing order
    length: float = 0.0  # running length, for the search's length cap only
    step: tuple[float, float, float] = (0.0, 0.0, 0.0)  # (dx, dy, length) into the last waypoint
    seg_lengths: list[float] = field(default_factory=list)  # waypoint-to-waypoint segment lengths
    heading: float | None = None  # heading of the last segment
    widths: list[float] = field(default_factory=list)  # crossed-edge lengths
    left: tuple[int, ...] = ()  # left cones in first-crossing order
    right: tuple[int, ...] = ()
    features: tuple[float, ...] = (0.0,) * 6  # the PathFeatures values, in order
    log_prior: float = 0.0
    log_likelihood: float = 0.0
    log_posterior: float = 0.0

    def candidate(self) -> CandidatePath:
        return CandidatePath(
            np.array(self.waypoints),
            tuple(self.crossed),
            frozenset(self.left),
            frozenset(self.right),
            self.left,
            self.right,
            PathFeatures._make(self.features),
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
    expressions of the features bit for bit.
    """
    limits = config.limits
    prior = config.prior
    desired = float(limits.desired_edge_count)
    terms = _cone_log_terms(color_evidence, config.likelihood_floor)
    tables = _SearchTables.build(tri)
    points = tri.points.tolist()
    dist = tables.dist
    heading = np.array([math.cos(ego.theta), math.sin(ego.theta)])
    centroids = tri.points[tri.simplices].mean(axis=1)
    probe = ego.position + heading
    start = int(np.argmin(np.hypot(centroids[:, 0] - probe[0], centroids[:, 1] - probe[1])))
    heading_xy = tuple(heading.tolist())
    ego_x, ego_y = ego.position.tolist()

    def spacing_std(sequence: tuple[int, ...]) -> float:
        if len(sequence) < 2:
            return 0.0
        return _population_std([dist[a][b] for a, b in zip(sequence, sequence[1:])])

    def extend(partial: _PartialPath, k: int) -> _PartialPath:
        slot = 3 * partial.triangle + k
        edge = lo, hi = tables.lo[slot], tables.hi[slot]
        mid_x, mid_y = tables.mid_x[slot], tables.mid_y[slot]
        if partial.waypoints:
            move = 3 * partial.slot + k
            dx, dy, seg_len = tables.step_x[move], tables.step_y[move], tables.step_len[move]
            seg_heading = tables.step_heading[move]
            length = partial.length + seg_len
            seg_lengths = partial.seg_lengths + [seg_len]
            max_turn = partial.features[0]
            if partial.heading is not None:
                max_turn = max(max_turn, abs(normalize_angle(seg_heading - partial.heading)))
        else:  # the first waypoint: its step runs from the ego and adds no segment
            dx, dy = mid_x - ego_x, mid_y - ego_y
            seg_len = float(np.hypot(dx, dy))
            length, seg_lengths, seg_heading, max_turn = 0.0, [], None, 0.0
        d_x, d_y = heading_xy if seg_len < 1e-12 else (dx, dy)
        # a new cone joins the end of its side; a known cone whose net vote
        # changes sign reorders both sides, which are then rebuilt. A side
        # left untouched keeps its tuple, and with it its spacing deviation
        net_votes = dict(partial.net_votes)
        left, right, flipped = partial.left, partial.right, False
        for idx in edge:
            vote = 1 if d_x * (points[idx][1] - mid_y) - d_y * (points[idx][0] - mid_x) > 0 else -1
            before = net_votes.get(idx)
            if before is None:
                net_votes[idx] = vote
                if vote > 0:
                    left += (idx,)
                else:
                    right += (idx,)
            else:
                net_votes[idx] = before + vote
                flipped |= (before >= 0) != (before + vote >= 0)
        if flipped:
            left = tuple(idx for idx, net in net_votes.items() if net >= 0)
            right = tuple(idx for idx, net in net_votes.items() if net < 0)
        crossed = partial.crossed + [edge]
        widths = partial.widths + [dist[lo][hi]]
        features = (
            max_turn,
            partial.features[1] if left is partial.left else spacing_std(left),
            partial.features[2] if right is partial.right else spacing_std(right),
            _population_std(widths),
            min(float(len(crossed)), desired),
            _np_sum(seg_lengths) if seg_lengths else 0.0,
        )
        lp = log_prior(features, prior)
        ll = _summed_log_terms(terms, left, right)
        nb = tables.neighbor[slot]
        return _PartialPath(
            triangle=nb,
            slot=tables.twin[slot],
            visited=partial.visited | {nb},
            crossed=crossed,
            waypoints=partial.waypoints + [(mid_x, mid_y)],
            net_votes=net_votes,
            length=length,
            step=(dx, dy, seg_len),
            seg_lengths=seg_lengths,
            heading=seg_heading,
            widths=widths,
            left=left,
            right=right,
            features=features,
            log_prior=lp,
            log_likelihood=ll,
            log_posterior=lp + ll,
        )

    def can_extend(partial: _PartialPath, k: int) -> bool:
        """An unvisited neighbor, reached without too long a step or too sharp a turn."""
        slot = 3 * partial.triangle + k
        nb = tables.neighbor[slot]
        if nb < 0 or nb in partial.visited or slot == partial.slot:
            return False
        move = 3 * partial.slot + k
        new_x, new_y, new_len = tables.step_x[move], tables.step_y[move], tables.step_len[move]
        if new_len > limits.max_step_length_m:
            return False
        prev_x, prev_y, prev_len = partial.step
        if new_len < 1e-12 or prev_len < 1e-12:
            return True
        turn = math.atan2(prev_x * new_y - prev_y * new_x, prev_x * new_x + prev_y * new_y)
        return abs(turn) <= limits.max_step_turn_rad

    root = _PartialPath(triangle=start, slot=-1, visited={start})
    first_moves = []
    for k in range(3):
        slot = 3 * start + k
        if tables.neighbor[slot] >= 0:
            midpoint = np.array([tables.mid_x[slot], tables.mid_y[slot]])
            first_moves.append((float((midpoint - ego.position) @ heading) > 0.0, k))
    if any(ahead for ahead, _ in first_moves):  # leave the start triangle forward where the ego can
        first_moves = [m for m in first_moves if m[0]]

    frontier = [extend(root, k) for _, k in first_moves]
    candidates: list[CandidatePath] = []
    while frontier:
        next_frontier: list[_PartialPath] = []
        for partial in frontier:
            if len(partial.crossed) >= limits.max_edges or partial.length >= limits.max_length_m:
                candidates.append(partial.candidate())
                continue
            children = [extend(partial, k) for k in range(3) if can_extend(partial, k)]
            children = [c for c in children if c.log_posterior >= partial.log_posterior - 1e-9]
            if not children:
                candidates.append(partial.candidate())
                continue
            next_frontier.extend(children)
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
        key = (
            -cand.log_posterior,
            -cand.features.length_m,
            cand.features.max_heading_change_rad,
            idx,
        )
        if best_key is None or key < best_key:
            best_key = key
            best = cand
    return best


# (field, lowest, highest, whether the lowest value itself is allowed)
_LIMIT_RANGES = (
    ("max_length_m", 0.0, math.inf, False),
    ("max_step_turn_rad", 0.0, math.pi, False),
    ("max_step_length_m", 0.0, math.inf, False),
)


@dataclass(frozen=True)
class PlannerConfig:
    limits: SearchLimits = SearchLimits()
    prior: PriorConfig = PriorConfig.defaults()
    likelihood_floor: float = LIKELIHOOD_FLOOR

    def __post_init__(self) -> None:
        for name, low, high, low_ok in _LIMIT_RANGES:
            check_range(f"planner {name}", getattr(self.limits, name), low, high, low_ok)
        for name in ("max_edges", "desired_edge_count", "beam_width"):
            value = getattr(self.limits, name)
            if name == "beam_width" and value is None:  # exhaustive enumeration
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"planner {name} must be an integer >= 1, got {value!r}")
        check_range("planner prior_weight", self.prior.prior_weight, 0.0, math.inf, True)
        check_range("planner likelihood_floor", self.likelihood_floor, 0.0, 1.0, False)

    @classmethod
    def with_limits(cls, **limit_overrides) -> "PlannerConfig":
        limits = SearchLimits(**limit_overrides)
        return cls(limits=limits, prior=PriorConfig.defaults(limits))


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
