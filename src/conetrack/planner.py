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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .core import ConeEstimate, Pose2, normalize_angle

LIKELIHOOD_FLOOR = 1e-6


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

    def edges(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for tri in self.simplices:
            for a, b in ((0, 1), (1, 2), (0, 2)):
                out.add(tuple(sorted((int(tri[a]), int(tri[b])))))
        return out

    def interior_crossings(self, t: int) -> list[tuple[int, tuple[int, int]]]:
        """(neighbor triangle, shared edge) pairs reachable from triangle t."""
        out = []
        for k in range(3):
            nb = int(self.neighbors[t, k])
            if nb < 0:
                continue
            verts = [int(v) for i, v in enumerate(self.simplices[t]) if i != k]
            out.append((nb, (min(verts), max(verts))))
        return out


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


@dataclass(frozen=True)
class PathFeatures:
    """Geometric features of a candidate path."""

    max_heading_change_rad: float  # sharpest bend between consecutive segments
    left_spacing_std_m: float  # std of consecutive left-cone gaps
    right_spacing_std_m: float  # std of consecutive right-cone gaps
    width_std_m: float  # std of crossed-edge lengths
    crossed_edges_capped: float  # edge count, saturated at the desired number
    length_m: float  # waypoint polyline length

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.max_heading_change_rad,
                self.left_spacing_std_m,
                self.right_spacing_std_m,
                self.width_std_m,
                self.crossed_edges_capped,
                self.length_m,
            ]
        )


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
    require_forward_start: bool = True
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


def _population_std(values: Sequence[float]) -> float:
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
        return _population_std(gaps)

    widths = [float(np.hypot(*(points[b] - points[a]))) for a, b in crossed_edges]
    return PathFeatures(
        max_heading_change_rad=max_turn,
        left_spacing_std_m=side_std(left_sequence),
        right_spacing_std_m=side_std(right_sequence),
        width_std_m=_population_std(widths) if widths else 0.0,
        crossed_edges_capped=float(min(len(crossed_edges), limits.desired_edge_count)),
        length_m=length,
    )


def log_prior(features: PathFeatures, config: PriorConfig) -> float:
    """Log of the validity prior: negative weighted squared feature deviations."""
    cost = 0.0
    for value, term in zip(features.as_array(), config.terms):
        cost += term.weight * (value - term.setpoint) ** 2 / term.scale
    return -config.prior_weight * cost


def _cone_log_terms(cones: Sequence[ConeEstimate], floor: float) -> list[tuple[float, float, float]]:
    """Per-cone log color probability as a left cone, a right cone and neither."""
    terms = []
    for cone in cones:
        c = cone.color
        terms.append(
            (
                math.log(max(c.p_blue, c.p_unknown, floor)),
                math.log(max(c.p_yellow, c.p_unknown, floor)),
                math.log(max(c.p_blue, c.p_yellow, c.p_unknown, floor)),
            )
        )
    return terms


def _summed_log_terms(
    terms: Sequence[tuple[float, float, float]], left_cones: frozenset[int], right_cones: frozenset[int]
) -> float:
    # one cone at a time in index order from 0.0, never a pairwise or
    # compensated sum: every logged score depends on this exact order
    total = 0.0
    for idx, (left, right, other) in enumerate(terms):
        total += left if idx in left_cones else right if idx in right_cones else other
    return total


def log_likelihood(
    cones: Sequence[ConeEstimate],
    left_cones: frozenset[int],
    right_cones: frozenset[int],
    floor: float = LIKELIHOOD_FLOOR,
) -> float:
    """Color agreement of every snapshot cone with its role under this path."""
    return _summed_log_terms(_cone_log_terms(cones, floor), left_cones, right_cones)


@dataclass
class _PartialPath:
    triangle: int
    visited: set[int]
    crossed: list[tuple[int, int]]
    waypoints: list[np.ndarray]
    net_votes: dict[int, int]  # left minus right votes per cone, in first-crossing order
    length: float
    scored: CandidatePath | None  # scored once, when extended into; None only at the root


def enumerate_paths(
    tri: Triangulation,
    ego: Pose2,
    cones: Sequence[ConeEstimate],
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
    """
    limits = config.limits
    terms = _cone_log_terms(cones, config.likelihood_floor)
    centroids = tri.points[tri.simplices].mean(axis=1)
    probe = ego.position + np.array([math.cos(ego.theta), math.sin(ego.theta)])
    start = int(np.argmin(np.hypot(centroids[:, 0] - probe[0], centroids[:, 1] - probe[1])))
    heading = np.array([math.cos(ego.theta), math.sin(ego.theta)])

    def score(crossed: list[tuple[int, int]], waypoints: list[np.ndarray], net_votes: dict[int, int]) -> CandidatePath:
        left_seq = tuple(idx for idx, net in net_votes.items() if net >= 0)
        right_seq = tuple(idx for idx, net in net_votes.items() if net < 0)
        left_cones, right_cones = frozenset(left_seq), frozenset(right_seq)
        wp = np.array(waypoints)
        features = compute_features(wp, crossed, tri.points, left_seq, right_seq, limits)
        lp = log_prior(features, config.prior)
        ll = _summed_log_terms(terms, left_cones, right_cones)
        return CandidatePath(
            wp, tuple(crossed), left_cones, right_cones, left_seq, right_seq, features, lp, ll, lp + ll
        )

    def extend(partial: _PartialPath, nb: int, edge: tuple[int, int]) -> _PartialPath:
        midpoint = 0.5 * (tri.points[edge[0]] + tri.points[edge[1]])
        prev = partial.waypoints[-1] if partial.waypoints else ego.position
        d = midpoint - prev
        if np.hypot(*d) < 1e-12:
            d = heading
        net_votes = dict(partial.net_votes)
        for idx in edge:
            off = tri.points[idx] - midpoint
            net_votes[idx] = net_votes.get(idx, 0) + (1 if d[0] * off[1] - d[1] * off[0] > 0 else -1)
        crossed = partial.crossed + [edge]
        waypoints = partial.waypoints + [midpoint]
        return _PartialPath(
            triangle=nb,
            visited=partial.visited | {nb},
            crossed=crossed,
            waypoints=waypoints,
            net_votes=net_votes,
            length=partial.length + (float(np.hypot(*(midpoint - prev))) if partial.waypoints else 0.0),
            scored=score(crossed, waypoints, net_votes),
        )

    root = _PartialPath(start, {start}, [], [], {}, 0.0, None)
    first_moves = []
    for nb, edge in tri.interior_crossings(start):
        midpoint = 0.5 * (tri.points[edge[0]] + tri.points[edge[1]])
        ahead = float((midpoint - ego.position) @ heading) > 0.0
        first_moves.append((ahead, nb, edge))
    if limits.require_forward_start and any(ahead for ahead, _, _ in first_moves):
        first_moves = [m for m in first_moves if m[0]]

    frontier = [extend(root, nb, edge) for _, nb, edge in first_moves]
    candidates: list[CandidatePath] = []

    def turn_ok(partial: _PartialPath, edge: tuple[int, int]) -> bool:
        midpoint = 0.5 * (tri.points[edge[0]] + tri.points[edge[1]])
        if len(partial.waypoints) < 2:
            prev_dir = partial.waypoints[-1] - ego.position if partial.waypoints else heading
        else:
            prev_dir = partial.waypoints[-1] - partial.waypoints[-2]
        new_dir = midpoint - partial.waypoints[-1]
        if np.hypot(*new_dir) > limits.max_step_length_m:
            return False
        if np.hypot(*new_dir) < 1e-12 or np.hypot(*prev_dir) < 1e-12:
            return True
        turn = math.atan2(
            prev_dir[0] * new_dir[1] - prev_dir[1] * new_dir[0],
            prev_dir[0] * new_dir[0] + prev_dir[1] * new_dir[1],
        )
        return abs(turn) <= limits.max_step_turn_rad

    while frontier:
        next_frontier: list[_PartialPath] = []
        for partial in frontier:
            if len(partial.crossed) >= limits.max_edges or partial.length >= limits.max_length_m:
                candidates.append(partial.scored)
                continue
            children = [
                extend(partial, nb, edge)
                for nb, edge in tri.interior_crossings(partial.triangle)
                if nb not in partial.visited and edge != partial.crossed[-1] and turn_ok(partial, edge)
            ]
            children = [c for c in children if c.scored.log_posterior >= partial.scored.log_posterior - 1e-9]
            if not children:
                candidates.append(partial.scored)
                continue
            next_frontier.extend(children)
        if limits.beam_width is not None and len(next_frontier) > limits.beam_width:
            next_frontier.sort(key=lambda p: (-p.scored.log_posterior, p.crossed))
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


@dataclass(frozen=True)
class PlannerConfig:
    limits: SearchLimits = SearchLimits()
    prior: PriorConfig = PriorConfig.defaults()
    likelihood_floor: float = LIKELIHOOD_FLOOR

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
    cone_ids = tuple(c.id for c in cones)
    if len(cones) < 3:
        return PlanResult(None, (), cone_ids)
    positions = np.array([c.position.mean for c in cones])
    try:
        tri = triangulate(positions)
    except DegenerateSnapshotError:
        return PlanResult(None, (), cone_ids)
    candidates = enumerate_paths(tri, snapshot.ego, cones, config)
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
