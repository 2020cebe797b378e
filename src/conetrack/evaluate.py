"""Quantitative evaluation of mapping and planning outputs.

Aligns an estimated cone map to ground truth with 2D point-to-point ICP and
reports the RMSE over one-to-one correspondences; summarizes planner logs as
path-length and out-of-track histograms over 1 m bins; assembles the per-run
report with stage timing percentiles.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Pose2, compose, greedy_pairs, invert
from .simulate import CenterlineGeometry, TrackDefinition, boundary_order

HISTOGRAM_BIN_COUNT = 16  # 1 m bins, 0..15 m, matching the planning horizon


class DegenerateGeometryError(ValueError):
    """Point sets too degenerate to align (e.g. all coincident)."""


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 50
    tolerance: float = 1e-10  # stop when RMSE improves less than this
    reject_radius_m: float = 1.0


@dataclass(frozen=True)
class AlignmentResult:
    """Rigid transform mapping the estimated map onto ground truth."""

    rotation: float  # radians
    translation: np.ndarray  # (2,)
    correspondences: tuple[tuple[int, int], ...]  # (estimated index, truth index)
    rmse: float
    unmatched_estimated: int
    unmatched_truth: int


def _rigid_fit(src: np.ndarray, dst: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form 2D rigid transform minimizing sum |R src + t - dst|^2."""
    src_c = src.mean(axis=0)
    dst_c = dst.mean(axis=0)
    a = src - src_c
    b = dst - dst_c
    num = float(np.sum(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))
    den = float(np.sum(a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]))
    if abs(num) < 1e-15 and abs(den) < 1e-15:
        raise DegenerateGeometryError("correspondences carry no rigid-fit information")
    theta = math.atan2(num, den)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    t = dst_c - rot @ src_c
    return theta, t


# A pair's x gap is at most its distance, so the truth points within the reject
# radius of a point lie in its x window; the window is widened by this much,
# relative to the coordinates, so that no rounding can leave one outside it
ICP_WINDOW_SLACK = 1e-9


def _candidate_pairs(
    moved: np.ndarray, truth: np.ndarray, by_x: np.ndarray, sorted_x: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, column, distance) of every moved, truth pair at most ``radius`` apart, in row-major order.

    ``by_x`` orders the truth points by x and ``sorted_x`` holds their x in
    that order. Each moved point meets only the truth points in its x
    window, found by ``searchsorted``; each distance is the ``np.hypot`` of
    the all-pairs matrix, so the triples are that matrix's entries within
    the radius, bit for bit.
    """
    mx = moved[:, 0]
    reach = radius + ICP_WINDOW_SLACK * (radius + np.abs(mx))
    lo = np.searchsorted(sorted_x, mx - reach, side="left")
    counts = np.searchsorted(sorted_x, mx + reach, side="right") - lo
    rows = np.repeat(np.arange(len(moved)), counts)
    cols = by_x[np.arange(len(rows)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    dist = np.hypot(moved[rows, 0] - truth[cols, 0], moved[rows, 1] - truth[cols, 1])
    near = np.flatnonzero(dist <= radius)
    order = near[np.lexsort((cols[near], rows[near]))]
    return rows[order], cols[order], dist[order]


def icp_align(
    estimated: np.ndarray,
    truth: np.ndarray,
    init: Pose2 = Pose2.identity(),
    config: IcpConfig = IcpConfig(),
) -> AlignmentResult:
    """Iterative closest point with one-to-one matching and outlier rejection.

    Alternates greedy nearest-neighbor correspondence (pairs farther than the
    reject radius are dropped; the candidates come from a sweep over the
    truth points sorted by x, see :func:`_candidate_pairs`) with the
    closed-form rigid fit, stopping when
    the RMSE stops improving. The recorded RMSE series is non-increasing: a
    step that would worsen it terminates the iteration at the previous state.

    ``init`` seeds the transform, mapping estimated points onto truth.
    """
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if len(est) == 0 or len(tru) == 0:
        raise ValueError("point sets must be non-empty")
    if np.ptp(tru, axis=0).max() < 1e-9 or np.ptp(est, axis=0).max() < 1e-9:
        raise DegenerateGeometryError("all points coincident")

    theta, trans = init.theta, init.position
    by_x = np.argsort(tru[:, 0], kind="stable")
    sorted_x = tru[by_x, 0]

    best: AlignmentResult | None = None
    for _ in range(config.max_iterations):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        moved = est @ rot.T + trans
        rows, cols, dist = _candidate_pairs(moved, tru, by_x, sorted_x, config.reject_radius_m)
        pairs = greedy_pairs(rows, cols, dist)
        if not pairs:
            break
        e_idx = np.array([p[0] for p in pairs])
        t_idx = np.array([p[1] for p in pairs])
        rmse = float(np.sqrt(np.mean(np.sum((moved[e_idx] - tru[t_idx]) ** 2, axis=1))))
        if best is not None and rmse >= best.rmse - config.tolerance:
            if rmse < best.rmse:
                best = AlignmentResult(
                    theta, trans.copy(), tuple(pairs), rmse, len(est) - len(pairs), len(tru) - len(pairs)
                )
            break
        best = AlignmentResult(
            theta, trans.copy(), tuple(pairs), rmse, len(est) - len(pairs), len(tru) - len(pairs)
        )
        try:
            theta, trans = _rigid_fit(est[e_idx], tru[t_idx])
        except DegenerateGeometryError:
            break
    if best is None:
        raise DegenerateGeometryError("no correspondences within the reject radius")
    return best


def map_rmse(alignment: AlignmentResult) -> float:
    """Root-mean-square correspondence distance after alignment (meters)."""
    return alignment.rmse


# ---------------------------------------------------------------------------
# Planning statistics


@dataclass(frozen=True)
class PlanningStats:
    """Normalized histograms over 1 m bins (0..15 m)."""

    path_length_fractions: np.ndarray  # fraction of selected paths per length bin
    out_of_track_fractions: np.ndarray  # fraction first leaving the track per distance bin
    total_paths: int

    def out_of_track_within(self, distance_m: float) -> float:
        bins = int(math.ceil(distance_m))
        return float(self.out_of_track_fractions[:bins].sum())


def _shoelace_area(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class TrackCorridor:
    """Drivable region between the two boundary cone rings.

    For a closed loop this is an annulus: inside the outer ring and outside
    the inner ring. ``inner`` may be ``None`` for simple (non-loop) regions.
    ``edge_start`` and ``edge_end`` hold every boundary edge of both rings,
    each ring closed back onto its first vertex.
    """

    outer: np.ndarray
    inner: np.ndarray | None = None
    edge_start: np.ndarray = field(init=False, repr=False, compare=False)
    edge_end: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rings = [np.asarray(ring, dtype=float) for ring in (self.outer, self.inner) if ring is not None]
        object.__setattr__(self, "edge_start", np.vstack(rings))
        object.__setattr__(self, "edge_end", np.vstack([np.roll(ring, -1, axis=0) for ring in rings]))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Even-odd (ray crossing) test: inside the outer ring and not inside the inner.

        A points x edges matrix marks the edges whose y-span holds each point;
        only those pairs compute where the edge meets the point's horizontal
        ray, and a point is inside a ring when an odd number of that ring's
        edges cross to its right.
        """
        points = np.atleast_2d(points)
        x, y = points[:, :1], points[:, 1:]
        x1, y1 = self.edge_start[:, 0], self.edge_start[:, 1]
        x2, y2 = self.edge_end[:, 0], self.edge_end[:, 1]
        p, e = np.nonzero((y1 > y) != (y2 > y))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_at = x1[e] + (y[p, 0] - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
        right = x[p, 0] < x_at
        # one count per point for the outer ring's edges (the first len(outer)), then one for the inner's
        slot = p[right] + len(points) * (e[right] >= len(self.outer))
        outer, inner = np.bincount(slot, minlength=2 * len(points)).reshape(2, -1) % 2 == 1
        return outer & ~inner


def track_corridor(track: TrackDefinition) -> TrackCorridor:
    """Corridor polygon(s) from the boundary cones, ordered along the track."""
    _, (left, right) = boundary_order(track, CenterlineGeometry(track.centerline))
    left_ring, right_ring = track.positions[left], track.positions[right]
    if abs(_shoelace_area(left_ring)) >= abs(_shoelace_area(right_ring)):
        return TrackCorridor(outer=left_ring, inner=right_ring)
    return TrackCorridor(outer=right_ring, inner=left_ring)


# Rows (segments or points) per broadcast against the boundary rings: a chunk's
# temporaries are a few (rows x ring edges) masks and the pairs they keep,
# however long the planner log.
EXIT_TEST_CHUNK = 64
# A segment meets a ring edge only where their bounding boxes overlap, the
# edge's grown by this margin: far above rounding, far below a cone gap. The
# float crossing test can round a gap of a few ulps closed (a waypoint 1e-116 m
# beside a ring vertex) and count a crossing exact arithmetic would not; the
# margin keeps such pairs, so the exits are those of testing every edge.
EXIT_BOX_MARGIN_M = 1e-3


def first_exit_distances(
    points: np.ndarray, offsets: Sequence[int], corridor: TrackCorridor
) -> list[float | None]:
    """Arc distance from the car at which each path first leaves the corridor.

    ``points[offsets[i]:offsets[i + 1]]`` is path ``i``'s chain: the car,
    then its waypoints; a chain without waypoints has no exit (None). Each
    vertex and each segment is tested against the boundary rings, so
    crossings between waypoints are caught. A segment leaves at the smallest
    parameter of the edges it crosses (closed intervals, near-parallel pairs
    rejected). A segment meets only the ring edges whose bounding box
    overlaps its own (see :data:`EXIT_BOX_MARGIN_M`), and points meet the
    ray-crossing containment test, over :data:`EXIT_TEST_CHUNK` rows at a
    time; each chain is then walked in order, adding its segment lengths
    from 0.0, up to the first segment that crosses a ring or ends outside.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    starts, ends = points[:-1], points[1:]
    seg = ends - starts  # every consecutive pair; those joining two chains are never read
    seg_lens = np.hypot(seg[:, 0], seg[:, 1]).tolist()
    seg_lo, seg_hi = np.minimum(starts, ends), np.maximum(starts, ends)
    edge_lo = np.minimum(corridor.edge_start, corridor.edge_end) - EXIT_BOX_MARGIN_M
    edge_hi = np.maximum(corridor.edge_start, corridor.edge_end) + EXIT_BOX_MARGIN_M
    first_t = np.full(len(seg), np.inf)
    inside = np.empty(len(points), dtype=bool)
    q1x, q1y = corridor.edge_start[:, 0], corridor.edge_start[:, 1]
    ex, ey = corridor.edge_end[:, 0] - q1x, corridor.edge_end[:, 1] - q1y
    for lo in range(0, len(seg), EXIT_TEST_CHUNK):
        rows = slice(lo, lo + EXIT_TEST_CHUNK)
        overlap = (seg_lo[rows, :1] <= edge_hi[:, 0]) & (edge_lo[:, 0] <= seg_hi[rows, :1])
        overlap &= (seg_lo[rows, 1:] <= edge_hi[:, 1]) & (edge_lo[:, 1] <= seg_hi[rows, 1:])
        s, e = np.nonzero(overlap)  # (segment, ring edge) pairs whose boxes overlap
        s += lo
        dx, dy = seg[s, 0], seg[s, 1]
        wx, wy = q1x[e] - starts[s, 0], q1y[e] - starts[s, 1]  # ring vertex minus segment start
        denom = dx * ey[e] - dy * ex[e]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # near-parallel pairs are masked below
            t = (wx * ey[e] - wy * ex[e]) / denom
            u = (wx * dy - wy * dx) / denom
        crossed = ~(np.abs(denom) < 1e-15) & (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)
        np.minimum.at(first_t, s[crossed], t[crossed])  # a crossed t lies in [0, 1]
    for lo in range(0, len(points), EXIT_TEST_CHUNK):
        rows = slice(lo, lo + EXIT_TEST_CHUNK)
        inside[rows] = corridor.contains(points[rows])
    first_t, inside = first_t.tolist(), inside.tolist()
    exits: list[float | None] = []
    for start, end in zip(offsets, offsets[1:]):
        arc, exit_d = 0.0, None
        for k in range(start, end - 1):
            seg_len = seg_lens[k]
            if first_t[k] != math.inf:
                exit_d = arc + first_t[k] * seg_len
                break
            if not inside[k + 1]:
                exit_d = arc + seg_len
                break
            arc += seg_len
        exits.append(exit_d)
    return exits


def planning_stats(
    records: Sequence[dict],
    track: TrackDefinition,
    trajectory: dict[float, tuple[Pose2, Pose2]] | None = None,
) -> PlanningStats:
    """Histogram selected paths from planner log records against the track.

    Planner records live in the dead-reckoned local frame. ``trajectory``
    maps timestamps to (true pose, local ego pose) so each path can be placed
    on the true track through the car's ground-truth pose, matching how paths
    are judged against a surveyed map; without it, or for a timestamp it
    lacks, the local frame is assumed anchored at the track's start pose.

    Every path's chain (its ego, then its waypoints) is moved to the world in
    one elementwise pass, with each record's ``c``, ``s`` and the expressions
    of :func:`conetrack.core.transform_point`, and
    :func:`first_exit_distances` tests all of them at once.
    """
    corridor = track_corridor(track)
    start_pose = track.start_pose()
    chains: list[list[float]] = []
    offsets = [0]
    poses: list[tuple[float, float, float, float]] = []  # (x, y, cos, sin) of each chain's local-to-world pose
    for record in records:
        waypoints = record.get("waypoints_m") or []
        if not waypoints:
            continue
        ego = record["ego"]
        entry = trajectory.get(record["timestamp_s"]) if trajectory else None
        if entry is not None:
            true_pose, ego_at_frame = entry
            to_world = compose(true_pose, invert(ego_at_frame))
        else:
            to_world = start_pose
        chains.append([ego["x_m"], ego["y_m"]])
        chains.extend(waypoints)
        offsets.append(len(chains))
        poses.append((to_world.x, to_world.y, math.cos(to_world.theta), math.sin(to_world.theta)))
    total = len(poses)
    lengths = np.zeros(HISTOGRAM_BIN_COUNT)
    exits = np.zeros(HISTOGRAM_BIN_COUNT)
    if total:
        local = np.array(chains, dtype=float)
        x, y = local[:, 0], local[:, 1]
        pose_x, pose_y, c, s = np.repeat(np.array(poses), np.diff(offsets), axis=0).T
        world = np.stack([pose_x + c * x - s * y, pose_y + s * x + c * y], axis=-1)
        seg = local[1:] - local[:-1]
        seg_lens = np.hypot(seg[:, 0], seg[:, 1])
        for start, end in zip(offsets, offsets[1:]):
            # the path's own segments, from its first waypoint on
            length = float(seg_lens[start + 1 : end - 1].sum()) if end - start > 2 else 0.0
            lengths[min(int(length), HISTOGRAM_BIN_COUNT - 1)] += 1
        for exit_d in first_exit_distances(world, offsets, corridor):
            if exit_d is not None:
                exits[min(int(exit_d), HISTOGRAM_BIN_COUNT - 1)] += 1
        lengths /= total
        exits /= total
    return PlanningStats(lengths, exits, total)


_TRAJECTORY_COLUMNS = ("timestamp_s", "true_x_m", "true_y_m", "true_theta_rad", "ego_x_m", "ego_y_m", "ego_theta_rad")


def save_trajectory(path: Path | str, rows: Sequence[tuple[float, Pose2, Pose2]]) -> None:
    """Evaluation-only ground truth: (timestamp, true pose, local ego) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRAJECTORY_COLUMNS)
        for t, true_pose, ego in rows:
            writer.writerow([t, true_pose.x, true_pose.y, true_pose.theta, ego.x, ego.y, ego.theta])


def load_trajectory(path: Path | str) -> dict[float, tuple[Pose2, Pose2]]:
    """Read a trajectory CSV; a missing column, a value that is not a finite number or a
    repeated ``timestamp_s`` raises ``ValueError`` naming its line."""
    out: dict[float, tuple[Pose2, Pose2]] = {}
    lines: dict[float, int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in _TRAJECTORY_COLUMNS if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"trajectory header on line 1 lacks columns {missing}")
        for row in reader:
            try:
                t, *pose = (float(row[name]) for name in _TRAJECTORY_COLUMNS)
            except (TypeError, ValueError) as exc:  # a short row reads None, a word fails float()
                raise ValueError(f"trajectory row on line {reader.line_num} is not {len(_TRAJECTORY_COLUMNS)} numbers") from exc
            if not all(map(math.isfinite, [t, *pose])):
                raise ValueError(f"trajectory row on line {reader.line_num} holds a non-finite value")
            if t in lines:
                raise ValueError(f"trajectory row on line {reader.line_num} repeats the timestamp_s {t!r} of line {lines[t]}")
            lines[t] = reader.line_num
            out[t] = (Pose2(*pose[:3]), Pose2(*pose[3:]))
    return out


# ---------------------------------------------------------------------------
# Timing and reports


TIMING_PERCENTILES = (50, 90, 99)


def timing_percentiles(samples_ms: Sequence[float]) -> dict[str, float | None]:
    """Nearest-rank percentiles of a timing series (milliseconds); None for an empty series."""
    if not samples_ms:
        return {f"p{p}_ms": None for p in TIMING_PERCENTILES} | {"mean_ms": None, "count": 0}
    ordered = sorted(samples_ms)
    out = {}
    for p in TIMING_PERCENTILES:
        rank = max(int(math.ceil(p / 100.0 * len(ordered))) - 1, 0)
        out[f"p{p}_ms"] = float(ordered[rank])
    out["mean_ms"] = float(np.mean(ordered))
    out["count"] = len(ordered)
    return out


def build_report(
    map_metrics: dict | None,
    stats: PlanningStats | None,
    stage_timings_ms: dict[str, Sequence[float]] | None = None,
    run_info: dict | None = None,
) -> dict:
    report: dict = {"run": run_info or {}}
    report["map"] = map_metrics or {}
    if stats is not None:
        report["planning"] = {
            "total_paths": stats.total_paths,
            "bin_edges_m": list(range(HISTOGRAM_BIN_COUNT + 1)),
            "path_length_fractions": [float(v) for v in stats.path_length_fractions],
            "out_of_track_fractions": [float(v) for v in stats.out_of_track_fractions],
            "out_of_track_within_5m_fraction": stats.out_of_track_within(5.0),
        }
    else:
        report["planning"] = {"total_paths": 0, "path_length_fractions": [], "out_of_track_fractions": []}
    report["timing"] = {
        stage: timing_percentiles(samples) for stage, samples in (stage_timings_ms or {}).items()
    }
    return report


def save_report(report: dict, json_path: Path | str, csv_path: Path | str | None = None) -> None:
    Path(json_path).write_text(json.dumps(report, indent=2, sort_keys=True))
    if csv_path is None:
        return
    planning = report.get("planning", {})
    lengths = planning.get("path_length_fractions") or []
    exits = planning.get("out_of_track_fractions") or []
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low_m", "bin_high_m", "path_length_fraction", "out_of_track_fraction"])
        for k in range(max(len(lengths), len(exits))):
            writer.writerow(
                [
                    k,
                    k + 1,
                    lengths[k] if k < len(lengths) else "",
                    exits[k] if k < len(exits) else "",
                ]
            )
