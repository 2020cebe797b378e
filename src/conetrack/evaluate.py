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

from .core import Pose2, compose, invert, transform_point
from .simulate import CenterlineGeometry, TrackDefinition

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


def _greedy_one_to_one(est: np.ndarray, truth: np.ndarray, reject_radius: float):
    """Ascending-distance greedy matching; each point used at most once."""
    d = np.hypot(est[:, None, 0] - truth[None, :, 0], est[:, None, 1] - truth[None, :, 1])
    ei, ti = np.nonzero(d <= reject_radius)
    order = np.argsort(d[ei, ti], kind="stable")
    used_e: set[int] = set()
    used_t: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for k in order:
        e, t = int(ei[k]), int(ti[k])
        if e in used_e or t in used_t:
            continue
        used_e.add(e)
        used_t.add(t)
        pairs.append((e, t))
    pairs.sort()
    return pairs


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


def icp_align(
    estimated: np.ndarray,
    truth: np.ndarray,
    init: Pose2 | tuple[float, np.ndarray] | str = Pose2.identity(),
    config: IcpConfig = IcpConfig(),
) -> AlignmentResult:
    """Iterative closest point with one-to-one matching and outlier rejection.

    Alternates greedy nearest-neighbor correspondence (pairs farther than the
    reject radius are dropped) with the closed-form rigid fit, stopping when
    the RMSE stops improving. The recorded RMSE series is non-increasing: a
    step that would worsen it terminates the iteration at the previous state.

    ``init`` seeds the transform: a pose, a ``(rotation, translation)`` pair,
    or ``"centroid"`` for a translation-only coarse start.
    """
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if len(est) == 0 or len(tru) == 0:
        raise ValueError("point sets must be non-empty")
    if np.ptp(tru, axis=0).max() < 1e-9 or np.ptp(est, axis=0).max() < 1e-9:
        raise DegenerateGeometryError("all points coincident")

    if isinstance(init, str):
        if init != "centroid":
            raise ValueError(f"unknown init mode {init!r}")
        theta, trans = 0.0, tru.mean(axis=0) - est.mean(axis=0)
    elif isinstance(init, Pose2):
        theta, trans = init.theta, init.position
    else:
        theta, trans = float(init[0]), np.asarray(init[1], dtype=float)

    best: AlignmentResult | None = None
    for _ in range(config.max_iterations):
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        moved = est @ rot.T + trans
        pairs = _greedy_one_to_one(moved, tru, config.reject_radius_m)
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
        points = np.atleast_2d(points)
        inside = points_in_polygon(points, self.outer)
        if self.inner is not None:
            inside &= ~points_in_polygon(points, self.inner)
        return inside


def track_corridor(track: TrackDefinition) -> TrackCorridor:
    """Corridor polygon(s) from the boundary cones, ordered along the track."""
    geom = CenterlineGeometry(track.centerline)
    left, right = [], []
    for cone in track.cones:
        if cone.color == "orange":
            continue
        s = geom.nearest_arc_length(cone.position)
        (left if cone.color == "blue" else right).append((s, cone.position))
    left.sort(key=lambda e: e[0])
    right.sort(key=lambda e: e[0])
    left_ring = np.array([p for _, p in left])
    right_ring = np.array([p for _, p in right])
    if abs(_shoelace_area(left_ring)) >= abs(_shoelace_area(right_ring)):
        return TrackCorridor(outer=left_ring, inner=right_ring)
    return TrackCorridor(outer=right_ring, inner=left_ring)


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd (ray crossing) point-in-polygon test.

    One points x edges matrix of ray crossings, reduced per point with XOR.
    """
    x, y = points[:, :1], points[:, 1:]
    x1, y1 = polygon[:, 0], polygon[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    crosses = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_at = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return np.logical_xor.reduce(crosses & (x < x_at), axis=1)


def first_exit_distance(
    ego_xy: np.ndarray, waypoints: np.ndarray, corridor: TrackCorridor
) -> float | None:
    """Arc distance from the car at which the path first leaves the corridor.

    Walks the polyline (car -> waypoints) testing each vertex and each segment
    against the boundary rings, so crossings between waypoints are caught. All
    segments meet all boundary edges in one broadcast; a segment leaves at the
    smallest parameter of the edges it crosses (closed intervals, near-parallel
    pairs rejected).
    """
    if len(waypoints) == 0:
        return None
    chain = np.vstack([np.asarray(ego_xy, dtype=float)[None, :], waypoints])
    inside = corridor.contains(chain)
    d = np.diff(chain, axis=0)[:, None, :]  # (segments, 1, 2)
    q1 = corridor.edge_start
    e = corridor.edge_end - q1  # (edges, 2)
    w = q1 - chain[:-1, None, :]  # (segments, edges, 2)
    denom = d[..., 0] * e[:, 1] - d[..., 1] * e[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # near-parallel pairs are masked below
        t = (w[..., 0] * e[:, 1] - w[..., 1] * e[:, 0]) / denom
        u = (w[..., 0] * d[..., 1] - w[..., 1] * d[..., 0]) / denom
    crossed = ~(np.abs(denom) < 1e-15) & (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)
    first_t = np.where(crossed, t, np.inf).min(axis=1)
    seg_lens = np.hypot(d[:, 0, 0], d[:, 0, 1])
    arc = 0.0
    for k, seg_len in enumerate(seg_lens.tolist()):
        if crossed[k].any():
            return arc + float(first_t[k]) * seg_len
        if not inside[k + 1]:
            return arc + seg_len
        arc += seg_len
    return None


def planning_stats(
    records: Sequence[dict],
    track: TrackDefinition,
    trajectory: dict[float, tuple[Pose2, Pose2]] | None = None,
) -> PlanningStats:
    """Histogram selected paths from planner log records against the track.

    Planner records live in the dead-reckoned local frame. ``trajectory``
    maps timestamps to (true pose, local ego pose) so each path can be placed
    on the true track through the car's ground-truth pose, matching how paths
    are judged against a surveyed map; without it, the local frame is assumed
    anchored at the track's start pose.
    """
    corridor = track_corridor(track)
    geom = CenterlineGeometry(track.centerline)
    start_pose = geom.pose_at(0.0)
    lengths = np.zeros(HISTOGRAM_BIN_COUNT)
    exits = np.zeros(HISTOGRAM_BIN_COUNT)
    total = 0
    for record in records:
        waypoints = np.array(record.get("waypoints_m") or [])
        if waypoints.size == 0:
            continue
        total += 1
        seg = np.diff(waypoints, axis=0)
        length = float(np.hypot(seg[:, 0], seg[:, 1]).sum()) if len(waypoints) > 1 else 0.0
        bin_idx = min(int(length), HISTOGRAM_BIN_COUNT - 1)
        lengths[bin_idx] += 1
        ego_local = Pose2(record["ego"]["x_m"], record["ego"]["y_m"], record["ego"]["theta_rad"])
        entry = trajectory.get(record["timestamp_s"]) if trajectory else None
        if entry is not None:
            true_pose, ego_at_frame = entry
            to_world = compose(true_pose, invert(ego_at_frame))
        else:
            to_world = start_pose
        wp_world = transform_point(to_world, waypoints)
        ego_world = transform_point(to_world, ego_local.position)
        exit_d = first_exit_distance(ego_world, wp_world, corridor)
        if exit_d is not None:
            exits[min(int(exit_d), HISTOGRAM_BIN_COUNT - 1)] += 1
    if total:
        lengths /= total
        exits /= total
    return PlanningStats(lengths, exits, total)


def save_trajectory(path: Path | str, rows: Sequence[tuple[float, Pose2, Pose2]]) -> None:
    """Evaluation-only ground truth: (timestamp, true pose, local ego) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["timestamp_s", "true_x_m", "true_y_m", "true_theta_rad", "ego_x_m", "ego_y_m", "ego_theta_rad"]
        )
        for t, true_pose, ego in rows:
            writer.writerow([t, true_pose.x, true_pose.y, true_pose.theta, ego.x, ego.y, ego.theta])


def load_trajectory(path: Path | str) -> dict[float, tuple[Pose2, Pose2]]:
    out: dict[float, tuple[Pose2, Pose2]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out[float(row["timestamp_s"])] = (
                Pose2(float(row["true_x_m"]), float(row["true_y_m"]), float(row["true_theta_rad"])),
                Pose2(float(row["ego_x_m"]), float(row["ego_y_m"]), float(row["ego_theta_rad"])),
            )
    return out


# ---------------------------------------------------------------------------
# Timing and reports


def timing_percentiles(samples_ms: Sequence[float], percentiles=(50, 90, 99)) -> dict[str, float | None]:
    """Nearest-rank percentiles of a timing series (milliseconds); None for an empty series."""
    if not samples_ms:
        return {f"p{p}_ms": None for p in percentiles} | {"mean_ms": None, "count": 0}
    ordered = sorted(samples_ms)
    out = {}
    for p in percentiles:
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
