"""End-to-end scenario execution.

Wires the stages together per frame: synthetic sensing -> local map ->
{planner, global map}, with incremental graph optimization, per-stage timing,
pipeline-failure scheduling, and optional closed-loop path following. Writes
all run artifacts into a directory and returns a summary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import RunConfig, RunFailure, dump_resolved, emitting_sources, read_input
from .core import Pose2, Velocity2, integrate_velocity, relative_pose
from .evaluate import (
    build_report,
    icp_align,
    map_rmse,
    planning_stats,
    save_report,
    save_trajectory,
    timing_percentiles,
)
from .global_map import Graph, add_snapshot, export_map, optimize, save_graph, save_map
from .local_map import LocalMapSnapshot, LocalMapState, MapMode, SnapshotLogWriter, ingest_frame
from .planner import PlanResult, plan_record, plan_snapshot
from .simulate import (
    CenterlineGeometry,
    ScenarioDriver,
    SimRun,
    TrackDefinition,
    curvature_limited_speed_profile,
    discrete_frames,
    generate_track,
    load_track,
    noisy_velocity,
    observe_cones,
)


@dataclass
class RunResult:
    completed_lap: bool
    frames: int
    out_dir: Path
    rmse_m: float | None
    rmse_dead_reckoned_m: float | None
    report: dict


class _PipelineLiveness:
    """Tracks which perception pipelines are up, per the failure schedule."""

    def __init__(self, config: RunConfig):
        self.alive = config.initial_pipelines()
        self._events = sorted(config.mode_schedule, key=lambda e: e["time_s"])
        self._next = 0

    def advance(self, now: float) -> None:
        while self._next < len(self._events) and self._events[self._next]["time_s"] <= now:
            event = self._events[self._next]
            self.alive -= set(event.get("fail", []))
            self.alive |= set(event.get("restore", []))
            self._next += 1


class _ClosedLoopSteering:
    """Closed-loop driver: pure pursuit of the latest selected path (local frame)."""

    def __init__(self, lookahead_m: float = 4.0):
        self.lookahead = lookahead_m
        self.progress = 0.0  # arc length driven along the centerline
        self._waypoints: np.ndarray | None = None
        self._local_ego: Pose2 | None = None

    def update_plan(self, waypoints: np.ndarray, local_ego: Pose2) -> None:
        if len(waypoints):
            self._waypoints = waypoints
            self._local_ego = local_ego

    def yaw_rate(self, speed: float) -> float:
        if self._waypoints is None:
            return 0.0
        c, s = math.cos(self._local_ego.theta), math.sin(self._local_ego.theta)
        rel = self._waypoints - self._local_ego.position
        body = np.column_stack([c * rel[:, 0] + s * rel[:, 1], -s * rel[:, 0] + c * rel[:, 1]])
        dist = np.hypot(body[:, 0], body[:, 1])
        ahead = np.flatnonzero((dist >= self.lookahead) & (body[:, 0] > 0))
        idx = int(ahead[0]) if len(ahead) else int(np.argmax(dist))
        target = body[idx]
        d2 = float(target @ target)
        if d2 < 1e-9:
            return 0.0
        curvature = 2.0 * target[1] / d2
        return curvature * speed

    def poses(self, geom: CenterlineGeometry, config: RunConfig, max_frames: int) -> Iterator[Pose2]:
        """True poses steered by the latest plan until one lap of progress or ``max_frames``.

        Each pose is stepped after the consumer has handled the previous one.
        Raises :class:`RunFailure` when the ego leaves the track corridor.
        """
        dt = 1.0 / config.frame_rate_hz
        pose = geom.pose_at(0.0)
        last_s = 0.0
        k = 0
        while self.progress < geom.length and k < max_frames:
            yield pose
            s_here = geom.nearest_arc_length(pose.position)
            lateral = float(np.hypot(*(pose.position - geom.point_at(s_here))))
            if lateral > config.divergence_margin_m:
                raise RunFailure(f"ego left the track corridor: {lateral:.2f} m off the centerline at {k * dt:.1f} s")
            delta_s = (s_here - last_s) % geom.length
            if delta_s < geom.length / 2:
                self.progress += delta_s
            last_s = s_here
            speed = config.closed_loop_speed_mps
            pose = integrate_velocity(pose, Velocity2(speed, 0.0, self.yaw_rate(speed)), dt)
            k += 1


class _SnapshotEngine:
    """The per-snapshot half of the pipeline, shared by run and replay.

    Plans on each snapshot and logs the plan to ``planner_log.ndjson``, adds
    the snapshot to the optimized graph and to a never-optimized
    dead-reckoning graph, and solves the optimized graph every
    ``optimize_every`` snapshots. :meth:`finish` runs the final solve and
    writes both maps and the graph.
    """

    def __init__(self, config: RunConfig, out_dir: Path):
        self.config = config
        self.planner_cfg = config.planner_config()
        self.global_cfg = config.global_map_config()
        self.graph = Graph()
        self.baseline = Graph()
        self.planner_records: list[dict] = []
        self.timings: dict[str, list[float]] = {"planner": [], "global_map": []}
        self.steps = 0
        self._prev_ego: Pose2 | None = None
        self._since_opt = 0
        self._planner_fh = open(out_dir / "planner_log.ndjson", "w", encoding="utf-8")
        self._planner_fh.write(json.dumps({"schema_version": 1, "kind": "planner_log"}, sort_keys=True) + "\n")

    def step(self, snapshot: LocalMapSnapshot) -> PlanResult | None:
        """Plan on and map one snapshot; returns the plan, or None when planning is off."""
        result = None
        if self.config.plan_enabled:
            t0 = time.perf_counter()
            result = plan_snapshot(snapshot, self.planner_cfg)
            self.timings["planner"].append((time.perf_counter() - t0) * 1e3)
            record = plan_record(result, snapshot, self.config.verbose_candidates)
            self.planner_records.append(record)
            self._planner_fh.write(json.dumps(record, sort_keys=True) + "\n")

        t0 = time.perf_counter()
        odom = Pose2.identity() if self._prev_ego is None else relative_pose(self._prev_ego, snapshot.ego)
        add_snapshot(self.graph, snapshot, odom, self.global_cfg)
        add_snapshot(self.baseline, snapshot, odom, self.global_cfg)
        self._since_opt += 1
        if self.global_cfg.optimize_every and self._since_opt >= self.global_cfg.optimize_every:
            self.graph.merge_estimates(optimize(self.graph, self.global_cfg))
            self._since_opt = 0
        self.timings["global_map"].append((time.perf_counter() - t0) * 1e3)
        self._prev_ego = snapshot.ego
        self.steps += 1
        return result

    def close(self) -> None:
        self._planner_fh.close()

    def finish(self, out_dir: Path) -> tuple[list[dict], list[dict], float | None]:
        """Final solve and exports; returns the estimated map, the dead-reckoned map and the final cost."""
        final_cost = None
        if len(self.graph.poses):
            result = optimize(self.graph, self.global_cfg)
            self.graph.merge_estimates(result)
            final_cost = result.final_cost
        min_edges = self.global_cfg.export_min_edges
        estimated = export_map(self.graph, min_edges=min_edges)
        dead_reckoned = export_map(self.baseline, min_edges=min_edges)
        save_map(estimated, out_dir / "map_estimated.json")
        save_map(dead_reckoned, out_dir / "map_dead_reckoned.json")
        save_graph(self.graph, out_dir / "graph.json")
        return estimated, dead_reckoned, final_cost


def map_alignment(records: list[dict], track: TrackDefinition, start_pose: Pose2) -> dict:
    """Align an exported map to the track's cones and return the map metrics.

    Map coordinates are relative to the lap's start pose, which places them
    in the world before ICP refines the fit.
    """
    pts = np.array([[r["x_m"], r["y_m"]] for r in records])
    world = np.array([start_pose.rotation() @ p + start_pose.position for p in pts])
    alignment = icp_align(world, track.cone_positions(), init=Pose2.identity())
    return {
        "rmse_m": map_rmse(alignment),
        "matched": len(alignment.correspondences),
        "unmatched_estimated": alignment.unmatched_estimated,
        "unmatched_truth": alignment.unmatched_truth,
        "alignment_rotation_rad": alignment.rotation,
        "alignment_translation_m": [float(v) for v in alignment.translation],
    }


def run_pipeline(config: RunConfig, out_dir: Path | str) -> RunResult:
    """Execute one scenario and write all artifacts under ``out_dir``.

    Raises :class:`RunFailure` (after writing partial outputs) when the
    closed-loop follower leaves the track corridor by more than the
    configured margin.
    """
    from .simulate import save_track

    if config.track_file:  # a bad track file stops the run before any artifact is written
        track = read_input(load_track, config.track_file)
    else:
        track = generate_track(config.track_spec, config.seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_resolved(config, out_dir / "config_resolved.json")
    save_track(track, out_dir / "track.json")
    geom = CenterlineGeometry(track.centerline)

    speed_profile = curvature_limited_speed_profile(track, config.max_speed_mps, config.lateral_accel_mps2)
    run = SimRun(track, speed_profile, config.frame_rate_hz, config.seed)
    local_cfg = config.local_map_config()
    force = None if config.force_mode is None else MapMode(config.force_mode)

    rng = np.random.default_rng(config.seed)
    liveness = _PipelineLiveness(config)
    state = LocalMapState()
    timings: dict[str, list[float]] = {"sense": [], "local_map": []}
    trajectory_rows: list[tuple[float, Pose2, Pose2]] = []
    steering = _ClosedLoopSteering()
    velocity_profile = config.profiles["fusion"]  # ego-motion source, independent of cone pipelines
    start_pose = geom.pose_at(0.0)
    completed = False
    failure: RunFailure | None = None

    if config.closed_loop:
        dt = 1.0 / config.frame_rate_hz
        max_frames = int(3 * geom.length / (min(v for _, v in speed_profile) * dt)) + 10
        true_frames = discrete_frames(steering.poses(geom, config, max_frames), dt)
    else:
        true_frames = ScenarioDriver(run).frames()

    snapshot_writer = SnapshotLogWriter(out_dir / "snapshots.ndjson")
    engine = _SnapshotEngine(config, out_dir)
    try:
        for timestamp, frame_dt, true_pose, true_vel in true_frames:
            liveness.advance(timestamp)

            t0 = time.perf_counter()
            batches = [
                observe_cones(track, true_pose, config.profiles[source], rng, timestamp)
                for source in emitting_sources(liveness.alive)
            ]
            vel_reading = noisy_velocity(true_vel, velocity_profile, rng)
            timings["sense"].append((time.perf_counter() - t0) * 1e3)

            t0 = time.perf_counter()
            state, snapshot = ingest_frame(state, batches, vel_reading, frame_dt, local_cfg, mode=force)
            timings["local_map"].append((time.perf_counter() - t0) * 1e3)
            snapshot_writer.write(snapshot)
            trajectory_rows.append((snapshot.timestamp, true_pose, snapshot.ego))

            plan = engine.step(snapshot)
            if config.closed_loop and plan is not None and plan.selected is not None:
                steering.update_plan(plan.selected.waypoints, snapshot.ego)
        completed = not config.closed_loop or steering.progress >= geom.length
    except RunFailure as exc:
        failure = exc
    finally:
        snapshot_writer.close()
        engine.close()

    estimated, dead_reckoned, final_cost = engine.finish(out_dir)
    timings.update(engine.timings)
    save_trajectory(out_dir / "trajectory.csv", trajectory_rows)
    _write_planner_timing(out_dir / "planner_timing.csv", timings["planner"])

    map_metrics: dict = {"landmarks": len(estimated), "final_cost": final_cost}
    if estimated:
        map_metrics.update(map_alignment(estimated, track, start_pose))
        map_metrics["rmse_dead_reckoned_m"] = map_alignment(dead_reckoned, track, start_pose)["rmse_m"]

    stats = None
    if engine.planner_records:
        trajectory = {t: (true, ego) for t, true, ego in trajectory_rows}
        t0 = time.perf_counter()
        stats = planning_stats(engine.planner_records, track, trajectory)
        timings["planning_stats"] = [(time.perf_counter() - t0) * 1e3]
    report = build_report(
        map_metrics,
        stats,
        timings,
        {
            "name": config.name,
            "seed": config.seed,
            "frames": engine.steps,
            "completed_lap": completed,
            "track_length_m": track.total_length,
            "failure": str(failure) if failure else None,
        },
    )
    save_report(report, out_dir / "report.json", out_dir / "report_hist.csv")

    if failure is not None:
        raise RunFailure(str(failure))
    return RunResult(
        completed, engine.steps, out_dir, map_metrics.get("rmse_m"), map_metrics.get("rmse_dead_reckoned_m"), report
    )


def _write_planner_timing(path: Path, samples_ms: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("frame,planner_ms\n")
        for k, v in enumerate(samples_ms):
            fh.write(f"{k},{v:.3f}\n")


# ---------------------------------------------------------------------------
# Replay: re-run planner / global map over a recorded snapshot log


def replay_snapshots(
    snapshots, config: RunConfig, out_dir: Path | str, track: TrackDefinition | None = None
) -> dict:
    """Re-run planning and graph building on recorded snapshots.

    Runs the same per-snapshot step as :func:`run_pipeline`, so a run's
    snapshot log and config reproduce its planner log, maps and graph byte
    for byte.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_resolved(config, out_dir / "config_resolved.json")
    engine = _SnapshotEngine(config, out_dir)
    try:
        for snapshot in snapshots:
            engine.step(snapshot)
    finally:
        engine.close()
    estimated, _, _ = engine.finish(out_dir)

    report: dict = {"frames": engine.steps, "landmarks": len(estimated)}
    if track is not None and engine.planner_records:
        t0 = time.perf_counter()
        stats = planning_stats(engine.planner_records, track)
        report["timing"] = {"planning_stats": timing_percentiles([(time.perf_counter() - t0) * 1e3])}
        report["planning"] = {
            "path_length_fractions": [float(v) for v in stats.path_length_fractions],
            "out_of_track_fractions": [float(v) for v in stats.out_of_track_fractions],
            "total_paths": stats.total_paths,
        }
    (out_dir / "replay_report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    return report
