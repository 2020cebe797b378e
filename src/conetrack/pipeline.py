"""End-to-end scenario execution.

Wires the stages together per frame: synthetic sensing -> local map ->
{planner, global map}, with per-stage timing, pipeline-failure scheduling and
optional closed-loop path following; the graph is solved once, after the last
frame. Writes all run artifacts into a directory and returns a summary.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import ConfigError, RunConfig, RunFailure, dump_resolved, read_input
from .core import Pose2, Velocity2, body_frame_point, integrate_velocity
from .evaluate import (
    build_report,
    icp_align,
    map_rmse,
    planning_stats,
    save_report,
    save_trajectory,
    timing_percentiles,
)
from .global_map import Graph, add_snapshot, export_map, optimize, residual_summary, save_graph, save_map
from .local_map import MAX_SNAPSHOT_TIME_S, LocalMapSnapshot, LocalMapState, MapMode, SnapshotLogWriter, ingest_frame
from .planner import PlannerLogWriter, PlanResult, plan_record, plan_snapshot
from .simulate import (
    CenterlineGeometry,
    TrackDefinition,
    centerline_poses,
    curvature_limited_speed_profile,
    discrete_frames,
    generate_track,
    load_track,
    noisy_velocity,
    observe_cones,
    speed_lookup,
)

# a closed-loop run fails once the ego is this far off the centerline
DIVERGENCE_MARGIN_M = 3.0
# the most frames a run may ask for: three closed-loop laps of a 5 km track
# (the longest a spec may ask for) at the 1 m/s speed floor and 10 Hz take 150,000
MAX_RUN_FRAMES = 200_000
SPARE_CLOSED_LOOP_FRAMES = 10  # the closed-loop follower may step this many frames past the estimate


@dataclass
class RunResult:
    completed_lap: bool
    frames: int
    out_dir: Path
    rmse_m: float | None
    rmse_dead_reckoned_m: float | None
    report: dict


class StageTimer:
    """Wall-clock milliseconds of each pipeline stage, one list of samples per stage.

    ``with timer.stage(name):`` appends one sample when its block completes;
    a block that raises adds none. The stages the timer starts with are
    listed before their first sample, so one that never runs has a count of 0.
    """

    def __init__(self, *stages: str):
        self.samples: dict[str, list[float]] = {name: [] for name in stages}

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        samples = self.samples.setdefault(name, [])
        t0 = time.perf_counter()
        yield
        samples.append((time.perf_counter() - t0) * 1e3)


class _ClosedLoopSteering:
    """Closed-loop driver: pure pursuit of the latest selected path (local frame), for at most ``max_frames`` frames."""

    def __init__(self, max_frames: int, lookahead_m: float = 4.0):
        self.max_frames = max_frames
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
        body = body_frame_point(self._local_ego, self._waypoints)
        dist = np.hypot(body[:, 0], body[:, 1])
        ahead = np.flatnonzero((dist >= self.lookahead) & (body[:, 0] > 0))
        idx = int(ahead[0]) if len(ahead) else int(np.argmax(dist))
        target = body[idx]
        d2 = float(target @ target)
        if d2 < 1e-9:
            return 0.0
        curvature = 2.0 * target[1] / d2
        return curvature * speed

    def poses(
        self, geom: CenterlineGeometry, speed_profile: Sequence[tuple[float, float]], dt: float
    ) -> Iterator[Pose2]:
        """True poses steered by the latest plan until one lap of progress.

        Each step drives at the profile's speed at the car's projection on
        the centerline. Each pose is stepped after the consumer has handled
        the previous one. Stops after ``max_frames`` frames; raises
        :class:`RunFailure` once the ego is more than ``DIVERGENCE_MARGIN_M``
        off the centerline.
        """
        speed_at = speed_lookup(speed_profile)
        pose = geom.pose_at(0.0)
        last_s = 0.0
        k = 0
        while self.progress < geom.length and k < self.max_frames:
            yield pose
            s_here = geom.nearest_arc_length(pose.position)
            lateral = float(np.hypot(*(pose.position - geom.point_at(s_here))))
            if lateral > DIVERGENCE_MARGIN_M:
                raise RunFailure(f"ego left the track corridor: {lateral:.2f} m off the centerline at {k * dt:.1f} s")
            delta_s = (s_here - last_s) % geom.length
            if delta_s < geom.length / 2:
                self.progress += delta_s
            last_s = s_here
            speed = speed_at(s_here)
            pose = integrate_velocity(pose, Velocity2(speed, 0.0, self.yaw_rate(speed)), dt)
            k += 1


class _SnapshotEngine:
    """The per-snapshot half of the pipeline, shared by run and replay.

    Creates ``out_dir`` and writes ``config_resolved.json`` into it. Plans on
    each snapshot and logs the plan to ``planner_log.ndjson``, and
    adds the snapshot to the one graph. :meth:`finish` exports the graph as
    the dead-reckoned map, solves it once, and writes the estimated map and
    the graph. Each step is timed as a stage of the run's ``timer``: the
    plan as ``planner``, its log record and write as ``planner_log``, the
    graph addition as ``global_map``. The timer must start with ``STAGES``.
    """

    STAGES = ("planner", "planner_log", "global_map", "final_solve", "export", "map_write")

    def __init__(self, config: RunConfig, out_dir: Path, timer: StageTimer):
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_resolved(config, out_dir / "config_resolved.json")
        self.config = config
        self.planner_cfg = config.planner_config()
        self.global_cfg = config.global_map_config()
        self.graph = Graph()
        self.planner_records: list[dict] = []
        self.timer = timer
        self.steps = 0
        self._planner_log = PlannerLogWriter(out_dir / "planner_log.ndjson")

    def step(self, snapshot: LocalMapSnapshot) -> PlanResult | None:
        """Plan on and map one snapshot; returns the plan, or None when planning is off."""
        result = None
        if self.config.plan_enabled:
            with self.timer.stage("planner"):
                result = plan_snapshot(snapshot, self.planner_cfg)
            with self.timer.stage("planner_log"):
                record = plan_record(result, snapshot, self.config.verbose_candidates)
                self.planner_records.append(record)
                self._planner_log.write(record)

        with self.timer.stage("global_map"):
            add_snapshot(self.graph, snapshot, self.global_cfg)
        self.steps += 1
        return result

    def close(self) -> None:
        self._planner_log.close()

    def finish(self, out_dir: Path) -> tuple[list[dict], list[dict], dict]:
        """Export, solve, export, and write both maps and the graph.

        The two exports are timed as ``export``, the solve and its residual
        summary as ``final_solve`` and the writes as ``map_write``. Returns
        the estimated map, the dead-reckoned map and the solve's health:
        ``final_cost``, ``iterations``, ``converged`` and ``message`` (None
        for a graph without poses), and the :func:`residual_summary` of the
        solved graph.
        """
        min_edges = self.global_cfg.export_min_edges
        with self.timer.stage("export"):
            dead_reckoned = export_map(self.graph, min_edges=min_edges)
        health: dict = dict.fromkeys(("final_cost", "iterations", "converged", "message"))
        with self.timer.stage("final_solve"):
            if len(self.graph.poses):
                result = optimize(self.graph, self.global_cfg)
                self.graph.merge_estimates(result)
                health.update(
                    final_cost=result.final_cost,
                    iterations=result.iterations,
                    converged=result.converged,
                    message=result.message,
                )
            health.update(residual_summary(self.graph))
        with self.timer.stage("export"):
            estimated = export_map(self.graph, min_edges=min_edges)
        with self.timer.stage("map_write"):
            save_map(estimated, out_dir / "map_estimated.json")
            save_map(dead_reckoned, out_dir / "map_dead_reckoned.json")
            save_graph(self.graph, out_dir / "graph.json")
        return estimated, dead_reckoned, health


def map_alignment(records: list[dict], track: TrackDefinition) -> dict:
    """Align an exported map to the track's cones and return the map metrics.

    Map coordinates are relative to the lap's start pose (the centerline's
    pose at arc length 0), which places them in the world before ICP refines it.
    """
    start_pose = track.start_pose()
    pts = np.array([[r["x_m"], r["y_m"]] for r in records])
    # one stacked matmul gives each point the bits of its own rotation() @ p
    world = np.matmul(start_pose.rotation(), pts[:, :, None])[:, :, 0] + start_pose.position
    alignment = icp_align(world, track.positions, init=Pose2.identity())
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

    Both drivers take the car's speed from the track's curvature-limited
    speed profile. Raises :class:`ConfigError` before writing any artifact
    when the lap needs more than ``MAX_RUN_FRAMES`` frames or would step a
    frame past ``MAX_SNAPSHOT_TIME_S``, and
    :class:`RunFailure` (after writing partial outputs) when the closed-loop
    follower gets more than ``DIVERGENCE_MARGIN_M`` off the centerline.
    """
    from .simulate import save_track

    t_start = time.perf_counter()
    run_stages = ("track_generation", "artifact_write", "ground_truth", "sense", "local_map", "snapshot_write")
    timer = StageTimer(*run_stages, *_SnapshotEngine.STAGES)
    with timer.stage("track_generation"):
        if config.track_file:  # a bad track file stops the run before any artifact is written
            track = read_input(load_track, config.track_file)
        else:
            track = generate_track(config.track_spec, config.seed)
        geom = CenterlineGeometry(track.centerline)
        speed_profile = curvature_limited_speed_profile(track, config.max_speed_mps, config.lateral_accel_mps2)
        dt = 1.0 / config.frame_rate_hz
        # a lap at the profile's lowest speed; a closed-loop run may take three
        step_m = min(v for _, v in speed_profile) * dt
        frames = (3 if config.closed_loop else 1) * geom.length / step_m if step_m > 0 else math.inf
        if not (frames <= MAX_RUN_FRAMES and (frames + SPARE_CLOSED_LOOP_FRAMES) * dt <= MAX_SNAPSHOT_TIME_S):
            raise ConfigError(
                f"max_speed_mps {config.max_speed_mps} and frame_rate_hz {config.frame_rate_hz} on a"
                f" {geom.length:.6g} m lap ask for {frames:.3g} frames of {dt:.3g} s, over the cap of"
                f" {MAX_RUN_FRAMES} frames or, {SPARE_CLOSED_LOOP_FRAMES} spare frames included, of {MAX_SNAPSHOT_TIME_S:g} s"
            )
    out_dir = Path(out_dir)
    with timer.stage("artifact_write"):
        engine = _SnapshotEngine(config, out_dir, timer)
        save_track(track, out_dir / "track.json")
    local_cfg = config.local_map_config()
    force = None if config.force_mode is None else MapMode(config.force_mode)

    rng = np.random.default_rng(config.seed)
    timeline = config.source_timeline()
    timeline_starts = [time_s for time_s, _ in timeline]
    state = LocalMapState()
    trajectory_rows: list[tuple[float, Pose2, Pose2]] = []
    steering = _ClosedLoopSteering(int(frames) + SPARE_CLOSED_LOOP_FRAMES)
    velocity_profile = config.profiles["fusion"]  # ego-motion source, independent of cone pipelines
    completed = False
    failure: RunFailure | None = None

    drive = steering.poses if config.closed_loop else centerline_poses
    true_frames = discrete_frames(drive(geom, speed_profile, dt), dt)

    snapshot_writer = SnapshotLogWriter(out_dir / "snapshots.ndjson")
    try:
        while True:
            with timer.stage("ground_truth"):
                frame = next(true_frames, None)
            if frame is None:
                break
            timestamp, frame_dt, true_pose, true_vel = frame
            _, sources = timeline[bisect.bisect_right(timeline_starts, timestamp) - 1]

            with timer.stage("sense"):
                batches = [observe_cones(track, true_pose, config.profiles[source], rng, timestamp) for source in sources]
                vel_reading = noisy_velocity(true_vel, velocity_profile, rng)
            with timer.stage("local_map"):
                state, snapshot = ingest_frame(state, batches, vel_reading, frame_dt, local_cfg, mode=force)
            with timer.stage("snapshot_write"):
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

    estimated, dead_reckoned, health = engine.finish(out_dir)
    with timer.stage("artifact_write"):
        save_trajectory(out_dir / "trajectory.csv", trajectory_rows)
        _write_planner_timing(out_dir / "planner_timing.csv", timer.samples["planner"])

    map_metrics: dict = {"landmarks": len(estimated), **health}
    if estimated:
        with timer.stage("map_alignment"):
            map_metrics.update(map_alignment(estimated, track))
            map_metrics["rmse_dead_reckoned_m"] = map_alignment(dead_reckoned, track)["rmse_m"]

    stats = None
    if engine.planner_records:
        trajectory = {t: (true, ego) for t, true, ego in trajectory_rows}
        with timer.stage("planning_stats"):
            stats = planning_stats(engine.planner_records, track, trajectory)
    wall_s = time.perf_counter() - t_start
    report = build_report(
        map_metrics,
        stats,
        timer.samples,
        {
            "name": config.name,
            "seed": config.seed,
            "frames": engine.steps,
            "completed_lap": completed,
            "track_length_m": track.total_length,
            "failure": str(failure) if failure else None,
        },
    )
    report["timing"]["wall_s"] = wall_s
    report["timing"]["unaccounted_s"] = wall_s - sum(map(sum, timer.samples.values())) / 1e3
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
    timer = StageTimer(*_SnapshotEngine.STAGES)
    engine = _SnapshotEngine(config, out_dir, timer)
    try:
        for snapshot in snapshots:
            engine.step(snapshot)
    finally:
        engine.close()
    estimated, _, _ = engine.finish(out_dir)

    report: dict = {"frames": engine.steps, "landmarks": len(estimated)}
    if track is not None and engine.planner_records:
        with timer.stage("planning_stats"):
            stats = planning_stats(engine.planner_records, track)
        report["planning"] = build_report(None, stats)["planning"]
    report["timing"] = {stage: timing_percentiles(samples) for stage, samples in timer.samples.items()}
    save_report(report, out_dir / "replay_report.json")
    return report
