"""Command line interface: generate, run, replay, eval.

Exit codes: 0 success, 1 run failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, RunFailure, load_config, read_input, resolve_profile
from .evaluate import DegenerateGeometryError, build_report, load_trajectory, planning_stats, save_report
from .global_map import load_map
from .local_map import MapMode, read_snapshot_log
from .pipeline import map_alignment, replay_snapshots, run_pipeline
from .planner import read_planner_log
from .simulate import TRACK_KINDS, InfeasibleTrackError, TrackSpec, TrackValidationError, generate_track, load_track, save_track

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conetrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a ground-truth track file")
    gen.add_argument("--spec", help="track spec JSON file (inline flags override it)")
    gen.add_argument("--kind", choices=TRACK_KINDS)
    gen.add_argument("--length-m", type=float)
    gen.add_argument("--radius-m", type=float)
    gen.add_argument("--width-m", type=float)
    gen.add_argument("--spacing-m", type=float)
    gen.add_argument("--hairpins", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output track JSON path")

    run = sub.add_parser("run", help="execute a full scenario")
    run.add_argument("--config", required=True, help="run config JSON path or builtin scenario name")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", required=True, help="run output directory")
    run.add_argument(
        "--profile", help="override the fusion sensor profile (a fusion-mode profile file, builtin:fusion or noise_free:fusion)"
    )
    run.add_argument("--mode-schedule", help="JSON file with timed pipeline failure events")
    run.add_argument("--force-mode", choices=[mode.value for mode in MapMode])
    run.add_argument("--closed-loop", action="store_true", help="steer the ego by pure pursuit of the planned path")
    run.add_argument("--verbose-candidates", action="store_true", help="log every candidate's scores")
    run.add_argument("--no-plan", action="store_true", help="skip the planner (mapping only)")

    rep = sub.add_parser("replay", help="re-run planner/global map on a recorded snapshot log")
    rep.add_argument("--snapshots", required=True, help="snapshot log (NDJSON) from a previous run")
    rep.add_argument("--config", help="run config JSON path or builtin name (planner/map parameters)")
    rep.add_argument("--track", help="track JSON for planning statistics")
    rep.add_argument("--out", required=True)
    rep.add_argument("--verbose-candidates", action="store_true")
    rep.add_argument("--prior-weight", type=float, help="override the planner prior weight")

    ev = sub.add_parser("eval", help="evaluate recorded artifacts against ground truth")
    ev.add_argument("--track", required=True, help="ground-truth track JSON")
    ev.add_argument("--map", help="estimated map JSON")
    ev.add_argument("--planner-log", help="planner log NDJSON")
    ev.add_argument("--trajectory", help="trajectory CSV from the run (ground-truth gauge)")
    ev.add_argument("--out", required=True, help="report JSON path")
    return parser


def _read_json(path):
    return json.loads(Path(path).read_text())


def _read_spec(path) -> dict:
    spec = _read_json(path)
    if not isinstance(spec, dict):
        raise ValueError(f"a track spec must be a JSON object, got {type(spec).__name__}")
    return spec


def _spec_from_args(args) -> TrackSpec:
    base = read_input(_read_spec, args.spec) if args.spec else {}
    overrides = {
        "kind": args.kind,
        "length_m": args.length_m,
        "radius_m": args.radius_m,
        "track_width_m": args.width_m,
        "cone_spacing_m": args.spacing_m,
        "hairpin_count": args.hairpins,
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return TrackSpec(**base)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad track spec: {exc}") from exc


def _cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    if args.seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {args.seed}")
    try:
        track = generate_track(spec, args.seed)
    except (InfeasibleTrackError, TrackValidationError) as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_track(track, out)
    print(f"wrote {out} ({len(track.positions)} cones, {track.total_length:.1f} m)")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.force_mode:
        updates["force_mode"] = args.force_mode
    if args.closed_loop:
        updates["closed_loop"] = True
    if args.verbose_candidates:
        updates["verbose_candidates"] = True
    if args.no_plan:
        updates["plan_enabled"] = False
    if updates:
        config = dataclasses.replace(config, **updates)
    if args.mode_schedule:
        config = read_input(
            lambda path: dataclasses.replace(config, mode_schedule=_read_json(path)), args.mode_schedule
        )
    if args.profile:
        config = dataclasses.replace(config, profiles={**config.profiles, "fusion": resolve_profile(args.profile)})
    try:
        result = run_pipeline(config, args.out)
    except ConfigError as exc:  # the lap's track file, or the frames it asks for
        raise ConfigError(f"{args.config}: {exc}") from exc
    rmse = "n/a" if result.rmse_m is None else f"{result.rmse_m:.3f} m"
    print(f"run complete: {result.frames} frames, map RMSE {rmse}, artifacts in {result.out_dir}")
    return EXIT_OK if result.completed_lap else EXIT_RUN_FAILURE


def _cmd_replay(args) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    if args.verbose_candidates:
        config = dataclasses.replace(config, verbose_candidates=True)
    if args.prior_weight is not None:
        config = dataclasses.replace(config, prior_weight=args.prior_weight)
    track = read_input(load_track, args.track) if args.track else None
    snapshots = read_input(read_snapshot_log, args.snapshots)
    report = replay_snapshots(snapshots, config, args.out, track)
    print(f"replayed {report['frames']} snapshots into {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    track = read_input(load_track, args.track)
    records = read_input(load_map, args.map) if args.map else None
    planner_records = read_input(read_planner_log, args.planner_log) if args.planner_log else None
    trajectory = read_input(load_trajectory, args.trajectory) if args.trajectory else None
    if trajectory is not None and planner_records:
        # a record the trajectory does not cover would be judged in another frame
        missing = next((r["timestamp_s"] for r in planner_records if r["timestamp_s"] not in trajectory), None)
        if missing is not None:
            raise ConfigError(f"{args.trajectory} has no row for planner log timestamp_s {missing!r}")
    map_metrics = None
    if records:
        try:
            map_metrics = map_alignment(records, track)
        except DegenerateGeometryError as exc:
            raise ConfigError(f"{args.map}: the map cannot be aligned to the track: {exc}") from exc
    elif records is not None:
        map_metrics = {"rmse_m": None, "landmarks": 0}
    stats = planning_stats(planner_records, track, trajectory) if planner_records is not None else None
    report = build_report(map_metrics, stats, None, {"track_length_m": track.total_length})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_report(report, out, out.with_suffix(".csv"))
    print(f"wrote {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "replay": _cmd_replay,
        "eval": _cmd_eval,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, InfeasibleTrackError, TrackValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except RunFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
