"""Benchmark of seeded conetrack laps.

Runs one workload as a batch of laps, one at a time, each lap a fresh
interpreter (``perfbench/lap.py``) calling ``conetrack.pipeline.run_pipeline``
on the workload's resolved ``RunConfig``. Checks every lap, then prints one
line per lap, the run environment, and as the last line a JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (lap time at the
reference host speed, set-up time, peak RSS, map RMSE); with ``--trace 1``
laps alternate untraced and traced, and the metrics are the per-layer numbers
of the traced laps.

    python3 perfbench/run.py --workload lap-plan --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45   # every workload, one table

The laps use the workload's pinned seed, so every lap of a workload has the
same inputs and the same artifacts; ``--seed`` only matters with
``--held-out``, which moves the laps to seed ``HELD_OUT_BASE + seed``.
A lap that crashes, passes its time limit or fails a check counts in
``failed``; the run exits with a code other than 0 only when conetrack cannot
be imported here.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAP_SCRIPT = Path(__file__).resolve().parent / "lap.py"
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE_DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"

WORKLOADS = ("lap-plan", "lap-map-500m", "lap-degraded")
HELD_OUT_BASE = 1_000_000  # held-out lap seeds: never a pinned seed of a builtin config
SETUP_PROBES = 5  # set-up-only interpreters per untraced run, after its laps
# Set-up time drifts with the host's speed as lap time does (see lap.py), but
# the lap's reference kernel does not track it. A fresh interpreter importing
# numpy and some standard modules, no conetrack code, does: each set-up probe
# sits between two of these reference starts, and ``setup_s`` is its wall time
# scaled by REF_START_NOMINAL_S over their mean.
REF_START_CODE = "import numpy, json, decimal, email.parser, http.client, unittest, argparse"
REF_START_NOMINAL_S = 0.21  # the reference start in the fast stretches of a 2-vCPU KVM Xeon host
PROBE_COST = 1.5  # a set-up probe and its reference start take about 1.5 times a lap's own set-up
LAP_TIMEOUT_S = 120.0  # a lap starts at most --seconds into a run, so a run ends within 180 s
AC1_RMSE_M = 0.20  # AC-1 bound on lap-plan's map RMSE
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {"lap_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "map_rmse_m": "m"}
PER_LAYER_UNITS = {
    "simulate.observe_cones.calls": "count",
    "simulate.observe_cones.total_s": "s",
    "simulate.generate_track.total_s": "s",
    "local_map.ingest_frame.calls": "count",
    "local_map.ingest_frame.total_s": "s",
    "local_map.ingest_frame.p50_ms": "ms",
    "local_map.ingest_frame.p95_ms": "ms",
    "local_map.snapshot_cones_mean": "count",
    "local_map.cones_created": "count",
    "planner.plan_snapshot.calls": "count",
    "planner.plan_snapshot.total_s": "s",
    "planner.plan_snapshot.p50_ms": "ms",
    "planner.plan_snapshot.p95_ms": "ms",
    "planner.candidates_mean": "count",
    "planner.selected_frac": "frac",
    "global_map.add_snapshot.calls": "count",
    "global_map.add_snapshot.total_s": "s",
    "global_map.optimize.calls": "count",
    "global_map.optimize.total_s": "s",
    "global_map.optimize.max_ms": "ms",
    "global_map.optimize.final_ms": "ms",
    "global_map.optimize.iterations": "count",
    "global_map.optimize.converged_frac": "frac",
    "global_map.poses": "count",
    "global_map.landmarks": "count",
    "global_map.observation_edges": "count",
    "evaluate.planning_stats.total_s": "s",
    "evaluate.icp_align.total_s": "s",
    "evaluate.export_map.total_s": "s",
    "evaluate.out_of_track_5m_frac": "frac",
    "evaluate.path_15m_frac": "frac",
    "io.write.total_s": "s",
    "io.bytes_written": "bytes",
    "pipeline.frame_p50_ms": "ms",
    "pipeline.frame_p95_ms": "ms",
    "pipeline.unaccounted_s": "s",
    "pipeline.accounted_frac": "frac",
    "trace.overhead_frac": "frac",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure here: conetrack cannot be imported."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(nproc())
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout, and so the same memory use, in every lap
    return env


def pinned_env() -> dict[str, str]:
    """The variables ``child_env`` pins, as the lap processes see them."""
    env = child_env()
    return {var: env[var] for var in THREAD_VARS + ("PYTHONHASHSEED",)}


def spawn(spec: dict) -> dict:
    """Run ``lap.py`` with ``spec`` in a fresh interpreter and return its JSON report.

    A process that crashes, passes ``LAP_TIMEOUT_S`` or prints no report gives
    ``{"ok": False, "error": ...}``, as a lap that raises does.
    """
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(LAP_SCRIPT), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=LAP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        report = {"ok": False, "error": f"lap process passed its {LAP_TIMEOUT_S:.0f} s limit"}
    else:
        if proc.returncode == 3:
            raise BenchmarkError(f"conetrack cannot be imported here:\n{proc.stderr[-2000:]}")
        if proc.returncode != 0:
            report = {"ok": False, "error": f"lap process exited with {proc.returncode}:\n{proc.stderr[-2000:]}"}
        else:
            try:
                report = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                report = {"ok": False, "error": "lap process printed no report"}
    report["wall_s"] = time.monotonic() - spec["t_spawn"]
    return report


def reference_start() -> float:
    """Wall time of a fresh interpreter running ``REF_START_CODE``."""
    t0 = time.monotonic()
    try:
        subprocess.run(
            [sys.executable, "-c", REF_START_CODE],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            check=True,
            timeout=60,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchmarkError(f"the reference start failed: {exc}") from exc
    return time.monotonic() - t0


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def lap_problems(workload: str, lap: dict, first_digests: dict | None) -> list[str]:
    """Why a lap fails its correctness checks; empty when it passes."""
    if not lap.get("ok"):
        return ["failed: " + (lap.get("error") or "unknown error").strip().splitlines()[-1]]
    problems = []
    if not lap["completed_lap"]:
        problems.append("lap not completed")
    rmse = lap["map_rmse_m"]
    if rmse is None or not math.isfinite(rmse):
        problems.append(f"map RMSE not finite: {rmse}")
    elif workload == "lap-plan" and rmse > AC1_RMSE_M:
        problems.append(f"map RMSE {rmse:.4f} m above AC-1's {AC1_RMSE_M} m")
    missing = [name for name, digest in lap["digests"].items() if digest is None]
    if missing:
        problems.append(f"artifacts not written: {missing}")
    if first_digests is not None and lap["digests"] != first_digests:
        changed = sorted(n for n in first_digests if lap["digests"].get(n) != first_digests[n])
        problems.append(f"artifact digests differ from the run's first lap: {changed}")
    return problems


def run_workload(workload: str, seconds: float, trace: bool, lap_seed: int | None) -> dict:
    """Run laps of one workload for about ``seconds`` and check each one."""
    deadline = time.monotonic() + seconds
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = {"workload": workload, "lap_seed": lap_seed}

    laps: list[dict] = []
    while True:
        traced = trace and len(laps) % 2 == 1
        out_dir = work / f"lap{len(laps)}"
        lap = spawn(dict(base, out_dir=str(out_dir), trace=traced))
        shutil.rmtree(out_dir, ignore_errors=True)
        lap["traced"] = traced
        first = laps[0].get("digests") if laps and laps[0].get("ok") else None
        lap["problems"] = lap_problems(workload, lap, first)
        laps.append(lap)
        # one untraced (and, with tracing, one traced) lap at least; after
        # that, a lap starts only if one as slow as the slowest so far, and
        # then the set-up-only interpreters, still end within the run's time
        slowest = max(l["wall_s"] for l in laps)
        reserve = 0.0 if trace else SETUP_PROBES * PROBE_COST * max(l.get("setup_wall_s", 0.0) for l in laps)
        if len(laps) >= (2 if trace else 1) and time.monotonic() + slowest + reserve > deadline:
            break

    setups, setup_walls = [], []
    refs = [] if trace else [reference_start()]
    for _ in range(0 if trace else SETUP_PROBES):
        probe = spawn(dict(base, setup_only=True))
        refs.append(reference_start())
        if "setup_wall_s" in probe:
            setup_walls.append(probe["setup_wall_s"])
            setups.append(probe["setup_wall_s"] * REF_START_NOMINAL_S / statistics.fmean(refs[-2:]))
    return {
        "workload": workload,
        "trace": trace,
        "laps": laps,
        "setups": setups,
        "setup_walls": setup_walls,
        "reference_starts": refs,
    }


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def end_to_end_metrics(run: dict) -> dict[str, float | None]:
    """Medians over the laps that completed; None where no lap did."""
    done = [lap for lap in run["laps"] if lap.get("ok")]
    return {
        "lap_s": _median(lap["lap_s"] for lap in done),
        "setup_s": _median(run["setups"]),
        "peak_rss_mb": _median(lap["peak_rss_mb"] for lap in done),
        "map_rmse_m": _median(
            lap["map_rmse_m"] for lap in done if lap["map_rmse_m"] is not None and math.isfinite(lap["map_rmse_m"])
        ),
    }


def per_layer_metrics(run: dict) -> dict[str, float | None]:
    """Medians over the traced laps; None where a layer's entry point is gone or no lap completed."""
    traced = [lap for lap in run["laps"] if lap.get("ok") and lap["traced"]]
    plain = [lap for lap in run["laps"] if lap.get("ok") and not lap["traced"]]
    if not (traced and plain):
        return dict.fromkeys(PER_LAYER_UNITS)
    out: dict[str, float | None] = {}
    for name in traced[0]["layers"]:
        values = [lap["layers"][name] for lap in traced]
        out[name] = None if None in values else statistics.median(values)
    out["evaluate.out_of_track_5m_frac"] = traced[0]["out_of_track_5m_frac"] or 0.0
    out["evaluate.path_15m_frac"] = traced[0]["path_15m_frac"] or 0.0
    out["trace.overhead_frac"] = (
        statistics.median(l["lap_s"] for l in traced) / statistics.median(l["lap_s"] for l in plain) - 1.0
    )
    return out


def summarize(run: dict) -> tuple[dict, int, int]:
    """Metrics with units, laps attempted, laps failed."""
    if run["trace"]:
        values, units = per_layer_metrics(run), PER_LAYER_UNITS
    else:
        values, units = end_to_end_metrics(run), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = sum(1 for lap in run["laps"] if lap["problems"])
    return metrics, len(run["laps"]), failed


def print_run(run: dict) -> None:
    reference = json.loads(REFERENCE_DIGESTS.read_text()) if REFERENCE_DIGESTS.exists() else {}
    for k, lap in enumerate(run["laps"]):
        status = "ok" if not lap["problems"] else "FAILED: " + "; ".join(lap["problems"])
        if lap.get("ok"):
            print(
                f"{run['workload']} lap {k}{' traced' if lap['traced'] else ''}: "
                f"lap_s {lap['lap_s']:.3f}  wall_s {lap['lap_wall_s']:.3f}  host_slowdown {lap['host_slowdown']:.3f}  "
                f"setup_wall_s {lap['setup_wall_s']:.3f}  "
                f"peak_rss_mb {lap['peak_rss_mb']:.1f}  map_rmse_m {lap['map_rmse_m']}  "
                f"out_of_track_5m_frac {lap['out_of_track_5m_frac']}  path_15m_frac {lap['path_15m_frac']}  "
                f"frames {lap['frames']}  {status}"
            )
        else:
            print(f"{run['workload']} lap {k}: {status}")
    first = next((lap for lap in run["laps"] if lap.get("ok")), None)
    if first is not None:
        seed = first["env"]["lap_seed"]
        expected = reference.get(run["workload"], {}).get(str(seed))
        drift = "no reference for this seed" if expected is None else (
            "match the reference" if expected == first["digests"] else
            "DIFFER from the reference: " + ", ".join(n for n in expected if expected[n] != first["digests"].get(n))
        )
        print(f"{run['workload']} artifact digests (lap seed {seed}) {drift}: {json.dumps(first['digests'], sort_keys=True)}")
    if run["setup_walls"]:
        print(
            f"{run['workload']} set-up: setup_wall_s median {statistics.median(run['setup_walls']):.3f}, "
            f"reference starts {' '.join(f'{t:.3f}' for t in run['reference_starts'])}"
        )
    failed = sum(1 for lap in run["laps"] if lap["problems"])
    print(f"{run['workload']} run_failure_frac {failed / len(run['laps']):.3f} ({failed} of {len(run['laps'])} laps)")


def environment(seed: int, lap_seed: int | None, loadavg: float, first_lap: dict | None) -> dict:
    env = {
        "git_revision": git_revision(),
        "nproc": nproc(),
        "loadavg_1m_at_start": loadavg,
        "lap_env": pinned_env(),
        "seed": seed,
        "lap_seed": "pinned" if lap_seed is None else lap_seed,
    }
    if first_lap is not None:
        env.update({k: v for k, v in first_lap["env"].items() if k in ("python", "numpy", "scipy")})
    return env


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (selects the lap seed with --held-out)")
    parser.add_argument("--seconds", type=float, default=45.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true", help=f"run the laps at seed {HELD_OUT_BASE} + --seed, to re-check a claim"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # exit through Python on SIGTERM, so that subprocess.run kills and reaps a running lap
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (ROOT / "src" / "conetrack" / "pipeline.py").is_file():
        print(f"error: no conetrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    lap_seed = HELD_OUT_BASE + args.seed if args.held_out else None
    loadavg = os.getloadavg()[0]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(w, args.seconds, bool(args.trace), lap_seed) for w in workloads]
        summaries = [summarize(run) for run in runs]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        print_run(run)
    first_lap = next((lap for lap in runs[0]["laps"] if lap.get("ok")), None)
    env = environment(args.seed, lap_seed, loadavg, first_lap)
    print("environment: " + json.dumps(env, sort_keys=True))

    if len(runs) == 1:
        metrics, attempted, failed = summaries[0]
    else:
        metrics = {f"{run['workload']}.{name}": m for run, (ms, _, _) in zip(runs, summaries) for name, m in ms.items()}
        attempted, failed = sum(s[1] for s in summaries), sum(s[2] for s in summaries)
        for name, m in metrics.items():
            print(f"{name:48s} {m['value']} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
