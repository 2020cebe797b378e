"""One benchmark lap in a fresh interpreter.

Resolves a workload's ``RunConfig``, runs ``conetrack.pipeline.run_pipeline``
once (optionally with layer spans recorded around the functions the pipeline
calls) while a reference kernel reads the host's speed, and prints one JSON
line: set-up time, lap time, peak RSS, map and planning quality, artifact
digests and, for a traced lap, the per-layer numbers.

    python3 perfbench/lap.py '{"workload": "lap-plan", "lap_seed": null,
        "out_dir": ".perfbench_work/lap0", "trace": false, "t_spawn": 123.4}'

``t_spawn`` is the parent's ``time.monotonic()`` just before it started this
process; ``"setup_only": true`` stops after the config is resolved. Exit code
3 means conetrack could not be imported or the config not resolved; a lap
that raises is reported in the JSON with ``"ok": false`` and exit code 0.
"""

from __future__ import annotations

import sys
import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Artifacts that hold no wall-clock values: equal digests mean equal behaviour.
DIGEST_FILES = ("planner_log.ndjson", "snapshots.ndjson", "map_estimated.json", "graph.json")

# Functions the pipeline looks up, by (module attribute path, span name).
# Class attributes are patched on the class, module attributes on the module
# whose namespace ``run_pipeline`` reads them from.
TRACED = (
    ("conetrack.pipeline:generate_track", "simulate.generate_track"),
    ("conetrack.pipeline:CenterlineGeometry", "simulate.track_geometry"),
    ("conetrack.pipeline:curvature_limited_speed_profile", "simulate.speed_profile"),
    ("conetrack.pipeline:observe_cones", "simulate.observe_cones"),
    ("conetrack.pipeline:noisy_velocity", "simulate.noisy_velocity"),
    ("conetrack.pipeline:ingest_frame", "local_map.ingest_frame"),
    ("conetrack.pipeline:plan_snapshot", "planner.plan_snapshot"),
    ("conetrack.pipeline:plan_record", "planner.plan_record"),
    ("conetrack.pipeline:add_snapshot", "global_map.add_snapshot"),
    ("conetrack.pipeline:optimize", "global_map.optimize"),
    ("conetrack.global_map:Graph.merge_estimates", "global_map.merge_estimates"),
    ("conetrack.pipeline:export_map", "evaluate.export_map"),
    ("conetrack.pipeline:icp_align", "evaluate.icp_align"),
    ("conetrack.pipeline:map_rmse", "evaluate.map_rmse"),
    ("conetrack.pipeline:planning_stats", "evaluate.planning_stats"),
    ("conetrack.pipeline:build_report", "evaluate.build_report"),
    ("conetrack.pipeline:dump_resolved", "io.dump_resolved"),
    ("conetrack.simulate:save_track", "io.save_track"),
    ("conetrack.local_map:SnapshotLogWriter.write", "io.snapshot_write"),
    ("conetrack.local_map:SnapshotLogWriter.close", "io.snapshot_close"),
    ("conetrack.pipeline:save_map", "io.save_map"),
    ("conetrack.pipeline:save_graph", "io.save_graph"),
    ("conetrack.pipeline:save_trajectory", "io.save_trajectory"),
    ("conetrack.pipeline:_write_planner_timing", "io.save_planner_timing"),
    ("conetrack.pipeline:save_report", "io.save_report"),
)
SENSE_SPANS = {"simulate.observe_cones", "simulate.noisy_velocity"}
FRAME_LOOP_END = "io.snapshot_close"
# metrics read from a span's arguments or result, by the span they come from
DERIVED_FROM = {
    "local_map.snapshot_cones_mean": "local_map.ingest_frame",
    "local_map.cones_created": "local_map.ingest_frame",
    "planner.candidates_mean": "planner.plan_snapshot",
    "planner.selected_frac": "planner.plan_snapshot",
    "global_map.optimize.max_ms": "global_map.optimize",
    "global_map.optimize.final_ms": "global_map.optimize",
    "global_map.optimize.iterations": "global_map.optimize",
    "global_map.optimize.converged_frac": "global_map.optimize",
    "global_map.poses": "io.save_graph",
    "global_map.landmarks": "io.save_graph",
    "global_map.observation_edges": "io.save_graph",
    "pipeline.frame_p50_ms": "simulate.noisy_velocity",
    "pipeline.frame_p95_ms": "simulate.noisy_velocity",
}


def workload_config(name: str, lap_seed: int | None):
    """The resolved ``RunConfig`` of a workload; ``lap_seed`` None keeps the pinned seed."""
    from conetrack.config import load_config

    if name == "lap-plan":
        config = load_config("fsg-like-5ms")
    elif name == "lap-map-500m":
        config = load_config("fsg-like-5ms")
        config = dataclasses.replace(
            config,
            name="fsg-like-5ms-500m",
            track_spec=dataclasses.replace(config.track_spec, length_m=500.0),
            plan_enabled=False,
        )
    elif name == "lap-degraded":
        config = load_config("modes-5ms")
        config = dataclasses.replace(
            config, mode_schedule=[{"time_s": 3.0, "fail": ["fusion"]}], plan_enabled=False
        )
    elif name == "smoke":
        config = load_config("noise-free-circle")
        config = dataclasses.replace(
            config,
            track_spec=dataclasses.replace(config.track_spec, radius_m=8.0),
            max_speed_mps=10.0,
            lateral_accel_mps2=15.0,
            frame_rate_hz=5.0,
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    if lap_seed is not None:
        config = dataclasses.replace(config, seed=lap_seed)
    return config


# ---------------------------------------------------------------------------
# Host speed
#
# On a shared host the CPU's speed drifts by up to 2x over seconds to minutes,
# so a lap's raw wall time says as much about the host as about the program.
# A fixed reference kernel, timed every SAMPLE_PERIOD_S of the lap from a
# SIGALRM handler, reads the speed the lap actually ran at. A lap's ``lap_s``
# is its wall time less the kernel's, divided by the slowdown: the kernel's
# mean time over REF_NOMINAL_S, leaving out the slowest TRIM_FRAC of samples
# (a host interrupt inside one 0.1 ms sample reads as a many-fold slowdown).
# The kernel uses only Python and numpy, no conetrack code, so a change to the
# program cannot change it, and it allocates no object the garbage collector
# tracks, so it cannot move the lap's collections (and with them its peak
# RSS). The kernel does not track set-up time, which run.py corrects with a
# reference start instead.

SAMPLE_PERIOD_S = 0.02
REF_NOMINAL_S = 1.1e-4  # the kernel's time inside a lap in the fast stretches of a 2-vCPU KVM Xeon host
TRIM_FRAC = 0.05


def _reference_kernel(a) -> float:
    acc = 0.0
    for i in range(40):
        b = a * 1.5 + 0.5
        acc += float(b[i % 32, 0])
        for k in range(8):
            acc += k * k * 1e-9
    return acc


class HostSpeed:
    """Times the reference kernel every ``SAMPLE_PERIOD_S`` of wall time while sampling."""

    def __init__(self) -> None:
        import numpy

        self._a = numpy.linspace(0.0, 1.0, 64).reshape(32, 2)
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_kernel(self._a)
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        if not self.samples:
            return 1.0
        kept = sorted(self.samples)[: max(1, round(len(self.samples) * (1.0 - TRIM_FRAC)))]
        return statistics.fmean(kept) / REF_NOMINAL_S


# ---------------------------------------------------------------------------
# Tracing


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    frame: int | None
    parent: int | None  # index into the span list


class Tracer:
    """Records a span around each call of a wrapped function; keeps them in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counts: dict[str, list] = {}
        self._stack: list[int] = []
        self._frame: int | None = None
        self._loop_done = False
        self._last_top: str | None = None

    def _frame_for(self, name: str) -> int | None:
        # a frame starts with its sensing calls and runs until the next ones;
        # after the snapshot log closes, spans belong to the lap, not a frame
        if self._stack:
            return self.spans[self._stack[-1]].frame
        if name in SENSE_SPANS and not self._loop_done and self._last_top not in SENSE_SPANS:
            self._frame = 0 if self._frame is None else self._frame + 1
        self._last_top = name
        frame = None if self._loop_done else self._frame
        if name == FRAME_LOOP_END:
            self._loop_done = True
        return frame

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._frame_for(name)
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, frame, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        if name == "local_map.ingest_frame":
            state, snapshot = result
            self.counts.setdefault("snapshot_cones", []).append(len(snapshot.cones))
            self.counts["next_cone_id"] = [state.next_cone_id]
        elif name == "planner.plan_snapshot":
            self.counts.setdefault("candidates", []).append(len(result.candidates))
            self.counts.setdefault("selected", []).append(result.selected is not None)
        elif name == "global_map.optimize":
            self.counts.setdefault("iterations", []).append(result.iterations)
            self.counts.setdefault("converged", []).append(bool(result.converged))
        elif name == "io.save_graph":
            graph = args[0]
            self.counts["graph"] = [len(graph.poses), len(graph.landmarks), len(graph.observation_edges)]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in ``TRACED`` for the duration of the block."""
        undo = []
        try:
            for target, name in TRACED:
                module_name, attr_path = target.split(":")
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                setattr(owner, attr, self.wrap(name, original))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def layer_metrics(
    tracer: Tracer, lap_wall_s: float, bytes_written: int, slowdown: float = 1.0
) -> dict[str, float | None]:
    """Per-layer numbers of one traced lap; a layer whose entry point is gone is None.

    Times are divided by the lap's host ``slowdown``, as ``lap_s`` is.
    """
    durations: dict[str, list[float]] = {}
    for span in tracer.spans:
        durations.setdefault(span.name, []).append((span.end - span.start) / slowdown)

    def calls(name):
        return None if name in tracer.missing else len(durations.get(name, []))

    def total(name):
        return None if name in tracer.missing else float(sum(durations.get(name, [])))

    def pct_ms(name, q):
        return None if name in tracer.missing else 1e3 * _pct(durations.get(name, []), q)

    def mean(key):
        values = tracer.counts.get(key, [])
        return float(statistics.fmean(values)) if values else 0.0

    top = [s for s in tracer.spans if s.parent is None]
    accounted = sum(s.end - s.start for s in top)
    per_frame: dict[int, float] = {}
    for span in top:
        if span.frame is not None:
            per_frame[span.frame] = per_frame.get(span.frame, 0.0) + (span.end - span.start) / slowdown
    frame_ms = [1e3 * v for v in per_frame.values()]
    optimize_ms = [1e3 * d for d in durations.get("global_map.optimize", [])]
    io_names = [name for _, name in TRACED if name.startswith("io.")]
    graph = tracer.counts.get("graph", [0, 0, 0])
    out = {
        "simulate.observe_cones.calls": calls("simulate.observe_cones"),
        "simulate.observe_cones.total_s": total("simulate.observe_cones"),
        "simulate.generate_track.total_s": total("simulate.generate_track"),
        "local_map.ingest_frame.calls": calls("local_map.ingest_frame"),
        "local_map.ingest_frame.total_s": total("local_map.ingest_frame"),
        "local_map.ingest_frame.p50_ms": pct_ms("local_map.ingest_frame", 50),
        "local_map.ingest_frame.p95_ms": pct_ms("local_map.ingest_frame", 95),
        "local_map.snapshot_cones_mean": mean("snapshot_cones"),
        "local_map.cones_created": float(tracer.counts.get("next_cone_id", [0])[0]),
        "planner.plan_snapshot.calls": calls("planner.plan_snapshot"),
        "planner.plan_snapshot.total_s": total("planner.plan_snapshot"),
        "planner.plan_snapshot.p50_ms": pct_ms("planner.plan_snapshot", 50),
        "planner.plan_snapshot.p95_ms": pct_ms("planner.plan_snapshot", 95),
        "planner.candidates_mean": mean("candidates"),
        "planner.selected_frac": mean("selected"),
        "global_map.add_snapshot.calls": calls("global_map.add_snapshot"),
        "global_map.add_snapshot.total_s": total("global_map.add_snapshot"),
        "global_map.optimize.calls": calls("global_map.optimize"),
        "global_map.optimize.total_s": total("global_map.optimize"),
        "global_map.optimize.max_ms": max(optimize_ms, default=0.0),
        "global_map.optimize.final_ms": optimize_ms[-1] if optimize_ms else 0.0,
        "global_map.optimize.iterations": float(sum(tracer.counts.get("iterations", []))),
        "global_map.optimize.converged_frac": mean("converged"),
        "global_map.poses": float(graph[0]),
        "global_map.landmarks": float(graph[1]),
        "global_map.observation_edges": float(graph[2]),
        "evaluate.planning_stats.total_s": total("evaluate.planning_stats"),
        "evaluate.icp_align.total_s": total("evaluate.icp_align"),
        "evaluate.export_map.total_s": total("evaluate.export_map"),
        "io.write.total_s": None if any(n in tracer.missing for n in io_names) else sum(
            sum(durations.get(n, [])) for n in io_names
        ),
        "io.bytes_written": float(bytes_written),
        "pipeline.frame_p50_ms": _pct(frame_ms, 50),
        "pipeline.frame_p95_ms": _pct(frame_ms, 95),
        "pipeline.unaccounted_s": (lap_wall_s - accounted) / slowdown,
        "pipeline.accounted_frac": accounted / lap_wall_s,
    }
    for key, span_name in DERIVED_FROM.items():
        if span_name in tracer.missing:
            out[key] = None
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dataclasses.asdict(span), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# One lap


def _digests(out_dir: Path) -> dict[str, str | None]:
    out = {}
    for name in DIGEST_FILES:
        path = out_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return out


def _bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def run_lap(config, out_dir: Path, trace: bool) -> dict:
    """Run one lap in this process and summarise it (see the module docstring)."""
    from conetrack import pipeline

    tracer = Tracer() if trace else None
    speed = HostSpeed()
    result = {"ok": False, "error": None}
    try:
        with tracer.installed() if tracer else contextlib.nullcontext(), speed.sampling():
            t0 = time.perf_counter()
            lap = pipeline.run_pipeline(config, out_dir)
            lap_wall_s = time.perf_counter() - t0
    except Exception:  # the lap boundary: report the failure, keep the benchmark running
        result["error"] = traceback.format_exc(limit=8)
        return result
    planning = lap.report.get("planning", {})
    lengths = planning.get("path_length_fractions") or []
    slowdown = speed.slowdown()
    result.update(
        ok=True,
        lap_wall_s=lap_wall_s,
        lap_s=(lap_wall_s - sum(speed.samples)) / slowdown,
        host_slowdown=slowdown,
        host_samples=len(speed.samples),
        completed_lap=bool(lap.completed_lap),
        frames=lap.frames,
        map_rmse_m=lap.rmse_m,
        out_of_track_5m_frac=planning.get("out_of_track_within_5m_fraction"),
        path_15m_frac=lengths[-1] if lengths else None,
        digests=_digests(out_dir),
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, lap_wall_s, _bytes_written(out_dir), slowdown)
        result["missing_layers"] = tracer.missing
        write_spans(tracer, out_dir.parent / f"{out_dir.name}.spans.ndjson")
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    try:
        import numpy
        import scipy

        import conetrack
        import conetrack.pipeline  # noqa: F401

        config = workload_config(spec["workload"], spec.get("lap_seed"))
    except Exception:  # nothing to measure without the program: exit with code 3
        traceback.print_exc()
        return 3
    ready = time.monotonic()
    report = {
        "setup_wall_s": ready - spec.get("t_spawn", T_START),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "conetrack_path": str(Path(conetrack.__file__).resolve().parent),
            "lap_seed": config.seed,
        },
    }
    if not spec.get("setup_only"):
        out_dir = Path(spec["out_dir"])
        report.update(run_lap(config, out_dir, bool(spec.get("trace"))))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
