"""Smoke test of the benchmark: an untraced and a traced lap of the tiny
``smoke`` workload (a noise-free 8 m circle, 26 frames) run in this process,
checking that every metric BENCHMARK.json declares comes out with its unit.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (HERE, HERE.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import lap  # noqa: E402
import run  # noqa: E402


def _smoke_laps(tmp_path):
    config = lap.workload_config("smoke", None)
    laps = []
    for k, traced in enumerate((False, True)):
        record = lap.run_lap(config, tmp_path / f"lap{k}", traced)
        # set-up time and peak RSS come from the lap's own process, which this test does not start
        record.update(traced=traced, setup_wall_s=0.5, peak_rss_mb=90.0)
        record["problems"] = run.lap_problems("smoke", record, laps[0]["digests"] if laps else None)
        laps.append(record)
    return laps


def test_every_declared_metric_is_emitted_with_its_unit(tmp_path):
    laps = _smoke_laps(tmp_path)
    assert [record["problems"] for record in laps] == [[], []]  # tracing leaves the artifacts unchanged
    assert all(record["host_samples"] > 0 and record["lap_s"] > 0 for record in laps)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, attempted, failed = run.summarize(
            {"workload": "smoke", "trace": trace, "laps": laps, "setups": [0.5], "setup_walls": [0.5]}
        )
        assert (attempted, failed) == (2, 0)
        assert {m["name"]: m["unit"] for m in declared[key]} == {n: m["unit"] for n, m in metrics.items()}
        for name, metric in metrics.items():
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    layers = laps[1]["layers"]
    assert layers["planner.plan_snapshot.calls"] == layers["local_map.ingest_frame.calls"] == laps[1]["frames"]
    assert layers["pipeline.accounted_frac"] > 0.9


def test_missing_entry_point_is_reported_missing_not_zero(tmp_path, monkeypatch):
    from conetrack import pipeline

    monkeypatch.delattr(pipeline, "map_rmse")
    tracer = lap.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["evaluate.map_rmse"]
    monkeypatch.setattr(lap, "TRACED", (("conetrack.pipeline:no_such_layer", "planner.plan_snapshot"),))
    tracer = lap.Tracer()
    with tracer.installed():
        pass
    metrics = lap.layer_metrics(tracer, 1.0, 0)
    planner = {k: v for k, v in metrics.items() if k.startswith("planner.")}
    assert planner and all(v is None for v in planner.values())


def test_crashed_lap_counts_as_failed_without_stopping_the_run():
    crashed = {"ok": False, "error": "lap process exited with -9:\n", "wall_s": 1.0, "traced": False}
    crashed["problems"] = run.lap_problems("smoke", crashed, None)
    assert crashed["problems"] == ["failed: lap process exited with -9:"]
    metrics, attempted, failed = run.summarize(
        {"workload": "smoke", "trace": False, "laps": [crashed], "setups": [], "setup_walls": []}
    )
    assert (attempted, failed) == (1, 1)
    assert all(metric["value"] is None for metric in metrics.values())
