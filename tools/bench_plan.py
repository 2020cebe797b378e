"""Microbenchmark of ``planner.plan_snapshot`` on frozen inputs.

Runs one seeded ``fsg-like-5ms`` lap as shipped (the benchmark's ``lap-plan``
workload) once, recording every snapshot the pipeline plans, then plans
those snapshots ``--repeats`` times. For each stage it prints the median and
quartiles of one pass over the lap: ``triangulate``, ``_search_tables``,
``enumerate_paths`` (the search, its tables included) and the whole
``plan_snapshot``. Each call's result is dropped before the next call, as
the pipeline drops a plan once it is logged, so the garbage collector sees
the heap a lap gives it. The verbose plan records of the lap are hashed, so
two builds that print the same digest planned every snapshot to the same
bits.

    PYTHONPATH=src python3 tools/bench_plan.py --repeats 15

Not part of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import statistics
import tempfile
import time

from conetrack import pipeline
from conetrack.config import load_config
from conetrack.planner import (
    DegenerateSnapshotError,
    _search_tables,
    enumerate_paths,
    plan_record,
    plan_snapshot,
    triangulate,
)


def record_snapshots(seed: int | None) -> tuple[list, object]:
    """The snapshots of every ``plan_snapshot`` call of one lap, and the lap's planner config."""
    config = load_config("fsg-like-5ms")
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    snapshots = []

    def recording(snapshot, planner_config):
        snapshots.append(snapshot)
        return plan_snapshot(snapshot, planner_config)

    pipeline.plan_snapshot = recording
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            pipeline.run_pipeline(config, out_dir)
    finally:
        pipeline.plan_snapshot = plan_snapshot
    return snapshots, config.planner_config()


def timed(step, repeats: int) -> str:
    """The median and quartiles of ``repeats`` timed calls of ``step``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        step()
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"median {median * 1e3:.1f} ms  quartiles {q1 * 1e3:.1f} / {q3 * 1e3:.1f} ms  ({repeats} passes)"


def drop_each(step, items) -> None:
    """Run ``step`` on each item, dropping each result before the next call."""
    for item in items:
        step(item)


def digest(snapshots, config) -> str:
    """sha256 of the lap's verbose plan records, one ``json.dumps`` line each, as the planner log writes them."""
    h = hashlib.sha256()
    for snap in snapshots:
        record = plan_record(plan_snapshot(snap, config), snap, verbose_candidates=True)
        h.update((json.dumps(record, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed passes over the lap's snapshots")
    parser.add_argument("--seed", type=int, default=None, help="lap seed (default: the scenario's)")
    args = parser.parse_args()
    snapshots, config = record_snapshots(args.seed)
    planned = []  # (snapshot, triangulation) of every snapshot the search runs on
    for snap in snapshots:
        try:
            planned.append((snap, triangulate(snap.cones.means)))
        except DegenerateSnapshotError:
            pass
    print(f"snapshots {len(snapshots)} ({len(planned)} triangulated)  plan digest {digest(snapshots, config)}")
    stages = {
        "triangulate": lambda: drop_each(lambda item: triangulate(item[0].cones.means), planned),
        "_search_tables": lambda: drop_each(lambda item: _search_tables(item[1]), planned),
        "enumerate_paths": lambda: drop_each(lambda item: enumerate_paths(item[1], item[0].ego, item[0].cones.color_evidence, config), planned),
        "plan_snapshot": lambda: drop_each(lambda snap: plan_snapshot(snap, config), snapshots),
    }
    for name, step in stages.items():
        print(f"{name + ':':17}{timed(step, args.repeats)}")


if __name__ == "__main__":
    main()
