"""Microbenchmarks of ``local_map.ingest_frame``, ``global_map.add_snapshot`` and the graph solve on frozen inputs.

Runs one lap of a benchmark workload (``--workload``, its config as
``perfbench/lap.py``'s ``workload_config`` resolves it) once, recording
every ``ingest_frame`` call's arguments, then replays those frames from an
empty map ``--repeats`` times and prints the median and quartiles of one
replay's wall time. The replay's snapshots are hashed, so two builds that
print the same digest stepped every frame to the same bits. Then it adds the
replay's snapshots to an empty graph ``--repeats`` times, with the
workload's global-map config, and prints the same figures for
``add_snapshot`` and the sha256 of the graph's ``save_graph`` bytes. Last it
solves that graph ``--repeats`` times, each time a fresh build of it, and
prints the same figures for ``optimize`` plus ``Graph.merge_estimates`` and
the sha256 of the solved graph's ``save_graph`` bytes, so a change to the
solve is checked bit for bit and timed outside the lap.

    PYTHONPATH=src python3 tools/bench_ingest.py --workload lap-map-500m --repeats 30

``--length-m`` stretches the workload's track and ``--seed`` changes its lap
seed. Not part of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

from conetrack import pipeline
from conetrack.global_map import Graph, add_snapshot, optimize, save_graph
from conetrack.local_map import LocalMapState, ingest_frame

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from lap import workload_config  # noqa: E402

WORKLOADS = ("lap-plan", "lap-map-500m", "lap-degraded")


def record_frames(workload: str, length_m: float | None, seed: int | None) -> tuple[list[tuple], object]:
    """The ``(batches, vel, dt, config, mode)`` of every ``ingest_frame`` call of one lap, and the lap's config."""
    config = workload_config(workload, seed)
    if length_m is not None:
        config = dataclasses.replace(config, track_spec=dataclasses.replace(config.track_spec, length_m=length_m))
    frames = []

    def recording(state, batches, vel, dt, local_config, mode=None):
        frames.append((batches, vel, dt, local_config, mode))
        return ingest_frame(state, batches, vel, dt, local_config, mode)

    pipeline.ingest_frame = recording
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            pipeline.run_pipeline(config, out_dir)
    finally:
        pipeline.ingest_frame = ingest_frame
    return frames, config


def replay(frames) -> list:
    state, snapshots = LocalMapState(), []
    for batches, vel, dt, config, mode in frames:
        state, snapshot = ingest_frame(state, batches, vel, dt, config, mode)
        snapshots.append(snapshot)
    return snapshots


def build_graph(snapshots, config) -> Graph:
    """A graph of the snapshots, its pose and edge arrays built as a reader would build them."""
    graph = Graph()
    for snapshot in snapshots:
        add_snapshot(graph, snapshot, config)
    graph.poses  # noqa: B018 (reading one array builds all queued rows)
    return graph


def graph_digest(graph: Graph) -> str:
    """sha256 of the graph's ``graph.json`` bytes."""
    with tempfile.TemporaryDirectory() as out_dir:
        path = Path(out_dir) / "graph.json"
        save_graph(graph, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def solve(graph: Graph, config) -> Graph:
    """The graph with its solve merged in, as a run's final solve leaves it."""
    graph.merge_estimates(optimize(graph, config))
    return graph


def timed(step, repeats: int, prepare=tuple) -> str:
    """The median and quartiles of ``repeats`` timed calls of ``step``, each
    on the arguments an untimed call of ``prepare`` returns."""
    times = []
    for _ in range(repeats):
        args = prepare()
        start = time.perf_counter()
        step(*args)
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"median {median * 1e3:.1f} ms  quartiles {q1 * 1e3:.1f} / {q3 * 1e3:.1f} ms  ({repeats} replays)"


def digest(snapshots) -> str:
    """sha256 over every snapshot's columns (bytes, dtype and shape), ego, time, mode and observed ids."""
    h = hashlib.sha256()
    for snap in snapshots:
        cones = snap.cones
        for column in (cones.ids, cones.means, cones.covs, cones.color_evidence, cones.existence, cones.last_seen):
            h.update(f"{column.dtype}{column.shape}".encode())
            h.update(column.tobytes())
        ego = (snap.ego.x, snap.ego.y, snap.ego.theta, snap.timestamp)
        h.update(repr((tuple(map(float, ego)), snap.mode.value, sorted(snap.observed_ids))).encode())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="lap-degraded", help="the benchmark workload to record")
    parser.add_argument("--repeats", type=int, default=30, help="timed replays of the lap")
    parser.add_argument("--length-m", type=float, default=None, help="track length (default: the workload's)")
    parser.add_argument("--seed", type=int, default=None, help="lap seed (default: the workload's)")
    args = parser.parse_args()
    frames, config = record_frames(args.workload, args.length_m, args.seed)
    snapshots = replay(frames)
    print(f"frames {len(frames)}  snapshot digest {digest(snapshots)}")
    print(f"ingest_frame replay: {timed(lambda: replay(frames), args.repeats)}")
    graph_config = config.global_map_config()
    print(f"graph digest {graph_digest(build_graph(snapshots, graph_config))}")
    print(f"add_snapshot replay: {timed(lambda: build_graph(snapshots, graph_config), args.repeats)}")
    print(f"solved graph digest {graph_digest(solve(build_graph(snapshots, graph_config), graph_config))}")
    fresh_graph = lambda: (build_graph(snapshots, graph_config),)  # noqa: E731
    print(f"optimize + merge_estimates: {timed(lambda graph: solve(graph, graph_config), args.repeats, fresh_graph)}")


if __name__ == "__main__":
    main()
