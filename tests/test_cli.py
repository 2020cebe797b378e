import dataclasses
import json
from pathlib import Path

import pytest

from conetrack.cli import main
from conetrack.config import dump_resolved, load_config
from conetrack.simulate import TrackSpec, generate_track, save_track


def read_json(path):
    return json.loads(Path(path).read_text())


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["generate", "--kind", "loop", "--length-m", "230", "--seed", "5"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_length_within_rule_band(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["generate", "--length-m", "250", "--seed", "1", "--out", str(out)]) == 0
        assert 200.0 <= read_json(out)["total_length_m"] <= 300.0

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["generate", "--width-m", "0", "--out", str(out)])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()
        assert not out.exists()

    def test_spec_file_plus_overrides(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "circle", "radius_m": 25.0}))
        out = tmp_path / "t.json"
        assert main(["generate", "--spec", str(spec), "--spacing-m", "4", "--out", str(out)]) == 0


class TestRun:
    def test_noise_free_run_rmse_zero(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", "noise-free-circle", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["map"]["rmse_m"] < 1e-9
        assert report["run"]["completed_lap"] is True
        for name in (
            "config_resolved.json",
            "track.json",
            "snapshots.ndjson",
            "planner_log.ndjson",
            "graph.json",
            "map_estimated.json",
            "map_dead_reckoned.json",
            "trajectory.csv",
            "report_hist.csv",
        ):
            assert (out / name).exists(), name

    def test_unknown_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", "no-such-thing", "--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_closed_loop_follows_planned_path(self, tmp_path):
        out = tmp_path / "cl"
        assert main(["run", "--config", "noise-free-circle", "--out", str(out), "--closed-loop"]) == 0
        report = read_json(out / "report.json")
        assert report["run"]["completed_lap"] is True
        assert report["map"]["rmse_m"] < 1e-6

    def test_closed_loop_divergence_fails_with_partial_outputs(self, tmp_path, capsys):
        # no planner means no steering: the car drives straight off the track
        out = tmp_path / "diverge"
        code = main(["run", "--config", "noise-free-circle", "--out", str(out), "--closed-loop", "--no-plan"])
        assert code == 1
        assert "run failed" in capsys.readouterr().err
        report = read_json(out / "report.json")
        assert report["run"]["completed_lap"] is False
        assert report["run"]["failure"]
        assert (out / "snapshots.ndjson").exists()

    def test_mode_schedule_degrades_and_completes(self, tmp_path):
        schedule = tmp_path / "sched.json"
        # camera failure also takes early fusion down; LiDAR-only finishes the lap
        schedule.write_text(json.dumps([{"time_s": 10.0, "fail": ["camera_only", "fusion"]}]))
        out = tmp_path / "run"
        code = main(
            ["run", "--config", "modes-5ms", "--out", str(out), "--mode-schedule", str(schedule), "--no-plan"]
        )
        assert code == 0
        from conetrack.local_map import read_snapshot_log

        snaps = read_snapshot_log(out / "snapshots.ndjson")
        modes = {s.mode.value for s in snaps if s.timestamp > 11.0}
        assert modes == {"lidar_only"}
        assert read_json(out / "report.json")["map"]["rmse_m"] <= 0.5

    def test_no_plan_report_is_strict_json(self, noisy_run):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((noisy_run[1] / "report.json").read_text(), parse_constant=reject)
        assert report["timing"]["planner"] == {"p50_ms": None, "p90_ms": None, "p99_ms": None, "mean_ms": None, "count": 0}

    def test_report_times_planning_stats_only_when_planning(self, run_dir, noisy_run):
        assert read_json(run_dir / "report.json")["timing"]["planning_stats"]["count"] == 1
        assert "planning_stats" not in read_json(noisy_run[1] / "report.json")["timing"]

    @pytest.mark.parametrize("content", [None, "not json {", '{"cones": []}'], ids=["missing", "garbage", "fieldless"])
    def test_bad_track_file_exits_2_before_any_artifact(self, tmp_path, capsys, content):
        track = tmp_path / "track.json"
        if content is not None:
            track.write_text(content)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"track_file": str(track)}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(track) in err
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("base") / "run"
    assert main(["run", "--config", "noise-free-circle", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    """A run with fusion sensor noise and planning off, so the periodic solves move the map."""
    root = tmp_path_factory.mktemp("noisy")
    config = root / "config.json"
    dump_resolved(dataclasses.replace(load_config("noise-free-circle"), plan_enabled=False), config)
    out = root / "run"
    assert main(["run", "--config", str(config), "--profile", "builtin:fusion", "--out", str(out)]) == 0
    return config, out


class TestReplay:

    def test_replay_reproduces_planner_log(self, tmp_path, run_dir):
        out = tmp_path / "replay"
        code = main(
            [
                "replay",
                "--snapshots",
                str(run_dir / "snapshots.ndjson"),
                "--config",
                "noise-free-circle",
                "--track",
                str(run_dir / "track.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "planner_log.ndjson").read_bytes() == (run_dir / "planner_log.ndjson").read_bytes()
        assert (out / "map_estimated.json").read_bytes() == (run_dir / "map_estimated.json").read_bytes()
        assert read_json(out / "replay_report.json")["timing"]["planning_stats"]["count"] == 1

    def test_noisy_replay_reproduces_maps_and_counts_snapshots(self, tmp_path, noisy_run, capsys):
        config, run = noisy_run
        out = tmp_path / "replay"
        assert main(["replay", "--snapshots", str(run / "snapshots.ndjson"), "--config", str(config), "--out", str(out)]) == 0
        for name in ("planner_log.ndjson", "map_estimated.json", "map_dead_reckoned.json", "graph.json"):
            assert (out / name).read_bytes() == (run / name).read_bytes(), name
        frames = read_json(run / "report.json")["run"]["frames"]
        assert frames > 0
        assert read_json(out / "replay_report.json")["frames"] == frames
        assert f"replayed {frames} snapshots" in capsys.readouterr().out

    def test_replay_with_doubled_prior_weight_differs(self, tmp_path, run_dir):
        out = tmp_path / "replay2"
        code = main(
            [
                "replay",
                "--snapshots",
                str(run_dir / "snapshots.ndjson"),
                "--config",
                "noise-free-circle",
                "--prior-weight",
                "58.0",
                "--verbose-candidates",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        ours = (out / "planner_log.ndjson").read_text().splitlines()
        theirs = (run_dir / "planner_log.ndjson").read_text().splitlines()
        assert ours != theirs
        record = json.loads(ours[1])
        assert "candidates" in record and record["candidates"]

    def test_truncated_log_partial_output(self, tmp_path, run_dir):
        chopped = tmp_path / "chopped.ndjson"
        text = (run_dir / "snapshots.ndjson").read_text()
        chopped.write_text(text[: int(len(text) * 0.6)])
        out = tmp_path / "replay3"
        code = main(["replay", "--snapshots", str(chopped), "--config", "noise-free-circle", "--out", str(out)])
        assert code == 0
        assert (out / "planner_log.ndjson").exists()

    def test_schema_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"schema_version": 99, "kind": "snapshot_log"}\n')
        assert main(["replay", "--snapshots", str(bad), "--out", str(tmp_path / "o")]) == 2


BAD_INPUTS = [
    ["eval", "--track", "{missing}"],
    ["eval", "--track", "{garbage}"],
    ["eval", "--track", "{track}", "--map", "{missing}"],
    ["eval", "--track", "{track}", "--map", "{garbage}"],
    ["eval", "--track", "{track}", "--planner-log", "{missing}"],
    ["eval", "--track", "{track}", "--planner-log", "{garbage}"],
    ["eval", "--track", "{track}", "--trajectory", "{missing}"],
    ["replay", "--snapshots", "{missing}"],
    ["replay", "--snapshots", "{garbage}", "--track", "{missing}"],
    ["replay", "--snapshots", "{midlog}"],
    ["run", "--config", "noise-free-circle", "--mode-schedule", "{missing}"],
    ["run", "--config", "noise-free-circle", "--mode-schedule", "{garbage}"],
    ["generate", "--spec", "{missing}"],
    ["generate", "--spec", "{garbage}"],
    ["eval", "--track", "{fieldless}"],
    ["run", "--config", "noise-free-circle", "--mode-schedule", "{badtime}"],
    ["run", "--config", "{badseed}"],
    ["run", "--config", "{notobject}"],
    ["run", "--config", "{badlimit}"],
    ["run", "--config", "{badlocal}"],
    ["run", "--config", "{badglobal}"],
    ["run", "--config", "{nangate}"],
    ["run", "--config", "{negnoise}"],
    ["run", "--config", "{baddecay}"],
    ["run", "--config", "{infeviction}"],
    ["run", "--config", "{negevery}"],
    ["run", "--config", "{floatevery}"],
    ["run", "--config", "{degradednolidar}"],
    ["run", "--config", "{nofusion}"],
    ["run", "--config", "{nansigma}"],
    ["run", "--config", "{negfalsepositives}"],
    ["run", "--config", "{negsigma}"],
    ["run", "--config", "noise-free-circle", "--profile", "{negsigmaprofile}"],
    ["run", "--config", "{mismatchedprofile}"],
    ["run", "--config", "{negradius}"],
    ["run", "--config", "{nanfloor}"],
    ["run", "--config", "{infspeed}"],
    ["run", "--config", "{neglateral}"],
    ["run", "--config", "{nanrate}"],
]

# placeholder -> (file content, None for no file; text the error must contain)
BAD_FILES = {
    "missing": (None, ""),
    "garbage": ("not json {", ""),
    "midlog": ('{"kind": "snapshot_log", "schema_version": 1}\n{"cones": []}\n{"cones": []}\n', "line 2"),
    "fieldless": ('{"cones": []}', "'centerline_m'"),
    "badtime": ('[{"time_s": "abc", "fail": ["fusion"]}]', "time_s"),
    "badseed": ('{"seed": "x"}', "seed"),
    "notobject": ("[1, 2]", "JSON object"),
    "badlimit": ('{"planner_limit_overrides": {"beam": 5}}', "'beam'"),
    "badlocal": ('{"local_map_overrides": {"no_such_gate": 1.0}}', "'no_such_gate'"),
    "badglobal": ('{"global_map_overrides": {"no_such_gate": 1.0}}', "'no_such_gate'"),
    "nangate": ('{"local_map_overrides": {"gate_distance": NaN}}', "gate_distance"),
    "negnoise": ('{"local_map_overrides": {"process_noise_rate": [-0.1, 0.02]}}', "process_noise_rate"),
    "baddecay": ('{"local_map_overrides": {"existence_decay": 2.0}}', "existence_decay"),
    "infeviction": ('{"local_map_overrides": {"eviction_timeout_s": Infinity}}', "eviction_timeout_s"),
    "negevery": ('{"global_map_overrides": {"optimize_every": -1}}', "optimize_every"),
    "floatevery": ('{"global_map_overrides": {"optimize_every": 2.5}}', "optimize_every"),
    "degradednolidar": (
        '{"profiles": {"fusion": "builtin:fusion"}, "force_mode": "degraded"}',
        "['camera_only', 'lidar_only']",
    ),
    "nofusion": ('{"profiles": {"lidar_only": "builtin:lidar_only"}}', "['fusion']"),
    "nansigma": ('{"profiles": {"fusion": {"mode": "fusion", "sigma_base_m": NaN}}}', "sigma_base_m"),
    "negfalsepositives": (
        '{"profiles": {"fusion": {"mode": "fusion", "false_positives_per_frame": -1.0}}}',
        "false_positives_per_frame",
    ),
    "negsigma": ('{"profiles": {"fusion": {"mode": "fusion", "sigma_base_m": -0.05}}}', "sigma_base_m"),
    "negsigmaprofile": ('{"mode": "fusion", "sigma_base_m": -0.05}', "sigma_base_m"),
    "mismatchedprofile": ('{"profiles": {"fusion": "builtin:lidar_only"}}', "'lidar_only'"),
    "negradius": ('{"global_map_overrides": {"association_radius_m": -1.0}}', "association_radius_m"),
    "nanfloor": ('{"global_map_overrides": {"observation_sigma_floor_m": NaN}}', "observation_sigma_floor_m"),
    "infspeed": ('{"max_speed_mps": Infinity}', "max_speed_mps"),
    "neglateral": ('{"lateral_accel_mps2": -6.0}', "lateral_accel_mps2"),
    "nanrate": ('{"frame_rate_hz": NaN}', "frame_rate_hz"),
}


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda argv: "-".join(a.strip("-{}") for a in argv))
def test_missing_or_malformed_input_file_exits_2(tmp_path, capsys, argv):
    paths = {name: tmp_path / f"{name}.json" for name in [*BAD_FILES, "track"]}
    for name, (content, _) in BAD_FILES.items():
        if content is not None:
            paths[name].write_text(content)
    save_track(generate_track(TrackSpec(kind="circle", radius_m=20.0), 0), paths["track"])
    bad = [a.strip("{}") for a in argv if a.strip("{}") in BAD_FILES][-1]
    assert main([a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(paths[bad]) in err and BAD_FILES[bad][1] in err
    assert not (tmp_path / "out").exists()


class TestEval:
    def test_eval_standalone(self, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", "noise-free-circle", "--out", str(run_dir)]) == 0
        report_path = tmp_path / "eval" / "report.json"
        code = main(
            [
                "eval",
                "--track",
                str(run_dir / "track.json"),
                "--map",
                str(run_dir / "map_estimated.json"),
                "--planner-log",
                str(run_dir / "planner_log.ndjson"),
                "--trajectory",
                str(run_dir / "trajectory.csv"),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        report = read_json(report_path)
        assert report["map"]["rmse_m"] < 1e-9
        assert report["planning"]["total_paths"] > 0
        assert report_path.with_suffix(".csv").exists()


class TestReproducibility:
    def test_two_runs_bit_identical_modulo_timing(self, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"r{k}"
            assert main(["run", "--config", "noise-free-circle", "--out", str(out)]) == 0
            outs.append(out)
        a, b = outs
        for name in ("track.json", "snapshots.ndjson", "planner_log.ndjson", "graph.json",
                     "map_estimated.json", "map_dead_reckoned.json", "trajectory.csv", "config_resolved.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        ra, rb = read_json(a / "report.json"), read_json(b / "report.json")
        ra.pop("timing"), rb.pop("timing")
        assert ra == rb
