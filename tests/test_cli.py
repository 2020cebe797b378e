import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conetrack
from conetrack.cli import main
from conetrack.config import dump_resolved, load_config
from conetrack import pipeline
from conetrack.evaluate import timing_percentiles
from conetrack.pipeline import MAX_RUN_FRAMES, StageTimer
from conetrack.simulate import MAX_TRACK_SAMPLES, TrackSpec, generate_track, save_track


def read_json(path):
    return json.loads(Path(path).read_text())


def broken_track(edit) -> str:
    """The text of a valid circle track file after ``edit`` changes its JSON document in place."""
    data = generate_track(TrackSpec(kind="circle", radius_m=20.0), 0).to_dict()
    edit(data)
    return json.dumps(data)


# track files that parse but break the rule limits:
# placeholder -> (file content, text the error must contain)
BROKEN_TRACKS = {
    "yellowlesstrack": (
        broken_track(lambda d: d.update(cones=[c for c in d["cones"] if c["color"] != "yellow"])),
        "right side has no cones",
    ),
    "conelesstrack": (broken_track(lambda d: d.update(cones=[])), "left side has no cones"),
    "repeatedpointtrack": (
        broken_track(lambda d: d["centerline_m"].insert(1, d["centerline_m"][1])),
        "centerline has repeated points",
    ),
    "wronglengthtrack": (broken_track(lambda d: d.update(total_length_m=1.0)), "total_length_m"),
}


# sha256 of noise-free-circle --closed-loop artifacts, recorded when the closed
# loop drove a fixed 5 m/s instead of the (flat 5 m/s) speed profile
CLOSED_LOOP_CIRCLE_DIGESTS = {
    "snapshots.ndjson": "c00b8412934984c959f7cf78b3966976a6de138c79677fb6da5c28e716469139",
    "planner_log.ndjson": "de18f5d9c2e095072330cfc0b97e6d9744636bdea83a5d64509ab4d80036d9a6",
    "trajectory.csv": "e0316a5bc99fa3434660226982824512bfae3b84b0049128f799b6c7bbfd7b2a",
}


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["generate", "--kind", "loop", "--length-m", "230", "--seed", "5"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_longest_densest_track_keeps_its_bytes(self, tmp_path):
        """A 5 km loop at 0.5 m cone spacing, the most cone stations a spec may ask for: checking it projects
        20,000 cones onto 10,000 segments through the grid, and the file is the one the all-segments scan wrote."""
        out = tmp_path / "t.json"
        assert main(["generate", "--length-m", "5000", "--spacing-m", "0.5", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == "09eb5d410868f289af64fd7f1789601ca09bf5bf3730fd0534e397ae6f93cc37"

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

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--length-m", "nan"], "length_m"),
            (["--hairpins", "-3"], "hairpin_count"),
            (["--radius-m", "inf"], "radius_m"),
            # finite, but too many centerline samples or cone stations to build
            (["--length-m", "1e308"], "length_m"),
            (["--kind", "circle", "--radius-m", "1e300"], "radius_m"),
            (["--spacing-m", "1e-300"], "cone_spacing_m"),
        ],
    )
    def test_bad_spec_flag_exits_2_naming_the_field(self, tmp_path, capsys, flags, field):
        out = tmp_path / "t.json"
        assert main(["generate", *flags, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_spec_file_plus_overrides(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "circle", "radius_m": 25.0}))
        out = tmp_path / "t.json"
        assert main(["generate", "--spec", str(spec), "--spacing-m", "4", "--out", str(out)]) == 0


def test_startup_imports_neither_scipy_interpolate_nor_optimize():
    """A run imports only the scipy subpackages it calls: interpolate and optimize
    cost a quarter second, and spatial, the planner's triangulation, loads on
    a run's first plan, so start-up and a planner-off run never load it."""
    code = (
        "import dataclasses, sys, tempfile\n"
        "from pathlib import Path\n"
        "import conetrack.pipeline, conetrack.cli\n"
        "config = conetrack.config.load_config('noise-free-circle')\n"
        "def loaded():\n"
        "    return sorted(m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.spatial') if m in sys.modules)\n"
        "seen = [loaded()]\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    conetrack.pipeline.run_pipeline(dataclasses.replace(config, plan_enabled=False), Path(out) / 'off')\n"
        "    seen.append(loaded())\n"
        "    conetrack.pipeline.run_pipeline(config, Path(out) / 'on')\n"
        "    seen.append(loaded())\n"
        "print(seen)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(conetrack.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[[], [], ['scipy.spatial']]"


class TestRun:
    def test_noise_free_run_rmse_zero(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", "noise-free-circle", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["map"]["rmse_m"] < 1e-9
        assert report["run"]["completed_lap"] is True
        assert report["timing"]["final_solve"]["count"] == 1
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

    @pytest.mark.parametrize("command", ["run", "replay"])
    @pytest.mark.parametrize("kind", ["directory", "latin1"])
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, command, kind):
        config = tmp_path / "config.json"
        if kind == "directory":
            config.mkdir()
        else:  # an accented name in Latin-1, which is not UTF-8
            config.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        argv = {"run": ["run"], "replay": ["replay", "--snapshots", str(tmp_path / "snapshots.ndjson")]}[command]
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(config) in err
        assert not (tmp_path / "out").exists()

    def test_closed_loop_follows_planned_path(self, tmp_path):
        out = tmp_path / "cl"
        assert main(["run", "--config", "noise-free-circle", "--out", str(out), "--closed-loop"]) == 0
        report = read_json(out / "report.json")
        assert report["run"]["completed_lap"] is True
        assert report["map"]["rmse_m"] < 1e-6
        # a flat 5 m/s profile drives the lap the fixed 5 m/s closed-loop speed drove
        for name, digest in CLOSED_LOOP_CIRCLE_DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_closed_loop_drives_the_speed_profile(self, tmp_path):
        out = tmp_path / "cl12"
        assert main(["run", "--config", "fsg-like-12ms", "--out", str(out), "--closed-loop"]) == 0
        assert read_json(out / "report.json")["run"]["completed_lap"] is True
        with open(out / "trajectory.csv", newline="") as fh:
            rows = [(float(row["true_x_m"]), float(row["true_y_m"])) for row in csv.DictReader(fh)]
        steps = [math.dist(a, b) for a, b in zip(rows, rows[1:])]
        dt = 1.0 / load_config("fsg-like-12ms").frame_rate_hz
        # faster than 5 m/s on the straights, never faster than max_speed_mps (steps
        # at a fixed 5 m/s differ from 5 m/s * dt in the 15th digit)
        assert 5.0 * dt + 1e-6 < max(steps) <= 12.0 * dt + 1e-6

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
        # the driver step that raised the failure adds no sample
        timing = report["timing"]
        assert timing["ground_truth"]["count"] == report["run"]["frames"] > 0
        assert timing["planner"]["count"] == timing["planner_log"]["count"] == 0
        total_s = sum(t["mean_ms"] * t["count"] for t in timing.values() if isinstance(t, dict) and t["count"]) / 1e3
        assert 0.0 < total_s <= timing["wall_s"]

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

    def test_report_stages_sum_to_no_more_than_wall_time(self, run_dir, noisy_run):
        for out in (run_dir, noisy_run[1]):
            report = read_json(out / "report.json")
            timing = report["timing"]
            stages = {name: t for name, t in timing.items() if isinstance(t, dict)}
            for name in ("track_generation", "snapshot_write", "export", "map_write", "artifact_write", "final_solve"):
                assert stages[name]["count"] >= 1, name
            assert stages["export"]["count"] == 2
            # one planner log sample per planned snapshot: every frame, or none with planning off
            planned = report["run"]["frames"] if out == run_dir else 0
            assert stages["planner"]["count"] == stages["planner_log"]["count"] == planned
            # one step of the ground-truth driver per frame, and the last one that ends the lap
            assert stages["ground_truth"]["count"] == report["run"]["frames"] + 1
            total_s = sum(t["mean_ms"] * t["count"] for t in stages.values() if t["count"]) / 1e3
            assert 0.0 < total_s <= timing["wall_s"]
            assert timing["unaccounted_s"] == pytest.approx(timing["wall_s"] - total_s, abs=1e-9)

    def test_report_map_health(self, run_dir, noisy_run):
        noisy = read_json(noisy_run[1] / "report.json")["map"]
        assert noisy["converged"] is True and noisy["iterations"] >= 1
        assert noisy["message"] == "relative cost decrease below tolerance"
        assert 0.0 < noisy["max_residual_m"] < 0.5
        noise_free = read_json(run_dir / "report.json")["map"]
        assert noise_free["converged"] is True and noise_free["iterations"] == 0
        assert noise_free["message"] == "already at a zero-residual configuration"
        assert noise_free["residuals_over_0_5m"] == 0
        assert noise_free["residual_landmarks_over_0_5m"] == []
        assert noise_free["max_residual_m"] < 1e-6

    @pytest.mark.parametrize(
        "content",
        [None, "not json {", '{"cones": []}', *(text for text, _ in BROKEN_TRACKS.values())],
        ids=["missing", "garbage", "fieldless", *BROKEN_TRACKS],
    )
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

    def test_lap_from_a_track_file_counts_against_the_frame_budget(self, tmp_path, capsys):
        track = tmp_path / "track.json"
        save_track(generate_track(TrackSpec(kind="circle", radius_m=10.0), 0), track)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"track_file": str(track), "max_speed_mps": 0.001}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(config) in err and "max_speed_mps 0.001 and frame_rate_hz 10.0" in err
        assert not (tmp_path / "out").exists()

    def test_a_5_km_track_at_the_speed_floor_fits_the_closed_loop_frame_budget(self):
        # the longest centerline a spec may ask for, three laps at 1 m/s and 10 Hz
        assert 3 * (MAX_TRACK_SAMPLES * TrackSpec().centerline_resolution_m) / (1.0 * 0.1) <= MAX_RUN_FRAMES


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("base") / "run"
    assert main(["run", "--config", "noise-free-circle", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    """A run with fusion sensor noise and planning off, so the final solve moves the map."""
    root = tmp_path_factory.mktemp("noisy")
    config = root / "config.json"
    dump_resolved(dataclasses.replace(load_config("noise-free-circle"), plan_enabled=False), config)
    out = root / "run"
    assert main(["run", "--config", str(config), "--profile", "builtin:fusion", "--out", str(out)]) == 0
    return config, out


class TestStageTimer:
    @staticmethod
    def clock(monkeypatch, *readings):
        """Make ``time.perf_counter`` return ``readings`` in turn."""
        ticks = iter(readings)
        monkeypatch.setattr(pipeline.time, "perf_counter", lambda: next(ticks))

    def test_a_block_that_raises_adds_no_sample(self, monkeypatch):
        timer = StageTimer("sense")
        self.clock(monkeypatch, 1.0, 2.0, 3.0)
        with pytest.raises(ZeroDivisionError):
            with timer.stage("sense"):
                1 / 0
        with timer.stage("sense"):
            pass
        assert timer.samples == {"sense": [1000.0]}

    def test_stages_named_at_construction_report_count_0(self):
        timer = StageTimer("sense", "local_map")
        with timer.stage("local_map"):
            pass
        with timer.stage("export"):  # a stage not named at construction is listed from its first sample
            pass
        assert list(timer.samples) == ["sense", "local_map", "export"]
        report = {name: timing_percentiles(samples) for name, samples in timer.samples.items()}
        assert report["sense"]["count"] == 0 and report["sense"]["mean_ms"] is None
        assert report["local_map"]["count"] == report["export"]["count"] == 1

    def test_samples_are_milliseconds_in_block_order(self, monkeypatch):
        timer = StageTimer("export")
        self.clock(monkeypatch, 10.0, 10.25, 11.0, 11.5, 12.0, 12.001)
        with timer.stage("export"):
            with timer.stage("map_write"):  # nested blocks each time their own span
                pass
        with timer.stage("export"):
            pass
        assert timer.samples == {"export": [1500.0, (12.001 - 12.0) * 1e3], "map_write": [750.0]}


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
        report = read_json(out / "replay_report.json")
        counts = {stage: t["count"] for stage, t in report["timing"].items()}
        frames = report["frames"]
        assert frames > 0
        assert counts == {
            "planner": frames,
            "planner_log": frames,
            "global_map": frames,
            "final_solve": 1,
            "export": 2,
            "map_write": 1,
            "planning_stats": 1,
        }

    def test_replay_and_eval_give_one_planning_summary(self, tmp_path, run_dir):
        track = str(run_dir / "track.json")
        replay = ["replay", "--snapshots", str(run_dir / "snapshots.ndjson"), "--config", "noise-free-circle"]
        assert main([*replay, "--track", track, "--out", str(tmp_path / "replay")]) == 0
        log = str(run_dir / "planner_log.ndjson")
        assert main(["eval", "--track", track, "--planner-log", log, "--out", str(tmp_path / "eval.json")]) == 0
        planning = read_json(tmp_path / "replay" / "replay_report.json")["planning"]
        assert planning == read_json(tmp_path / "eval.json")["planning"]
        assert {"bin_edges_m", "out_of_track_within_5m_fraction"} <= set(planning)

    def test_noisy_replay_reproduces_maps_and_counts_snapshots(self, tmp_path, noisy_run, capsys):
        config, run = noisy_run
        out = tmp_path / "replay"
        assert main(["replay", "--snapshots", str(run / "snapshots.ndjson"), "--config", str(config), "--out", str(out)]) == 0
        for name in ("planner_log.ndjson", "map_estimated.json", "map_dead_reckoned.json", "graph.json"):
            assert (out / name).read_bytes() == (run / name).read_bytes(), name
        frames = read_json(run / "report.json")["run"]["frames"]
        assert frames > 0
        assert read_json(out / "replay_report.json")["frames"] == frames
        assert read_json(out / "replay_report.json")["timing"]["final_solve"]["count"] == 1
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

    def test_a_lap_inside_the_time_limit_replays(self, tmp_path):
        """A lap whose frames could run to 9.4e8 s, 27.6 and 10 spare of 2.5e7 s, is run; its log replays to the same plans."""
        config = tmp_path / "slow.json"
        config.write_text(SLOW_LAP % (2e-7, 4e-8))
        run_dir, out = tmp_path / "run", tmp_path / "replay"
        assert main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        last = json.loads((run_dir / "snapshots.ndjson").read_text().splitlines()[-1])
        assert last["timestamp_s"] == 27 * 2.5e7
        argv = ["replay", "--snapshots", str(run_dir / "snapshots.ndjson"), "--config", str(config)]
        assert main([*argv, "--track", str(run_dir / "track.json"), "--out", str(out)]) == 0
        assert (out / "planner_log.ndjson").read_bytes() == (run_dir / "planner_log.ndjson").read_bytes()


# a noise-free lap of a 138 m circle at a constant (max_speed_mps, frame_rate_hz)
SLOW_LAP = (
    '{"track_spec": {"kind": "circle", "radius_m": 22.0, "cone_spacing_m": 2.2, "track_width_m": 4.0},'
    ' "profiles": {"fusion": "noise_free:fusion"}, "max_speed_mps": %r, "frame_rate_hz": %r}'
)

BAD_INPUTS = [
    ["eval", "--track", "{missing}"],
    ["eval", "--track", "{garbage}"],
    ["eval", "--track", "{track}", "--map", "{missing}"],
    ["eval", "--track", "{track}", "--map", "{garbage}"],
    ["eval", "--track", "{track}", "--map", "{stringmap}"],
    ["eval", "--track", "{track}", "--map", "{scalarmap}"],
    ["eval", "--track", "{track}", "--map", "{ymissingmap}"],
    ["eval", "--track", "{track}", "--map", "{nanmap}"],
    ["eval", "--track", "{track}", "--map", "{objectmap}"],
    ["eval", "--track", "{track}", "--map", "{onelandmarkmap}"],
    ["eval", "--track", "{track}", "--map", "{farmap}"],
    ["eval", "--track", "{track}", "--planner-log", "{missing}"],
    ["eval", "--track", "{track}", "--planner-log", "{garbage}"],
    ["eval", "--track", "{track}", "--planner-log", "{listheaderplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{listrecordplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{egolessplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{wordwaypointplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{nanwaypointplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{nanegoplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{schemaplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{extraheaderplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{hugewaypointplans}"],
    ["eval", "--track", "{track}", "--planner-log", "{hugeegoplans}"],
    ["eval", "--track", "{track}", "--trajectory", "{missing}"],
    ["eval", "--track", "{track}", "--trajectory", "{columnlesstrajectory}"],
    ["eval", "--track", "{track}", "--trajectory", "{shortrowtrajectory}"],
    ["eval", "--track", "{track}", "--trajectory", "{nantrajectory}"],
    ["eval", "--track", "{track}", "--trajectory", "{repeatedtrajectory}"],
    ["replay", "--snapshots", "{missing}"],
    ["replay", "--snapshots", "{garbage}", "--track", "{missing}"],
    ["replay", "--snapshots", "{midlog}"],
    ["replay", "--snapshots", "{badrecordlog}"],
    ["replay", "--snapshots", "{listheaderlog}"],
    ["replay", "--snapshots", "{backwardslog}"],
    ["replay", "--snapshots", "{schema1log}"],
    ["replay", "--snapshots", "{hugetimelog}"],
    ["replay", "--snapshots", "{hugeegolog}"],
    ["run", "--config", "noise-free-circle", "--mode-schedule", "{missing}"],
    ["run", "--config", "noise-free-circle", "--mode-schedule", "{garbage}"],
    ["generate", "--spec", "{missing}"],
    ["generate", "--spec", "{garbage}"],
    ["generate", "--spec", "{notobject}"],
    ["eval", "--track", "{fieldless}"],
    *(["eval", "--track", f"{{{name}}}"] for name in BROKEN_TRACKS),
    *(["replay", "--snapshots", "{garbage}", "--track", f"{{{name}}}"] for name in BROKEN_TRACKS),
    ["run", "--config", "noise-free-circle", "--mode-schedule", "{badtime}"],
    ["run", "--config", "{badseed}"],
    ["run", "--config", "{negseed}"],
    ["run", "--config", "fsg-like-5ms", "--seed", "-1"],
    ["generate", "--seed", "-1"],
    ["run", "--config", "{notobject}"],
    ["run", "--config", "{badlimit}"],
    ["run", "--config", "{badlocal}"],
    ["run", "--config", "{colorweights}"],
    ["run", "--config", "{badglobal}"],
    ["run", "--config", "{nangate}"],
    ["run", "--config", "{negnoise}"],
    ["run", "--config", "{baddecay}"],
    ["run", "--config", "{infeviction}"],
    ["run", "--config", "{negiterations}"],
    ["run", "--config", "{floatiterations}"],
    ["run", "--config", "{degradednolidar}"],
    ["run", "--config", "{nofusion}"],
    ["run", "--config", "{nansigma}"],
    ["run", "--config", "{negfalsepositives}"],
    ["run", "--config", "{negsigma}"],
    ["run", "--config", "noise-free-circle", "--profile", "{negsigmaprofile}"],
    ["run", "--config", "noise-free-circle", "--profile", "{hugefalsepositivesprofile}"],
    ["run", "--config", "noise-free-circle", "--profile", "{hugeyawsigmaprofile}"],
    ["run", "--config", "{hugespeedsigma}"],
    ["run", "--config", "{mismatchedprofile}"],
    ["run", "--config", "{negradius}"],
    ["run", "--config", "{nanfloor}"],
    ["run", "--config", "{tinyodometrysigma}"],
    ["run", "--config", "{underflowodometrysigma}"],
    ["run", "--config", "{hugeodometrysigma}"],
    ["run", "--config", "{hugesigmafloor}"],
    ["run", "--config", "{infspeed}"],
    ["run", "--config", "{neglateral}"],
    ["run", "--config", "{nanrate}"],
    ["run", "--config", "{crawlspeed}"],
    ["run", "--config", "{hugeframerate}"],
    ["run", "--config", "{pasttimelimit}"],
    ["run", "--config", "{pastcoordinatelimit}"],
    ["run", "--config", "{nanlength}"],
    ["run", "--config", "{infradius}"],
    ["run", "--config", "{intkind}"],
    ["run", "--config", "{hugeradius}"],
    ["run", "--config", "{tinyresolution}"],
    ["run", "--config", "{tinyspacing}"],
    ["run", "--config", "{nanmaxlength}"],
    ["run", "--config", "{hugemaxlength}"],
    ["run", "--config", "{tinymaxlength}"],
    ["run", "--config", "{hugeedgecount}"],
    ["run", "--config", "{zerobeam}"],
    ["run", "--config", "{floatedges}"],
    ["run", "--config", "{nanprior}"],
    ["run", "--config", "{stringclosedloop}"],
    ["run", "--config", "{closedloopspeed}"],
    ["run", "--config", "{divergencemargin}"],
    ["run", "--config", "{stringplanenabled}"],
    ["run", "--config", "{intverbose}"],
    ["run", "--config", "{inttrackfile}"],
    ["run", "--config", "{listprofiles}"],
    ["run", "--config", "{listname}"],
    ["run", "--config", "{listlocal}"],
    ["run", "--config", "{rangeoverride}"],
    ["run", "--config", "{fovoverride}"],
    ["run", "--config", "{decayovercap}"],
]

SNAPSHOT_HEADER = json.dumps({
    "kind": "snapshot_log",
    "schema_version": 2,
    "columns": {
        name: {"dtype": dtype, "shape": shape}
        for name, dtype, shape in (
            ("id", "<i8", []),
            ("means_m", "<f8", [2]),
            ("cov_m2", "<f8", [2, 2]),
            ("color_evidence", "<f8", [3]),
            ("existence", "<f8", []),
            ("last_seen_s", "<f8", []),
        )
    },
}) + "\n"
EMPTY_CONES = '{"color_evidence": "", "count": 0, "cov_m2": "", "existence": "", "id": "", "last_seen_s": "", "means_m": ""}'
# one valid snapshot log record: no cones, the ego at the origin
EMPTY_RECORD = (
    '{"cones": %s, "ego": {"theta_rad": 0.0, "x_m": 0.0, "y_m": 0.0}, "mode": "fusion", "observed_ids": [], "timestamp_s": %%s}\n'
    % EMPTY_CONES
)


PLANNER_HEADER = '{"kind": "planner_log", "schema_version": 1}\n'
# one planner log record with a one-waypoint path, its ego and waypoint spliced in
PLAN_RECORD = '{"ego": {"theta_rad": 0.0, "x_m": %s, "y_m": 0.0}, "n_candidates": 1, "timestamp_s": 0.1, "waypoints_m": [%s]}\n'
TRAJECTORY_HEADER = "timestamp_s,true_x_m,true_y_m,true_theta_rad,ego_x_m,ego_y_m,ego_theta_rad\n"

# placeholder -> (file content, None for no file; text the error must contain)
BAD_FILES = {
    "missing": (None, ""),
    "garbage": ("not json {", ""),
    "midlog": (SNAPSHOT_HEADER + '{"cones": []}\n{"cones": []}\n', "line 2"),
    # five records, the second with cones that are not an object
    "badrecordlog": (
        SNAPSHOT_HEADER
        + EMPTY_RECORD % 0.0
        + (EMPTY_RECORD % 0.1).replace(EMPTY_CONES, "[7]")
        + "".join(EMPTY_RECORD % t for t in (0.2, 0.3, 0.4)),
        "line 3",
    ),
    "listheaderlog": ('[1]\n' + EMPTY_RECORD % 0.0, "line 1"),
    # the third record goes back in time
    "backwardslog": (SNAPSHOT_HEADER + "".join(EMPTY_RECORD % t for t in (0.0, 0.2, 0.1, 0.3)), "line 4"),
    # times whose gap overflows, and an ego far beyond any track, on a record before the last
    "hugetimelog": (SNAPSHOT_HEADER + EMPTY_RECORD % -1e308 + EMPTY_RECORD % 1e308, "line 2"),
    "hugeegolog": (
        SNAPSHOT_HEADER + EMPTY_RECORD % 0.0 + (EMPTY_RECORD % 0.1).replace('"x_m": 0.0', '"x_m": 1e308') + EMPTY_RECORD % 0.2,
        "line 3",
    ),
    # a schema-1 log: cones as objects of float text
    "schema1log": ('{"kind": "snapshot_log", "schema_version": 1}\n' + EMPTY_RECORD.replace(EMPTY_CONES, "[]") % 0.0, "line 1"),
    "schemaplans": ('{"kind": "planner_log", "schema_version": 99}\n' + PLAN_RECORD % (0.0, "[1.0, 0.0]"), "line 1"),
    "listheaderplans": ("[1]\n" + PLAN_RECORD % (0.0, "[1.0, 0.0]"), "line 1"),
    # the header must be exactly the one the writer writes
    "extraheaderplans": (
        '{"kind": "planner_log", "note": "x", "schema_version": 1}\n' + PLAN_RECORD % (0.0, "[1.0, 0.0]"),
        "line 1",
    ),
    "listrecordplans": (PLANNER_HEADER + PLAN_RECORD % (0.0, "[1.0, 0.0]") + "[7]\n", "line 3"),
    "egolessplans": (PLANNER_HEADER + '{"timestamp_s": 0.1, "waypoints_m": [[1.0, 0.0]]}\n', "line 2"),
    "wordwaypointplans": (PLANNER_HEADER + PLAN_RECORD % (0.0, '[1, "a"]'), "line 2"),
    "nanwaypointplans": (PLANNER_HEADER + PLAN_RECORD % (0.0, "[NaN, 0.0]"), "line 2"),
    "nanegoplans": (PLANNER_HEADER + PLAN_RECORD % ("NaN", "[1.0, 0.0]"), "line 2"),
    # finite coordinates whose path length overflows: the second record's middle waypoint
    "hugewaypointplans": (
        PLANNER_HEADER + PLAN_RECORD % (0.0, "[1.0, 0.0]") + PLAN_RECORD % (0.0, "[1.0, 0.0], [1e308, 0.0], [2.0, 0.0]"),
        "line 3: ego and waypoint coordinates must be within 1e+06 m",
    ),
    "hugeegoplans": (PLANNER_HEADER + PLAN_RECORD % ("-2e6", "[1.0, 0.0]"), "line 2: ego and waypoint coordinates"),
    "columnlesstrajectory": ("timestamp_s,true_x_m\n0.0,1.0\n", "line 1"),
    "shortrowtrajectory": (TRAJECTORY_HEADER + "0.0,0,0,0,0,0,0\n0.1,1.0,2.0\n", "line 3"),
    "nantrajectory": (TRAJECTORY_HEADER + "0.0,nan,0,0,0,0,0\n", "line 2"),
    "repeatedtrajectory": (
        TRAJECTORY_HEADER + "0.0,0,0,0,0,0,0\n0.1,1.0,0,0,1.0,0,0\n0.1,999,0,0,1.0,0,0\n",
        "line 4 repeats the timestamp_s 0.1 of line 3",
    ),
    "fieldless": ('{"cones": []}', "'centerline_m'"),
    "stringmap": ('[{"x_m": "a", "y_m": 1}]', "map record 0"),
    "scalarmap": ('[{"x_m": 0.0, "y_m": 1.0}, 7]', "map record 1"),
    "ymissingmap": ('[{"x_m": 0.0}]', "map record 0"),
    "nanmap": ('[{"x_m": NaN, "y_m": 1.0}]', "map record 0"),
    "objectmap": ('{"x_m": 0.0, "y_m": 1.0}', "JSON list"),
    # maps ICP cannot align to the track: one landmark, and landmarks far from every cone
    "onelandmarkmap": ('[{"x_m": 0.0, "y_m": 1.0}]', "all points coincident"),
    "farmap": (
        '[{"x_m": 500.0, "y_m": 500.0}, {"x_m": 510.0, "y_m": 505.0}]',
        "no correspondences within the reject radius",
    ),
    "badtime": ('[{"time_s": "abc", "fail": ["fusion"]}]', "time_s"),
    "badseed": ('{"seed": "x"}', "seed"),
    "negseed": ('{"seed": -5}', "seed"),
    "notobject": ("[1, 2]", "JSON object"),
    "badlimit": ('{"planner_limit_overrides": {"beam": 5}}', "'beam'"),
    "badlocal": ('{"local_map_overrides": {"no_such_gate": 1.0}}', "'no_such_gate'"),
    # the colour weights are fixed by the local map's mode table, not configured
    "colorweights": ('{"local_map_overrides": {"color_weights": [["degraded", "lidar_only", 0.3]]}}', "'color_weights'"),
    "badglobal": ('{"global_map_overrides": {"no_such_gate": 1.0}}', "'no_such_gate'"),
    "nangate": ('{"local_map_overrides": {"gate_distance": NaN}}', "gate_distance"),
    "negnoise": ('{"local_map_overrides": {"process_noise_rate": [-0.1, 0.02]}}', "process_noise_rate"),
    "baddecay": ('{"local_map_overrides": {"existence_decay": 2.0}}', "existence_decay"),
    "infeviction": ('{"local_map_overrides": {"eviction_timeout_s": Infinity}}', "eviction_timeout_s"),
    "negiterations": ('{"global_map_overrides": {"max_iterations": -1}}', "max_iterations"),
    "floatiterations": ('{"global_map_overrides": {"max_iterations": 2.5}}', "max_iterations"),
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
    # a Poisson rate numpy cannot draw from, and a yaw-rate sigma whose noisy reading overflows
    "hugefalsepositivesprofile": ('{"mode": "fusion", "false_positives_per_frame": 1e20}', "false_positives_per_frame"),
    "hugeyawsigmaprofile": ('{"mode": "fusion", "velocity_sigma": [0.05, 0.03, 1e308]}', "velocity_sigma"),
    "hugespeedsigma": (
        '{"profiles": {"fusion": {"mode": "fusion", "velocity_sigma_per_speed": [1e307, 0.0, 0.0]}}}',
        "velocity_sigma_per_speed",
    ),
    "mismatchedprofile": ('{"profiles": {"fusion": "builtin:lidar_only"}}', "'lidar_only'"),
    "negradius": ('{"global_map_overrides": {"association_radius_m": -1.0}}', "association_radius_m"),
    "nanfloor": ('{"global_map_overrides": {"observation_sigma_floor_m": NaN}}', "observation_sigma_floor_m"),
    # noise whose information underflows, divides by zero or overflows, which used to fail mid-run
    "tinyodometrysigma": (
        '{"track_spec": {"kind": "circle", "radius_m": 10.0}, "global_map_overrides": {"odometry_sigma_rates": [1e-300, 0.08, 0.012]}}',
        "odometry_sigma_rates",
    ),
    "underflowodometrysigma": (
        '{"track_spec": {"kind": "circle", "radius_m": 10.0}, "global_map_overrides": {"odometry_sigma_rates": [1e-170, 0.08, 0.012]}}',
        "odometry_sigma_rates",
    ),
    "hugeodometrysigma": (
        '{"track_spec": {"kind": "circle", "radius_m": 10.0}, "global_map_overrides": {"odometry_sigma_rates": [1e200, 0.08, 0.012]}}',
        "odometry_sigma_rates",
    ),
    "hugesigmafloor": (
        '{"track_spec": {"kind": "circle", "radius_m": 10.0}, "global_map_overrides": {"observation_sigma_floor_m": 1e155}}',
        "observation_sigma_floor_m",
    ),
    "infspeed": ('{"max_speed_mps": Infinity}', "max_speed_mps"),
    "neglateral": ('{"lateral_accel_mps2": -6.0}', "lateral_accel_mps2"),
    "nanrate": ('{"frame_rate_hz": NaN}', "frame_rate_hz"),
    # laps that ask for more frames than a run may step, which used to run for hours
    "crawlspeed": (
        '{"track_spec": {"kind": "circle", "radius_m": 10.0}, "max_speed_mps": 0.001}',
        "max_speed_mps 0.001 and frame_rate_hz 10.0 on a 62.8253 m lap ask for 6.28e+05 frames",
    ),
    "hugeframerate": (
        '{"track_spec": {"kind": "circle", "radius_m": 10.0}, "frame_rate_hz": 1e9}',
        "frame_rate_hz 1000000000.0 on a 62.8253 m lap",
    ),
    # a lap whose frames, 27.6 and 10 spare of 3.3e7 s, could pass the snapshot log's time limit
    "pasttimelimit": (SLOW_LAP % (1.5e-7, 3e-8), "ask for 27.6 frames of 3.33e+07 s, over the cap of 200000 frames or"),
    # the same slow lap with the default, noisy velocity: 2.5e7 s frames used to dead-reckon the
    # ego to 1.06e6 m by the third record, a snapshot log that replay rejects
    "pastcoordinatelimit": (
        SLOW_LAP.replace(' "profiles": {"fusion": "noise_free:fusion"},', "") % (2e-7, 4e-8),
        "could dead-reckon the ego 7.53e+08 m from the start with the velocity noise at 10 sigmas",
    ),
    "nanlength": ('{"track_spec": {"length_m": NaN}}', "length_m"),
    "infradius": ('{"track_spec": {"kind": "circle", "radius_m": Infinity}}', "radius_m"),
    "intkind": ('{"track_spec": {"kind": 5}}', "bad track_spec: track spec kind must be one of"),
    "hugeradius": ('{"track_spec": {"kind": "circle", "radius_m": 1e308}}', "radius_m"),
    "tinyresolution": ('{"track_spec": {"centerline_resolution_m": 1e-300}}', "centerline_resolution_m"),
    "tinyspacing": ('{"track_spec": {"cone_spacing_m": 1e-300}}', "cone_spacing_m"),
    "nanmaxlength": ('{"planner_limit_overrides": {"max_length_m": NaN}}', "max_length_m"),
    # limits whose prior term overflows, divides by zero or cannot be a float, which used to fail mid-run
    "hugemaxlength": ('{"planner_limit_overrides": {"max_length_m": 1e200}}', "max_length_m"),
    "tinymaxlength": ('{"planner_limit_overrides": {"max_length_m": 1e-300}}', "max_length_m"),
    "hugeedgecount": ('{"planner_limit_overrides": {"desired_edge_count": 1%s}}' % ("0" * 400), "desired_edge_count"),
    "zerobeam": ('{"planner_limit_overrides": {"beam_width": 0}}', "beam_width"),
    "floatedges": ('{"planner_limit_overrides": {"max_edges": 2.5}}', "max_edges"),
    "nanprior": ('{"prior_weight": NaN}', "prior_weight"),
    "stringclosedloop": ('{"closed_loop": "false"}', "closed_loop"),
    # the closed loop drives the speed profile and fails at a fixed 3 m margin
    "closedloopspeed": ('{"closed_loop_speed_mps": 5.0}', "unknown config keys: ['closed_loop_speed_mps']"),
    "divergencemargin": ('{"divergence_margin_m": 3.0}', "unknown config keys: ['divergence_margin_m']"),
    "stringplanenabled": ('{"plan_enabled": "no"}', "plan_enabled"),
    "intverbose": ('{"verbose_candidates": 1}', "verbose_candidates"),
    "inttrackfile": ('{"track_file": 5}', "track_file"),
    "listprofiles": ('{"profiles": [1]}', "profiles must be an object"),
    "listname": ('{"name": [1]}', "name must be a string"),
    "listlocal": ('{"local_map_overrides": [1]}', "local_map_overrides must be an object"),
    # range and field of view are the sensor profile's
    "rangeoverride": ('{"local_map_overrides": {"max_range_m": 10.0}}', "set the profile's max_range_m"),
    "fovoverride": ('{"local_map_overrides": {"fov_half_angle_rad": 1.0}}', "set the profile's fov_half_angle_rad"),
    # 10 Hz caps the decay at 0.05 ** (1 / 4), about 0.4729
    "decayovercap": ('{"local_map_overrides": {"existence_decay": 0.9}}', "existence_decay 0.9 is above 0.4728"),
    **BROKEN_TRACKS,
}


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda argv: "-".join(a.strip("-{}") for a in argv))
def test_missing_or_malformed_input_file_exits_2(tmp_path, capsys, argv):
    paths = {name: tmp_path / f"{name}.json" for name in [*BAD_FILES, "track"]}
    for name, (content, _) in BAD_FILES.items():
        if content is not None:
            paths[name].write_text(content)
    save_track(generate_track(TrackSpec(kind="circle", radius_m=20.0), 0), paths["track"])
    bad = [a.strip("{}") for a in argv if a.strip("{}") in BAD_FILES]
    assert main([a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    if bad:
        assert str(paths[bad[-1]]) in err and BAD_FILES[bad[-1]][1] in err
    else:  # a bad flag value: the message names the last flag's field
        assert [a for a in argv if a.startswith("--")][-1][2:] in err
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

    def test_trajectory_missing_a_planner_timestamp_exits_2(self, tmp_path, capsys, run_dir):
        # a record the trajectory lacks would be judged at the start pose, in another frame
        trajectory = tmp_path / "short.csv"
        rows = (run_dir / "trajectory.csv").read_text().splitlines(keepends=True)
        trajectory.write_text("".join(rows[:6]))  # the header and the first five frames
        log = (run_dir / "planner_log.ndjson").read_text().splitlines()
        first_missing = json.loads(log[6])["timestamp_s"]
        out = tmp_path / "eval" / "report.json"
        argv = ["eval", "--track", str(run_dir / "track.json"), "--planner-log", str(run_dir / "planner_log.ndjson")]
        assert main([*argv, "--trajectory", str(trajectory), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(trajectory) in err and repr(first_missing) in err
        assert not out.exists()
        # without a trajectory every record keeps the start-pose gauge
        assert main([*argv, "--out", str(out)]) == 0


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
