import itertools
import math

import pytest

from conetrack.config import SOURCE_MODES, RunConfig, emitting_sources

PIPELINES = ("fusion", "lidar_only", "camera_only")

# the pipelines whose cones reach the local map, per set of live pipelines
EMITTING = {
    (): [],
    ("fusion",): ["fusion"],
    ("lidar_only",): ["lidar_only"],
    ("camera_only",): ["camera_only"],
    ("fusion", "lidar_only"): ["fusion"],
    ("fusion", "camera_only"): ["fusion"],
    ("lidar_only", "camera_only"): ["lidar_only", "camera_only"],
    ("fusion", "lidar_only", "camera_only"): ["fusion"],
}

# force_mode -> (initial pipelines, primary mode, reachable modes without a schedule)
FORCED = {
    None: ({"fusion", "lidar_only", "camera_only"}, "fusion", {"fusion"}),
    "fusion": ({"fusion"}, "fusion", {"fusion"}),
    "lidar_only": ({"lidar_only"}, "lidar_only", {"fusion", "lidar_only"}),
    "camera_only": ({"camera_only"}, "camera_only", {"fusion", "camera_only"}),
    "degraded": ({"lidar_only", "camera_only"}, "lidar_only", {"fusion", "lidar_only", "camera_only"}),
}

# fusion fails, the camera fails, fusion returns, then at one time fusion
# fails and the camera returns, and last the lidar fails
SCHEDULE = [
    {"time_s": 3.0, "fail": ["fusion"]},
    {"time_s": 6.0, "fail": ["camera_only"]},
    {"time_s": 9.0, "restore": ["fusion"]},
    {"time_s": 12.0, "fail": ["fusion"]},
    {"time_s": 12.0, "restore": ["camera_only"]},
    {"time_s": 20.0, "fail": ["lidar_only"]},
]
# force_mode -> reachable modes under SCHEDULE
FORCED_REACHABLE_UNDER_SCHEDULE = {
    None: {"fusion", "lidar_only", "camera_only"},
    "fusion": {"fusion", "camera_only"},
    "lidar_only": {"fusion", "lidar_only", "camera_only"},
    "camera_only": {"fusion", "camera_only"},
    "degraded": {"fusion", "lidar_only", "camera_only"},
}


class TestModeTable:
    def test_source_modes_are_the_three_pipelines(self):
        assert SOURCE_MODES == PIPELINES

    @pytest.mark.parametrize("alive", [c for r in range(4) for c in itertools.combinations(PIPELINES, r)])
    def test_emitting_sources(self, alive):
        assert emitting_sources(set(alive)) == EMITTING[alive]

    @pytest.mark.parametrize("force_mode", FORCED)
    def test_forced_mode(self, force_mode):
        pipelines, primary, reachable = FORCED[force_mode]
        config = RunConfig(force_mode=force_mode)
        assert config.initial_pipelines() == pipelines
        assert config.primary_mode() == primary
        assert config.reachable_modes() == reachable
        scheduled = RunConfig(force_mode=force_mode, mode_schedule=SCHEDULE)
        assert scheduled.reachable_modes() == FORCED_REACHABLE_UNDER_SCHEDULE[force_mode]


def per_event_sources(config, now):
    """The emitting pipelines at ``now``, applying the schedule one event at a time."""
    alive = config.initial_pipelines()
    for event in sorted(config.mode_schedule, key=lambda e: e["time_s"]):
        if event["time_s"] <= now:
            alive = (alive - set(event.get("fail", []))) | set(event.get("restore", []))
    return emitting_sources(alive)


class TestSourceTimeline:
    @pytest.mark.parametrize("force_mode", FORCED)
    def test_matches_the_per_event_walk(self, force_mode):
        config = RunConfig(force_mode=force_mode, mode_schedule=list(reversed(SCHEDULE)))
        timeline = config.source_timeline()
        assert [t for t, _ in timeline] == [-math.inf, 3.0, 6.0, 9.0, 12.0, 20.0]
        for now in (0.0, 2.9, 3.0, 5.0, 6.0, 9.0, 11.9, 12.0, 15.0, 20.0, 30.0):
            _, sources = [entry for entry in timeline if entry[0] <= now][-1]
            assert sources == per_event_sources(config, now), now

    def test_without_a_schedule_one_entry(self):
        assert RunConfig().source_timeline() == [(-math.inf, ["fusion"])]
