import dataclasses
import functools
import hashlib
import itertools
import math
import re

import pytest

from conetrack.config import _RUN_BOUNDS, SOURCE_MODES, RunConfig, dump_resolved, emitting_sources, load_config
from conetrack.global_map import _CONFIG_BOUNDS as GLOBAL_MAP_BOUNDS
from conetrack.global_map import GlobalMapConfig
from conetrack.local_map import _CONFIG_BOUNDS as LOCAL_MAP_BOUNDS
from conetrack.local_map import LocalMapConfig
from conetrack.planner import _LIMIT_BOUNDS, PlannerConfig, SearchLimits
from conetrack.simulate import _PROFILE_BOUNDS, _SPEC_BOUNDS, SensorProfile, TrackSpec

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


# class name -> (class, its bounds table, a build with keyword fields that runs the check)
BOUND_TABLES = {
    "LocalMapConfig": (LocalMapConfig, LOCAL_MAP_BOUNDS, LocalMapConfig),
    "GlobalMapConfig": (GlobalMapConfig, GLOBAL_MAP_BOUNDS, GlobalMapConfig),
    "SearchLimits": (SearchLimits, _LIMIT_BOUNDS, lambda **fields: PlannerConfig(SearchLimits(**fields))),
    "TrackSpec": (TrackSpec, _SPEC_BOUNDS, TrackSpec),
    "SensorProfile": (SensorProfile, _PROFILE_BOUNDS, functools.partial(SensorProfile, "fusion")),
    "RunConfig": (RunConfig, _RUN_BOUNDS, RunConfig),
}
# numeric fields checked beside their class's table instead of in it
EXEMPT = {
    ("SensorProfile", "color_accuracy_bins"),  # (range edge, value) bins with ordered edges
    ("SensorProfile", "recall_bins"),
    ("RunConfig", "prior_weight"),  # None, or the PlannerConfig prior_weight it sets
}
# fields whose None is allowed beside the table's bound
NONE_ALLOWED = {("SearchLimits", "beam_width"), ("RunConfig", "prior_weight")}


def out_of_bounds(bound):
    """Values that break ``bound``: for a number NaN and one past each end, for an
    integer a bool, a fraction and one below the lowest, for n numbers each of
    those in the first place and a list one too short and one too long."""
    if bound.integer:
        return [True, 2.5, bound.low - 1]
    below = bound.low - 1.0 if bound.low_ok else bound.low
    beyond = [math.nan, below, bound.high + 1.0 if math.isfinite(bound.high) else math.inf]
    if bound.count is None:
        return beyond
    inside = (bound.low + bound.high) / 2 if math.isfinite(bound.high) else bound.low + 1.0
    rest = (inside,) * (bound.count - 1)
    return [rest, rest + (inside, inside), *((value,) + rest for value in beyond)]


BOUND_CASES = [
    pytest.param(label, name, value, id=f"{label}-{name}-{value!r}")
    for label, (_, bounds, _) in BOUND_TABLES.items()
    for name, bound in bounds.items()
    for value in out_of_bounds(bound)
]


class TestBoundsTables:
    @pytest.mark.parametrize("label, name, value", BOUND_CASES)
    def test_out_of_bounds_value_raises_naming_the_field(self, label, name, value):
        _, _, build = BOUND_TABLES[label]
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            build(**{name: value})

    @pytest.mark.parametrize("label", BOUND_TABLES)
    def test_every_numeric_field_is_bounded(self, label):
        # a knob added without bounds fails here: each int or float field,
        # plain, optional or in a tuple, is in the table or named in EXEMPT
        cls, bounds, build = BOUND_TABLES[label]
        numeric = {f.name for f in dataclasses.fields(cls) if re.search(r"\b(int|float)\b", f.type)}
        exempt = {name for owner, name in EXEMPT if owner == label}
        assert numeric - exempt == set(bounds)
        for owner, name in NONE_ALLOWED:
            if owner == label:
                build(**{name: None})


# sha256 of config_resolved.json, recorded before it was written from dataclasses.asdict;
# re-recorded when closed_loop_speed_mps and divergence_margin_m left RunConfig, each the
# earlier file with those two keys deleted and dumped again
RESOLVED_DIGESTS = {
    "fsg-like-12ms": "0959b7cfd1ebca42f9ae8cd9d55c01e3d4e98b1bf50a7606e5896ca27b968540",
    "fsg-like-5ms": "f96b2ddc3d8b204a7df2e3c8f6b3c68e0cf6b0be82ea566482c32186675b4956",
    "modes-5ms": "8c7b0a789254769e1bed678a47601380c5c240d1d16e4f689960c4e7486ca6b8",
    "noise-free-circle": "1ea9ad3fe6dd7a7afc29c9de1cd279031255795036c90c64dab56b9e7e19669e",
    "overridden": "dddf87680b0ba4ca878bc0c558406a810b1e0058448b10fb9272961112290e97",
    "planning-15m": "74971e2a3a325ca1fadefffc1393fc01e6ab996acbb3adc081604a03088a7115",
}
# a config that sets a schedule, the prior weight and every module's overrides
OVERRIDDEN = {
    "name": "overridden",
    "track_spec": {"kind": "circle", "radius_m": 25.0, "cone_spacing_m": 3.0},
    "profiles": {"fusion": "noise_free:fusion", "lidar_only": "builtin:lidar_only", "camera_only": "builtin:camera_only"},
    "seed": 7,
    "mode_schedule": [{"time_s": 4.0, "fail": ["fusion"]}, {"time_s": 9.5, "restore": ["fusion"]}],
    "prior_weight": 58.0,
    "planner_limit_overrides": {"max_length_m": 20.0, "desired_edge_count": 12, "beam_width": None},
    "local_map_overrides": {"gate_distance": 2.5, "process_noise_rate": [0.03, 0.01]},
    "global_map_overrides": {"odometry_sigma_rates": [0.1, 0.1, 0.02], "max_iterations": 50, "lambda_down": 0.5},
}


class TestResolvedConfigBytes:
    @pytest.mark.parametrize("name", sorted(RESOLVED_DIGESTS))
    def test_config_resolved_digest(self, name, tmp_path):
        resolved = RunConfig.from_dict(OVERRIDDEN) if name == "overridden" else load_config(name)
        path = tmp_path / "config_resolved.json"
        dump_resolved(resolved, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RESOLVED_DIGESTS[name]
