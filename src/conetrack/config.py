"""Run configuration: JSON schema, defaults, and builtin reference scenarios.

A run config is one JSON document selecting a track (inline spec or file),
sensor profiles per pipeline, the speed profile, seeds, and per-module
parameter overrides. Every resolved default is dumped into the run directory
so runs are self-describing.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .core import Bound, SensorSource, check_bounds, is_finite_number
from .global_map import GlobalMapConfig
from .local_map import MODE_SOURCES, LocalMapConfig, MapMode, mode_of
from .planner import PlannerConfig, SearchLimits
from .simulate import SensorProfile, TrackSpec, default_profile, load_profile, noise_free_profile, validate_spec

SOURCE_MODES = tuple(source.value for source in SensorSource)


def mode_pipelines(mode: MapMode | None) -> list[str]:
    """The pipelines whose cones reach the local map in ``mode``, in association order (none for None)."""
    return [source.value for source, _ in MODE_SOURCES[mode]] if mode else []


def emitting_sources(alive: set[str]) -> list[str]:
    """The live pipelines whose cones reach the local map: those of the mode they select."""
    return mode_pipelines(mode_of(frozenset(SensorSource(name) for name in alive)))


_RUN_BOUNDS = {
    "max_speed_mps": Bound(0.0, low_ok=False),
    "lateral_accel_mps2": Bound(0.0, low_ok=False),
    "frame_rate_hz": Bound(0.0, low_ok=False),
    "seed": Bound(0, integer=True),
}


# fields JSON can give any type, each with the type it must have
_FIELD_TYPES = {
    "name": (str, "a string"),
    "plan_enabled": (bool, "true or false"),
    "verbose_candidates": (bool, "true or false"),
    "closed_loop": (bool, "true or false"),
    "local_map_overrides": (dict, "an object"),
    "global_map_overrides": (dict, "an object"),
    "planner_limit_overrides": (dict, "an object"),
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


class RunFailure(RuntimeError):
    """A started run could not complete (CLI exit code 1)."""


@dataclass
class RunConfig:
    name: str = "run"
    track_spec: TrackSpec | None = None
    track_file: str | None = None
    profiles: dict[str, SensorProfile] = field(default_factory=dict)
    max_speed_mps: float = 5.0
    lateral_accel_mps2: float = 6.0
    frame_rate_hz: float = 10.0
    seed: int = 0
    force_mode: str | None = None  # a MapMode value
    mode_schedule: list[dict] = field(default_factory=list)
    plan_enabled: bool = True
    verbose_candidates: bool = False
    closed_loop: bool = False
    local_map_overrides: dict = field(default_factory=dict)
    global_map_overrides: dict = field(default_factory=dict)
    planner_limit_overrides: dict = field(default_factory=dict)
    prior_weight: float | None = None

    def __post_init__(self) -> None:
        if self.track_spec is None and self.track_file is None:
            self.track_spec = TrackSpec()
        if not self.profiles:
            self.profiles = {m: default_profile(m) for m in SOURCE_MODES}
        if self.force_mode not in (None, *(mode.value for mode in MapMode)):
            raise ConfigError(f"unknown force_mode {self.force_mode!r}")
        if not (self.track_file is None or isinstance(self.track_file, str)):
            raise ConfigError(f"track_file must be a path string or null, got {self.track_file!r}")
        for name, (kind, described) in _FIELD_TYPES.items():
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be {described}, got {getattr(self, name)!r}")
        try:
            check_bounds("run", self, _RUN_BOUNDS)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for mode, profile in self.profiles.items():
            if profile.mode != mode:
                raise ConfigError(f"the {mode} profile has mode {profile.mode!r}")
        if not isinstance(self.mode_schedule, list):
            raise ConfigError(f"mode schedule must be a list of events, got {self.mode_schedule!r}")
        for event in self.mode_schedule:
            if not isinstance(event, dict) or "time_s" not in event or not ({"fail", "restore"} & set(event)):
                raise ConfigError(f"schedule event needs time_s and fail/restore: {event}")
            if not is_finite_number(event["time_s"]):
                raise ConfigError(f"schedule event time_s must be a finite number: {event}")
            for key in ("fail", "restore"):
                if not isinstance(event.get(key, []), list):
                    raise ConfigError(f"schedule event {key} must be a list of pipelines: {event}")
                for source in event.get(key, []):
                    if source not in SOURCE_MODES:
                        raise ConfigError(f"unknown pipeline {source!r} in mode schedule")
        missing = sorted(self.reachable_modes() - set(self.profiles))
        if missing:
            raise ConfigError(f"profiles lack {missing}, which this run can use (fusion also gives ego motion)")
        try:  # an override the module configs do not take fails here, not mid-run
            self.local_map_config(), self.global_map_config(), self.planner_config()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad module override: {exc}") from exc

    # -- pipelines ----------------------------------------------------------

    def initial_pipelines(self) -> set[str]:
        """Perception pipelines up when the run starts: all of them, or those of ``force_mode``."""
        return set(mode_pipelines(MapMode(self.force_mode)) if self.force_mode else SOURCE_MODES)

    def source_timeline(self) -> list[tuple[float, list[str]]]:
        """The emitting pipelines over the failure schedule, as ``(time_s, pipelines)`` entries.

        The first entry starts at ``-inf``; then each time the schedule names
        gets one entry, after all of its events. A frame at time ``t`` reads
        the last entry that starts at or before ``t``.
        """
        alive = self.initial_pipelines()
        timeline = [(-math.inf, emitting_sources(alive))]
        events = sorted(self.mode_schedule, key=lambda e: e["time_s"])
        for time_s, step in itertools.groupby(events, key=lambda e: e["time_s"]):
            for event in step:
                alive = (alive - set(event.get("fail", []))) | set(event.get("restore", []))
            timeline.append((time_s, emitting_sources(alive)))
        return timeline

    def reachable_modes(self) -> set[str]:
        """Every mode whose profile a run can read.

        Fusion always supplies ego motion, and a pipeline that emits at any
        point of :meth:`source_timeline` observes cones.
        """
        return {"fusion"}.union(*(pipelines for _, pipelines in self.source_timeline()))

    # -- derived module configs -------------------------------------------

    def primary_mode(self) -> str:
        """The mode whose profile sets the local map's gates: the first pipeline of ``force_mode``, or fusion."""
        return mode_pipelines(MapMode(self.force_mode or "fusion"))[0]

    def local_map_config(self) -> LocalMapConfig:
        return LocalMapConfig.for_profile(
            self.profiles[self.primary_mode()], self.frame_rate_hz, **self.local_map_overrides
        )

    def global_map_config(self) -> GlobalMapConfig:
        return GlobalMapConfig(**self.global_map_overrides)

    def planner_config(self) -> PlannerConfig:
        limits = SearchLimits(**self.planner_limit_overrides)
        return PlannerConfig(limits) if self.prior_weight is None else PlannerConfig(limits, self.prior_weight)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if data.get("track_spec") is not None:
            try:
                data["track_spec"] = TrackSpec(**data["track_spec"])
                validate_spec(data["track_spec"])  # rejected here, so the error names the config file
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad track_spec: {exc}") from exc
        given = data.get("profiles") or {}
        if not isinstance(given, dict):
            raise ConfigError(f"profiles must be an object of mode: profile, got {given!r}")
        profiles = {}
        for mode, value in given.items():
            if mode not in SOURCE_MODES:
                raise ConfigError(f"unknown profile mode {mode!r}")
            try:
                profiles[mode] = resolve_profile(value) if isinstance(value, str) else SensorProfile(**value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad profile for {mode}: {exc}") from exc
        data["profiles"] = profiles
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def read_input(load, path):
    """``load(path)`` for an input file named by the user.

    A missing, unreadable or malformed file is a configuration error (exit
    code 2), not a run failure, and its message names the file.
    """
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # a malformed record, field or schema
        raise ConfigError(f"{path}: {exc}") from exc


def resolve_profile(ref: str) -> SensorProfile:
    """Resolve a profile reference: builtin:<name>, noise_free:<mode>, or a path."""
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in SOURCE_MODES:
            raise ConfigError(f"no builtin profile {name!r}")
        return default_profile(name)
    if ref.startswith("noise_free:"):
        mode = ref.split(":", 1)[1]
        if mode not in SOURCE_MODES:
            raise ConfigError(f"no noise-free profile for mode {mode!r}")
        return noise_free_profile(mode)
    try:
        return read_input(load_profile, ref)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a field the profile does not take, or one out of range
        raise ConfigError(f"{ref}: {exc}") from exc


def load_config(ref: str | Path) -> RunConfig:
    """Load a run config from a file path or a builtin scenario name."""
    path = Path(ref)
    if path.exists():
        return read_input(lambda p: RunConfig.from_dict(json.loads(p.read_text(encoding="utf-8"))), path)
    builtin = builtin_config_names()
    name = str(ref)
    if name in builtin:
        data = json.loads(resources.files("conetrack.configs").joinpath(f"{name}.json").read_text())
        return RunConfig.from_dict(data)
    raise ConfigError(f"no such config file or builtin scenario: {ref} (builtins: {sorted(builtin)})")


def builtin_config_names() -> set[str]:
    out = set()
    for entry in resources.files("conetrack.configs").iterdir():
        if entry.name.endswith(".json"):
            out.add(entry.name[: -len(".json")])
    return out


def dump_resolved(config: RunConfig, path: Path | str) -> None:
    Path(path).write_text(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True))
