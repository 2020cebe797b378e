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

from .core import check_range, is_finite_number
from .global_map import GlobalMapConfig
from .local_map import LocalMapConfig
from .planner import PlannerConfig
from .simulate import SensorProfile, TrackSpec, TrackValidationError, default_profile, load_profile, noise_free_profile

SOURCE_MODES = ("fusion", "lidar_only", "camera_only")


def emitting_sources(alive: set[str]) -> list[str]:
    """The live pipelines whose cones reach the local map.

    While early fusion runs, the single-sensor pipelines stay silent.
    """
    if "fusion" in alive:
        return ["fusion"]
    return [m for m in ("lidar_only", "camera_only") if m in alive]


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
    force_mode: str | None = None  # fusion | lidar_only | camera_only | degraded
    mode_schedule: list[dict] = field(default_factory=list)
    plan_enabled: bool = True
    verbose_candidates: bool = False
    closed_loop: bool = False
    closed_loop_speed_mps: float = 5.0
    divergence_margin_m: float = 3.0
    local_map_overrides: dict = field(default_factory=dict)
    global_map_overrides: dict = field(default_factory=dict)
    planner_limit_overrides: dict = field(default_factory=dict)
    prior_weight: float | None = None

    def __post_init__(self) -> None:
        if self.track_spec is None and self.track_file is None:
            self.track_spec = TrackSpec()
        if not self.profiles:
            self.profiles = {m: default_profile(m) for m in SOURCE_MODES}
        if self.force_mode not in (None, "fusion", "lidar_only", "camera_only", "degraded"):
            raise ConfigError(f"unknown force_mode {self.force_mode!r}")
        for name in ("frame_rate_hz", "max_speed_mps", "lateral_accel_mps2", "closed_loop_speed_mps", "divergence_margin_m"):
            try:
                check_range(name, getattr(self, name), 0.0, math.inf, False)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        for mode, profile in self.profiles.items():
            if profile.mode != mode:
                raise ConfigError(f"the {mode} profile has mode {profile.mode!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
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
        """Perception pipelines up when the run starts, per ``force_mode``."""
        if self.force_mode is None:
            return set(SOURCE_MODES)
        if self.force_mode == "degraded":
            return {"lidar_only", "camera_only"}
        return {self.force_mode}

    def reachable_modes(self) -> set[str]:
        """Every mode whose profile a run can read.

        Fusion always supplies ego motion, and a pipeline that emits at the
        start or after any step of the failure schedule observes cones (the
        primary mode is among those at the start).
        """
        alive = self.initial_pipelines()
        needed = {"fusion"} | set(emitting_sources(alive))
        events = sorted(self.mode_schedule, key=lambda e: e["time_s"])
        for _, step in itertools.groupby(events, key=lambda e: e["time_s"]):
            for event in step:
                alive = (alive - set(event.get("fail", []))) | set(event.get("restore", []))
            needed |= set(emitting_sources(alive))
        return needed

    # -- derived module configs -------------------------------------------

    def primary_mode(self) -> str:
        """The mode whose profile sets the local map's gates."""
        if self.force_mode in (None, "fusion"):
            return "fusion"
        if self.force_mode == "degraded":
            return "lidar_only"
        return self.force_mode

    def local_map_config(self) -> LocalMapConfig:
        return LocalMapConfig.for_profile(
            self.profiles[self.primary_mode()], self.frame_rate_hz, **self.local_map_overrides
        )

    def global_map_config(self) -> GlobalMapConfig:
        return GlobalMapConfig(**self.global_map_overrides)

    def planner_config(self) -> PlannerConfig:
        config = PlannerConfig.with_limits(**self.planner_limit_overrides)
        if self.prior_weight is not None:
            prior = dataclasses.replace(config.prior, prior_weight=self.prior_weight)
            config = dataclasses.replace(config, prior=prior)
        return config

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "track_spec": dataclasses.asdict(self.track_spec) if self.track_spec else None,
            "track_file": self.track_file,
            "profiles": {mode: p.to_dict() for mode, p in self.profiles.items()},
            "max_speed_mps": self.max_speed_mps,
            "lateral_accel_mps2": self.lateral_accel_mps2,
            "frame_rate_hz": self.frame_rate_hz,
            "seed": self.seed,
            "force_mode": self.force_mode,
            "mode_schedule": self.mode_schedule,
            "plan_enabled": self.plan_enabled,
            "verbose_candidates": self.verbose_candidates,
            "closed_loop": self.closed_loop,
            "closed_loop_speed_mps": self.closed_loop_speed_mps,
            "divergence_margin_m": self.divergence_margin_m,
            "local_map_overrides": self.local_map_overrides,
            "global_map_overrides": self.global_map_overrides,
            "planner_limit_overrides": self.planner_limit_overrides,
            "prior_weight": self.prior_weight,
        }

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
                data["track_spec"] = TrackSpec.from_dict(data["track_spec"])
            except TypeError as exc:
                raise ConfigError(f"bad track_spec: {exc}") from exc
        profiles = {}
        for mode, value in (data.get("profiles") or {}).items():
            if mode not in SOURCE_MODES:
                raise ConfigError(f"unknown profile mode {mode!r}")
            try:
                profiles[mode] = resolve_profile(value) if isinstance(value, str) else SensorProfile.from_dict(value)
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
    except (ConfigError, TrackValidationError) as exc:
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
        try:
            return RunConfig.from_dict(json.loads(path.read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
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
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True))
