"""Experiment configuration: a flat key = value text format, profile
overrides, and the resolved ExperimentConfig object.

Precedence, lowest to highest: built-in defaults, --profile overrides,
keys in the config file, CLI flags (--seed / --out / --threads).

Adding a key is one KEYS entry, whose dotted path (e.g. "train.hidden_size")
names the dataclass field its value fills: config_from_kv builds each section
from the keys under its path, and dump_config reads the same paths back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .attacks import AttackParams
from .features import NormalizationSpec
from .federated import METHODS, GateConfig, GateStrategy, InfluenceTable
from .model import TrainConfig
from .trace import ChannelConfig, ScenarioConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _scalar(conv: Callable[[str], Any], complaint: str) -> Callable[[str, str], Any]:
    def parse(key: str, text: str) -> Any:
        try:
            return conv(text)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{key}: {complaint} {text!r}") from exc

    return parse


def _list(conv: Callable[[str], Any]) -> Callable[[str, str], tuple]:
    def parse(key: str, text: str) -> tuple:
        try:
            return tuple(conv(s.strip()) for s in text.split(",") if s.strip())
        except ValueError as exc:
            raise ConfigError(f"{key}: bad list value in {text!r}") from exc

    return parse


_BOOLS = {"true": True, "1": True, "yes": True, "on": True, "false": False, "0": False, "no": False, "off": False}


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


_int = _scalar(int, "not an integer:")
_float = _scalar(_finite, "not a finite number:")
_bool = _scalar(lambda text: _BOOLS[text.lower()], "not a boolean:")
_strategy = _scalar(lambda text: GateStrategy(text.lower()), "unknown strategy")


def _str(key: str, text: str) -> str:
    return text


def _float_or_none(key: str, text: str) -> float | None:
    return _float(key, text) if text else None


class ConfigKey(NamedTuple):
    """One flat config key: its text default, the parser turning text into a
    value, and the dotted path of the ExperimentConfig field the value fills."""

    name: str
    default: str
    parse: Callable[[str, str], Any]
    path: str

    def get(self, cfg: "ExperimentConfig") -> Any:
        return attrgetter(self.path)(cfg)


def _key(name: str, default: str, parse: Callable[[str, str], Any], path: str | None = None) -> ConfigKey:
    return ConfigKey(name, default, parse, path or name)


#: every config key, in dump order
KEYS: tuple[ConfigKey, ...] = (
    _key("methods", ", ".join(METHODS), _list(str)),
    _key("penetrations", "0.25, 0.5, 0.75", _list(float)),
    _key("vehicle_counts", "4, 10, 20", _list(int)),
    _key("repeats", "50", _int),
    _key("master_seed", "42", _int),
    _key("out_dir", "results", _str),
    _key("region_side", "10000", _float, "scenario.region_side"),
    _key("dt", "1.0", _float, "scenario.dt"),
    _key("n_steps", "100", _int, "scenario.n_steps"),
    _key("v_max", "40", _float, "scenario.v_max"),
    _key("accel_sigma", "0.5", _float, "scenario.accel_sigma"),
    _key("tx_power_dbm", "20", _float, "scenario.channel.tx_power_dbm"),
    _key("path_loss_exponent", "2.0", _float, "scenario.channel.path_loss_exponent"),
    _key("reference_distance", "1.0", _float, "scenario.channel.reference_distance"),
    _key("shadowing_sigma", "2.0", _float, "scenario.channel.shadowing_sigma"),
    _key("rssi_min", "-100", _float, "norm.rssi_min"),
    _key("rssi_max", "-40", _float, "norm.rssi_max"),
    _key("hidden_size", "64", _int, "train.hidden_size"),
    _key("learning_rate", "1e-5", _float, "train.learning_rate"),
    _key("momentum", "0.5", _float, "train.momentum"),
    _key("batch_size", "128", _int, "train.batch_size"),
    _key("local_episodes", "10", _int, "train.local_episodes"),
    _key("global_rounds", "300", _int, "train.global_rounds"),
    # the dtype of local training; aggregation and evaluation stay float64
    _key("precision", "float64", _str, "train.precision"),
    _key("gate_strategy", "accuracy", _strategy, "gate.strategy"),
    _key("gate_threshold", "0.2", _float, "gate.threshold"),
    _key("influence_constant", "1.0", _float, "influence.constant"),
    _key("influence_constant_offset", "0.8", _float, "influence.constant_offset"),
    _key("influence_random", "1.0", _float, "influence.random"),
    _key("influence_random_offset", "0.8", _float, "influence.random_offset"),
    _key("influence_eventual_stop", "1.0", _float, "influence.eventual_stop"),
    # an empty fixed point means the region centre
    _key("attack_fixed_x", "", _float_or_none, "attack.fixed_x"),
    _key("attack_fixed_y", "", _float_or_none, "attack.fixed_y"),
    _key("attack_offset_x", "250", _float, "attack.offset_x"),
    _key("attack_offset_y", "-150", _float, "attack.offset_y"),
    _key("attack_random_offset_max", "300", _float, "attack.random_offset_max"),
    _key("attack_stop_probability", "0.3", _float, "attack.stop_probability"),
    _key("train_fraction", "0.8", _float),
    _key("judgment_threshold", "0.5", _float),
    _key("checkpoints", "false", _bool),
)

#: built-in defaults (full-scale protocol)
DEFAULTS: dict[str, str] = {key.name: key.default for key in KEYS}

#: profile overrides; "desk" is the CI-scale protocol
PROFILES: dict[str, dict[str, str]] = {
    "paper": {"precision": "float32"},
    "desk": {
        "vehicle_counts": "4",
        "global_rounds": "30",
        "repeats": "2",
        "n_steps": "64",
        "hidden_size": "32",
        # calibrated so 30 desk rounds land mid-descent, where the weighted
        # aggregation's ordering advantage over plain averaging is measurable
        "learning_rate": "0.0045",
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...]
    penetrations: tuple[float, ...]
    vehicle_counts: tuple[int, ...]
    repeats: int
    master_seed: int
    out_dir: str
    scenario: ScenarioConfig  # template; n_vehicles/penetration/seed set per cell
    attack: AttackParams
    norm: NormalizationSpec
    train: TrainConfig
    gate: GateConfig
    influence: InfluenceTable
    train_fraction: float = 0.8
    judgment_threshold: float = 0.5
    checkpoints: bool = False

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("methods: at least one method required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"methods: unknown method {m!r} (choose from {tuple(METHODS)})")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"methods: duplicate entries in {list(self.methods)}")
        if not self.penetrations:
            raise ConfigError("penetrations: at least one value required")
        for p in self.penetrations:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"penetrations: value {p} outside [0, 1]")
        # a run id prints its penetration with :g; two values it prints alike would share output files
        if len({f"{p:g}" for p in self.penetrations}) != len(self.penetrations):
            raise ConfigError(f"penetrations: duplicate entries in {list(self.penetrations)} (as run ids print them)")
        if not self.vehicle_counts:
            raise ConfigError("vehicle_counts: at least one value required")
        for n in self.vehicle_counts:
            if n < 2:
                raise ConfigError(f"vehicle_counts: value {n} below 2")
        if len(set(self.vehicle_counts)) != len(self.vehicle_counts):
            raise ConfigError(f"vehicle_counts: duplicate entries in {list(self.vehicle_counts)}")
        if self.repeats < 1:
            raise ConfigError(f"repeats: must be >= 1, got {self.repeats}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed: must be >= 0, got {self.master_seed}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction: must be in (0, 1), got {self.train_fraction}")
        if self.judgment_threshold <= 0:
            raise ConfigError(f"judgment_threshold: must be > 0, got {self.judgment_threshold}")


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{line_no}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _section(values: dict[str, Any], path: str) -> dict[str, Any]:
    """The values whose path names a field directly under `path` ("" for
    ExperimentConfig itself), keyed by field name."""
    return {p.rpartition(".")[2]: value for p, value in values.items() if p.rpartition(".")[0] == path}


def config_from_kv(kv_in: dict[str, str], profile: str | None = None) -> ExperimentConfig:
    """Resolve raw key/value strings (plus optional profile) to a validated
    ExperimentConfig. Unknown keys are errors."""
    for key in kv_in:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
    kv = dict(DEFAULTS)
    if profile is not None:
        if profile not in PROFILES:
            raise ConfigError(f"unknown profile: {profile!r} (choose from {sorted(PROFILES)})")
        kv.update(PROFILES[profile])
    kv.update(kv_in)
    values = {key.path: key.parse(key.name, kv[key.name]) for key in KEYS}

    try:
        channel = ChannelConfig(**_section(values, "scenario.channel"))
        scenario = ScenarioConfig(**_section(values, "scenario"), channel=channel)
        region = {"region_side": scenario.region_side, "v_max": scenario.v_max}
        return ExperimentConfig(
            **_section(values, ""),
            scenario=scenario,
            attack=AttackParams(**region, **_section(values, "attack")),
            norm=NormalizationSpec(**region, **_section(values, "norm")),
            train=TrainConfig(**_section(values, "train")),
            gate=GateConfig(**_section(values, "gate")),
            influence=InfluenceTable(**_section(values, "influence")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, profile: str | None = None) -> ExperimentConfig:
    """Read and resolve a config file. An empty file yields pure defaults."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_kv(parse_kv_text(text, source=str(path)), profile=profile)


def _format(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(_format(item) for item in value)
    return str(value)


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize a resolved config back to the flat text form; feeding the
    result to load_config reproduces an equal ExperimentConfig."""
    return "".join(f"{key.name} = {_format(key.get(cfg))}".rstrip() + "\n" for key in KEYS)
