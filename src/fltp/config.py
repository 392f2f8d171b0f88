"""Experiment configuration: a flat key = value text format, profile
overrides, and the resolved ExperimentConfig object.

Precedence, lowest to highest: the records' field defaults, --profile
overrides, keys in the config file, CLI flags (--seed / --out).

A key is its record field: KEYS is built from the fields of ExperimentConfig
and of its records, in declaration order, so adding a key means adding one
field with its default. A key's path is the field's dotted location (e.g.
"train.hidden_size"), its name is the field name behind its record's prefix
in _PREFIXES ("gate_threshold"), and its parser follows the field's type.
The fields in _UNKEYED have no key: each cell sets the scenario's vehicle
count, penetration and seed, and norm is derived. config_from_kv builds each
record from the keys set under its path, and dump_config reads the same
paths back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, get_type_hints

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


_float = _scalar(_finite, "not a finite number:")


class ConfigKey(NamedTuple):
    """One flat config key: the parser turning its text into a value, and the
    dotted path of the ExperimentConfig field the value fills. The field's own
    default is the key's default."""

    name: str
    parse: Callable[[str, str], Any]
    path: str

    def get(self, cfg: "ExperimentConfig") -> Any:
        return attrgetter(self.path)(cfg)


#: the parser of each field type a key can fill
_PARSERS: dict[Any, Callable[[str, str], Any]] = {
    int: _scalar(int, "not an integer:"),
    float: _float,
    bool: _scalar(lambda text: _BOOLS[text.lower()], "not a boolean:"),
    str: lambda key, text: text,
    GateStrategy: _scalar(lambda text: GateStrategy(text.lower()), "unknown strategy"),
    float | None: lambda key, text: _float(key, text) if text else None,  # an empty text is None
    tuple[str, ...]: _list(str),
    tuple[float, ...]: _list(float),
    tuple[int, ...]: _list(int),
}

#: the prefix of the keys filling each record's fields; any other record's keys are its bare field names
_PREFIXES = {"gate": "gate_", "influence": "influence_", "attack": "attack_"}

#: fields no key fills: each cell sets the scenario's first three, and norm is derived
_UNKEYED = {"scenario.n_vehicles", "scenario.penetration", "scenario.rng_seed", "norm"}


def _keys(record: type, path: str) -> Iterator[ConfigKey]:
    """A key per field of `record` (found at `path`, "" for the top level)
    and of its records, in declaration order; a field whose type no key
    parses raises TypeError naming its path."""
    types = get_type_hints(record)
    for f in fields(record):
        where = f"{path}.{f.name}" if path else f.name
        if where in _UNKEYED:
            continue
        if is_dataclass(kind := types[f.name]):
            yield from _keys(kind, where)
        elif kind in _PARSERS:
            yield ConfigKey(_PREFIXES.get(path, "") + f.name, _PARSERS[kind], where)
        else:
            raise TypeError(f"{where}: no config key parses a {kind}")


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


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The resolved experiment; its defaults, and its records', are the
    full-scale protocol. The scenario alone holds the region side and speed
    bound: the attacks fake claims within them, and norm is derived from
    them and the rssi band whenever a config is built or replaced."""

    methods: tuple[str, ...] = tuple(METHODS)
    penetrations: tuple[float, ...] = (0.25, 0.5, 0.75)
    vehicle_counts: tuple[int, ...] = (4, 10, 20)
    repeats: int = 50
    master_seed: int = 42
    out_dir: str = "results"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)  # template; n_vehicles/penetration/seed set per cell
    rssi_min: float = -100.0  # dBm the rssi feature maps to 0
    rssi_max: float = -40.0  # dBm the rssi feature maps to 1
    norm: NormalizationSpec = field(init=False)
    train: TrainConfig = field(default_factory=TrainConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    influence: InfluenceTable = field(default_factory=InfluenceTable)
    attack: AttackParams = field(default_factory=AttackParams)
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
        if not self.out_dir:
            raise ConfigError("out_dir: must not be empty")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction: must be in (0, 1), got {self.train_fraction}")
        if self.judgment_threshold <= 0:
            raise ConfigError(f"judgment_threshold: must be > 0, got {self.judgment_threshold}")
        try:
            norm = NormalizationSpec(self.scenario.region_side, self.scenario.v_max, self.rssi_min, self.rssi_max)
        except ValueError as exc:
            raise ConfigError(f"rssi_min, rssi_max: {exc}") from exc
        object.__setattr__(self, "norm", norm)


#: every config key, in dump order
KEYS: tuple[ConfigKey, ...] = tuple(_keys(ExperimentConfig, ""))


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


def config_from_kv(kv_in: dict[str, str], profile: str | None = None) -> ExperimentConfig:
    """Resolve raw key/value strings (plus optional profile) to a validated
    ExperimentConfig. Only the keys set are parsed; each record's defaults
    fill the rest. Unknown keys are errors."""
    if profile is not None and profile not in PROFILES:
        raise ConfigError(f"unknown profile: {profile!r} (choose from {sorted(PROFILES)})")
    kv = {**PROFILES.get(profile, {}), **kv_in}
    set_keys = [key for key in KEYS if key.name in kv]
    if unknown := kv.keys() - {key.name for key in set_keys}:
        raise ConfigError(f"unknown config key: {', '.join(sorted(unknown))}")
    values = {key.name: key.parse(key.name, kv[key.name]) for key in set_keys}

    def build(record: Callable[..., Any], path: str, **fixed: Any) -> Any:
        """`record` from the set keys whose path names a field directly under
        `path`; a rejection names those keys."""
        keys = [key for key in set_keys if key.path.rpartition(".")[0] == path]
        try:
            return record(**{key.path.rpartition(".")[2]: values[key.name] for key in keys}, **fixed)
        except ValueError as exc:
            raise ConfigError(f"{', '.join(key.name for key in keys)}: {exc}") from exc

    return ExperimentConfig(  # its own checks name their key
        **{key.name: values[key.name] for key in set_keys if "." not in key.path},
        scenario=build(ScenarioConfig, "scenario", channel=build(ChannelConfig, "scenario.channel")),
        train=build(TrainConfig, "train"),
        gate=build(GateConfig, "gate"),
        influence=build(InfluenceTable, "influence"),
        attack=build(AttackParams, "attack"),
    )


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
    result to load_config reproduces an equal ExperimentConfig. A value whose
    text holds a '#' or a line break, or has leading or trailing whitespace,
    would not read back; it raises ConfigError naming its key."""
    texts = {key.name: _format(key.get(cfg)) for key in KEYS}
    for name, text in texts.items():
        if "#" in text or len(text.splitlines()) > 1 or text != text.strip():
            raise ConfigError(f"{name}: {text!r} would not read back from a config file")
    return "".join(f"{name} = {text}".rstrip() + "\n" for name, text in texts.items())
