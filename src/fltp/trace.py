"""Ground-truth vehicle kinematics, the wireless channel, synthetic scenario
generation, and VeReMi-style reception-log ingestion."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, default message propagation speed

# reception-log record kinds (VeReMi convention)
LOG_TYPE_GPS = 2
LOG_TYPE_BSM = 3


class AttackerType(IntEnum):
    """Sender behaviour classes. The integer value doubles as the regression
    target for the attack-detection output head."""

    GENUINE = 0
    CONSTANT = 1
    CONSTANT_OFFSET = 2
    RANDOM = 3
    RANDOM_OFFSET = 4
    EVENTUAL_STOP = 5


#: attack classes in code order, excluding GENUINE
ATTACK_CLASSES: tuple[AttackerType, ...] = (
    AttackerType.CONSTANT,
    AttackerType.CONSTANT_OFFSET,
    AttackerType.RANDOM,
    AttackerType.RANDOM_OFFSET,
    AttackerType.EVENTUAL_STOP,
)

#: default mapping from on-disk attackerType codes to classes
DEFAULT_ATTACKER_CODE_MAP: Mapping[int, AttackerType] = {
    0: AttackerType.GENUINE,
    1: AttackerType.CONSTANT,
    2: AttackerType.CONSTANT_OFFSET,
    4: AttackerType.RANDOM,
    8: AttackerType.RANDOM_OFFSET,
    16: AttackerType.EVENTUAL_STOP,
}


class IngestError(ValueError):
    """Raised for unreadable or inconsistent reception-log input."""


@dataclass(frozen=True, eq=False)
class Messages:
    """A received stream of basic safety messages as columns, one row per
    message: the claimed kinematics plus the physical-layer observables
    (RSSI, timing) and the ground-truth sender class used for supervision.

    sender_id, step and truth_attacker are (L,) int64; t_snd and t_rev are
    (L,) float; claims is (L, 5) = claimed pos_x, pos_y, spd_x, spd_y and
    the RSSI.
    """

    sender_id: np.ndarray
    step: np.ndarray
    t_snd: np.ndarray
    t_rev: np.ndarray
    claims: np.ndarray
    truth_attacker: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.step)
        columns = (self.sender_id, self.step, self.t_snd, self.t_rev, self.truth_attacker)
        if any(c.shape != (n,) for c in columns) or self.claims.shape != (n, 5):
            raise ValueError(f"message columns disagree on length {n}")

    def __len__(self) -> int:
        return len(self.step)


@dataclass
class ChannelConfig:
    tx_power_dbm: float = 20.0
    path_loss_exponent: float = 2.0
    reference_distance: float = 1.0  # m
    shadowing_sigma: float = 2.0  # dB

    def validate(self) -> None:
        if self.reference_distance <= 0:
            raise ValueError(f"reference_distance must be > 0, got {self.reference_distance}")
        if self.path_loss_exponent <= 0:
            raise ValueError(f"path_loss_exponent must be > 0, got {self.path_loss_exponent}")
        if self.shadowing_sigma < 0:
            raise ValueError(f"shadowing_sigma must be >= 0, got {self.shadowing_sigma}")


@dataclass
class ScenarioConfig:
    """Knobs for one synthetic traffic scenario."""

    n_vehicles: int = 4
    penetration: float = 0.5  # attacker fraction among non-ego vehicles
    region_side: float = 10_000.0  # m, square region [0, R]^2
    dt: float = 1.0  # s per step
    n_steps: int = 100
    v_max: float = 40.0  # m/s speed clamp per axis
    accel_sigma: float = 0.5  # m/s^2 Gaussian acceleration noise
    rng_seed: int = 0
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def validate(self) -> None:
        if self.n_vehicles < 2:
            raise ValueError(f"n_vehicles must be >= 2, got {self.n_vehicles}")
        if not 0.0 <= self.penetration <= 1.0:
            raise ValueError(f"penetration must be in [0, 1], got {self.penetration}")
        if self.region_side <= 0:
            raise ValueError(f"region_side must be > 0, got {self.region_side}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be > 0, got {self.v_max}")
        if self.accel_sigma < 0:
            raise ValueError(f"accel_sigma must be >= 0, got {self.accel_sigma}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        self.channel.validate()


@dataclass
class Scenario:
    """Generated ground truth plus the fixed attacker map. kinematics is
    (steps, n_vehicles, 4) = pos_x, pos_y, spd_x, spd_y per step and vehicle."""

    config: ScenarioConfig
    attacker_types: dict[int, AttackerType]
    kinematics: np.ndarray

    def vehicle_track(self, vehicle_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Steps (L,) int64 and kinematics (L, 4) of one vehicle; the
        kinematics are a view into self.kinematics."""
        return np.arange(len(self.kinematics), dtype=np.int64), self.kinematics[:, vehicle_id]


def _check_distance(distance: float | np.ndarray) -> None:
    if np.any(np.asarray(distance) < 0):
        raise ValueError(f"distance must be >= 0, got {np.min(distance)}")


def synth_rssi(
    distance: float | np.ndarray,
    channel: ChannelConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
    rows: np.ndarray | None = None,
) -> float | np.ndarray:
    """Log-distance path-loss RSSI in dBm with Gaussian shadowing.

    rssi = tx − 10·n·log10(d/d0) + N(0, σ); distances below the reference
    distance are clamped to it. A float gives a float; an array gives an
    array, with its shadowing drawn in one call (the same values, in order,
    as one scalar call per element). A sequence of generators, one per row
    of a 2-D distance array, draws each row's shadowing from its own
    generator in one call. With rows, output row k takes the path loss of
    distance row rows[k], so links that share a distance share its
    logarithms; the shadowing is drawn per output row.
    """
    _check_distance(distance)
    d = np.asarray(distance, dtype=float)
    ratio = np.maximum(d, channel.reference_distance) / channel.reference_distance
    # math.log10 per element: np.log10 differs from it in the last bit on about
    # 3 % of inputs, which would change every RSSI feature downstream
    log_ratio = np.array([math.log10(x) for x in ratio.ravel().tolist()]).reshape(d.shape)
    path_loss = 10.0 * channel.path_loss_exponent * log_ratio
    if rows is not None:
        path_loss = path_loss[rows]
    if isinstance(rng, np.random.Generator):
        shadowing = rng.normal(0.0, channel.shadowing_sigma, size=path_loss.shape or None)
    else:
        if path_loss.ndim != 2 or len(rng) != len(path_loss):
            raise ValueError(f"need one generator per row of a 2-D distance array, got {len(rng)} for {path_loss.shape}")
        shadowing = np.stack([g.normal(0.0, channel.shadowing_sigma, size=path_loss.shape[1]) for g in rng])
    rssi = channel.tx_power_dbm - path_loss + shadowing
    return float(rssi) if rssi.ndim == 0 else rssi


def delivery_time(
    t_snd: float | np.ndarray, distance: float | np.ndarray, spd_msg: float = SPEED_OF_LIGHT
) -> float | np.ndarray:
    """Reception timestamp for a message sent at t_snd over the given
    distance; either argument may be an array."""
    _check_distance(distance)
    if spd_msg <= 0:
        raise ValueError(f"message speed must be > 0, got {spd_msg}")
    return t_snd + distance / spd_msg


def step_kinematics(kinematics: np.ndarray, config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Advance every vehicle of an (n, 4) kinematics array by one step:
    constant velocity plus acceleration noise, speed clamped to ±v_max,
    position clamped to [0, R] with the velocity component reflected at the
    boundary. The noise is one (n, 2) draw, vehicle by vehicle."""
    accel = rng.normal(0.0, config.accel_sigma, size=(len(kinematics), 2))
    spd = np.minimum(np.maximum(kinematics[:, 2:] + accel * config.dt, -config.v_max), config.v_max)
    pos = kinematics[:, :2] + spd * config.dt
    low = pos < 0.0
    high = pos > config.region_side
    out = np.empty_like(kinematics)
    out[:, :2] = np.where(low, 0.0, np.where(high, config.region_side, pos))
    out[:, 2:] = np.where(low | high, -spd, spd)
    return out


def attacker_count(penetration: float, n_vehicles: int) -> int:
    """Number of attackers: ceil(penetration · (n_vehicles − 1)), guarded
    against float fuzz in the product."""
    k = math.ceil(penetration * (n_vehicles - 1) - 1e-9)
    return min(max(k, 0), n_vehicles - 1)


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Simulate ground-truth tracks for all vehicles and assign attacker types.

    Vehicle 0 is always genuine. ceil(penetration·(n−1)) of the remaining
    vehicles are chosen at random and given attack classes round-robin in
    ascending vehicle-id order. Deterministic given config.rng_seed.
    """
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    n = config.n_vehicles
    r, v_max = config.region_side, config.v_max

    kinematics = np.empty((config.n_steps, n, 4))
    kinematics[0] = rng.uniform((0.0, 0.0, -v_max, -v_max), (r, r, v_max, v_max), size=(n, 4))

    types = {v: AttackerType.GENUINE for v in range(n)}
    k = attacker_count(config.penetration, n)
    if k:
        chosen = sorted(int(v) for v in rng.choice(np.arange(1, n), size=k, replace=False))
        for idx, v in enumerate(chosen):
            types[v] = ATTACK_CLASSES[idx % len(ATTACK_CLASSES)]

    for step in range(1, config.n_steps):
        kinematics[step] = step_kinematics(kinematics[step - 1], config, rng)
    return Scenario(config=config, attacker_types=types, kinematics=kinematics)


def _xy(value) -> tuple[float, float]:
    """The x and y entries of a pos/spd field; z is dropped."""
    return float(value[0]), float(value[1])


def _number(record: dict, key: str, path: Path, line_no: int, conv: Callable = float):
    """conv(record[key]), which must hold only finite numbers; a missing,
    non-numeric or non-finite field raises IngestError naming path:line."""
    if key not in record:
        raise IngestError(f"{path}:{line_no}: missing field {key!r}")
    try:
        if np.isfinite(value := conv(record[key])).all():
            return value
    except (TypeError, ValueError, OverflowError, LookupError):
        pass
    raise IngestError(f"{path}:{line_no}: field {key!r} is not a finite number: {record[key]!r}")


def _step_of(t: float, dt: float) -> int:
    """The step of time t: t / dt rounded half up (Python's round would take
    k + 0.5 to the even neighbour, so two records would share a step)."""
    return math.floor(t / dt + 0.5)


def ingest_veremi(
    log_path: str | Path,
    ground_truth_path: str | Path,
    *,
    dt: float = 1.0,
    attacker_code_map: Mapping[int, AttackerType] | None = None,
) -> tuple[Messages, tuple[np.ndarray, np.ndarray]]:
    """Read a JSON-Lines reception log plus a ground-truth file.

    Log records with type 3 become the rows of the returned Messages (z
    components of pos/spd are dropped); records with type 2 are the receiving
    vehicle's own GPS track, returned as steps (L,) int64 and kinematics
    (L, 4) = pos_x, pos_y, spd_x, spd_y; other type codes are skipped. Steps
    are derived as floor(time / dt + 0.5): halves round up, so a log sampled
    at k + 0.5 keeps one step per record.

    Raises ValueError unless dt is finite and > 0, and IngestError with the
    file name and line number for unparseable or inconsistent lines,
    including missing, non-numeric or non-finite fields, senders absent from
    the ground truth and attackerType codes absent from the mapping.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    log_path = Path(log_path)
    ground_truth_path = Path(ground_truth_path)
    code_map = dict(DEFAULT_ATTACKER_CODE_MAP if attacker_code_map is None else attacker_code_map)

    truth_codes: dict[int, int] = {}
    with open(ground_truth_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{ground_truth_path}:{line_no}: {exc}") from exc
            sender = _number(rec, "sender", ground_truth_path, line_no, int)
            truth_codes[sender] = _number(rec, "attackerType", ground_truth_path, line_no, int)

    ids: list[tuple[int, int, int]] = []  # sender, step, attacker class
    times: list[tuple[float, float]] = []  # sent, received
    claims: list[tuple[float, ...]] = []
    ego_steps: list[int] = []
    ego_kinematics: list[tuple[float, ...]] = []
    with open(log_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{log_path}:{line_no}: {exc}") from exc
            rec_type = _number(rec, "type", log_path, line_no, int)
            if rec_type == LOG_TYPE_GPS:
                pos = _number(rec, "pos", log_path, line_no, _xy)
                spd = _number(rec, "spd", log_path, line_no, _xy)
                t_rcv = _number(rec, "rcvTime", log_path, line_no)
                ego_steps.append(_step_of(t_rcv, dt))
                ego_kinematics.append((*pos, *spd))
            elif rec_type == LOG_TYPE_BSM:
                sender = _number(rec, "sender", log_path, line_no, int)
                if sender not in truth_codes:
                    raise IngestError(f"{log_path}:{line_no}: sender {sender} missing from ground truth")
                code = truth_codes[sender]
                if code not in code_map:
                    raise IngestError(f"{log_path}:{line_no}: unknown attackerType code {code} for sender {sender}")
                pos = _number(rec, "pos", log_path, line_no, _xy)
                spd = _number(rec, "spd", log_path, line_no, _xy)
                t_snd = _number(rec, "sendTime", log_path, line_no)
                t_rev = _number(rec, "rcvTime", log_path, line_no)
                rssi = _number(rec, "RSSI", log_path, line_no)
                ids.append((sender, _step_of(t_snd, dt), int(code_map[code])))
                times.append((t_snd, t_rev))
                claims.append((*pos, *spd, rssi))
    id_cols = np.array(ids, dtype=np.int64).reshape(-1, 3)
    time_cols = np.array(times, dtype=float).reshape(-1, 2)
    messages = Messages(
        sender_id=id_cols[:, 0],
        step=id_cols[:, 1],
        t_snd=time_cols[:, 0],
        t_rev=time_cols[:, 1],
        claims=np.array(claims, dtype=float).reshape(-1, 5),
        truth_attacker=id_cols[:, 2],
    )
    ego_track = np.array(ego_steps, dtype=np.int64), np.array(ego_kinematics, dtype=float).reshape(-1, 4)
    return messages, ego_track
