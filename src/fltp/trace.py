"""Ground-truth vehicle kinematics, the wireless channel, synthetic scenario
generation, and VeReMi-style reception-log ingestion."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Mapping

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


@dataclass(frozen=True)
class VehicleState:
    """Ground-truth kinematic state of one vehicle at one time step."""

    vehicle_id: int
    t: int
    pos_x: float
    pos_y: float
    spd_x: float
    spd_y: float

    @property
    def pos(self) -> np.ndarray:
        return np.array([self.pos_x, self.pos_y])

    @property
    def spd(self) -> np.ndarray:
        return np.array([self.spd_x, self.spd_y])


@dataclass(frozen=True)
class Bsm:
    """One basic safety message as received: claimed kinematics plus the
    physical-layer observables (RSSI, timing) and the ground-truth sender
    class used for supervision."""

    sender_id: int
    step: int
    t_snd: float
    t_rev: float
    claimed_pos_x: float
    claimed_pos_y: float
    claimed_spd_x: float
    claimed_spd_y: float
    rssi: float
    truth_attacker: AttackerType


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
    """Generated ground truth: per-step states plus the fixed attacker map."""

    config: ScenarioConfig
    attacker_types: dict[int, AttackerType]
    states: list[list[VehicleState]]  # states[step][vehicle_id]

    def vehicle_track(self, vehicle_id: int) -> list[VehicleState]:
        return [row[vehicle_id] for row in self.states]


def synth_rssi(distance: float, channel: ChannelConfig, rng: np.random.Generator) -> float:
    """Log-distance path-loss RSSI in dBm with Gaussian shadowing.

    rssi = tx − 10·n·log10(d/d0) + N(0, σ); distances below the reference
    distance are clamped to it.
    """
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    d = max(distance, channel.reference_distance)
    path_loss = 10.0 * channel.path_loss_exponent * math.log10(d / channel.reference_distance)
    return channel.tx_power_dbm - path_loss + rng.normal(0.0, channel.shadowing_sigma)


def delivery_time(t_snd: float, distance: float, spd_msg: float = SPEED_OF_LIGHT) -> float:
    """Reception timestamp for a message sent at t_snd over the given distance."""
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    if spd_msg <= 0:
        raise ValueError(f"message speed must be > 0, got {spd_msg}")
    return t_snd + distance / spd_msg


def step_kinematics(state: VehicleState, config: ScenarioConfig, rng: np.random.Generator) -> VehicleState:
    """Advance one vehicle by one step: constant velocity plus acceleration
    noise, speed clamped to ±v_max, position clamped to [0, R] with the
    velocity component reflected at the boundary."""
    ax, ay = rng.normal(0.0, config.accel_sigma, size=2)
    sx = min(max(state.spd_x + ax * config.dt, -config.v_max), config.v_max)
    sy = min(max(state.spd_y + ay * config.dt, -config.v_max), config.v_max)
    px = state.pos_x + sx * config.dt
    py = state.pos_y + sy * config.dt
    r = config.region_side
    if px < 0.0:
        px, sx = 0.0, -sx
    elif px > r:
        px, sx = r, -sx
    if py < 0.0:
        py, sy = 0.0, -sy
    elif py > r:
        py, sy = r, -sy
    return VehicleState(state.vehicle_id, state.t + 1, px, py, sx, sy)


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

    current: list[VehicleState] = []
    for v in range(n):
        px, py = rng.uniform(0.0, config.region_side, size=2)
        sx, sy = rng.uniform(-config.v_max, config.v_max, size=2)
        current.append(VehicleState(v, 0, float(px), float(py), float(sx), float(sy)))

    types = {v: AttackerType.GENUINE for v in range(n)}
    k = attacker_count(config.penetration, n)
    if k:
        chosen = sorted(int(v) for v in rng.choice(np.arange(1, n), size=k, replace=False))
        for idx, v in enumerate(chosen):
            types[v] = ATTACK_CLASSES[idx % len(ATTACK_CLASSES)]

    rows = [current]
    for _ in range(1, config.n_steps):
        current = [step_kinematics(s, config, rng) for s in current]
        rows.append(current)
    return Scenario(config=config, attacker_types=types, states=rows)


def _require(record: dict, key: str, path: Path, line_no: int):
    if key not in record:
        raise IngestError(f"{path}:{line_no}: missing field {key!r}")
    return record[key]


def ingest_veremi(
    log_path: str | Path,
    ground_truth_path: str | Path,
    *,
    dt: float = 1.0,
    attacker_code_map: Mapping[int, AttackerType] | None = None,
) -> tuple[list[Bsm], list[VehicleState]]:
    """Read a JSON-Lines reception log plus a ground-truth file.

    Log records with type 3 become Bsm entries (z components of pos/spd are
    dropped); records with type 2 are the receiving vehicle's own GPS track
    and become VehicleState entries; other type codes are skipped. Steps are
    derived as round(time / dt).

    Raises IngestError with the file name and line number for unparseable or
    inconsistent lines, including senders absent from the ground truth and
    attackerType codes absent from the mapping.
    """
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
            sender = int(_require(rec, "sender", ground_truth_path, line_no))
            truth_codes[sender] = int(_require(rec, "attackerType", ground_truth_path, line_no))

    messages: list[Bsm] = []
    ego_states: list[VehicleState] = []
    with open(log_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{log_path}:{line_no}: {exc}") from exc
            rec_type = int(_require(rec, "type", log_path, line_no))
            if rec_type == LOG_TYPE_GPS:
                pos = _require(rec, "pos", log_path, line_no)
                spd = _require(rec, "spd", log_path, line_no)
                t_rcv = float(_require(rec, "rcvTime", log_path, line_no))
                ego_states.append(
                    VehicleState(
                        vehicle_id=int(rec.get("sender", -1)),
                        t=round(t_rcv / dt),
                        pos_x=float(pos[0]),
                        pos_y=float(pos[1]),
                        spd_x=float(spd[0]),
                        spd_y=float(spd[1]),
                    )
                )
            elif rec_type == LOG_TYPE_BSM:
                sender = int(_require(rec, "sender", log_path, line_no))
                if sender not in truth_codes:
                    raise IngestError(f"{log_path}:{line_no}: sender {sender} missing from ground truth")
                code = truth_codes[sender]
                if code not in code_map:
                    raise IngestError(f"{log_path}:{line_no}: unknown attackerType code {code} for sender {sender}")
                pos = _require(rec, "pos", log_path, line_no)
                spd = _require(rec, "spd", log_path, line_no)
                t_snd = float(_require(rec, "sendTime", log_path, line_no))
                messages.append(
                    Bsm(
                        sender_id=sender,
                        step=round(t_snd / dt),
                        t_snd=t_snd,
                        t_rev=float(_require(rec, "rcvTime", log_path, line_no)),
                        claimed_pos_x=float(pos[0]),
                        claimed_pos_y=float(pos[1]),
                        claimed_spd_x=float(spd[0]),
                        claimed_spd_y=float(spd[1]),
                        rssi=float(_require(rec, "RSSI", log_path, line_no)),
                        truth_attacker=code_map[code],
                    )
                )
    return messages, ego_states
