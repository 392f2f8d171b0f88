"""Message falsification: the five attacker behaviours applied to outgoing
claimed kinematics. Pure functions over explicit per-attacker memory."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import AttackerType, VehicleState

Vec2 = tuple[float, float]


@dataclass(frozen=True)
class AttackerMemory:
    """Per-attacker carry-over: the last truthful position (for eventual-stop
    replay). Initialize with the vehicle's spawn position."""

    prev_x: float
    prev_y: float


@dataclass
class AttackParams:
    region_side: float
    v_max: float
    fixed_point: Vec2  # constant attack: claimed position
    fixed_offset: Vec2 = (250.0, -150.0)  # constant-offset attack, m
    random_offset_max: float = 300.0  # random-offset attack bound, m per axis
    stop_probabilities: Vec2 = (0.7, 0.3)  # (truth, previous-position)

    def __post_init__(self) -> None:
        p1, p2 = self.stop_probabilities
        if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
            raise ValueError(f"stop probabilities must lie in [0, 1], got {self.stop_probabilities}")
        if abs(p1 + p2 - 1.0) > 1e-9:
            raise ValueError(f"stop probabilities must sum to 1, got {self.stop_probabilities}")
        if self.random_offset_max < 0:
            raise ValueError(f"random_offset_max must be >= 0, got {self.random_offset_max}")
        if self.region_side <= 0:
            raise ValueError(f"region_side must be > 0, got {self.region_side}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be > 0, got {self.v_max}")

    @classmethod
    def for_region(cls, region_side: float, v_max: float = 40.0, **overrides) -> "AttackParams":
        """Defaults for a given region: fixed point at the region centre."""
        overrides.setdefault("fixed_point", (region_side / 2.0, region_side / 2.0))
        return cls(region_side=region_side, v_max=v_max, **overrides)


def inject(
    attacker: AttackerType,
    truth: VehicleState,
    memory: AttackerMemory,
    params: AttackParams,
    rng: np.random.Generator,
) -> tuple[Vec2, Vec2, AttackerMemory]:
    """Produce (claimed_pos, claimed_spd, updated_memory) for one message.

    Claimed positions: Constant sends the fixed point; the offset attacks add
    the fixed offset, or a fresh uniform draw in [−δ_max, δ_max] per axis, to
    the truth (not clamped to the region); Random draws uniformly over
    [0, R] per axis; EventualStop reports truth with probability P1 and
    replays the stored position with P2.

    Claimed-speed policy per class: Constant and the stop branch of
    EventualStop claim (0, 0); Random claims a fresh uniform draw in
    [−v_max, v_max] per axis; offset attacks reuse the position offset scaled
    by v_max/R. Memory always advances to the current truth position.
    """
    speed_scale = params.v_max / params.region_side
    if attacker is AttackerType.GENUINE:
        pos = (truth.pos_x, truth.pos_y)
        spd = (truth.spd_x, truth.spd_y)
    elif attacker is AttackerType.CONSTANT:
        pos = params.fixed_point
        spd = (0.0, 0.0)
    elif attacker in (AttackerType.CONSTANT_OFFSET, AttackerType.RANDOM_OFFSET):
        if attacker is AttackerType.CONSTANT_OFFSET:
            dx, dy = params.fixed_offset
        else:
            dx, dy = map(float, rng.uniform(-params.random_offset_max, params.random_offset_max, size=2))
        pos = (truth.pos_x + dx, truth.pos_y + dy)
        spd = (truth.spd_x + dx * speed_scale, truth.spd_y + dy * speed_scale)
    elif attacker is AttackerType.RANDOM:
        x, y = rng.uniform(0.0, params.region_side, size=2)
        sx, sy = rng.uniform(-params.v_max, params.v_max, size=2)
        pos = (float(x), float(y))
        spd = (float(sx), float(sy))
    elif attacker is AttackerType.EVENTUAL_STOP:
        if rng.random() < params.stop_probabilities[1]:
            pos = (memory.prev_x, memory.prev_y)
            spd = (0.0, 0.0)
        else:
            pos = (truth.pos_x, truth.pos_y)
            spd = (truth.spd_x, truth.spd_y)
    else:
        raise ValueError(f"unknown attacker type: {attacker!r}")
    return pos, spd, AttackerMemory(truth.pos_x, truth.pos_y)
