"""Message falsification: the five attacker behaviours applied to a
sender's outgoing claimed kinematics, one call per sender track."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import AttackerType


@dataclass
class AttackParams:
    region_side: float
    v_max: float
    fixed_x: float | None = None  # constant attack: claimed position; None is the region centre
    fixed_y: float | None = None
    offset_x: float = 250.0  # constant-offset attack, m
    offset_y: float = -150.0
    random_offset_max: float = 300.0  # random-offset attack bound, m per axis
    stop_probability: float = 0.3  # eventual stop: replay the previous position

    def __post_init__(self) -> None:
        if not 0.0 <= self.stop_probability <= 1.0:
            raise ValueError(f"stop probability must lie in [0, 1], got {self.stop_probability}")
        if self.random_offset_max < 0:
            raise ValueError(f"random_offset_max must be >= 0, got {self.random_offset_max}")
        if self.region_side <= 0:
            raise ValueError(f"region_side must be > 0, got {self.region_side}")
        if self.v_max <= 0:
            raise ValueError(f"v_max must be > 0, got {self.v_max}")


def inject(
    attacker: AttackerType,
    truth: np.ndarray,
    params: AttackParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Claimed kinematics of one sender's whole track: truth is (L, 4) =
    pos_x, pos_y, spd_x, spd_y per step, and so is the result.

    Claimed positions: Constant sends the fixed point, the region centre on
    an axis left None; the offset attacks add the fixed offset, or a fresh
    uniform draw in [−δ_max, δ_max] per axis and step, to the truth (not
    clamped to the region); Random draws uniformly over [0, R] per axis;
    EventualStop replays the previous step's true position with the stop
    probability (step 0 replays its own) and reports truth otherwise.

    Claimed-speed policy per class: Constant and the stop branch of
    EventualStop claim (0, 0); Random claims a fresh uniform draw in
    [−v_max, v_max] per axis; offset attacks reuse the position offset scaled
    by v_max/R.

    Each class makes at most one rng call per track, drawing the values in
    the order one call per step would: a (L, 2) offset, a (L, 4) draw whose
    rows are position then speed, or one stop draw per step.
    """
    pos, spd = truth[:, :2], truth[:, 2:]
    n = len(truth)
    if attacker is AttackerType.GENUINE:
        return truth.copy()
    if attacker is AttackerType.CONSTANT:
        centre = params.region_side / 2.0
        fixed = [centre if c is None else c for c in (params.fixed_x, params.fixed_y)]
        return np.tile((*fixed, 0.0, 0.0), (n, 1))
    if attacker in (AttackerType.CONSTANT_OFFSET, AttackerType.RANDOM_OFFSET):
        if attacker is AttackerType.CONSTANT_OFFSET:
            offset = np.array((params.offset_x, params.offset_y), dtype=float)
        else:
            offset = rng.uniform(-params.random_offset_max, params.random_offset_max, size=(n, 2))
        return np.hstack([pos + offset, spd + offset * (params.v_max / params.region_side)])
    if attacker is AttackerType.RANDOM:
        r, v = params.region_side, params.v_max
        return rng.uniform((0.0, 0.0, -v, -v), (r, r, v, v), size=(n, 4))
    if attacker is AttackerType.EVENTUAL_STOP:
        stop = (rng.random(n) < params.stop_probability)[:, None]
        prev = np.concatenate([pos[:1], pos[:-1]])
        return np.hstack([np.where(stop, prev, pos), np.where(stop, 0.0, spd)])
    raise ValueError(f"unknown attacker type: {attacker!r}")
