"""Deterministic RNG derivation from integer key paths.

Every random stream in the simulator is derived from a master seed plus a
fixed integer tag path, so results are reproducible bit-for-bit regardless
of evaluation order or worker count.
"""
from __future__ import annotations

import numpy as np

# stream tags; never reuse a number
TAG_LINK = 1      # per (sender, receiver) shadowing noise
TAG_ATTACK = 2    # per sender falsification draws
TAG_INIT = 3      # model weight initialization
TAG_TRAIN = 4     # per (round, vehicle) batch shuffling
TAG_GATE = 5      # per round gate draw (GateStrategy.RANDOM only)
TAG_CELL = 6      # per sweep-cell run seed
TAG_SCENARIO = 7  # scenario generation seed within a cell


def derive_rng(*keys: int) -> np.random.Generator:
    """Return a Generator seeded from the given non-negative integer path."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def derive_seed(*keys: int) -> int:
    """Collapse an integer path into a single reproducible 64-bit seed."""
    lo, hi = np.random.SeedSequence([int(k) for k in keys]).generate_state(2)
    return (int(hi) << 32) | int(lo)
