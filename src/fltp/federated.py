"""Federated aggregation: attack-aware MrE weighting with an accuracy gate,
and the table of methods that run it: fl-tp is gated, fed-avg averages
uniformly, and centralized is fed-avg over one client holding the pooled
data."""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .features import NormalizationSpec
from .machine import fork_map
from .metrics import RoundReport, attack_judgments, prediction_accuracy, prediction_error
from .model import ModelParams, TrainConfig, forward, loss, save_params, train_local
from .seeding import TAG_GATE, TAG_TRAIN, derive_rng
from .trace import ATTACK_CLASSES, AttackerType

#: lower clamp for a vehicle's cleanliness score before normalization
CLEANLINESS_FLOOR = 1e-6

#: tolerance on the aggregation weight sum
WEIGHT_SUM_TOL = 1e-9


class AggregationMode(Enum):
    UNIFORM_AVERAGE = "uniform"
    MRE_WEIGHTED = "mre"


class GateStrategy(Enum):
    ACCURACY = "accuracy"  # uniform while global accuracy is below threshold
    RANDOM = "random"  # uniform iff a fresh uniform draw falls below threshold


@dataclass(frozen=True)
class GateConfig:
    strategy: GateStrategy = GateStrategy.ACCURACY
    threshold: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"gate threshold must be in [0, 1], got {self.threshold}")


class Method(NamedTuple):
    """How a method trains: every method runs run_flt_round each round."""

    gated: bool  # the config's gate and influence table weigh the updates; else uniform averaging
    pooled: bool  # one client, id 0, trains the pooled set; its rounds report the method as their mode


#: every method, in the `methods` key's default order
METHODS: dict[str, Method] = {
    "fl-tp": Method(gated=True, pooled=False),
    "fed-avg": Method(gated=False, pooled=False),
    "centralized": Method(gated=False, pooled=True),
}


@dataclass(frozen=True)
class InfluenceTable:
    """Per-attack-class influencing factor; genuine traffic has no entry."""

    constant: float = 1.0
    constant_offset: float = 0.8
    random: float = 1.0
    random_offset: float = 0.8
    eventual_stop: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"influence factor {f.name} must be >= 0, got {getattr(self, f.name)}")

    def value_for(self, attacker: AttackerType) -> float:
        """The factor of the field named after the attack class."""
        return getattr(self, attacker.name.lower())


@dataclass
class LocalUpdate:
    """One vehicle's trained parameters plus its local attack histogram."""

    vehicle_id: int
    params: np.ndarray  # flattened
    attack_counts: dict[int, int]  # attacker code -> training-sample count
    total_samples: int

    def __post_init__(self) -> None:
        if self.total_samples < 1:
            raise ValueError(f"vehicle {self.vehicle_id}: total_samples must be >= 1")
        if any(c < 0 for c in self.attack_counts.values()):
            raise ValueError(f"vehicle {self.vehicle_id}: negative attack count")
        if sum(self.attack_counts.values()) > self.total_samples:
            raise ValueError(f"vehicle {self.vehicle_id}: attack counts exceed total samples")


@dataclass
class VehicleData:
    """A vehicle's local training set built from the messages it received."""

    vehicle_id: int
    features: np.ndarray  # (N, 10, 9)
    labels: np.ndarray  # (N, 5, 3)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    def attack_histogram(self) -> dict[int, int]:
        codes = self.labels[:, 0, 2].astype(int)
        return {int(cls): int(np.count_nonzero(codes == cls)) for cls in ATTACK_CLASSES}


@dataclass
class EvalSet:
    """Held-out pooled windows shared by every method of a run."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def attacker_codes(self) -> np.ndarray:
        return self.labels[:, 0, 2].astype(int)


def mre_weights(updates: Sequence[LocalUpdate], influence: InfluenceTable) -> np.ndarray:
    """Aggregation weights favouring vehicles whose training data carry less
    attacked traffic.

    Each vehicle's cleanliness is 1 minus the influence-weighted fraction of
    attacked samples, clamped below at a small positive floor; weights are
    the cleanliness scores normalized to sum to one, aligned with updates.
    """
    if not updates:
        raise ValueError("no local updates")
    scores = np.empty(len(updates))
    for n, upd in enumerate(updates):
        attacked = 0.0
        for code, count in upd.attack_counts.items():
            attacked += count * influence.value_for(AttackerType(code))
        scores[n] = max(1.0 - attacked / upd.total_samples, CLEANLINESS_FLOOR)
    return scores / scores.sum()


def decide_mode(gate: GateConfig | None, global_accuracy: float, rng: np.random.Generator) -> AggregationMode:
    """Choose the aggregation mode for this round. Pass 0.0 accuracy before
    the first evaluation. No gate means uniform averaging, without a draw."""
    if not 0.0 <= global_accuracy <= 1.0:
        raise ValueError(f"global accuracy must be in [0, 1], got {global_accuracy}")
    if gate is None:
        return AggregationMode.UNIFORM_AVERAGE
    if gate.strategy is GateStrategy.RANDOM:
        below = rng.random() < gate.threshold
    else:
        below = global_accuracy < gate.threshold
    return AggregationMode.UNIFORM_AVERAGE if below else AggregationMode.MRE_WEIGHTED


def aggregate(updates: Sequence[LocalUpdate], weights: Sequence[float]) -> np.ndarray:
    """Weighted parameter average, accumulated in ascending vehicle_id order
    so the reduction is reproducible for any input permutation."""
    if not updates:
        raise ValueError("no local updates")
    if len(weights) != len(updates):
        raise ValueError(f"{len(weights)} weights for {len(updates)} updates")
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
    pairs = sorted(zip(updates, weights), key=lambda p: p[0].vehicle_id)
    ids = [u.vehicle_id for u, _ in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate vehicle ids in updates: {ids}")
    n_params = pairs[0][0].params.shape[0]
    acc = np.zeros(n_params)
    for upd, w in pairs:
        if upd.params.shape != (n_params,):
            raise ValueError(f"vehicle {upd.vehicle_id}: parameter length {upd.params.shape} != {n_params}")
        acc += w * upd.params
    return acc


def evaluate_global(
    params: ModelParams,
    eval_set: EvalSet,
    norm: NormalizationSpec,
    judgment_threshold: float = 0.5,
) -> tuple[float, float, dict[int, float], float]:
    """Evaluate one model on the held-out pool.

    Returns (trajectory error in metres, attack accuracy, per-attacker-code
    accuracy for the codes present, loss). The pool's predictions come from
    one forward call, which may run its chunks on forked processes.
    """
    pred = forward(params, eval_set.features)
    err = prediction_error(pred[:, :, :2], eval_set.labels[:, :, :2], norm)
    judgments = attack_judgments(pred[:, :, 2], eval_set.labels[:, :, 2], judgment_threshold)
    acc = prediction_accuracy(judgments)
    per_type: dict[int, float] = {}
    codes = eval_set.attacker_codes
    # the codes present, ascending; np.unique's hash table costs 1.7 MB of RSS on first use
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        per_type[code] = prediction_accuracy(judgments[codes == code])
    return err, acc, per_type, loss(pred, eval_set.labels)


def run_flt_round(
    global_params: ModelParams,
    vehicles: Sequence[VehicleData],
    eval_set: EvalSet,
    *,
    round_idx: int,
    prev_accuracy: float,
    gate: GateConfig | None,
    influence: InfluenceTable,
    train: TrainConfig,
    norm: NormalizationSpec,
    seed: int,
    judgment_threshold: float = 0.5,
) -> tuple[ModelParams, RoundReport]:
    """One federated round: local training on every vehicle, gate decision,
    weighting, aggregation in ascending vehicle_id order, evaluation. Every
    method runs this round (METHODS); the report names no method, since the
    caller's cell holds it.

    Per-vehicle training streams derive from (seed, round_idx, vehicle_id),
    so the result is independent of any execution interleaving. The vehicles
    train on forked processes, up to one per usable CPU, or in-process, with
    the same bytes (fork_map); they stay in-process with one vehicle, one
    usable CPU, another thread running, a BLAS on more than one thread, or
    in a forked worker (a data seed of run_experiment on two or more
    workers). The evaluation's forward forks its chunks on the same terms.
    """
    if not vehicles:
        raise ValueError("no vehicles")

    def train_one(vd: VehicleData) -> np.ndarray:
        trained, _ = train_local(
            global_params,
            vd.features,
            vd.labels,
            episodes=train.local_episodes,
            batch_size=train.batch_size,
            learning_rate=train.learning_rate,
            momentum=train.momentum,
            rng=derive_rng(seed, TAG_TRAIN, round_idx, vd.vehicle_id),
        )
        return trained.flatten()

    ordered = sorted(vehicles, key=lambda v: v.vehicle_id)
    flats = fork_map(train_one, ordered)
    updates = [
        LocalUpdate(vd.vehicle_id, flat, vd.attack_histogram(), vd.n_samples) for vd, flat in zip(ordered, flats)
    ]

    mode = decide_mode(gate, prev_accuracy, derive_rng(seed, TAG_GATE, round_idx))
    if mode is AggregationMode.UNIFORM_AVERAGE:
        weights = np.full(len(updates), 1.0 / len(updates))
    else:
        weights = mre_weights(updates, influence)

    new_global = ModelParams.unflatten(aggregate(updates, weights), global_params.hidden_size)
    err, acc, per_type, loss_value = evaluate_global(new_global, eval_set, norm, judgment_threshold)
    report = RoundReport(
        round_idx=round_idx,
        mode=mode.value,
        prediction_error=err,
        prediction_accuracy=acc,
        loss=loss_value,
        lambdas=tuple(float(w) for w in weights),
        per_type_accuracy=per_type,
    )
    return new_global, report


def save_checkpoint(
    directory: str | Path,
    method: str,
    params: ModelParams,
    report: RoundReport,
) -> tuple[Path, Path]:
    """Write the parameter blob of report's round plus a JSON sidecar
    describing it, under the method that ran the round; round 1 first
    deletes the round files a previous run left there."""
    directory = Path(directory)
    round_idx = report.round_idx
    directory.mkdir(parents=True, exist_ok=True)
    if round_idx == 1:
        for stale in (*directory.glob("round_*.params"), *directory.glob("round_*.json")):
            stale.unlink()
    blob = directory / f"round_{round_idx:04d}.params"
    sidecar = directory / f"round_{round_idx:04d}.json"
    save_params(params, blob)
    payload = {
        "round": round_idx,
        "method": method,
        "mode": report.mode,
        "lambdas": list(report.lambdas),
        "metrics": {
            "pred_error_m": report.prediction_error,
            "atk_accuracy": report.prediction_accuracy,
            "loss": report.loss,
            "per_type_accuracy": {str(k): v for k, v in sorted(report.per_type_accuracy.items())},
        },
    }
    sidecar.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return blob, sidecar
