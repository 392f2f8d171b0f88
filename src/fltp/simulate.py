"""Broadcast simulation on top of a generated scenario: every vehicle sends
one message per step (falsified when it is an attacker), every other vehicle
receives it over its own noisy link, and each receiver's stream windows
become that vehicle's local training set."""
from __future__ import annotations

import numpy as np

from .attacks import AttackParams, inject
from .features import NormalizationSpec, windows_from_stream
from .federated import EvalSet, VehicleData
from .seeding import TAG_ATTACK, TAG_LINK, derive_rng
from .trace import Messages, Scenario, delivery_time, synth_rssi


def falsified_claims(scenario: Scenario, attack: AttackParams) -> dict[int, np.ndarray]:
    """Per-sender claimed kinematics, (steps, 4) = [pos_x, pos_y, spd_x, spd_y].

    An attacker broadcasts the same falsified values to all receivers; the
    falsification stream of sender v derives from (scenario seed, v).
    """
    seed = scenario.config.rng_seed
    return {
        v: inject(attacker, scenario.kinematics[:, v], attack, derive_rng(seed, TAG_ATTACK, v))
        for v, attacker in sorted(scenario.attacker_types.items())
    }


def broadcast_streams(scenario: Scenario, attack: AttackParams) -> dict[tuple[int, int], Messages]:
    """Message streams keyed by (sender, receiver), one message per step.

    RSSI follows the true sender-receiver distance through the scenario's
    channel with per-link shadowing; delivery time adds the propagation
    delay to the send time. Each link's distances, RSSI and receive times
    are computed as arrays in one pass, and every stream owns its arrays.
    """
    cfg = scenario.config
    claims = falsified_claims(scenario, attack)
    n = cfg.n_vehicles
    pos = scenario.kinematics[:, :, :2]
    steps = len(pos)
    t_snd = np.arange(steps) * cfg.dt
    streams: dict[tuple[int, int], Messages] = {}
    for sender in range(n):
        attacker = int(scenario.attacker_types[sender])
        for receiver in range(n):
            if receiver == sender:
                continue
            link_rng = derive_rng(cfg.rng_seed, TAG_LINK, sender, receiver)
            gap = pos[:, sender] - pos[:, receiver]
            distance = np.hypot(gap[:, 0], gap[:, 1])
            streams[(sender, receiver)] = Messages(
                sender_id=np.full(steps, sender, dtype=np.int64),
                step=np.arange(steps, dtype=np.int64),
                t_snd=t_snd.copy(),
                t_rev=delivery_time(t_snd, distance),
                claims=np.column_stack([claims[sender], synth_rssi(distance, cfg.channel, link_rng)]),
                truth_attacker=np.full(steps, attacker, dtype=np.int64),
            )
    return streams


def assemble_datasets(
    scenario: Scenario,
    attack: AttackParams,
    norm: NormalizationSpec,
    train_fraction: float = 0.8,
    dtype: str | np.dtype = np.float64,
) -> tuple[list[VehicleData], EvalSet]:
    """Split every (sender -> receiver) stream's windows by time: the leading
    train_fraction goes into the receiver's local set, the rest into the
    shared evaluation pool. The local sets are cast to dtype as they are
    concatenated; the pool stays float64.

    Raises ValueError when the scenario is too short to give every vehicle
    at least one training window and the pool at least one window.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    streams = broadcast_streams(scenario, attack)
    n = scenario.config.n_vehicles
    tracks = [scenario.vehicle_track(v) for v in range(n)]

    vehicles: list[VehicleData] = []
    eval_x: list[np.ndarray] = []
    eval_y: list[np.ndarray] = []
    for receiver in range(n):
        feats: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for sender in range(n):
            if sender == receiver:
                continue
            x, y = windows_from_stream(
                streams[(sender, receiver)],
                tracks[receiver],
                tracks[sender],
                scenario.attacker_types[sender],
                norm,
            )
            n_train = int(len(x) * train_fraction)
            feats.append(x[:n_train])
            labels.append(y[:n_train])
            # copies, so that a stream's training windows are freed with its receiver
            eval_x.append(x[n_train:].copy())
            eval_y.append(y[n_train:].copy())
        features = np.concatenate(feats, dtype=dtype)
        if not len(features):
            raise ValueError(
                f"vehicle {receiver} got no training windows; "
                f"increase n_steps (= {scenario.config.n_steps}) or train_fraction"
            )
        vehicles.append(VehicleData(receiver, features, np.concatenate(labels, dtype=dtype)))
    pool = EvalSet(features=np.concatenate(eval_x), labels=np.concatenate(eval_y))
    if not len(pool.features):
        raise ValueError("evaluation pool is empty; increase n_steps or lower train_fraction")
    return vehicles, pool


def pooled_training_set(vehicles: list[VehicleData]) -> tuple[np.ndarray, np.ndarray]:
    """Union of all local sets in ascending vehicle order (centralized baseline)."""
    ordered = sorted(vehicles, key=lambda v: v.vehicle_id)
    return (
        np.concatenate([v.features for v in ordered]),
        np.concatenate([v.labels for v in ordered]),
    )
