"""Broadcast simulation on top of a generated scenario: every vehicle sends
one message per step (falsified when it is an attacker), every other vehicle
receives it over its own noisy link, and each receiver's stream windows
become that vehicle's local training set."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import AttackerMemory, AttackParams, inject
from .features import NormalizationSpec, windows_from_stream
from .federated import EvalSet, VehicleData
from .seeding import TAG_ATTACK, TAG_LINK, derive_rng
from .trace import Bsm, Scenario, delivery_time, synth_rssi


@dataclass
class ClaimRecord:
    """What one sender claims at one step; shared by all receivers."""

    pos: tuple[float, float]
    spd: tuple[float, float]


def falsified_claims(scenario: Scenario, attack: AttackParams) -> dict[int, list[ClaimRecord]]:
    """Per-sender claimed kinematics for every step.

    An attacker broadcasts the same falsified values to all receivers; the
    falsification stream of sender v derives from (scenario seed, v).
    """
    claims: dict[int, list[ClaimRecord]] = {}
    seed = scenario.config.rng_seed
    for v in sorted(scenario.attacker_types):
        attacker = scenario.attacker_types[v]
        rng = derive_rng(seed, TAG_ATTACK, v)
        spawn = scenario.states[0][v]
        memory = AttackerMemory(spawn.pos_x, spawn.pos_y)
        track = []
        for row in scenario.states:
            pos, spd, memory = inject(attacker, row[v], memory, attack, rng)
            track.append(ClaimRecord(pos, spd))
        claims[v] = track
    return claims


def broadcast_streams(scenario: Scenario, attack: AttackParams) -> dict[tuple[int, int], list[Bsm]]:
    """Message streams keyed by (sender, receiver).

    RSSI follows the true sender-receiver distance through the scenario's
    channel with per-link shadowing; delivery time adds the propagation
    delay to the send time.
    """
    cfg = scenario.config
    claims = falsified_claims(scenario, attack)
    n = cfg.n_vehicles
    streams: dict[tuple[int, int], list[Bsm]] = {}
    for sender in range(n):
        for receiver in range(n):
            if receiver == sender:
                continue
            link_rng = derive_rng(cfg.rng_seed, TAG_LINK, sender, receiver)
            stream: list[Bsm] = []
            for step, row in enumerate(scenario.states):
                s_truth = row[sender]
                r_truth = row[receiver]
                distance = float(np.hypot(s_truth.pos_x - r_truth.pos_x, s_truth.pos_y - r_truth.pos_y))
                claim = claims[sender][step]
                t_snd = step * cfg.dt
                stream.append(
                    Bsm(
                        sender_id=sender,
                        step=step,
                        t_snd=t_snd,
                        t_rev=delivery_time(t_snd, distance),
                        claimed_pos_x=claim.pos[0],
                        claimed_pos_y=claim.pos[1],
                        claimed_spd_x=claim.spd[0],
                        claimed_spd_y=claim.spd[1],
                        rssi=synth_rssi(distance, cfg.channel, link_rng),
                        truth_attacker=scenario.attacker_types[sender],
                    )
                )
            streams[(sender, receiver)] = stream
    return streams


def assemble_datasets(
    scenario: Scenario,
    attack: AttackParams,
    norm: NormalizationSpec,
    train_fraction: float = 0.8,
) -> tuple[list[VehicleData], EvalSet]:
    """Split every (sender -> receiver) stream's windows by time: the leading
    train_fraction goes into the receiver's local set, the rest into the
    shared evaluation pool.

    Raises ValueError when the scenario is too short to give every vehicle
    at least one training window and the pool at least one window.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    streams = broadcast_streams(scenario, attack)
    n = scenario.config.n_vehicles

    vehicles: list[VehicleData] = []
    eval_x: list[np.ndarray] = []
    eval_y: list[np.ndarray] = []
    for receiver in range(n):
        ego_track = scenario.vehicle_track(receiver)
        feats: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for sender in range(n):
            if sender == receiver:
                continue
            pairs = windows_from_stream(
                streams[(sender, receiver)],
                ego_track,
                scenario.vehicle_track(sender),
                scenario.attacker_types[sender],
                norm,
            )
            n_train = int(len(pairs) * train_fraction)
            for fw, lb in pairs[:n_train]:
                feats.append(fw)
                labels.append(lb)
            for fw, lb in pairs[n_train:]:
                eval_x.append(fw)
                eval_y.append(lb)
        if not feats:
            raise ValueError(
                f"vehicle {receiver} got no training windows; "
                f"increase n_steps (= {scenario.config.n_steps}) or train_fraction"
            )
        vehicles.append(
            VehicleData(
                vehicle_id=receiver,
                features=np.stack(feats),
                labels=np.stack(labels),
            )
        )
    if not eval_x:
        raise ValueError("evaluation pool is empty; increase n_steps or lower train_fraction")
    return vehicles, EvalSet(features=np.stack(eval_x), labels=np.stack(eval_y))


def pooled_training_set(vehicles: list[VehicleData]) -> tuple[np.ndarray, np.ndarray]:
    """Union of all local sets in ascending vehicle order (centralized baseline)."""
    ordered = sorted(vehicles, key=lambda v: v.vehicle_id)
    return (
        np.concatenate([v.features for v in ordered]),
        np.concatenate([v.labels for v in ordered]),
    )
