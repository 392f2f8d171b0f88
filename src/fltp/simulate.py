"""Broadcast simulation on top of a generated scenario: every vehicle sends
one message per step (falsified when it is an attacker), every other vehicle
receives it over its own noisy link, and each receiver's stream windows
become that vehicle's local training set."""
from __future__ import annotations

import numpy as np

from .attacks import AttackParams, inject
from .features import NormalizationSpec, link_windows
from .federated import EvalSet, VehicleData
from .seeding import TAG_ATTACK, TAG_LINK, derive_rng
from .trace import Messages, Scenario, synth_rssi


def falsified_claims(scenario: Scenario, attack: AttackParams) -> dict[int, np.ndarray]:
    """Per-sender claimed kinematics, (steps, 4) = [pos_x, pos_y, spd_x, spd_y].

    An attacker broadcasts the same falsified values to all receivers; the
    falsification stream of sender v derives from (scenario seed, v).
    """
    cfg = scenario.config
    return {
        v: inject(attacker, scenario.kinematics[:, v], attack, cfg, derive_rng(cfg.rng_seed, TAG_ATTACK, v))
        for v, attacker in sorted(scenario.attacker_types.items())
    }


def link_columns(scenario: Scenario, attack: AttackParams) -> tuple[np.ndarray, np.ndarray]:
    """Every (sender, receiver) link of the scenario, receiver-major with the
    senders ascending: links (S, 2) = sender, receiver; and claims
    (S, steps, 5) = the sender's claimed pos_x, pos_y, spd_x, spd_y and the
    link's RSSI.

    RSSI follows the true sender-receiver distance through the scenario's
    channel; the shadowing of link (s, r) is drawn from
    derive_rng(seed, TAG_LINK, s, r), one draw per step in step order. Links
    (s, r) and (r, s) share one distance and its path loss, computed once.
    """
    cfg = scenario.config
    n = cfg.n_vehicles
    links = np.array([(s, r) for r in range(n) for s in range(n) if s != r], dtype=np.int64)
    sent = falsified_claims(scenario, attack)
    pos = scenario.kinematics[:, :, :2].swapaxes(0, 1)
    near, far = np.triu_indices(n, 1)  # one unordered pair per row
    pair_of = np.empty((n, n), dtype=np.int64)
    pair_of[near, far] = pair_of[far, near] = np.arange(len(near))
    gap = pos[near] - pos[far]
    pair_distance = np.hypot(gap[..., 0], gap[..., 1])
    claims = np.empty((len(links), len(scenario.kinematics), 5))
    claims[..., :4] = np.stack([sent[v] for v in range(n)])[links[:, 0]]
    link_rngs = [derive_rng(cfg.rng_seed, TAG_LINK, sender, receiver) for sender, receiver in links.tolist()]
    claims[..., 4] = synth_rssi(pair_distance, cfg.channel, link_rngs, pair_of[links[:, 0], links[:, 1]])
    return links, claims


def broadcast_streams(scenario: Scenario, attack: AttackParams) -> dict[tuple[int, int], Messages]:
    """Message streams keyed by (sender, receiver), sender-major, one message
    per step: link_columns' claims and RSSI. No two streams share memory."""
    links, claims = link_columns(scenario, attack)
    steps = claims.shape[1]
    streams: dict[tuple[int, int], Messages] = {}
    for i in np.lexsort((links[:, 1], links[:, 0])).tolist():
        sender, receiver = links[i].tolist()
        streams[(sender, receiver)] = Messages(
            sender_id=np.full(steps, sender, dtype=np.int64),
            step=np.arange(steps, dtype=np.int64),
            claims=claims[i],
            truth_attacker=np.full(steps, int(scenario.attacker_types[sender]), dtype=np.int64),
        )
    return streams


def assemble_datasets(
    scenario: Scenario,
    attack: AttackParams,
    norm: NormalizationSpec,
    train_fraction: float = 0.8,
    dtype: str | np.dtype = np.float64,
) -> tuple[list[VehicleData], EvalSet]:
    """Window every link_columns link in one link_windows pass and split each
    link's windows by time: the leading int(K_link * train_fraction) go into
    the receiver's local set, the rest into the shared evaluation pool, both
    in receiver-major, sender-ascending link order. The local sets are
    gathered in dtype; the pool stays float64.

    Raises ValueError when the scenario is too short to give every vehicle
    at least one training window and the pool at least one window.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    links, claims = link_columns(scenario, attack)
    n = scenario.config.n_vehicles
    n_links, steps = claims.shape[:2]
    step = np.broadcast_to(np.arange(steps, dtype=np.int64), (n_links, steps))
    tracks = np.broadcast_to(step[0], (n, steps)), scenario.kinematics.swapaxes(0, 1)
    attackers = np.array([int(scenario.attacker_types[v]) for v in range(n)])
    senders = np.broadcast_to(links[:, :1], (n_links, steps))
    windows = link_windows(senders, step, claims, tracks, tracks, attackers, links, norm)

    per_link = np.bincount(windows.link, minlength=n_links)
    link_start = np.cumsum(per_link) - per_link
    rank = np.arange(len(windows.link)) - link_start[windows.link]
    train = rank < (per_link * train_fraction).astype(np.int64)[windows.link]
    local = windows._replace(
        rows=windows.rows.astype(dtype, copy=False), label_rows=windows.label_rows.astype(dtype, copy=False)
    )
    receiver_of = links[windows.link, 1]
    vehicles: list[VehicleData] = []
    for receiver in range(n):
        features, labels = local.take(train & (receiver_of == receiver))
        if not len(features):
            raise ValueError(
                f"vehicle {receiver} got no training windows; "
                f"increase n_steps (= {scenario.config.n_steps}) or train_fraction"
            )
        vehicles.append(VehicleData(receiver, features, labels))
    pool = EvalSet(*windows.take(~train))
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
