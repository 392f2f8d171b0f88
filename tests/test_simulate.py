"""Broadcast simulation: claims, per-link streams, dataset assembly."""
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fltp.attacks import AttackParams
from fltp.config import config_from_kv
from fltp.features import NormalizationSpec, WINDOW_SPAN
from fltp.seeding import TAG_LINK, derive_rng
from fltp.simulate import assemble_datasets, broadcast_streams, falsified_claims, link_columns, pooled_training_set
from fltp.trace import AttackerType, ChannelConfig, Messages, ScenarioConfig, generate_scenario
from test_features import _reference_windows


def _scenario(n_vehicles=4, penetration=0.5, n_steps=40, seed=2024, shadow=2.0):
    cfg = ScenarioConfig(
        n_vehicles=n_vehicles,
        penetration=penetration,
        n_steps=n_steps,
        rng_seed=seed,
        channel=ChannelConfig(shadowing_sigma=shadow),
    )
    return generate_scenario(cfg)


def _norm(cfg):
    return NormalizationSpec(region_side=cfg.region_side, v_max=cfg.v_max, rssi_min=-100.0, rssi_max=-40.0)


ATTACK = AttackParams()


def _truth(scenario, v):
    """(steps, 4) true [pos_x, pos_y, spd_x, spd_y] of vehicle v."""
    return scenario.vehicle_track(v)[1]


def _columns(msgs):
    return {f.name: getattr(msgs, f.name) for f in fields(Messages)}


class TestFalsifiedClaims:
    def test_genuine_claims_equal_truth(self):
        sc = _scenario(penetration=0.0)
        claims = falsified_claims(sc, ATTACK)
        for v in range(sc.config.n_vehicles):
            assert claims[v].tobytes() == _truth(sc, v).tobytes()

    def test_attackers_diverge_from_truth(self):
        sc = _scenario(penetration=1.0, n_vehicles=6)
        claims = falsified_claims(sc, ATTACK)
        for v, kind in sc.attacker_types.items():
            if kind is AttackerType.GENUINE:
                continue
            mismatch = (claims[v][:, :2] != _truth(sc, v)[:, :2]).any(axis=1).sum()
            assert mismatch > 0, f"attacker {v} ({kind.name}) never falsified"

    def test_claims_cover_all_vehicles_and_steps(self):
        sc = _scenario()
        claims = falsified_claims(sc, ATTACK)
        assert sorted(claims) == list(range(sc.config.n_vehicles))
        assert all(track.shape == (sc.config.n_steps, 4) for track in claims.values())

    def test_deterministic(self):
        sc = _scenario()
        a = falsified_claims(sc, ATTACK)
        b = falsified_claims(sc, ATTACK)
        assert list(a) == list(b)
        assert all(a[v].tobytes() == b[v].tobytes() for v in a)


class TestBroadcastStreams:
    def test_directed_pairs_once_per_step(self):
        sc = _scenario()
        streams = broadcast_streams(sc, ATTACK)
        n = sc.config.n_vehicles
        assert set(streams) == {(s, r) for s in range(n) for r in range(n) if s != r}
        for (s, r), msgs in streams.items():
            assert len(msgs) == sc.config.n_steps
            assert msgs.step.tolist() == list(range(sc.config.n_steps))
            assert (msgs.sender_id == s).all()

    def test_one_logarithm_per_unordered_pair(self, monkeypatch):
        """Links (s, r) and (r, s) share their distance and its path loss:
        without shadowing their RSSI is the same, bit for bit."""
        sc = _scenario(n_vehicles=5, shadow=0.0)
        calls = []

        def log10(x, real=math.log10):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(math, "log10", log10)
        links, claims = link_columns(sc, ATTACK)
        assert len(calls) == 5 * 4 // 2 * sc.config.n_steps
        rssi = {(s, r): claims[i, :, 4] for i, (s, r) in enumerate(links.tolist())}
        for (s, r), column in rssi.items():
            assert column.tobytes() == rssi[(r, s)].tobytes()

    def test_columns_are_typed_and_owned(self):
        """int64 ids, steps and classes; no two streams share a writable array."""
        sc = _scenario()
        streams = list(broadcast_streams(sc, ATTACK).values())
        for msgs in streams:
            for name in ("sender_id", "step", "truth_attacker"):
                assert getattr(msgs, name).dtype == np.int64
            assert msgs.claims.shape == (sc.config.n_steps, 5)
        for i, one in enumerate(streams):
            for other in streams[i + 1 :]:
                for a in _columns(one).values():
                    for b in _columns(other).values():
                        assert not np.shares_memory(a, b) or not (a.flags.writeable or b.flags.writeable)

    def test_group_cast_shares_claims(self):
        sc = _scenario(penetration=1.0, n_vehicles=5)
        streams = broadcast_streams(sc, ATTACK)
        for s in range(5):
            receivers = [r for r in range(5) if r != s]
            first = streams[(s, receivers[0])]
            for r in receivers[1:]:
                np.testing.assert_array_equal(first.claims[:, :4], streams[(s, r)].claims[:, :4])

    def test_rssi_differs_per_link_under_shadowing(self):
        sc = _scenario(n_vehicles=3)
        streams = broadcast_streams(sc, ATTACK)
        assert not np.array_equal(streams[(0, 1)].claims[:, 4], streams[(0, 2)].claims[:, 4])

    def test_truth_attacker_tagged(self):
        sc = _scenario(penetration=0.75, n_vehicles=5)
        streams = broadcast_streams(sc, ATTACK)
        for (s, _), msgs in streams.items():
            assert (msgs.truth_attacker == int(sc.attacker_types[s])).all()

    def test_deterministic(self):
        sc = _scenario()
        a = broadcast_streams(sc, ATTACK)
        b = broadcast_streams(sc, ATTACK)
        assert list(a) == list(b)
        for key in a:
            for name, col in _columns(a[key]).items():
                assert col.tobytes() == getattr(b[key], name).tobytes()


class TestAssembleDatasets:
    def test_sizes_and_split(self):
        sc = _scenario(n_steps=40)  # 40 messages per stream -> 26 windows each
        vehicles, eval_set = assemble_datasets(sc, ATTACK, _norm(sc.config))
        n = sc.config.n_vehicles
        per_stream = sc.config.n_steps - (WINDOW_SPAN - 1)
        n_train = int(per_stream * 0.8)
        assert len(vehicles) == n
        for vd in vehicles:
            assert vd.features.shape == ((n - 1) * n_train, 10, 9)
            assert vd.labels.shape == ((n - 1) * n_train, 5, 3)
        expected_eval = n * (n - 1) * (per_stream - n_train)
        assert eval_set.features.shape == (expected_eval, 10, 9)

    def test_vehicle_ids_ascending(self):
        sc = _scenario()
        vehicles, _ = assemble_datasets(sc, ATTACK, _norm(sc.config))
        assert [v.vehicle_id for v in vehicles] == list(range(sc.config.n_vehicles))

    def test_histogram_matches_attacker_census(self):
        sc = _scenario(penetration=0.5)
        vehicles, _ = assemble_datasets(sc, ATTACK, _norm(sc.config))
        attacked_ids = {v for v, k in sc.attacker_types.items() if k is not AttackerType.GENUINE}
        for vd in vehicles:
            hist = vd.attack_histogram()
            seen_codes = {code for code, count in hist.items() if count > 0}
            expected = {
                int(sc.attacker_types[s])
                for s in attacked_ids
                if s != vd.vehicle_id
            }
            assert seen_codes == expected

    def test_eval_pool_codes_match_scenario(self):
        sc = _scenario(penetration=1.0, n_vehicles=6)
        _, eval_set = assemble_datasets(sc, ATTACK, _norm(sc.config))
        present = set(int(c) for c in eval_set.attacker_codes)
        scenario_codes = {int(k) for k in sc.attacker_types.values()}
        assert present <= scenario_codes

    def test_too_short_scenario_raises(self):
        sc = _scenario(n_steps=14)  # 15 messages -> 1 window -> 0 train windows
        with pytest.raises(ValueError):
            assemble_datasets(sc, ATTACK, _norm(sc.config))

    def test_bad_fraction_rejected(self):
        sc = _scenario()
        for frac in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                assemble_datasets(sc, ATTACK, _norm(sc.config), train_fraction=frac)

    def test_deterministic(self):
        sc = _scenario()
        va, ea = assemble_datasets(sc, ATTACK, _norm(sc.config))
        vb, eb = assemble_datasets(sc, ATTACK, _norm(sc.config))
        for a, b in zip(va, vb):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(ea.features, eb.features)


class TestPooledTrainingSet:
    def test_concatenates_in_id_order(self):
        sc = _scenario()
        vehicles, _ = assemble_datasets(sc, ATTACK, _norm(sc.config))
        x, y = pooled_training_set(list(reversed(vehicles)))
        assert x.shape[0] == sum(v.n_samples for v in vehicles)
        offset = 0
        for vd in vehicles:  # ascending ids
            np.testing.assert_array_equal(x[offset : offset + vd.n_samples], vd.features)
            np.testing.assert_array_equal(y[offset : offset + vd.n_samples], vd.labels)
            offset += vd.n_samples


# The per-message broadcast and per-pair assembly that the array versions
# replaced, kept as the references they must reproduce exactly.
def _reference_broadcast(scenario, attack):
    cfg = scenario.config
    ch = cfg.channel
    claims = falsified_claims(scenario, attack)
    streams = {}
    for sender in range(cfg.n_vehicles):
        for receiver in range(cfg.n_vehicles):
            if receiver == sender:
                continue
            link_rng = derive_rng(cfg.rng_seed, TAG_LINK, sender, receiver)
            rows = []
            for step, row in enumerate(scenario.kinematics.tolist()):
                (s_x, s_y, _, _), (r_x, r_y, _, _) = row[sender], row[receiver]
                distance = float(np.hypot(s_x - r_x, s_y - r_y))
                pos_x, pos_y, spd_x, spd_y = claims[sender][step].tolist()
                d = max(distance, ch.reference_distance)
                path_loss = 10.0 * ch.path_loss_exponent * math.log10(d / ch.reference_distance)
                rssi = ch.tx_power_dbm - path_loss + link_rng.normal(0.0, ch.shadowing_sigma)
                rows.append((sender, step, pos_x, pos_y, spd_x, spd_y, rssi))
            ids = np.array([r[:2] for r in rows], dtype=np.int64)
            floats = np.array([r[2:] for r in rows], dtype=float)
            streams[(sender, receiver)] = Messages(
                sender_id=ids[:, 0],
                step=ids[:, 1],
                claims=floats,
                truth_attacker=np.full(len(rows), int(scenario.attacker_types[sender]), dtype=np.int64),
            )
    return streams


def _reference_assemble(scenario, attack, norm, train_fraction):
    streams = _reference_broadcast(scenario, attack)
    n = scenario.config.n_vehicles
    per_vehicle, eval_x, eval_y = [], [], []
    for receiver in range(n):
        feats, labels = [], []
        for sender in range(n):
            if sender == receiver:
                continue
            x, y = _reference_windows(
                streams[(sender, receiver)],
                scenario.vehicle_track(receiver),
                scenario.vehicle_track(sender),
                scenario.attacker_types[sender],
                norm,
            )
            n_train = int(len(x) * train_fraction)
            feats.extend(x[:n_train])
            labels.extend(y[:n_train])
            eval_x.extend(x[n_train:])
            eval_y.extend(y[n_train:])
        per_vehicle.append((np.stack(feats), np.stack(labels)))
    return per_vehicle, (np.stack(eval_x), np.stack(eval_y))


def _profile_scenario(profile, n_vehicles, penetration, seed):
    cfg = config_from_kv({}, profile=profile)
    scenario = generate_scenario(replace(cfg.scenario, n_vehicles=n_vehicles, penetration=penetration, rng_seed=seed))
    return scenario, cfg


@pytest.mark.parametrize(
    "profile,n_vehicles,penetration,seed",
    [
        ("desk", 4, 0.75, 11),
        ("paper", 10, 0.75, 12),
        ("desk", 4, 0.0, 13),
        ("paper", 10, 1.0, 14),
        ("paper", 20, 0.75, 15),
    ],
    ids=["desk-4-11", "paper-10-12", "desk-4-13-pen0", "paper-10-14-pen1", "paper-20-15"],
)
class TestMatchesMessageByMessageBuild:
    """The desk profile assembles float64 training sets, the paper profile
    float32 ones (its precision)."""

    def test_broadcast_equals_scalar_loop(self, profile, n_vehicles, penetration, seed):
        scenario, cfg = _profile_scenario(profile, n_vehicles, penetration, seed)
        got = broadcast_streams(scenario, cfg.attack)
        expected = _reference_broadcast(scenario, cfg.attack)
        assert list(got) == list(expected)
        for key, stream in expected.items():
            for name, col in _columns(stream).items():
                got_col = getattr(got[key], name)
                assert got_col.dtype == col.dtype and got_col.shape == col.shape
                assert got_col.tobytes() == col.tobytes()

    def test_assembled_arrays_byte_equal(self, profile, n_vehicles, penetration, seed):
        scenario, cfg = _profile_scenario(profile, n_vehicles, penetration, seed)
        precision = cfg.train.precision
        vehicles, pool = assemble_datasets(scenario, cfg.attack, cfg.norm, cfg.train_fraction, precision)
        per_vehicle, (pool_x, pool_y) = _reference_assemble(scenario, cfg.attack, cfg.norm, cfg.train_fraction)
        assert [v.vehicle_id for v in vehicles] == list(range(n_vehicles))
        for vd, (x, y) in zip(vehicles, per_vehicle):
            x, y = x.astype(precision), y.astype(precision)
            assert vd.features.dtype == x.dtype and vd.labels.dtype == y.dtype
            assert vd.features.shape == x.shape and vd.labels.shape == y.shape
            assert vd.features.tobytes() == x.tobytes() and vd.labels.tobytes() == y.tobytes()
        assert pool.features.dtype == pool_x.dtype == np.float64
        assert pool.features.shape == pool_x.shape
        assert pool.features.tobytes() == pool_x.tobytes() and pool.labels.tobytes() == pool_y.tobytes()
