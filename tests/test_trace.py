"""Channel, kinematics, and scenario-generation contracts."""
from dataclasses import replace

import numpy as np
import pytest

from fltp.config import config_from_kv
from fltp.trace import (
    ATTACK_CLASSES,
    AttackerType,
    ChannelConfig,
    Messages,
    ScenarioConfig,
    attacker_count,
    generate_scenario,
    step_kinematics,
    synth_rssi,
)


def _messages(n, n_claims=None):
    ids = np.arange(n, dtype=np.int64)
    return Messages(ids, ids, np.zeros((n if n_claims is None else n_claims, 5)), ids)


class TestMessages:
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_len_is_row_count(self, n):
        assert len(_messages(n)) == n

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="length 3"):
            _messages(3, n_claims=4)
        ids = np.arange(3, dtype=np.int64)
        with pytest.raises(ValueError):
            Messages(ids, ids, np.zeros((3, 5)), ids[:2])
        with pytest.raises(ValueError):
            Messages(ids, ids, np.zeros((3, 4)), ids)


def _rssi(distances, ch, rng):
    """synth_rssi of one row of distances, drawn from one generator."""
    return synth_rssi(np.array([distances], dtype=float), ch, [rng], np.array([0]))[0]


class TestSynthRssi:
    def _rng(self):
        return np.random.default_rng(0)

    def test_at_reference_distance_equals_tx_power(self):
        ch = ChannelConfig(tx_power_dbm=20.0, shadowing_sigma=0.0)
        assert _rssi([1.0], ch, self._rng())[0] == pytest.approx(20.0, abs=1e-12)

    def test_decade_distance_drop(self):
        ch = ChannelConfig(tx_power_dbm=20.0, path_loss_exponent=2.0, shadowing_sigma=0.0)
        assert _rssi([10.0], ch, self._rng())[0] == pytest.approx(0.0, abs=1e-9)

    def test_frozen_value_250m(self):
        # 20 - 20*log10(250)
        ch = ChannelConfig(tx_power_dbm=20.0, path_loss_exponent=2.0, reference_distance=1.0, shadowing_sigma=0.0)
        assert _rssi([250.0], ch, self._rng())[0] == pytest.approx(-27.95880017344075, abs=1e-3)

    def test_below_reference_clamps(self):
        ch = ChannelConfig(shadowing_sigma=0.0)
        assert _rssi([0.01], ch, self._rng())[0] == _rssi([1.0], ch, self._rng())[0]

    def test_monotone_decreasing_without_noise(self):
        ch = ChannelConfig(shadowing_sigma=0.0)
        values = _rssi(np.linspace(1.0, 5000.0, 50), ch, self._rng()).tolist()
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shadowing_reproducible(self):
        ch = ChannelConfig(shadowing_sigma=3.0)
        a = _rssi([100.0], ch, np.random.default_rng(42))
        b = _rssi([100.0], ch, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            _rssi([-1.0], ChannelConfig(), self._rng())

    def test_generator_per_row_equals_one_call_per_row(self):
        ch = ChannelConfig(shadowing_sigma=2.0)
        d = np.random.default_rng(5).uniform(0.0, 15_000.0, size=(3, 40))
        got = synth_rssi(d, ch, [np.random.default_rng(k) for k in range(3)], np.arange(3))
        expected = np.stack([_rssi(row, ch, np.random.default_rng(k)) for k, row in enumerate(d)])
        assert got.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="one generator per row"):
            synth_rssi(d, ch, [np.random.default_rng(0)], np.arange(3))

    def test_rows_share_a_distance_row(self):
        ch = ChannelConfig(shadowing_sigma=2.0)
        d = np.random.default_rng(5).uniform(0.0, 15_000.0, size=(3, 40))
        rows = np.array([2, 0, 2, 1, 0])
        got = synth_rssi(d, ch, [np.random.default_rng(k) for k in range(5)], rows)
        expected = synth_rssi(d[rows], ch, [np.random.default_rng(k) for k in range(5)], np.arange(5))
        assert got.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="one generator per row"):
            synth_rssi(d, ch, [np.random.default_rng(0)] * 3, rows)

    def test_array_with_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            _rssi([3.0, -1.0], ChannelConfig(), self._rng())


def _cfg(**kw):
    defaults = dict(n_vehicles=4, penetration=0.5, n_steps=30, rng_seed=3)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def _step(kinematics, cfg, rng):
    return step_kinematics(np.array(kinematics, dtype=float).reshape(-1, 4), cfg, rng)


class TestStepKinematics:
    def test_stationary_without_noise(self):
        cfg = _cfg(accel_sigma=0.0)
        out = _step([500.0, 600.0, 0.0, 0.0], cfg, np.random.default_rng(0))
        assert out.shape == (1, 4)
        assert out[0].tolist() == [500.0, 600.0, 0.0, 0.0]

    def test_straight_line_without_noise(self):
        cfg = _cfg(accel_sigma=0.0)
        out = _step([100.0, 100.0, 10.0, 0.0], cfg, np.random.default_rng(0))
        assert out[0, :2].tolist() == [110.0, 100.0]

    def test_reflection_at_upper_bound(self):
        cfg = _cfg(accel_sigma=0.0)
        out = _step([cfg.region_side, 50.0, 10.0, 0.0], cfg, np.random.default_rng(0))
        assert out[0, 0] <= cfg.region_side
        assert out[0, 2] < 0

    def test_reflection_at_lower_bound(self):
        cfg = _cfg(accel_sigma=0.0)
        out = _step([0.0, 50.0, -10.0, 0.0], cfg, np.random.default_rng(0))
        assert out[0, 0] >= 0.0
        assert out[0, 2] > 0

    def test_speed_clamped(self):
        cfg = _cfg(accel_sigma=30.0)  # huge noise to force the clamp
        kin = np.array([[5000.0, 5000.0, 39.0, -39.0]])
        rng = np.random.default_rng(1)
        for _ in range(50):
            kin = step_kinematics(kin, cfg, rng)
            assert (np.abs(kin[:, 2:]) <= cfg.v_max).all()

    def test_bounds_hold_over_long_walk(self):
        cfg = _cfg(accel_sigma=2.0)
        kin = np.array([[9990.0, 3.0, 35.0, -35.0]])
        rng = np.random.default_rng(9)
        for _ in range(500):
            kin = step_kinematics(kin, cfg, rng)
            assert ((kin[:, :2] >= 0.0) & (kin[:, :2] <= cfg.region_side)).all()


class TestAttackerCount:
    def test_quarter_penetration_five_vehicles(self):
        assert attacker_count(0.25, 5) == 1

    def test_half_penetration_four_vehicles(self):
        assert attacker_count(0.5, 4) == 2

    def test_zero_penetration(self):
        assert attacker_count(0.0, 10) == 0

    def test_full_penetration(self):
        assert attacker_count(1.0, 6) == 5

    def test_float_fuzz_does_not_overcount(self):
        # 0.2 * 10 is 2.0000000000000004 in binary; must stay 2
        assert attacker_count(0.2, 11) == 2


class TestGenerateScenario:
    def test_shapes_and_bounds(self):
        cfg = _cfg()
        kin = generate_scenario(cfg).kinematics
        assert kin.shape == (cfg.n_steps, cfg.n_vehicles, 4)
        assert kin.dtype == np.float64
        assert ((kin[..., :2] >= 0.0) & (kin[..., :2] <= cfg.region_side)).all()
        assert (np.abs(kin[..., 2:]) <= cfg.v_max).all()

    def test_vehicle_track_is_column_track(self):
        cfg = _cfg()
        scen = generate_scenario(cfg)
        for v in range(cfg.n_vehicles):
            steps, kin = scen.vehicle_track(v)
            assert steps.dtype == np.int64
            assert steps.tolist() == list(range(cfg.n_steps))
            assert kin.tobytes() == scen.kinematics[:, v].tobytes()

    def test_ego_is_never_an_attacker(self):
        for seed in range(10):
            scen = generate_scenario(_cfg(penetration=1.0, rng_seed=seed))
            assert scen.attacker_types[0] is AttackerType.GENUINE

    def test_attacker_count_matches_ceiling(self):
        scen = generate_scenario(_cfg(n_vehicles=5, penetration=0.25))
        attackers = [v for v, t in scen.attacker_types.items() if t is not AttackerType.GENUINE]
        assert len(attackers) == 1

    def test_round_robin_covers_all_classes(self):
        scen = generate_scenario(_cfg(n_vehicles=6, penetration=1.0))
        got = [scen.attacker_types[v] for v in sorted(scen.attacker_types) if v != 0]
        assert got == list(ATTACK_CLASSES)

    def test_zero_penetration_all_genuine(self):
        scen = generate_scenario(_cfg(penetration=0.0))
        assert all(t is AttackerType.GENUINE for t in scen.attacker_types.values())

    def test_bit_identical_across_runs(self):
        a = generate_scenario(_cfg(rng_seed=11))
        b = generate_scenario(_cfg(rng_seed=11))
        assert a.attacker_types == b.attacker_types
        assert a.kinematics.tobytes() == b.kinematics.tobytes()

    def test_different_seeds_differ(self):
        a = generate_scenario(_cfg(rng_seed=1))
        b = generate_scenario(_cfg(rng_seed=2))
        assert not np.array_equal(a.kinematics, b.kinematics)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            generate_scenario(_cfg(n_vehicles=1))
        with pytest.raises(ValueError):
            generate_scenario(_cfg(penetration=1.5))
        with pytest.raises(ValueError):
            generate_scenario(_cfg(dt=0.0))


# The per-vehicle scalar stepping the array version replaced: one vehicle and
# one step at a time with Python min/max and branches. Kept as the reference
# generate_scenario must reproduce byte for byte.
def _reference_step(state, cfg, rng):
    px, py, sx, sy = state
    ax, ay = rng.normal(0.0, cfg.accel_sigma, size=2)
    sx = min(max(sx + ax * cfg.dt, -cfg.v_max), cfg.v_max)
    sy = min(max(sy + ay * cfg.dt, -cfg.v_max), cfg.v_max)
    px = px + sx * cfg.dt
    py = py + sy * cfg.dt
    r = cfg.region_side
    if px < 0.0:
        px, sx = 0.0, -sx
    elif px > r:
        px, sx = r, -sx
    if py < 0.0:
        py, sy = 0.0, -sy
    elif py > r:
        py, sy = r, -sy
    return px, py, sx, sy


def _reference_scenario(cfg):
    """(kinematics (steps, n, 4), attacker types) as the scalar generator built them."""
    rng = np.random.default_rng(cfg.rng_seed)
    n = cfg.n_vehicles
    current = []
    for _ in range(n):
        px, py = rng.uniform(0.0, cfg.region_side, size=2)
        sx, sy = rng.uniform(-cfg.v_max, cfg.v_max, size=2)
        current.append((float(px), float(py), float(sx), float(sy)))
    types = {v: AttackerType.GENUINE for v in range(n)}
    k = attacker_count(cfg.penetration, n)
    if k:
        chosen = sorted(int(v) for v in rng.choice(np.arange(1, n), size=k, replace=False))
        for idx, v in enumerate(chosen):
            types[v] = ATTACK_CLASSES[idx % len(ATTACK_CLASSES)]
    rows = [current]
    for _ in range(1, cfg.n_steps):
        current = [_reference_step(s, cfg, rng) for s in current]
        rows.append(current)
    return np.array(rows, dtype=float), types


class TestMatchesScalarStepping:
    @pytest.mark.parametrize("profile,n_vehicles", [("desk", 4), ("paper", 10), ("paper", 20)])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_profile_scenarios_byte_equal(self, profile, n_vehicles, seed):
        base = config_from_kv({}, profile=profile).scenario
        cfg = replace(base, n_vehicles=n_vehicles, penetration=0.75, rng_seed=seed)
        scen = generate_scenario(cfg)
        kin, types = _reference_scenario(cfg)
        assert scen.attacker_types == types
        assert scen.kinematics.shape == kin.shape
        assert scen.kinematics.tobytes() == kin.tobytes()

    @pytest.mark.parametrize("seed", [1, 5])
    def test_reflections_at_both_bounds_byte_equal(self, seed):
        """A 60 m region crossed at up to 40 m/s: every vehicle hits walls."""
        cfg = _cfg(n_vehicles=6, n_steps=200, region_side=60.0, accel_sigma=8.0, rng_seed=seed)
        kin, _ = _reference_scenario(cfg)
        pos = kin[..., :2]
        assert (pos == 0.0).sum() > 20 and (pos == cfg.region_side).sum() > 20  # both bounds, many times
        assert ((pos[..., 0] == 0.0).any() and (pos[..., 0] == cfg.region_side).any()
                and (pos[..., 1] == 0.0).any() and (pos[..., 1] == cfg.region_side).any())
        assert generate_scenario(cfg).kinematics.tobytes() == kin.tobytes()
