"""Channel, kinematics, and scenario-generation contracts."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fltp.trace import (
    ATTACK_CLASSES,
    AttackerType,
    ChannelConfig,
    ScenarioConfig,
    VehicleState,
    attacker_count,
    delivery_time,
    generate_scenario,
    step_kinematics,
    synth_rssi,
)

SPEED_OF_LIGHT = 299_792_458.0


class TestSynthRssi:
    def _rng(self):
        return np.random.default_rng(0)

    def test_at_reference_distance_equals_tx_power(self):
        ch = ChannelConfig(tx_power_dbm=20.0, shadowing_sigma=0.0)
        assert synth_rssi(1.0, ch, self._rng()) == pytest.approx(20.0, abs=1e-12)

    def test_decade_distance_drop(self):
        ch = ChannelConfig(tx_power_dbm=20.0, path_loss_exponent=2.0, shadowing_sigma=0.0)
        assert synth_rssi(10.0, ch, self._rng()) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_value_250m(self):
        # 20 - 20*log10(250)
        ch = ChannelConfig(tx_power_dbm=20.0, path_loss_exponent=2.0, reference_distance=1.0, shadowing_sigma=0.0)
        assert synth_rssi(250.0, ch, self._rng()) == pytest.approx(-27.95880017344075, abs=1e-3)

    def test_below_reference_clamps(self):
        ch = ChannelConfig(shadowing_sigma=0.0)
        assert synth_rssi(0.01, ch, self._rng()) == synth_rssi(1.0, ch, self._rng())

    def test_monotone_decreasing_without_noise(self):
        ch = ChannelConfig(shadowing_sigma=0.0)
        rng = self._rng()
        values = [synth_rssi(d, ch, rng) for d in np.linspace(1.0, 5000.0, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shadowing_reproducible(self):
        ch = ChannelConfig(shadowing_sigma=3.0)
        a = synth_rssi(100.0, ch, np.random.default_rng(42))
        b = synth_rssi(100.0, ch, np.random.default_rng(42))
        assert a == b

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            synth_rssi(-1.0, ChannelConfig(), self._rng())


class TestDeliveryTime:
    def test_zero_distance(self):
        assert delivery_time(5.0, 0.0) == 5.0

    def test_one_light_second(self):
        assert delivery_time(0.0, SPEED_OF_LIGHT) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_300m(self):
        assert delivery_time(0.0, 300.0) == pytest.approx(1.000692285594456e-06, abs=1e-12)

    def test_custom_message_speed(self):
        assert delivery_time(1.0, 30.0, spd_msg=10.0) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("bad_spd", [0.0, -3.0])
    def test_bad_speed_rejected(self, bad_spd):
        with pytest.raises(ValueError):
            delivery_time(0.0, 1.0, spd_msg=bad_spd)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            delivery_time(0.0, -1.0)

    @given(st.floats(min_value=1.0, max_value=1e7))
    def test_linear_in_distance(self, d):
        base = delivery_time(0.0, d)
        assert delivery_time(0.0, 2.0 * d) == pytest.approx(2.0 * base, rel=1e-12)


def _cfg(**kw):
    defaults = dict(n_vehicles=4, penetration=0.5, n_steps=30, rng_seed=3)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestStepKinematics:
    def test_stationary_without_noise(self):
        cfg = _cfg(accel_sigma=0.0)
        s = VehicleState(0, 0, 500.0, 600.0, 0.0, 0.0)
        out = step_kinematics(s, cfg, np.random.default_rng(0))
        assert (out.pos_x, out.pos_y) == (500.0, 600.0)
        assert out.t == 1

    def test_straight_line_without_noise(self):
        cfg = _cfg(accel_sigma=0.0)
        s = VehicleState(0, 0, 100.0, 100.0, 10.0, 0.0)
        out = step_kinematics(s, cfg, np.random.default_rng(0))
        assert (out.pos_x, out.pos_y) == (110.0, 100.0)

    def test_reflection_at_upper_bound(self):
        cfg = _cfg(accel_sigma=0.0)
        s = VehicleState(0, 0, cfg.region_side, 50.0, 10.0, 0.0)
        out = step_kinematics(s, cfg, np.random.default_rng(0))
        assert out.pos_x <= cfg.region_side
        assert out.spd_x < 0

    def test_reflection_at_lower_bound(self):
        cfg = _cfg(accel_sigma=0.0)
        s = VehicleState(0, 0, 0.0, 50.0, -10.0, 0.0)
        out = step_kinematics(s, cfg, np.random.default_rng(0))
        assert out.pos_x >= 0.0
        assert out.spd_x > 0

    def test_speed_clamped(self):
        cfg = _cfg(accel_sigma=30.0)  # huge noise to force the clamp
        s = VehicleState(0, 0, 5000.0, 5000.0, 39.0, -39.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = step_kinematics(s, cfg, rng)
            assert abs(s.spd_x) <= cfg.v_max and abs(s.spd_y) <= cfg.v_max

    def test_bounds_hold_over_long_walk(self):
        cfg = _cfg(accel_sigma=2.0)
        s = VehicleState(0, 0, 9990.0, 3.0, 35.0, -35.0)
        rng = np.random.default_rng(9)
        for _ in range(500):
            s = step_kinematics(s, cfg, rng)
            assert 0.0 <= s.pos_x <= cfg.region_side
            assert 0.0 <= s.pos_y <= cfg.region_side


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
        scen = generate_scenario(cfg)
        assert len(scen.states) == cfg.n_steps
        for row in scen.states:
            assert len(row) == cfg.n_vehicles
            for s in row:
                assert 0.0 <= s.pos_x <= cfg.region_side
                assert 0.0 <= s.pos_y <= cfg.region_side
                assert abs(s.spd_x) <= cfg.v_max
                assert abs(s.spd_y) <= cfg.v_max

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
        assert a.states == b.states

    def test_different_seeds_differ(self):
        a = generate_scenario(_cfg(rng_seed=1))
        b = generate_scenario(_cfg(rng_seed=2))
        assert a.states != b.states

    def test_config_validation(self):
        with pytest.raises(ValueError):
            generate_scenario(_cfg(n_vehicles=1))
        with pytest.raises(ValueError):
            generate_scenario(_cfg(penetration=1.5))
        with pytest.raises(ValueError):
            generate_scenario(_cfg(dt=0.0))
