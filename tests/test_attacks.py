"""Falsification behaviours, their statistics, and the claimed-speed policy."""
import numpy as np
import pytest

from fltp.attacks import AttackerMemory, AttackParams, inject
from fltp.trace import AttackerType, VehicleState

R = 10_000.0
V_MAX = 40.0


def _params(**kw):
    return AttackParams.for_region(R, V_MAX, **kw)


def _truth(x=1000.0, y=2000.0, sx=10.0, sy=-5.0, t=3):
    return VehicleState(vehicle_id=1, t=t, pos_x=x, pos_y=y, spd_x=sx, spd_y=sy)


def _mem(x=999.0, y=1999.0):
    return AttackerMemory(x, y)


def _pos(attacker, params, rng, truth=None, memory=None):
    """Claimed position of one message."""
    return inject(attacker, truth or _truth(), memory or _mem(), params, rng)[0]


class TestGenuine:
    def test_identity(self):
        truth = _truth()
        pos, spd, mem = inject(AttackerType.GENUINE, truth, _mem(), _params(), np.random.default_rng(0))
        assert pos == (truth.pos_x, truth.pos_y)
        assert spd == (truth.spd_x, truth.spd_y)
        assert (mem.prev_x, mem.prev_y) == (truth.pos_x, truth.pos_y)


class TestConstant:
    def test_fixed_point_default_is_region_centre(self):
        assert _pos(AttackerType.CONSTANT, _params(), np.random.default_rng(0)) == (R / 2, R / 2)

    def test_independent_of_truth_and_time(self):
        p = _params(fixed_point=(123.0, 456.0))
        rng = np.random.default_rng(0)
        out1, spd1, _ = inject(AttackerType.CONSTANT, _truth(1.0, 2.0, t=0), _mem(), p, rng)
        out2, spd2, _ = inject(AttackerType.CONSTANT, _truth(9e3, 8e3, t=77), _mem(), p, rng)
        assert out1 == out2 == (123.0, 456.0)
        assert spd1 == spd2 == (0.0, 0.0)


class TestOffsets:
    def test_constant_offset_arithmetic(self):
        p = _params(fixed_offset=(50.0, -30.0))
        pos = _pos(AttackerType.CONSTANT_OFFSET, p, np.random.default_rng(0), truth=_truth(100.0, 200.0))
        assert pos == (150.0, 170.0)

    def test_zero_offset_is_identity(self):
        p = _params(fixed_offset=(0.0, 0.0))
        truth = _truth()
        pos = _pos(AttackerType.CONSTANT_OFFSET, p, np.random.default_rng(0), truth=truth)
        assert pos == (truth.pos_x, truth.pos_y)

    def test_not_clamped_to_region(self):
        p = _params(fixed_offset=(500.0, 0.0))
        pos = _pos(AttackerType.CONSTANT_OFFSET, p, np.random.default_rng(0), truth=_truth(R - 10.0, 50.0))
        assert pos[0] > R  # claimed position may leave the region

    def test_random_offset_bounds_never_violated(self):
        p = _params(random_offset_max=100.0)
        truth = _truth()
        rng = np.random.default_rng(5)
        deltas = []
        for _ in range(10_000):
            x, y = _pos(AttackerType.RANDOM_OFFSET, p, rng, truth=truth)
            deltas.append((x - truth.pos_x, y - truth.pos_y))
        deltas = np.array(deltas)
        assert np.all(np.abs(deltas) <= 100.0)
        # mean within 3 m of zero per axis (3 sigma of the sample mean is ~1.7 m)
        assert np.all(np.abs(deltas.mean(axis=0)) < 3.0)

    def test_degenerate_zero_range(self):
        p = _params(random_offset_max=0.0)
        truth = _truth()
        pos = _pos(AttackerType.RANDOM_OFFSET, p, np.random.default_rng(0), truth=truth)
        assert pos == (truth.pos_x, truth.pos_y)

    def test_speed_offset_scaled_by_vmax_over_region(self):
        p = _params(fixed_offset=(250.0, -150.0))
        truth = _truth(sx=10.0, sy=-5.0)
        _, spd, _ = inject(AttackerType.CONSTANT_OFFSET, truth, _mem(), p, np.random.default_rng(0))
        scale = V_MAX / R
        assert spd[0] == pytest.approx(10.0 + 250.0 * scale, abs=1e-12)
        assert spd[1] == pytest.approx(-5.0 - 150.0 * scale, abs=1e-12)


class TestRandom:
    def test_support_and_mean(self):
        p = _params()
        rng = np.random.default_rng(11)
        draws = np.array([_pos(AttackerType.RANDOM, p, rng) for _ in range(10_000)])
        assert np.all(draws >= 0.0) and np.all(draws <= R)
        # mean within 3 sigma of R/2: sigma_mean = R/sqrt(12)/100 ~ 28.9 m
        assert np.all(np.abs(draws.mean(axis=0) - R / 2) < 3 * R / np.sqrt(12) / 100)

    def test_consecutive_draws_differ(self):
        p = _params()
        rng = np.random.default_rng(2)
        assert _pos(AttackerType.RANDOM, p, rng) != _pos(AttackerType.RANDOM, p, rng)

    def test_speed_claim_within_vmax(self):
        p = _params()
        rng = np.random.default_rng(3)
        for _ in range(200):
            _, spd, _ = inject(AttackerType.RANDOM, _truth(), _mem(), p, rng)
            assert abs(spd[0]) <= V_MAX and abs(spd[1]) <= V_MAX


class TestEventualStop:
    def test_always_truth_when_p2_zero(self):
        p = _params(stop_probabilities=(1.0, 0.0))
        truth = _truth()
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert _pos(AttackerType.EVENTUAL_STOP, p, rng, truth=truth) == (truth.pos_x, truth.pos_y)

    def test_always_previous_when_p2_one(self):
        p = _params(stop_probabilities=(0.0, 1.0))
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert _pos(AttackerType.EVENTUAL_STOP, p, rng, memory=_mem(1.0, 2.0)) == (1.0, 2.0)

    def test_stop_frequency(self):
        p = _params(stop_probabilities=(0.7, 0.3))
        truth = _truth()
        mem = _mem()
        rng = np.random.default_rng(1234)
        hits = sum(
            _pos(AttackerType.EVENTUAL_STOP, p, rng, truth, mem) == (mem.prev_x, mem.prev_y) for _ in range(10_000)
        )
        assert abs(hits / 10_000 - 0.3) <= 0.014  # 3 sigma binomial bound

    def test_output_is_truth_or_previous(self):
        p = _params()
        truth = _truth()
        mem = _mem()
        rng = np.random.default_rng(7)
        for _ in range(200):
            out = _pos(AttackerType.EVENTUAL_STOP, p, rng, truth, mem)
            assert out in ((truth.pos_x, truth.pos_y), (mem.prev_x, mem.prev_y))

    def test_stop_branch_claims_zero_speed(self):
        p = _params(stop_probabilities=(0.0, 1.0))
        pos, spd, _ = inject(AttackerType.EVENTUAL_STOP, _truth(), _mem(1.0, 2.0), p, np.random.default_rng(0))
        assert pos == (1.0, 2.0)
        assert spd == (0.0, 0.0)

    def test_truth_branch_claims_truth_speed(self):
        p = _params(stop_probabilities=(1.0, 0.0))
        truth = _truth()
        pos, spd, _ = inject(AttackerType.EVENTUAL_STOP, truth, _mem(), p, np.random.default_rng(0))
        assert pos == (truth.pos_x, truth.pos_y)
        assert spd == (truth.spd_x, truth.spd_y)


class TestMemoryAndDeterminism:
    def test_memory_always_advances_to_truth(self):
        p = _params()
        truth = _truth(777.0, 888.0)
        for attacker in AttackerType:
            _, _, mem = inject(attacker, truth, _mem(), p, np.random.default_rng(0))
            assert (mem.prev_x, mem.prev_y) == (777.0, 888.0)

    def test_streams_reproducible(self):
        p = _params()
        truth = _truth()
        for attacker in AttackerType:
            a = inject(attacker, truth, _mem(), p, np.random.default_rng(99))[:2]
            b = inject(attacker, truth, _mem(), p, np.random.default_rng(99))[:2]
            assert a == b


class TestParamsValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            _params(stop_probabilities=(0.5, 0.6))

    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            _params(stop_probabilities=(1.5, -0.5))

    def test_negative_offset_range_rejected(self):
        with pytest.raises(ValueError):
            _params(random_offset_max=-1.0)
