"""Falsification behaviours, their statistics, and the claimed-speed policy."""
import numpy as np
import pytest

from fltp.attacks import AttackParams, inject
from fltp.trace import AttackerType

R = 10_000.0
V_MAX = 40.0


def _params(**kw):
    return AttackParams(R, V_MAX, **kw)


def _truth(x=1000.0, y=2000.0, sx=10.0, sy=-5.0, n=1):
    """A track of n steps that all hold the same truth, (n, 4)."""
    return np.tile((x, y, sx, sy), (n, 1))


def _moving(n, sx=10.0, sy=-5.0):
    """A track of n steps whose position changes at every step, (n, 4)."""
    t = np.arange(n, dtype=float)
    return np.column_stack([1000.0 + 3.0 * t, 2000.0 - 2.0 * t, np.full(n, sx), np.full(n, sy)])


def _pos(attacker, params, rng, truth=None):
    """Claimed positions of a track, (n, 2)."""
    return inject(attacker, _truth() if truth is None else truth, params, rng)[:, :2]


def _reference_inject(attacker, truth, memory, params, rng):
    """The per-message injector: (claimed_pos, claimed_spd, memory) for one
    message, where truth is one (pos_x, pos_y, spd_x, spd_y) row and memory
    the previous message's true position (the spawn position at step 0)."""
    pos_x, pos_y, spd_x, spd_y = truth
    speed_scale = params.v_max / params.region_side
    if attacker is AttackerType.GENUINE:
        pos = (pos_x, pos_y)
        spd = (spd_x, spd_y)
    elif attacker is AttackerType.CONSTANT:
        centre = params.region_side / 2
        pos = tuple(centre if c is None else c for c in (params.fixed_x, params.fixed_y))
        spd = (0.0, 0.0)
    elif attacker in (AttackerType.CONSTANT_OFFSET, AttackerType.RANDOM_OFFSET):
        if attacker is AttackerType.CONSTANT_OFFSET:
            dx, dy = params.offset_x, params.offset_y
        else:
            dx, dy = map(float, rng.uniform(-params.random_offset_max, params.random_offset_max, size=2))
        pos = (pos_x + dx, pos_y + dy)
        spd = (spd_x + dx * speed_scale, spd_y + dy * speed_scale)
    elif attacker is AttackerType.RANDOM:
        x, y = rng.uniform(0.0, params.region_side, size=2)
        sx, sy = rng.uniform(-params.v_max, params.v_max, size=2)
        pos = (float(x), float(y))
        spd = (float(sx), float(sy))
    elif attacker is AttackerType.EVENTUAL_STOP:
        if rng.random() < params.stop_probability:
            pos = memory
            spd = (0.0, 0.0)
        else:
            pos = (pos_x, pos_y)
            spd = (spd_x, spd_y)
    else:
        raise ValueError(f"unknown attacker type: {attacker!r}")
    return pos, spd, (pos_x, pos_y)


def _reference_track(attacker, truth, params, rng):
    """One _reference_inject call per step of a (L, 4) track, packed (L, 4)."""
    rows = truth.tolist()
    memory = tuple(rows[0][:2])
    claims = []
    for row in rows:
        pos, spd, memory = _reference_inject(attacker, row, memory, params, rng)
        claims.append((*pos, *spd))
    return np.array(claims, dtype=float).reshape(-1, 4)


class TestMatchesPerMessageInjector:
    @pytest.mark.parametrize("p2", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("length", [1, 100])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("attacker", list(AttackerType), ids=lambda a: a.name)
    def test_column_equals_message_loop(self, attacker, seed, length, p2):
        p = _params(stop_probability=p2)
        walk = np.random.default_rng(seed)
        truth = np.column_stack(
            [
                np.cumsum(walk.uniform(-40.0, 40.0, size=(length, 2)), axis=0) + R / 2,
                walk.uniform(-V_MAX, V_MAX, size=(length, 2)),
            ]
        )
        got = inject(attacker, truth, p, np.random.default_rng(seed + 1))
        want = _reference_track(attacker, truth, p, np.random.default_rng(seed + 1))
        assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.float64, (length, 4))
        assert got.tobytes() == want.tobytes()

    def test_strided_truth_column(self):
        """A sender's column of a (steps, n, 4) array is a strided view."""
        kinematics = np.random.default_rng(3).uniform(0.0, R, size=(50, 3, 4))
        for attacker in AttackerType:
            got = inject(attacker, kinematics[:, 1], _params(), np.random.default_rng(4))
            want = _reference_track(attacker, kinematics[:, 1], _params(), np.random.default_rng(4))
            assert got.tobytes() == want.tobytes()

    def test_unknown_attacker_rejected(self):
        with pytest.raises(ValueError, match="unknown attacker type"):
            inject(6, _truth(), _params(), np.random.default_rng(0))


class TestGenuine:
    def test_identity(self):
        truth = _moving(5)
        claims = inject(AttackerType.GENUINE, truth, _params(), np.random.default_rng(0))
        assert claims.tobytes() == truth.tobytes()
        assert not np.shares_memory(claims, truth)


class TestConstant:
    def test_fixed_point_default_is_region_centre(self):
        assert _pos(AttackerType.CONSTANT, _params(), np.random.default_rng(0)).tolist() == [[R / 2, R / 2]]

    def test_independent_of_truth_and_time(self):
        p = _params(fixed_x=123.0, fixed_y=456.0)
        truth = np.vstack([_truth(1.0, 2.0), _truth(9e3, 8e3)])
        claims = inject(AttackerType.CONSTANT, truth, p, np.random.default_rng(0))
        assert claims.tolist() == [[123.0, 456.0, 0.0, 0.0]] * 2

    def test_axis_left_none_is_region_centre(self):
        assert _pos(AttackerType.CONSTANT, _params(fixed_x=123.0), np.random.default_rng(0)).tolist() == [[123.0, R / 2]]
        assert _pos(AttackerType.CONSTANT, _params(fixed_y=456.0), np.random.default_rng(0)).tolist() == [[R / 2, 456.0]]


class TestOffsets:
    def test_constant_offset_arithmetic(self):
        p = _params(offset_x=50.0, offset_y=-30.0)
        pos = _pos(AttackerType.CONSTANT_OFFSET, p, np.random.default_rng(0), truth=_truth(100.0, 200.0))
        assert pos.tolist() == [[150.0, 170.0]]

    def test_zero_offset_is_identity(self):
        p = _params(offset_x=0.0, offset_y=0.0)
        truth = _moving(3)
        pos = _pos(AttackerType.CONSTANT_OFFSET, p, np.random.default_rng(0), truth=truth)
        assert (pos == truth[:, :2]).all()

    def test_not_clamped_to_region(self):
        p = _params(offset_x=500.0, offset_y=0.0)
        pos = _pos(AttackerType.CONSTANT_OFFSET, p, np.random.default_rng(0), truth=_truth(R - 10.0, 50.0))
        assert pos[0, 0] > R  # claimed position may leave the region

    def test_random_offset_bounds_never_violated(self):
        p = _params(random_offset_max=100.0)
        truth = _truth(n=10_000)
        deltas = _pos(AttackerType.RANDOM_OFFSET, p, np.random.default_rng(5), truth=truth) - truth[:, :2]
        assert np.all(np.abs(deltas) <= 100.0)
        # mean within 3 m of zero per axis (3 sigma of the sample mean is ~1.7 m)
        assert np.all(np.abs(deltas.mean(axis=0)) < 3.0)

    def test_degenerate_zero_range(self):
        p = _params(random_offset_max=0.0)
        truth = _moving(3)
        pos = _pos(AttackerType.RANDOM_OFFSET, p, np.random.default_rng(0), truth=truth)
        assert (pos == truth[:, :2]).all()

    def test_speed_offset_scaled_by_vmax_over_region(self):
        p = _params(offset_x=250.0, offset_y=-150.0)
        claims = inject(AttackerType.CONSTANT_OFFSET, _truth(sx=10.0, sy=-5.0), p, np.random.default_rng(0))
        scale = V_MAX / R
        assert claims[0, 2] == pytest.approx(10.0 + 250.0 * scale, abs=1e-12)
        assert claims[0, 3] == pytest.approx(-5.0 - 150.0 * scale, abs=1e-12)


class TestRandom:
    def test_support_and_mean(self):
        draws = _pos(AttackerType.RANDOM, _params(), np.random.default_rng(11), truth=_truth(n=10_000))
        assert np.all(draws >= 0.0) and np.all(draws <= R)
        # mean within 3 sigma of R/2: sigma_mean = R/sqrt(12)/100 ~ 28.9 m
        assert np.all(np.abs(draws.mean(axis=0) - R / 2) < 3 * R / np.sqrt(12) / 100)

    def test_consecutive_draws_differ(self):
        pos = _pos(AttackerType.RANDOM, _params(), np.random.default_rng(2), truth=_truth(n=2))
        assert pos[0].tolist() != pos[1].tolist()

    def test_speed_claim_within_vmax(self):
        claims = inject(AttackerType.RANDOM, _truth(n=200), _params(), np.random.default_rng(3))
        assert np.all(np.abs(claims[:, 2:]) <= V_MAX)


class TestEventualStop:
    def test_always_truth_when_p2_zero(self):
        p = _params(stop_probability=0.0)
        truth = _moving(100)
        claims = inject(AttackerType.EVENTUAL_STOP, truth, p, np.random.default_rng(0))
        assert (claims[:, :2] == truth[:, :2]).all()

    def test_always_previous_when_p2_one(self):
        """The stop branch replays row t−1's truth; row 0 replays itself."""
        p = _params(stop_probability=1.0)
        truth = _moving(100)
        pos = _pos(AttackerType.EVENTUAL_STOP, p, np.random.default_rng(0), truth=truth)
        assert (pos[1:] == truth[:-1, :2]).all()
        assert (pos[0] == truth[0, :2]).all()

    def test_stop_frequency(self):
        p = _params(stop_probability=0.3)
        claims = inject(AttackerType.EVENTUAL_STOP, _moving(10_000), p, np.random.default_rng(1234))
        hits = np.all(claims[:, 2:] == 0.0, axis=1).sum()  # the truth speed is never (0, 0)
        assert abs(hits / 10_000 - 0.3) <= 0.014  # 3 sigma binomial bound

    def test_output_is_truth_or_previous(self):
        truth = _moving(200)
        pos = _pos(AttackerType.EVENTUAL_STOP, _params(), np.random.default_rng(7), truth=truth)
        previous = np.vstack([truth[:1, :2], truth[:-1, :2]])
        assert np.all(np.all(pos == truth[:, :2], axis=1) | np.all(pos == previous, axis=1))

    def test_stop_branch_claims_zero_speed(self):
        p = _params(stop_probability=1.0)
        truth = np.vstack([_truth(1.0, 2.0), _truth()])
        claims = inject(AttackerType.EVENTUAL_STOP, truth, p, np.random.default_rng(0))
        assert claims[1].tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_truth_branch_claims_truth_speed(self):
        p = _params(stop_probability=0.0)
        truth = _moving(3)
        claims = inject(AttackerType.EVENTUAL_STOP, truth, p, np.random.default_rng(0))
        assert claims.tobytes() == truth.tobytes()


class TestMemoryAndDeterminism:
    def test_memory_always_advances_to_truth(self):
        """A replay at step t is row t−1's truth, never what t−1 claimed."""
        p = _params(stop_probability=1.0)
        truth = _moving(4)
        claims = inject(AttackerType.EVENTUAL_STOP, truth, p, np.random.default_rng(0))
        assert claims[:, :2].tolist() == truth[[0, 0, 1, 2], :2].tolist()
        assert claims[2, :2].tolist() != claims[1, :2].tolist()

    def test_streams_reproducible(self):
        p = _params()
        truth = _moving(20)
        for attacker in AttackerType:
            a = inject(attacker, truth, p, np.random.default_rng(99))
            b = inject(attacker, truth, p, np.random.default_rng(99))
            assert a.tobytes() == b.tobytes()


class TestParamsValidation:
    def test_probabilities_must_be_in_unit_interval(self):
        for p2 in (1.5, -0.5):
            with pytest.raises(ValueError, match="stop probability"):
                _params(stop_probability=p2)

    def test_negative_offset_range_rejected(self):
        with pytest.raises(ValueError):
            _params(random_offset_max=-1.0)
