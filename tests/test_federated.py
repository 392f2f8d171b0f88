"""Attack-aware weighting, gate, aggregation, and round orchestration."""
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fltp.model
from fltp import federated
from fltp.config import config_from_kv
from fltp.experiment import build_cell_data
from fltp.features import NormalizationSpec
from fltp.federated import (
    AggregationMode,
    CLEANLINESS_FLOOR,
    METHODS,
    EvalSet,
    GateConfig,
    GateStrategy,
    InfluenceTable,
    LocalUpdate,
    VehicleData,
    aggregate,
    decide_mode,
    evaluate_global,
    mre_weights,
    run_flt_round,
    save_checkpoint,
)
from fltp.metrics import RoundReport, attack_judgments, prediction_accuracy, prediction_error
from fltp.model import PREDICT_CHUNK, ModelParams, TrainConfig, flat_length, forward, load_params, loss, train_local
from fltp.seeding import TAG_GATE, TAG_INIT, TAG_TRAIN, derive_rng
from fltp.trace import AttackerType
from forking import pid_spy, set_cpus

NORM = NormalizationSpec(region_side=10_000.0, v_max=40.0, rssi_min=-100.0, rssi_max=-40.0)


def _update(vid, counts, total, params=None):
    if params is None:
        params = np.zeros(3)
    return LocalUpdate(vid, np.asarray(params, dtype=float), counts, total)


def _vehicle(vid, n, codes=0, seed=0):
    rng = np.random.default_rng(seed + vid)
    feats = rng.uniform(0.0, 1.0, size=(n, 10, 9))
    labels = rng.uniform(0.0, 1.0, size=(n, 5, 3))
    labels[:, :, 2] = np.broadcast_to(np.asarray(codes, dtype=float), (n,))[:, None]
    return VehicleData(vid, feats, labels)


def _eval_set(codes, n_per=2, seed=99):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for code in codes:
        f = rng.uniform(0.0, 1.0, size=(n_per, 10, 9))
        y = rng.uniform(0.0, 1.0, size=(n_per, 5, 3))
        y[:, :, 2] = float(code)
        feats.append(f)
        labels.append(y)
    return EvalSet(np.concatenate(feats), np.concatenate(labels))


class TestMreWeights:
    def test_two_vehicle_worked_example(self):
        # clean 0/100 vs half-attacked 50/100 at full influence -> 2/3 vs 1/3
        ups = [_update(0, {}, 100), _update(1, {int(AttackerType.CONSTANT): 50}, 100)]
        w = mre_weights(ups, InfluenceTable(constant=1.0))
        assert abs(w[0] - 2.0 / 3.0) <= 1e-12
        assert abs(w[1] - 1.0 / 3.0) <= 1e-12

    def test_influence_scales_attacked_fraction(self):
        ups = [
            _update(0, {int(AttackerType.CONSTANT_OFFSET): 40}, 120),  # 1 - 0.8*40/120
            _update(1, {int(AttackerType.RANDOM): 30}, 120),  # 1 - 1.0*30/120
        ]
        w = mre_weights(ups, InfluenceTable())
        e0 = 1.0 - 0.8 * 40 / 120
        e1 = 1.0 - 30 / 120
        np.testing.assert_allclose(w, [e0 / (e0 + e1), e1 / (e0 + e1)], rtol=0, atol=1e-15)

    def test_zero_influence_gives_exact_uniform(self):
        ups = [_update(k, {1: 10 * k}, 50) for k in range(3)]
        w = mre_weights(ups, InfluenceTable(0.0, 0.0, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(w, np.full(3, 1.0 / 3.0))

    def test_fully_attacked_clamped_at_floor(self):
        ups = [_update(0, {}, 10), _update(1, {int(AttackerType.RANDOM): 10}, 10)]
        w = mre_weights(ups, InfluenceTable())
        assert w[1] > 0.0
        assert w[1] == pytest.approx(CLEANLINESS_FLOOR / (1.0 + CLEANLINESS_FLOOR), rel=1e-9)

    def test_overweight_influence_clamped(self):
        table = InfluenceTable(constant=5.0)
        ups = [_update(0, {}, 10), _update(1, {int(AttackerType.CONSTANT): 10}, 10)]
        w = mre_weights(ups, table)
        assert w[1] == pytest.approx(CLEANLINESS_FLOOR / (1.0 + CLEANLINESS_FLOOR), rel=1e-9)

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(1, 40)),
            min_size=1,
            max_size=6,
        )
    )
    def test_is_probability_vector(self, raw):
        ups = []
        for vid, (a, b, extra) in enumerate(raw):
            total = a + b + extra
            ups.append(_update(vid, {1: a, 4: b}, total))
        w = mre_weights(ups, InfluenceTable())
        assert w.shape == (len(ups),)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-12

    def test_scale_invariance(self):
        small = [_update(0, {1: 5}, 20), _update(1, {3: 2}, 20)]
        large = [_update(0, {1: 50}, 200), _update(1, {3: 20}, 200)]
        np.testing.assert_allclose(
            mre_weights(small, InfluenceTable()), mre_weights(large, InfluenceTable()), rtol=0, atol=1e-15
        )

    def test_monotone_in_attacked_count(self):
        base = _update(0, {}, 100)
        prev = 1.0
        for attacked in (0, 10, 30, 60, 100):
            w = mre_weights([base, _update(1, {1: attacked}, 100)], InfluenceTable())
            assert w[1] <= prev + 1e-15
            prev = w[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mre_weights([], InfluenceTable())


class TestLocalUpdateValidation:
    def test_zero_total(self):
        with pytest.raises(ValueError):
            _update(0, {}, 0)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            _update(0, {1: -1}, 10)

    def test_counts_exceed_total(self):
        with pytest.raises(ValueError):
            _update(0, {1: 6, 3: 5}, 10)


class TestDecideMode:
    def test_accuracy_gate_below_threshold(self):
        gate = GateConfig(GateStrategy.ACCURACY, 0.2)
        assert decide_mode(gate, 0.0, derive_rng(0)) is AggregationMode.UNIFORM_AVERAGE
        assert decide_mode(gate, 0.19999, derive_rng(0)) is AggregationMode.UNIFORM_AVERAGE

    def test_accuracy_gate_boundary_is_weighted(self):
        gate = GateConfig(GateStrategy.ACCURACY, 0.2)
        assert decide_mode(gate, 0.2, derive_rng(0)) is AggregationMode.MRE_WEIGHTED
        assert decide_mode(gate, 0.9, derive_rng(0)) is AggregationMode.MRE_WEIGHTED

    def test_zero_threshold_always_weighted(self):
        gate = GateConfig(GateStrategy.ACCURACY, 0.0)
        assert decide_mode(gate, 0.0, derive_rng(0)) is AggregationMode.MRE_WEIGHTED

    def test_random_gate_extremes(self):
        rng = derive_rng(42)
        assert all(
            decide_mode(GateConfig(GateStrategy.RANDOM, 0.0), 0.5, rng) is AggregationMode.MRE_WEIGHTED
            for _ in range(100)
        )
        assert all(
            decide_mode(GateConfig(GateStrategy.RANDOM, 1.0), 0.5, rng) is AggregationMode.UNIFORM_AVERAGE
            for _ in range(100)
        )

    def test_random_gate_frequency(self):
        gate = GateConfig(GateStrategy.RANDOM, 0.3)
        rng = derive_rng(7)
        hits = sum(
            decide_mode(gate, 0.9, rng) is AggregationMode.UNIFORM_AVERAGE for _ in range(4000)
        )
        assert abs(hits / 4000 - 0.3) < 0.03  # > 4 sigma

    def test_random_gate_reproducible(self):
        gate = GateConfig(GateStrategy.RANDOM, 0.5)
        seq_a = [decide_mode(gate, 0.9, derive_rng(11, k)) for k in range(20)]
        seq_b = [decide_mode(gate, 0.9, derive_rng(11, k)) for k in range(20)]
        assert seq_a == seq_b

    def test_validation(self):
        with pytest.raises(ValueError):
            decide_mode(GateConfig(threshold=1.5), 0.5, derive_rng(0))
        with pytest.raises(ValueError):
            decide_mode(GateConfig(), 1.5, derive_rng(0))


class TestAggregate:
    def test_hand_case(self):
        ups = [_update(0, {}, 1, [1.0, 2.0]), _update(1, {}, 1, [4.0, 6.0])]
        np.testing.assert_array_equal(aggregate(ups, [0.5, 0.5]), [2.5, 4.0])

    def test_weighted_hand_case(self):
        ups = [_update(0, {}, 1, [1.0, 2.0]), _update(1, {}, 1, [4.0, 6.0])]
        np.testing.assert_allclose(aggregate(ups, [0.75, 0.25]), [1.75, 3.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4])
    def test_uniform_identity_bitwise_dyadic(self, n):
        p = np.random.default_rng(3).standard_normal(40)
        ups = [_update(k, {}, 1, p) for k in range(n)]
        np.testing.assert_array_equal(aggregate(ups, np.full(n, 1.0 / n)), p)

    def test_uniform_identity_close_any_n(self):
        p = np.random.default_rng(4).standard_normal(40)
        ups = [_update(k, {}, 1, p) for k in range(5)]
        np.testing.assert_allclose(aggregate(ups, np.full(5, 0.2)), p, rtol=1e-14, atol=0)

    def test_permutation_bitwise_invariant(self):
        rng = np.random.default_rng(5)
        params = [rng.standard_normal(30) for _ in range(4)]
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        ups = [_update(k, {}, 1, params[k]) for k in range(4)]
        ref = aggregate(ups, weights)
        for perm in ([3, 1, 0, 2], [2, 3, 0, 1], [1, 0, 3, 2]):
            shuffled = aggregate([ups[i] for i in perm], weights[perm])
            np.testing.assert_array_equal(shuffled, ref)

    def test_weight_sum_checked(self):
        ups = [_update(0, {}, 1, [1.0]), _update(1, {}, 1, [2.0])]
        with pytest.raises(ValueError):
            aggregate(ups, [0.5, 0.6])

    def test_duplicate_ids_rejected(self):
        ups = [_update(0, {}, 1, [1.0]), _update(0, {}, 1, [2.0])]
        with pytest.raises(ValueError):
            aggregate(ups, [0.5, 0.5])

    def test_length_mismatches_rejected(self):
        ups = [_update(0, {}, 1, [1.0]), _update(1, {}, 1, [2.0])]
        with pytest.raises(ValueError):
            aggregate(ups, [1.0])
        ragged = [_update(0, {}, 1, [1.0, 2.0]), _update(1, {}, 1, [3.0])]
        with pytest.raises(ValueError):
            aggregate(ragged, [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])


class TestEvaluateGlobal:
    def test_per_type_keys_ascending_codes_present(self):
        codes = [5, 0, 3, 3, 5, 1]
        labels = np.zeros((len(codes), 5, 3))
        labels[:, :, 2] = np.array(codes, dtype=float)[:, None]
        es = EvalSet(np.random.default_rng(2).uniform(0.0, 1.0, size=(len(codes), 10, 9)), labels)
        _, _, per_type, _ = evaluate_global(ModelParams.view(np.zeros(flat_length(4)), 4), es, NORM)
        assert list(per_type) == [0, 1, 3, 5]
        assert per_type[0] == 1.0 and per_type[5] == 0.0

    def test_zero_model_hand_metrics(self):
        n_per = 2
        rng = np.random.default_rng(1)
        feats = rng.uniform(0.0, 1.0, size=(2 * n_per, 10, 9))
        labels = np.empty((2 * n_per, 5, 3))
        labels[:, :, 0] = 0.3
        labels[:, :, 1] = 0.3
        labels[:n_per, :, 2] = 0.0
        labels[n_per:, :, 2] = 3.0
        es = EvalSet(feats, labels)
        err, acc, per_type, loss_value = evaluate_global(ModelParams.view(np.zeros(flat_length(4)), 4), es, NORM)
        assert err == pytest.approx(3000.0 * np.sqrt(2.0), rel=1e-12)
        assert acc == 0.5
        assert per_type == {0: 1.0, 3: 0.0}
        assert all(type(code) is int for code in per_type)
        # per sample: 10 position residuals of 0.09 plus five code residuals
        assert loss_value == pytest.approx((0.9 + 0.9 + 45.9 + 45.9) / 4, rel=1e-12)

    def test_empty_eval_set_rejected(self):
        es = EvalSet(np.zeros((0, 10, 9)), np.zeros((0, 5, 3)))
        with pytest.raises(ValueError):
            evaluate_global(ModelParams.view(np.zeros(flat_length(4)), 4), es, NORM)


class TestVehicleData:
    def test_attack_histogram(self):
        rng = np.random.default_rng(0)
        labels = rng.uniform(0.0, 1.0, size=(7, 5, 3))
        labels[:, :, 2] = np.array([0, 0, 1, 3, 3, 3, 5])[:, None]
        vd = VehicleData(0, rng.uniform(size=(7, 10, 9)), labels)
        assert vd.attack_histogram() == {1: 1, 2: 0, 3: 3, 4: 0, 5: 1}
        assert vd.n_samples == 7


def _round_kwargs(seed=123, **overrides):
    kw = dict(
        round_idx=1,
        prev_accuracy=0.0,
        gate=GateConfig(),
        influence=InfluenceTable(),
        train=TrainConfig(hidden_size=4, learning_rate=1e-3, batch_size=8, local_episodes=2),
        norm=NORM,
        seed=seed,
    )
    kw.update(overrides)
    return kw


def _fedavg_round(global_params, vehicles, eval_set, **kwargs):
    """fed-avg's round as its METHODS entry runs it: run_flt_round with no
    gate."""
    return run_flt_round(
        global_params,
        vehicles,
        eval_set,
        prev_accuracy=0.0,
        gate=None,
        influence=InfluenceTable(),
        **kwargs,
    )


class TestRunRound:
    def test_deterministic(self):
        vehicles = [_vehicle(0, 8), _vehicle(1, 8, codes=1)]
        es = _eval_set([0, 1])
        p0 = ModelParams.init(4, derive_rng(9))
        a_params, a_rep = run_flt_round(p0, vehicles, es, **_round_kwargs())
        b_params, b_rep = run_flt_round(p0, vehicles, es, **_round_kwargs())
        np.testing.assert_array_equal(a_params.flatten(), b_params.flatten())
        assert (a_rep.prediction_error, a_rep.prediction_accuracy, a_rep.loss) == (
            b_rep.prediction_error,
            b_rep.prediction_accuracy,
            b_rep.loss,
        )
        assert a_rep.lambdas == b_rep.lambdas

    def test_vehicle_order_irrelevant(self):
        vehicles = [_vehicle(0, 8), _vehicle(1, 8, codes=1)]
        es = _eval_set([0, 1])
        p0 = ModelParams.init(4, derive_rng(9))
        a_params, _ = run_flt_round(p0, vehicles, es, **_round_kwargs())
        b_params, _ = run_flt_round(p0, list(reversed(vehicles)), es, **_round_kwargs())
        np.testing.assert_array_equal(a_params.flatten(), b_params.flatten())

    def test_identical_vehicles_match_single_local_training(self):
        """Round 1 averages the two vehicles' train_local results, each drawn
        from its derived stream (seed, TAG_TRAIN, round, vehicle), in
        aggregate's order, bit for bit."""
        base = _vehicle(0, 8)
        twin = VehicleData(1, base.features.copy(), base.labels.copy())
        es = _eval_set([0])
        p0 = ModelParams.init(4, derive_rng(10))
        seed = 77
        new_global, rep = run_flt_round(p0, [twin, base], es, **_round_kwargs(seed=seed))
        assert rep.mode == "uniform"  # round 1: no accuracy yet
        solos = [
            LocalUpdate(
                vd.vehicle_id,
                train_local(
                    p0,
                    vd.features,
                    vd.labels,
                    episodes=2,
                    batch_size=8,
                    learning_rate=1e-3,
                    momentum=0.5,
                    rng=derive_rng(seed, TAG_TRAIN, 1, vd.vehicle_id),
                )[0].flatten(),
                vd.attack_histogram(),
                vd.n_samples,
            )
            for vd in (base, twin)
        ]
        np.testing.assert_array_equal(new_global.flatten(), aggregate(solos, [0.5, 0.5]))

    def test_gate_switches_mode_and_lambdas(self):
        vehicles = [_vehicle(0, 8), _vehicle(1, 8, codes=1)]
        es = _eval_set([0, 1])
        p0 = ModelParams.init(4, derive_rng(11))
        _, rep_cold = run_flt_round(p0, vehicles, es, **_round_kwargs(prev_accuracy=0.0))
        assert rep_cold.mode == "uniform"
        assert rep_cold.lambdas == (0.5, 0.5)
        _, rep_warm = run_flt_round(p0, vehicles, es, **_round_kwargs(prev_accuracy=0.9))
        assert rep_warm.mode == "mre"
        # vehicle 1's stream is fully attacked at influence 1 -> floor weight
        assert rep_warm.lambdas[0] > 0.99
        assert rep_warm.lambdas[1] < 1e-5

    def test_fedavg_equals_zero_influence_flt(self):
        vehicles = [_vehicle(0, 8), _vehicle(1, 8, codes=2)]
        es = _eval_set([0, 2])
        train = TrainConfig(hidden_size=4, learning_rate=1e-3, batch_size=8, local_episodes=1)
        p_avg = p_flt = ModelParams.init(4, derive_rng(12))
        for r in range(1, 4):
            p_avg, rep_avg = _fedavg_round(p_avg, vehicles, es, round_idx=r, train=train, norm=NORM, seed=55)
            p_flt, rep_flt = run_flt_round(
                p_flt,
                vehicles,
                es,
                round_idx=r,
                prev_accuracy=rep_flt.prediction_accuracy if r > 1 else 0.0,
                gate=GateConfig(),
                influence=InfluenceTable(0.0, 0.0, 0.0, 0.0, 0.0),
                train=train,
                norm=NORM,
                seed=55,
            )
            np.testing.assert_array_equal(p_avg.flatten(), p_flt.flatten())
            assert rep_avg.prediction_error == rep_flt.prediction_error
            assert rep_avg.prediction_accuracy == rep_flt.prediction_accuracy
            assert rep_avg.loss == rep_flt.loss

    def test_fedavg_gate_is_uniform_at_full_accuracy(self):
        # an accuracy gate at threshold 1.0 would pick mre here: 1.0 < 1.0 is false
        assert not METHODS["fed-avg"].gated and not METHODS["centralized"].gated
        rng = derive_rng(123, TAG_GATE, 1)
        state = rng.bit_generator.state
        assert decide_mode(None, 1.0, rng) is AggregationMode.UNIFORM_AVERAGE
        assert rng.bit_generator.state == state  # no draw
        vehicles = [_vehicle(0, 8), _vehicle(1, 8, codes=1), _vehicle(2, 8, codes=3)]
        es = _eval_set([0, 1, 3])
        p0 = ModelParams.init(4, derive_rng(17))
        _, rep = run_flt_round(p0, vehicles, es, **_round_kwargs(prev_accuracy=1.0, gate=None))
        assert rep.mode == "uniform"
        assert rep.lambdas == (1 / 3,) * 3

    def test_validation(self):
        es = _eval_set([0])
        p0 = ModelParams.init(4, derive_rng(13))
        with pytest.raises(ValueError):
            run_flt_round(p0, [], es, **_round_kwargs())


@pytest.fixture(scope="module", params=["desk", "paper"])
def four_vehicle_cell(request):
    """A 4-vehicle cell at penetration 0.75: desk trains in float64, paper in
    float32."""
    cfg = config_from_kv({"vehicle_counts": "4", "penetrations": "0.75"}, profile=request.param)
    seed = 4242
    _, vehicles, eval_set, initial = build_cell_data(cfg, 0.75, 4, seed)
    assert vehicles[0].features.dtype == np.dtype(cfg.train.precision)
    return cfg, vehicles, eval_set, initial, seed


@pytest.fixture
def trainer_pids(monkeypatch, tmp_path):
    """Records the pid of every local training a round runs."""
    return pid_spy(monkeypatch, tmp_path / "trainer_pids", federated, "train_local")


@pytest.fixture
def forward_pids(monkeypatch, tmp_path):
    """Records the pid of every chunk pass forward runs (model._lstm, which
    local training's batches run through too)."""
    return pid_spy(monkeypatch, tmp_path / "forward_pids", fltp.model, "_lstm")


def _assert_forked(pids, n_vehicles, cpus):
    """Each vehicle trained once, on min(cpus, n_vehicles) forked processes."""
    assert len(pids) == n_vehicles
    assert os.getpid() not in pids
    assert len(set(pids)) == min(cpus, n_vehicles)
    assert multiprocessing.active_children() == []


def _reference_round(params, vehicles, eval_set, cfg, seed, round_idx, prev_accuracy, gated):
    """The round as a serial loop: train_local per vehicle on its derived
    stream, the accuracy gate's uniform or mre_weights weights, aggregate,
    evaluate_global."""
    train = cfg.train
    updates = []
    for vd in sorted(vehicles, key=lambda v: v.vehicle_id):
        trained, _ = train_local(
            params,
            vd.features,
            vd.labels,
            episodes=train.local_episodes,
            batch_size=train.batch_size,
            learning_rate=train.learning_rate,
            momentum=train.momentum,
            rng=derive_rng(seed, TAG_TRAIN, round_idx, vd.vehicle_id),
        )
        updates.append(LocalUpdate(vd.vehicle_id, trained.flatten(), vd.attack_histogram(), vd.n_samples))
    if gated and prev_accuracy >= cfg.gate.threshold:
        mode, weights = "mre", mre_weights(updates, cfg.influence)
    else:
        mode, weights = "uniform", np.full(len(updates), 1.0 / len(updates))
    new_params = ModelParams.unflatten(aggregate(updates, weights), train.hidden_size)
    err, acc, per_type, loss_value = evaluate_global(new_params, eval_set, cfg.norm, cfg.judgment_threshold)
    return new_params, RoundReport(round_idx, mode, err, acc, loss_value, tuple(float(w) for w in weights), per_type)


def _round(params, cell, method, round_idx, prev_accuracy):
    cfg, vehicles, eval_set, _, seed = cell
    return run_flt_round(
        params,
        vehicles,
        eval_set,
        round_idx=round_idx,
        prev_accuracy=prev_accuracy,
        gate=cfg.gate if METHODS[method].gated else None,
        influence=cfg.influence,
        train=cfg.train,
        norm=cfg.norm,
        seed=seed,
        judgment_threshold=cfg.judgment_threshold,
    )


class TestRoundPaths:
    """A round trains its vehicles on forked processes, one per usable CPU
    up to the vehicle count, when it can fork safely, and in-process
    otherwise; both give the bytes of a serial loop."""

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("method", ["fl-tp", "fed-avg"])
    def test_rounds_equal_serial_reference(self, four_vehicle_cell, method, cpus, monkeypatch, trainer_pids):
        cfg, vehicles, eval_set, initial, seed = four_vehicle_cell
        set_cpus(monkeypatch, cpus)
        params = ref_params = initial
        prev_accuracy = 0.0
        modes = []
        for round_idx in (1, 2):
            params, report = _round(params, four_vehicle_cell, method, round_idx, prev_accuracy)
            pids = trainer_pids()
            if cpus == 1:
                assert pids == [os.getpid()] * len(vehicles)
            else:
                _assert_forked(pids, len(vehicles), cpus)
            ref_params, ref = _reference_round(
                ref_params, vehicles, eval_set, cfg, seed, round_idx, prev_accuracy, METHODS[method].gated
            )
            assert params.flatten().tobytes() == ref_params.flatten().tobytes()
            assert (report.mode, report.lambdas, report.per_type_accuracy) == (ref.mode, ref.lambdas, ref.per_type_accuracy)
            assert (report.prediction_error, report.prediction_accuracy, report.loss) == (
                ref.prediction_error,
                ref.prediction_accuracy,
                ref.loss,
            )
            modes.append(report.mode)
            prev_accuracy = report.prediction_accuracy
        assert modes == (["uniform", "mre"] if method == "fl-tp" else ["uniform", "uniform"])

    def test_child_exception_reraised_and_no_child_left(self, four_vehicle_cell, monkeypatch, trainer_pids):
        cfg, vehicles, eval_set, initial, seed = four_vehicle_cell
        set_cpus(monkeypatch, 2)
        bad = vehicles[1]
        features = bad.features.copy()
        features[0, 0, 0] = np.nan
        poisoned = [vd if vd is not bad else VehicleData(bad.vehicle_id, features, bad.labels) for vd in vehicles]
        with pytest.raises(ValueError, match="window contains non-finite values"):
            _round(initial, (cfg, poisoned, eval_set, initial, seed), "fl-tp", 1, 0.0)
        pids = trainer_pids()
        # child 1 trains vehicles 1 and 3, and stops at vehicle 1
        assert len(pids) == 3 and len(set(pids)) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_child_that_dies_without_a_result(self, four_vehicle_cell, monkeypatch):
        cfg, vehicles, eval_set, initial, seed = four_vehicle_cell
        set_cpus(monkeypatch, 2)
        parent = os.getpid()

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            raise AssertionError("the round trained in-process")

        monkeypatch.setattr(federated, "train_local", dying)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            _round(initial, four_vehicle_cell, "fed-avg", 1, 0.0)
        assert multiprocessing.active_children() == []

    def test_round_in_a_second_thread_trains_in_process(self, four_vehicle_cell, monkeypatch, trainer_pids):
        set_cpus(monkeypatch, 2)
        initial = four_vehicle_cell[3]
        forked = _round(initial, four_vehicle_cell, "fl-tp", 1, 0.0)
        _assert_forked(trainer_pids(), len(four_vehicle_cell[1]), 2)
        threaded = []
        worker = threading.Thread(target=lambda: threaded.append(_round(initial, four_vehicle_cell, "fl-tp", 1, 0.0)))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert trainer_pids() == [os.getpid()] * len(four_vehicle_cell[1])
        (params, report), = threaded
        assert params.flatten().tobytes() == forked[0].flatten().tobytes()
        assert report == forked[1]


@pytest.fixture(scope="module")
def pool_cell():
    """The paper profile's 10-vehicle pool of 1620 windows (4 evaluation
    chunks) and a perturbed initial model, so judgments differ by window."""
    cfg = config_from_kv({"vehicle_counts": "10", "penetrations": "0.75"}, profile="paper")
    _, _, eval_set, initial = build_cell_data(cfg, 0.75, 10, 4242)
    assert eval_set.features.shape[0] == 1620
    flat = initial.flatten()
    model = ModelParams.unflatten(flat + derive_rng(3).normal(0.0, 0.3, flat.shape), initial.hidden_size)
    return cfg, eval_set, model


def _pool(eval_set, n, dtype=np.float64):
    return EvalSet(eval_set.features[:n].astype(dtype), eval_set.labels[:n])


def _reference_evaluation(params, eval_set, norm, threshold):
    """evaluate_global as a serial loop of one-chunk forwards over the pool
    (each runs in this process) plus its metrics."""
    x = eval_set.features
    pred = np.concatenate([forward(params, x[start : start + PREDICT_CHUNK]) for start in range(0, len(x), PREDICT_CHUNK)])
    labels = eval_set.labels
    judgments = attack_judgments(pred[:, :, 2], labels[:, :, 2], threshold)
    codes = eval_set.attacker_codes
    per_type = {int(code): prediction_accuracy(judgments[codes == code]) for code in np.unique(codes)}
    err = prediction_error(pred[:, :, :2], labels[:, :, :2], norm)
    return err, prediction_accuracy(judgments), per_type, loss(pred, labels)


class TestForkedEvaluation:
    """evaluate_global's forward runs the pool's PREDICT_CHUNK-window chunks
    on forked processes, one per usable CPU up to the chunk count, when
    there are two or more chunks and it can fork safely; every path gives
    the bits of the serial reference."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1025, 1620])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_equals_serial_reference(self, pool_cell, cpus, n, dtype, monkeypatch, forward_pids):
        cfg, full, model = pool_cell
        eval_set = _pool(full, n, dtype)
        set_cpus(monkeypatch, cpus)
        result = evaluate_global(model, eval_set, cfg.norm, cfg.judgment_threshold)
        pids = forward_pids()
        chunks = -(-n // PREDICT_CHUNK)
        assert len(pids) == chunks
        if cpus == 1 or chunks == 1:
            assert pids == [os.getpid()] * chunks
        else:
            assert os.getpid() not in pids
            assert len(set(pids)) == min(cpus, chunks)
        assert multiprocessing.active_children() == []
        assert result == _reference_evaluation(model, eval_set, cfg.norm, cfg.judgment_threshold)

    def test_child_exception_reraised_and_no_child_left(self, pool_cell, monkeypatch, forward_pids):
        cfg, full, model = pool_cell
        features = full.features.copy()
        features[1000, 3, 4] = np.nan  # chunk 1
        set_cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="window contains non-finite values"):
            evaluate_global(model, EvalSet(features, full.labels), cfg.norm, cfg.judgment_threshold)
        assert forward_pids() == []  # rejected before any chunk runs
        assert multiprocessing.active_children() == []

        parent = os.getpid()
        chunk_1 = full.features[PREDICT_CHUNK : 2 * PREDICT_CHUNK].transpose(1, 0, 2)  # as forward passes it
        spied = fltp.model._lstm

        def chunk_1_fails(params, xt, *args, **kwargs):
            result = spied(params, xt, *args, **kwargs)
            if os.getpid() != parent and np.array_equal(xt, chunk_1):
                raise ValueError("chunk 1 failed")
            return result

        monkeypatch.setattr(fltp.model, "_lstm", chunk_1_fails)
        with pytest.raises(ValueError, match="chunk 1 failed"):
            evaluate_global(model, full, cfg.norm, cfg.judgment_threshold)
        pids = forward_pids()
        # child 0 runs chunks 0 and 2; child 1 runs chunks 1 and 3, and stops at chunk 1
        assert len(pids) == 3 and len(set(pids)) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_call_from_a_second_thread_runs_in_process(self, pool_cell, monkeypatch, forward_pids):
        cfg, eval_set, model = pool_cell
        set_cpus(monkeypatch, 2)
        forked = evaluate_global(model, eval_set, cfg.norm, cfg.judgment_threshold)
        assert os.getpid() not in forward_pids()
        threaded = []
        worker = threading.Thread(target=lambda: threaded.append(evaluate_global(model, eval_set, cfg.norm, cfg.judgment_threshold)))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert forward_pids() == [os.getpid()] * 4
        assert threaded == [forked]

    def test_blas_on_several_threads_keeps_the_round_in_process(
        self, four_vehicle_cell, pool_cell, monkeypatch, trainer_pids, forward_pids
    ):
        """With W workers of several BLAS threads each the cores would be
        oversubscribed, so a round trains and evaluates here, with the bytes
        of the serial reference."""
        cfg, vehicles, eval_set, initial, seed = four_vehicle_cell
        set_cpus(monkeypatch, 2, blas_threads=2)
        params, report = _round(initial, four_vehicle_cell, "fl-tp", 1, 0.0)
        assert trainer_pids() == [os.getpid()] * len(vehicles)
        pids = forward_pids()  # every training batch and evaluation chunk
        assert pids and set(pids) == {os.getpid()}
        ref_params, ref = _reference_round(initial, vehicles, eval_set, cfg, seed, 1, 0.0, True)
        forward_pids()  # the reference's own evaluation
        assert params.flatten().tobytes() == ref_params.flatten().tobytes()
        assert report == ref
        pool_cfg, pool, model = pool_cell
        result = evaluate_global(model, pool, pool_cfg.norm, pool_cfg.judgment_threshold)
        assert forward_pids() == [os.getpid()] * 4
        assert result == _reference_evaluation(model, pool, pool_cfg.norm, pool_cfg.judgment_threshold)


class TestCentralized:
    """The centralized baseline is fed-avg's round over one client, id 0,
    that holds the pooled data: its weight is 1.0."""

    def test_zero_episodes_keeps_initial(self):
        vd = _vehicle(0, 8)
        es = _eval_set([0])
        train = TrainConfig(hidden_size=4, learning_rate=1e-3, local_episodes=0)
        p0 = ModelParams.init(4, derive_rng(14))
        out, rep = _fedavg_round(p0, [vd], es, round_idx=0, train=train, norm=NORM, seed=1)
        np.testing.assert_array_equal(out.flatten(), p0.flatten())
        assert rep.lambdas == (1.0,)
        err, acc, _, loss_value = evaluate_global(p0, es, NORM)
        assert (rep.prediction_error, rep.prediction_accuracy, rep.loss) == (err, acc, loss_value)

    def test_deterministic_and_seed_sensitive(self):
        vd = _vehicle(0, 12)
        es = _eval_set([0])
        train = TrainConfig(hidden_size=4, learning_rate=1e-3, batch_size=4, local_episodes=2)
        p0 = ModelParams.init(4, derive_rng(5, TAG_INIT))
        kwargs = dict(round_idx=0, train=train, norm=NORM)
        a, _ = _fedavg_round(p0, [vd], es, seed=5, **kwargs)
        b, _ = _fedavg_round(p0, [vd], es, seed=5, **kwargs)
        c, _ = _fedavg_round(p0, [vd], es, seed=6, **kwargs)
        np.testing.assert_array_equal(a.flatten(), b.flatten())
        assert not np.array_equal(a.flatten(), c.flatten())

    def test_round_idx_selects_stream_and_labels_report(self):
        vd = _vehicle(0, 12)
        es = _eval_set([0])
        train = TrainConfig(hidden_size=4, learning_rate=1e-3, batch_size=4, local_episodes=2)
        p0 = ModelParams.init(4, derive_rng(16))
        kwargs = dict(train=train, norm=NORM, seed=5)
        a, rep_a = _fedavg_round(p0, [vd], es, round_idx=3, **kwargs)
        b, _ = _fedavg_round(p0, [vd], es, round_idx=4, **kwargs)
        assert rep_a.round_idx == 3
        assert not np.array_equal(a.flatten(), b.flatten())
        # the round's stream is the one a local update of vehicle 0 would use,
        # and weight 1.0 hands that update through unchanged
        trained, _ = train_local(
            p0,
            vd.features,
            vd.labels,
            episodes=2,
            batch_size=4,
            learning_rate=1e-3,
            momentum=train.momentum,
            rng=derive_rng(5, TAG_TRAIN, 3, 0),
        )
        np.testing.assert_array_equal(a.flatten(), trained.flatten())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        vehicles = [_vehicle(0, 8), _vehicle(1, 8, codes=4)]
        es = _eval_set([0, 4])
        p0 = ModelParams.init(4, derive_rng(15))
        new_global, rep = run_flt_round(p0, vehicles, es, **_round_kwargs())
        blob, sidecar = save_checkpoint(tmp_path / "ck", "fl-tp", new_global, rep)
        np.testing.assert_array_equal(load_params(blob).flatten(), new_global.flatten())
        meta = json.loads(sidecar.read_text())
        assert meta["round"] == 1
        assert meta["method"] == "fl-tp"
        assert meta["mode"] == rep.mode
        assert meta["lambdas"] == list(rep.lambdas)
        assert meta["metrics"]["pred_error_m"] == rep.prediction_error
        assert meta["metrics"]["atk_accuracy"] == rep.prediction_accuracy
