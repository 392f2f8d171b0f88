"""Release gate: eight numbered end-to-end criteria.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line to the real
terminal (bypassing capture) so a full `pytest` run shows the gate verdicts
inline. Tolerances are part of the contract; do not loosen them here.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fltp.attacks import AttackParams, inject
from fltp.cli import main as cli_main
from fltp.config import config_from_kv
from fltp.experiment import (
    accuracy_improvement_pct,
    build_cell_data,
    cell_seed,
    divergence_limit,
    run_method_rounds,
)
from fltp.features import NormalizationSpec
from fltp.federated import (
    InfluenceTable,
    LocalUpdate,
    mre_weights,
    run_flt_round,
)
from fltp.metrics import (
    RoundReport,
    attack_judgment,
    prediction_accuracy,
    prediction_error,
    summarize,
)
from fltp.model import ModelParams, backward, forward, forward_cached, loss
from fltp.seeding import derive_rng
from fltp.trace import AttackerType

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(capsys, number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


# --- 1: analytic gradient vs central finite differences ---------------------


def _fd_gradient(params, x, y, eps=1e-5):
    flat = params.flatten()
    h_size = params.hidden_size
    out = np.empty_like(flat)
    for j in range(flat.size):
        up = flat.copy()
        dn = flat.copy()
        up[j] += eps
        dn[j] -= eps
        lu = loss(forward(ModelParams.unflatten(up, h_size), x), y)
        ld = loss(forward(ModelParams.unflatten(dn, h_size), x), y)
        out[j] = (lu - ld) / (2.0 * eps)
    return out


def test_criterion_1_gradient_check(capsys):
    with criterion(capsys, 1, "gradient-check"):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(10):
            params = ModelParams.init(4, derive_rng(7000, seed))
            rng = np.random.default_rng(seed)
            x = rng.uniform(-1.0, 1.0, size=(2, 10, 9))
            y = rng.uniform(0.0, 1.0, size=(2, 5, 3))
            _, cache = forward_cached(params, x)
            analytic = backward(cache, y)
            numeric = _fd_gradient(params, x, y)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-4, f"max relative gradient error {worst:.3e}"
        assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


# --- 2: cleanliness weighting oracle ----------------------------------------


def test_criterion_2_weighting_oracle(capsys):
    with criterion(capsys, 2, "cleanliness-weights"):
        t0 = time.perf_counter()

        def upd(vid, counts, total):
            return LocalUpdate(vid, np.zeros(1), counts, total)

        # clean vs half-attacked at influence 1 -> exactly (2/3, 1/3)
        w = mre_weights([upd(0, {}, 100), upd(1, {1: 50}, 100)], InfluenceTable(constant=1.0))
        assert abs(w[0] - 2.0 / 3.0) <= 1e-12 and abs(w[1] - 1.0 / 3.0) <= 1e-12

        # mixed classes with per-class influence
        ups = [
            upd(0, {}, 100),  # 1.0
            upd(1, {int(AttackerType.CONSTANT_OFFSET): 30}, 100),  # 1 - 0.8*0.3
            upd(2, {int(AttackerType.RANDOM): 10, int(AttackerType.EVENTUAL_STOP): 20}, 100),  # 0.7
        ]
        w = mre_weights(ups, InfluenceTable())
        total = 1.0 + (1.0 - 0.8 * 0.3) + 0.7
        for got, score in zip(w, (1.0, 1.0 - 0.8 * 0.3, 0.7)):
            assert abs(got - score / total) <= 1e-12

        # fully attacked stream is floored, never zeroed
        w = mre_weights([upd(0, {}, 10), upd(1, {3: 10}, 10)], InfluenceTable())
        assert abs(w[1] - 1e-6 / (1.0 + 1e-6)) <= 1e-12

        # zero influence collapses to the exact uniform average
        w = mre_weights([upd(k, {1: 5 * k}, 40) for k in range(4)], InfluenceTable.zeros())
        assert np.array_equal(w, np.full(4, 0.25))

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"weighting oracle took {elapsed:.2f}s"


# --- 3: attack injector statistics ------------------------------------------


def test_criterion_3_injector_statistics(capsys):
    with criterion(capsys, 3, "injector-statistics"):
        t0 = time.perf_counter()
        region, v_max, n = 10_000.0, 40.0, 10_000
        params = AttackParams(region, v_max)
        t = np.arange(n, dtype=float)
        truths = np.column_stack([4000.0 + 0.1 * t, 6000.0 - 0.1 * t, np.full(n, 5.0), np.full(n, -3.0)])

        # eventual stop: stop frequency within 3 sigma of 0.3 over 10k messages
        claims = inject(AttackerType.EVENTUAL_STOP, truths, params, derive_rng(31_337))
        stops = np.all(claims[:, 2:] == 0.0, axis=1).sum()
        assert abs(stops / n - 0.3) <= 0.014, f"stop frequency {stops / n:.4f}"

        # fully random claims: uniform support and mean within 3 sigma
        claims = inject(AttackerType.RANDOM, truths, params, derive_rng(31_338))
        ps, ss = claims[:, :2], claims[:, 2:]
        assert ps.min() >= 0.0 and ps.max() <= region
        assert np.abs(ss).max() <= v_max
        tol = 3.0 * (region / np.sqrt(12.0)) / np.sqrt(n)
        assert np.all(np.abs(ps.mean(axis=0) - region / 2.0) <= tol), ps.mean(axis=0)

        # random offset: bounded support, zero-centred within 3 sigma
        claims = inject(AttackerType.RANDOM_OFFSET, truths, params, derive_rng(31_339))
        offs = claims[:, :2] - truths[:, :2]
        bound = params.random_offset_max
        assert np.abs(offs).max() <= bound
        tol = 3.0 * (2.0 * bound / np.sqrt(12.0)) / np.sqrt(n)
        assert np.all(np.abs(offs.mean(axis=0)) <= tol), offs.mean(axis=0)

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"injector statistics took {elapsed:.2f}s"


# --- 4: metric oracles --------------------------------------------------------


def test_criterion_4_metric_oracles(capsys):
    with criterion(capsys, 4, "metric-oracles"):
        norm = NormalizationSpec(region_side=10_000.0, v_max=40.0)

        # dyadic coordinates make the distances exactly representable
        pred = np.zeros((1, 2))
        label = np.array([[0.375, 0.5]])  # (3750, 5000) m -> 6250 m
        assert prediction_error(pred, label, norm) == 6250.0
        two = prediction_error(
            np.zeros((2, 2)), np.array([[0.25, 0.0], [0.75, 0.0]]), norm
        )
        assert two == 5000.0  # mean of 2500 and 7500
        same = np.array([[0.3, 0.7]])
        assert prediction_error(same, same, norm) == 0.0

        assert attack_judgment(1.4, 1.0) is True
        assert attack_judgment(1.6, 1.0) is False
        assert attack_judgment(1.5, 1.0) is False  # strict boundary

        assert prediction_accuracy(np.array([True, True, True, False])) == 0.75

        def rep(e):
            return RoundReport(0, "fl-tp", "mre", e, 0.5, 1.0)

        out = summarize([rep(1.0), rep(3.0)])
        assert out["prediction_error"].mean == 2.0
        assert abs(out["prediction_error"].std ** 2 - 2.0) <= 1e-12
        assert summarize([rep(5.0)])["prediction_error"].std is None


# --- 5: fed-avg is bitwise-identical to zero-influence fl-tp -----------------


def test_criterion_5_fedavg_equivalence(capsys):
    with criterion(capsys, 5, "fedavg-equivalence"):
        cfg = config_from_kv(
            {
                "penetrations": "0.5",
                "n_steps": "40",
                "hidden_size": "8",
                "learning_rate": "0.001",
                "local_episodes": "2",
                "batch_size": "32",
                "influence_constant": "0",
                "influence_constant_offset": "0",
                "influence_random": "0",
                "influence_random_offset": "0",
                "influence_eventual_stop": "0",
            }
        )
        seed = cell_seed(cfg.master_seed, 0, 0, 0)
        _, vehicles, eval_set, initial = build_cell_data(cfg, 0.5, 4, seed)

        # fed-avg as the sweep runs it; zip stops its stream after 5 rounds
        fedavg = run_method_rounds(cfg, "fed-avg", vehicles, eval_set, initial, seed, divergence_limit(initial, eval_set))
        p_flt = initial
        prev_acc = 0.0
        for round_idx, (p_avg, rep_avg) in zip(range(1, 6), fedavg):
            p_flt, rep_flt = run_flt_round(
                p_flt,
                vehicles,
                eval_set,
                round_idx=round_idx,
                prev_accuracy=prev_acc,
                gate=cfg.gate,
                influence=cfg.influence,
                train=cfg.train,
                norm=cfg.norm,
                seed=seed,
            )
            prev_acc = rep_flt.prediction_accuracy
            assert np.array_equal(p_avg.flatten(), p_flt.flatten()), f"round {round_idx}"
            assert rep_avg.prediction_error == rep_flt.prediction_error
            assert rep_avg.prediction_accuracy == rep_flt.prediction_accuracy
            assert rep_avg.loss == rep_flt.loss
            assert rep_avg.lambdas == rep_flt.lambdas


# --- 6: CLI reruns are byte-identical across thread counts -------------------


def test_criterion_6_cli_reproducibility(capsys, tmp_path):
    with criterion(capsys, 6, "cli-reproducibility"):
        t0 = time.perf_counter()
        cfg_path = tmp_path / "desk.cfg"
        cfg_path.write_text("penetrations = 0.5\n", encoding="utf-8")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["run", "--config", str(cfg_path), "--profile", "desk"]
        assert cli_main(args + ["--out", str(out_a), "--threads", "1"]) == 0
        assert cli_main(args + ["--out", str(out_b), "--threads", "2"]) == 0

        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        assert len(names_a) == 3 * 2 + 1  # 3 methods x 2 repeats + summary
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"CLI reproducibility took {elapsed:.0f}s"


# --- 7: weighted aggregation beats plain averaging on attacked networks ------


def test_criterion_7_method_ordering(capsys):
    # 12 fixed master seeds: every seed this build was ever evaluated on
    # during desk calibration (6 calibration + 6 holdout), none selected by
    # outcome. At this scale the 50%-penetration comparison is a statistical
    # tie (3 wins / 6 exact ties / 3 losses on accuracy across these seeds),
    # so this check is expected to fail there by a noise-level margin; the
    # 75%-penetration ordering holds robustly. Kept strict on purpose.
    with criterion(capsys, 7, "method-ordering"):
        masters = (*range(1, 7), *range(11, 17))
        failures = []
        for pen in (0.5, 0.75):
            cfg = config_from_kv({"penetrations": str(pen)}, profile="desk")
            finals = {"fl-tp": [], "fed-avg": []}
            for master in masters:
                seed = cell_seed(master, 0, 0, 0)
                _, vehicles, eval_set, initial = build_cell_data(cfg, pen, 4, seed)
                limit = divergence_limit(initial, eval_set)
                for method in finals:
                    rep = list(run_method_rounds(cfg, method, vehicles, eval_set, initial, seed, limit))[-1][1]
                    finals[method].append((rep.prediction_accuracy, rep.prediction_error))
            flt = np.array(finals["fl-tp"])
            avg = np.array(finals["fed-avg"])
            d_acc = flt[:, 0].mean() - avg[:, 0].mean()
            d_err = avg[:, 1].mean() - flt[:, 1].mean()
            if d_acc < 0:
                failures.append(f"pen {pen}: accuracy margin {d_acc:+.4f}")
            if d_err < 0:
                failures.append(f"pen {pen}: error margin {d_err:+.1f} m")
        assert not failures, "; ".join(failures)


# --- 8: improvement arithmetic ------------------------------------------------


def test_criterion_8_improvement_arithmetic(capsys):
    with criterion(capsys, 8, "improvement-arithmetic"):
        gain = accuracy_improvement_pct(0.979, 0.915)
        assert abs(gain - 6.99) <= 0.1, f"gain {gain:.4f}%"
