"""Fast tests of the benchmark itself: the reference model agrees with the
program, each workload's check rejects a corrupted output, and failed
operations are counted.

    PYTHONPATH=src python -m pytest -q benchmark/test_bench.py
"""
from __future__ import annotations

import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refcheck  # noqa: E402
import workloads  # noqa: E402
from fltp.model import ModelParams, forward  # noqa: E402

# small enough to run in well under a second per workload
TINY = dict(n_steps="24", hidden_size="4", local_episodes="2", learning_rate="0.01")


def prepared(kind: str, tmp_path: Path, rounds: int = 1):
    """A workload of the given kind on tiny inputs, run once."""
    if kind == "sweep":
        w = workloads.Workload("tiny-sweep", kind, "desk", 4, workloads.DESK_METHODS, 2, rounds)
    else:
        w = workloads.Workload(f"tiny-{kind}", kind, "desk", 4, "fl-tp", 1, rounds)
    cfg = workloads.make_config(w, 3, tmp_path, **TINY)
    cells = workloads.build_cells(w, cfg, 3)
    op = workloads.Operation(w, cfg, cells, tmp_path)
    return op, [op.run()]


def test_reference_forward_matches_program():
    rng = np.random.default_rng(0)
    params = ModelParams.init(3, rng)
    windows = rng.uniform(-1.0, 1.0, size=(4, 10, 9))
    np.testing.assert_allclose(refcheck.reference_forward_params(params, windows), forward(params, windows), rtol=1e-12, atol=1e-14)


def test_expected_sizes_closed_form():
    assert refcheck.expected_sizes(10, 100, 0.8) == (612, 1620)
    assert refcheck.expected_sizes(20, 100, 0.8) == (1292, 6840)


def test_clean_outputs_pass(tmp_path):
    for kind in ("train", "eval"):
        op, results = prepared(kind, tmp_path)
        assert workloads.check_inputs(op.w, op.cfg, op.cells) == []
        assert workloads.check_outputs(op, results) == []


def test_corrupted_evaluation_fails(tmp_path):
    op, [(params, reports)] = prepared("train", tmp_path)
    bad = [replace(reports[0], prediction_error=reports[0].prediction_error * 1.001)]
    assert workloads.check_outputs(op, [(params, bad)])

    op, [results] = prepared("eval", tmp_path)
    err, acc, per_type, loss = results[1]
    bad = list(results)
    bad[1] = (err, acc, per_type, loss + 1e-3)
    assert workloads.check_outputs(op, [bad])


def test_corrupted_inputs_fail(tmp_path):
    op, _ = prepared("train", tmp_path)
    vd = op.cells[0].vehicles[1]
    vd.labels[0, :, 2] = (vd.labels[0, 0, 2] + 1) % 6
    assert workloads.check_inputs(op.w, op.cfg, op.cells)
    weights = refcheck.reference_weights(op.cells[0].vehicles, op.cfg.influence)
    assert refcheck.check_weights(weights[::-1] + [0.1, 0, 0, -0.1], op.cells[0].vehicles, op.cfg.influence)


def _rewrite(path: Path, row: int, column: str, value: str) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize(
    "file, row, column, value",
    [
        ("summary.csv", 2, "acc_std", "0.125"),
        ("summary.csv", 0, "err_improvement_pct", "1.0"),
        ("rounds_fed-avg_p0.75_v4_rep0.csv", 0, "loss", "1.5"),
        ("rounds_fl-tp_p0.75_v4_rep1.csv", 1, "loss", "1e9"),
        ("rounds_centralized_p0.75_v4_rep0.csv", 0, "mode", "mre"),
        ("rounds_fl-tp_p0.75_v4_rep0.csv", 0, "pred_error_m", "nan"),
    ],
)
def test_corrupted_sweep_fails(tmp_path, file, row, column, value):
    op, [out] = prepared("sweep", tmp_path, rounds=2)
    assert workloads.check_outputs(op, [out]) == []
    _rewrite(out / file, row, column, value)
    assert workloads.check_outputs(op, [out])


class _Failing:
    ops = 3

    def run(self, tracer=None):
        raise FloatingPointError("diverged")


def test_failed_operations_are_counted():
    durations, results, failures = workloads.timed_loop(_Failing(), 0.0)
    assert results == [None] and len(failures) == 1
    result = workloads._result([], _Failing(), len(durations), failures, {})
    assert (result["attempted"], result["failed"]) == (3, 3)
