"""Metric contracts: metre-space error, judgment threshold, summaries."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fltp.features import NormalizationSpec
from fltp.metrics import (
    MetricSummary,
    RoundReport,
    attack_judgments,
    mean_std,
    prediction_accuracy,
    prediction_error,
)

NORM = NormalizationSpec(region_side=10_000.0, v_max=40.0, rssi_min=-100.0, rssi_max=-40.0)


def attack_judgment(atk_pdt: float, atk_lb: float, threshold: float = 0.5) -> bool:
    """Reference scalar judgment: attack_judgments on one prediction."""
    return bool(attack_judgments(atk_pdt, atk_lb, threshold))


def summarize(reports):
    """Reference per-metric summary of repeated reports, by mean_std as the
    summary CSV computes it."""
    if not reports:
        raise ValueError("no reports to summarize")
    return {
        name: mean_std([getattr(r, name) for r in reports])
        for name in ("prediction_error", "prediction_accuracy", "loss")
    }


def _report(err=0.0, acc=0.0, loss_value=0.0):
    return RoundReport(
        round_idx=0,
        method="fl-tp",
        mode="mre",
        prediction_error=err,
        prediction_accuracy=acc,
        loss=loss_value,
    )


class TestPredictionError:
    def test_three_four_five(self):
        pred = np.array([[0.0, 0.0]])
        label = np.array([[3.0 / 10_000.0, 4.0 / 10_000.0]])
        assert prediction_error(pred, label, NORM) == pytest.approx(5.0, rel=1e-12)

    def test_mean_over_terms(self):
        # two terms at 5 m and 15 m -> 10 m
        pred = np.array([[0.0, 0.0], [0.0, 0.0]])
        label = np.array([[3e-4, 4e-4], [9e-4, 12e-4]])
        assert prediction_error(pred, label, NORM) == pytest.approx(10.0, rel=1e-12)

    def test_batched_steps_shape(self):
        pred = np.zeros((4, 5, 2))
        label = np.full((4, 5, 2), 3e-4)
        expected = math.hypot(3.0, 3.0)
        assert prediction_error(pred, label, NORM) == pytest.approx(expected, rel=1e-12)

    def test_identical_is_zero(self):
        xy = np.random.default_rng(0).uniform(0, 1, size=(6, 5, 2))
        assert prediction_error(xy, xy, NORM) == 0.0

    @given(
        st.floats(-0.1, 0.1),
        st.floats(-0.1, 0.1),
    )
    def test_translation_invariance(self, dx, dy):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.2, 0.8, size=(3, 5, 2))
        label = rng.uniform(0.2, 0.8, size=(3, 5, 2))
        shift = np.array([dx, dy])
        base = prediction_error(pred, label, NORM)
        moved = prediction_error(pred + shift, label + shift, NORM)
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_scales_with_region(self):
        pred = np.zeros((2, 2))
        label = np.full((2, 2), 0.1)
        small = prediction_error(pred, label, replace(NORM, region_side=100.0))
        big = prediction_error(pred, label, replace(NORM, region_side=200.0))
        assert big == pytest.approx(2 * small, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            prediction_error(np.zeros((2, 2)), np.zeros((3, 2)), NORM)
        with pytest.raises(ValueError):
            prediction_error(np.zeros((2, 3)), np.zeros((2, 3)), NORM)
        with pytest.raises(ValueError):
            prediction_error(np.zeros((0, 2)), np.zeros((0, 2)), NORM)


class TestAttackJudgment:
    def test_within_threshold(self):
        assert attack_judgment(1.4, 1.0) is True
        assert attack_judgment(0.6, 1.0) is True

    def test_outside_threshold(self):
        assert attack_judgment(1.6, 1.0) is False
        assert attack_judgment(3.0, 0.0) is False

    def test_boundary_is_false(self):
        assert attack_judgment(1.5, 1.0) is False
        assert attack_judgment(0.5, 0.0) is False

    def test_custom_threshold(self):
        assert attack_judgment(1.9, 1.0, threshold=1.0) is True
        assert attack_judgment(2.0, 1.0, threshold=1.0) is False

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            attack_judgment(1.0, 1.0, threshold=0.0)
        with pytest.raises(ValueError):
            attack_judgments(np.ones(3), np.ones(3), threshold=-0.5)

    def test_vectorized_matches_scalar(self):
        preds = np.array([0.2, 1.4, 1.5, 2.9, 5.2])
        labels = np.array([0.0, 1.0, 1.0, 3.0, 5.0])
        vec = attack_judgments(preds, labels)
        assert vec.tolist() == [attack_judgment(p, l) for p, l in zip(preds, labels)]

    def test_vectorized_shape_mismatch(self):
        with pytest.raises(ValueError):
            attack_judgments(np.ones(3), np.ones(4))


class TestPredictionAccuracy:
    def test_fraction(self):
        assert prediction_accuracy(np.array([True, True, True, False])) == 0.75

    def test_all_true_and_all_false(self):
        assert prediction_accuracy(np.ones(5, dtype=bool)) == 1.0
        assert prediction_accuracy(np.zeros(5, dtype=bool)) == 0.0

    def test_multidimensional(self):
        j = np.array([[True, False], [True, True]])
        assert prediction_accuracy(j) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prediction_accuracy(np.array([], dtype=bool))


class TestSummarize:
    def test_mean_and_sample_std(self):
        reports = [_report(err=1.0, acc=0.4, loss_value=10.0), _report(err=3.0, acc=0.6, loss_value=30.0)]
        out = summarize(reports)
        assert out["prediction_error"] == MetricSummary(2.0, pytest.approx(math.sqrt(2.0)))
        assert out["prediction_accuracy"].mean == pytest.approx(0.5)
        assert out["prediction_accuracy"].std == pytest.approx(math.sqrt(0.02))
        assert out["loss"] == MetricSummary(20.0, pytest.approx(math.sqrt(200.0)))

    def test_single_report_has_no_std(self):
        out = summarize([_report(err=7.0)])
        assert out["prediction_error"].mean == 7.0
        assert out["prediction_error"].std is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
