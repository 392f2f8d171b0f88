"""Evaluation metrics: trajectory error in metres, attack-judgment accuracy,
and mean/std summaries across repeated runs."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .features import NormalizationSpec, denormalize_pos


@dataclass
class RoundReport:
    """Global-model evaluation after one aggregation round."""

    round_idx: int
    method: str
    mode: str  # "uniform" | "mre" | "centralized"
    prediction_error: float  # metres
    prediction_accuracy: float
    loss: float
    lambdas: tuple[float, ...] = ()
    per_type_accuracy: dict[int, float] = field(default_factory=dict)


class MetricSummary(NamedTuple):
    mean: float
    std: float | None  # sample std (N-1); None for fewer than two reports


def prediction_error(pred_pos: np.ndarray, label_pos: np.ndarray, spec: NormalizationSpec) -> float:
    """Mean Euclidean distance in metres between predicted and true positions.

    Inputs are normalized coordinates with (x, y) on the last axis; every
    leading entry (each predicted step of each sample) counts as one term.
    """
    p = np.asarray(pred_pos, dtype=float)
    y = np.asarray(label_pos, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    if p.ndim < 1 or p.shape[-1] != 2:
        raise ValueError(f"last axis must be (x, y), got shape {p.shape}")
    if p.size == 0:
        raise ValueError("no position terms to evaluate")
    diff = denormalize_pos(p, spec) - denormalize_pos(y, spec)
    return float(np.mean(np.sqrt(np.sum(diff * diff, axis=-1))))


def attack_judgments(atk_pdt: np.ndarray, atk_lb: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Element-wise judgment over any matching shapes: True iff
    |prediction - label| < threshold, strictly."""
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    p = np.asarray(atk_pdt, dtype=float)
    y = np.asarray(atk_lb, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {y.shape}")
    return np.abs(p - y) < threshold


def prediction_accuracy(judgments: np.ndarray) -> float:
    """Fraction of true judgments: TJ / (TJ + FJ)."""
    j = np.asarray(judgments, dtype=bool)
    if j.size == 0:
        raise ValueError("no judgments to evaluate")
    return float(np.count_nonzero(j) / j.size)


def mean_std(values: Sequence[float]) -> MetricSummary:
    """Mean and sample standard deviation (N-1); the std is None for fewer
    than two values."""
    a = np.asarray(values, dtype=float)
    return MetricSummary(float(a.mean()), float(a.std(ddof=1)) if a.size >= 2 else None)

