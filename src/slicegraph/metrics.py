"""Multi-label classification metrics and validation threshold selection.

Thresholding convention everywhere: a prediction is positive iff
score >= threshold. Undefined ratios (empty denominators) are reported
as 0, matching the usual zero-division convention. AUROC is the
Mann-Whitney statistic computed from rank sums, so ties contribute 1/2
and the cost is O(M log M) per label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PredictionSet",
    "LabelMetrics",
    "MetricsReport",
    "binary_counts",
    "f1_recall_precision_accuracy",
    "auroc",
    "select_thresholds",
    "evaluate",
]


@dataclass(frozen=True)
class PredictionSet:
    """Scores in [0, 1] and binary labels, both shaped (n_samples, n_labels)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        labels = np.asarray(self.labels)
        if scores.ndim != 2 or scores.shape != labels.shape:
            raise ValueError(
                f"scores {scores.shape} and labels {labels.shape} must be equal 2-D shapes"
            )
        # written so that a NaN score fails it too
        if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):
            raise ValueError("scores must lie in [0, 1]")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels.astype(np.uint8))

    @property
    def n_labels(self) -> int:
        return self.scores.shape[1]


def binary_counts(scores: np.ndarray, labels: np.ndarray,
                  threshold: float) -> tuple[int, int, int, int]:
    """(TP, FP, TN, FN) for one label column at one threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    predicted = scores >= threshold
    actual = labels == 1
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    tn = int(np.count_nonzero(~predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    return tp, fp, tn, fn


def f1_recall_precision_accuracy(counts: tuple[int, int, int, int]
                                 ) -> tuple[float, float, float, float]:
    """(F1, recall, precision, accuracy) with zero-division reported as 0."""
    tp, fp, tn, fn = counts
    if min(tp, fp, tn, fn) < 0:
        raise ValueError(f"counts must be nonnegative, got {counts}")
    total = tp + fp + tn + fn
    if total == 0:
        raise ValueError("counts must not all be zero")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / total
    return f1, recall, precision, accuracy


def auroc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Probability a random positive outscores a random negative (ties = 1/2).

    Returns None when the column has a single class, where the statistic
    is undefined.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    positive = labels == 1
    n_pos = int(np.count_nonzero(positive))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # average ranks: a run of `count` tied values ending at rank `end` shares
    # end - (count - 1) / 2; exact halves, so sums stay exact
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _best_threshold(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Max-F1 threshold for one column; ties go to the smallest candidate.

    Candidates are 0, 1, and the midpoints of consecutive distinct
    scores. Every achievable prediction set under `score >= t` appears
    among them (t > max(score) only reaches the empty set, whose F1 is 0),
    so the scan is exhaustive over distinct classifications.
    """
    # every cut below falls between distinct scores, so the order within ties
    # never matters and an unstable sort is enough
    order = np.argsort(scores)
    sorted_scores = scores[order]
    sorted_labels = np.asarray(labels)[order]
    m = sorted_scores.size

    distinct = sorted_scores[np.flatnonzero(np.diff(sorted_scores, prepend=-np.inf))]
    candidates = np.concatenate(([0.0], (distinct[:-1] + distinct[1:]) / 2.0, [1.0]))

    # suffix_pos[i] = positives among scores[i:], so TP at cut i is suffix_pos[i]
    suffix_pos = np.zeros(m + 1, dtype=np.int64)
    suffix_pos[:m] = np.cumsum(sorted_labels[::-1])[::-1]

    cuts = np.searchsorted(sorted_scores, candidates, side="left")
    # F1 = 2TP / (2TP + FP + FN) = 2TP / (predicted + actual positives)
    denom = (m - cuts) + suffix_pos[0]
    f1 = np.divide(2.0 * suffix_pos[cuts], denom, out=np.zeros(candidates.size),
                   where=denom > 0)
    best = int(np.argmax(f1))  # the first maximum: ties go to the smallest
    return float(candidates[best]), float(f1[best])


def select_thresholds(predictions: PredictionSet) -> np.ndarray:
    """Per-label max-F1 thresholds (ties resolved toward the smallest)."""
    return np.array([
        _best_threshold(predictions.scores[:, j], predictions.labels[:, j])[0]
        for j in range(predictions.n_labels)
    ])


@dataclass(frozen=True)
class LabelMetrics:
    label: int
    threshold: float
    f1: float
    recall: float
    precision: float
    accuracy: float
    auroc: float | None


@dataclass(frozen=True)
class MetricsReport:
    per_label: tuple[LabelMetrics, ...]
    macro: dict
    micro: dict | None = None

    def to_dict(self) -> dict:
        return {
            "per_label": [vars(lm).copy() for lm in self.per_label],
            "macro": dict(self.macro),
            "micro": dict(self.micro) if self.micro is not None else None,
        }


def evaluate(predictions: PredictionSet, thresholds,
             include_micro: bool = False) -> MetricsReport:
    """Thresholded metrics per label plus macro (and optionally micro) averages.

    AUROC ignores the thresholds. Single-class columns have no AUROC;
    they are excluded from the macro AUROC with a warning. All
    statistics are invariant to sample order.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != (predictions.n_labels,):
        raise ValueError(
            f"need one threshold per label ({predictions.n_labels}), got {thresholds.shape}"
        )

    per_label, counts = [], []
    for j in range(predictions.n_labels):
        scores = predictions.scores[:, j]
        labels = predictions.labels[:, j]
        counts.append(binary_counts(scores, labels, thresholds[j]))
        f1, recall, precision, accuracy = f1_recall_precision_accuracy(counts[-1])
        per_label.append(LabelMetrics(
            label=j, threshold=float(thresholds[j]), f1=f1, recall=recall,
            precision=precision, accuracy=accuracy, auroc=auroc(scores, labels),
        ))

    defined = [lm.auroc for lm in per_label if lm.auroc is not None]
    skipped = [lm.label for lm in per_label if lm.auroc is None]
    if skipped:
        warnings.warn(
            f"AUROC undefined for single-class label column(s) {skipped}; "
            "excluded from the macro average",
            stacklevel=2,
        )
    macro = {
        "f1": float(np.mean([lm.f1 for lm in per_label])),
        "recall": float(np.mean([lm.recall for lm in per_label])),
        "precision": float(np.mean([lm.precision for lm in per_label])),
        "accuracy": float(np.mean([lm.accuracy for lm in per_label])),
        "auroc": float(np.mean(defined)) if defined else None,
    }

    micro = None
    if include_micro:
        pooled = tuple(sum(column) for column in zip(*counts))
        f1, recall, precision, accuracy = f1_recall_precision_accuracy(pooled)
        micro = {
            "f1": f1, "recall": recall, "precision": precision,
            "accuracy": accuracy,
            "auroc": auroc(predictions.scores.ravel(), predictions.labels.ravel()),
        }
    return MetricsReport(tuple(per_label), macro, micro)
