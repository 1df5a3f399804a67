"""Multi-label classification metrics: counts, F1 family, rank-based
AUROC against brute-force pair counting, and threshold selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegraph.metrics import (
    _best_threshold,
    LabelMetrics,
    MetricsReport,
    PredictionSet,
    auroc,
    binary_counts,
    evaluate,
    f1_recall_precision_accuracy,
    select_thresholds,
)


def loop_best_threshold(scores, labels):
    """The per-candidate scan, one threshold at a time: the reference the
    vectorised scan must match exactly."""
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = np.asarray(labels)[order]
    m = sorted_scores.size
    distinct = np.unique(sorted_scores)
    candidates = np.concatenate(([0.0], (distinct[:-1] + distinct[1:]) / 2.0, [1.0]))
    suffix_pos = np.zeros(m + 1, dtype=np.int64)
    suffix_pos[:m] = np.cumsum(sorted_labels[::-1])[::-1]
    total_pos = int(suffix_pos[0])
    best_f1, best_threshold = -1.0, 0.0
    for threshold in candidates:
        cut = int(np.searchsorted(sorted_scores, threshold, side="left"))
        tp = int(suffix_pos[cut])
        fp = (m - cut) - tp
        fn = total_pos - tp
        denom = 2 * tp + fp + fn
        f1 = (2.0 * tp / denom) if denom else 0.0
        if f1 > best_f1:
            best_f1, best_threshold = f1, float(threshold)
    return best_threshold, best_f1


def brute_force_auroc(scores, labels):
    """O(M^2) pair counting: wins + half ties over all (pos, neg) pairs."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def grid_best_f1(scores, labels, n_points=1001):
    best = 0.0
    for threshold in np.linspace(0.0, 1.0, n_points):
        counts = binary_counts(scores, labels, threshold)
        f1, *_ = f1_recall_precision_accuracy(counts)
        best = max(best, f1)
    return best


def f1_at(scores, labels, threshold):
    return f1_recall_precision_accuracy(
        binary_counts(scores, labels, threshold))[0]


class TestBinaryCounts:
    def test_perfect_scores(self):
        scores = np.array([1.0, 1.0, 0.0, 0.0])
        labels = np.array([1, 1, 0, 0])
        tp, fp, tn, fn = binary_counts(scores, labels, 0.5)
        assert (tp, fp, tn, fn) == (2, 0, 2, 0)

    def test_all_below_threshold(self):
        tp, fp, tn, fn = binary_counts(
            np.array([0.1, 0.2]), np.array([1, 0]), 0.5)
        assert (tp, fp) == (0, 0)
        assert (tn, fn) == (1, 1)

    def test_mixed_enumeration(self):
        tp, fp, tn, fn = binary_counts(
            np.array([0.9, 0.8, 0.3, 0.2]), np.array([1, 0, 1, 0]), 0.5)
        assert (tp, fp, tn, fn) == (1, 1, 1, 1)

    def test_threshold_boundary_is_positive(self):
        tp, fp, tn, fn = binary_counts(np.array([0.5]), np.array([1]), 0.5)
        assert tp == 1 and fn == 0

    @given(st.integers(min_value=0, max_value=10_000))
    def test_counts_partition_the_column(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 50))
        scores = rng.uniform(size=m)
        labels = rng.integers(0, 2, size=m)
        threshold = float(rng.uniform())
        tp, fp, tn, fn = binary_counts(scores, labels, threshold)
        assert tp + fp + tn + fn == m
        assert tp + fn == labels.sum()


class TestF1Family:
    def test_balanced_errors(self):
        f1, recall, precision, accuracy = f1_recall_precision_accuracy((1, 1, 1, 1))
        assert (precision, recall, f1) == (0.5, 0.5, 0.5)
        assert accuracy == 0.5

    def test_all_correct(self):
        assert f1_recall_precision_accuracy((3, 0, 5, 0)) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_computed(self):
        f1, recall, precision, accuracy = f1_recall_precision_accuracy((2, 1, 7, 0))
        assert precision == pytest.approx(2.0 / 3.0)
        assert recall == 1.0
        assert f1 == pytest.approx(0.8)
        assert accuracy == pytest.approx(0.9)

    def test_zero_division_conventions(self):
        # no predicted positives -> precision 0; no actual positives -> recall 0
        f1, recall, precision, _ = f1_recall_precision_accuracy((0, 0, 4, 2))
        assert (f1, recall, precision) == (0.0, 0.0, 0.0)
        f1, recall, precision, _ = f1_recall_precision_accuracy((0, 3, 3, 0))
        assert (f1, recall, precision) == (0.0, 0.0, 0.0)

    def test_rejects_negative_or_empty_counts(self):
        with pytest.raises(ValueError):
            f1_recall_precision_accuracy((-1, 0, 1, 0))
        with pytest.raises(ValueError):
            f1_recall_precision_accuracy((0, 0, 0, 0))


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0

    def test_reversed_ranking(self):
        assert auroc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0

    def test_three_of_four_pairs(self):
        assert auroc(np.array([0.9, 0.8, 0.3, 0.2]),
                     np.array([1, 0, 1, 0])) == pytest.approx(0.75)

    def test_all_tied_is_half(self):
        assert auroc(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0])) == \
            pytest.approx(0.5)

    def test_single_class_is_none(self):
        assert auroc(np.array([0.2, 0.8]), np.array([1, 1])) is None
        assert auroc(np.array([0.2, 0.8]), np.array([0, 0])) is None

    def test_matches_brute_force_with_heavy_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = int(rng.integers(5, 120))
            scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=m)
            labels = rng.integers(0, 2, size=m)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == brute_force_auroc(scores, labels)

    def test_matches_brute_force_on_continuous_scores(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            m = int(rng.integers(5, 120))
            scores = rng.uniform(size=m)
            labels = rng.integers(0, 2, size=m)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == brute_force_auroc(scores, labels)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(15)
        scores = rng.uniform(size=60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        squashed = 1.0 / (1.0 + np.exp(-(3.0 * scores - 1.0)))
        assert auroc(scores, labels) == auroc(squashed, labels)


class TestSelectThresholds:
    def test_midpoint_between_classes(self):
        ps = PredictionSet(np.array([[0.1], [0.6], [0.8]]),
                           np.array([[0], [1], [1]]))
        thresholds = select_thresholds(ps)
        assert thresholds[0] == pytest.approx(0.35)
        assert f1_at(ps.scores[:, 0], ps.labels[:, 0], thresholds[0]) == 1.0

    def test_all_positive_labels_choose_zero(self):
        ps = PredictionSet(np.array([[0.2], [0.7]]), np.array([[1], [1]]))
        assert select_thresholds(ps)[0] == 0.0

    def test_all_negative_labels_tie_at_zero_f1(self):
        # without any positives F1 is 0 at every candidate, so the
        # smallest-threshold tie rule leaves the scan at 0.0
        ps = PredictionSet(np.array([[0.2], [0.7]]), np.array([[0], [0]]))
        threshold = select_thresholds(ps)[0]
        assert threshold == 0.0
        assert grid_best_f1(ps.scores[:, 0], ps.labels[:, 0]) == 0.0

    def test_ties_break_toward_smallest_threshold(self):
        # F1 = 2/3 both at threshold 0 (TP=2, FP=2) and at 0.7 (TP=1, FN=1);
        # the scan must keep the smaller candidate
        scores = np.array([[0.2], [0.4], [0.6], [0.8]])
        labels = np.array([[1], [0], [0], [1]])
        ps = PredictionSet(scores, labels)
        assert f1_at(scores[:, 0], labels[:, 0], 0.0) == pytest.approx(2 / 3)
        assert f1_at(scores[:, 0], labels[:, 0], 0.7) == pytest.approx(2 / 3)
        assert select_thresholds(ps)[0] == 0.0

    def test_never_beaten_by_dense_grid(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            m = int(rng.integers(2, 120))
            scores = rng.uniform(size=(m, 2))
            labels = rng.integers(0, 2, size=(m, 2))
            ps = PredictionSet(scores, labels)
            thresholds = select_thresholds(ps)
            for lab in range(2):
                chosen = f1_at(scores[:, lab], labels[:, lab], thresholds[lab])
                assert chosen >= grid_best_f1(scores[:, lab], labels[:, lab])

    def test_matches_exhaustive_candidate_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = int(rng.integers(2, 60))
            scores = rng.choice(np.linspace(0, 1, 9), size=(m, 1))
            labels = rng.integers(0, 2, size=(m, 1))
            ps = PredictionSet(scores, labels)
            threshold = select_thresholds(ps)[0]
            uniq = np.unique(scores[:, 0])
            candidates = np.concatenate(
                [[0.0], (uniq[:-1] + uniq[1:]) / 2.0, [1.0]])
            best, best_t = -1.0, None
            for t in candidates:
                f1 = f1_at(scores[:, 0], labels[:, 0], t)
                if f1 > best:
                    best, best_t = f1, t
            assert threshold == best_t


class TestThresholdScanAgainstLoop:
    @pytest.mark.parametrize("column", ["random", "tied", "all_positive", "all_negative"])
    def test_equals_the_per_candidate_loop_exactly(self, column):
        rng = np.random.default_rng(18)
        for _ in range(40):
            m = int(rng.integers(1, 400))
            if column == "tied":
                scores = rng.choice(np.linspace(0.0, 1.0, int(rng.integers(1, 6))), size=m)
            else:
                scores = rng.uniform(size=m)
            labels = {"all_positive": np.ones(m, dtype=np.uint8),
                      "all_negative": np.zeros(m, dtype=np.uint8)}.get(
                column, rng.integers(0, 2, size=m).astype(np.uint8))
            assert _best_threshold(scores, labels) == loop_best_threshold(scores, labels)


class TestPredictionSet:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PredictionSet(np.zeros((3, 2)), np.zeros((3, 3), dtype=int))

    def test_rejects_scores_outside_unit_interval(self):
        with pytest.raises(ValueError):
            PredictionSet(np.array([[1.2]]), np.array([[1]]))

    def test_rejects_nan_scores(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            PredictionSet(np.array([[0.5], [np.nan]]), np.array([[1], [0]]))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            PredictionSet(np.array([[0.5]]), np.array([[2]]))

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            PredictionSet(np.array([0.5]), np.array([1]))


class TestEvaluate:
    def make_predictions(self, m, n_labels, seed):
        rng = np.random.default_rng(seed)
        return PredictionSet(rng.uniform(size=(m, n_labels)),
                             rng.integers(0, 2, size=(m, n_labels)))

    def test_perfect_predictor_scores_one_everywhere(self):
        labels = np.random.default_rng(18).integers(0, 2, size=(40, 3))
        labels[0], labels[1] = 0, 1  # both classes present per column
        ps = PredictionSet(labels.astype(float), labels)
        report = evaluate(ps, np.full(3, 0.5))
        for key in ("f1", "recall", "precision", "accuracy", "auroc"):
            assert report.macro[key] == 1.0

    def test_random_scores_near_half_auroc_and_accuracy(self):
        rng = np.random.default_rng(19)
        ps = PredictionSet(rng.uniform(size=(10_000, 4)),
                           rng.integers(0, 2, size=(10_000, 4)))
        report = evaluate(ps, np.full(4, 0.5))
        assert 0.47 <= report.macro["auroc"] <= 0.53
        assert 0.47 <= report.macro["accuracy"] <= 0.53

    def test_macro_is_unweighted_mean(self):
        ps = self.make_predictions(50, 3, seed=20)
        report = evaluate(ps, np.full(3, 0.5))
        np.testing.assert_allclose(
            report.macro["f1"], np.mean([lm.f1 for lm in report.per_label]))
        assert all(isinstance(lm, LabelMetrics) for lm in report.per_label)

    def test_invariant_to_sample_order(self):
        ps = self.make_predictions(60, 2, seed=21)
        perm = np.random.default_rng(22).permutation(60)
        shuffled = PredictionSet(ps.scores[perm], ps.labels[perm])
        thresholds = np.array([0.4, 0.6])
        assert evaluate(ps, thresholds).to_dict() == \
            evaluate(shuffled, thresholds).to_dict()

    def test_single_class_column_excluded_from_macro_with_warning(self):
        scores = np.array([[0.2, 0.3], [0.8, 0.6], [0.7, 0.9]])
        labels = np.array([[0, 1], [1, 1], [1, 1]])  # column 1 has no negatives
        ps = PredictionSet(scores, labels)
        with pytest.warns(UserWarning):
            report = evaluate(ps, np.array([0.5, 0.5]))
        assert report.per_label[1].auroc is None
        assert report.macro["auroc"] == report.per_label[0].auroc

    def test_micro_block_pools_counts(self):
        ps = self.make_predictions(80, 3, seed=23)
        report = evaluate(ps, np.full(3, 0.5), include_micro=True)
        assert report.micro is not None
        tp = fp = tn = fn = 0
        for lab in range(3):
            a, b, c, d = binary_counts(ps.scores[:, lab], ps.labels[:, lab], 0.5)
            tp, fp, tn, fn = tp + a, fp + b, tn + c, fn + d
        f1, recall, precision, accuracy = f1_recall_precision_accuracy(
            (tp, fp, tn, fn))
        assert report.micro["f1"] == pytest.approx(f1)
        assert report.micro["auroc"] == pytest.approx(
            auroc(ps.scores.ravel(), ps.labels.ravel()))

    def test_report_dict_shape(self):
        ps = self.make_predictions(30, 2, seed=24)
        report = evaluate(ps, np.array([0.5, 0.5]))
        as_dict = report.to_dict()
        assert isinstance(report, MetricsReport)
        assert set(as_dict) == {"per_label", "macro", "micro"}
        assert as_dict["micro"] is None
        assert {lm["label"] for lm in as_dict["per_label"]} == {0, 1}
