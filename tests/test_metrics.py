"""Metric oracles (pair counting, threshold sweeps), kernel grouping, reports."""

import json
import math

import numpy as np
import pytest

from qpatch.metrics import (
    auroc,
    eer,
    kernel_structure,
    roc_points,
    write_report,
)
from qpatch.config import ExperimentConfig
from qpatch.svm import build_gram, kernel_params
from qpatch.quantum import fidelity_kernel

from _oracles import rbf_kernel


def auroc_oracle(scores, labels):
    """Count (positive, negative) pairs directly; ties score half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def eer_oracle(scores, labels):
    """Brute-force sweep: recompute every operating point by explicit
    counting, then locate the fpr/fnr crossing the same way eer does."""
    npos = sum(labels)
    nneg = len(labels) - npos
    thresholds = [math.inf] + sorted(set(scores), reverse=True) + [-math.inf]
    points = []
    for tau in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if l == 1 and s >= tau)
        fp = sum(1 for s, l in zip(scores, labels) if l == 0 and s >= tau)
        points.append((tau, fp / nneg, (npos - tp) / npos))
    for i, (tau, fpr, fnr) in enumerate(points):
        if fpr - fnr >= 0.0:
            if fpr - fnr == 0.0:
                if not math.isfinite(tau):
                    tau = points[min(i + 1, len(points) - 1)][0]
                return fpr, tau
            tau_a, fpr_a, fnr_a = points[i - 1]
            t = (fnr_a - fpr_a) / ((fpr - fpr_a) + (fnr_a - fnr))
            value = fpr_a + t * (fpr - fpr_a)
            if math.isfinite(tau_a) and math.isfinite(tau):
                return value, tau_a + t * (tau - tau_a)
            return value, tau if math.isfinite(tau) else tau_a
    raise AssertionError("no crossing found")


def roc_loop_oracle(scores, labels):
    """Per-threshold loop: count each class at or above every threshold
    with vector comparisons over all n scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    npos = int(labels.sum())
    nneg = labels.size - npos
    thresholds = np.concatenate([[np.inf], np.unique(scores)[::-1], [-np.inf]])
    fpr = np.empty(thresholds.size)
    fnr = np.empty(thresholds.size)
    for i, tau in enumerate(thresholds):
        pred_pos = scores >= tau
        tp = int(np.count_nonzero(pred_pos & (labels == 1)))
        fp = int(np.count_nonzero(pred_pos & (labels == 0)))
        fpr[i] = fp / nneg
        fnr[i] = (npos - tp) / npos
    return thresholds, fpr, fnr


def random_scores(rng, max_n=12):
    n = int(rng.integers(3, max_n + 1))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    # quantize some scores so ties actually occur
    scores = np.round(rng.random(n), 1)
    return scores, labels


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.9, 0.8, 0.4, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_hand_enumerated_pairs(self):
        assert auroc([0.9, 0.3, 0.6, 0.2], [1, 0, 1, 0]) == 1.0
        assert auroc([0.3, 0.9, 0.6, 0.2], [1, 0, 1, 0]) == 0.5

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_pair_counting_oracle_exactly(self, seed):
        # up to 400 scores rounded to one decimal, so most are tied
        rng = np.random.default_rng(seed)
        scores, labels = random_scores(rng, max_n=400)
        assert auroc(scores, labels) == auroc_oracle(list(scores), list(labels))

    @pytest.mark.parametrize("seed", range(5))
    def test_negation_complement(self, seed):
        rng = np.random.default_rng(seed + 200)
        scores = rng.standard_normal(20)
        labels = np.array([1, 0] * 10)
        assert abs(auroc(scores, labels) + auroc(-scores, labels) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed + 300)
        scores, labels = random_scores(rng)
        base = auroc(scores, labels)
        assert auroc(2.0 * scores + 3.0, labels) == base
        assert auroc(np.exp(scores), labels) == base


class TestRocPoints:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(1)
        scores = rng.random(30)
        labels = np.array([1, 0] * 15)
        thresholds, fpr, tpr, fnr = roc_points(scores, labels).T
        assert thresholds[0] == np.inf and thresholds[-1] == -np.inf
        assert fpr[0] == 0.0 and fnr[0] == 1.0
        assert fpr[-1] == 1.0 and fnr[-1] == 0.0
        # threshold descends, so fpr never decreases along the walk
        assert np.all(np.diff(fpr) >= 0)
        assert np.all(np.diff(fnr) <= 0)
        np.testing.assert_array_equal(tpr, 1.0 - fnr)

    def test_row_count_is_distinct_plus_two(self):
        scores = [0.3, 0.3, 0.7, 0.9, 0.9]
        labels = [0, 0, 1, 1, 0]
        assert roc_points(scores, labels).shape == (3 + 2, 4)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_threshold_loop_oracle_exactly(self, seed):
        # up to 400 scores rounded to one or two decimals, so most are tied
        rng = np.random.default_rng(seed + 900)
        scores, labels = random_scores(rng, max_n=400)
        if seed % 2:
            scores = np.round(rng.random(scores.size), 2)
        thresholds, fpr, _, fnr = roc_points(scores, labels).T
        want = roc_loop_oracle(scores, labels)
        for got, expected in zip((thresholds, fpr, fnr), want):
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("fn", [roc_points, auroc, eer])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_rejected(fn, bad):
    # with the nan, a per-threshold loop gave an fpr stopping at 2/3 and AUROC 0.417
    with pytest.raises(ValueError, match="scores must be finite"):
        fn([0.3, bad, 0.7, 0.1, 0.7], [1, 0, 1, 0, 0])


@pytest.mark.parametrize("fn", [roc_points, auroc, eer])
@pytest.mark.parametrize("labels", [[1, 1, 1], [0, 0, 0], []], ids=["positive", "negative", "none"])
def test_labels_of_one_class_rejected(fn, labels):
    # auroc would divide by zero pairs and the ROC rates by an empty class
    with pytest.raises(ValueError, match="labels must hold both classes, 1 and 0"):
        fn([0.1, 0.2, 0.3][:len(labels)], labels)


class TestEer:
    def test_perfect_separation(self):
        value, tau = eer([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert value == 0.0
        assert 0.2 < tau <= 0.8

    def test_anti_classifier(self):
        labels = [1, 0, 1, 0, 1, 0]
        scores = [1.0 - l for l in labels]
        value, _ = eer(scores, labels)
        assert value == 1.0

    def test_hand_worked_crossing(self):
        scores = [0.9, 0.6, 0.55, 0.4, 0.3, 0.1]
        labels = [1, 1, 0, 1, 0, 0]
        value, tau = eer(scores, labels)
        assert value == 1.0 / 3.0
        assert 0.4 <= tau <= 0.55

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_sweep_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed + 400)
        scores, labels = random_scores(rng)
        value, tau = eer(scores, labels)
        value_o, tau_o = eer_oracle(list(scores), list(labels))
        assert value == value_o
        assert tau == tau_o

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_iff_separated(self, seed):
        rng = np.random.default_rng(seed + 500)
        scores, labels = random_scores(rng)
        value, _ = eer(scores, labels)
        separated = scores[labels == 1].min() > scores[labels == 0].max()
        assert (value == 0.0) == separated
        assert 0.0 <= value <= 1.0

    def test_all_equal_scores(self):
        value, tau = eer([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0])
        assert value == 0.5
        assert tau == 0.4


class TestGroupStats:
    """Each group of kernel_structure's dict: mean, std, pair count and the
    mean's percent change from 1.0, or None fields when the group is empty."""

    def _report(self):
        # bonafide has one sample, so no within-class pair; the cross pairs are 0.5 and 0.7
        k = np.array([[1.0, 0.5, 0.7], [0.5, 1.0, 0.9], [0.7, 0.9, 1.0]])
        return kernel_structure(k, ["bonafide", "spoof", "spoof"])

    def test_group_of_two_values(self):
        g = self._report()["cross_class"]
        assert g["mean"] == pytest.approx(0.6)
        assert g["std"] == pytest.approx(0.1)
        assert g["n_pairs"] == 2
        assert g["delta_pct"] == pytest.approx(-40.0)

    def test_empty_group(self):
        g = self._report()["within_class"]["bonafide"]
        assert g == {"mean": None, "std": None, "n_pairs": 0, "delta_pct": None}


class TestKernelStructure:
    def test_all_ones_kernel(self):
        k = np.ones((4, 4))
        rep = kernel_structure(k, ["bonafide", "bonafide", "spoof", "spoof"])
        for stats in rep["same_sample"].values():
            assert stats["mean"] == 1.0 and stats["std"] == 0.0
        for stats in rep["within_class"].values():
            assert stats["mean"] == 1.0
            assert stats["delta_pct"] == 0.0
        assert rep["cross_class"]["mean"] == 1.0

    def test_block_diagonal_kernel(self):
        k = np.kron(np.eye(2), np.ones((2, 2)))
        rep = kernel_structure(k, ["bonafide", "bonafide", "spoof", "spoof"])
        assert rep["cross_class"]["mean"] == 0.0
        assert rep["cross_class"]["delta_pct"] == -100.0
        assert rep["within_class"]["bonafide"]["mean"] == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_group_enumeration_oracle(self, seed):
        """Explicit pair loops, checking the diagonal stays out of the
        cross-sample groups."""
        rng = np.random.default_rng(seed + 600)
        n = 8
        k = rng.random((n, n))
        k = (k + k.T) / 2
        np.fill_diagonal(k, 1.0)
        labels = ["bonafide"] * 4 + ["spoof"] * 4
        rep = kernel_structure(k, labels)
        within_b, within_s, cross = [], [], []
        for i in range(n):
            for j in range(i + 1, n):
                if labels[i] == labels[j] == "bonafide":
                    within_b.append(k[i, j])
                elif labels[i] == labels[j] == "spoof":
                    within_s.append(k[i, j])
                else:
                    cross.append(k[i, j])
        assert rep["within_class"]["bonafide"]["mean"] == pytest.approx(
            np.mean(within_b), abs=1e-15)
        assert rep["within_class"]["spoof"]["mean"] == pytest.approx(
            np.mean(within_s), abs=1e-15)
        assert rep["cross_class"]["mean"] == pytest.approx(np.mean(cross), abs=1e-15)
        assert rep["within_class"]["bonafide"]["n_pairs"] == 6
        assert rep["cross_class"]["n_pairs"] == 16
        assert rep["same_sample"]["bonafide"]["mean"] == 1.0

    def test_per_slot_breakdown(self):
        rng = np.random.default_rng(7)
        feats = [rng.uniform(-2, 2, 8) for _ in range(6)]
        labels = ["bonafide"] * 3 + ["spoof"] * 3
        kernel = {"kind": "quantum", "depth": 1, "s3_axis": "Z"}
        gram = build_gram(feats, kernel)
        rep = kernel_structure(gram, labels, features=feats, kernel=kernel)
        assert set(rep["cross_class_per_slot"]) == {"patch1", "patch2"}
        # oracle: 4-qubit kernel on each block over the 9 cross pairs
        expected = []
        for i in range(3):
            for j in range(3, 6):
                expected.append(fidelity_kernel(feats[i][:4], feats[j][:4]))
        got = rep["cross_class_per_slot"]["patch1"]
        assert got["n_pairs"] == 9
        assert got["mean"] == pytest.approx(np.mean(expected), abs=1e-12)

    def test_rbf_spec_is_used_as_given(self):
        rng = np.random.default_rng(8)
        feats = rng.uniform(-2, 2, (6, 8))
        labels = ["bonafide"] * 3 + ["spoof"] * 3
        # a gamma resolved on other (train) rows is the one used per slot
        kernel = kernel_params(ExperimentConfig(), "rbf", rng.uniform(-1, 1, (10, 8)))
        assert kernel["gamma"] != kernel_params(ExperimentConfig(), "rbf", feats)["gamma"]
        rep = kernel_structure(np.eye(6), labels, features=feats, kernel=kernel)
        expected = [rbf_kernel(feats[i, :4], feats[j, :4], kernel["gamma"])
                    for i in range(3) for j in range(3, 6)]
        assert rep["cross_class_per_slot"]["patch1"]["mean"] == pytest.approx(
            np.mean(expected), abs=1e-15)

    def test_report_is_json_serializable(self):
        k = np.ones((4, 4))
        rep = kernel_structure(k, ["bonafide", "spoof", "bonafide", "spoof"])
        assert json.loads(json.dumps(rep)) == rep
        assert rep["cross_class"]["mean"] == 1.0


class TestWriteReport:
    def _roc(self):
        return roc_points([0.9, 0.7, 0.4, 0.2], [1, 1, 0, 0])

    def test_roundtrip(self, tmp_path):
        metrics = {"auroc": 0.87, "eer": 0.148, "eer_threshold": 0.5,
                   "config": {"seed": 7, "kernel": "quantum"}}
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "roc.csv"
        write_report(json_path, csv_path, metrics, self._roc())
        parsed = json.loads(json_path.read_text())
        assert parsed["schema_version"] == 2
        assert parsed["positive_label"] == "bonafide"
        assert parsed["auroc"] == 0.87
        assert parsed["eer"] == 0.148
        assert parsed["config"]["seed"] == 7

    def test_roc_csv_row_count(self, tmp_path):
        scores = [0.3, 0.3, 0.7, 0.9, 0.9]
        labels = [0, 0, 1, 1, 0]
        roc = roc_points(scores, labels)
        csv_path = tmp_path / "roc.csv"
        write_report(tmp_path / "r.json", csv_path, {"auroc": 0.5}, roc)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr,fnr"
        assert len(lines) - 1 == 3 + 2  # distinct scores + two endpoints

    def test_rewrite_byte_identical(self, tmp_path):
        metrics = {"auroc": 0.8125, "eer": 0.25}
        for name in ("a", "b"):
            write_report(tmp_path / f"{name}.json", tmp_path / f"{name}.csv",
                         metrics, self._roc())
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
