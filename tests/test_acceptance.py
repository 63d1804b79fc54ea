"""Release gate: the properties every build must satisfy before shipping.

Each test pins one externally visible guarantee of the pipeline at a fixed
tolerance: simulator exactness against dense oracles, kernel matrix
structure, metric exactness, SVM optimality, class separation on the
seeded synthetic dataset, end-to-end quality and runtime, and bytewise
determinism. Tolerances here are contractual; do not loosen them to make
a regression pass.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from qpatch import metrics, patches, svm
from qpatch.cli import main
from qpatch.quantum import _embed_vector, fidelity_kernel
from qpatch.spoof import BONAFIDE, read_manifest
from qpatch.svm import train_svm

from _oracles import dense_embed_pair, dense_embed_patch


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """One complete default-config pipeline run, shared across the gate."""
    work = tmp_path_factory.mktemp("gate") / "work"
    start = time.perf_counter()
    code = main(["--work-dir", str(work), "run-all"])
    elapsed = time.perf_counter() - start
    assert code == 0
    return work, elapsed


def test_self_fidelity_is_one_for_100_random_vectors():
    rng = np.random.default_rng(20240)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        length = 4 if i % 2 == 0 else 8
        x = rng.normal(0.0, 2.0, size=length)
        worst = max(worst, abs(fidelity_kernel(x, x) - 1.0))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0


def test_embeddings_match_dense_kronecker_oracle():
    rng = np.random.default_rng(20241)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        depth = 1 + i % 3
        x4 = rng.normal(0.0, 2.0, size=4)
        got = _embed_vector(x4[None], depth, "Z")[0, 0]
        want = dense_embed_patch(x4, depth=depth)
        worst = max(worst, np.max(np.abs(got - want)))
    for i in range(50):
        depth = 1 + i % 3
        x8 = rng.normal(0.0, 2.0, size=8)
        got = _embed_vector(x8[None], depth, "Z")[0, 0]
        want = dense_embed_pair(x8, depth=depth)
        worst = max(worst, np.max(np.abs(got - want)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0


def test_eighty_sample_gram_is_symmetric_unit_diagonal_psd(default_run):
    work, _ = default_run
    gram = np.loadtxt(work / "gram_quantum.csv", delimiter=",")
    assert gram.shape == (80, 80)
    assert np.max(np.abs(gram - gram.T)) < 1e-10
    assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-10
    assert np.linalg.eigvalsh(gram)[0] >= -1e-8


def test_bandwidth_component_never_changes_kernel_values():
    # s3 feeds a Z rotation applied to a qubit still in |0>, so the kernel
    # must be exactly blind to it; this is a structural property, not a
    # tolerance question, hence the near-machine-epsilon bound.
    rng = np.random.default_rng(20242)
    worst = 0.0
    for trial in range(25):
        depth = 1 + trial % 3
        for length in (4, 8):
            x = rng.normal(0.0, 2.0, size=length)
            y = rng.normal(0.0, 2.0, size=length)
            base = fidelity_kernel(x, y, depth=depth)
            xp, yp = x.copy(), y.copy()
            xp[2::4] += rng.normal(0.0, 5.0, size=length // 4)
            yp[2::4] += rng.normal(0.0, 5.0, size=length // 4)
            worst = max(worst, abs(fidelity_kernel(xp, yp, depth=depth) - base))
    assert worst <= 1e-12


def auroc_pair_counting(scores, labels):
    """Probability a random positive outranks a random negative, ties half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def eer_threshold_sweep(scores, labels):
    """Walk thresholds from high to low and report the first FPR >= FNR point."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    npos = int(np.sum(labels == 1))
    nneg = labels.size - npos
    thresholds = [np.inf] + sorted(set(scores.tolist()), reverse=True) + [-np.inf]
    rows = []
    for tau in thresholds:
        fp = int(np.sum((scores >= tau) & (labels == 0)))
        tp = int(np.sum((scores >= tau) & (labels == 1)))
        rows.append((fp / nneg, (npos - tp) / npos))
    for a in range(1, len(rows)):
        fpr, fnr = rows[a]
        if fpr - fnr >= 0.0:
            if fpr == fnr:
                return fpr
            fpr0, fnr0 = rows[a - 1]
            t = (fnr0 - fpr0) / ((fpr - fpr0) + (fnr0 - fnr))
            return fpr0 + t * (fpr - fpr0)
    raise AssertionError("no crossing found")


def test_auroc_and_eer_match_brute_force_oracles_exactly():
    rng = np.random.default_rng(20243)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = np.round(rng.normal(0.0, 1.0, size=n), 1)  # force ties
        assert metrics.auroc(scores, labels) == auroc_pair_counting(scores, labels)
        eer_value, _ = metrics.eer(scores, labels)
        assert eer_value == eer_threshold_sweep(scores, labels)
        checked += 1


def test_two_point_problem_recovers_closed_form():
    model = train_svm(np.eye(2), [1.0, -1.0], C=1.0)
    alphas = model.dual_coefs * np.array([1.0, -1.0])[model.support_indices]
    np.testing.assert_allclose(alphas, [1.0, 1.0], atol=1e-12, rtol=0.0)
    assert abs(model.bias) <= 1e-12


def test_random_problems_satisfy_kkt_within_tolerance():
    rng = np.random.default_rng(20244)
    tol = 1e-4
    for trial in range(20):
        n = int(rng.integers(4, 41))
        a = rng.normal(size=(n, max(2, n // 2)))
        kernel = a @ a.T
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        labels[0], labels[1] = 1.0, -1.0  # both classes always present
        c = float(rng.choice([0.5, 1.0, 10.0]))
        model = train_svm(kernel, labels, C=c, tol=tol)
        beta = np.zeros(n)
        beta[model.support_indices] = model.dual_coefs
        upper = np.maximum(0.0, c * labels)
        lower = np.minimum(0.0, c * labels)
        assert np.all(beta <= upper + 1e-12) and np.all(beta >= lower - 1e-12)
        assert abs(beta.sum()) <= 1e-9
        grad = labels - kernel @ beta
        can_up = beta < upper - 1e-12
        can_dn = beta > lower + 1e-12
        gap = 0.0
        if can_up.any() and can_dn.any():
            gap = float(np.max(grad[can_up]) - np.min(grad[can_dn]))
        assert gap <= 1.5 * tol


def test_cross_class_similarity_below_both_within_class_means(default_run):
    work, _ = default_run
    manifest = read_manifest(work / "manifest.csv")
    rows = patches.read_features_csv(work / "features.csv")
    assert len(rows) == 100
    labels = [label for _, label, _ in rows]
    gram = svm.build_gram([fv for _, _, fv in rows],
                          {"kind": "quantum", "depth": 1, "s3_axis": "Z"})
    report = metrics.kernel_structure(gram, labels)
    assert len(manifest.entries) == 100
    for stats in report["within_class"].values():
        assert report["cross_class"]["mean"] < stats["mean"]


def test_default_run_is_accurate_and_fast(default_run):
    work, elapsed = default_run
    report = json.loads((work / "report_quantum.json").read_text())
    assert report["n_dev"] == 20
    assert report["auroc"] >= 0.75
    assert elapsed < 60.0


def test_repeat_run_with_same_config_is_byte_identical(default_run):
    work, _ = default_run
    tracked = ["features.csv", "gram_quantum.csv", "gram_rbf.csv",
               "report_quantum.json", "report_rbf.json"]
    before = {name: (work / name).read_bytes() for name in tracked}
    assert main(["--work-dir", str(work), "run-all"]) == 0
    for name in tracked:
        assert (work / name).read_bytes() == before[name], f"{name} changed"
