"""Gram construction, RBF baseline, SMO solver correctness, persistence."""

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qpatch import quantum
from qpatch.cli import build_parser
from qpatch.config import ExperimentConfig
from qpatch.metrics import roc_points, write_report
from qpatch.quantum import _embed_vector, fidelity_kernel, fidelity_matrix
from qpatch.svm import (
    build_gram,
    cross_gram,
    decision_scores,
    kernel_matrix,
    kernel_params,
    load_gram,
    save_csv,
    save_gram,
    train_svm,
)

from _oracles import dense_kernel, rbf_kernel


QUANTUM = {"kind": "quantum"}  # depth 1, s3 axis Z: kernel_matrix's defaults


def params(kind, x, **fields):
    """kernel_params of kind on the training rows x under the default config
    with fields set."""
    return kernel_params(ExperimentConfig(**fields), kind, x)


def product_cosine_kernel(a, b, depth, s3_axis):
    """K_d of every row of a against every row of b: the mean over blocks of
    prod cos^2(depth (x_j - y_j) / 2) over the slots whose axis is not Z."""
    length = a.shape[1]
    cos2 = np.cos(depth * (a[:, None, :] - b[None, :, :]) / 2.0) ** 2
    cos2[..., np.tile(["X", "Y", s3_axis, "Y"], length // 4) == "Z"] = 1.0
    return cos2.reshape(len(a), len(b), -1, min(length, 8)).prod(axis=-1).mean(axis=-1)


def random_psd_kernel(rng, n, unit_diag=False):
    a = rng.standard_normal((n, n + 3))
    k = a @ a.T / (n + 3)
    if unit_diag:
        d = np.sqrt(np.diag(k))
        k = k / np.outer(d, d)
    return (k + k.T) / 2.0


def kkt_gap(k, y, beta, C):
    """Recompute the most-violating-pair gap from scratch."""
    v = y - k @ beta
    lower = np.where(y > 0, 0.0, -C)
    upper = np.where(y > 0, C, 0.0)
    up = v[beta < upper - 1e-12]
    dn = v[beta > lower + 1e-12]
    if up.size == 0 or dn.size == 0:
        return 0.0
    return float(up.max() - dn.min())


def model_beta(model, n):
    beta = np.zeros(n)
    beta[model["support_indices"]] = model["dual_coefs"]
    return beta


class TestRbfKernel:
    def test_identical_inputs(self):
        x = np.array([0.3, -1.0, 2.0])
        assert rbf_kernel(x, x, 1.7) == 1.0

    def test_zero_gamma(self):
        assert rbf_kernel(np.zeros(4), np.ones(4), 0.0) == 1.0

    def test_unit_difference(self):
        x = np.array([1.0, 0.0, 0.0])
        y = np.zeros(3)
        assert rbf_kernel(x, y, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        gamma = rng.uniform(0.1, 2.0)
        expected = math.exp(-gamma * math.fsum((a - b) ** 2 for a, b in zip(x, y)))
        assert rbf_kernel(x, y, gamma) == pytest.approx(expected, rel=1e-12)


class TestKernelSpec:
    """The kernel's parameter dict: what kernel_params builds from a config
    and what kernel_matrix refuses."""

    def test_scale_gamma(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 8))
        assert params("rbf", x) == {"kind": "rbf",
                                    "gamma": pytest.approx(1.0 / (8 * x.var()), rel=1e-12)}

    def test_scale_gamma_constant_features(self):
        x = np.ones((5, 8))
        assert params("rbf", x) == {"kind": "rbf", "gamma": pytest.approx(1.0 / 8)}

    def test_numeric_gamma_passthrough(self):
        assert params("rbf", np.zeros((3, 4)), gamma=0.25) == {"kind": "rbf", "gamma": 0.25}
        # an integer stays an integer, as the sidecars record it
        gamma = params("rbf", np.zeros((3, 4)), gamma=2)["gamma"]
        assert gamma == 2 and type(gamma) is int

    def test_quantum_ignores_gamma(self):
        got = params("quantum", np.zeros((3, 8)), depth=2, s3_axis="Y")
        assert got == {"kind": "quantum", "depth": 2, "s3_axis": "Y"}

    def test_unknown_kind(self, capsys):
        # kernel_matrix trusts its kind: an unknown one is refused where it
        # enters, by the --kind choices, with exit 2
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["train-eval", "--kind", "linear"])
        assert err.value.code == 2
        assert "invalid choice: 'linear'" in capsys.readouterr().err


class TestBuildGram:
    def test_single_sample(self):
        rng = np.random.default_rng(2)
        g = build_gram([rng.uniform(-1, 1, 8)], QUANTUM)
        np.testing.assert_allclose(g, [[1.0]], atol=1e-10)

    def test_duplicated_sample_gives_unit_entry(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 8)
        g = build_gram([x, rng.uniform(-1, 1, 8), x.copy()], QUANTUM)
        assert g[0, 2] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ["quantum", "rbf"])
    def test_matches_full_n_squared_oracle(self, kind):
        """Mirrored upper-triangle fill agrees with evaluating every (i, j)
        independently, including the (j, i) entries the shortcut skips."""
        rng = np.random.default_rng(4)
        feats = [rng.uniform(-np.pi, np.pi, 8) for _ in range(5)]
        kernel = params(kind, np.stack(feats))
        g = build_gram(feats, kernel)
        for i in range(5):
            for j in range(5):
                if kind == "quantum":
                    expected = fidelity_kernel(feats[i], feats[j])
                else:
                    expected = rbf_kernel(feats[i], feats[j], kernel["gamma"])
                assert g[i, j] == pytest.approx(expected, abs=1e-12)

    def test_array_and_row_list_agree(self):
        x = np.random.default_rng(8).uniform(-2, 2, (5, 8))
        np.testing.assert_array_equal(build_gram(x, QUANTUM), build_gram(list(x), QUANTUM))

    @pytest.mark.parametrize("kind", ["quantum", "rbf"])
    def test_psd_on_random_samples(self, kind):
        rng = np.random.default_rng(5)
        feats = [rng.uniform(-np.pi, np.pi, 8) for _ in range(50)]
        g = build_gram(feats, params(kind, np.stack(feats)))
        assert np.linalg.eigvalsh(g)[0] >= -1e-8

    @pytest.mark.parametrize("kind", ["quantum", "rbf"])
    @pytest.mark.parametrize("n, length, depth, s3_axis", [(800, 8, 1, "Z"), (300, 16, 3, "Y")],
                             ids=["depth1", "depth3_axisY"])
    def test_psd_on_narrow_band_rows(self, kind, n, length, depth, s3_axis):
        """Rows in scaled_hard's regime, each slot's four statistics drawn
        near [0.5, 1.5, 1.0, 1.0] with spreads [0.23, 0.16, 0.045, 1e-4], give
        kernels near singular (smallest eigenvalues from -9e-14 to 1.2e-5 at
        seed 5) that are still PSD to round-off, as train_svm takes them."""
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (n, length)) * np.tile([0.23, 0.16, 0.045, 1e-4], length // 4)
        x += np.tile([0.5, 1.5, 1.0, 1.0], length // 4)
        g = build_gram(x, params(kind, x, depth=depth, s3_axis=s3_axis))
        assert np.linalg.eigvalsh(g)[0] >= -1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        feats = [rng.uniform(-2, 2, 8) for _ in range(6)]
        a = build_gram(feats, QUANTUM)
        b = build_gram([f.copy() for f in feats], QUANTUM)
        np.testing.assert_array_equal(a, b)


class TestKernelMatrix:
    @pytest.mark.parametrize("length", [4, 8, 16])
    @pytest.mark.parametrize("s3_axis", ["Z", "Y"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_quantum_matches_dense_oracle(self, depth, s3_axis, length):
        rng = np.random.default_rng(10 * depth + length)
        a = rng.uniform(-np.pi, np.pi, (2, length))
        b = rng.uniform(-np.pi, np.pi, (1, length))
        got = kernel_matrix(np.vstack([a, b]), "quantum", depth, s3_axis)
        got = got[:len(a), len(a):]
        want = [[dense_kernel(x, y, depth, s3_axis) for y in b] for x in a]
        assert got.shape == (2, 1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length", [4, 8, 16])
    @pytest.mark.parametrize("s3_axis", ["Z", "Y"])
    def test_depth_one_is_a_product_cosine_kernel(self, s3_axis, length):
        """At depth 1 every CZ follows all rotations and is diagonal +-1, so it
        cancels in the overlap: the kernel is the mean over blocks of
        prod cos^2((x_j - y_j) / 2) over the slots whose axis is not Z."""
        rng = np.random.default_rng(length)
        a = rng.uniform(-np.pi, np.pi, (5, length))
        b = rng.uniform(-np.pi, np.pi, (4, length))
        got = kernel_matrix(np.vstack([a, b]), "quantum", 1, s3_axis)
        got = got[:len(a), len(a):]
        np.testing.assert_allclose(got, product_cosine_kernel(a, b, 1, s3_axis),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length", [4, 8, 16])
    @pytest.mark.parametrize("s3_axis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("cz", [False, True], ids=["no-cz", "cz"])
    def test_layers_compose_to_the_depth_d_cosine_kernel(
            self, monkeypatch, cz, depth, s3_axis, length):
        """With every CZ sign +1 each qubit evolves alone, and d layers of
        R_A(theta) are R_A(d theta): the kernel is the closed form K_d, with
        no dense oracle involved. With the CZs it is K_1 at depth 1, where
        they all follow the rotations, and leaves K_d once they sit between
        layers. 70 rows cross a 64-row block edge."""
        if not cz:
            monkeypatch.setattr(quantum, "_layer_sign", lambda n_qubits: np.ones(2 ** n_qubits))
        x = np.random.default_rng(10 * depth + length).uniform(-np.pi, np.pi, (70, length))
        got = kernel_matrix(x, "quantum", depth, s3_axis)
        gap = np.max(np.abs(got - product_cosine_kernel(x, x, depth, s3_axis)))
        if cz and depth > 1:
            assert gap > 1e-3
        else:
            assert gap < 1e-12

    @pytest.mark.parametrize("kind, length", [("quantum", 8), ("rbf", 8),
                                              ("quantum", 16), ("rbf", 16)],
                             ids=["quantum", "rbf", "quantum-16", "rbf-16"])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_symmetric_block_mirrors_its_upper_triangle(self, n, depth, kind, length):
        """kernel_matrix fills both kinds in one row-block loop, only the
        entries on and right of the diagonal, around row-block edges, and
        mirrors each row block: it is exactly symmetric, its quantum entries
        match one unblocked fidelity_matrix of the same states, and its RBF
        entries are the bits of a one-row-at-a-time oracle with the upper
        triangle mirrored. Row length 16 is deep_circuit's (k 4)."""
        rng = np.random.default_rng(n + depth)
        a = rng.uniform(-np.pi, np.pi, (n, length))
        kernel = params(kind, a, depth=depth, s3_axis="Y")
        k = kernel_matrix(a, **kernel)
        assert np.array_equal(k, k.T)
        if kind == "quantum":
            states = _embed_vector(a, depth, "Y")
            np.testing.assert_allclose(k, fidelity_matrix(states, states), rtol=0, atol=1e-15)
        else:
            oracle = np.empty((n, n))
            for i, row in enumerate(a):
                d = a - row
                oracle[i] = np.exp(-kernel["gamma"] * np.einsum("ij,ij->i", d, d))
            oracle = np.triu(oracle)
            oracle += np.triu(oracle, 1).T
            assert np.array_equal(k, oracle)

    @pytest.mark.parametrize("kind", ["quantum", "rbf"])
    def test_peak_memory_stays_below_two_kernels(self, kind):
        """Mirroring each row block as it is filled needs no temporary the
        size of the kernel: a whole-matrix mirror peaks above twice the
        output, this stays below 1.75 times it."""
        x = np.random.default_rng(12).uniform(-np.pi, np.pi, (600, 4))
        kernel = params(kind, x)
        tracemalloc.start()
        try:
            kernel_matrix(x, **kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * x.shape[0] ** 2 * 8

    @pytest.mark.parametrize("kind", ["quantum", "rbf"])
    def test_gram_is_exactly_symmetric_with_unit_diagonal(self, kind):
        """Past one row block of the overlap product (300 rows), the Gram is
        still exactly symmetric and matches the single-pair kernel."""
        rng = np.random.default_rng(11)
        feats = rng.uniform(-np.pi, np.pi, (300, 16))
        kernel = params(kind, feats)
        g = build_gram(feats, kernel)
        assert np.array_equal(g, g.T)
        np.testing.assert_allclose(np.diag(g), 1.0, rtol=0, atol=1e-12)
        if kind == "quantum":
            expected = fidelity_kernel(feats[290], feats[10])
        else:
            expected = rbf_kernel(feats[290], feats[10], kernel["gamma"])
        assert g[290, 10] == pytest.approx(expected, abs=1e-12)


class TestCrossGram:
    @pytest.mark.parametrize("kind", ["quantum", "rbf"])
    def test_matches_pairwise_evaluation(self, kind):
        rng = np.random.default_rng(7)
        train = [rng.uniform(-2, 2, 8) for _ in range(4)]
        test = [rng.uniform(-2, 2, 8) for _ in range(3)]
        kernel = params(kind, np.stack(train))
        rows = cross_gram(test, train, kernel)
        assert rows.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                if kind == "quantum":
                    expected = fidelity_kernel(test[i], train[j])
                else:
                    expected = rbf_kernel(test[i], train[j], kernel["gamma"])
                assert rows[i, j] == pytest.approx(expected, abs=1e-12)

    def test_gamma_resolved_on_training_features(self):
        rng = np.random.default_rng(8)
        train = rng.standard_normal((6, 8))
        test = rng.standard_normal((2, 8)) * 10  # different scale on purpose
        rows = cross_gram(test, train, params("rbf", train))
        gamma = 1.0 / (8 * train.var())
        expected = rbf_kernel(test[0], train[0], gamma)
        assert rows[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_gram([np.zeros(4)], [np.zeros(8)], QUANTUM)


class TestTrainSvmTwoPoint:
    # the solver's box tolerances scale with C, so a C at or below 1e-12 trains too
    @pytest.mark.parametrize("C", [1.0, 1e-12, 1e-13])
    def test_closed_form_identity_kernel(self, C):
        k = np.eye(2)
        model = train_svm(k, [1, -1], C=C)
        beta = model_beta(model, len(k))
        np.testing.assert_allclose(beta, [min(1.0, C), -min(1.0, C)], rtol=0, atol=1e-12 * C)
        assert model["support_indices"].tolist() == [0, 1]
        assert model["converged"] is True
        assert model["bias"] == pytest.approx(0.0, abs=1e-12)
        scores = decision_scores(model, np.eye(2))
        assert scores[0] > 0 > scores[1]


class TestTrainSvmSeparable:
    def test_four_point_linear_kernel_zero_errors(self):
        x = np.array([[1.0, 1.0], [1.5, 0.5], [-1.0, -1.0], [-0.5, -1.5]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        k = x @ x.T
        model = train_svm(k, y, C=10.0)
        scores = decision_scores(model, k)
        assert np.all(np.sign(scores) == y)
        # brute-force primal check: reconstruct w from the duals and verify the
        # primal decision function gives the same scores
        beta = model_beta(model, len(k))
        w = beta @ x
        primal = x @ w + model["bias"]
        np.testing.assert_allclose(primal, scores, atol=1e-10)


class TestTrainSvmRandomProblems:
    @pytest.mark.parametrize("seed", range(20))
    def test_feasibility_and_kkt(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 41))
        k = random_psd_kernel(rng, n)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = float(rng.uniform(0.5, 5.0))
        given = k.copy()
        model = train_svm(k, y, C=C)
        assert np.array_equal(k, given)  # the solver reads the kernel in place, never writes it
        beta = model_beta(model, len(k))
        alpha = np.abs(beta)
        assert np.all(alpha >= -1e-12)
        assert np.all(alpha <= C + 1e-12)
        assert abs(beta.sum()) < 1e-8
        assert np.all(np.sign(beta[alpha > 1e-12]) == y[alpha > 1e-12])
        assert kkt_gap(k, y, beta, C) <= 1.5e-4

    @pytest.mark.parametrize("labels", [[1.0, 1.0], [-1.0, -1.0]], ids=["positive", "negative"])
    def test_labels_of_one_class_rejected(self, labels):
        # no pair of the dual can move, so the solver would have no KKT gap to report
        with pytest.raises(ValueError, match="labels must hold both classes"):
            train_svm(np.eye(2), labels)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            train_svm(np.eye(4), [1, -1, 1, -1], max_iter=max_iter)

    def test_max_iter_exhaustion_warns_and_reports_not_converged(self):
        rng = np.random.default_rng(40)
        k = random_psd_kernel(rng, 20)
        y = np.array([1.0, -1.0] * 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = train_svm(k, y, C=2.0)
        assert full["converged"] and full["n_iter"] > 1
        with pytest.warns(UserWarning, match="max_iter=1 .* not converged"):
            model = train_svm(k, y, C=2.0, max_iter=1)
        assert not model["converged"]
        assert model["n_iter"] == 1 and model["kkt_gap"] > 1e-4

    def test_duplicated_dataset_same_scores(self):
        """Doubling every training point can split the duals but must leave
        the decision function unchanged."""
        rng = np.random.default_rng(30)
        x = np.vstack([rng.normal(2.0, 0.4, (8, 2)), rng.normal(-2.0, 0.4, (8, 2))])
        y = np.array([1.0] * 8 + [-1.0] * 8)
        gamma = 0.5
        def krn(a, b):
            return np.exp(-gamma * np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))
        k = krn(x, x)
        x2 = np.repeat(x, 2, axis=0)
        y2 = np.repeat(y, 2)
        k2 = krn(x2, x2)
        m1 = train_svm(k, y, C=10.0, tol=1e-10)
        m2 = train_svm((k2 + k2.T) / 2, y2, C=10.0, tol=1e-10)
        probes = rng.normal(0.0, 2.0, (5, 2))
        s1 = decision_scores(m1, krn(probes, x))
        s2 = decision_scores(m2, krn(probes, x2))
        np.testing.assert_allclose(s1, s2, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_invariance(self, seed):
        """Relabeling the rows must not change the learned function. The
        optimizer's pair selection is order-dependent when gradients tie, so
        the comparison trains to a tight tolerance where the unique optimum
        is reached from either ordering."""
        rng = np.random.default_rng(seed + 100)
        n = 20
        k = random_psd_kernel(rng, n)
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        p = rng.permutation(n)
        m1 = train_svm(k, y, C=2.0, tol=1e-12)
        m2 = train_svm(k[np.ix_(p, p)], y[p], C=2.0,
                       tol=1e-12)
        rows = rng.standard_normal((4, n)) * 0.3
        s1 = decision_scores(m1, rows)
        s2 = decision_scores(m2, rows[:, p])
        np.testing.assert_allclose(s1, s2, atol=1e-8)


class TestDecisionScores:
    def test_zero_row_gives_bias(self):
        rng = np.random.default_rng(40)
        k = random_psd_kernel(rng, 10)
        y = np.array([1.0] * 5 + [-1.0] * 5)
        model = train_svm(k, y)
        scores = decision_scores(model, np.zeros((1, 10)))
        assert scores[0] == pytest.approx(model["bias"], abs=1e-15)

    def test_unbounded_sv_row_sign_matches_label(self):
        rng = np.random.default_rng(41)
        x = np.vstack([rng.normal(1.2, 0.7, (10, 2)), rng.normal(-1.2, 0.7, (10, 2))])
        y = np.array([1.0] * 10 + [-1.0] * 10)
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        k = np.exp(-0.5 * d2)
        model = train_svm((k + k.T) / 2, y, C=1.0)
        beta = model_beta(model, len(k))
        alpha = np.abs(beta)
        unbounded = np.flatnonzero((alpha > 1e-6) & (alpha < 1.0 - 1e-6))
        assert unbounded.size > 0
        scores = decision_scores(model, k[unbounded])
        np.testing.assert_array_equal(np.sign(scores), y[unbounded])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_summation_oracle(self, seed):
        rng = np.random.default_rng(seed + 60)
        k = random_psd_kernel(rng, 12)
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        model = train_svm(k, y, C=1.5)
        rows = rng.standard_normal((3, 12)) * 0.2
        scores = decision_scores(model, rows)
        for r in range(3):
            expected = math.fsum(
                model["dual_coefs"][s] * rows[r, model["support_indices"][s]]
                for s in range(model["support_indices"].size)) + model["bias"]
            assert scores[r] == pytest.approx(expected, abs=1e-12)


def _around(x, n=40):
    """The n doubles below x, x, and the n doubles above it, as three rows."""
    rows = []
    for step in (-np.inf, np.inf):
        v, row = x, []
        for _ in range(n):
            v = np.nextafter(v, step)
            row.append(v)
        rows.append(row)
    return [rows[0][::-1], [x], rows[1]]


def _ties(rng):
    """m / 2**(17 - e) for odd m: x * 10**(16 - e) ends in exactly .5."""
    for e in range(-6, 1):
        k = 17 - e
        m = rng.integers(int(10.0**e * 2**k) + 1, int(10.0 ** (e + 1) * 2**k), 300) | 1
        yield [m / 2.0**k]


# each case is a list of blocks, each saved on its own; save_csv formats
# chunks of about 4096 entries, one holding any entry outside (1e-6, 10)
# through np.savetxt and any other in numpy, so the cases cover both kinds
G17_BLOCKS = {
    "uniform": lambda rng: [rng.uniform(0, 1, (300, 200))],
    "uniform_ragged_chunks": lambda rng: [rng.uniform(0, 1, (1001, 7))],
    "log_uniform_sorted": lambda rng: [
        np.sort(10 ** rng.uniform(-9, np.log10(20), 100_000)).reshape(-1, 100)],
    "powers_of_ten": lambda rng: [np.array([row]) for k in range(-8, 2)
                                  for row in _around(float(f"1e{k}"))],
    "dyadic_ties": lambda rng: [np.array(row) for row in _ties(rng)],
    "special": lambda rng: [np.array([[0.0, -0.0, -0.5, np.nan, np.inf, -np.inf,
                                       5e-324, 1e300, 0.5]])],
    "mixed_chunk": lambda rng: [np.array([[0.5, 0.25, 0.0], [1e-7, 0.125, 3.0]])],
    "one_by_one": lambda rng: [np.array([[0.3]]), np.array([[1.0]])],
    "one_row": lambda rng: [rng.uniform(0, 1, (1, 5000))],
    "one_column": lambda rng: [rng.uniform(0, 1, (5000, 1))],
}


@pytest.mark.parametrize("name", list(G17_BLOCKS))
def test_csv_export_is_the_bytes_of_savetxt(tmp_path, name):
    rng = np.random.default_rng(73)
    for block in G17_BLOCKS[name](rng):
        expected = io.BytesIO()
        np.savetxt(expected, block, delimiter=",", fmt="%.17g")
        save_csv(block, tmp_path / "block.csv")
        assert (tmp_path / "block.csv").read_bytes() == expected.getvalue(), block


class TestPersistence:
    def test_gram_roundtrip(self, tmp_path):
        # the %.17g export holds every double exactly
        rng = np.random.default_rng(70)
        g = build_gram([rng.uniform(-1, 1, 8) for _ in range(4)], QUANTUM)
        path = tmp_path / "gram.csv"
        save_gram([(path, g)])
        back = load_gram(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, g)

    def test_gram_rewrite_byte_identical(self, tmp_path):
        rng = np.random.default_rng(71)
        k = build_gram([rng.uniform(-1, 1, 8) for _ in range(3)], QUANTUM)
        for name in ("a", "b"):
            save_gram([(tmp_path / f"{name}.csv", k[1:, :1])])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.csv", "b.csv"]
        assert np.loadtxt(tmp_path / "a.csv", delimiter=",").tolist() == k[1:, 0].tolist()

    def test_model_roundtrip(self, tmp_path):
        """The report's svm block gives back every value of the fit, with its type."""
        rng = np.random.default_rng(72)
        k = random_psd_kernel(rng, 8)
        y = np.array([1.0, -1.0] * 4)
        model = train_svm(k, y, C=2.0)
        path = tmp_path / "report.json"
        write_report(path, tmp_path / "roc.csv", {"svm": model}, roc_points([1.0, 0.0], [1, 0]))
        back = json.loads(path.read_text())["svm"]
        assert set(back) == {"dual_coefs", "support_indices", "bias", "kkt_gap", "n_iter",
                             "converged"}
        back.update(dual_coefs=np.array(back["dual_coefs"]),
                    support_indices=np.array(back["support_indices"]))
        for name, want in model.items():
            got = back[name]
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            else:
                assert type(got) is type(want) and got == want, name
        assert back["converged"] is True
        rows = rng.standard_normal((2, 8))
        np.testing.assert_array_equal(decision_scores(back, rows),
                                      decision_scores(model, rows))
