"""Simulator tests against dense Kronecker-product oracles, kernel properties,
and the structural inertness of the bandwidth feature."""

import numpy as np
import pytest

from qpatch.config import ExperimentConfig
from qpatch.quantum import (
    _embed_vector,
    _kron_rows,
    _layer_sign,
    check_circuit,
    fidelity_kernel,
    rotation_matrix,
)

from _oracles import (
    dense_1q,
    dense_cz,
    dense_embed_pair,
    dense_embed_patch,
    dense_kernel,
    dense_rotation,
)


def embed_one(x, depth=1, s3_axis="Z"):
    """The state of one feature row: 4 angles (a patch) or 8 (a pair)."""
    return _embed_vector(np.asarray(x, float)[None], depth, s3_axis)[0, 0]


def random_state(rng, n_qubits):
    amps = rng.standard_normal(2 ** n_qubits) + 1j * rng.standard_normal(2 ** n_qubits)
    return amps / np.linalg.norm(amps)


def ground(n_qubits):
    return np.eye(2 ** n_qubits)[0]


def overlap(a, b):
    """|<a|b>|^2 of two amplitude vectors."""
    return abs(np.vdot(a, b)) ** 2


def on_qubit(n_qubits, qubit, u):
    """The (m, 2^n, 2^n) row-wise Kronecker product of identities with the
    (2, 2, m) rotations u on `qubit`."""
    factors = [np.eye(2)[..., None]] * n_qubits
    factors[qubit] = u
    return _kron_rows(factors)


def rotate(amps, axis, qubit, theta):
    """One state through a rotation built as a half-register factor."""
    amps = np.asarray(amps, dtype=complex)
    n_qubits = amps.size.bit_length() - 1
    u = rotation_matrix(axis, np.atleast_1d(theta))
    return on_qubit(n_qubits, qubit, u)[0] @ amps


class TestStateVector:
    def test_zero_state(self):
        """Zero angles leave every row of a batch in |0...0>."""
        psi = _embed_vector(np.zeros((3, 4)), 3, "Y")
        np.testing.assert_array_equal(psi, np.tile(ground(4), (3, 1, 1)))


class TestRotationMatrix:
    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, np.pi, 2.2, -1.7])
    def test_matches_matrix_exponential(self, axis, theta):
        np.testing.assert_allclose(rotation_matrix(axis, theta),
                                   dense_rotation(axis, theta), atol=1e-13)

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_unitary(self, axis):
        u = rotation_matrix(axis, 1.234)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)

    def test_unknown_axis(self):
        # refused where the axis enters, by the config; rotation_matrix trusts it
        with pytest.raises(ValueError, match="invalid s3 axis 'W'"):
            check_circuit(1, "W")
        with pytest.raises(ValueError, match="invalid s3 axis 'W'"):
            ExperimentConfig(s3_axis="W")


class TestApplyRotation:
    """Single rotations through _kron_rows, which builds each layer's
    half-register factors U_A and U_B."""

    def test_ry_pi_flips_qubit(self):
        """R_Y(pi)|0> = |1> up to global phase."""
        out = rotate(ground(1), "Y", 0, np.pi)
        assert overlap(out, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_msb_ordering(self):
        """Flipping qubit 0 of two qubits lands on basis index 2 (binary 10)."""
        out = rotate(ground(2), "X", 0, np.pi)
        assert np.abs(out[2]) == pytest.approx(1.0, abs=1e-12)

    def test_rz_on_zero_qubit_is_phase_only(self):
        rng = np.random.default_rng(0)
        # build a 3-qubit state with qubit 1 fixed to |0>
        amps = np.zeros(8, dtype=complex)
        for idx in (0, 1, 4, 5):  # bit 1 clear
            amps[idx] = rng.standard_normal() + 1j * rng.standard_normal()
        amps /= np.linalg.norm(amps)
        out = rotate(amps, "Z", 1, 2.1)
        np.testing.assert_allclose(np.abs(out), np.abs(amps), atol=1e-13)
        assert overlap(out, amps) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("qubit", [0, 1, 2, 3])
    def test_matches_dense_oracle(self, axis, qubit):
        rng = np.random.default_rng(hash((axis, qubit)) % 2 ** 31)
        state = random_state(rng, 4)
        theta = rng.uniform(-np.pi, np.pi)
        out = rotate(state, axis, qubit, theta)
        oracle = dense_1q(4, qubit, dense_rotation(axis, theta)) @ state
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("qubit", [0, 2, 3])
    def test_each_row_rotates_by_its_own_angle(self, axis, qubit):
        """A (2, 2, n) matrix gives row i the factor of angle i."""
        rng = np.random.default_rng(7 + qubit)
        psi = np.stack([random_state(rng, 4) for _ in range(5)])
        thetas = rng.uniform(-np.pi, np.pi, 5)
        factors = on_qubit(4, qubit, rotation_matrix(axis, thetas))
        assert factors.shape == (5, 16, 16)
        out = np.einsum("mij,mj->mi", factors, psi)
        for row, start, theta in zip(out, psi, thetas):
            oracle = dense_1q(4, qubit, dense_rotation(axis, theta)) @ start
            np.testing.assert_allclose(row, oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, 5)
        for axis in "XYZ":
            state = rotate(state, axis, int(rng.integers(5)), rng.uniform(-4, 4))
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestApplyCz:
    """A layer's CZs, applied as one +-1 diagonal per qubit count."""

    def test_leaves_00_alone(self):
        for n_qubits in (4, 8):
            assert _layer_sign(n_qubits)[0] == 1.0

    def test_flips_bell_sign(self):
        """By hand, qubit 0 the most significant bit: an odd number of
        adjacent excited pairs flips the sign."""
        four = _layer_sign(4)
        assert four[0b1100] == four[0b0110] == four[0b1111] == -1.0
        assert four[0b1010] == four[0b1001] == four[0b1110] == 1.0
        assert _layer_sign(8)[0b00011000] == -1.0  # CZ(3,4) joins the patches

    @pytest.mark.parametrize("n_qubits", [4, 8])
    def test_is_product_of_layer_cz_diagonals(self, n_qubits):
        """The chain CZ(0,1) CZ(1,2) CZ(2,3) on each four qubits, plus the
        inter-patch CZ(3,4) on eight, as one +-1 diagonal."""
        pairs = [(base + j, base + j + 1) for base in range(0, n_qubits, 4)
                 for j in range(3)]
        if n_qubits == 8:
            pairs.append((3, 4))
        product = np.eye(2 ** n_qubits, dtype=complex)
        for a, b in pairs:
            product = dense_cz(n_qubits, a, b) @ product
        np.testing.assert_array_equal(_layer_sign(n_qubits), np.diag(product))

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 3), (3, 4)])
    def test_matches_dense_oracle(self, pair):
        """Each layer CZ is a factor of the sign vector: dividing the layer's
        diagonal by CZ(a, b) leaves the layer without that gate, on every
        register that holds the pair."""
        rng = np.random.default_rng(pair[0] * 10 + pair[1])
        for n_qubits in (4, 8):
            if pair[1] >= n_qubits:
                continue
            layer = [(j, j + 1) for j in range(n_qubits - 1)]
            assert pair in layer
            rest = np.eye(2 ** n_qubits, dtype=complex)
            for a, b in layer:
                if (a, b) != pair:
                    rest = dense_cz(n_qubits, a, b) @ rest
            state = random_state(rng, n_qubits)
            np.testing.assert_allclose(
                _layer_sign(n_qubits) * state,
                dense_cz(n_qubits, *pair) @ (rest @ state), atol=1e-15)
            np.testing.assert_allclose(
                _layer_sign(n_qubits) * np.diag(dense_cz(n_qubits, *pair)) * state,
                rest @ state, atol=1e-15)


class TestCircuitSpec:
    def test_depth_bounds(self):
        for bad in (0, 4):
            with pytest.raises(ValueError, match="depth"):
                check_circuit(bad, "Z")
            with pytest.raises(ValueError, match="depth"):
                ExperimentConfig(depth=bad)

    def test_invalid_s3_axis(self):
        with pytest.raises(ValueError, match="s3 axis"):
            check_circuit(1, "Q")

    def test_patch_layer_structure(self):
        """Four qubits, depth 2: each layer is R_X(q0) R_Y(q1) R_Z(q2) R_Y(q3)
        then CZ(0,1) CZ(1,2) CZ(2,3), the second layer the same as the first."""
        rng = np.random.default_rng(21)
        angles = rng.uniform(-np.pi, np.pi, 4)
        layer = np.eye(16, dtype=complex)
        for qubit, axis in enumerate("XYZY"):
            layer = dense_1q(4, qubit, dense_rotation(axis, angles[qubit])) @ layer
        for a, b in ((0, 1), (1, 2), (2, 3)):
            layer = dense_cz(4, a, b) @ layer
        psi = _embed_vector(angles[None], 2, "Z")
        assert psi.shape == (1, 1, 16)
        np.testing.assert_allclose(psi[0, 0], layer @ layer @ ground(4), atol=1e-12)

    def test_pair_layer_has_inter_patch_cz_each_layer(self):
        """Eight qubits, depth 3: the second patch is the first shifted by
        four qubits, and CZ(3,4) is in every layer, not only the first."""
        rng = np.random.default_rng(22)
        angles = rng.uniform(-np.pi, np.pi, 8)
        patches = np.eye(256, dtype=complex)
        for qubit, axis in enumerate("XYZY" * 2):
            patches = dense_1q(8, qubit, dense_rotation(axis, angles[qubit])) @ patches
        for base in (0, 4):
            for j in range(3):
                patches = dense_cz(8, base + j, base + j + 1) @ patches
        joined = dense_cz(8, 3, 4) @ patches
        psi = _embed_vector(angles[None], 3, "Z")
        assert psi.shape == (1, 1, 256)
        every = joined @ joined @ joined @ ground(8)
        first_only = patches @ patches @ joined @ ground(8)
        np.testing.assert_allclose(psi[0, 0], every, atol=1e-12)
        assert np.max(np.abs(psi[0, 0] - first_only)) > 1e-3


class TestEmbedPatch:
    def test_zero_summary_gives_ground_state(self):
        np.testing.assert_array_equal(embed_one(np.zeros(4)), ground(4))

    def test_pi_on_s1_flips_qubit0(self):
        out = embed_one([np.pi, 0, 0, 0])
        target_amps = np.zeros(16, dtype=complex)
        target_amps[8] = 1.0  # |1000>
        assert overlap(out, target_amps) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, depth, seed):
        rng = np.random.default_rng(100 * depth + seed)
        angles = rng.uniform(-np.pi, np.pi, size=4)
        np.testing.assert_allclose(embed_one(angles, depth),
                                   dense_embed_patch(angles, depth), atol=1e-12)

    def test_accepts_patch_summary(self):
        """A one-patch feature row (k = 1) is the summary the pipeline ships."""
        s = [0.4, 1.2, 0.8, -0.3]
        np.testing.assert_allclose(embed_one(s), dense_embed_patch(s), atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            embed_one(np.zeros(5))


class TestEmbedPair:
    def test_zero_summaries_give_ground_state(self):
        np.testing.assert_array_equal(embed_one(np.zeros(8)), ground(8))

    def test_self_fidelity_both_orders(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
        ab = embed_one([*a, *b])
        ba = embed_one([*b, *a])
        assert overlap(ab, ab) == pytest.approx(1.0, abs=1e-10)
        assert overlap(ba, ba) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_oracle(self, depth, seed):
        rng = np.random.default_rng(200 * depth + seed)
        angles = rng.uniform(-np.pi, np.pi, size=8)
        np.testing.assert_allclose(embed_one(angles, depth),
                                   dense_embed_pair(angles, depth), atol=1e-12)


class TestRowBlocks:
    """_embed_vector builds _ROW_BLOCK (64) angle rows at a time."""

    def test_pair_rows_at_depth_three_match_dense_oracle(self):
        """Length-16 rows, s3 axis Y: each 8-angle block is one pair state."""
        rng = np.random.default_rng(31)
        x = rng.uniform(-np.pi, np.pi, (3, 16))
        psi = _embed_vector(x, 3, "Y")
        assert psi.shape == (3, 2, 256)
        for row, states in zip(x, psi):
            for block, state in enumerate(states):
                np.testing.assert_allclose(
                    state, dense_embed_pair(row[8 * block:8 * block + 8], 3, "Y"),
                    atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 129])
    def test_matches_row_by_row_embedding(self, n_rows, depth):
        """Row counts on and around block edges, single patches and pairs."""
        rng = np.random.default_rng(n_rows + depth)
        for length in (4, 8):
            x = rng.uniform(-np.pi, np.pi, (n_rows, length))
            psi = _embed_vector(x, depth, "Y")
            one_by_one = np.concatenate([_embed_vector(row[None], depth, "Y")
                                         for row in x])
            np.testing.assert_allclose(psi, one_by_one, rtol=0, atol=1e-15)


class TestFidelityKernel:
    @pytest.mark.parametrize("seed", range(10))
    def test_self_kernel_is_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-np.pi, np.pi, 8)
        assert fidelity_kernel(x, x) == pytest.approx(1.0, abs=1e-10)

    def test_zeros(self):
        assert fidelity_kernel(np.zeros(8), np.zeros(8)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed + 50)
        x = rng.uniform(-np.pi, np.pi, 8)
        y = rng.uniform(-np.pi, np.pi, 8)
        assert fidelity_kernel(x, y) == pytest.approx(dense_kernel(x, y), abs=1e-10)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            x = rng.uniform(-np.pi, np.pi, 8)
            y = rng.uniform(-np.pi, np.pi, 8)
            kxy = fidelity_kernel(x, y)
            kyx = fidelity_kernel(y, x)
            assert abs(kxy - kyx) < 1e-12
            assert 0.0 <= kxy <= 1.0 + 1e-12

    def test_single_patch_length_four(self):
        rng = np.random.default_rng(8)
        x, y = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
        assert fidelity_kernel(x, y) == pytest.approx(dense_kernel(x, y), abs=1e-10)

    def test_multi_pair_averaging(self):
        rng = np.random.default_rng(13)
        x, y = rng.uniform(-2, 2, 16), rng.uniform(-2, 2, 16)
        got = fidelity_kernel(x, y)
        per_pair = [dense_kernel(x[i:i + 8], y[i:i + 8]) for i in (0, 8)]
        assert got == pytest.approx(np.mean(per_pair), abs=1e-10)

    def test_odd_patch_count_rejected(self):
        # three patches (12 values) are refused where k enters, by the config,
        # and in a features.csv by kernel and train-eval; the embedding trusts it
        with pytest.raises(ValueError, match="k must be 1 or even, got 3"):
            ExperimentConfig(k=3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity_kernel(np.zeros(8), np.zeros(4))

    def test_accepts_feature_vectors(self):
        """Feature rows as lists or arrays."""
        vals = np.random.default_rng(14).uniform(-1, 1, 8)
        assert fidelity_kernel(vals.tolist(), vals) == pytest.approx(1.0, abs=1e-10)


class TestBandwidthInertness:
    """The q2/q6 qubits receive only a Z rotation on |0> followed by diagonal
    entanglers, so they stay in |0> up to global phase and the third summary
    statistic cannot move any kernel value."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_s3_perturbation_leaves_kernel_fixed(self, depth):
        rng = np.random.default_rng(depth)
        for _ in range(10):
            x = rng.uniform(-np.pi, np.pi, 8)
            y = rng.uniform(-np.pi, np.pi, 8)
            base = fidelity_kernel(x, y, depth=depth)
            xp, yp = x.copy(), y.copy()
            xp[[2, 6]] += rng.uniform(-3, 3, 2)
            yp[[2, 6]] += rng.uniform(-3, 3, 2)
            assert abs(fidelity_kernel(xp, yp, depth=depth) - base) < 1e-12

    def test_q2_stays_in_zero(self):
        rng = np.random.default_rng(42)
        psi = embed_one(rng.uniform(-np.pi, np.pi, 4), depth=3).reshape((2, 2, 2, 2))
        assert np.max(np.abs(psi[:, :, 1, :])) < 1e-14

    def test_y_axis_alternative_restores_sensitivity(self):
        """With the bandwidth angle moved to an R_Y, the kernel does depend
        on it, which is the point of the configurable axis."""
        rng = np.random.default_rng(43)
        x = rng.uniform(-np.pi, np.pi, 8)
        y = rng.uniform(-np.pi, np.pi, 8)
        xp = x.copy()
        xp[2] += 1.0
        base = fidelity_kernel(x, y, s3_axis="Y")
        moved = fidelity_kernel(xp, y, s3_axis="Y")
        assert abs(moved - base) > 1e-6
        np.testing.assert_allclose(
            fidelity_kernel(x, y, s3_axis="Y"), dense_kernel(x, y, s3_axis="Y"),
            atol=1e-10)
