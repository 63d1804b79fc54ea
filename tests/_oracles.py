"""Dense-matrix oracles for the statevector simulator, and the per-pair RBF
kernel the blocked kernel matrices are checked against.

Everything here is built the slow, explicit way: rotations via matrix
exponentials of Pauli matrices, multi-qubit operators via Kronecker
products over the full register. A circuit starts from the basis vector
|0...0> and each full 2^n x 2^n gate matrix is applied to the state in
circuit order. A layer's gate matrices are built once per call and
applied ``depth`` times, since every layer uses the same angles. Qubit 0
is the most significant bit, matching the simulator convention. The
layer structure is written out by hand so these oracles do not depend on
the production circuit builders.
"""

import numpy as np
from scipy.linalg import expm

PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

def dense_rotation(axis, theta):
    """exp(-i theta sigma_axis / 2) by matrix exponential."""
    return expm(-0.5j * theta * PAULI[axis])


def dense_1q(n_qubits, qubit, u):
    """Embed a 2x2 operator on one qubit of an n-qubit register (MSB first).

    Built as the Kronecker product I_left (x) u (x) I_right over the full
    register, so the result is a dense 2^n x 2^n matrix.
    """
    left = np.eye(2 ** qubit, dtype=complex)
    right = np.eye(2 ** (n_qubits - 1 - qubit), dtype=complex)
    return np.kron(np.kron(left, u), right)


def dense_cz(n_qubits, a, b):
    """Diagonal CZ: -1 on every index whose bits a and b are both 1."""
    dim = 2 ** n_qubits
    diag = np.ones(dim, dtype=complex)
    for idx in range(dim):
        bit_a = (idx >> (n_qubits - 1 - a)) & 1
        bit_b = (idx >> (n_qubits - 1 - b)) & 1
        if bit_a and bit_b:
            diag[idx] = -1.0
    return np.diag(diag)


def _dense_patch_layer(n_qubits, base, angles, s3_axis):
    """One embedding layer on qubits base..base+3 as an ordered matrix list."""
    axes = ("X", "Y", s3_axis, "Y")
    mats = [dense_1q(n_qubits, base + j, dense_rotation(axes[j], angles[j]))
            for j in range(4)]
    mats += [dense_cz(n_qubits, base + j, base + j + 1) for j in range(3)]
    return mats


def _apply_layers(dim, layer, depth):
    """Apply the dense matrices of one layer, in order, depth times to |0...0>."""
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0
    for _ in range(depth):
        for mat in layer:
            vec = mat @ vec
    return vec


def dense_embed_patch(angles, depth=1, s3_axis="Z"):
    """Oracle for the 4-qubit embedding: each dense 16x16 gate applied to |0000>."""
    return _apply_layers(16, _dense_patch_layer(4, 0, angles, s3_axis), depth)


def dense_embed_pair(angles8, depth=1, s3_axis="Z"):
    """Oracle for the 8-qubit embedding: each dense 256x256 gate applied to |0...0>."""
    layer = (_dense_patch_layer(8, 0, angles8[:4], s3_axis)
             + _dense_patch_layer(8, 4, angles8[4:], s3_axis)
             + [dense_cz(8, 3, 4)])
    return _apply_layers(256, layer, depth)


def dense_kernel(x, y, depth=1, s3_axis="Z"):
    """Oracle kernel: mean per-pair |<phi(x)|phi(y)>|^2 via dense embeddings."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 4:
        a = dense_embed_patch(x, depth, s3_axis)
        b = dense_embed_patch(y, depth, s3_axis)
        return abs(np.conj(a) @ b) ** 2
    vals = []
    for i in range(0, x.size, 8):
        a = dense_embed_pair(x[i:i + 8], depth, s3_axis)
        b = dense_embed_pair(y[i:i + 8], depth, s3_axis)
        vals.append(abs(np.conj(a) @ b) ** 2)
    return float(np.mean(vals))


def rbf_kernel(x, y, gamma):
    """Oracle RBF kernel of one pair: exp(-gamma * ||x - y||^2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    d = x - y
    return float(np.exp(-gamma * np.dot(d, d)))
