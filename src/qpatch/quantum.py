"""Exact statevector simulation of the patch embedding circuit and fidelity kernel.

The simulator supports exactly what the embedding needs: single-qubit
rotations R_A(theta) = exp(-i theta A / 2) for A in {X, Y, Z} and the
two-qubit CZ gate. Qubit 0 is the most significant bit of the basis index,
so |q0 q1 ... q_{n-1}> has index q0*2^{n-1} + ... + q_{n-1}.

One embedding layer on a four-qubit register encodes a patch summary
(s1, s2, s3, s4) as R_X(q0, s1) R_Y(q1, s2) R_Z(q2, s3) R_Y(q3, s4)
followed by the entangling chain CZ(0,1) CZ(1,2) CZ(2,3). Two-patch
feature vectors use eight qubits: the same structure on q0-q3 and q4-q7
plus one inter-patch CZ(3,4) per layer. Layers repeat with identical
angles up to depth 3.

Simulation is batched: _embed_vector maps an (n, 4k) feature matrix to
(n, blocks, 2^q) amplitudes, _ROW_BLOCK angle rows (a patch or a patch
pair each) at a time. A state is held as a (2^h, 2^h) matrix psi, h = q / 2, whose row
index is the first h qubits and whose column index the last h. A layer's
rotations are a Kronecker product U_A (x) U_B of the two halves'
rotations (_kron_rows), and (U_A (x) U_B) vec(psi) = vec(U_A psi U_B^T)
with row-major vec. U_A and U_B, 4x4 for one patch and 16x16 for a pair,
are built once per row block for every layer; the first acts on |0...0>,
so it is U_A's first column times U_B^T's first row. Each layer ends with
its CZ diagonal, a fixed +-1 matrix per qubit count. The CZs commute
with the other patch's rotations, so moving them after all rotations is
exact. The kernel is the mean over blocks of |S_A S_B^H|^2
(fidelity_matrix). fidelity_kernel is its one-sample case.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_DEPTH = 3
VALID_AXES = ("X", "Y", "Z")
_ROW_BLOCK = 64


def rotation_matrix(axis: str, theta) -> np.ndarray:
    """2x2 matrix of exp(-i theta A / 2) in closed form; (2, 2, n) for n angles."""
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    return np.array([[np.exp(-1j * theta / 2.0), 0.0 * c],  # Z
                     [0.0 * c, np.exp(1j * theta / 2.0)]])


def _kron_rows(factors) -> np.ndarray:
    """Row-wise Kronecker product of (2, c, m) factors, the first factor on
    the most significant qubit: (m, 2^k, c^k) for k factors."""
    out = np.ones((1, 1, 1))
    for u in factors:
        out = out[:, None, :, None] * u[None, :, None, :]
        out = out.reshape(out.shape[0] * 2, -1, out.shape[-1])
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


@functools.lru_cache(maxsize=2)
def _layer_sign(n_qubits: int) -> np.ndarray:
    """+-1 diagonal of one layer's CZs: CZ(j, j+1) for every adjacent pair,
    which is the chain on each four qubits plus CZ(3,4) on eight. Shared,
    so read-only."""
    bits = (np.arange(2 ** n_qubits)[:, None] >> np.arange(n_qubits)[::-1]) & 1
    sign = 1.0 - 2.0 * ((bits[:, :-1] & bits[:, 1:]).sum(axis=1) % 2)
    sign.flags.writeable = False
    return sign


def check_circuit(depth: int, s3_axis: str) -> None:
    """Reject a depth outside 1..MAX_DEPTH or an unknown s3 rotation axis."""
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be 1..{MAX_DEPTH}, got {depth}")
    if s3_axis not in VALID_AXES:
        raise ValueError(f"invalid s3 axis {s3_axis!r}")


def _embed_vector(values, depth: int, s3_axis: str) -> np.ndarray:
    """(n, blocks, 2^q) states of an (n, length) matrix: one block per patch pair.

    Each layer runs R_X R_Y R_{s3_axis} R_Y on every four qubits, then the
    layer's CZs as one sign flip; repeated layers reuse the same angles.
    Each state is built as a (2^h, 2^h) matrix psi, h = q / 2, on which a
    layer is psi <- U_A psi U_B^T (module docstring).
    """
    x = np.asarray(values, dtype=np.float64)
    n, length = x.shape
    q = min(length, 8)
    angles = x.reshape(-1, q)
    h = q // 2
    rotations = [rotation_matrix(axis, angles[:, j])
                 for j, axis in enumerate(("X", "Y", s3_axis, "Y") * (q // 4))]
    sign = _layer_sign(q).reshape(2 ** h, 2 ** h)
    psi = np.empty((angles.shape[0], 2 ** h, 2 ** h), dtype=np.complex128)
    for i in range(0, angles.shape[0], _ROW_BLOCK):
        u = [r[..., i:i + _ROW_BLOCK] for r in rotations]
        u_a, u_bt = _kron_rows(u[:h]), _kron_rows(u[h:]).transpose(0, 2, 1)
        block = psi[i:i + _ROW_BLOCK]
        # the first layer acts on |0...0>: U_A's first column times U_B^T's first row
        np.multiply(u_a[:, :, :1], u_bt[:, :1], out=block)
        block *= sign
        for _ in range(depth - 1):
            block[:] = u_a @ block @ u_bt * sign
    return psi.reshape(n, -1, 2 ** q)


def fidelity_matrix(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Mean over blocks of |<a|b>|^2, every row of states_a against states_b.

    The overlaps are one complex array of that shape, so callers with many
    rows pass them in row blocks (svm.kernel_matrix).
    """
    overlaps = states_a.conj().transpose(1, 0, 2) @ states_b.transpose(1, 2, 0)
    return np.mean(np.abs(overlaps) ** 2, axis=0)


def fidelity_kernel(x, y, depth: int = 1, s3_axis: str = "Z") -> float:
    """Kernel value |<phi(x)|phi(y)>|^2, averaged over patch pairs.

    Length-4 inputs embed on four qubits, length-8 on eight. Longer
    vectors are processed as consecutive non-overlapping patch pairs and
    the per-pair fidelities are averaged. Always in [0, 1] up to rounding.
    """
    xv, yv = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    states = _embed_vector(np.stack([xv, yv]), depth, s3_axis)
    return float(fidelity_matrix(states[:1], states[1:])[0, 0])
