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
(n, blocks, 2^q) amplitudes, each gate acting in place on all samples
through a (n, 2^qubit, 2, rest) view. The kernel is the mean over blocks
of |S_A S_B^H|^2 (fidelity_matrix). run_circuit, embed_patch, embed_pair
and fidelity_kernel are the n = 1 case.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_DEPTH = 3
VALID_AXES = ("X", "Y", "Z")
_ROW_BLOCK = 64


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amplitudes)
        if amplitudes.shape != (2 ** self.n_qubits,):
            raise ValueError(
                f"amplitude count {amplitudes.shape} does not match "
                f"{self.n_qubits} qubits")
        norm_sq = float(np.sum(np.abs(amplitudes) ** 2))
        if abs(norm_sq - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(amps, n_qubits)


@dataclass(frozen=True)
class RotationGate:
    axis: str
    qubit: int
    source: int  # index into the angle vector


@dataclass(frozen=True)
class CZGate:
    a: int
    b: int


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered gate list for an embedding circuit."""

    n_qubits: int
    depth: int
    gates: tuple

    def __post_init__(self):
        if self.n_qubits not in (4, 8):
            raise ValueError(f"unsupported register size {self.n_qubits}")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be 1..{MAX_DEPTH}, got {self.depth}")
        for g in self.gates:
            if isinstance(g, CZGate) and abs(g.a - g.b) != 1:
                raise ValueError(f"CZ({g.a},{g.b}) is not an adjacent pair")


def rotation_matrix(axis: str, theta) -> np.ndarray:
    """2x2 matrix of exp(-i theta A / 2) in closed form; (2, 2, n) for n angles."""
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if axis == "Z":
        return np.array([[np.exp(-1j * theta / 2.0), 0.0 * c],
                         [0.0 * c, np.exp(1j * theta / 2.0)]])
    raise ValueError(f"unknown rotation axis {axis!r}")


def _rotate(psi: np.ndarray, qubit: int, u: np.ndarray) -> None:
    """Apply u[:, :, i] to `qubit` of row i of psi (n, 2^n_qubits), in place."""
    v = psi.reshape(psi.shape[0], 2 ** qubit, 2, -1)
    u, low = u[..., None, None], v[:, :, 0].copy()
    v[:, :, 0] *= u[0, 0]
    v[:, :, 0] += u[0, 1] * v[:, :, 1]
    v[:, :, 1] *= u[1, 1]
    v[:, :, 1] += u[1, 0] * low


def _cz(psi: np.ndarray, a: int, b: int) -> None:
    """Flip the sign of every row's amplitudes with bits a and b set, in place."""
    a, b = sorted((a, b))
    v = psi.reshape(psi.shape[0], 2 ** a, 2, 2 ** (b - a - 1), 2, -1)
    v[:, :, 1, :, 1] *= -1.0


def apply_rotation(state: StateVector, axis: str, qubit: int, angle: float) -> StateVector:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    psi = state.amplitudes[None].copy()
    _rotate(psi, qubit, rotation_matrix(axis, angle))
    return StateVector(psi[0], state.n_qubits)


def apply_cz(state: StateVector, a: int, b: int) -> StateVector:
    if a == b:
        raise ValueError("CZ needs two distinct qubits")
    for q in (a, b):
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    psi = state.amplitudes[None].copy()
    _cz(psi, a, b)
    return StateVector(psi[0], state.n_qubits)


def _layer_gates(base_qubit: int, s3_axis: str) -> list:
    if s3_axis not in VALID_AXES:
        raise ValueError(f"invalid s3 axis {s3_axis!r}")
    axes = ("X", "Y", s3_axis, "Y")
    gates = [RotationGate(axes[j], base_qubit + j, base_qubit + j) for j in range(4)]
    gates += [CZGate(base_qubit + j, base_qubit + j + 1) for j in range(3)]
    return gates


def patch_circuit(depth: int = 1, s3_axis: str = "Z") -> CircuitSpec:
    """Four-qubit embedding circuit for one patch summary."""
    layer = _layer_gates(0, s3_axis)
    return CircuitSpec(4, depth, tuple(layer * depth))


def pair_circuit(depth: int = 1, s3_axis: str = "Z") -> CircuitSpec:
    """Eight-qubit circuit for a two-patch feature vector.

    Each layer runs the single-patch block on q0-q3 and q4-q7 and then a
    single inter-patch CZ(3,4); repeated layers repeat the whole block
    including the inter-patch gate.
    """
    layer = _layer_gates(0, s3_axis) + _layer_gates(4, s3_axis) + [CZGate(3, 4)]
    return CircuitSpec(8, depth, tuple(layer * depth))


def _simulate(circuit: CircuitSpec, angles: np.ndarray) -> np.ndarray:
    """Run the gate list on |0...0> once per row of angles (n, n_angles)."""
    psi = np.zeros((angles.shape[0], 2 ** circuit.n_qubits), dtype=np.complex128)
    psi[:, 0] = 1.0
    for gate in circuit.gates:
        if isinstance(gate, RotationGate):
            _rotate(psi, gate.qubit, rotation_matrix(gate.axis, angles[:, gate.source]))
        else:
            _cz(psi, gate.a, gate.b)
    return psi


def run_circuit(circuit: CircuitSpec, angles) -> StateVector:
    """Run the gate list on |0...0>; rotation angles come from `angles` by index."""
    psi = _simulate(circuit, np.asarray(angles, dtype=np.float64)[None])
    return StateVector(psi[0], circuit.n_qubits)


def _as_angles(s) -> np.ndarray:
    if hasattr(s, "as_vector"):
        return s.as_vector()
    return np.asarray(getattr(s, "values", s), dtype=np.float64)


def embed_patch(s, depth: int = 1, s3_axis: str = "Z") -> StateVector:
    """Map one patch summary (s1..s4) to a four-qubit state."""
    angles = _as_angles(s)
    if angles.shape != (4,):
        raise ValueError(f"patch summary must have 4 values, got {angles.shape}")
    return run_circuit(patch_circuit(depth, s3_axis), angles)


def embed_pair(s_first, s_second, depth: int = 1, s3_axis: str = "Z") -> StateVector:
    """Map two patch summaries to an eight-qubit state."""
    angles = np.concatenate([_as_angles(s_first), _as_angles(s_second)])
    if angles.shape != (8,):
        raise ValueError("each patch summary must have 4 values")
    return run_circuit(pair_circuit(depth, s3_axis), angles)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 between two states of equal size."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different qubit counts")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _embed_vector(values, depth: int, s3_axis: str) -> np.ndarray:
    """(n, blocks, 2^q) states of an (n, length) matrix: one block per patch pair."""
    x = np.asarray(values, dtype=np.float64)
    n, length = x.shape
    if length == 4:
        circuit = patch_circuit(depth, s3_axis)
    elif length and length % 8 == 0:
        circuit = pair_circuit(depth, s3_axis)
    else:
        raise ValueError(f"feature length {length} unsupported: need 4 (one patch) "
                         "or a multiple of 8 (whole patch pairs)")
    amps = _simulate(circuit, x.reshape(-1, circuit.n_qubits))
    return amps.reshape(n, -1, 2 ** circuit.n_qubits)


def fidelity_matrix(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Mean over blocks of |<a|b>|^2, every row of states_a against states_b.

    Overlaps are formed _ROW_BLOCK rows at a time, never as a full complex n x m.
    """
    out = np.empty((states_a.shape[0], states_b.shape[0]))
    cols = states_b.transpose(1, 2, 0)
    for i in range(0, states_a.shape[0], _ROW_BLOCK):
        rows = states_a[i:i + _ROW_BLOCK].conj().transpose(1, 0, 2)
        out[i:i + _ROW_BLOCK] = np.mean(np.abs(rows @ cols) ** 2, axis=0)
    return out


def fidelity_kernel(x, y, depth: int = 1, s3_axis: str = "Z") -> float:
    """Kernel value |<phi(x)|phi(y)>|^2, averaged over patch pairs.

    Length-4 inputs embed on four qubits, length-8 on eight. Longer
    vectors are processed as consecutive non-overlapping patch pairs and
    the per-pair fidelities are averaged. Always in [0, 1] up to rounding.
    """
    xv, yv = _as_angles(x), _as_angles(y)
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    states = _embed_vector(np.stack([xv, yv]), depth, s3_axis)
    return float(fidelity_matrix(states[:1], states[1:])[0, 0])


def save_statevector(path, state: StateVector) -> None:
    """Debug dump: one CSV row per basis index with real and imaginary parts."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["basis_index", "real", "imag"])
        for i, amp in enumerate(state.amplitudes):
            writer.writerow([i, f"{amp.real:.17g}", f"{amp.imag:.17g}"])
