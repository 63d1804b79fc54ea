"""Kernel construction and a precomputed-kernel support vector machine.

Every kernel block is a kernel_matrix of one row matrix or a slice of one, as
the train Gram, cross rows and dev Gram are of the stacked train and dev rows:
quantum fidelities or an RBF baseline, computed on and right of the diagonal
and mirrored. build_gram and cross_gram are unchecked kernel_matrix calls,
kept by name for the acceptance gate and perfbench's tracer, as load_gram,
the reader of a CSV export, is for the tracer. Training solves
the standard soft-margin dual with a deterministic most-violating-pair SMO
loop that needs nothing beyond numpy.
"""

from __future__ import annotations

import functools
import json
import warnings

import numpy as np

from .atomic import atomic_write
from .quantum import _ROW_BLOCK, _embed_vector, fidelity_matrix

KERNEL_KINDS = ("quantum", "rbf")


def kernel_params(config, kind: str, x_train) -> dict:
    """The kernel's parameters as the model and report record them, and as
    kernel_matrix takes them: kind with config's depth and s3_axis (quantum)
    or gamma (rbf). A gamma of "scale" is resolved on the training rows
    x_train as 1 / (dim * variance of all entries); a numeric one is kept."""
    if kind == "quantum":
        return {"kind": kind, "depth": config.depth, "s3_axis": config.s3_axis}
    gamma = config.gamma
    if gamma == "scale":
        x = np.asarray(x_train, dtype=np.float64)
        var = float(x.var())
        dim = x.shape[1]
        gamma = 1.0 / (dim * var) if var > 1e-12 else 1.0 / dim
    return {"kind": kind, "gamma": gamma}


def kernel_matrix(x: np.ndarray, kind: str, depth: int = 1, s3_axis: str = "Z",
                  gamma: float | None = None) -> np.ndarray:
    """(n x n) kernel of the rows of x against themselves, called as
    kernel_matrix(x, **kernel_params(...)); an RBF gamma must be numeric,
    resolved by the caller on the training rows.

    Both kinds are filled _ROW_BLOCK rows at a time, each from its diagonal
    entry on, and mirrored below the diagonal as it is filled: exactly
    symmetric, with no kernel-sized temporary. The kinds differ only in the
    block of rows i:j against columns i: that they compute.
    """
    if kind == "quantum":
        states = _embed_vector(x, depth, s3_axis)

        def block(i, j):
            return fidelity_matrix(states[i:j], states[i:])
    else:
        def block(i, j):
            d = x[i:j, None] - x[i:]
            return np.exp(-gamma * np.einsum("ijk,ijk->ij", d, d))
    n = x.shape[0]
    out = np.empty((n, n))
    for i in range(0, n, _ROW_BLOCK):
        j = i + _ROW_BLOCK
        out[i:j, i:] = block(i, j)
        out[j:, i:j] = out[i:j, j:].T
        diag = out[i:j, i:j]
        np.copyto(diag, diag.T, where=np.tri(len(diag), k=-1, dtype=bool))
    return out


def build_gram(features, kernel: dict) -> np.ndarray:
    """kernel_matrix of the feature rows under the kernel_params dict kernel."""
    return kernel_matrix(np.asarray(features, dtype=np.float64), **kernel)


# no caller in qpatch: perfbench/tracing.py wraps it by name (ROADMAP item 23 deletes both)
def cross_gram(test_features, train_features, kernel: dict) -> np.ndarray:
    """The (n_test x n_train) slice of one kernel_matrix over the stacked
    [train; test] rows under the kernel_params dict kernel."""
    xr = np.asarray(train_features, dtype=np.float64)
    x = np.vstack([xr, np.asarray(test_features, dtype=np.float64)])
    return kernel_matrix(x, **kernel)[len(xr):, :len(xr)]


def train_svm(gram, labels, C: float = 1.0, tol: float = 1e-4, max_iter: int = 10000) -> dict:
    """Most-violating-pair SMO on the dual of the soft-margin SVM.

    gram is a kernel matrix, so PSD, and is taken as given: the solver reads
    its rows, which equal its columns as kernel_matrix mirrors every block.
    Tracks beta_i = alpha_i * y_i inside the box [min(0, C*y_i), max(0, C*y_i)]
    so the equality constraint is just sum(beta) = 0. Each step picks the
    pair with the largest KKT gap and moves them jointly by the clamped
    Newton step. Stops when the gap falls to tol; running out of max_iter
    first warns and marks the model not converged.

    Returns the model as a dict: dual_coefs holds alpha_i * y_i for the
    support entries only, support_indices maps them back into the training
    set, with bias, C, n_train, the final kkt_gap, n_iter and converged.
    """
    k = np.asarray(gram, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = k.shape[0]
    if max_iter < 1:  # the loop must run once to set gap and n_iter
        raise ValueError("max_iter must be at least 1")
    if not ((y > 0).any() and (y < 0).any()):  # at beta = 0 one pair must move
        raise ValueError("labels must hold both classes, +1 and -1")
    lower = np.where(y > 0, 0.0, -C)
    upper = np.where(y > 0, C, 0.0)
    beta = np.zeros(n)
    v = y.copy()  # v = y - K @ beta, maintained incrementally
    converged = True
    for it in range(1, max_iter + 1):  # at beta = 0 both classes can move: gap is set
        can_up = beta < upper - 1e-12
        can_dn = beta > lower + 1e-12
        if not can_up.any() or not can_dn.any():
            break
        i = int(np.flatnonzero(can_up)[np.argmax(v[can_up])])
        j = int(np.flatnonzero(can_dn)[np.argmin(v[can_dn])])
        gap = v[i] - v[j]
        if gap <= tol:
            break
        denom = k[i, i] + k[j, j] - 2.0 * k[i, j]
        lam = gap / denom if denom > 1e-12 else np.inf
        lam = min(lam, upper[i] - beta[i], beta[j] - lower[j])
        beta[i] += lam
        beta[j] -= lam
        v -= lam * (k[i] - k[j])
    else:
        converged = False
        warnings.warn(f"SMO stopped at max_iter={max_iter} with KKT gap {gap:.3e} "
                      f"above tol {tol:g}; the model is not converged")

    beta = np.clip(beta, lower, upper)
    alpha = np.abs(beta)

    unbounded = alpha > 1e-8
    unbounded &= alpha < C - 1e-8
    if unbounded.any():
        bias = float(v[unbounded].mean())
    else:
        can_up = beta < upper - 1e-12
        can_dn = beta > lower + 1e-12
        if can_up.any() and can_dn.any():
            bias = float((v[can_up].max() + v[can_dn].min()) / 2.0)
        elif (alpha > 1e-12).any():
            bias = float(v[alpha > 1e-12].mean())
        else:
            bias = 0.0

    support = np.flatnonzero(alpha > 1e-12)
    return {"dual_coefs": beta[support], "support_indices": support, "bias": bias,
            "C": C, "n_train": n, "kkt_gap": float(gap), "n_iter": it,
            "converged": converged}


def decision_scores(model: dict, rows) -> np.ndarray:
    """f(x) = sum over support of alpha_i y_i K(x, x_i) + b, one per row, for
    the dict train_svm returns."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return rows[:, model["support_indices"]] @ model["dual_coefs"] + model["bias"]


@functools.cache
def _g17_tables():
    """Built on first use: exact 10**0..10**22; for 0..9999 its ASCII digits as a
    uint32 and one past its last non-zero digit; masks keeping the first 0..4
    bytes; per exponent -6..0, what %g writes around the digits."""
    pow10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
    ascii4 = (np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + 48).astype(np.uint8)
    ends = np.max((ascii4 != 48) * np.arange(1, 5), axis=1)
    masks = ((np.arange(4) < np.arange(5)[:, None]) * 255).astype(np.uint8)
    # bytes: prefix 0-4, first digit 5, point 6, digits 8-23, exponent 24-27, delimiter 28
    rows = [(b"", b".", b"e-06"), (b"", b".", b"e-05"), (b"0.000", b"\0", b""),
            (b"0.00", b"\0", b""), (b"0.0", b"\0", b""), (b"0.", b"\0", b""), (b"", b".", b"")]
    templates = np.frombuffer(b"".join(
        prefix.ljust(6, b"\0") + point + bytes(17) + suffix.ljust(4, b"\0") + b",\0\0\0"
        for prefix, point, suffix in rows), np.uint8).reshape(7, 32)
    return pow10, ascii4.view(np.uint32).ravel(), ends, masks.view(np.uint32).ravel(), templates


def _two_product(a, b):
    """fl(a * b) and its exact rounding error (Dekker, Numer. Math. 18, 1971)."""
    c, d = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1: split into 26-bit halves
    a1, b1 = c - (c - a), d - (d - b)
    a2, b2, p = a - a1, b - b1, a * b
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def save_gram(csv_exports) -> None:
    """Write each (csv_path, block) of csv_exports, a kernel block, as save_csv does."""
    for csv_path, block in csv_exports:
        save_csv(block, csv_path)


def save_csv(values, csv_path) -> None:
    """Write the %.17g CSV export of a kernel block row chunk by row chunk, the
    bytes of np.savetxt(delimiter=","), its chunks in (1e-6, 10) laid out in
    numpy from exact 17 digits round(x * 10**(16 - e))."""
    values = np.asarray(values, dtype=np.float64)
    pow10, ascii4, ends, masks, templates = _g17_tables()
    step = max(1, 4096 // values.shape[1])  # bounds the buffers
    with atomic_write(csv_path, "wb") as fh:
        for chunk in (values[i:i + step] for i in range(0, len(values), step)):
            # the double 1e-6 is below 10**-6: it prints as 9.9999999999999995e-07
            if not np.all((chunk > 1e-6) & (chunk < 10.0)):
                np.savetxt(fh, chunk, delimiter=",", fmt="%.17g")
                continue
            x = chunk.ravel()
            e = np.clip(np.floor(np.log10(x)), -6, 0).astype(np.intp)
            # log10 can miss by one next to a power of ten: the exact p + lo decides
            p, lo = _two_product(x, pow10[16 - e])
            e += (p > 1e17) | ((p == 1e17) & (lo >= 0))
            e -= (p < 1e16) | ((p == 1e16) & (lo < 0))
            p, lo = _two_product(x, pow10[16 - e])
            # p >= 2**53 is an even integer, so rounding lo half to even rounds p + lo;
            # no double in (1e-6, 10) rounds up to a power of ten, so nothing carries
            digits = p.astype(np.int64) + np.rint(lo).astype(np.int64)
            buf = np.take(templates, e + 6, axis=0)
            buf[:, 5] = 48 + digits // 10**16
            offsets = np.arange(0, 16, 4)[:, None]
            quads = digits % 10**16 // 10 ** (12 - offsets) % 10**4
            # %g drops trailing zeros, and the point when no digit follows it
            n_frac = np.max((ends[quads] + offsets) * (quads > 0), axis=0)
            buf[:, 6] *= n_frac > 0
            buf.view(np.uint32)[:, 2:6] = (ascii4[quads] & masks[np.clip(n_frac - offsets, 0, 4)]).T
            buf.reshape(len(chunk), -1, 32)[:, -1, 28] = ord("\n")
            fh.write(buf.tobytes().translate(None, b"\0"))


# no caller in qpatch: perfbench/tracing.py wraps it by name (ROADMAP item 23 deletes it)
def load_gram(csv_path) -> np.ndarray:
    """The 2-D kernel block that save_gram wrote to csv_path."""
    return np.loadtxt(csv_path, delimiter=",", ndmin=2)


def save_model(model: dict, path) -> None:
    """Write a model dict as sorted JSON, its arrays as lists."""
    payload = {**model, "dual_coefs": model["dual_coefs"].tolist(),
               "support_indices": model["support_indices"].tolist()}
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
