"""Detection metrics (AUROC, EER), kernel similarity structure, report output.

Scores are oriented so that higher means more bona fide; the positive
class for both metrics is bona fide (label 1). Rates on the ROC are exact
integer ratios, so the EER crossing can be checked against brute-force
sweeps without rounding surprises. AUROC is an exact Mann-Whitney count
over sorted scores in numpy, so this module does not load scipy.stats.
"""

from __future__ import annotations

import json

import numpy as np

from .atomic import atomic_write
from .quantum import fidelity_kernel  # noqa: F401 - perfbench/tracing.py wraps it by name
from .svm import kernel_matrix

SCHEMA_VERSION = 1
POSITIVE_LABEL = "bonafide"


def _finite_scores(scores, labels):
    """Scores and labels as arrays; the release gate passes scores of its own."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not ((labels == 1).any() and (labels == 0).any()):
        raise ValueError("labels must hold both classes, 1 and 0")
    return scores, labels


def roc_points(scores, labels) -> np.ndarray:
    """The empirical ROC as an (m, 4) array of [threshold, fpr, tpr, fnr] rows,
    the table roc_<kind>.csv holds, at +inf, every distinct score (descending)
    and -inf. A sample is predicted positive when its score >= threshold, so
    fpr rises from 0 to 1 as the threshold falls. The rates come from integer
    counts: per class, the scores below a threshold are its searchsorted
    position in the sorted scores."""
    scores, labels = _finite_scores(scores, labels)
    s = np.sort(scores)  # its distinct values as np.unique keeps them, without numpy.ma
    thresholds = np.concatenate([[np.inf], s[np.r_[True, s[1:] != s[:-1]]][::-1], [-np.inf]])
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    fpr = (neg.size - np.searchsorted(neg, thresholds)) / neg.size
    fnr = np.searchsorted(pos, thresholds) / pos.size
    return np.column_stack([thresholds, fpr, 1.0 - fnr, fnr])


def auroc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties at 0.5.

    The Mann-Whitney count: for each positive, the negatives strictly below
    it plus the negatives at or below it, halved. Every term is an integer
    before the halving, so the value equals pair counting exactly.
    """
    scores, labels = _finite_scores(scores, labels)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    twice_wins = (np.searchsorted(neg, pos, "left")
                  + np.searchsorted(neg, pos, "right")).sum()
    return float(twice_wins) / 2.0 / (pos.size * neg.size)


def eer(scores, labels) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Walks the ROC from high thresholds down and returns the first point
    where fpr >= fnr, interpolating linearly between the bracketing
    operating points when the crossing falls between thresholds. fpr - fnr
    is -1 at the +inf row and +1 at the lowest score, so the crossing row b
    lies between them and its threshold is finite. The row a before it is
    the +inf row only when b = 1; then b's threshold is the one returned.
    """
    thresholds, fpr, _, fnr = roc_points(scores, labels).T
    diff = fpr - fnr
    b = int(np.argmax(diff >= 0.0))
    if diff[b] == 0.0:
        return float(fpr[b]), float(thresholds[b])
    a = b - 1
    t = (fnr[a] - fpr[a]) / ((fpr[b] - fpr[a]) + (fnr[a] - fnr[b]))
    value = float(fpr[a] + t * (fpr[b] - fpr[a]))
    if a == 0:
        return value, float(thresholds[b])
    return value, float(thresholds[a] + t * (thresholds[b] - thresholds[a]))


def _group(values) -> dict:
    """Mean, std and pair count of one similarity group, and the mean's percent
    change from the self-similarity baseline of 1.0; all None when empty."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return {"mean": None, "std": None, "n_pairs": 0, "delta_pct": None}
    mean = float(values.mean())
    return {"mean": mean, "std": float(values.std()), "n_pairs": int(values.size),
            "delta_pct": (mean - 1.0) * 100.0}


def kernel_structure(gram_values, labels, features=None,
                     kernel: dict | None = None) -> dict:
    """Group Gram entries into same-sample, within-class, and cross-class sets.

    Returns the report's dict: same_sample and within_class map each class to
    its group, cross_class is one group, and cross_class_per_slot maps each
    patch slot to its group ({} without features).

    Off-diagonal groups use i < j pairs only, so the diagonal never leaks
    into the cross-sample statistics. When features and a kernel_params dict
    are given, the cross-class group is additionally recomputed per patch slot
    with single-patch kernels over each length-4 block: one n x n
    kernel_matrix block per slot, indexed at the cross-class pairs. The dict
    is used as given, so an RBF gamma must already be resolved on train rows.
    """
    k = np.asarray(gram_values, dtype=np.float64)
    n = k.shape[0]
    classes = sorted(set(labels))
    lab = np.array(labels)

    same_sample = {c: _group(np.diag(k)[lab == c]) for c in classes}
    iu, ju = np.triu_indices(n, k=1)
    within = {}
    for c in classes:
        mask = (lab[iu] == c) & (lab[ju] == c)
        within[c] = _group(k[iu[mask], ju[mask]])
    cross_mask = lab[iu] != lab[ju]
    cross = _group(k[iu[cross_mask], ju[cross_mask]])

    per_slot = {}
    if features is not None:
        x = np.asarray(features, dtype=np.float64)
        ci, cj = iu[cross_mask], ju[cross_mask]
        for slot in range(x.shape[1] // 4):
            block = x[:, 4 * slot:4 * slot + 4]
            per_slot[f"patch{slot + 1}"] = _group(kernel_matrix(block, **kernel)[ci, cj])
    return {"same_sample": same_sample, "within_class": within, "cross_class": cross,
            "cross_class_per_slot": per_slot}


def write_report(json_path, roc_csv_path, metrics: dict, roc: np.ndarray) -> None:
    """Write the JSON summary and the CSV of roc_points's table."""
    payload = {"schema_version": SCHEMA_VERSION, "positive_label": POSITIVE_LABEL}
    payload.update(metrics)
    with atomic_write(json_path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with atomic_write(roc_csv_path) as fh:
        np.savetxt(fh, roc, delimiter=",", fmt="%.17g",
                   header="threshold,fpr,tpr,fnr", comments="")
