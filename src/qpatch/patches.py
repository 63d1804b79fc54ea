"""Patch summary features over standardized log-mel spectrograms.

The spectrogram is cut into non-overlapping 4x4 patches (time by mel),
numbered in time-major order. Each patch is reduced to four
statistics:

  s1  mean activation (also the patch ranking score)
  s2  spectral centroid over the patch's local mel bins
  s3  spectral bandwidth around that centroid
  s4  inter-frame coherence (mean adjacent-frame cosine similarity)

`extract_features` works on whole arrays: it views the spectrogram as an
(n_patches, 4, 4) stack, computes s1 for every patch, keeps the top k by
s1 (ties to the earlier patch), and computes s2-s4 for those k patches
only, in one pass. It returns plain arrays: the concatenated statistics
of the selected patches, a (4k,) float vector, and their (time, mel)
corners, a (k, 2) int array.
"""

from __future__ import annotations

import csv

import numpy as np

from .atomic import atomic_write
from .dsp import EPS

# patch side in frames and mel bins: at least 2, since s4 needs two frames,
# and a divisor of dsp.N_MELS
PATCH_SIZE = 4


def _tiles(values: np.ndarray) -> np.ndarray:
    """The (n_patches, p, p) stack of patches, time-major order.

    Trailing frames that do not fill a whole patch row are dropped.
    """
    t, f = values.shape
    p = PATCH_SIZE
    if t < p:
        raise ValueError(f"spectrogram too short for one patch: {t} frames < {p}")
    rows = t // p
    return (values[:rows * p].reshape(rows, p, f // p, p)
            .transpose(0, 2, 1, 3).reshape(-1, p, p))


def _statistics(tiles: np.ndarray) -> np.ndarray:
    """Reduce an (n, p, p) stack of patches to an (n, 4) array of (s1..s4).

    The centroid and bandwidth use local bin indices 0..p-1 and
    nonnegative weights w_f proportional to |column mean| + eps, so they are
    well defined even when standardization makes means negative. Coherence
    averages the cosine similarity of the p-1 adjacent frame pairs, with
    an eps-guarded denominator so zero-norm frames contribute 0.
    """
    bins = np.arange(tiles.shape[1], dtype=np.float64)
    raw = np.abs(tiles.mean(axis=1)) + EPS
    w = raw / raw.sum(axis=1, keepdims=True)
    s2 = w @ bins
    s3 = np.sqrt(((bins - s2[:, None]) ** 2 * w).sum(axis=1))
    norms = np.linalg.norm(tiles, axis=2)
    dots = (tiles[:, :-1] * tiles[:, 1:]).sum(axis=2)
    s4 = (dots / (norms[:, :-1] * norms[:, 1:] + EPS)).mean(axis=1)
    return np.stack([tiles.mean(axis=(1, 2)), s2, s3, s4], axis=1)


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, by descending score then ascending index."""
    if k > scores.size:
        raise ValueError(f"k={k} exceeds patch count {scores.size}")
    return np.argsort(-scores, kind="stable")[:k]


def extract_features(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank every 4x4 patch of a (frames, n_mels) spectrogram by s1, then
    summarize the top k: their (4k,) statistics and (k, 2) corners."""
    values = np.asarray(values, dtype=np.float64)
    tiles = _tiles(values)
    top = _top_k(tiles.mean(axis=(1, 2)), k)
    corners = np.stack(np.divmod(top, values.shape[1] // PATCH_SIZE), axis=1) * PATCH_SIZE
    return _statistics(tiles[top]).ravel(), corners


def write_features_csv(path, rows) -> None:
    """Persist features: one row per utterance.

    Each input row is (utterance_id, label, stats, corners) as
    extract_features returns them. Labels are the strings "bonafide" or
    "spoof". Patch corners are stored after the statistics so files are
    self-describing.
    """
    k = len(rows[0][3])
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", *(f"x{i}" for i in range(4 * k)),
                         *(f"patch{j}_{axis}" for j in range(k) for axis in "tf")])
        for uid, label, stats, corners in rows:
            writer.writerow([uid, label, *(f"{x:.17g}" for x in stats),
                             *map(str, np.ravel(corners).tolist())])


def read_features_csv(path):
    """Inverse of write_features_csv, without the corners: list of (id, label, stats).

    The file is read as write_features_csv wrote it; train-eval reads it only
    once features.json vouches for it by its sha256.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        n_stats = sum(name.startswith("x") for name in next(reader, []))
        return [(uid, label, np.array(values[:n_stats], dtype=np.float64))
                for uid, label, *values in reader]
