"""Patch partitioning, summary statistics, top-k selection, feature assembly,
all through the array path that extract_features runs."""

import math

import numpy as np
import pytest

from qpatch import patches
from qpatch.config import ExperimentConfig
from qpatch.dsp import EPS
from qpatch.patches import (
    _tiles,
    _top_k,
    extract_features,
    read_features_csv,
    write_features_csv,
)


def summary_oracle(values):
    """Direct scalar-loop evaluation of the four patch statistics."""
    size = values.shape[0]
    s1 = math.fsum(values.flat) / values.size
    col_means = [math.fsum(values[t, f] for t in range(size)) / size
                 for f in range(size)]
    raw = [abs(m) + EPS for m in col_means]
    total = math.fsum(raw)
    w = [r / total for r in raw]
    s2 = math.fsum(f * w[f] for f in range(size))
    s3 = math.sqrt(math.fsum((f - s2) ** 2 * w[f] for f in range(size)))
    sims = []
    for t in range(size - 1):
        dot = math.fsum(values[t, f] * values[t + 1, f] for f in range(size))
        na = math.sqrt(math.fsum(values[t, f] ** 2 for f in range(size)))
        nb = math.sqrt(math.fsum(values[t + 1, f] ** 2 for f in range(size)))
        sims.append(dot / (na * nb + EPS))
    s4 = math.fsum(sims) / len(sims)
    return s1, s2, s3, s4


def selection_oracle(values, k, patch_size):
    """Scalar statistics of every patch, then a stable sort by (-s1, index).

    Returns the k selected statistic tuples and their (time, mel) corners.
    """
    p = patch_size
    corners = [(t, f) for t in range(0, values.shape[0] - p + 1, p)
               for f in range(0, values.shape[1], p)]
    stats = [summary_oracle(values[t:t + p, f:f + p]) for t, f in corners]
    order = sorted(range(len(stats)), key=lambda i: (-stats[i][0], i))[:k]
    return [stats[i] for i in order], [corners[i] for i in order]


def random_spectrogram(rng, n_frames=16):
    vals = rng.standard_normal((n_frames, 64))
    return (vals - vals.mean()) / vals.std()


def summarize(values):
    """(s1, s2, s3, s4) of one square patch: a one-patch spectrogram at k = 1."""
    values = np.asarray(values, dtype=np.float64)
    stats, _ = extract_features(values, k=1)
    return tuple(stats)


def corners(spec):
    """Every patch corner in time-major order: a constant spectrogram ties
    every s1, so selecting all patches keeps the index order."""
    flat = np.zeros_like(spec)
    n = _tiles(flat).shape[0]
    _, found = extract_features(flat, k=n)
    return [tuple(c) for c in found.tolist()]


class TestPartition:
    def test_counts_t8(self):
        spec = np.zeros((8, 64))
        assert len(corners(spec)) == 32
        with pytest.raises(ValueError, match="exceeds patch count 32"):
            extract_features(spec, k=33)

    def test_counts_t7_drops_trailing(self):
        spec = np.zeros((7, 64))
        found = corners(spec)
        assert len(found) == 16
        assert all(t == 0 for t, _ in found)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            extract_features(np.zeros((3, 64)), k=1)

    def test_row_major_enumeration(self):
        """Index 17 with T >= 8 is the second patch of the second time strip."""
        spec = np.arange(8 * 64, dtype=float).reshape(8, 64)
        found = corners(spec)
        assert found[17] == (4, 4)
        # full enumeration oracle: index = (t/4)*16 + f/4
        for idx, (t, f) in enumerate(found):
            assert idx == (t // 4) * 16 + f // 4

    def test_patch_contents_match_slices(self):
        rng = np.random.default_rng(0)
        spec = random_spectrogram(rng, n_frames=12)
        tiles = _tiles(spec)
        for tile, (t, f) in zip(tiles, corners(spec), strict=True):
            np.testing.assert_array_equal(tile, spec[t:t + 4, f:f + 4])


class TestSummarize:
    def test_all_zero_patch(self):
        """Zero input: uniform weights give centroid 1.5 and bandwidth
        sqrt(1.25); zero-norm rows give coherence 0."""
        s1, s2, s3, s4 = summarize(np.zeros((4, 4)))
        assert s1 == 0.0
        assert s2 == pytest.approx(1.5, abs=1e-12)
        assert s3 == pytest.approx(math.sqrt(1.25), abs=1e-12)
        assert s4 == pytest.approx(0.0, abs=1e-12)

    def test_identical_rows_give_coherence_one(self):
        # row norm well above the eps guard so the cosine is 1 to 1e-9
        row = np.array([1.0, -2.0, 1.5, 2.5])
        assert summarize(np.tile(row, (4, 1)))[3] == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_column(self):
        vals = np.zeros((4, 4))
        vals[:, 3] = 50.0
        _, s2, s3, _ = summarize(vals)
        assert s2 == pytest.approx(3.0, abs=1e-8)
        assert s3 == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_formula_oracle(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((4, 4))
        np.testing.assert_allclose(summarize(vals), summary_oracle(vals),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_weights_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((4, 4))
        col_means = vals.mean(axis=0)
        raw = np.abs(col_means) + EPS
        w = raw / raw.sum()
        assert abs(w.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("c", [2.0, 10.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_centroid_bandwidth_scale_invariant(self, c, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((4, 4))
        while np.max(np.abs(vals.mean(axis=0))) < 0.1:
            vals = rng.standard_normal((4, 4))
        s_base = summarize(vals)
        s_scaled = summarize(c * vals)
        assert abs(s_base[1] - s_scaled[1]) < 1e-6
        assert abs(s_base[2] - s_scaled[2]) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_coherence_scale_invariant(self, seed):
        # non-degenerate: row norms large enough that the eps guard's
        # contribution to the cosine stays below the tolerance
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((4, 4)) * 3.0 + 0.5
        assert abs(summarize(vals)[3] - summarize(3.0 * vals)[3]) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_ranges(self, seed):
        rng = np.random.default_rng(seed)
        _, s2, s3, s4 = summarize(rng.standard_normal((4, 4)) * 2)
        assert 0.0 <= s2 <= 3.0
        assert 0.0 <= s3 <= 1.5
        assert -1.0 - 1e-9 <= s4 <= 1.0 + 1e-9


class TestSelectTopK:
    def test_basic(self):
        assert _top_k(np.array([0.1, 0.9, 0.5]), 2).tolist() == [1, 2]

    def test_tie_prefers_lower_index(self):
        assert _top_k(np.array([0.7, 0.7, 0.7]), 2).tolist() == [0, 1]

    def test_k_too_large_raises(self):
        with pytest.raises(ValueError):
            _top_k(np.array([1.0]), 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(32)
        # stable full sort by descending score
        oracle = sorted(range(32), key=lambda i: (-scores[i], i))[:2]
        assert _top_k(scores, 2).tolist() == oracle

    def test_output_sorted_and_subset(self):
        rng = np.random.default_rng(11)
        scores = rng.standard_normal(32)
        out = _top_k(scores, 5)
        assert len(set(out.tolist())) == 5
        assert all(0 <= i < 32 for i in out)
        assert all(scores[out[i]] >= scores[out[i + 1]] for i in range(4))


class TestFeatureVector:
    """The (statistics, corners) pair extract_features returns."""

    def test_concatenation_order(self):
        """Selected patches are concatenated in selection order, the higher s1 first."""
        rng = np.random.default_rng(5)
        low, high = rng.standard_normal((4, 4)), rng.standard_normal((4, 4)) + 3.0
        stats, found = extract_features(np.hstack([low, high]), k=2)
        np.testing.assert_allclose(stats, summary_oracle(high) + summary_oracle(low),
                                   rtol=0, atol=1e-12)
        assert found.tolist() == [[0, 4], [0, 0]]

    def test_single_patch(self):
        stats, found = extract_features(random_spectrogram(np.random.default_rng(6)), k=1)
        assert stats.shape == (4,)
        assert found.shape == (1, 2)

    def test_empty_rejected(self):
        # k = 0 is refused by the config, where k enters; _top_k trusts it
        with pytest.raises(ValueError, match="k must be 1 or even, got 0"):
            ExperimentConfig(k=0)

    def test_length_invariant_enforced(self, tmp_path):
        """Four statistics per corner, and four per corner read back."""
        path = tmp_path / "x.csv"
        for k in (1, 2, 4):
            stats, corners = extract_features(random_spectrogram(np.random.default_rng(k)), k)
            assert stats.shape == (4 * len(corners),) == (4 * k,)
            write_features_csv(path, [("u0", "bonafide", stats, corners)])
            [(_, _, back)] = read_features_csv(path)
            assert back.shape == stats.shape


class TestExtractFeatures:
    def test_end_to_end_deterministic(self):
        rng = np.random.default_rng(21)
        spec = random_spectrogram(rng, n_frames=20)
        a = extract_features(spec, k=2)
        b = extract_features(spec.copy(), k=2)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_default_length_eight(self):
        spec = random_spectrogram(np.random.default_rng(22))
        stats, found = extract_features(spec, ExperimentConfig().k)
        assert stats.shape == (8,)
        assert found.shape == (2, 2)

    def test_selected_patches_have_top_means(self):
        spec = random_spectrogram(np.random.default_rng(23))
        stats, _ = extract_features(spec, k=3)
        all_means = sorted(_tiles(spec).mean(axis=(1, 2)), reverse=True)
        picked = stats[::4]
        np.testing.assert_allclose(picked, all_means[:3], atol=1e-12)

    @pytest.mark.parametrize("patch_size", [2, 4, 8])
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_and_sort_oracles(self, seed, k, patch_size, monkeypatch):
        # PATCH_SIZE is the one place the side is fixed: the array path holds at any side
        monkeypatch.setattr(patches, "PATCH_SIZE", patch_size)
        rng = np.random.default_rng(100 + seed)
        # strictly between 3p and 4p frames: a trailing partial row is dropped
        n_frames = 3 * patch_size + 1 + seed % (patch_size - 1)
        vals = random_spectrogram(rng, n_frames)
        if seed % 2:
            vals = np.round(vals)  # integer values: exact s1 ties between patches
        got_stats, got_corners = extract_features(vals, k=k)
        stats, corners = selection_oracle(vals, k, patch_size)
        assert [tuple(c) for c in got_corners.tolist()] == corners
        np.testing.assert_allclose(got_stats, np.concatenate(stats), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_exact_ties_select_first_patches(self, k):
        _, found = extract_features(np.full((9, 64), 0.5), k=k)
        assert found.tolist() == [[0, 4 * j] for j in range(k)]

    def test_k_above_patch_count_raises(self):
        with pytest.raises(ValueError, match="exceeds patch count 2"):
            extract_features(np.zeros((4, 8)), k=3)


class TestFeatureCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        rows = []
        for i in range(4):
            label = "bonafide" if i % 2 == 0 else "spoof"
            rows.append((f"utt{i:03d}", label, rng.standard_normal(8),
                         np.array([[0, 4], [8, 60]])))
        path = tmp_path / "features.csv"
        write_features_csv(path, rows)
        assert path.read_text().splitlines()[0] == (
            "id,label,x0,x1,x2,x3,x4,x5,x6,x7,patch0_t,patch0_f,patch1_t,patch1_f")
        assert path.read_text().splitlines()[1].endswith(",0,4,8,60")
        back = read_features_csv(path)
        assert len(back) == 4
        for (uid, label, stats, _), (uid2, label2, stats2) in zip(rows, back, strict=True):
            assert uid == uid2 and label == label2
            np.testing.assert_array_equal(stats, stats2)

    def test_byte_identical_rewrites(self, tmp_path):
        rows = [("u0", "bonafide", np.random.default_rng(32).standard_normal(8),
                 np.array([[0, 0], [4, 4]]))]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_features_csv(p1, rows)
        write_features_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_statistics_round_trip_bit_for_bit(self, tmp_path):
        # %.17g holds every double exactly: the reader gets the writer's bits back
        rng = np.random.default_rng(34)
        stats = rng.standard_normal((50, 8)) * 10.0 ** rng.integers(-300, 300, (50, 8))
        stats[0, :4] = [0.1, -0.0, 5e-324, np.finfo(np.float64).max]
        path = tmp_path / "features.csv"
        write_features_csv(path, [(f"u{i}", "spoof", row, np.zeros((2, 2), int))
                                  for i, row in enumerate(stats)])
        back = np.array([row for _, _, row in read_features_csv(path)])
        assert back.view(np.int64).tolist() == stats.view(np.int64).tolist()

    def test_an_empty_file_reads_as_no_rows(self, tmp_path):
        # train-eval reads no file that features.json does not vouch for; the
        # reader itself takes an empty file as one without rows
        path = tmp_path / "x.csv"
        path.write_text("")
        assert read_features_csv(path) == []

    def test_failed_rewrite_keeps_the_previous_file(self, tmp_path):
        rng = np.random.default_rng(33)
        good = (rng.standard_normal(8), np.array([[0, 0], [4, 4]]))
        unformattable = (["s1"] * 8, np.array([[8, 8], [0, 0]]))
        path = tmp_path / "features.csv"
        write_features_csv(path, [("u0", "bonafide", *good)])
        before = path.read_bytes()
        # the second row fails to format after the first is written
        with pytest.raises(ValueError, match="Unknown format code 'g'"):
            write_features_csv(path, [("u1", "spoof", *good), ("u2", "spoof", *unformattable)])
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["features.csv"]
