"""Noise injection at exact SNR, spectral tilt, corpus generation, dataset build."""

import dataclasses
import math
import os

import numpy as np
import pytest

from qpatch.config import ExperimentConfig
from qpatch.dsp import (
    Waveform,
    build_mel_filterbank,
    hz_to_mel,
    load_wav,
    logmel_spectrogram,
    mel_energies,
    mel_to_hz,
    stft,
)
from qpatch.patches import extract_features
from qpatch.spoof import (
    BONAFIDE,
    NO_NOISE,
    SPOOF,
    ManifestEntry,
    add_noise,
    build_dataset,
    generate_synthetic_corpus,
    make_spoof,
    read_manifest,
    spectral_distort,
    substream,
    write_manifest,
)


def sine_wave(freq=440.0, amp=0.5, seconds=1.0, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    return Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, "spoof", "utt000").standard_normal(5)
        b = substream(7, "spoof", "utt000").standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_tags_and_seeds(self):
        base = substream(7, "spoof", "utt000").standard_normal(5)
        other_tag = substream(7, "spoof", "utt001").standard_normal(5)
        other_seed = substream(8, "spoof", "utt000").standard_normal(5)
        assert not np.array_equal(base, other_tag)
        assert not np.array_equal(base, other_seed)


class TestAddNoise:
    def test_infinite_snr_is_identity(self):
        w = sine_wave()
        out = add_noise(w, NO_NOISE, substream(0, "x"))
        assert out is w

    @pytest.mark.parametrize("seed", range(20))
    def test_realized_snr_within_tenth_db(self, seed):
        w = sine_wave()
        out = add_noise(w, 20.0, substream(seed, "noise"))
        noise = out.samples - w.samples
        realized = 10 * np.log10(np.mean(w.samples ** 2) / np.mean(noise ** 2))
        assert abs(realized - 20.0) < 0.1

    @pytest.mark.filterwarnings("ignore:noise at")
    @pytest.mark.parametrize("snr", [0.0, 10.0, 35.0])
    def test_other_snr_targets(self, snr):
        w = sine_wave(amp=0.3)
        out = add_noise(w, snr, substream(5, "noise", snr))
        noise = out.samples - w.samples
        realized = 10 * np.log10(np.mean(w.samples ** 2) / np.mean(noise ** 2))
        assert abs(realized - snr) < 0.1

    def test_same_seed_bit_identical(self):
        w = sine_wave()
        a = add_noise(w, 20.0, substream(3, "n"))
        b = add_noise(w, 20.0, substream(3, "n"))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_zero_power_rejected(self):
        w = Waveform(np.zeros(1000), 16000)
        with pytest.raises(ValueError, match="zero-power"):
            add_noise(w, 20.0, substream(0, "z"))

    def test_clipping_reported(self):
        w = sine_wave(amp=0.99)
        with pytest.warns(UserWarning, match="clipped"):
            out = add_noise(w, -5.0, substream(1, "loud"))
        assert np.max(np.abs(out.samples)) <= 1.0


class TestSpectralDistort:
    def test_zero_tilt_is_bitwise_identity(self):
        w = sine_wave()
        out = spectral_distort(w, 0.0)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_filter_formula(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]) * 0.1
        out = spectral_distort(Waveform(x, 16000), 0.5)
        raw = np.array([x[0], x[1] - 0.5 * x[0], x[2] - 0.5 * x[1], x[3] - 0.5 * x[2]])
        scale = np.sqrt(np.mean(x ** 2) / np.mean(raw ** 2))
        np.testing.assert_allclose(out.samples, raw * scale, rtol=1e-12)

    def test_rms_preserved(self):
        w = sine_wave()
        out = spectral_distort(w, 0.4)
        rms_in = np.sqrt(np.mean(w.samples ** 2))
        rms_out = np.sqrt(np.mean(out.samples ** 2))
        assert rms_out == pytest.approx(rms_in, rel=1e-10)

    def test_positive_tilt_boosts_highs_on_white_noise(self):
        """Band energy above 4 kHz relative to below must rise under
        tilt = 0.5, measured through the front-end filterbank."""
        rng = np.random.default_rng(12)
        w = Waveform(rng.standard_normal(16000) * 0.2, 16000)
        tilted = spectral_distort(w, 0.5)
        fb = build_mel_filterbank()
        centers = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), 66))[1:-1]
        split = np.searchsorted(centers, 4000.0)

        def band_ratio(wave):
            e = mel_energies(stft(wave), fb).sum(axis=0)
            return e[split:].sum() / e[:split].sum()

        assert band_ratio(tilted) > band_ratio(w)

    def test_near_silent_output_passes_through_with_warning(self):
        w = Waveform(np.full(16000, 1e-6), 16000)
        with pytest.warns(UserWarning, match="silence"):
            out = spectral_distort(w, 0.9)
        # raw filter output, no renorm: y[n>=1] = 1e-6 * 0.1
        np.testing.assert_allclose(out.samples[1:], 1e-7, rtol=1e-9)

    def test_tilt_magnitude_validated(self):
        # refused where the tilt range enters, by the config; spectral_distort trusts it
        for bounds in ({"tilt_high": 1.0}, {"tilt_low": -1.0}):
            with pytest.raises(ValueError, match="must sit inside"):
                ExperimentConfig(**bounds)


class TestMakeSpoof:
    def test_deterministic(self):
        w = sine_wave()
        cfg = ExperimentConfig(seed=11)
        a = make_spoof(w, "utt000", cfg)
        b = make_spoof(w, "utt000", cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_differs_from_source_and_between_ids(self):
        w = sine_wave()
        cfg = ExperimentConfig(seed=11)
        a = make_spoof(w, "utt000", cfg)
        b = make_spoof(w, "utt001", cfg)
        assert not np.array_equal(a.samples, w.samples)
        assert not np.array_equal(a.samples, b.samples)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tilt range"):
            ExperimentConfig(tilt_low=-1.2)
        with pytest.raises(ValueError, match="snr_db must be finite"):
            ExperimentConfig(snr_db=math.nan)


class TestSyntheticCorpus:
    def test_writes_named_files(self, tmp_path):
        paths = generate_synthetic_corpus(tmp_path, 3, seed=5)
        assert [p.name for p in paths] == ["utt000.wav", "utt001.wav", "utt002.wav"]
        for p in paths:
            w = load_wav(p)
            assert w.sample_rate == 16000
            assert w.samples.size == 16000
            assert 0.3 < np.max(np.abs(w.samples)) <= 1.0

    def test_seeded_determinism(self, tmp_path):
        generate_synthetic_corpus(tmp_path / "a", 2, seed=5)
        generate_synthetic_corpus(tmp_path / "b", 2, seed=5)
        for name in ("utt000.wav", "utt001.wav"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        generate_synthetic_corpus(tmp_path / "a", 1, seed=5)
        generate_synthetic_corpus(tmp_path / "b", 1, seed=6)
        assert (tmp_path / "a" / "utt000.wav").read_bytes() != \
            (tmp_path / "b" / "utt000.wav").read_bytes()

    def test_voices_vary_within_corpus(self, tmp_path):
        paths = generate_synthetic_corpus(tmp_path, 2, seed=9)
        a, b = (load_wav(p).samples for p in paths)
        assert not np.array_equal(a, b)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    wavs = generate_synthetic_corpus(root / "bonafide", 10, seed=3)
    config = ExperimentConfig(train_per_class=8, dev_per_class=2, seed=3)
    manifest, rows = build_dataset(wavs, root, config)
    return root, manifest, rows


class TestBuildDataset:
    def test_counts_and_balance(self, small_dataset):
        _, manifest, _ = small_dataset
        assert len(manifest) == 20
        train = [e for e in manifest if e.split == "train"]
        dev = [e for e in manifest if e.split == "dev"]
        assert len(train) == 16 and len(dev) == 4
        for subset in (train, dev):
            n_bona = sum(1 for e in subset if e.label == BONAFIDE)
            assert n_bona == len(subset) // 2

    def test_ids_disjoint_across_splits(self, small_dataset):
        _, manifest, _ = small_dataset
        train_ids = {e.uid for e in manifest if e.split == "train"}
        dev_ids = {e.uid for e in manifest if e.split == "dev"}
        assert not train_ids & dev_ids

    def test_spoof_lineage(self, small_dataset):
        root, manifest, _ = small_dataset
        spoofs = [e for e in manifest if e.label == SPOOF]
        bona_ids = {e.uid for e in manifest if e.label == BONAFIDE}
        for e in spoofs:
            assert e.source_id in bona_ids
            assert e.uid == f"{e.source_id}_spoof"
            assert (root / "spoof" / f"{e.uid}.wav").exists()

    def test_spoof_audio_matches_direct_synthesis(self, small_dataset):
        root, manifest, _ = small_dataset
        spoof = next(e for e in manifest if e.label == SPOOF)
        source = next(e for e in manifest if e.uid == spoof.source_id)
        w = load_wav(root / source.path)
        expected = make_spoof(w, spoof.source_id, ExperimentConfig(seed=3))
        got = load_wav(root / spoof.path)
        np.testing.assert_allclose(got.samples, expected.samples, atol=1.5 / 32768)

    def test_paths_are_relative_to_the_work_dir(self, small_dataset):
        _, manifest, _ = small_dataset
        paths = {e.uid: e.path for e in manifest}
        assert paths["utt000"] == os.path.join("bonafide", "utt000.wav")
        assert paths["utt000_spoof"] == os.path.join("spoof", "utt000_spoof.wav")

    def test_feature_rows_are_those_of_the_files(self, small_dataset):
        """One row per entry, in manifest order, holding the features of the
        file it names, read back from the work dir."""
        root, manifest, rows = small_dataset
        assert [row[:2] for row in rows] == [(e.uid, e.label) for e in manifest]
        for entry, (_, _, stats, corners) in zip(manifest, rows):
            expected = extract_features(logmel_spectrogram(load_wav(root / entry.path)), k=2)
            assert stats.tobytes() == expected[0].tobytes(), entry.uid
            np.testing.assert_array_equal(corners, expected[1])

    def test_entries_are_sorted_by_uid_within_each_label(self, tmp_path):
        # by file name "a-b.wav" sorts before "a.wav"; by uid "a" comes first
        first, second = generate_synthetic_corpus(tmp_path / "bona", 2, seed=5)
        wavs = [first.rename(tmp_path / "bona" / "a-b.wav"),
                second.rename(tmp_path / "bona" / "a.wav")]
        manifest, _ = build_dataset(wavs, tmp_path / "w",
                                    ExperimentConfig(train_per_class=1, dev_per_class=1))
        assert [e.uid for e in manifest] == ["a", "a-b", "a-b_spoof", "a_spoof"]

    def test_insufficient_files_error(self, tmp_path):
        few = tmp_path / "few"
        wavs = generate_synthetic_corpus(few, 3, seed=1)
        config = ExperimentConfig(input_dir=str(few), train_per_class=8, dev_per_class=2)
        with pytest.raises(ValueError, match="short 7") as err:
            build_dataset(wavs, tmp_path / "sp", config)
        assert f"need 10 bona fide WAV files in {few}, found 3" in str(err.value)

    def test_same_seed_identical_manifest(self, tmp_path):
        wavs = generate_synthetic_corpus(tmp_path / "bona", 6, seed=4)
        config = ExperimentConfig(train_per_class=4, dev_per_class=2, seed=4)
        m1, r1 = build_dataset(wavs, tmp_path / "w1", config)
        m2, r2 = build_dataset(wavs, tmp_path / "w2", config)
        # work-dir-relative paths: two work dirs beside each other give one manifest
        assert m1 == m2
        assert [row[:2] for row in r1] == [row[:2] for row in r2]
        assert np.array_equal([row[2] for row in r1], [row[2] for row in r2])


def assert_split_by_source(manifest, train_per_class, dev_per_class):
    """Each source's bona fide and spoof rows share a split, no source_id is
    in both splits, and each split holds its count of rows per class."""
    split = {(e.source_id, e.label): e.split for e in manifest}
    for source in {e.source_id for e in manifest}:
        assert split[source, BONAFIDE] == split[source, SPOOF], source
    train, dev = ({e.source_id for e in manifest if e.split == name}
                  for name in ("train", "dev"))
    assert not train & dev
    for name, count in (("train", train_per_class), ("dev", dev_per_class)):
        for label in (BONAFIDE, SPOOF):
            assert sum(e.split == name and e.label == label for e in manifest) == count


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """The bona fide WAVs synth generates, and those of an --input-dir corpus
    listed as synth lists it: named by speaker and take, so that sorted order
    is not the order they were made in, and with two files more than the
    splits take. Each with the split sizes to build it at."""
    root = tmp_path_factory.mktemp("corpora")
    given = root / "given"
    given.mkdir()
    for i, path in enumerate(generate_synthetic_corpus(root / "made", 10, seed=8)):
        path.rename(given / f"spk{i % 3}-take{i // 3}.wav")
    return {"built_in": (generate_synthetic_corpus(root / "bonafide", 8, seed=7),
                         ExperimentConfig(train_per_class=5, dev_per_class=3)),
            "input_dir": (sorted(given.glob("*.wav")),
                          ExperimentConfig(input_dir=str(given), train_per_class=5,
                                           dev_per_class=3))}


@pytest.mark.parametrize("seed", [1, 2, 3, 301])
@pytest.mark.parametrize("corpus", ["built_in", "input_dir"])
def test_the_split_is_drawn_over_sources(corpora, tmp_path, corpus, seed):
    """A file and its spoof share a split, so no source is in both, and each
    split is balanced by construction."""
    wavs, config = corpora[corpus]
    manifest, _ = build_dataset(wavs, tmp_path, dataclasses.replace(config, seed=seed))
    need = config.train_per_class + config.dev_per_class
    assert {e.source_id for e in manifest} == {path.stem for path in wavs[:need]}
    assert_split_by_source(manifest, config.train_per_class, config.dev_per_class)


class TestManifestValidation:
    def test_unbalanced_split_rejected(self, tmp_path):
        entries = (
            ManifestEntry("a", "a.wav", BONAFIDE, "train", "a"),
            ManifestEntry("b", "b.wav", BONAFIDE, "train", "b"),
            ManifestEntry("a_spoof", "as.wav", SPOOF, "train", "a"),
        )
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        with pytest.raises(ValueError, match="train split unbalanced: 2 bonafide vs 1") as err:
            read_manifest(path)
        assert str(path) in str(err.value)

    def test_split_without_rows_rejected(self, tmp_path):
        entries = (ManifestEntry("a", "a.wav", BONAFIDE, "dev", "a"),
                   ManifestEntry("a_spoof", "as.wav", SPOOF, "dev", "a"))
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        with pytest.raises(ValueError, match="train split has no rows of either class") as err:
            read_manifest(path)
        assert str(path) in str(err.value)

    def test_duplicate_ids_rejected(self, tmp_path):
        entries = (
            ManifestEntry("a", "a.wav", BONAFIDE, "train", "a"),
            ManifestEntry("a", "b.wav", SPOOF, "train", "a"),
        )
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        with pytest.raises(ValueError, match="duplicate id 'a'") as err:
            read_manifest(path)
        assert f"{path}:3" in str(err.value)


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        entries = (
            ManifestEntry("a", "wav/a.wav", BONAFIDE, "train", "a"),
            ManifestEntry("a_spoof", "wav/a_spoof.wav", SPOOF, "train", "a"),
            ManifestEntry("b", "wav/b.wav", BONAFIDE, "dev", "b"),
            ManifestEntry("b_spoof", "wav/b_spoof.wav", SPOOF, "dev", "b"),
        )
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        assert read_manifest(path) == entries
        assert path.read_text().splitlines()[0] == "id,path,label,split,source_id"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,file,label\nx,y,z\n")
        with pytest.raises(ValueError, match="header"):
            read_manifest(path)
