"""Spoof generation and dataset assembly.

Spoofed counterparts of bona fide recordings are made by additive white
Gaussian noise at a controlled SNR followed by a first-order spectral
tilt. A bundled synthetic-voice generator (seeded harmonic complexes with
vibrato and amplitude envelopes) provides self-contained bona fide audio;
real corpora can be supplied by path instead.

Every random draw flows through named substreams of one experiment seed,
keyed by utterance id, so per-file generation can run in any order and
still produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp, patches
from .atomic import atomic_write
from .dsp import TARGET_SAMPLE_RATE, Waveform, load_wav, resample_to, save_wav
from .parallel import ordered_map

BONAFIDE = "bonafide"
SPOOF = "spoof"
NO_NOISE = math.inf  # snr_db sentinel: noise stage disabled


def substream(seed: int, *tags) -> np.random.Generator:
    """Independent RNG keyed by (seed, tags); stable across platforms and runs."""
    digest = hashlib.sha256("/".join(str(t) for t in tags).encode()).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


@dataclass(frozen=True)
class ManifestEntry:
    uid: str
    path: str
    label: str
    split: str
    source_id: str


def add_noise(w: Waveform, snr_db: float, rng: np.random.Generator) -> Waveform:
    """Add white Gaussian noise scaled so the realized SNR equals snr_db.

    The noise is rescaled against its own measured power, so the power
    ratio is exact up to rounding rather than expected-value only. Samples
    pushed outside [-1, 1] are clipped and the clipped fraction reported.
    """
    if snr_db == NO_NOISE:
        return w
    p_signal = float(np.mean(w.samples ** 2))
    if p_signal <= 0.0:
        raise ValueError("cannot set an SNR against a zero-power signal")
    noise = rng.standard_normal(w.samples.size)
    p_target = p_signal / 10.0 ** (snr_db / 10.0)
    noise *= np.sqrt(p_target / np.mean(noise ** 2))
    out = w.samples + noise
    n_clipped = int(np.count_nonzero(np.abs(out) > 1.0))
    if n_clipped:
        warnings.warn(
            f"noise at {snr_db} dB SNR clipped {n_clipped / out.size:.4%} of samples")
        out = np.clip(out, -1.0, 1.0)
    return Waveform(out, w.sample_rate)


def spectral_distort(w: Waveform, tilt: float) -> Waveform:
    """First-order tilt y[n] = x[n] - tilt*x[n-1], renormalized to input RMS.

    Positive tilt suppresses low frequencies (pre-emphasis), negative
    boosts them. If the filtered signal is essentially silent the renorm
    is skipped and the raw filter output passes through with a warning.
    """
    x = w.samples
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - tilt * x[:-1]
    rms_in = float(np.sqrt(np.mean(x ** 2)))
    rms_out = float(np.sqrt(np.mean(y ** 2)))
    if rms_out < 1e-6:
        warnings.warn("tilted signal is near silence; skipping RMS renormalization")
        return Waveform(y, w.sample_rate)
    return Waveform(y * (rms_in / rms_out), w.sample_rate)


def make_spoof(w: Waveform, uid: str, config) -> Waveform:
    """Noise then tilt, with all draws from the utterance's own substream.

    config is the ExperimentConfig; its seed, snr_db, tilt_low and
    tilt_high are read.
    """
    rng = substream(config.seed, "spoof", uid)
    tilt = float(rng.uniform(config.tilt_low, config.tilt_high))
    noisy = add_noise(w, config.snr_db, rng)
    return spectral_distort(noisy, tilt)


def _harmonic_voice(rng: np.random.Generator, duration_s: float,
                    sample_rate: int) -> Waveform:
    """One synthetic utterance: a harmonic complex with vibrato and envelope."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(110.0, 220.0)
    vib_rate = rng.uniform(4.5, 6.5)
    vib_depth = rng.uniform(0.005, 0.02)
    inst_freq = f0 * (1.0 + vib_depth * np.sin(2 * np.pi * vib_rate * t))
    phase = 2 * np.pi * np.cumsum(inst_freq) / sample_rate
    n_harm = int(rng.integers(8, 13))
    rolloff = rng.uniform(0.8, 1.5)
    sig = np.zeros(n)
    for h in range(1, n_harm + 1):
        amp = 1.0 / h ** rolloff
        sig += amp * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    am_rate = rng.uniform(1.5, 3.5)
    am_depth = rng.uniform(0.05, 0.2)
    sig *= 1.0 + am_depth * np.sin(2 * np.pi * am_rate * t + rng.uniform(0, 2 * np.pi))
    attack = min(int(rng.uniform(0.05, 0.15) * sample_rate), n // 4)
    release = min(int(rng.uniform(0.10, 0.30) * sample_rate), n // 3)
    env = np.ones(n)
    env[:attack] = np.linspace(0.0, 1.0, attack, endpoint=False)
    env[n - release:] = np.linspace(1.0, 0.0, release)
    sig *= env
    peak_target = rng.uniform(0.5, 0.8)
    sig *= peak_target / np.max(np.abs(sig))
    return Waveform(sig, sample_rate)


def generate_synthetic_corpus(out_dir, n_files: int, seed: int) -> list[Path]:
    """Write n_files seeded synthetic voices as utt000.wav, utt001.wav, ..."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"utt{i:03d}.wav" for i in range(n_files)]

    def write(i) -> None:  # the samples save_wav returns stay in the worker
        save_wav(paths[i], _harmonic_voice(substream(seed, "voice", i), 1.0, TARGET_SAMPLE_RATE))

    ordered_map(write, range(n_files))
    return paths


def _features(w: Waveform, config) -> tuple:
    # looked up on their modules, so wrappers installed there (perfbench's tracer) see the calls
    return patches.extract_features(dsp.logmel_spectrogram(w), config.k)


def _spoof_one(path: Path, spoof_path: Path, config) -> tuple[tuple, tuple]:
    """Write the spoof of one bona fide file, read once; return the feature
    rows of the file and of its spoof as (stats, corners) pairs."""
    w = load_wav(path)
    try:
        w = resample_to(w)
        spoofed = save_wav(spoof_path, make_spoof(w, path.stem, config))
        return _features(w, config), _features(spoofed, config)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def build_dataset(wavs, work_dir, config) -> tuple[tuple, list]:
    """Write the spoofs of the first train_per_class + dev_per_class paths of
    the list wavs under work_dir/spoof and assign splits; return the
    manifest as a tuple of ManifestEntry and its feature rows.

    config is the ExperimentConfig; its train_per_class and dev_per_class
    are read, its input_dir to name in the count refusal, k, and what
    make_spoof reads. A selected X_spoof.wav beside a selected X.wav
    is refused before any spoof is written, since the spoof of X takes the
    id X_spoof. The split is drawn once over sources: the first train_per_class
    shuffled stems put their file and its spoof in train, the rest in dev.
    Entry paths are relative to work_dir, so the manifest moves with it.
    Each bona fide file is read and resampled once: its feature row comes
    from that waveform, its spoof's from the samples save_wav wrote. The
    rows, one (id, label, stats, corners) per entry in manifest order, are
    what write_features_csv takes. If any file fails, every spoof path of
    this call is removed before the error is raised, so none is left behind.
    """
    spoof_dir = Path(work_dir) / "spoof"
    need = config.train_per_class + config.dev_per_class
    if len(wavs) < need:
        raise ValueError(
            f"need {need} bona fide WAV files in {config.input_dir}, found "
            f"{len(wavs)} (short {need - len(wavs)})")
    wavs = wavs[:need]
    by_stem = {path.stem: path for path in wavs}
    for path in wavs:
        source = by_stem.get(path.stem.removesuffix("_spoof"))
        if source is not None and source != path:
            raise ValueError(f"{path} has the id of the spoof of {source}; rename one")
    order = sorted(by_stem)
    substream(config.seed, "split").shuffle(order)
    train = set(order[:config.train_per_class])
    spoof_dir.mkdir(parents=True, exist_ok=True)

    spoof_paths = [spoof_dir / f"{path.stem}_spoof.wav" for path in wavs]
    try:
        row_pairs = ordered_map(lambda pair: _spoof_one(*pair, config), zip(wavs, spoof_paths))
    except BaseException:
        for path in spoof_paths:
            path.unlink(missing_ok=True)
        raise
    by_label = {BONAFIDE: {}, SPOOF: {}}  # uid -> (path, source id, (stats, corners))
    for source, spoof_path, both in zip(wavs, spoof_paths, row_pairs):
        for label, wav, row in zip((BONAFIDE, SPOOF), (source, spoof_path), both):
            by_label[label][wav.stem] = (os.path.relpath(wav, work_dir), source.stem, row)

    entries, rows = [], []
    for label, by_uid in by_label.items():
        for uid in sorted(by_uid):
            path, source_id, row = by_uid[uid]
            entries.append(ManifestEntry(uid, path, label,
                                         "train" if source_id in train else "dev", source_id))
            rows.append((uid, label, *row))
    return tuple(entries), rows


def write_manifest(manifest, path) -> None:
    """Write the ManifestEntry rows of manifest as the CSV read_manifest reads."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "path", "label", "split", "source_id"])
        for e in manifest:
            writer.writerow([e.uid, e.path, e.label, e.split, e.source_id])


def read_manifest(path) -> tuple:
    """Inverse of write_manifest: the tuple of ManifestEntry.

    The file is read as write_manifest wrote it; train-eval reads it only
    once features.json vouches for it by its sha256.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return tuple(ManifestEntry(*row) for row in reader)
