"""Workload definitions and seeded input generation for the benchmark.

Each workload is one `qpatch run-all` configuration. The benchmark writes
the config JSON and, for `--input-dir` workloads, the bona fide WAVs
itself, so the program under test receives only generated inputs and the
inputs do not change when the program's own synthetic generator does.
"""

from __future__ import annotations

import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Weakened spoofs: quiet noise and a narrow tilt range. Tuned once so that
# both kernels score AUROC < 1 on scaled_hard and deep_circuit, then frozen.
# The shipped defaults (snr_db 20, tilt +-0.6) saturate both kernels at
# AUROC 1.0 / EER 0.0 and cannot show a quality regression.
HARD_SPOOF = {"snr_db": 40.0, "tilt_low": -0.1, "tilt_high": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # ExperimentConfig overrides, besides seed and paths
    n_bonafide: int | None  # WAVs the benchmark writes; None uses the built-in generator
    duration_s: float = 0.25
    sample_rate: int = 16000

    # Fallbacks are ExperimentConfig's defaults, which the default workload runs.
    @property
    def per_class(self) -> tuple[int, int]:
        return (self.config.get("train_per_class", 40),
                self.config.get("dev_per_class", 10))

    @property
    def k(self) -> int:
        return self.config.get("k", 2)

    @property
    def depth(self) -> int:
        return self.config.get("depth", 1)


WORKLOADS = {
    # The shipped experiment unchanged: 50+50 one-second 16 kHz clips from
    # the built-in generator, depth 1, k 2. patches and dsp do nearly all
    # of the in-process work; the bypass workload for kernel changes.
    "default": Workload("default", {}, None, duration_s=1.0),
    # 1000 utterances (400+100 per class) of 0.25 s clips written at
    # 44.1 kHz, so the resampling path runs. The O(n^2) Gram/cross loops
    # and the per-slot kernel structure dominate; quality is not saturated.
    "scaled_hard": Workload(
        "scaled_hard",
        {"train_per_class": 400, "dev_per_class": 100, **HARD_SPOOF},
        500, sample_rate=44100),
    # 250 utterances (100+25 per class) of 0.25 s 16 kHz clips at depth 3,
    # k 4 and a Y-axis bandwidth rotation: the statevector simulator does
    # most of the work, which a depth-1 closed form cannot bypass.
    "deep_circuit": Workload(
        "deep_circuit",
        {"train_per_class": 100, "dev_per_class": 25, "depth": 3, "k": 4,
         "s3_axis": "Y", **HARD_SPOOF},
        125),
}


def _voice(rng: np.random.Generator, n: int, sample_rate: int) -> np.ndarray:
    """A harmonic complex with vibrato and an attack/release envelope."""
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(100.0, 240.0)
    inst = f0 * (1.0 + rng.uniform(0.005, 0.02)
                 * np.sin(2 * np.pi * rng.uniform(4.0, 7.0) * t))
    phase = 2 * np.pi * np.cumsum(inst) / sample_rate
    rolloff = rng.uniform(0.8, 1.6)
    sig = np.zeros(n)
    for h in range(1, int(rng.integers(6, 14)) + 1):
        if h * f0 >= sample_rate / 2:
            break
        sig += np.sin(h * phase + rng.uniform(0, 2 * np.pi)) / h ** rolloff
    ramp = max(1, n // 10)
    env = np.ones(n)
    env[:ramp] = np.linspace(0.0, 1.0, ramp, endpoint=False)
    env[n - ramp:] = np.linspace(1.0, 0.0, ramp)
    sig *= env
    return sig * (rng.uniform(0.4, 0.8) / np.max(np.abs(sig)))


def write_wav(path: Path, samples: np.ndarray, sample_rate: int) -> None:
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())


def prepare(workload: Workload, seed: int, root: Path) -> Path:
    """Write the inputs of one (workload, seed) under root; return the config path.

    The same seed gives the same bytes. Paths in the config are relative to
    the directory the pipeline runs in, because the reports echo them and
    must not differ between checkouts.
    """
    root.mkdir(parents=True, exist_ok=True)
    config = dict(workload.config, seed=seed, work_dir=str(root / "run"))
    if workload.n_bonafide is not None:
        input_dir = root / "input"
        input_dir.mkdir(exist_ok=True)
        rng = np.random.default_rng([seed, 20261017])
        n = int(round(workload.duration_s * workload.sample_rate))
        for i in range(workload.n_bonafide):
            write_wav(input_dir / f"bf{i:04d}.wav",
                      _voice(rng, n, workload.sample_rate), workload.sample_rate)
        config["input_dir"] = str(input_dir)
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


# Front-end and circuit constants of the seed algorithm, used only to
# derive the computed counts below from the workload shape.
TARGET_RATE = 16000
WIN, HOP, N_MELS, PATCH = 400, 160, 64, 4
GATES_PER_LAYER = {4: 7, 8: 15}  # rotations plus CZs: patch and patch-pair circuit
SMO_MAX_ITER = 10000


def computed_counts(workload: Workload, reports: dict) -> dict:
    """Work counts implied by the workload shape and the report fields.

    They describe what the seed pipeline does for this shape (how many
    patches it summarizes, states it simulates, kernel entries it fills),
    so they repeat exactly; they are not measured inside the program.
    """
    train, dev = workload.per_class
    n_train, n_dev = 2 * train, 2 * dev
    k, depth = workload.k, workload.depth
    # clip length at 16 kHz; resample_poly keeps ceil(n * up / down) samples
    n_in = int(round(workload.duration_s * workload.sample_rate))
    n16 = -(-n_in * TARGET_RATE // workload.sample_rate)
    frames = 1 + (n16 - WIN) // HOP
    patches_per_utt = (frames // PATCH) * (N_MELS // PATCH)

    # the quantum feature vector embeds as k/2 eight-qubit pair states
    # (one four-qubit state when k is 1)
    pair_states, pair_qubits = (1, 4) if k == 1 else (k // 2, 8)
    gram_evals = n_train * (n_train + 1) // 2 + n_dev * (n_dev + 1) // 2
    cross_evals = n_dev * n_train
    # svm embeds: train Gram, cross block (dev and train), dev Gram
    svm_states = (n_train + (n_dev + n_train) + n_dev) * pair_states
    # per-slot structure: one single-patch kernel per cross-class dev pair
    # and slot, each embedding both of its four-qubit states again
    slot_evals = k * dev * dev
    slot_states = 2 * slot_evals
    states = svm_states + slot_states
    distinct = (n_train + n_dev) * pair_states + n_dev * k
    gates = depth * (svm_states * GATES_PER_LAYER[pair_qubits]
                     + slot_states * GATES_PER_LAYER[4])

    out = {
        "patches.patches_summarized": patches_per_utt * (n_train + n_dev),
        "quantum.states_embedded": states,
        "quantum.gate_applications": gates,
        "quantum.distinct_states": distinct,
        "quantum.embed_reuse_ratio": states / distinct,
        "metrics.slot_kernel_evals": 2 * slot_evals,
        "svm.smo_hit_max_iter": sum(
            1 for r in reports.values() if r["svm"]["n_iter"] >= SMO_MAX_ITER),
    }
    for kind, report in reports.items():
        out[f"svm.kernel_evals.{kind}"] = gram_evals + cross_evals
        out[f"svm.smo_iter.{kind}"] = report["svm"]["n_iter"]
    return out
