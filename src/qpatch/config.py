"""Experiment configuration: one JSON file, one seed, flag overrides win."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dsp import N_MELS
from .patches import check_patch_size
from .quantum import check_circuit
from .spoof import NO_NOISE


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the pipeline with their defaults.

    The audio front end is fixed in qpatch.dsp (16 kHz, 25 ms / 10 ms Hann
    frames, 1024-point FFT, 64 mel bins). Patches: 4x4, top-2 by mean
    activation. Circuit: depth 1.
    Spoofs: 20 dB SNR noise plus a uniform spectral tilt. Split: 40/10 per
    class. Everything random derives from the single seed.
    """

    work_dir: str = "qpatch_work"
    input_dir: str | None = None
    patch_size: int = 4
    k: int = 2
    depth: int = 1
    s3_axis: str = "Z"
    snr_db: float = 20.0
    tilt_low: float = -0.6
    tilt_high: float = 0.6
    train_per_class: int = 40
    dev_per_class: int = 10
    svm_c: float = 1.0
    gamma: float | str = "scale"
    seed: int = 7

    def __post_init__(self):
        # checked here so a bad value exits before any stage writes a file
        if self.k != 1 and (self.k < 2 or self.k % 2):
            raise ValueError(f"k must be 1 or even, got {self.k}")
        check_circuit(self.depth, self.s3_axis)
        try:  # add_noise divides the signal power by this ratio
            usable = self.snr_db == NO_NOISE or 0.0 < 10.0 ** (self.snr_db / 10.0) < math.inf
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(f"snr_db must be finite, with 10 ** (snr_db / 10) above 0 and "
                             f"finite, or the no-noise sentinel, got {self.snr_db}")
        if not (-1.0 < self.tilt_low <= self.tilt_high < 1.0):
            raise ValueError(
                f"tilt range [{self.tilt_low}, {self.tilt_high}] must sit inside (-1, 1)")
        if self.train_per_class < 1 or self.dev_per_class < 1:
            raise ValueError("both splits need at least one sample per class")
        if not 0 < self.svm_c < math.inf:
            raise ValueError(f"svm_c must be a finite number > 0, got {self.svm_c!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        numeric = isinstance(self.gamma, (int, float)) and not isinstance(self.gamma, bool)
        if self.gamma != "scale" and not (numeric and 0 < self.gamma < math.inf):
            raise ValueError(f'gamma must be a finite number > 0 or "scale", '
                             f"got {self.gamma!r}")
        check_patch_size(self.patch_size, N_MELS)


_FIELDS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
# the Python types each name in a field annotation admits; a bool is no number
_TYPES = {"int": int, "float": (int, float), "str": str, "None": type(None)}


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and flag overrides (flags win)."""
    merged: dict = {}
    if path is not None:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(raw) - _FIELDS.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(raw)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ValueError(f"unknown config override: {key}")
        merged[key] = value
    for key, value in merged.items():
        annotation = _FIELDS[key]  # such as "float | str"
        allowed = tuple(_TYPES[name] for name in annotation.split(" | "))
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"config value {key}={value!r} must be {annotation}")
    return ExperimentConfig(**merged)
