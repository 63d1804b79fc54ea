"""Output checks on one finished `qpatch run-all` work directory."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

KINDS = ("quantum", "rbf")
TOL = 1e-10  # the Gram structure tolerance the pipeline itself enforces


def hashed_artifacts() -> list[str]:
    """Artifacts that must rerun byte-identically for one workload and seed."""
    names = ["features.csv"]
    for kind in KINDS:
        names += [f"gram_{kind}.csv", f"cross_{kind}.csv",
                  f"report_{kind}.json", f"roc_{kind}.csv"]
    return names


def artifact_hashes(work: Path) -> dict:
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in hashed_artifacts()}


def check_run(work: Path, n_train: int, n_dev: int) -> tuple[list[str], dict]:
    """Return (problems, reports) for one run-all work directory."""
    problems = []
    reports = {}
    for name in hashed_artifacts():
        if not (work / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return problems, reports
    for kind in KINDS:
        report = json.loads((work / f"report_{kind}.json").read_text())
        reports[kind] = report
        if (report.get("n_train"), report.get("n_dev")) != (n_train, n_dev):
            problems.append(
                f"report_{kind}: n_train/n_dev {report.get('n_train')}/"
                f"{report.get('n_dev')}, expected {n_train}/{n_dev}")
        for key in ("auroc", "eer"):
            value = report.get(key)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                problems.append(f"report_{kind}: {key}={value!r} outside [0, 1]")
        gram = np.loadtxt(work / f"gram_{kind}.csv", delimiter=",", ndmin=2)
        if gram.shape != (n_train, n_train):
            problems.append(f"gram_{kind}: shape {gram.shape}")
        elif (np.max(np.abs(gram - gram.T)) > TOL
              or np.max(np.abs(np.diag(gram) - 1.0)) > TOL):
            problems.append(f"gram_{kind}: not symmetric with a unit diagonal")
        cross = np.loadtxt(work / f"cross_{kind}.csv", delimiter=",", ndmin=2)
        if cross.shape != (n_dev, n_train):
            problems.append(f"cross_{kind}: shape {cross.shape}")
    return problems, reports


def compare_to_first(path: Path, hashes: dict) -> list[str]:
    """Compare with the first run's hashes stored at path, or store these.

    Every later run of the same workload and seed, in this process or a
    later one, must reproduce the first run's artifacts byte for byte.
    """
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(hashes, indent=1, sort_keys=True))
        return []
    first = json.loads(path.read_text())
    return [f"{name} differs from the first run of this workload and seed"
            for name in sorted(first) if first[name] != hashes.get(name)]
