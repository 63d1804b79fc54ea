"""Command line pipeline: synth, then train-eval, one per kernel kind.

Each subcommand reads only its declared inputs from the work directory and
writes only its declared outputs, so stages can be rerun independently.
synth is the one stage that reads audio: it writes the spoofs, the manifest
and the features, and features.json, the one record of the config they were
made under and of the sha256 of manifest.csv and features.csv. train-eval
checks that record and then trusts both files as synth wrote them. Exit
codes: 0 success, 1 internal error, 2 bad input or config. Timestamps
appear only in run.log so data artifacts stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

# One BLAS thread per process unless the caller chose otherwise: run-all's
# workers already fill every usable CPU, and the last bits of a matrix
# product depend on the BLAS thread count. Set before numpy first loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from . import metrics, patches, spoof, svm  # noqa: E402
from .atomic import atomic_write  # noqa: E402
from .config import ExperimentConfig, load_config  # noqa: E402
from .parallel import ordered_map  # noqa: E402

log = logging.getLogger("qpatch")

KINDS = svm.KERNEL_KINDS


def _setup_logging(work_dir: Path) -> None:
    """Send qpatch's log and every Python warning to stderr and run.log."""
    work_dir.mkdir(parents=True, exist_ok=True)
    file_handler = logging.FileHandler(work_dir / "run.log")
    file_handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    stream = logging.StreamHandler(sys.stderr)
    stream.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    # reinstalled on every setup: a caller may have restored
    # warnings.showwarning since the last one (pytest does, per test)
    logging.captureWarnings(False)
    logging.captureWarnings(True)
    log.setLevel(logging.INFO)
    for logger in (log, logging.getLogger("py.warnings")):
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
            handler.close()
        logger.addHandler(file_handler)
        logger.addHandler(stream)


def _fields(config: ExperimentConfig, *names: str) -> dict:
    return {name: getattr(config, name) for name in names}


def _synth_facts(config: ExperimentConfig) -> dict:
    return {"spoof_config": _fields(config, "seed", "snr_db", "tilt_high", "tilt_low"),
            "split_counts": _fields(config, "dev_per_class", "train_per_class"),
            "k": config.k}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_synth(config: ExperimentConfig) -> None:
    """Write the spoofs, manifest.csv and features.csv under one record,
    features.json, which also holds the sha256 of both files."""
    work = Path(config.work_dir)
    # the audio and the manifest change before the record vouches for them,
    # so a synth that fails partway leaves no record
    (work / "features.json").unlink(missing_ok=True)
    if config.input_dir is None:
        n = config.train_per_class + config.dev_per_class
        log.info("generating %d synthetic bona fide files in %s", n, work / "bonafide")
        wavs = spoof.generate_synthetic_corpus(work / "bonafide", n, config.seed)
    else:
        wavs = sorted(Path(config.input_dir).glob("*.wav"))
    manifest, rows = spoof.build_dataset(wavs, work, config)
    spoof.write_manifest(manifest, work / "manifest.csv")
    log.info("wrote manifest with %d entries to %s", len(manifest), work / "manifest.csv")
    cmd_features(config, rows)
    record = {**_synth_facts(config), "manifest": _sha256(work / "manifest.csv"),
              "sha256": _sha256(work / "features.csv")}
    with atomic_write(work / "features.json") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def cmd_features(config: ExperimentConfig, rows) -> None:
    """Write synth's feature rows, in manifest order, as features.csv."""
    path = Path(config.work_dir) / "features.csv"
    patches.write_features_csv(path, rows)
    log.info("wrote %d feature rows to %s", len(rows), path)


def _load_split_features(config: ExperimentConfig):
    """The sha256 of features.csv, the labels and the (n, 4k) feature matrix
    with the train rows first, each split in manifest order, and the number
    of train rows.

    Neither file is read before features.json vouches for both: it must
    record this config's facts and the sha256 of manifest.csv and of
    features.csv. The files are then taken as synth wrote them: one feature
    row per manifest entry, in the same order."""
    work = Path(config.work_dir)
    manifest_csv, features_csv = work / "manifest.csv", work / "features.csv"
    for path in (manifest_csv, features_csv):
        if not path.exists():
            raise ValueError(f"missing {path}; run synth first")
    try:
        record = json.loads((work / "features.json").read_text())
    except (OSError, ValueError):
        record = None
    if not isinstance(record, dict):
        raise ValueError(f"{work / 'features.json'} is missing or holds no JSON "
                         "object; rerun synth")
    facts = {**_synth_facts(config), "manifest": _sha256(manifest_csv)}
    stale = [key for key in sorted(facts) if record.get(key) != facts[key]]
    if stale:
        raise ValueError(f"features.csv was made under another {', '.join(stale)}; "
                         "rerun synth")
    if record.get("sha256") != _sha256(features_csv):
        raise ValueError("features.csv does not match the sha256 in features.json; "
                         "rerun synth")
    entries = spoof.read_manifest(manifest_csv)
    train = np.array([entry.split == "train" for entry in entries])
    order = np.argsort(~train, kind="stable")
    labels = np.array([entry.label for entry in entries])
    x = np.array([stats for _, _, stats in patches.read_features_csv(features_csv)])
    return record["sha256"], labels[order], x[order], int(train.sum())


def cmd_kernel(config: ExperimentConfig, kind: str):
    """_load_split_features's four values, the kernel's parameters and its
    kernel over those rows, after writing the train Gram and the dev x train
    cross rows as CSV exports to read and compare."""
    work = Path(config.work_dir)
    digest, labels, x, n = _load_split_features(config)
    # resolved on the train features: the structure block uses the model's gamma
    params = svm.kernel_params(config, kind, x[:n])
    k = svm.kernel_matrix(x, **params)
    svm.save_gram(k[:n, :n], work / f"gram_{kind}.csv")
    svm.save_gram(k[n:, :n], work / f"cross_{kind}.csv")
    return digest, labels, x, n, params, k


def cmd_train_eval(config: ExperimentConfig, kind: str) -> None:
    work = Path(config.work_dir)
    digest, labels, x, n_train, params, k = cmd_kernel(config, kind)
    n_dev = len(labels) - n_train
    bonafide = labels == spoof.BONAFIDE

    model = svm.train_svm(k[:n_train, :n_train], np.where(bonafide[:n_train], 1.0, -1.0),
                          C=config.svm_c)

    dev_scores = svm.decision_scores(model, k[n_train:, :n_train])
    roc = metrics.roc_points(dev_scores, bonafide[n_train:])
    auroc_value = metrics.auroc(dev_scores, bonafide[n_train:])
    eer_value, eer_tau = metrics.eer(dev_scores, bonafide[n_train:])

    structure = metrics.kernel_structure(k[n_train:, n_train:], labels[n_train:],
                                         features=x[n_train:], kernel=params)
    # each value once and no path, so a run-all's files do not depend on its work dir
    report = {
        "auroc": auroc_value,
        "eer": eer_value,
        "eer_threshold": eer_tau,
        "n_train": n_train,
        "n_dev": n_dev,
        "features": digest,
        "kernel": params,
        "svm": model,
        "kernel_structure": structure,
        "config": {name: value for name, value in dataclasses.asdict(config).items()
                   if name not in ("work_dir", "input_dir")},
    }
    metrics.write_report(work / f"report_{kind}.json", work / f"roc_{kind}.csv", report, roc)
    log.info("kind=%s dev AUROC %.4f EER %.4f -> %s",
             kind, auroc_value, eer_value, work / f"report_{kind}.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpatch",
        description="Patch-based quantum fidelity kernel anti-spoofing pipeline")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--work-dir", dest="work_dir")
    parser.add_argument("--input-dir", dest="input_dir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--k", type=int, help="patches kept per utterance")
    parser.add_argument("--depth", type=int, help="embedding layers (1..3)")
    parser.add_argument("--s3-axis", dest="s3_axis", choices=["X", "Y", "Z"])
    parser.add_argument("--snr-db", dest="snr_db", type=float)
    parser.add_argument("--tilt-low", dest="tilt_low", type=float)
    parser.add_argument("--tilt-high", dest="tilt_high", type=float)
    parser.add_argument("--train-per-class", dest="train_per_class", type=int)
    parser.add_argument("--dev-per-class", dest="dev_per_class", type=int)
    parser.add_argument("--svm-c", dest="svm_c", type=float)
    parser.add_argument("--gamma", help='RBF gamma value or "scale"')

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="build the spoofed dataset, its manifest and features")
    train_eval = sub.add_parser(
        "train-eval", help="compute the kernel, train the SVM and write the evaluation report")
    train_eval.add_argument("--kind", choices=KINDS, required=True)
    sub.add_parser("run-all", help="synth, then both kernels and reports")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    overrides = {key: value for key, value in vars(args).items() if key in fields}
    if isinstance(overrides.get("gamma"), str):
        try:
            overrides["gamma"] = float(overrides["gamma"])
        except ValueError:
            pass  # symbolic policy like "scale"
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        _setup_logging(Path(config.work_dir))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if args.command == "synth":
            cmd_synth(config)
        elif args.command == "train-eval":
            cmd_train_eval(config, args.kind)
        elif args.command == "run-all":
            cmd_synth(config)
            # after synth the two kinds share no file
            ordered_map(lambda kind: cmd_train_eval(config, kind), KINDS)
        return 0
    except (ValueError, OSError) as err:
        log.error("%s", err)
        return 2
    except Exception:  # noqa: BLE001 - last-resort diagnostics
        log.exception("internal error")
        return 1


if __name__ == "__main__":
    sys.exit(main())
