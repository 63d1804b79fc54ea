"""Command line pipeline: synth -> features -> train-eval, one per kernel kind.

Each subcommand reads only its declared inputs from the work directory and
writes only its declared outputs, so stages can be rerun independently.
Exit codes: 0 success, 1 internal error, 2 bad input or config. Timestamps
appear only in run.log so data artifacts stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
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

from . import dsp, metrics, patches, spoof, svm  # noqa: E402
from .atomic import atomic_write  # noqa: E402
from .config import ExperimentConfig, load_config  # noqa: E402
from .parallel import ordered_map  # noqa: E402

log = logging.getLogger("qpatch")

KINDS = svm.KERNEL_KINDS


class CliInputError(Exception):
    """Bad input or configuration; maps to exit code 2."""


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


def _paths(config: ExperimentConfig) -> dict:
    work = Path(config.work_dir)
    return {
        "work": work,
        "manifest": work / "manifest.csv",
        "features": work / "features.csv",
        "model": lambda kind: work / f"model_{kind}.json",
        "report": lambda kind: work / f"report_{kind}.json",
        "roc": lambda kind: work / f"roc_{kind}.csv",
    }


@contextlib.contextmanager
def _record_made_under(artifact: Path, facts: dict):
    """Around the code that (re)makes artifact: its sidecar is dropped on
    entry and, if the body succeeds, rewritten to record facts, so a stage
    that dies partway leaves no sidecar vouching for a changed file. The
    body may add the facts it learns to the dict it is given."""
    sidecar = artifact.with_suffix(".json")
    sidecar.unlink(missing_ok=True)
    yield facts
    with atomic_write(sidecar) as fh:
        fh.write(json.dumps(facts, indent=2, sort_keys=True) + "\n")


def _check_made_under(artifact: Path, facts: dict, rerun: str) -> dict:
    """Refuse an artifact whose sidecar does not record exactly these facts;
    return everything the sidecar records."""
    if not artifact.exists():
        raise CliInputError(f"missing {artifact}; run {rerun} first")
    sidecar = artifact.with_suffix(".json")
    try:
        stored = json.loads(sidecar.read_text())
    except (OSError, ValueError):
        stored = None
    if not isinstance(stored, dict):
        raise CliInputError(f"{sidecar} is missing or holds no JSON object; "
                            f"rerun {rerun}")
    now = json.loads(json.dumps(facts))  # as the sidecar stores them
    stale = [key for key in sorted(now) if stored.get(key) != now[key]]
    if stale:
        raise CliInputError(f"{artifact.name} was made under another "
                            f"{', '.join(stale)}; rerun {rerun}")
    return stored


def _digest(artifact: Path) -> str:
    """sha256 of an artifact followed by its sidecar, as a later stage records it."""
    sidecar = artifact.with_suffix(".json")
    return hashlib.sha256(artifact.read_bytes() + sidecar.read_bytes()).hexdigest()


def _fields(config: ExperimentConfig, *names: str) -> dict:
    return {name: getattr(config, name) for name in names}


def _manifest_facts(config: ExperimentConfig) -> dict:
    return {"spoof_config": _fields(config, "seed", "snr_db", "tilt_high", "tilt_low"),
            "split_counts": _fields(config, "dev_per_class", "train_per_class")}


def _features_facts(config: ExperimentConfig) -> dict:
    return {"k": config.k, "patch_size": config.patch_size,
            "manifest": _digest(_paths(config)["manifest"])}


def cmd_synth(config: ExperimentConfig) -> None:
    p = _paths(config)
    # the audio the manifest points at changes before the manifest does
    with _record_made_under(p["manifest"], _manifest_facts(config)) as facts:
        if config.input_dir is None:
            n = config.train_per_class + config.dev_per_class
            log.info("generating %d synthetic bona fide files in %s", n, p["work"] / "bonafide")
            wavs = spoof.generate_synthetic_corpus(p["work"] / "bonafide", n, config.seed)
        else:
            wavs = sorted(Path(config.input_dir).glob("*.wav"))
        try:
            manifest, wav_sha256 = spoof.build_dataset(wavs, p["work"], config)
        except ValueError as err:
            raise CliInputError(str(err))
        spoof.write_manifest(manifest, p["manifest"])
        # features refuses a WAV edited after its spoof was made from it
        facts["wav_sha256"] = wav_sha256
    log.info("wrote manifest with %d entries to %s", len(manifest), p["manifest"])


def _extract_one(entry, work: Path, config: ExperimentConfig, wav_sha256: dict):
    path = work / entry.path
    raw = path.read_bytes()
    if hashlib.sha256(raw).hexdigest() != wav_sha256.get(entry.path):
        raise CliInputError(f"{path} is not the file synth read; rerun synth")
    w = dsp.load_wav(path, raw)
    spec = dsp.logmel_spectrogram(w)
    return (entry.uid, entry.label,
            *patches.extract_features(spec, k=config.k, patch_size=config.patch_size))


def _read_manifest(config: ExperimentConfig):
    """The checked manifest and the sha256 of each WAV it lists, by path."""
    path = _paths(config)["manifest"]
    wav_sha256 = _check_made_under(path, _manifest_facts(config), "synth").get("wav_sha256")
    if not isinstance(wav_sha256, dict):
        raise CliInputError(f"{path.with_suffix('.json')} records no wav_sha256; rerun synth")
    return spoof.read_manifest(path), wav_sha256


def cmd_features(config: ExperimentConfig) -> None:
    p = _paths(config)
    manifest, wav_sha256 = _read_manifest(config)

    def extract(entry):
        try:
            return _extract_one(entry, p["work"], config, wav_sha256)
        except (CliInputError, ValueError, OSError) as err:  # what a bad WAV raises
            return str(err)

    rows = []
    skipped = []
    for entry, row in zip(manifest, ordered_map(extract, manifest)):
        if isinstance(row, str):
            log.error("skipping %s: %s", entry.uid, row)
            skipped.append(entry.uid)
        else:
            rows.append(row)
    if not rows:
        raise CliInputError("no feature rows could be extracted")
    with _record_made_under(p["features"], _features_facts(config)):
        patches.write_features_csv(p["features"], rows)
    log.info("wrote %d feature rows to %s", len(rows), p["features"])
    if skipped:
        raise CliInputError(
            f"{len(skipped)} of {len(manifest)} files were skipped: "
            + ", ".join(skipped))


def _load_split_features(config: ExperimentConfig) -> dict:
    """Per split, the labels and the (n, 4k) feature matrix, in manifest order."""
    p = _paths(config)
    manifest, _ = _read_manifest(config)
    _check_made_under(p["features"], _features_facts(config), "features")
    feature_rows = {uid: (label, stats)
                    for uid, label, stats in patches.read_features_csv(p["features"])}
    split = {"train": ([], []), "dev": ([], [])}
    for entry in manifest:
        if entry.uid not in feature_rows:
            raise CliInputError(f"feature row missing for {entry.uid}; rerun features")
        label, stats = feature_rows[entry.uid]
        if label != entry.label:
            raise CliInputError(f"label mismatch for {entry.uid}")
        if len(stats) != 4 * config.k:
            raise CliInputError(f"{p['features']} has {len(stats)} statistics per row, "
                                f"not 4 * k = {4 * config.k}; rerun features")
        split[entry.split][0].append(label)
        split[entry.split][1].append(stats)
    return {name: (labels, np.array(rows)) for name, (labels, rows) in split.items()}


def cmd_kernel(config: ExperimentConfig, kind: str):
    """The split features, the kernel's parameters and its kernel over the
    stacked train and dev rows, after writing the train Gram and the dev x
    train cross rows as CSV exports to read and compare."""
    p = _paths(config)
    split = _load_split_features(config)
    (_, x_train), (_, x_dev) = split["train"], split["dev"]
    # resolved on the train features: the structure block uses the model's gamma
    params = svm.kernel_params(config, kind, x_train)
    # rows and columns are the manifest's train then dev entries in file order
    k = svm.kernel_matrix(np.vstack([x_train, x_dev]), **params)
    n = len(x_train)
    svm.save_gram([(p["work"] / f"gram_{kind}.csv", k[:n, :n]),
                   (p["work"] / f"cross_{kind}.csv", k[n:, :n])])
    return split, params, k


def cmd_train_eval(config: ExperimentConfig, kind: str) -> None:
    p = _paths(config)
    split, params, k = cmd_kernel(config, kind)
    (train_labels, _), (dev_labels, x_dev) = split["train"], split["dev"]
    n_train, n_dev = len(train_labels), len(dev_labels)

    y_train = np.array([1.0 if label == spoof.BONAFIDE else -1.0
                        for label in train_labels])
    model = svm.train_svm(k[:n_train, :n_train], y_train, C=config.svm_c)
    svm.save_model({**model, "kernel_params": params, "feature_ref": str(p["features"])},
                   p["model"](kind))

    dev_scores = svm.decision_scores(model, k[n_train:, :n_train])
    y_dev01 = np.array([1 if label == spoof.BONAFIDE else 0 for label in dev_labels])
    roc = metrics.roc_points(dev_scores, y_dev01)
    auroc_value = metrics.auroc(dev_scores, y_dev01)
    eer_value, eer_tau = metrics.eer(dev_scores, y_dev01)

    structure = metrics.kernel_structure(k[n_train:, n_train:], dev_labels,
                                         features=x_dev, kernel=params)
    # every value below is already a plain int, float, bool, str or dict
    report = {
        "kind": kind,
        "auroc": auroc_value,
        "eer": eer_value,
        "eer_threshold": eer_tau,
        "n_train": n_train,
        "n_dev": n_dev,
        "kernel": {
            "kind": kind,
            "depth": config.depth,
            "s3_axis": config.s3_axis,
            "gamma_policy": str(config.gamma),
            "gamma_resolved": params.get("gamma"),
        },
        "svm": {"n_support": model["support_indices"].size,
                **{name: model[name]
                   for name in ("C", "bias", "kkt_gap", "n_iter", "converged")}},
        "kernel_structure": structure,
        "config": dataclasses.asdict(config),
    }
    metrics.write_report(p["report"](kind), p["roc"](kind), report, roc)
    log.info("kind=%s dev AUROC %.4f EER %.4f -> %s",
             kind, auroc_value, eer_value, p["report"](kind))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpatch",
        description="Patch-based quantum fidelity kernel anti-spoofing pipeline")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--work-dir", dest="work_dir")
    parser.add_argument("--input-dir", dest="input_dir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--k", type=int, help="patches kept per utterance")
    parser.add_argument("--patch-size", dest="patch_size", type=int)
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
    sub.add_parser("synth", help="build the spoofed dataset and manifest")
    sub.add_parser("features", help="extract patch features for every utterance")
    train_eval = sub.add_parser(
        "train-eval", help="compute the kernel, train the SVM and write the evaluation report")
    train_eval.add_argument("--kind", choices=KINDS, required=True)
    sub.add_parser("run-all", help="synth, features, then both kernels and reports")
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
        elif args.command == "features":
            cmd_features(config)
        elif args.command == "train-eval":
            cmd_train_eval(config, args.kind)
        elif args.command == "run-all":
            cmd_synth(config)
            cmd_features(config)
            # after features the two kinds share no file
            ordered_map(lambda kind: cmd_train_eval(config, kind), KINDS)
        return 0
    except (CliInputError, ValueError, OSError) as err:
        log.error("%s", err)
        return 2
    except Exception:  # noqa: BLE001 - last-resort diagnostics
        log.exception("internal error")
        return 1


if __name__ == "__main__":
    sys.exit(main())
