"""Command line pipeline: synth -> features -> kernel -> train-eval.

Each subcommand reads only its declared inputs from the work directory and
writes only its declared outputs, so stages can be rerun independently.
Exit codes: 0 success, 1 internal error, 2 bad input or config. Timestamps
appear only in run.log so data artifacts stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import dsp, metrics, patches, spoof, svm
from .atomic import atomic_write
from .config import ExperimentConfig, load_config

log = logging.getLogger("qpatch")

KINDS = ("quantum", "rbf")


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
        "features_meta": work / "features.json",
        "gram": lambda kind: work / f"gram_{kind}.csv",
        "cross": lambda kind: work / f"cross_{kind}.csv",
        "model": lambda kind: work / f"model_{kind}.json",
        "report": lambda kind: work / f"report_{kind}.json",
        "roc": lambda kind: work / f"roc_{kind}.csv",
    }


def cmd_synth(config: ExperimentConfig, synthetic_audio: int | None) -> None:
    p = _paths(config)
    input_dir = config.resolved_input_dir()
    if synthetic_audio is not None:
        log.info("generating %d synthetic bona fide files in %s",
                 synthetic_audio, input_dir)
        spoof.generate_synthetic_corpus(input_dir, synthetic_audio, config.seed)
    if not input_dir.is_dir():
        raise CliInputError(
            f"input directory {input_dir} does not exist; pass --synthetic-audio N "
            "to generate a corpus or point --input-dir at bona fide WAVs")
    try:
        manifest = spoof.build_dataset(input_dir, p["work"] / "spoof",
                                       config.spoof_config(), config.split_counts())
    except ValueError as err:
        raise CliInputError(str(err))
    # store paths relative to the work dir so artifacts move with it
    entries = tuple(
        dataclasses.replace(e, path=os.path.relpath(e.path, p["work"]))
        for e in manifest.entries)
    manifest = spoof.DatasetManifest(entries, manifest.seed)
    spoof.write_manifest(manifest, p["manifest"])
    log.info("wrote manifest with %d entries to %s", len(entries), p["manifest"])


def _extract_one(entry, work: Path, config: ExperimentConfig):
    wav_path = work / entry.path
    w = dsp.load_wav(wav_path)
    spec = dsp.logmel_spectrogram(w, config.front_end())
    fv = patches.extract_features(spec, k=config.k, patch_size=config.patch_size)
    return entry.uid, entry.label, fv


def _features_made_under(config: ExperimentConfig) -> dict:
    """The config fields features.csv depends on, as stored in features.json."""
    return {"k": config.k, "patch_size": config.patch_size,
            "front_end": dataclasses.asdict(config.front_end())}


def cmd_features(config: ExperimentConfig) -> None:
    p = _paths(config)
    if not p["manifest"].exists():
        raise CliInputError(f"no manifest at {p['manifest']}; run synth first")
    manifest = spoof.read_manifest(p["manifest"], seed=config.seed)
    rows = []
    skipped = []
    for entry in manifest.entries:
        try:
            rows.append(_extract_one(entry, p["work"], config))
        except Exception as err:  # noqa: BLE001 - per-file isolation
            log.error("skipping %s: %s", entry.uid, err)
            skipped.append(entry.uid)
    if not rows:
        raise CliInputError("no feature rows could be extracted")
    patches.write_features_csv(p["features"], rows)
    with atomic_write(p["features_meta"]) as fh:
        fh.write(json.dumps(_features_made_under(config), indent=2, sort_keys=True) + "\n")
    log.info("wrote %d feature rows to %s", len(rows), p["features"])
    if skipped:
        raise CliInputError(
            f"{len(skipped)} of {len(manifest.entries)} files were unreadable: "
            + ", ".join(skipped))


def _load_split_features(config: ExperimentConfig):
    p = _paths(config)
    for name in ("manifest", "features", "features_meta"):
        if not p[name].exists():
            raise CliInputError(f"missing {p[name]}; run earlier stages first")
    stored = json.loads(p["features_meta"].read_text())
    stale = [key for key, now in _features_made_under(config).items()
             if stored.get(key) != now]
    if stale:
        raise CliInputError(f"features were made under another {', '.join(stale)}; "
                            "rerun features")
    manifest = spoof.read_manifest(p["manifest"], seed=config.seed)
    feature_rows = {uid: (label, fv)
                    for uid, label, fv in patches.read_features_csv(p["features"])}
    split = {"train": [], "dev": []}
    for entry in manifest.entries:
        if entry.uid not in feature_rows:
            raise CliInputError(f"feature row missing for {entry.uid}; rerun features")
        label, fv = feature_rows[entry.uid]
        if label != entry.label:
            raise CliInputError(f"label mismatch for {entry.uid}")
        split[entry.split].append((entry.uid, label, fv))
    return split


def _stack(rows) -> np.ndarray:
    return np.stack([fv.values for _, _, fv in rows])


def cmd_kernel(config: ExperimentConfig, kind: str) -> None:
    p = _paths(config)
    split = _load_split_features(config)
    train = split["train"]
    dev = split["dev"]
    spec = config.kernel_spec(kind)
    gram = svm.build_gram([fv for _, _, fv in train], spec)
    svm.save_gram(gram, p["gram"](kind))
    cross = svm.cross_gram([fv for _, _, fv in dev], [fv for _, _, fv in train], spec)
    cross_path = p["cross"](kind)
    with atomic_write(cross_path) as fh:
        np.savetxt(fh, cross, delimiter=",", fmt="%.17g")
    sidecar = {
        "kernel_kind": kind,
        "params": gram.params,
        "config_hash": svm.feature_hash(
            np.concatenate([_stack(dev), _stack(train)]), gram.params),
        "train_ids": [uid for uid, _, _ in train],
        "dev_ids": [uid for uid, _, _ in dev],
    }
    with atomic_write(cross_path.with_suffix(".json")) as fh:
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    log.info("wrote %dx%d train Gram and %dx%d cross block for kind=%s",
             gram.n, gram.n, cross.shape[0], cross.shape[1], kind)


def _check_kernel_files(gram, cross_meta: dict, spec, train, dev) -> None:
    """Refuse kernel files made under another config, features or split."""
    params = spec.params()
    x_train = _stack(train)
    expected = {
        "gram params": (gram.params, params),
        "gram feature hash": (gram.config_hash, svm.feature_hash(x_train, params)),
        "cross params": (cross_meta.get("params"), params),
        "cross feature hash": (
            cross_meta.get("config_hash"),
            svm.feature_hash(np.concatenate([_stack(dev), x_train]), params)),
        "cross train ids": (cross_meta.get("train_ids"), [uid for uid, _, _ in train]),
        "cross dev ids": (cross_meta.get("dev_ids"), [uid for uid, _, _ in dev]),
    }
    stale = [name for name, (stored, now) in expected.items() if stored != now]
    if stale:
        raise CliInputError(
            f"kernel files do not match the current config and features "
            f"({', '.join(stale)}); rerun kernel --kind {spec.kind}")


def _labels_to_pm1(labels):
    return np.array([1.0 if lab == spoof.BONAFIDE else -1.0 for lab in labels])


def cmd_train_eval(config: ExperimentConfig, kind: str) -> None:
    p = _paths(config)
    gram_path = p["gram"](kind)
    cross_path = p["cross"](kind)
    for path in (gram_path, cross_path):
        if not path.exists():
            raise CliInputError(f"missing {path}; run kernel --kind {kind} first")
    split = _load_split_features(config)
    train, dev = split["train"], split["dev"]
    # resolved on the train features: the structure block uses the model's gamma
    spec = config.kernel_spec(kind).resolve(_stack(train))
    gram = svm.load_gram(gram_path)
    cross = np.loadtxt(cross_path, delimiter=",", ndmin=2)
    if gram.n != len(train) or cross.shape != (len(dev), len(train)):
        raise CliInputError("kernel files do not match the manifest split sizes")
    cross_meta = json.loads(cross_path.with_suffix(".json").read_text())
    _check_kernel_files(gram, cross_meta, spec, train, dev)

    y_train = _labels_to_pm1([label for _, label, _ in train])
    model = svm.train_svm(gram, y_train, C=config.svm_c,
                          feature_ref=str(p["features"]))
    svm.save_model(model, p["model"](kind))

    dev_scores = svm.decision_scores(model, cross)
    y_dev01 = np.array([1 if label == spoof.BONAFIDE else 0
                        for _, label, _ in dev])
    roc = metrics.roc_points(dev_scores, y_dev01)
    auroc_value = metrics.auroc(dev_scores, y_dev01)
    eer_value, eer_tau = metrics.eer(dev_scores, y_dev01)

    dev_feats = [fv for _, _, fv in dev]
    dev_gram = svm.build_gram(dev_feats, spec)
    structure = metrics.kernel_structure(
        dev_gram.values, [label for _, label, _ in dev],
        features=dev_feats, kernel=spec)
    report = {
        "kind": kind,
        "auroc": float(auroc_value),
        "eer": float(eer_value),
        "eer_threshold": float(eer_tau),
        "n_train": len(train),
        "n_dev": len(dev),
        "kernel": {
            "kind": kind,
            "depth": config.depth,
            "s3_axis": config.s3_axis,
            "gamma_policy": str(config.gamma),
            "gamma_resolved": spec.gamma if kind == "rbf" else None,
        },
        "svm": {
            "C": config.svm_c,
            "n_support": int(model.support_indices.size),
            "bias": float(model.bias),
            "kkt_gap": float(model.kkt_gap),
            "n_iter": int(model.n_iter),
            "converged": bool(model.converged),
        },
        "kernel_structure": structure.to_dict(),
        "config": config.to_dict(),
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
    synth = sub.add_parser("synth", help="build the spoofed dataset and manifest")
    synth.add_argument("--synthetic-audio", type=int, metavar="N",
                       help="generate N seeded synthetic bona fide files first")
    sub.add_parser("features", help="extract patch features for every utterance")
    kernel = sub.add_parser("kernel", help="compute train Gram and dev cross block")
    kernel.add_argument("--kind", choices=KINDS, required=True)
    train_eval = sub.add_parser("train-eval",
                                help="train the SVM and write the evaluation report")
    train_eval.add_argument("--kind", choices=KINDS, required=True)
    sub.add_parser("run-all", help="synth, features, then both kernels and reports")
    return parser


_OVERRIDE_KEYS = ("work_dir", "input_dir", "seed", "k", "patch_size", "depth",
                  "s3_axis", "snr_db", "tilt_low", "tilt_high",
                  "train_per_class", "dev_per_class", "svm_c", "gamma")


def _config_from_args(args) -> ExperimentConfig:
    overrides = {key: getattr(args, key) for key in _OVERRIDE_KEYS}
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
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _setup_logging(Path(config.work_dir))
    try:
        if args.command == "synth":
            cmd_synth(config, args.synthetic_audio)
        elif args.command == "features":
            cmd_features(config)
        elif args.command == "kernel":
            cmd_kernel(config, args.kind)
        elif args.command == "train-eval":
            cmd_train_eval(config, args.kind)
        elif args.command == "run-all":
            n = config.train_per_class + config.dev_per_class
            synthetic = None if config.input_dir else n
            cmd_synth(config, synthetic)
            cmd_features(config)
            for kind in KINDS:
                cmd_kernel(config, kind)
            for kind in KINDS:
                cmd_train_eval(config, kind)
        return 0
    except CliInputError as err:
        log.error("%s", err)
        return 2
    except (ValueError, OSError) as err:
        log.error("%s", err)
        return 2
    except Exception:  # noqa: BLE001 - last-resort diagnostics
        log.exception("internal error")
        return 1


if __name__ == "__main__":
    sys.exit(main())
