"""Benchmark of `qpatch run-all`, end to end and layer by layer.

Run from the root of a qpatch checkout (the program is imported from its
src/ directory):

    python3 perfbench/run.py --workload default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One invocation generates the workload's inputs from the seed, then runs
`qpatch run-all` as a subprocess, one process at a time (a closed loop with
one client), with QPATCH_THREADS unset. It repeats run-all until --seconds
have passed, at least once, and checks every run's outputs. With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 each
round runs run-all untraced and then under perfbench/tracing.py, and the
last line holds the per-layer metrics. `--workload all` runs every
workload untraced and prints each end-to-end metric with its unit.

Records with the environment, every sample and the spans are written under
.perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK_ROOT = Path(".perfbench_work")
SETUP_SAMPLES = 3
PROCESS_TIMEOUT_S = 150.0
THREAD_ENV = ("QPATCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "run_all_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "auroc_quantum": "ratio", "auroc_rbf": "ratio",
    "one_minus_eer_quantum": "ratio", "one_minus_eer_rbf": "ratio",
}
# spans reported once per kernel kind; the others are summed over kinds
PER_KIND_SPANS = ("cli.kernel", "cli.train_eval", "svm.build_gram",
                  "svm.cross_gram", "svm.train_svm", "metrics.kernel_structure",
                  "metrics.roc_auroc_eer")
TOTAL_SPANS = ("cli.synth", "cli.features", "spoof.generate_synthetic_corpus",
               "spoof.build_dataset", "dsp.load_wav", "dsp.logmel_spectrogram",
               "patches.extract_features", "patches.features_csv_io",
               "quantum.embed", "quantum.fidelity_kernel", "svm.gram_io",
               "metrics.write_report")
LAYERS = ("cli", "spoof", "dsp", "patches", "quantum", "svm", "metrics")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "thread_env": {name: os.environ.get(name) for name in THREAD_ENV}}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("QPATCH_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def timed(cmd: list[str], env: dict, log_path: Path | None = None):
    """Run cmd to its end; return (exit code, wall seconds, peak RSS in MB).

    The wall time runs from launch to exit. A process still running after
    PROCESS_TIMEOUT_S is killed and reaped, and reports exit code -9.
    """
    with open(log_path or os.devnull, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def code_fingerprint(src: Path) -> str:
    """Hash of the program and benchmark sources.

    Stored first-run hashes are kept per fingerprint, so an edit to either
    starts a fresh reference instead of reading as a reproducibility failure.
    """
    digest = hashlib.sha256()
    for root in (src / "qpatch", HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    """Runs and checks run-all for one (workload, seed)."""

    def __init__(self, workload: workloads.Workload, seed: int, src: Path):
        self.workload = workload
        self.seed = seed
        self.env = child_env(src)
        self.base = WORK_ROOT / f"{workload.name}-s{seed}"
        self.results = WORK_ROOT / "results"
        self.first_hashes = (WORK_ROOT / "hashes" / code_fingerprint(src)
                             / f"{workload.name}-s{seed}.json")
        train, dev = workload.per_class
        self.n_train, self.n_dev = 2 * train, 2 * dev
        self.attempts: list[dict] = []
        self.reports: dict = {}

    def prepare(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        self.results.mkdir(parents=True, exist_ok=True)
        self.config = workloads.prepare(self.workload, self.seed, self.base)

    def setup_samples(self) -> list[float]:
        cmd = [sys.executable, "-c", "import qpatch.cli"]
        return [timed(cmd, self.env)[1] for _ in range(SETUP_SAMPLES)]

    def run_all(self, spans_path: Path | None = None) -> dict:
        """One checked run-all; traced when spans_path is given."""
        work = self.base / "run"
        shutil.rmtree(work, ignore_errors=True)
        args = ["--config", str(self.config), "run-all"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "qpatch.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_path), "--", *args]
        code, wall, rss = timed(cmd, self.env, self.base / "run-all.log")
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            found, reports = checks.check_run(work, self.n_train, self.n_dev)
            problems += found
            if not found:
                problems += checks.compare_to_first(
                    self.first_hashes, checks.artifact_hashes(work))
                self.reports = self.reports or reports
        attempt = {"traced": spans_path is not None, "exit": code,
                   "wall_s": wall, "peak_rss_mb": rss, "problems": problems}
        if problems:
            print(f"perfbench: {self.workload.name} seed {self.seed}: run-all "
                  f"failed: {'; '.join(problems)}", file=sys.stderr)
        self.attempts.append(attempt)
        return attempt

    @property
    def failed(self) -> int:
        return sum(1 for a in self.attempts if a["problems"])

    def cleanup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = runner.setup_samples()
    start = time.perf_counter()
    while not runner.attempts or time.perf_counter() - start < seconds:
        runner.run_all()
    walls = [a["wall_s"] for a in runner.attempts]
    values = {
        "run_all_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(a["peak_rss_mb"] for a in runner.attempts),
    }
    for kind in checks.KINDS:
        report = runner.reports.get(kind, {"auroc": 0.0, "eer": 1.0})
        values[f"auroc_{kind}"] = report["auroc"]
        values[f"one_minus_eer_{kind}"] = 1.0 - report["eer"]
    samples = {"setup_s": setup, "run_all_s": walls}
    return ({name: {"value": values[name], "unit": unit}
             for name, unit in END_TO_END_UNITS.items()}, samples)


def layer_metrics(spans: list, untraced_s: float, traced_s: float,
                  setup_s: float) -> dict:
    """Per-layer values of one traced round, as {name: (value, unit)}."""
    summary = tracing.summarize(spans)
    inclusive, counts = summary["inclusive"], summary["counts"]

    def total(name, kind=None):
        return sum(t for (n, k), t in inclusive.items()
                   if n == name and kind in (None, k))

    out = {}
    for name in TOTAL_SPANS:
        out[f"{name}_s"] = (total(name), "s")
    for name in PER_KIND_SPANS:
        for kind in checks.KINDS:
            out[f"{name}_s.{kind}"] = (total(name, kind), "s")
    out["dsp.resampled_files"] = (counts.get("dsp.resample_to", 0), "count")
    for layer in LAYERS:
        out[f"self_s.{layer}"] = (summary["self"].get(layer, 0.0), "s")
    stage_sum = sum(total(name) for name in tracing.STAGES)
    out["trace.run_all_untraced_s"] = (untraced_s, "s")
    out["trace.run_all_traced_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.setup_s"] = (setup_s, "s")
    out["trace.stage_sum_s"] = (stage_sum, "s")
    out["trace.unaccounted_s"] = (untraced_s - setup_s - stage_sum, "s")
    out["trace.spans"] = (len(spans), "count")
    return out


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup_s = statistics.median(runner.setup_samples())
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        spans_path = runner.results / (
            f"{runner.workload.name}-s{runner.seed}-spans{len(rounds)}.json")
        untraced = runner.run_all()
        traced = runner.run_all(spans_path)
        if traced["exit"] == 0:
            spans = json.loads(spans_path.read_text())["spans"]
            rounds.append(layer_metrics(spans, untraced["wall_s"],
                                        traced["wall_s"], setup_s))
        else:
            rounds.append({})
        if untraced["problems"] or traced["problems"]:
            break
    complete = [r for r in rounds if r]
    values = {}
    if complete:
        # times are medians over rounds; counts repeat exactly, so take one
        for name, (value, unit) in complete[0].items():
            if unit == "s":
                value = statistics.median(r[name][0] for r in complete)
            values[name] = (value, unit)
    counts = workloads.computed_counts(runner.workload, runner.reports) \
        if runner.reports else {}
    for name, value in counts.items():
        unit = "ratio" if name.endswith("_ratio") else "count"
        values[name] = (value, unit)
    samples = {"rounds": [{k: v[0] for k, v in r.items()} for r in rounds],
               "computed": sorted(counts)}
    return ({name: {"value": value, "unit": unit}
             for name, (value, unit) in sorted(values.items())}, samples)


def run_one(name: str, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    workload = workloads.WORKLOADS[name]
    runner = Runner(workload, seed, src)
    runner.prepare()
    try:
        metrics, samples = (per_layer if trace else end_to_end)(runner, seconds)
    finally:
        runner.cleanup()
    result = {"correct": runner.failed == 0, "attempted": len(runner.attempts),
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "environment": environment(), "attempts": runner.attempts,
              "samples": samples, "result": result}
    out = runner.results / f"{name}-s{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def describe(name: str, result: dict) -> None:
    """Human-readable lines on stderr: every metric with its unit."""
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{name}: attempted {result['attempted']} run-all, failed "
          f"{result['failed']} (fail_ratio {fail_ratio:.3f})", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:>14.6g} {entry['unit']}",
              file=sys.stderr)


def check_checkout(src: Path) -> str | None:
    """Refuse to run without the program's sources in the current directory."""
    if not (src / "qpatch" / "cli.py").is_file():
        return f"no qpatch sources at {src}; run from the root of a qpatch checkout"
    cmd = [sys.executable, "-c", "import qpatch; print(qpatch.__file__)"]
    probe = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    if probe.returncode != 0:
        return f"cannot import qpatch from {src}:\n{probe.stderr}"
    if not Path(probe.stdout.strip()).resolve().is_relative_to(src):
        return f"qpatch imports from {probe.stdout.strip()}, not from {src}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    problem = check_checkout(src)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    print(f"perfbench: environment {json.dumps(environment())}", file=sys.stderr)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, bool(args.trace), src)
        describe(name, results[name])
    if args.workload == "all":
        for name, result in results.items():
            print(f"{name} fail_ratio {result['failed'] / result['attempted']:.6g} "
                  f"({result['failed']} of {result['attempted']} run-all)")
            for metric, entry in result["metrics"].items():
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
