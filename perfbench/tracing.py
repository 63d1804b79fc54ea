"""Spans around calls into qpatch's layers, recorded from outside the program.

Run as a script, this file is a traced stand-in for `python -m qpatch.cli`:

    python3 perfbench/tracing.py SPANS.json -- --config cfg.json run-all

It wraps the public functions of spoof, dsp, patches, quantum, svm, metrics
and the cli stages in their module namespaces, runs `qpatch.cli.main`, and
writes every span (name, kernel kind, parent, start, end) as JSON when the
pipeline ends. Nothing under src/ is edited; the wrappers only time calls.

Imported, it turns a span list into per-layer times: inclusive time per
span name (outermost calls only) and self time per layer, where a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Top-level pipeline stages; their inclusive times add up to run-all's
# in-process work.
STAGES = ("cli.synth", "cli.features", "cli.kernel", "cli.train_eval")


class Tracer:
    """In-memory span recorder. A span is [name, kind, parent, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, namespace, attr: str, name, kind=None) -> None:
        """Replace namespace.attr with a timed wrapper.

        `name` is a span name, or a callable of the call's arguments that
        returns one (None records no span). `kind` extracts the kernel kind
        from the arguments; otherwise the parent span's kind is inherited.
        """
        fn = getattr(namespace, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span_kind = kind(*args, **kwargs) if kind else (
                self.spans[parent][1] if parent >= 0 else None)
            span = [span_name, span_kind, parent, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()

        setattr(namespace, attr, traced)


class _Delegate:
    """Stands in for a module so one namespace's calls can be wrapped alone."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _arg(position: int, keyword: str):
    def pick(*args, **kwargs):
        return args[position] if len(args) > position else kwargs.get(keyword)
    return pick


def _spec_kind(position: int, keyword: str):
    def pick(*args, **kwargs):
        spec = _arg(position, keyword)(*args, **kwargs)
        return getattr(spec, "kind", None)
    return pick


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points where the pipeline looks them up."""
    from qpatch import cli, dsp, metrics, patches, spoof, svm

    tracer.wrap(cli, "cmd_synth", "cli.synth")
    tracer.wrap(cli, "cmd_features", "cli.features")
    tracer.wrap(cli, "cmd_kernel", "cli.kernel", kind=_arg(1, "kind"))
    tracer.wrap(cli, "cmd_train_eval", "cli.train_eval", kind=_arg(1, "kind"))

    tracer.wrap(spoof, "generate_synthetic_corpus", "spoof.generate_synthetic_corpus")
    tracer.wrap(spoof, "build_dataset", "spoof.build_dataset")

    def resampled(w, target_rate=dsp.TARGET_SAMPLE_RATE):
        # pass-through calls are not resampling work
        return None if w.sample_rate == target_rate else "dsp.resample_to"

    for namespace in (dsp, spoof):
        tracer.wrap(namespace, "load_wav", "dsp.load_wav")
        tracer.wrap(namespace, "resample_to", resampled)
    tracer.wrap(dsp, "logmel_spectrogram", "dsp.logmel_spectrogram")

    tracer.wrap(patches, "extract_features", "patches.extract_features")
    tracer.wrap(patches, "write_features_csv", "patches.features_csv_io")
    tracer.wrap(patches, "read_features_csv", "patches.features_csv_io")

    tracer.wrap(svm, "_embed_vector", "quantum.embed")
    tracer.wrap(metrics, "fidelity_kernel", "quantum.fidelity_kernel")

    tracer.wrap(svm, "build_gram", "svm.build_gram", kind=_spec_kind(1, "kernel"))
    tracer.wrap(svm, "cross_gram", "svm.cross_gram", kind=_spec_kind(2, "kernel"))
    tracer.wrap(svm, "train_svm", "svm.train_svm")
    tracer.wrap(svm, "save_gram", "svm.gram_io")
    tracer.wrap(svm, "load_gram", "svm.gram_io")
    # the cross block is saved and loaded by cli through numpy directly
    cli.np = _Delegate(cli.np)
    tracer.wrap(cli.np, "savetxt", "svm.gram_io")
    tracer.wrap(cli.np, "loadtxt", "svm.gram_io")

    tracer.wrap(metrics, "kernel_structure", "metrics.kernel_structure",
                kind=_spec_kind(3, "kernel"))
    for fn in ("roc_points", "auroc", "eer"):
        tracer.wrap(metrics, fn, "metrics.roc_auroc_eer")
    tracer.wrap(metrics, "write_report", "metrics.write_report")


def summarize(spans: list[list]) -> dict:
    """Per-layer times from a span list.

    Returns inclusive seconds per (name, kind) over outermost spans of that
    name, span counts per name, and self seconds per layer.
    """
    inclusive = defaultdict(float)
    counts = defaultdict(int)
    self_s = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, kind, parent, start, end) in enumerate(spans):
        duration = end - start
        self_s[name.split(".", 1)[0]] += duration - child_time[i]
        counts[name] += 1
        if parent < 0 or spans[parent][0] != name:
            inclusive[(name, kind)] += duration
    return {"inclusive": inclusive, "counts": counts, "self": self_s}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- QPATCH_ARGS...", file=sys.stderr)
        return 2
    out_path, qpatch_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from qpatch import cli
    code = cli.main(qpatch_args)
    with open(out_path, "w") as fh:
        json.dump({"fields": ["name", "kind", "parent", "start", "end"],
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
