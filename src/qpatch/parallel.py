"""Independent per-item work fanned out over forked worker processes."""

from __future__ import annotations

import os
import sys

_job = None  # a worker's (fn, items), set by _start in each forked worker


def _start(fn, items) -> None:
    global _job
    _job = fn, items


def _run(index: int):
    fn, items = _job
    return fn(items[index])


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], on one forked worker per usable CPU.

    Results come back in input order. fn and items reach the workers by
    fork, so they need not pickle, and no worker imports numpy again;
    results and exceptions come back pickled, and an exception re-raises
    here. A worker that dies raises BrokenProcessPool rather than hanging.
    With one usable CPU or one item nothing is forked.

    No thread may be running when a worker is forked: the CLI keeps BLAS on
    one thread (OpenBLAS also parks its threads across a fork), and from
    Python 3.11 the pool forks every worker before it starts its own thread. Older interpreters fork on demand while that
    thread runs, so there, and where the usable CPUs cannot be read, the
    map runs in this process.
    """
    items = list(items)
    forks = hasattr(os, "sched_getaffinity") and sys.version_info >= (3, 11)
    workers = min(len(os.sched_getaffinity(0)), len(items)) if forks else 1
    if workers < 2:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start, initargs=(fn, items))
    try:
        return list(pool.map(_run, range(len(items)),
                             chunksize=max(1, len(items) // (8 * workers))))
    finally:
        pool.shutdown(cancel_futures=True)
