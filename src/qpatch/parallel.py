"""Independent per-item work fanned out over forked worker processes."""

from __future__ import annotations

import os


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], on one forked worker per usable CPU.

    Of n workers, worker w runs fn over items[w::n] and stops at its first
    exception; this process runs none of the items. fn and items reach the
    workers by fork, so they need not pickle. Each worker pickles what it
    got into its own pipe and leaves by os._exit, never returning into the
    caller's stack. The exception of the lowest failing item re-raises here,
    caused by a RuntimeError that carries the worker's traceback; a worker
    that dies or sends nothing raises RuntimeError. If anything raises
    here, KeyboardInterrupt included, the workers not yet reaped are killed
    and reaped: none outlives the call. With one usable CPU, one item, or
    no sched_getaffinity (off Linux), nothing is forked.

    No thread may be running at a fork: the CLI keeps BLAS on one thread
    (OpenBLAS also parks its threads across a fork), and the map starts none.
    """
    items = list(items)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n = min(usable, len(items))
    if n < 2:
        return [fn(item) for item in items]
    import pickle
    readers, pids = [], []  # worker w's read end and pid, None once reaped
    try:
        for w in range(n):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            with open(write_end, "wb") as writer:  # closes this process's copy
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[w::n], writer)
                pids.append(pid)
        results, failures = [None] * len(items), []
        for w, (reader, pid) in enumerate(zip(readers, pids)):
            with reader:
                sent = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids[w] = None
            if code or not sent:
                how = f"exited with code {code}" if code >= 0 else f"was killed by signal {-code}"
                raise RuntimeError(f"worker process {pid} {how} before sending its results")
            for j, blob in enumerate(pickle.loads(sent)):
                ok, results[w + j * n] = pickle.loads(blob)
                if not ok:
                    failures.append(w + j * n)
        if failures:
            err, trace = results[min(failures)]
            raise err from RuntimeError(f"in worker process:\n{trace}")
        return results
    finally:
        for reader in readers:
            reader.close()
        for pid in filter(None, pids):
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _serve(fn, share, writer) -> None:
    """In a forked worker: send share's results through writer, then exit."""
    import pickle
    code = 1
    try:
        sent = []  # each item's pickled (True, value), or (False, (error, traceback)) last
        for item in share:
            try:
                sent.append(pickle.dumps((True, fn(item))))
            except Exception as err:  # noqa: BLE001 - re-raised in the caller
                import traceback
                sent.append(pickle.dumps((False, (err, traceback.format_exc()))))
                break
        writer.write(pickle.dumps(sent))
        writer.flush()
        code = 0
    finally:
        os._exit(code)
