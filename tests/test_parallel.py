"""ordered_map: input order, exceptions, clean-up and the serial path."""

import os
import signal
import sys
import textwrap
import time

import pytest

from qpatch.parallel import ordered_map
from test_cli import run_fresh_python


FORKS = pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux")


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@FORKS
def test_two_workers_keep_input_order_and_fork(monkeypatch):
    usable_cpus(monkeypatch, 2)
    items = list(range(100))
    out = ordered_map(lambda i: (i * i, os.getpid()), items)
    assert [square for square, _ in out] == [i * i for i in items]
    assert os.getpid() not in {pid for _, pid in out}
    assert_no_child_left()


@FORKS
def test_three_workers_keep_input_order_over_uneven_items(monkeypatch):
    usable_cpus(monkeypatch, 3)

    def uneven(i):  # shares of 4, 3 and 3 items, of different sizes and times
        time.sleep(0.002 * (i % 4))
        return [i] * (1 + 50 * i), os.getpid()

    out = ordered_map(uneven, range(10))
    assert [value for value, _ in out] == [[i] * (1 + 50 * i) for i in range(10)]
    pids = [pid for _, pid in out]
    assert pids == [pids[i % 3] for i in range(10)]
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert_no_child_left()


@FORKS
def test_a_worker_exception_reraises_in_the_caller(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def fails_on_three(i):
        if i == 3:
            raise ValueError(f"bad item {i}")
        return i

    with pytest.raises(ValueError, match="bad item 3") as raised:
        ordered_map(fails_on_three, range(8))
    assert "in fails_on_three" in str(raised.value.__cause__)  # the worker's traceback
    assert_no_child_left()


@FORKS
def test_the_lowest_failing_index_wins_across_workers(monkeypatch):
    # worker 0 (even items) is read first and fails at 4; worker 1 fails at 3
    usable_cpus(monkeypatch, 2)

    def fails_on_three_and_four(i):
        if i in (3, 4):
            raise ValueError(f"bad item {i}")
        return i

    with pytest.raises(ValueError, match="bad item 3"):
        ordered_map(fails_on_three_and_four, range(8))
    assert_no_child_left()


@FORKS
@pytest.mark.parametrize("end, named", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
    (lambda: os._exit(3), "exited with code 3"),
    (lambda: os._exit(0), "exited with code 0"),  # leaves without sending anything
], ids=["sigkill", "exit-3", "exit-0"])
def test_a_worker_that_dies_raises_naming_how(monkeypatch, end, named):
    usable_cpus(monkeypatch, 2)

    def dies_on_five(i):
        if i == 5:
            end()
        return i

    with pytest.raises(RuntimeError, match=f"worker process [0-9]+ {named} before sending"):
        ordered_map(dies_on_five, range(8))
    assert_no_child_left()


@FORKS
def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)  # not inherited by a fork
        with pytest.raises(KeyboardInterrupt):
            ordered_map(lambda i: time.sleep(60), range(4))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert_no_child_left()


@FORKS
def test_results_larger_than_a_pipe_come_back_intact(tmp_path):
    # a fresh interpreter under a timeout: a map that deadlocked would fail here
    code = textwrap.dedent("""
        import os
        import numpy as np
        from qpatch.parallel import ordered_map
        os.sched_getaffinity = lambda pid: {0, 1}
        out = ordered_map(lambda i: np.full(32768, float(i)), range(8))  # 256 KB each
        assert [a.tolist() for a in out] == [[float(i)] * 32768 for i in range(8)]
        print("ok")
    """)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]


@FORKS
def test_an_unpicklable_result_raises_in_the_caller(tmp_path):
    code = textwrap.dedent("""
        import os
        from qpatch.parallel import ordered_map
        os.sched_getaffinity = lambda pid: {0, 1}
        try:
            ordered_map(lambda i: (x for x in range(i)), range(4))  # a generator
        except TypeError as err:
            print(type(err).__name__)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("reaped")
    """)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["TypeError", "reaped"]


@FORKS
def test_the_map_loads_no_multiprocessing(tmp_path):
    code = textwrap.dedent("""
        import os, sys
        import qpatch.cli
        from qpatch.parallel import ordered_map
        os.sched_getaffinity = lambda pid: {0, 1}
        assert os.getpid() not in ordered_map(lambda i: os.getpid(), range(2))
        print(*sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
    """)
    done = run_fresh_python(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_one_usable_cpu_forks_nothing(monkeypatch):
    usable_cpus(monkeypatch, 1)
    assert ordered_map(lambda i: os.getpid(), range(4)) == [os.getpid()] * 4
