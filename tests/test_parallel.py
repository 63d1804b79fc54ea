"""ordered_map: input order, exceptions and the serial path."""

import os
import sys

import pytest

from qpatch.parallel import ordered_map


FORKS = pytest.mark.skipif(sys.platform != "linux" or sys.version_info < (3, 11),
                           reason="workers are forked on Linux from Python 3.11")


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@FORKS
def test_two_workers_keep_input_order_and_fork(monkeypatch):
    usable_cpus(monkeypatch, 2)
    items = list(range(100))
    out = ordered_map(lambda i: (i * i, os.getpid()), items)
    assert [square for square, _ in out] == [i * i for i in items]
    assert os.getpid() not in {pid for _, pid in out}


@FORKS
def test_a_worker_exception_reraises_in_the_caller(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def fails_on_three(i):
        if i == 3:
            raise ValueError(f"bad item {i}")
        return i

    with pytest.raises(ValueError, match="bad item 3"):
        ordered_map(fails_on_three, range(8))


def test_one_usable_cpu_forks_nothing(monkeypatch):
    usable_cpus(monkeypatch, 1)
    assert ordered_map(lambda i: os.getpid(), range(4)) == [os.getpid()] * 4
