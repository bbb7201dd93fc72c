"""Fixtures shared by the test modules."""

import os

import pytest

from entmac import _kernels


@pytest.fixture
def forks(monkeypatch):
    """Children forked by each map_chunks call, one count per call, on two CPUs.

    Tests that need more CPUs patch ``_usable_cpus`` again, to at most four,
    so that no call forks more than three children.
    """
    calls = []
    fork, map_chunks = os.fork, _kernels.map_chunks

    def counting_fork():
        pid = fork()
        if pid:
            calls[-1] += 1
        return pid

    def counting_map_chunks(*args):
        calls.append(0)
        return map_chunks(*args)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(_kernels, "map_chunks", counting_map_chunks)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    return calls
