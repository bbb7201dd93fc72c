"""Fixtures shared by the test modules."""

import pytest

from entmac import _kernels

from _support import RecordingPool


@pytest.fixture
def pools(monkeypatch):
    """Sizes of the thread pools map_chunks starts on the compiled backend, on two CPUs.

    A test routed to a compiled module keeps it; otherwise a stand-in marks
    the backend compiled, which suffices for chunks that never call it.
    """
    RecordingPool.sizes = []
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(_kernels, "_usable_cpus", lambda: 2)
    if _kernels._fast is None:
        monkeypatch.setattr(_kernels, "_fast", object())
    return RecordingPool.sizes
