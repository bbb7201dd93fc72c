"""Pure vs compiled kernels: bit-for-bit stream and tally parity.

The pure kernels are the reference semantics, so equality here pins the
compiled shortcuts to them exactly. When the package was installed without
its compiled kernel, the committed ``_fast.c`` is built into a temporary
directory with the C compiler; the module skips only when there is none.
"""

import importlib.util
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from entmac import _kernels, superdense
from entmac._kernels import pure
from entmac.aloha import AlohaParams, simulate as aloha_simulate
from entmac.hyperdense import CoinPairSource, QubitPairSource, simulate as hd_simulate
from entmac.rng import RandomSource

from _support import RecordingPool

FAST_C = Path(_kernels.__file__).with_name("_fast.c")


@pytest.fixture(scope="session")
def compiled_module(tmp_path_factory):
    """The compiled kernel: the installed one, else one built from _fast.c."""
    if _kernels._fast is not None:
        return _kernels._fast
    compiler = shutil.which("gcc") or shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if compiler is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler (gcc or cc) with the Python headers to build _fast.c")
    target = tmp_path_factory.mktemp("fast") / ("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    # the same floating-point flags as setup.py: no contraction into fused multiply-adds
    subprocess.run([compiler, "-O2", "-ffp-contract=off", "-shared", "-fPIC", f"-I{include}",
                    str(FAST_C), "-o", str(target)], check=True)
    spec = importlib.util.spec_from_file_location("entmac._kernels._fast", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def compiled(compiled_module, monkeypatch):
    """Route the dispatchers to the compiled kernel for the length of a test."""
    monkeypatch.setattr(_kernels, "_fast", compiled_module)
    return compiled_module


SEEDS = [0, 1, 42, 999, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_u64_stream_parity(compiled, seed):
    rng = RandomSource(seed)
    assert [rng.next_u64() for _ in range(2000)] == compiled.splitmix_stream(seed, 2000)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_stream_parity(compiled, seed):
    rng = RandomSource(seed)
    assert [rng.next_float() for _ in range(2000)] == compiled.float_stream(seed, 2000)


@pytest.mark.parametrize("seed", [7, 8, 9])
@pytest.mark.parametrize("m,p", [(1, 1.0), (2, 0.5), (3, 1 / 3), (5, 0.0), (4, 0.999)])
def test_aloha_tally_parity(compiled, seed, m, p):
    assert pure.aloha_tally(m, p, 30_000, seed) == compiled.aloha_tally(m, p, 30_000, seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 31337])
@pytest.mark.parametrize("source_cls,kind", [(QubitPairSource, "qubit"), (CoinPairSource, "coin")])
def test_hyperdense_tally_parity(compiled, seed, source_cls, kind):
    assert pure.hyperdense_tally(30_000, seed, source_cls()) == compiled.hyperdense_tally(
        30_000, seed, kind
    )


def test_golden_tallies(compiled):
    # frozen from the pure composition kernels, which test_golden.py pins
    assert compiled.aloha_tally(2, 0.5, 10_000, 12345) == 5009
    assert compiled.hyperdense_tally(10_000, 999, "qubit") == (2441, 2568, 2518, 2473)
    assert compiled.hyperdense_tally(10_000, 999, "coin") == (2356, 2521, 2562, 2561)


def test_simulate_results_identical_across_backends(monkeypatch, compiled):
    monkeypatch.setattr(_kernels, "_fast", None)
    pure_aloha = aloha_simulate(AlohaParams(2, 0.5), 100_000, RandomSource(5))
    pure_hd = hd_simulate(50_000, RandomSource(6), source=QubitPairSource())
    monkeypatch.setattr(_kernels, "_fast", compiled)
    fast_aloha = aloha_simulate(AlohaParams(2, 0.5), 100_000, RandomSource(5))
    fast_hd = hd_simulate(50_000, RandomSource(6), source=QubitPairSource())
    assert pure_aloha == fast_aloha
    assert pure_hd.total == fast_hd.total
    assert pure_hd.channel_counts == fast_hd.channel_counts


class StubSource:
    """A custom pair source: nothing but ``draw``."""

    def __init__(self):
        self.calls = 0

    def draw(self, rng):
        self.calls += 1
        return 0


class FlippedCoin(CoinPairSource):
    """A subclass of a built-in source whose ``draw`` differs from its parent's."""

    def __init__(self):
        self.calls = 0

    def draw(self, rng):
        self.calls += 1
        return 1 - super().draw(rng)


def test_custom_pair_source_falls_back_to_pure():
    for source_cls in (StubSource, FlippedCoin):
        source = source_cls()
        tally = _kernels.hyperdense_tally(500, 99, source)
        # the compiled path cannot drive a custom source, so it must have been
        # consulted 500 times through the pure composition
        assert source.calls == 500, source_cls
        assert tally == pure.hyperdense_tally(500, 99, source_cls()), source_cls


def test_compiled_rejects_unknown_source_kind(compiled):
    with pytest.raises(ValueError):
        compiled.hyperdense_tally(10, 1, "dice")


@pytest.fixture
def pools(monkeypatch):
    """Compiled backend, two CPUs, and the sizes of the pools map_chunks starts."""
    RecordingPool.sizes = []
    monkeypatch.setattr(_kernels, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return RecordingPool.sizes


def test_runs_compiled_routes_only_the_compiled_kernels():
    assert _kernels.backend_name() == "compiled"
    assert _kernels.runs_compiled("aloha")
    assert _kernels.runs_compiled("hyperdense", QubitPairSource())
    assert _kernels.runs_compiled("hyperdense", CoinPairSource())
    assert not _kernels.runs_compiled("hyperdense", StubSource())
    # a source is routed by its type, not by the kind it declares
    assert not _kernels.runs_compiled("hyperdense", type("Stub", (), {"kind": "coin"})())
    assert not _kernels.runs_compiled("hyperdense", FlippedCoin())
    assert not _kernels.runs_compiled("hyperdense", type("Qubits", (QubitPairSource,), {})())
    assert not _kernels.runs_compiled("superdense")


def test_compiled_hyperdense_runs_on_a_two_thread_pool(pools):
    n = 2 * _kernels.CHUNK_SLOTS
    two = hd_simulate(n, RandomSource(4), source=CoinPairSource(), workers=2)
    assert pools == [2]
    one = hd_simulate(n, RandomSource(4), source=CoinPairSource())
    assert pools == [2]
    assert two.channel_counts == one.channel_counts


def test_gil_bound_chunks_get_no_pool_on_the_compiled_backend(pools, monkeypatch):
    monkeypatch.setattr(_kernels, "CHUNK_SLOTS", 16)
    assert superdense.count_successes(100, RandomSource(3), workers=2) == 100
    hd_simulate(100, RandomSource(3), source=StubSource(), workers=2)
    hd_simulate(100, RandomSource(3), source=FlippedCoin(), workers=2)
    assert pools == []
