"""Simulation kernel backends and the one runner of chunked Monte Carlo runs.

Every tally kernel folds the index histogram of its protocol's word program,
a ``_records.Program`` checked where it is built (``aloha._program``,
``hyperdense._program``, ``superdense._program``; see ``pure``), into a
tally with ``pure._tally``. ``pure._histogram`` gives that histogram in
plain Python, always available. ``_fast.histogram``, one
GIL-free C loop built from ``_fast.c`` by ``python -m entmac._kernels.build``,
takes the same arguments and gives it bit for bit by drawing the same words
one at a time. Neither knows a protocol. The compiled backend runs exactly
when ``_fast`` imported. ``map_chunks`` runs a run's chunks, on either
backend, in this process and in up to ``workers - 1`` children it forks.
"""

from __future__ import annotations

import marshal
import os
import sys

from .. import aloha, hyperdense, superdense
from .._records import is_int
from ..rng import derive_seed
from . import pure

try:
    from . import _fast
except ImportError:
    _fast = None

#: slots per independently seeded chunk; fixed so results do not depend on
#: worker count
CHUNK_SLOTS = 1 << 16


def backend_name() -> str:
    """Name of the backend the dispatchers route to."""
    return "compiled" if _fast is not None else "pure"


def chunk_plan(base_seed: int, n_slots: int) -> list[tuple[int, int]]:
    """(seed, slot_count) pairs covering n_slots in CHUNK_SLOTS pieces."""
    return [(derive_seed(base_seed, f"chunk:{index}"), min(CHUNK_SLOTS, n_slots - offset))
            for index, offset in enumerate(range(0, n_slots, CHUNK_SLOTS))]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(fn, n_slots: int, rng, workers: int) -> list:
    """[fn(slot_count, seed) for each chunk of an n_slots run], in plan order.

    The chunk seeds derive from one draw off ``rng``. Up to ``workers``
    processes run the chunks, on either backend: this one and children it
    forks, no more than there are chunks or usable CPUs. Each result must
    be a value ``marshal`` writes (ints and tuples of ints are), and an
    exception ``fn`` raises in a child's share is raised here as ``fn``
    raises it. The chunks run in this process alone where ``os.fork`` is
    missing or another thread is running, since forking a process with
    threads is unsafe. ``n_slots`` and ``workers`` must each be an int >= 1
    (not a bool); both checks come before the draw.
    """
    for name, value in (("n_slots", n_slots), ("workers", workers)):
        if not is_int(value, 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    seeds, counts = zip(*chunk_plan(rng.next_u64(), n_slots))
    size = min(workers, len(counts), _usable_cpus())
    threading = sys.modules.get("threading")
    if size > 1 and hasattr(os, "fork") and (threading is None or threading.active_count() == 1):
        return _run_forked(fn, counts, seeds, size)
    return list(map(fn, counts, seeds))


def _run_forked(fn, counts, seeds, size: int) -> list:
    """Chunks k, k + size, .. in forked child k for 0 < k < size, and share 0 here.

    A child that fails has its share re-run here, so its exception reaches
    the caller as ``fn`` raises it. No child outlives this call: any still
    running when this process's own share or a later ``os.fork`` raises is
    killed and reaped. No pipe end outlives it either.
    """
    children = []  # [pid, read end of its pipe] per child; pid is None unforked or reaped
    try:
        for k in range(1, size):
            read_end, write_end = os.pipe()
            children.append([None, read_end])
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(fn, counts[k::size], seeds[k::size], write_end)
            finally:
                os.close(write_end)  # in this process only: a child leaves by os._exit
            children[-1][0] = pid
        results = [None] * len(counts)
        results[::size] = map(fn, counts[::size], seeds[::size])
        for k, child in enumerate(children, 1):
            with open(child[1], "rb", closefd=False) as pipe:  # read until the child closes it
                data = pipe.read()
            status = os.waitpid(child[0], 0)[1]
            child[0] = None
            results[k::size] = (marshal.loads(data) if status == 0
                                else map(fn, counts[k::size], seeds[k::size]))
        return results
    finally:
        for pid, read_end in children:
            if pid is not None:
                from signal import SIGKILL  # only a run that failed here loads signal

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            os.close(read_end)


def _run_child(fn, counts, seeds, write_end: int) -> None:
    """Write the marshalled results of one share to ``write_end``; never returns.

    The child leaves by ``os._exit``, so it runs none of the parent's exit
    handlers and flushes none of its buffers: status 0 once every result is
    written, 1 on any exception.
    """
    status = 1
    try:
        data = marshal.dumps(list(map(fn, counts, seeds)))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def aloha_tally(m: int, p: float, n_slots: int, seed: int) -> int:
    """Count of successful slots over one contiguous chunk."""
    if _fast is None:
        return pure.aloha_tally(m, p, n_slots, seed)
    return pure._tally(_fast.histogram, n_slots, seed, aloha._program(m, p))[1]


def hyperdense_tally(n_slots: int, seed: int, source) -> tuple[int, int, int, int]:
    """(collision, idle, single_alice, single_bob) counts over one chunk.

    ``source`` is a ``QubitPairSource`` or a ``CoinPairSource``; any other,
    subclasses included, raises TypeError on either backend.
    """
    if _fast is None:
        return pure.hyperdense_tally(n_slots, seed, source)
    program = hyperdense._program(source)  # raises for any other source, before the kernel runs
    return tuple(pure._tally(_fast.histogram, n_slots, seed, program))


def superdense_tally(n_trials: int, seed: int) -> int:
    """Roundtrip successes over one chunk of superdense trials."""
    if _fast is None:
        return superdense.trial_successes(n_trials, seed)
    return pure._tally(_fast.histogram, n_trials, seed, superdense._program())[1]
