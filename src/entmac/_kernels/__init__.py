"""Simulation kernel backends and the one runner of chunked Monte Carlo runs.

Every tally kernel folds the index histogram of its protocol's word program
(``aloha._program``, ``hyperdense._program``, ``superdense._program``; see
``pure``) into a tally with ``pure._tally``. ``pure._histogram`` gives that
histogram in plain Python, always available. ``_fast.histogram``, one
GIL-free C loop built from ``_fast.c`` by ``python -m entmac._kernels.build``,
takes the same arguments and gives it bit for bit by drawing the same words
one at a time. Neither knows a protocol. The compiled backend runs exactly
when ``_fast`` imported.
"""

from __future__ import annotations

import os

from .. import aloha, hyperdense, superdense
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

    The chunk seeds derive from one draw off ``rng``. Chunks get a thread
    pool only on the compiled backend, whose loops release the GIL: a pure
    kernel holds it, so its threads would add switching and no speed. A pool
    gets no more threads than there are chunks or usable CPUs, and only
    starting one imports ``concurrent.futures``. ``n_slots`` and
    ``workers`` must each be an int >= 1 (not a bool) on either backend;
    both checks come before the draw.
    """
    for name, value in (("n_slots", n_slots), ("workers", workers)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    seeds, counts = zip(*chunk_plan(rng.next_u64(), n_slots))
    size = min(workers, len(counts), _usable_cpus()) if _fast is not None else 1
    if size > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=size) as pool:
            return list(pool.map(fn, counts, seeds))
    return list(map(fn, counts, seeds))


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
    return tuple(pure._tally(_fast.histogram, n_slots, seed, program, 4))


def superdense_tally(n_trials: int, seed: int) -> int:
    """Roundtrip successes over one chunk of superdense trials."""
    if _fast is None:
        return superdense.trial_successes(n_trials, seed)
    return pure._tally(_fast.histogram, n_trials, seed, superdense._program())[1]
