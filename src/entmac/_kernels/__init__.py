"""Simulation kernel backends and the one runner of chunked Monte Carlo runs.

Each tally kernel exists twice. ``pure`` (with
``superdense.trial_successes``) is plain Python and always available: it
runs each protocol as one word program (thresholds, weights, skip, then a
table) over blocks of about 512 SplitMix64 words at once, one word per
128-bit lane of a Python int, with no per-slot loop. ``_fast`` is a small
hand-written C extension, built from ``_fast.c`` by ``python -m
entmac._kernels.build``, whose per-slot loops draw the identical words one
at a time and read the same tables and thresholds, which the dispatchers
below pass in. So both backends produce the same integer tallies bit for
bit, by two independent implementations. One fact routes every kernel: the
compiled backend runs exactly when ``_fast`` imported. Hyperdense accepts
only the two built-in pair sources, a ``QubitPairSource`` or a
``CoinPairSource`` matched by exact type, on either backend.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .. import superdense
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
    plan = []
    offset = 0
    index = 0
    while offset < n_slots:
        count = min(CHUNK_SLOTS, n_slots - offset)
        plan.append((derive_seed(base_seed, f"chunk:{index}"), count))
        offset += count
        index += 1
    return plan


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, n_chunks: int) -> int:
    """Threads worth starting for n_chunks chunks: never more than the chunks or usable CPUs."""
    return min(workers, n_chunks, _usable_cpus())


def map_chunks(fn, n_slots: int, rng, workers: int) -> list:
    """[fn(slot_count, seed) for each chunk of an n_slots run], in plan order.

    The chunk seeds derive from one draw off ``rng``. Chunks get a thread
    pool only on the compiled backend, whose loops release the GIL: a pure
    kernel holds it, so its threads would add switching and no speed.
    ``n_slots`` and ``workers`` must each be an int >= 1 (not a bool) on
    either backend; both checks come before the draw.
    """
    for name, value in (("n_slots", n_slots), ("workers", workers)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    plan = chunk_plan(rng.next_u64(), n_slots)
    size = pool_size(workers, len(plan)) if _fast is not None else 1
    if size > 1:
        with ThreadPoolExecutor(max_workers=size) as pool:
            return list(pool.map(lambda sc: fn(sc[1], sc[0]), plan))
    return [fn(count, seed) for seed, count in plan]


def aloha_tally(m: int, p: float, n_slots: int, seed: int) -> int:
    """Count of successful slots over one contiguous chunk."""
    if _fast is None:
        return pure.aloha_tally(m, p, n_slots, seed)
    return _fast.aloha_tally(m, pure._transmit_threshold(p) >> 11, n_slots, seed)


def hyperdense_tally(n_slots: int, seed: int, source) -> tuple[int, int, int, int]:
    """(collision, idle, single_alice, single_bob) counts over one chunk.

    ``source`` is a ``QubitPairSource`` or a ``CoinPairSource``; any other,
    subclasses included, raises TypeError on either backend.
    """
    if _fast is None:
        return pure.hyperdense_tally(n_slots, seed, source)
    c_t53 = pure._QUBIT_C_THRESHOLD >> 11 if pure._is_qubit(source) else None
    return _fast.hyperdense_tally(n_slots, seed, pure._OUTCOME, c_t53)


def superdense_tally(n_trials: int, seed: int) -> int:
    """Roundtrip successes over one chunk of superdense trials."""
    if _fast is None:
        return superdense.trial_successes(n_trials, seed)
    return _fast.superdense_tally(n_trials, seed, superdense._SD_OK)
