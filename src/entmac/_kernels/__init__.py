"""Simulation kernel backends and the one runner of chunked Monte Carlo runs.

The hot per-slot loops exist twice: ``pure`` (with
``superdense.trial_successes``) is plain Python and always available;
``_fast`` is a small hand-written C extension, built from ``_fast.c`` by
``python -m entmac._kernels.build``. It draws the identical words and
reads the same tables and thresholds, which the dispatchers below pass in,
so both backends produce the same integer tallies bit for bit. The
compiled backend runs exactly when ``_fast`` imported. Only the two
built-in pair sources have a compiled hyperdense loop: a custom or
subclassed source always runs the pure composition, which calls its
``draw``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .. import superdense
from ..hyperdense import CoinPairSource, QubitPairSource
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


def pool_size(workers: int, n_chunks: int) -> int:
    """Threads worth starting for n_chunks chunks: never more than the chunks or CPUs."""
    return min(workers, n_chunks, os.cpu_count() or 1)


def runs_compiled(kernel: str, source=None) -> bool:
    """True when chunks of ``kernel`` run on the compiled module.

    Its loops release the GIL; the pure ones hold it. The compiled module has
    an aloha tally, a superdense tally and a hyperdense tally for the two
    built-in pair sources, matched by exact type, so a subclass that
    overrides ``draw`` is honoured; every other pair source runs pure.
    """
    if _fast is None:
        return False
    if kernel == "hyperdense":
        return type(source) in (QubitPairSource, CoinPairSource)
    return kernel in ("aloha", "superdense")


def map_chunks(kernel: str, fn, n_slots: int, rng, workers: int, source=None) -> list:
    """[fn(slot_count, seed) for each chunk of an n_slots run], in plan order.

    The chunk seeds derive from one draw off ``rng``. Only chunks that
    runs_compiled(kernel, source) sends to the compiled module get a thread
    pool: a pure kernel holds the GIL, so its threads would add switching
    and no speed. ``workers`` must be an int >= 1 (not a bool) on either
    backend; both checks come before the draw.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    plan = chunk_plan(rng.next_u64(), n_slots)
    size = pool_size(workers, len(plan)) if runs_compiled(kernel, source) else 1
    if size > 1:
        with ThreadPoolExecutor(max_workers=size) as pool:
            return list(pool.map(lambda sc: fn(sc[1], sc[0]), plan))
    return [fn(count, seed) for seed, count in plan]


def aloha_tally(m: int, p: float, n_slots: int, seed: int) -> int:
    """Count of successful slots over one contiguous chunk."""
    if runs_compiled("aloha"):
        return _fast.aloha_tally(m, pure._transmit_threshold(p) >> 11, n_slots, seed)
    return pure.aloha_tally(m, p, n_slots, seed)


def hyperdense_tally(n_slots: int, seed: int, source) -> tuple[int, int, int, int]:
    """(collision, idle, single_alice, single_bob) counts over one chunk.

    The compiled path only knows the two built-in pair sources; any other
    source, subclasses included, runs through the pure composition.
    """
    if runs_compiled("hyperdense", source):
        c_t53 = pure._QUBIT_C_THRESHOLD >> 11 if type(source) is QubitPairSource else None
        return _fast.hyperdense_tally(n_slots, seed, pure._OUTCOME, c_t53)
    return pure.hyperdense_tally(n_slots, seed, source)


def superdense_tally(n_trials: int, seed: int) -> int:
    """Roundtrip successes over one chunk of superdense trials."""
    if runs_compiled("superdense"):
        return _fast.superdense_tally(n_trials, seed, superdense._SD_OK)
    return superdense.trial_successes(n_trials, seed)
