"""Simulation kernel backends and the one runner of chunked Monte Carlo runs.

The hot per-slot loops exist twice: ``pure`` is plain Python over the
protocol operations and is always available; ``_fast`` is a Cython
extension that replays the identical arithmetic on the identical random
streams, so both backends produce the same integer tallies bit for bit.
The compiled backend is preferred when it imported successfully; set
ENTMAC_BACKEND=pure (or =compiled) to force one, or call use_backend().
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from ..rng import derive_seed
from . import pure

try:
    from . import _fast
except ImportError:
    _fast = None

#: slots per independently seeded chunk; fixed so results do not depend on
#: worker count
CHUNK_SLOTS = 1 << 16

_forced: str | None = None

_env = os.environ.get("ENTMAC_BACKEND", "").strip().lower()
if _env in ("pure", "compiled"):
    _forced = _env
    if _env == "compiled" and _fast is None:
        raise ImportError("ENTMAC_BACKEND=compiled but the compiled kernel is not built")
elif _env:
    raise ValueError(f"ENTMAC_BACKEND must be 'pure' or 'compiled', got {_env!r}")


def has_compiled() -> bool:
    return _fast is not None


def backend_name() -> str:
    """Name of the backend the dispatchers currently route to."""
    if _forced is not None:
        return _forced
    return "compiled" if _fast is not None else "pure"


def use_backend(name: str | None) -> None:
    """Force a backend ('pure' or 'compiled'); None restores auto-selection."""
    global _forced
    if name is None:
        _forced = None
        return
    if name not in ("pure", "compiled"):
        raise ValueError(f"backend must be 'pure' or 'compiled', got {name!r}")
    if name == "compiled" and _fast is None:
        raise RuntimeError("compiled kernel is not available")
    _forced = name


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
    an aloha tally and a hyperdense tally for the two canonical pair sources;
    superdense and custom pair sources always run pure.
    """
    if backend_name() != "compiled":
        return False
    if kernel == "hyperdense":
        return getattr(source, "kind", None) in ("qubit", "coin")
    return kernel == "aloha"


def map_chunks(kernel: str, fn, n_slots: int, rng, workers: int, source=None) -> list:
    """[fn(slot_count, seed) for each chunk of an n_slots run], in plan order.

    The chunk seeds derive from one draw off ``rng``. Only chunks that
    runs_compiled(kernel, source) sends to the compiled module get a thread
    pool: a pure kernel holds the GIL, so its threads would add switching
    and no speed.
    """
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
        return _fast.aloha_tally(m, p, n_slots, seed)
    return pure.aloha_tally(m, p, n_slots, seed)


def hyperdense_tally(n_slots: int, seed: int, source) -> tuple[int, int, int, int]:
    """(collision, idle, single_alice, single_bob) counts over one chunk.

    The compiled path only knows the two canonical pair sources; custom
    sources always run through the pure composition.
    """
    if runs_compiled("hyperdense", source):
        return _fast.hyperdense_tally(n_slots, seed, source.kind)
    return pure.hyperdense_tally(n_slots, seed, source)
