"""Classical slotted-Aloha reference: analytic throughput and a seeded
M-user slot simulator.

All M users share one transmit probability p (the cooperative setting). A
slot delivers its packet iff exactly one user transmitted, so the per-slot
success probability is q = p * (1 - p)^(M - 1), the total throughput is
M * q packets per slot, and the throughput-maximizing strategy is p = 1/M,
giving (1 - 1/M)^(M - 1), which falls to 1/e as M grows. With one-bit
slots, packets per slot and bits per slot coincide.
"""

from __future__ import annotations

import functools

from ._records import Program, checked_record, is_int, is_probability
from .rng import _TWO_NEG53, RandomSource, _float_threshold, _Uniforms
from .stats import RunStats


def _check_users(m) -> None:
    """Reject a user count that is not an int >= 1 (bools included)."""
    if not is_int(m, 1):
        raise ValueError(f"user count must be an integer >= 1, got {m!r}")


class AlohaParams(checked_record("AlohaParams", "m p")):
    """User count M and per-user, per-slot transmit probability p."""

    __slots__ = ()

    def __new__(cls, m: int, p: float):
        _check_users(m)
        if not is_probability(p):
            raise ValueError(f"transmit probability must be in [0, 1], got {p!r}")
        return super().__new__(cls, m, p)


class AlohaSlotResult(checked_record("AlohaSlotResult", "transmitters success")):
    """One slot: how many users transmitted and whether the slot succeeded."""

    __slots__ = ()

    def __new__(cls, transmitters: int, success: bool):
        if not is_int(transmitters, 0):
            raise ValueError(f"transmitter count must be an integer >= 0, got {transmitters!r}")
        if not isinstance(success, bool):
            raise ValueError(f"success must be a bool, got {success!r}")
        if success != (transmitters == 1):
            raise ValueError("success must hold exactly when one user transmitted")
        return super().__new__(cls, transmitters, success)


def success_probability(params: AlohaParams) -> float:
    """Per-user success probability q = p * (1 - p)^(M - 1)."""
    return params.p * (1.0 - params.p) ** (params.m - 1)


def total_throughput(params: AlohaParams) -> float:
    """Expected delivered packets per slot over all users: M * p * (1 - p)^(M - 1)."""
    return params.m * params.p * (1.0 - params.p) ** (params.m - 1)


def optimal_p(m: int) -> float:
    """Throughput-maximizing common transmit probability, 1/M."""
    _check_users(m)
    return 1.0 / m


def max_throughput(m: int) -> float:
    """Throughput at p = 1/M: (1 - 1/M)^(M - 1); equals 1 for a lone user."""
    _check_users(m)
    if m == 1:
        return 1.0
    return (1.0 - 1.0 / m) ** (m - 1)


def run_slot(params: AlohaParams, rng: RandomSource) -> AlohaSlotResult:
    """Simulate one slot: each user transmits independently with probability p."""
    transmitters = 0
    for _ in range(params.m):
        if rng.next_float() < params.p:
            transmitters += 1
    return _slot_result(transmitters)


def _slot_result(transmitters: int) -> AlohaSlotResult:
    """The result of a slot in which ``transmitters`` users transmitted."""
    return AlohaSlotResult(transmitters=transmitters, success=transmitters == 1)


def _transmit_threshold(p: float) -> int:
    """t = ``_float_threshold(p)``, proved on ``run_slot``: one transmits exactly when w >> 11 < t.

    next_float() is (w >> 11) * 2**-53, and a lone user's ``run_slot`` must
    transmit at u = (t - 1) * 2**-53 and stay silent at u = t * 2**-53, at
    each of the two that next_float can return, taking its one uniform.
    Raises RuntimeError otherwise. ``run_slot`` compares u with p, which is
    monotone in u, so the two ends decide every u.
    """
    t = _float_threshold(p)
    for u, transmitters in (((t - 1) * _TWO_NEG53, 1), (t * _TWO_NEG53, 0)):
        if 0.0 <= u < 1.0:
            rng = _Uniforms(u)
            slot = run_slot(AlohaParams(1, p), rng)
            if slot.transmitters != transmitters or rng:
                raise RuntimeError(f"a lone user at p = {p!r} had {slot.transmitters} "
                                   f"transmitter(s) at u = {u!r} and left {len(rng)} "
                                   f"uniform(s) where {transmitters} and none were due")
    return t


@functools.lru_cache(maxsize=64, typed=True)
def _program(m: int, p: float) -> Program:
    """The word program of one slot (see ``entmac._kernels.pure``), built once per (m, p).

    Each of the m users reads one word w, at offsets 0 .. m - 1 of a slot of
    m words, and transmits when w >> 11 is below ``_transmit_threshold(p)``,
    which is proved on ``run_slot``. Every weight is 1, so the index counts
    the silent users, and the table holds, for each count of silent users,
    the success of ``run_slot``'s result when the others transmit: counter 1
    of two.
    """
    table = (int(_slot_result(m - silent).success) for silent in range(m + 1))
    return Program((_transmit_threshold(p),) * m, (1,) * m, range(m), m, table, 2)


def simulate(params: AlohaParams, n_slots: int, rng: RandomSource, workers: int = 1) -> RunStats:
    """Seeded Monte Carlo estimate of the per-slot success indicator.

    The run is split into fixed-size chunks with seeds derived from one draw
    off ``rng``; per-chunk success counts are integers, so the result is
    identical for any worker count (and for either simulation backend).
    """
    from . import _kernels

    counts = _kernels.map_chunks(
        lambda count, seed: _kernels.aloha_tally(params.m, params.p, count, seed),
        n_slots, rng, workers,
    )
    return RunStats.from_two_valued(n_slots, sum(counts), lo=0.0, hi=1.0)
