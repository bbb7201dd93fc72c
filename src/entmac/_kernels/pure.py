"""Pure-Python kernels: the reference the compiled backend must match.

The hyperdense loop runs every slot through the public ``run_slot`` with c
from the pair source (measure_qubit for qubit pairs), so it doubles as the
composition oracle in backend-parity tests. The Aloha loop replays
``aloha.run_slot``'s draws and decision inline, without building a result
object per slot; tests/test_aloha.py::test_run_slot_composition_matches_kernel
pins it to ``run_slot``.
"""

from __future__ import annotations

from ..hyperdense import ChannelState, Party, PartyBits, SharedOutcome, run_slot
from ..rng import RandomSource


def aloha_tally(m: int, p: float, n_slots: int, seed: int) -> int:
    """Successful-slot count for one contiguous chunk of an Aloha run."""
    rng = RandomSource(seed)
    next_float = rng.next_float
    successes = 0
    for _ in range(n_slots):
        transmitters = 0
        for _ in range(m):
            if next_float() < p:
                transmitters += 1
        if transmitters == 1:
            successes += 1
    return successes


def hyperdense_tally(n_slots: int, seed: int, source) -> tuple[int, int, int, int]:
    """(collision, idle, single_alice, single_bob) counts for one chunk.

    Per slot: A1, A2, B1, B2 from the chunk stream, then c from ``source``.
    """
    rng = RandomSource(seed)
    next_bit = rng.next_bit
    collision = idle = single_alice = single_bob = 0
    for _ in range(n_slots):
        a1 = next_bit()
        a2 = next_bit()
        b1 = next_bit()
        b2 = next_bit()
        c = source.draw(rng)
        channel = run_slot(PartyBits(a1, a2), PartyBits(b1, b2), SharedOutcome(c)).channel
        state = channel.state
        if state is ChannelState.COLLISION:
            collision += 1
        elif state is ChannelState.IDLE:
            idle += 1
        elif channel.sender is Party.ALICE:
            single_alice += 1
        else:
            single_bob += 1
    return collision, idle, single_alice, single_bob
