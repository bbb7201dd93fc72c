"""Two-party hyperdense coding: measurement-conditioned access to one shared
classical slot.

Alice holds bits (A1, A2), Bob holds (B1, B2), and they share a |beta_00>
pair consumed in this slot. Each party measures its half in the
computational basis; entanglement guarantees both see the same bit c. A
party transmits its second bit iff its first bit equals c, so the slot-end
channel state (idle, a single transmission, or a collision) tells each
party whether the peer's first bit matched c:

  * collision  -> peer sent, so peer_first = c; both payloads are lost
  * idle       -> peer stayed silent, so peer_first = NOT c
  * single, from peer -> peer_first = c and the payload is peer_second
  * single, from self -> peer stayed silent, so peer_first = NOT c

Both first bits therefore always arrive (carried by the presence pattern),
and one second bit arrives whenever exactly one party transmits. Over the
eight equally likely (A1, B1, c) scenarios the slot delivers
(2+2+3+3+3+3+2+2)/8 = 2.5 bits on average, 1.25 per direction.

Both parties are assumed to observe the three-way slot outcome, including a
transmitter detecting that its own transmission collided.
"""

from __future__ import annotations

from enum import Enum

from ._records import Program, checked_record, is_int
from .rng import _BIT_THRESHOLD, _TWO_NEG53, _U_ENDS, RandomSource, _float_threshold, _Uniforms
from .stats import RunStats


class Party(Enum):
    ALICE = "alice"
    BOB = "bob"


class ChannelState(Enum):
    """Three-way slot outcome visible to both parties."""

    IDLE = "idle"
    SINGLE = "single"
    COLLISION = "collision"

    @property
    def table_label(self) -> str:
        """Label used in the scenario table output."""
        return {"idle": "Unused", "single": "Transm.", "collision": "Collision"}[self.value]


class ProtocolViolationError(RuntimeError):
    """A party's own actions contradict the observed channel state."""


class PairCorrelationError(RuntimeError):
    """The two halves of a shared pair measured to different bits."""


class PartyBits(checked_record("PartyBits", "first second")):
    """The two classical bits one party wants to deliver this slot."""

    __slots__ = ()

    def __new__(cls, first: int, second: int):
        if not (is_int(first, 0, 1) and is_int(second, 0, 1)):
            raise ValueError(f"party bits must be 0 or 1, got ({first}, {second})")
        return super().__new__(cls, first, second)


class SharedOutcome(checked_record("SharedOutcome", "c")):
    """The common measurement result c (identical at both parties)."""

    __slots__ = ()

    def __new__(cls, c: int):
        if not is_int(c, 0, 1):
            raise ValueError(f"shared outcome must be 0 or 1, got {c}")
        return super().__new__(cls, c)


class ChannelObservation(checked_record("ChannelObservation", "state payload sender")):
    """Slot-end channel state; Single carries the payload bit and its sender."""

    __slots__ = ()

    def __new__(cls, state: ChannelState, payload: int | None = None,
                sender: Party | None = None):
        if not isinstance(state, ChannelState):
            raise ValueError(f"a channel state must be a ChannelState, got {state!r}")
        if state is ChannelState.SINGLE:
            if payload is None or sender is None:
                raise ValueError("a single transmission needs a payload and a sender")
            if not is_int(payload, 0, 1):
                raise ValueError(f"a single transmission's payload must be 0 or 1, "
                                 f"got {payload!r}")
            if not isinstance(sender, Party):
                raise ValueError(f"a single transmission's sender must be a Party, got {sender!r}")
        elif payload is not None or sender is not None:
            raise ValueError(f"{state.value} channel cannot carry a payload")
        return super().__new__(cls, state, payload, sender)

    @classmethod
    def idle(cls) -> "ChannelObservation":
        return cls(ChannelState.IDLE)

    @classmethod
    def collision(cls) -> "ChannelObservation":
        return cls(ChannelState.COLLISION)

    @classmethod
    def single(cls, payload: int, sender: Party) -> "ChannelObservation":
        return cls(ChannelState.SINGLE, payload=payload, sender=sender)


class DecodedView(checked_record("DecodedView", "peer_first peer_second", defaults=(None,))):
    """What one party learns about the peer's bits at slot end.

    ``peer_second`` is None unless the peer's second bit arrived.
    """

    __slots__ = ()


class SlotOutcome(checked_record("SlotOutcome", "scenario_index alice bob c a_sent b_sent channel "
                                                "delivered_to_alice delivered_to_bob k")):
    """Full record of one protocol slot.

    ``scenario_index`` is 1..8, the slot's position in the canonical
    (A1, B1, c) order; ``a_sent`` and ``b_sent`` are None for a silent party.
    """

    __slots__ = ()


def decide_send(own: PartyBits, c: SharedOutcome) -> int | None:
    """Transmit the second bit iff the first bit equals the measured c."""
    return own.second if own.first == c.c else None


def resolve_channel(a_tx: int | None, b_tx: int | None) -> ChannelObservation:
    """Slot-end channel state from the two (optional) transmissions."""
    if a_tx is not None and b_tx is not None:
        return ChannelObservation.collision()
    if a_tx is None and b_tx is None:
        return ChannelObservation.idle()
    if a_tx is not None:
        return ChannelObservation.single(a_tx, Party.ALICE)
    return ChannelObservation.single(b_tx, Party.BOB)


def decode(
    own_sent: int | None, c: SharedOutcome, obs: ChannelObservation, self_id: Party
) -> DecodedView:
    """Recover the peer's first bit (always) and second bit (when it arrived).

    Raises ProtocolViolationError when the observation is impossible given
    this party's own action, and TypeError for a ``self_id`` that is not a Party.
    """
    if not isinstance(self_id, Party):
        raise TypeError(f"self_id must be a Party, got {self_id!r}")
    i_sent = own_sent is not None
    if obs.state is ChannelState.IDLE and i_sent:
        raise ProtocolViolationError("I transmitted but the channel reads idle")
    if obs.state is ChannelState.COLLISION and not i_sent:
        raise ProtocolViolationError("collision observed although I stayed silent")
    if obs.state is ChannelState.SINGLE:
        if i_sent and obs.sender is not self_id:
            raise ProtocolViolationError("I transmitted but the channel credits the peer alone")
        if not i_sent and obs.sender is self_id:
            raise ProtocolViolationError("channel credits me although I stayed silent")

    if obs.state is ChannelState.COLLISION:
        # peer transmitted, so peer_first matched c; its payload was lost
        return DecodedView(peer_first=c.c)
    if obs.state is ChannelState.IDLE:
        # peer stayed silent, so peer_first differs from c
        return DecodedView(peer_first=1 - c.c)
    if obs.sender is self_id:
        return DecodedView(peer_first=1 - c.c)
    return DecodedView(peer_first=c.c, peer_second=obs.payload)


def run_slot(alice: PartyBits, bob: PartyBits, c: SharedOutcome) -> SlotOutcome:
    """One full slot: both send decisions, channel resolution, both decodes."""
    a_tx = decide_send(alice, c)
    b_tx = decide_send(bob, c)
    obs = resolve_channel(a_tx, b_tx)
    alice_view = decode(a_tx, c, obs, Party.ALICE)
    bob_view = decode(b_tx, c, obs, Party.BOB)

    delivered_to_bob = {"A1": bob_view.peer_first}
    if bob_view.peer_second is not None:
        delivered_to_bob["A2"] = bob_view.peer_second
    delivered_to_alice = {"B1": alice_view.peer_first}
    if alice_view.peer_second is not None:
        delivered_to_alice["B2"] = alice_view.peer_second

    return SlotOutcome(
        scenario_index=1 + 4 * alice.first + 2 * bob.first + c.c,
        alice=alice,
        bob=bob,
        c=c.c,
        a_sent=a_tx,
        b_sent=b_tx,
        channel=obs,
        delivered_to_alice=delivered_to_alice,
        delivered_to_bob=delivered_to_bob,
        k=len(delivered_to_alice) + len(delivered_to_bob),
    )


def enumerate_scenarios() -> list[SlotOutcome]:
    """The eight equally likely scenarios, ordered by (A1, B1, c).

    Payload bits do not affect the channel state, the delivered-bit labels
    or K, so they are fixed to 0 here.
    """
    return [
        run_slot(PartyBits(a1, 0), PartyBits(b1, 0), SharedOutcome(c))
        for a1 in (0, 1)
        for b1 in (0, 1)
        for c in (0, 1)
    ]


def expected_bits_analytic() -> float:
    """Expected delivered bits per slot: mean of K over the eight scenarios."""
    scenarios = enumerate_scenarios()
    return sum(s.k for s in scenarios) / len(scenarios)


def expected_bits_per_direction() -> dict[str, float]:
    """Expected delivered bits per slot, split by direction."""
    scenarios = enumerate_scenarios()
    n = len(scenarios)
    return {
        "alice_to_bob": sum(len(s.delivered_to_bob) for s in scenarios) / n,
        "bob_to_alice": sum(len(s.delivered_to_alice) for s in scenarios) / n,
    }


class QubitPairSource:
    """Draw c by preparing |beta_00> and measuring the two halves.

    The halves are measured by two separate single-qubit measurements, in
    keeping with the protocol's distributed operation; their agreement is
    checked every draw. The qubit engine is imported by the first draw, so a
    coin run never loads it.
    """

    def draw(self, rng: RandomSource) -> int:
        from . import qubit

        c_a, collapsed = qubit.measure_qubit(qubit.BETA_00, qubit.QubitId.A, rng)
        c_b, _ = qubit.measure_qubit(collapsed, qubit.QubitId.B, rng)
        if c_a != c_b:
            raise PairCorrelationError(f"half-pair measurements disagree: {c_a} vs {c_b}")
        return c_a


class CoinPairSource:
    """Draw c from a fair coin, bypassing the statevector engine.

    Statistically indistinguishable from the qubit path; useful to separate
    protocol-logic faults from quantum-engine faults.
    """

    def draw(self, rng: RandomSource) -> int:
        return rng.next_bit()


def _tally_index(a1: int, a2: int, b1: int, b2: int, c: int) -> int:
    """Position in (collision, idle, single_alice, single_bob) of one slot's outcome."""
    channel = run_slot(PartyBits(a1, a2), PartyBits(b1, b2), SharedOutcome(c)).channel
    if channel.state is ChannelState.COLLISION:
        return 0
    if channel.state is ChannelState.IDLE:
        return 1
    return 2 if channel.sender is Party.ALICE else 3


def _outcome_table() -> tuple[int, ...]:
    """Tally index of the slot with inputs (A1, B1, c), read as the three-bit number A1 B1 c.

    Runs ``run_slot`` on all 32 inputs (A1, A2, B1, B2, c), then raises
    RuntimeError unless the payload bits A2 and B2 never change the index
    of a slot: only then can a program leave their words unread.
    """
    table = []
    for a1 in (0, 1):
        for b1 in (0, 1):
            for c in (0, 1):
                indices = {_tally_index(a1, a2, b1, b2, c) for a2 in (0, 1) for b2 in (0, 1)}
                if len(indices) != 1:
                    raise RuntimeError(f"the payload bits change the outcome of the slot "
                                       f"(A1, B1, c) = ({a1}, {b1}, {c}): {sorted(indices)}")
                table.append(indices.pop())
    return tuple(table)


_OUTCOME = _outcome_table()


def _qubit_c_threshold() -> int:
    """t such that QubitPairSource().draw(rng) is 0 exactly when its first word w has w >> 11 < t.

    draw's first uniform u measures A of |beta_00>, giving 0 exactly when
    u < P(0), which is monotone in u, so t = ``_float_threshold(P(0))``.
    Raises RuntimeError unless draw takes two uniforms and gives 0 at
    u = (t - 1) * 2**-53 and 1 at u = t * 2**-53, the two values of
    next_float either side of t, at both ends of the second; then it never
    raises and leaves its second word unread, for every uniform.
    """
    from .qubit import BETA_00, QubitId, measure_probabilities

    t = _float_threshold(measure_probabilities(BETA_00, QubitId.A)[0])
    for c, u in enumerate(((t - 1) * _TWO_NEG53, t * _TWO_NEG53)):
        for v in _U_ENDS:
            rng = _Uniforms(u, v)
            drawn = QubitPairSource().draw(rng)  # PairCorrelationError is a RuntimeError
            if drawn != c or rng:
                raise RuntimeError(f"qubit pair drew {drawn} from ({u}, {v}) and left "
                                   f"{len(rng)} uniform(s) where {c} and none were due")
    return t


def _slot_program(c_threshold: int, period: int) -> Program:
    """The program of a slot of ``period`` words whose c passes at ``c_threshold``."""
    return Program((_BIT_THRESHOLD, _BIT_THRESHOLD, c_threshold), (4, 2, 1), (0, 2, 4), period,
                   _OUTCOME, 4)


#: the word program of one slot, by exact pair-source type: a coin's c is its word's top bit,
#: and a qubit pair's B measurement draws one more word, which gives c again. ``_program``
#: adds the qubit program on first use, once ``_qubit_c_threshold`` has proved its threshold
_PROGRAMS = {CoinPairSource: _slot_program(_BIT_THRESHOLD, 5)}


def _program(source) -> Program:
    """The word program of one slot with c from ``source`` (see ``entmac._kernels.pure``).

    A slot draws A1, A2, B1, B2 as the top bits of words 0 to 3, and c is 1
    exactly when word 4 reaches the source's threshold; a qubit pair's B
    measurement draws word 5, which gives c again, so its slot is 6 words
    and a coin's 5. The program reads A1, B1 and c at offsets (0, 2, 4):
    ``_outcome_table`` proved that A2 and B2 never change a slot's outcome,
    so their words are never read. The index is the three-bit number A1 B1 c
    and the table is ``_OUTCOME``, into the four counters (collision, idle,
    single_alice, single_bob). The first call with a ``QubitPairSource``
    proves the qubit c threshold with the statevector engine and keeps the
    program; a proof that raises keeps nothing, so the next call proves it
    again. Raises TypeError for any source but a ``QubitPairSource`` or a
    ``CoinPairSource``, a subclass of either included: the kernels read c
    off a threshold and never call ``draw``.
    """
    kind = type(source)
    program = _PROGRAMS.get(kind)
    if program is None:
        if kind is not QubitPairSource:
            raise TypeError(f"source must be a QubitPairSource or a CoinPairSource, "
                            f"got {kind.__name__}")
        program = _PROGRAMS[kind] = _slot_program(_qubit_c_threshold(), 6)
    return program


class HyperdenseStats(checked_record("HyperdenseStats",
                                     "total alice_to_bob bob_to_alice channel_counts")):
    """Monte Carlo result: total delivered bits per slot and the two directions.

    ``channel_counts`` maps collision, idle, single_alice and single_bob to slot counts.
    """

    __slots__ = ()


def simulate(
    n_slots: int,
    rng: RandomSource,
    source: QubitPairSource | CoinPairSource | None = None,
    workers: int | str = 1,
) -> HyperdenseStats:
    """Seeded Monte Carlo over protocol slots with uniform source bits.

    Per slot: draw A1, A2, B1, B2, obtain c from ``source`` (the qubit path
    by default), run the slot, and tally the channel outcome. K is 3 exactly
    when the slot carried a single transmission, so integer channel tallies
    determine every statistic; results are identical for any worker count
    and either backend.

    ``source`` must be exactly a ``QubitPairSource`` or a ``CoinPairSource``;
    any other, a subclass included, raises TypeError before the one draw, as
    a qubit c threshold whose proof fails raises RuntimeError (see ``_program``).
    """
    from . import _kernels

    if source is None:
        source = QubitPairSource()
    # raises for any other source, and proves a qubit pair's c threshold, before the draw
    # and before any fork
    _program(source)
    tallies = _kernels.map_chunks(
        lambda count, seed: _kernels.hyperdense_tally(count, seed, source), n_slots, rng, workers
    )

    collision, idle, single_alice, single_bob = map(sum, zip(*tallies))
    n_single = single_alice + single_bob

    return HyperdenseStats(
        total=RunStats.from_two_valued(n_slots, n_single, lo=2.0, hi=3.0),
        alice_to_bob=RunStats.from_two_valued(n_slots, single_alice, lo=1.0, hi=2.0),
        bob_to_alice=RunStats.from_two_valued(n_slots, single_bob, lo=1.0, hi=2.0),
        channel_counts={
            "collision": collision,
            "idle": idle,
            "single_alice": single_alice,
            "single_bob": single_bob,
        },
    )
