"""The contract of every record type: keyword construction and defaults,
read-only fields, the ``Name(field=value, ...)`` repr, equality and hashing
by value, and each validation error's type and message."""

import copy
import math

import pytest

from entmac._records import Program
from entmac.aloha import AlohaParams, AlohaSlotResult
from entmac.campaign import CampaignConfig, CampaignResult, ComparisonReport, ConfigError
from entmac.hyperdense import (
    ChannelObservation,
    ChannelState,
    DecodedView,
    HyperdenseStats,
    Party,
    PartyBits,
    SharedOutcome,
    SlotOutcome,
)
from entmac.qubit import BellIndex, PauliOp, TwoQubitState
from entmac.stats import RunStats
from entmac.superdense import Dibit

_RS = dict(n=4, mean=0.5, variance=0.25, std_error=0.25, ci95=(0.01, 0.99))
_RS_REPR = "RunStats(n=4, mean=0.5, variance=0.25, std_error=0.25, ci95=(0.01, 0.99))"
_IDLE_REPR = "ChannelObservation(state=<ChannelState.IDLE: 'idle'>, payload=None, sender=None)"

#: (record type, keyword arguments, repr): one case per record type of the package
RECORDS = [
    (RunStats, _RS, _RS_REPR),
    (AlohaParams, dict(m=2, p=0.5), "AlohaParams(m=2, p=0.5)"),
    (AlohaSlotResult, dict(transmitters=1, success=True),
     "AlohaSlotResult(transmitters=1, success=True)"),
    (Dibit, dict(a1=1, a2=0), "Dibit(a1=1, a2=0)"),
    (BellIndex, dict(k=0, l=1), "BellIndex(k=0, l=1)"),
    (TwoQubitState, dict(amps=(1, 0, 0.5, -2j)),
     "TwoQubitState(amps=((1+0j), 0j, (0.5+0j), (-0-2j)))"),
    (PauliOp, dict(tag="X", matrix=((0, 1), (1, 0))), "PauliOp(tag='X', matrix=((0, 1), (1, 0)))"),
    (Program, dict(thresholds=(0, 2**53), weights=(1, 1), offsets=(0, 2), period=3,
                   table=(0, 1, 0), size=2),
     "Program(thresholds=(0, 9007199254740992), weights=(1, 1), offsets=(0, 2), period=3, "
     "table=(0, 1, 0), size=2)"),
    (PartyBits, dict(first=0, second=1), "PartyBits(first=0, second=1)"),
    (SharedOutcome, dict(c=1), "SharedOutcome(c=1)"),
    (ChannelObservation, dict(state=ChannelState.SINGLE, payload=1, sender=Party.BOB),
     "ChannelObservation(state=<ChannelState.SINGLE: 'single'>, payload=1, "
     "sender=<Party.BOB: 'bob'>)"),
    (DecodedView, dict(peer_first=1, peer_second=0), "DecodedView(peer_first=1, peer_second=0)"),
    (SlotOutcome,
     dict(scenario_index=2, alice=PartyBits(0, 0), bob=PartyBits(0, 1), c=1, a_sent=None,
          b_sent=None, channel=ChannelObservation(ChannelState.IDLE),
          delivered_to_alice={"B1": 1}, delivered_to_bob={"A1": 1}, k=2),
     "SlotOutcome(scenario_index=2, alice=PartyBits(first=0, second=0), "
     "bob=PartyBits(first=0, second=1), c=1, a_sent=None, b_sent=None, "
     f"channel={_IDLE_REPR}, delivered_to_alice={{'B1': 1}}, delivered_to_bob={{'A1': 1}}, k=2)"),
    (HyperdenseStats,
     dict(total=RunStats(**_RS), alice_to_bob=RunStats(**_RS), bob_to_alice=RunStats(**_RS),
          channel_counts={"idle": 1}),
     f"HyperdenseStats(total={_RS_REPR}, alice_to_bob={_RS_REPR}, bob_to_alice={_RS_REPR}, "
     "channel_counts={'idle': 1})"),
    (CampaignConfig,
     dict(protocol="aloha", n_slots=10, seed=3, m=4, p=0.25, c_source="qubit", workers=2),
     "CampaignConfig(protocol='aloha', n_slots=10, seed=3, m=4, p=0.25, c_source='qubit', "
     "workers=2)"),
    (CampaignResult,
     dict(protocol="aloha", config={"n_slots": 4}, analytic={"x": 0.5}, empirical=RunStats(**_RS),
          directions={"a": RunStats(**_RS)}, channel_counts={"idle": 4}),
     f"CampaignResult(protocol='aloha', config={{'n_slots': 4}}, analytic={{'x': 0.5}}, "
     f"empirical={_RS_REPR}, directions={{'a': {_RS_REPR}}}, channel_counts={{'idle': 4}})"),
    (ComparisonReport,
     dict(n_slots=4, seed=1, analytic={}, hyperdense=None, superdense_bits=RunStats(**_RS),
          aloha_m2=RunStats(**_RS)),
     f"ComparisonReport(n_slots=4, seed=1, analytic={{}}, hyperdense=None, "
     f"superdense_bits={_RS_REPR}, aloha_m2={_RS_REPR})"),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_keyword_construction_and_repr(cls, kwargs, text):
    record = cls(**kwargs)
    assert repr(record) == text
    for name, value in kwargs.items():
        assert getattr(record, name) == value
    assert cls(*kwargs.values()) == record


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, kwargs, text):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=IDS)
def test_equality_and_hashing_go_by_value(cls, kwargs, text):
    record, twin = cls(**kwargs), cls(**copy.deepcopy(kwargs))
    assert record == twin and not record != twin
    try:
        hash(tuple(kwargs.values()))
    except TypeError:
        # a dict field makes the record unhashable, as it makes a tuple
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)


@pytest.mark.parametrize("record, defaults", [
    (ChannelObservation(ChannelState.IDLE), dict(payload=None, sender=None)),
    (ChannelObservation.idle(), dict(state=ChannelState.IDLE, payload=None, sender=None)),
    (ChannelObservation.collision(), dict(state=ChannelState.COLLISION)),
    (ChannelObservation.single(1, Party.ALICE),
     dict(state=ChannelState.SINGLE, payload=1, sender=Party.ALICE)),
    (DecodedView(peer_first=1), dict(peer_second=None)),
    (CampaignConfig("aloha"),
     dict(protocol="aloha", n_slots=1_000_000, seed=42, m=2, p=None, c_source="qubit",
          workers="auto")),
    (CampaignResult("aloha", {}, {}, RunStats(**_RS)), dict(directions=None, channel_counts=None)),
], ids=["observation", "idle", "collision", "single", "view", "config", "result"])
def test_defaults(record, defaults):
    assert {name: getattr(record, name) for name in defaults} == defaults


def test_two_qubit_state_stores_a_tuple_of_complex():
    state = TwoQubitState([1, 0, 0.5, -2j])
    assert state.amps == (1, 0, 0.5, -2j)
    assert type(state.amps) is tuple
    assert [type(a) for a in state.amps] == [complex] * 4


#: (record type, every field's value, the constructor's exact error message);
#: every error is a plain ValueError
INVALID = [
    (AlohaParams, dict(m=0, p=0.5), "user count must be an integer >= 1, got 0"),
    (AlohaParams, dict(m=True, p=0.5), "user count must be an integer >= 1, got True"),
    (AlohaParams, dict(m=2.0, p=0.5), "user count must be an integer >= 1, got 2.0"),
    (AlohaParams, dict(m=2, p=-0.1), "transmit probability must be in [0, 1], got -0.1"),
    (AlohaParams, dict(m=2, p=1.5), "transmit probability must be in [0, 1], got 1.5"),
    (AlohaParams, dict(m=2, p=True), "transmit probability must be in [0, 1], got True"),
    (AlohaParams, dict(m=2, p="0.5"), "transmit probability must be in [0, 1], got '0.5'"),
    (AlohaParams, dict(m=2, p=math.nan), "transmit probability must be in [0, 1], got nan"),
    (AlohaSlotResult, dict(transmitters=1, success=False),
     "success must hold exactly when one user transmitted"),
    (AlohaSlotResult, dict(transmitters=2, success=True),
     "success must hold exactly when one user transmitted"),
    (AlohaSlotResult, dict(transmitters=0, success=True),
     "success must hold exactly when one user transmitted"),
    (AlohaSlotResult, dict(transmitters=2.5, success=False),
     "transmitter count must be an integer >= 0, got 2.5"),
    (AlohaSlotResult, dict(transmitters=-3, success=False),
     "transmitter count must be an integer >= 0, got -3"),
    (AlohaSlotResult, dict(transmitters=True, success=True),
     "transmitter count must be an integer >= 0, got True"),
    (AlohaSlotResult, dict(transmitters=1, success=1), "success must be a bool, got 1"),
    (Dibit, dict(a1=2, a2=0), "dibit components must be 0 or 1, got (2, 0)"),
    (Dibit, dict(a1=0, a2=-1), "dibit components must be 0 or 1, got (0, -1)"),
    (BellIndex, dict(k=2, l=0), "Bell index bits must be 0 or 1, got (2, 0)"),
    (BellIndex, dict(k=0, l=-1), "Bell index bits must be 0 or 1, got (0, -1)"),
    (TwoQubitState, dict(amps=(1, 0, 0)), "expected 4 amplitudes, got 3"),
    (TwoQubitState, dict(amps=(1, 0, 0, 0, 0)), "expected 4 amplitudes, got 5"),
    (TwoQubitState, dict(amps=[1, 2]), "expected 4 amplitudes, got 2"),
    (TwoQubitState, dict(amps=(math.inf, 0, 0, 0)), "non-finite amplitude (inf+0j)"),
    (TwoQubitState, dict(amps=(0, complex(0, math.nan), 0, 0)), "non-finite amplitude nanj"),
    (TwoQubitState, dict(amps=(1, 0, "x", 0)), "complex() arg is a malformed string"),
    (Program, dict(thresholds=(0,), weights=(1,), offsets=(0,), period=1, table=(0, 2), size=2),
     "table entry 2 is not an int in range(2)"),
    (Program, dict(thresholds=(0,), weights=(1,), offsets=(0,), period=1, table=(0, 0), size=0),
     "a tally size must be an int >= 1, got 0"),
    (Program, dict(thresholds=(0,), weights=(1,), offsets=(0,), period=1, table=(0, 0),
                   size=True),
     "a tally size must be an int >= 1, got True"),
    (Program, dict(thresholds=(0, 0), weights=(1, 1), offsets=(0,), period=2, table=(0, 0, 0),
                   size=1),
     "a program needs at least one threshold, and one weight and one offset per threshold, "
     "got 2, 2 and 1"),
    (Program, dict(thresholds=(0, 0), weights=(1, 1), offsets=(1, 1), period=3,
                   table=(0, 0, 0), size=1),
     "offsets must rise strictly and stay below the period 3, got (1, 1)"),
    (Program, dict(thresholds=(0, 0), weights=(1, 1), offsets=(0, 3), period=3,
                   table=(0, 0, 0), size=1),
     "offsets must rise strictly and stay below the period 3, got (0, 3)"),
    (PartyBits, dict(first=2, second=0), "party bits must be 0 or 1, got (2, 0)"),
    (PartyBits, dict(first=0, second=2), "party bits must be 0 or 1, got (0, 2)"),
    (SharedOutcome, dict(c=2), "shared outcome must be 0 or 1, got 2"),
    (SharedOutcome, dict(c=-1), "shared outcome must be 0 or 1, got -1"),
    (ChannelObservation, dict(state=ChannelState.SINGLE, payload=None, sender=None),
     "a single transmission needs a payload and a sender"),
    (ChannelObservation, dict(state=ChannelState.SINGLE, payload=1, sender=None),
     "a single transmission needs a payload and a sender"),
    (ChannelObservation, dict(state=ChannelState.SINGLE, payload=None, sender=Party.ALICE),
     "a single transmission needs a payload and a sender"),
    (ChannelObservation, dict(state=ChannelState.SINGLE, payload=7, sender=Party.BOB),
     "a single transmission's payload must be 0 or 1, got 7"),
    (ChannelObservation, dict(state=ChannelState.SINGLE, payload=0, sender="bob"),
     "a single transmission's sender must be a Party, got 'bob'"),
    # a state given by its value matches no state in decode, which then reads the slot as
    # a single transmission from the peer, even to a party that transmitted
    (ChannelObservation, dict(state="idle", payload=None, sender=None),
     "a channel state must be a ChannelState, got 'idle'"),
    (ChannelObservation, dict(state=None, payload=None, sender=None),
     "a channel state must be a ChannelState, got None"),
    (ChannelObservation, dict(state=ChannelState.IDLE, payload=1, sender=None),
     "idle channel cannot carry a payload"),
    (ChannelObservation, dict(state=ChannelState.COLLISION, payload=None, sender=Party.BOB),
     "collision channel cannot carry a payload"),
]

INVALID_IDS = [message for _, _, message in INVALID]

#: one valid record of each type, for _replace to start from
VALID = {cls: cls(**kwargs) for cls, kwargs, _ in RECORDS}


def assert_plain_value_error(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError
    assert str(err.value) == message


@pytest.mark.parametrize("cls, fields, message", INVALID, ids=INVALID_IDS)
def test_validation_errors_keep_their_type_and_message(cls, fields, message):
    assert_plain_value_error(lambda: cls(**fields), message)


@pytest.mark.parametrize("cls, fields, message", INVALID, ids=INVALID_IDS)
def test_make_and_replace_check_fields_as_the_constructor_does(cls, fields, message):
    assert_plain_value_error(lambda: cls._make(fields.values()), message)
    assert_plain_value_error(lambda: VALID[cls]._replace(**fields), message)


@pytest.mark.parametrize("fields, field", [
    (dict(n_slots=0), "n_slots"),
    (dict(protocol="nope"), "protocol"),
    (dict(workers=0), "workers"),
    (dict(c_source="dice", workers=True), "workers"),
])
def test_config_make_and_replace_raise_the_constructors_config_error(fields, field):
    valid = CampaignConfig("aloha")
    with pytest.raises(ConfigError) as built:
        CampaignConfig(**{**valid._asdict(), **fields})
    with pytest.raises(ConfigError) as made:
        CampaignConfig._make({**valid._asdict(), **fields}.values())
    with pytest.raises(ConfigError) as replaced:
        valid._replace(**fields)
    assert built.value.field == made.value.field == replaced.value.field == field
    assert str(built.value) == str(made.value) == str(replaced.value)


#: each bit field, built with a value in place of its bit
BIT_FIELDS = {
    "PartyBits.first": lambda bit: PartyBits(bit, 0),
    "SharedOutcome.c": lambda bit: SharedOutcome(bit),
    "Dibit.a2": lambda bit: Dibit(0, bit),
    "BellIndex.k": lambda bit: BellIndex(bit, 1),
    "ChannelObservation.payload": lambda bit: ChannelObservation.single(bit, Party.BOB),
}


@pytest.mark.parametrize("value", [1.0, True, "1"], ids=repr)
@pytest.mark.parametrize("field", sorted(BIT_FIELDS))
def test_a_bit_field_takes_only_the_ints_0_and_1(field, value):
    with pytest.raises(ValueError) as err:
        BIT_FIELDS[field](value)
    assert type(err.value) is ValueError
    assert BIT_FIELDS[field](1) == BIT_FIELDS[field](int(value))
