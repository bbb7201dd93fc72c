"""The base of the records that check their fields, the rules they check by,
and ``Program``, the word program both kernel backends run."""

import sys
from collections import namedtuple

#: the largest sum(weights) ``_fast.histogram`` takes, PY_SSIZE_T_MAX / sizeof(Py_ssize_t) - 1:
#: it sizes its count array by it
MAX_INDEX = sys.maxsize // ((sys.maxsize.bit_length() + 1) // 8) - 1


def checked_record(typename: str, field_names: str, defaults=None):
    """``namedtuple(typename, field_names, defaults=defaults)`` whose ``_make`` calls the subclass.

    A record subclasses it and checks its fields in ``__new__``. A plain
    namedtuple's ``_make``, and ``_replace``, which builds through
    ``_make``, would skip that check; this one runs it.
    """
    base = namedtuple(typename, field_names, defaults=defaults)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def is_int(value, low: int, high=None) -> bool:
    """True for an int that is not a bool (bool subclasses int) in [low, high], or [low, oo)."""
    return (isinstance(value, int) and not isinstance(value, bool) and low <= value
            and (high is None or value <= high))


def is_probability(p) -> bool:
    """True for an int or float, not a bool, in [0, 1]."""
    return isinstance(p, (int, float)) and not isinstance(p, bool) and 0.0 <= p <= 1.0


def check_u64s(values, top: int, name: str) -> None:
    """Raise as ``_fast.histogram`` does for an entry that is not an int in [0, top]."""
    for v in values:
        if not isinstance(v, int):
            raise TypeError(f"{name} must be an int, got {type(v).__name__}")
        if not 0 <= v < 1 << 64:
            raise OverflowError(f"{name} {v} is outside [0, 2**64)")
        if v > top:
            raise ValueError(f"{name} {v} must be <= {top}")


def check_count(value, name: str) -> None:
    """Raise as ``_fast.histogram`` does for a count that is not an int in [0, sys.maxsize]."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not -sys.maxsize - 1 <= value <= sys.maxsize:
        raise OverflowError(f"{name} {value} does not fit a C ssize_t")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_program(thresholds, weights, offsets, period) -> tuple[tuple, tuple, tuple]:
    """(thresholds, weights, offsets) as tuples; raises as ``_fast.histogram`` does, same type.

    It rejects, in this order: a period that is no count, thresholds,
    weights or offsets that are not iterable, a threshold outside
    [0, 2**53], a weight outside [0, MAX_INDEX], an offset outside
    [0, 2**64), no threshold, a weight count or an offset count unlike the
    threshold count, offsets that do not rise strictly or reach the period,
    and an index (sum of the weights) above MAX_INDEX.
    """
    check_count(period, "period")
    thresholds = tuple(thresholds)
    check_u64s(thresholds, 1 << 53, "threshold")
    weights = tuple(weights)
    check_u64s(weights, MAX_INDEX, "weight")
    offsets = tuple(offsets)
    check_u64s(offsets, (1 << 64) - 1, "offset")
    if not thresholds or len(thresholds) != len(weights) or len(thresholds) != len(offsets):
        raise ValueError(f"a program needs at least one threshold, and one weight and one "
                         f"offset per threshold, got {len(thresholds)}, {len(weights)} "
                         f"and {len(offsets)}")
    if any(b <= a for a, b in zip(offsets, offsets[1:])) or offsets[-1] >= period:
        raise ValueError(f"offsets must rise strictly and stay below the period {period}, "
                         f"got {offsets}")
    if sum(weights) > MAX_INDEX:
        raise OverflowError("sum(weights) is too large")
    return thresholds, weights, offsets


class Program(checked_record("Program", "thresholds weights offsets period table size")):
    """A word program and the tally its table folds into (see ``entmac._kernels.pure``).

    A slot is ``period`` words of the stream, and it reads one of them per
    threshold: read i is the word at ``offsets[i]`` within the slot, and a
    word no offset names is never read. The slot's index is the sum of the
    weights of the read words that reach their thresholds, and
    ``table[index]`` is the counter of the ``size`` that it adds to. The
    constructor raises what ``_fast.histogram`` raises for the thresholds,
    weights, offsets and period (``check_program``), then ValueError unless
    ``size`` is an int >= 1 and the table holds one entry per index,
    sum(weights) + 1 in all, each an int (not a bool) in range(size). The
    sequences are stored as tuples.
    """

    __slots__ = ()

    def __new__(cls, thresholds, weights, offsets, period: int, table, size: int):
        thresholds, weights, offsets = check_program(thresholds, weights, offsets, period)
        table = tuple(table)
        if not is_int(size, 1):
            raise ValueError(f"a tally size must be an int >= 1, got {size!r}")
        if len(table) != sum(weights) + 1:
            raise ValueError(f"a table needs sum(weights) + 1 = {sum(weights) + 1} entries, "
                             f"got {len(table)}")
        for entry in table:
            if not is_int(entry, 0, size - 1):
                raise ValueError(f"table entry {entry!r} is not an int in range({size})")
        return super().__new__(cls, thresholds, weights, offsets, period, table, size)
