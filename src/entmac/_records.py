"""The named-tuple base of the records that check their fields."""

from collections import namedtuple


def checked_record(typename: str, field_names: str):
    """``namedtuple(typename, field_names)`` whose ``_make`` calls the subclass.

    A record subclasses it and checks its fields in ``__new__``. A plain
    namedtuple's ``_make``, and ``_replace``, which builds through
    ``_make``, would skip that check; this one runs it.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
