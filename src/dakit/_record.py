"""Frozen value records, written out by hand instead of generated.

A record class lists its fields in __slots__, in constructor order. Its
__init__ checks the arguments and stores each one with set_field, the
only way to write a field. The base then gives what a frozen dataclass
gives: equality within one class, a hash of the field values, the
dataclass repr, and AttributeError on assignment or deletion.

A slot named with a leading "_" is no field: it holds state that
__init__ derives from the fields. Equality, the hash, the repr and copies
leave it out, so a copy derives it again.
"""

import math
from operator import attrgetter

set_field = object.__setattr__


def is_number(x: object) -> bool:
    """True for an int or a float; the caller checks the range. A number
    that passes can be compared without a TypeError."""
    # bool is an int, but True is no quantity
    return not isinstance(x, bool) and isinstance(x, (int, float))


def is_positive_number(x: object) -> bool:
    """True for a positive, finite int or float, the check of a record
    field that holds a quantity."""
    # is_number written out, since Network and the option records call this
    # on every construction; NaN fails "0 < x < inf"
    return not isinstance(x, bool) and isinstance(x, (int, float)) and 0 < x < math.inf


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # _values(r) is the tuple of r's field values, read in C; every
        # record has at least two fields, so it is always a tuple
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its checking __init__
        return self.__class__, self._values(self)
