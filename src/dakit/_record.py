"""Frozen value records, and the one check of the values that enter the
library.

A record class lists its fields in __slots__, in constructor order, and
the optional class dict _defaults gives the defaults of its last fields.
Every record gets a constructor compiled from these, as dataclasses and
namedtuple build theirs: it takes the fields in slot order and stores
each through its slot. A record that checks its fields or derives state
defines __post_init__(self), which the constructor calls once the fields
are stored, which reads them from self and which stores derived state
with set_field. No record writes an __init__.
The base then gives what a frozen dataclass gives: equality within one
class, a hash of the field values, the dataclass repr, and AttributeError
on assignment or deletion.

A slot named with a leading "_" is no field: it holds state that
__post_init__ derives from the fields. Equality, the hash, the repr and
copies leave it out, and a copy goes through the constructor, so it is
checked and derives that state again.

Every record and public function checks each number it is given with
positive, for a quantity in (0, inf), or in_range, for the few other
ranges. Both accept an int or a float and refuse a bool, whatever else
is not a number, NaN and anything out of range, with the caller's
DakitError and the message "<what> must be <range>, got <value!r>".
count checks a stage or point count, finite_complex a complex
immittance and instance_of an argument that must be a record, in the
same way. A guard on a value that a function derives from checked
inputs, such as the reciprocal of an underflowing product, stays with
that function.
"""

import cmath
import math
import sys
from operator import attrgetter

set_field = object.__setattr__

# the largest finite float
_MAX = sys.float_info.max


def is_number(x: object) -> bool:
    """True for a float, or an int that converts to a float; the caller
    checks the range. A number that passes can be compared without a
    TypeError."""
    if isinstance(x, float):
        return True
    # bool is an int, but True is no quantity
    return isinstance(x, int) and not isinstance(x, bool) and -_MAX <= x <= _MAX


def positive(x: object, what: str, error: type) -> None:
    """Raise error unless x is a positive, finite int or float."""
    # a float, the usual value, skips is_number; NaN fails every comparison
    if x.__class__ is float and 0.0 < x <= _MAX or is_number(x) and 0 < x <= _MAX:
        return
    raise error(f"{what} must be positive and finite, got {x!r}")


# in_range's rules: each name is the message's "must be ..." and each
# value the closed float interval it allows; an open end is the next
# float inside it
_RANGES = {
    ">= 0 and finite": (0.0, _MAX),
    ">= 1 and finite": (1.0, _MAX),
    "positive": (math.ulp(0.0), math.inf),
    "finite": (-_MAX, _MAX),
    "between -1 and 1": (-math.nextafter(1.0, 0.0), math.nextafter(1.0, 0.0)),
}


def in_range(x: object, what: str, error: type, rule: str) -> None:
    """Raise error unless x is an int or a float within a rule of _RANGES."""
    low, high = _RANGES[rule]
    if not ((x.__class__ is float or is_number(x)) and low <= x <= high):
        raise error(f"{what} must be {rule}, got {x!r}")


def count(n: object, what: str, error: type, least: int = 1) -> None:
    """Raise error unless n is an int of at least least; a bool is no count."""
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise error(f"{what} must be {kind}, got {n!r}")


def finite_complex(x: object, what: str, error: type) -> None:
    """Raise error unless x is a finite int, float or complex."""
    if not ((isinstance(x, complex) or is_number(x)) and cmath.isfinite(x)):
        raise error(f"{what} must be finite, got {x!r}")


def instance_of(x: object, cls: type, what: str, error: type) -> None:
    """Raise error unless x is a cls, such as the record a function reads."""
    if not isinstance(x, cls):
        raise error(f"{what} must be a {cls.__name__}, got {x!r}")


def _compiled_init(cls: type):
    """Compile cls's __init__(self, <fields>), which stores each field and
    then calls __post_init__ if cls has one, under a filename of its own,
    so that profiles and tracebacks tell the records apart."""
    fields, defaults = cls._fields, getattr(cls, "_defaults", {})
    params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}" for f in fields)
    body = "".join(f"\n    _set_{f}(self, {f})" for f in fields)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    name = f"{cls.__qualname__}.__init__"
    code = compile(f"def __init__(self{params}):{body}", f"<{cls.__module__}.{name}>", "exec")
    namespace = {"__name__": cls.__module__, "_defaults": defaults}
    # a slot's own __set__ stores a field without set_field's lookup of the
    # name on the type: about 45 ns a field sooner
    namespace.update((f"_set_{f}", getattr(cls, f).__set__) for f in fields)
    exec(code, namespace)
    init = namespace["__init__"]
    init.__qualname__ = name
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # _values(r) is the tuple of r's field values, read in C; every
        # record has at least two fields, so it is always a tuple
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)
        # a subclass of a record inherits that record's __init__
        if cls.__init__ is object.__init__:
            cls.__init__ = _compiled_init(cls)

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
        # copy and pickle rebuild a record through its __init__, which
        # takes the fields positionally and checks them again
        return self.__class__, self._values(self)
