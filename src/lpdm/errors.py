"""Exception types and the value-class base shared across the package.

Three failure flavours, distinguished so the command line tool can map
them to machine-readable reason codes:

* ``ArgumentError``  -- structurally bad arguments (mismatched ground
  sizes, labels outside the ground set, malformed profiles, ...).
* ``OrderError``     -- a pair of subsets that must be Gale-comparable
  is not.
* ``DomainError``    -- semantically invalid requests (deleting a
  coloop, decoding an asymmetric path word, triangulating a cell that
  is not toric, ...).
"""

from __future__ import annotations


class LpdmError(ValueError):
    """Base class for all domain-level errors raised by this package."""

    code = "error"


class ArgumentError(LpdmError):
    code = "argument"


class OrderError(LpdmError):
    code = "order"


class DomainError(LpdmError):
    code = "domain"


class UsageError(Exception):
    """Malformed input to the command line tool (bad JSON, bad schema).

    Deliberately not an ``LpdmError``: usage problems exit with a
    different status code than domain problems.
    """


class Frozen:
    """Base of the package's immutable value classes.  A subclass names
    in ``_fields`` exactly what an instance stores, and ``__init__``
    stores them, in order, through ``__dict__``; any other attribute is a
    ``functools.cached_property`` view of them.  Instances of one class
    are equal when their fields are and hash as their field tuple.

    The rule: a public constructor checks, ``_trusted`` stores.  A class
    that takes outside input checks it in its own ``__init__`` and then
    stores; a value the package derives from data it has already checked
    is built through ``_trusted``, which checks nothing."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True))

    @classmethod
    def _trusted(cls, *values):
        obj = object.__new__(cls)
        # the same store, inline and unchecked: the 5,040 permutations of [7]
        # take 6 ms so, 10 ms through ``__init__`` (CPython 3.11, 2 vCPUs)
        obj.__dict__.update(zip(cls._fields, values))
        return obj

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
