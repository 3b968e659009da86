"""JSON readers for the command line tool, and the output shapes that
several of its writers share: specs, families, and the member lists that
``member_lists`` decodes from masks.  A shape that one writer alone uses
is spelled out beside its table row, in ``cli._writers``.

``read`` reads each field of a document by the reader that ``_READERS``
names for its word.  Subsets are sorted integer arrays, points are arrays
of integers and "p/q" strings, specs are {"n", "S", "T"} with an optional
explicit "ground".  Structural problems raise ``UsageError`` (usage exit
code); semantic problems surface as the usual domain errors from the
constructors."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import UsageError

# a library type is imported where a value is built: a command loads only what it uses
if TYPE_CHECKING:
    from fractions import Fraction

    from .matroid import LpdmSpec, SetFamily
    from .paths import PathWord
    from .perms import Permutation
    from .polytope import Facet
    from .subsets import SubsetMask

__all__ = ["family_json", "member_lists", "parse_spec", "read", "spec_json"]


def _int(obj: dict, key: str) -> int:
    val = obj.get(key)
    if type(val) is not int:
        raise UsageError(f"field {key!r} must be an integer")
    return val


def _int_list(val, key: str) -> list[int]:
    if not isinstance(val, list) or any(type(x) is not int for x in val):
        raise UsageError(f"field {key!r} must be an array of integers")
    return list(val)


def _object(obj: dict, key: str) -> dict:
    val = obj.get(key)
    if not isinstance(val, dict):
        raise UsageError(f"'{key}' must be a JSON object")
    return val


def _word(obj: dict, key: str) -> PathWord:
    from .paths import PathWord
    val = obj.get(key)
    if not isinstance(val, str):
        raise UsageError(f"'{key}' must be a step word string")
    return PathWord(val)


def _subset(obj: dict, key: str) -> SubsetMask:
    from .subsets import SubsetMask
    n = _int(obj, "n")
    if key not in obj:
        raise UsageError(f"missing field {key!r}")
    return SubsetMask(n, frozenset(_int_list(obj[key], key)))


def _perm(obj: dict, key: str) -> Permutation:
    from .perms import Permutation
    return Permutation(tuple(_int_list(obj.get(key), key)))


def _point(obj: dict, key: str) -> tuple[Fraction, ...]:
    from fractions import Fraction

    def rational(c) -> Fraction:
        if type(c) is int or isinstance(c, str):
            try:
                return Fraction(c)
            except (ValueError, ZeroDivisionError):
                pass
        raise UsageError(f"not a rational: {c!r}")

    val = obj.get(key)
    if not isinstance(val, list):
        raise UsageError(f"field {key!r} must be an array of rationals")
    return tuple(map(rational, val))


def _facet(obj: dict, key: str) -> Facet:
    from .polytope import Facet
    obj = _object(obj, key)
    kind = obj.get("kind")
    if kind not in ("coordinate", "suffix"):
        raise UsageError("facet 'kind' must be 'coordinate' or 'suffix'")
    index = _int(obj, "i")
    if kind == "coordinate":
        level = obj.get("value")
        if type(level) is not int or level not in (0, 1):
            raise UsageError("coordinate facet needs 'value' 0 or 1")
    else:
        level = obj.get("side")
        if level not in ("lower", "upper"):
            raise UsageError("suffix facet needs 'side' 'lower' or 'upper'")
    return Facet(kind, index, level)


def _nested_spec(obj: dict, key: str) -> LpdmSpec:
    return parse_spec(_object(obj, key))


# each document word -> its reader(document, word)
_READERS = {"S": _subset, "T": _subset, "element": _int, "k": _int, "x": _point, "perm": _perm, "P": _word,
            "Q": _word, "word": _word, "facet": _facet, "first": _nested_spec, "second": _nested_spec}


def read(document: dict, word: str):
    """The field ``word`` of ``document`` as the value it spells; a ``KeyError`` for a word
    that names no field.  The document is a JSON object (``cli._load`` checks it), and so
    is each spec or facet nested in it (``_object`` checks that)."""
    return _READERS[word](document, word)


def parse_spec(obj: dict) -> LpdmSpec:
    """The spec that the JSON object ``obj`` spells."""
    from .matroid import LpdmSpec
    ground = obj.get("ground")
    if ground is not None:
        ground = tuple(_int_list(ground, "ground"))
        if "n" in obj and _int(obj, "n") != len(ground):
            raise UsageError("field 'n' disagrees with the ground size")
    else:
        ground = tuple(range(1, _int(obj, "n") + 1))
    for key in ("S", "T"):
        if key not in obj:
            raise UsageError(f"missing field {key!r}")
    lower = frozenset(_int_list(obj["S"], "S"))
    upper = frozenset(_int_list(obj["T"], "T"))
    return LpdmSpec(ground, lower, upper)


def spec_json(m: LpdmSpec) -> dict:
    out = {
        "n": m.n,
        "S": [m.ground[p - 1] for p in m.lower_mask().as_tuple()],
        "T": [m.ground[p - 1] for p in m.upper_mask().as_tuple()],
    }
    if not m.standard_ground():
        out["ground"] = list(m.ground)
    return out


def member_lists(masks, labels: tuple[int, ...]) -> list[list[int]]:
    """Each mask over ``labels`` as the list of its labels in ``labels`` order, decoded in one batch."""
    from .subsets import _decode
    return list(map(list, _decode(masks, labels, tuple)))


def family_json(fam: SetFamily) -> dict:
    return {"ground": list(fam.ground), "members": member_lists(fam._masks, fam.ground)}
