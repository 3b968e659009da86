"""JSON shapes for the command line tool.

Subsets are sorted integer arrays, points are arrays of "p/q" strings,
rationals are canonical "p/q" strings, specs are {"n", "S", "T"} with an
optional explicit "ground".  Structural problems raise ``UsageError``
(usage exit code); semantic problems surface as the usual domain errors
from the constructors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import UsageError

# a library type is imported where a value is built: a command loads only what it uses
if TYPE_CHECKING:
    from fractions import Fraction

    from .matroid import LpdmSpec, SetFamily
    from .paths import PathWord
    from .polytope import Facet, HRep
    from .subsets import SubsetMask
    from .triangulate import LatticeSimplex

__all__ = [
    "facet_from_json",
    "family_json",
    "frac_str",
    "hrep_json",
    "layer_json",
    "parse_frac",
    "parse_int",
    "parse_int_list",
    "parse_object",
    "parse_point",
    "parse_spec",
    "parse_subset",
    "parse_word",
    "simplex_json",
    "spec_json",
]


def _require_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise UsageError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def parse_int(obj, key: str) -> int:
    val = _require_dict(obj, "input").get(key)
    if type(val) is not int:
        raise UsageError(f"field {key!r} must be an integer")
    return val


def parse_int_list(val, key: str) -> list[int]:
    if not isinstance(val, list) or any(type(x) is not int for x in val):
        raise UsageError(f"field {key!r} must be an array of integers")
    return list(val)


def parse_object(obj: dict, key: str) -> dict:
    val = obj.get(key)
    if not isinstance(val, dict):
        raise UsageError(f"'{key}' must be a JSON object")
    return val


def parse_word(obj: dict, key: str) -> PathWord:
    from .paths import PathWord
    val = obj.get(key)
    if not isinstance(val, str):
        raise UsageError(f"'{key}' must be a step word string")
    return PathWord(val)


def parse_subset(obj, key: str = "S") -> SubsetMask:
    from .subsets import SubsetMask
    obj = _require_dict(obj, "input")
    n = parse_int(obj, "n")
    if key not in obj:
        raise UsageError(f"missing field {key!r}")
    return SubsetMask(n, frozenset(parse_int_list(obj[key], key)))


def parse_spec(obj) -> LpdmSpec:
    from .matroid import LpdmSpec
    obj = _require_dict(obj, "spec")
    ground = obj.get("ground")
    if ground is not None:
        ground = tuple(parse_int_list(ground, "ground"))
        if "n" in obj and parse_int(obj, "n") != len(ground):
            raise UsageError("field 'n' disagrees with the ground size")
    else:
        ground = tuple(range(1, parse_int(obj, "n") + 1))
    for key in ("S", "T"):
        if key not in obj:
            raise UsageError(f"missing field {key!r}")
    lower = frozenset(parse_int_list(obj["S"], "S"))
    upper = frozenset(parse_int_list(obj["T"], "T"))
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


def family_json(fam: SetFamily) -> dict:
    """The ground and the members, each member its labels in ground
    order, decoded from the family's masks in one batch."""
    from .subsets import _decode
    return {"ground": list(fam.ground), "members": list(map(list, _decode(fam._masks, fam.ground, tuple)))}


def layer_json(m: LpdmSpec) -> dict:
    """A spec whose bounds have one size k (a lattice path matroid):
    its ground, k, and S and T in ground order."""
    out = spec_json(m)
    return {"ground": list(m.ground), "k": len(m.lower), "S": out["S"], "T": out["T"]}


def hrep_json(h: HRep) -> dict:
    return {"n": h.n, "a": list(h.lower), "b": list(h.upper)}


def frac_str(q) -> str:
    from fractions import Fraction
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(val) -> Fraction:
    from fractions import Fraction
    if type(val) is int or isinstance(val, str):
        try:
            return Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"not a rational: {val!r}") from exc
    raise UsageError(f"not a rational: {val!r}")


def parse_point(val) -> tuple[Fraction, ...]:
    if not isinstance(val, list):
        raise UsageError("field 'x' must be an array of rationals")
    return tuple(parse_frac(c) for c in val)


def simplex_json(simp: LatticeSimplex) -> dict:
    out = {"vertices": [list(v) for v in simp.vertices]}
    if simp.perm is not None:
        out["perm"] = list(simp.perm.images)
    return out


def facet_from_json(obj) -> Facet:
    from .polytope import Facet
    obj = _require_dict(obj, "facet")
    kind = obj.get("kind")
    if kind not in ("coordinate", "suffix"):
        raise UsageError("facet 'kind' must be 'coordinate' or 'suffix'")
    index = parse_int(obj, "i")
    if kind == "coordinate":
        level = obj.get("value")
        if type(level) is not int or level not in (0, 1):
            raise UsageError("coordinate facet needs 'value' 0 or 1")
    else:
        level = obj.get("side")
        if level not in ("lower", "upper"):
            raise UsageError("suffix facet needs 'side' 'lower' or 'upper'")
    return Facet(kind, index, level)
