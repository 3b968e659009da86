"""The feasible-set polytope: suffix-sum bounds cut out of the cube.

For an interval spec with bounds S and T, the polytope is

    P = { x in [0, 1]^n : profile(S)_i <= x_i + ... + x_n <= profile(T)_i }.

Its vertices are exactly the indicator vectors of the feasible sets,
and its dimension drops by one for every index where the two profiles
agree.  Intersecting two such polytopes over the same ground gives
another one (or nothing): that is ``matroid.intersect``.  Everything
here is exact and works on integers, never floats: ``contains`` reads a
rational point in one pass, raising a running scale to each denominator
it meets.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import ArgumentError, DomainError, Frozen
from .matroid import LpdmSpec, SetFamily, _box_spec, _minor
from .subsets import SubsetMask, _completions, _decode, is_valid_profile

__all__ = [
    "Facet",
    "FaceResult",
    "HRep",
    "contains",
    "dimension",
    "face",
    "hrep",
    "is_linked",
    "vertex_set",
]


class HRep(Frozen):
    """Half-space description: per-index lower/upper suffix-sum bounds."""

    _fields = ("n", "lower", "upper")

    def __init__(self, n: int, lower: tuple[int, ...], upper: tuple[int, ...]) -> None:
        lower, upper = tuple(lower), tuple(upper)
        if type(n) is not int or len(lower) != n or len(upper) != n:
            raise ArgumentError(f"bounds must have one entry for each of n = {n!r} coordinates")
        if not (is_valid_profile(lower) and is_valid_profile(upper)):
            raise ArgumentError("bounds must be suffix-count profiles")
        if any(a > b for a, b in zip(lower, upper)):
            raise ArgumentError("lower bounds exceed upper bounds")
        super().__init__(n, lower, upper)


def hrep(m: LpdmSpec) -> HRep:
    return HRep._trusted(m.n, m.lower_mask().profile, m.upper_mask().profile)


def _outside(point: tuple, unread) -> bool:
    """False, once the coordinates of the point left unread read as rationals.
    Only their types are read, unless one is not an int or a Fraction."""
    kinds = set(map(type, unread))
    if kinds <= {int}:
        return False
    import fractions

    if not kinds <= {int, fractions.Fraction}:
        for c in point:  # the coordinates read already are rationals too
            if isinstance(c, (int, fractions.Fraction)):  # read as it is, as the loops read it
                continue
            try:
                fractions.Fraction(c)
            except (ArithmeticError, TypeError, ValueError):  # NaN or infinity, "1/0", not a number
                raise ArgumentError(f"not a rational: {c!r}") from None
    return False


def contains(h: HRep, point) -> bool:
    """Exact membership test against the half-space description.

    The point is read once, from x_n down: ints as they are, and from the
    first coordinate that is not an int on, at a running scale raised to the
    lcm with each new denominator (the suffix sum so far rescaled with it).
    A point that leaves the polytope early only has its remaining
    coordinates checked to be rationals.
    """
    pt = tuple(point)
    if len(pt) != h.n:
        raise ArgumentError(f"point has {len(pt)} coordinates, expected {h.n}")
    xs = reversed(pt)  # zip reads it first, so it holds the coordinates left unread
    rows = zip(xs, reversed(h.lower), reversed(h.upper))
    s = 0
    for x, lo, hi in rows:
        if type(x) is not int:
            break
        s += x
        if not (0 <= x <= 1 and lo <= s <= hi):
            return _outside(pt, xs)
    else:
        return True
    import fractions

    scale = 1
    for c, lo, hi in chain([(x, lo, hi)], rows):
        try:
            num, d = (c if isinstance(c, (int, fractions.Fraction)) else fractions.Fraction(c)).as_integer_ratio()
        except (ArithmeticError, TypeError, ValueError):  # NaN or infinity, "1/0", not a number
            raise ArgumentError(f"not a rational: {c!r}") from None
        if scale % d:
            s, scale = s * (d // math.gcd(scale, d)), math.lcm(scale, d)
        x = num * (scale // d)
        s += x
        if not (0 <= x <= scale and lo * scale <= s <= hi * scale):
            return _outside(pt, xs)
    return True


def dimension(m: LpdmSpec) -> int:
    """n minus the number of indices where the two profiles agree."""
    return m.n - sum(1 for x, y in zip(m.lower_mask().profile, m.upper_mask().profile) if x == y)


def is_linked(m: LpdmSpec) -> bool:
    """Full-dimensional: the profiles differ at every index."""
    return all(x < y for x, y in zip(m.lower_mask().profile, m.upper_mask().profile))


def vertex_set(m: LpdmSpec) -> list[tuple[int, ...]]:
    """Indicator vectors of the feasible sets, in canonical order."""
    masks = _completions(m.lower_mask().profile, m.upper_mask().profile)
    return _decode(masks, (1,) * m.n, tuple, 0)


class Facet(Frozen):
    """A defining inequality of the polytope, pinned to equality.

    kind "coordinate": x_index = level (level 0 or 1).
    kind "suffix":     x_index + ... + x_n = the lower or upper profile
    bound at ``index`` (level "lower" or "upper").
    """

    _fields = ("kind", "index", "level")

    def __init__(self, kind: str, index: int, level: object) -> None:
        if kind not in ("coordinate", "suffix"):
            raise ArgumentError(f"unknown facet kind {kind!r}")
        if type(index) is not int or index < 1:
            raise ArgumentError(f"facet index must be a positive integer, got {index!r}")
        if kind == "coordinate" and (type(level) is not int or level not in (0, 1)):
            raise ArgumentError(f"coordinate facet level must be 0 or 1, got {level!r}")
        if kind == "suffix" and level not in ("lower", "upper"):
            raise ArgumentError(f"suffix facet level must be 'lower' or 'upper', got {level!r}")
        super().__init__(kind, index, level)


class FaceResult(Frozen):
    """A face of the polytope, with a direct-sum certificate.

    ``family`` collects the feasible sets whose vertices lie on the
    face.  When the face is nonempty, ``factors`` names specs on two
    complementary sub-grounds whose feasible families multiply out to
    exactly ``family`` (unions of one member from each); for an empty
    face it is None.
    """

    _fields = ("family", "factors")


def face(m: LpdmSpec, facet: Facet) -> FaceResult:
    """Feasible sets on a facet of the polytope, with its splitting.

    A coordinate facet x_i = 1 (resp. 0) splits off the singleton
    interval on {i} against the contraction (resp. deletion) by i; a
    suffix facet at index i splits the ground into the positions below
    i and the positions from i up.  The family is listed in canonical
    order with position i's choice barred or its suffix count pinned.
    """
    if m.n == 0:
        raise DomainError("the point polytope on the empty ground has no facet")
    if not 1 <= facet.index <= m.n:
        raise ArgumentError(f"facet index {facet.index} outside [1, {m.n}]")
    i = facet.index
    a, b = list(m.lower_mask().profile), list(m.upper_mask().profile)
    fix = (i, facet.level) if facet.kind == "coordinate" else None
    if fix is None:
        target = (a if facet.level == "lower" else b)[i - 1]
        a[i - 1] = b[i - 1] = target

    masks = _completions(a, b, fix)
    family = SetFamily._trusted(m.ground, masks)
    if not masks:
        return FaceResult(family, None)

    label = m.ground[i - 1]
    if facet.kind == "coordinate":
        point = SubsetMask._trusted(1, 1 if facet.level else 0)
        factors = (LpdmSpec._trusted((label,), point, point), _minor(m, label, facet.level))
    else:
        below = _box_spec(m.ground[: i - 1], [x - target for x in a[: i - 1]], [y - target for y in b[: i - 1]])
        factors = (below, _box_spec(m.ground[i - 1 :], a[i - 1 :], b[i - 1 :]))
    return FaceResult(family, factors)
