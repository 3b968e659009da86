"""Gale-interval delta matroids and their standard operations.

An ``LpdmSpec`` names the delta matroid whose feasible sets are the
Gale interval [S, T] over an ordered ground set.  The ground carries
explicit labels (default 1..n) so that minors keep their element names:
deleting 5 from a matroid on [5] leaves a matroid on {1, 2, 3, 4}.  All
order computations happen positionally (labels are ranked by their
position in the ground tuple); labels are only translated at the
boundary, by one lookup, ``_position``, which takes an ``int`` of the
ground and nothing else (not ``True``, not ``1.0``).

The operations implemented here:

* ``feasible_sets``        -- enumerate the interval.
* ``exchange_witness``     -- the symmetric exchange axiom: None, or a witness.
* ``classify_elements``    -- loops and coloops, read off the minors.
* ``dual``, ``delete``, ``contract``, ``direct_sum``, ``intersect`` --
  minors, sums and crossings, all returning interval specs again.
* ``homogeneous_component`` -- the fixed-size layer: [S, T] with its
  first suffix count pinned to k.
* ``envelope_bases`` / ``envelope_project`` -- the lattice path matroid
  on the signed ground {-n, ..., -1, 1, ..., n} whose bases project onto
  the feasible vertices, plus the halving projection itself.
* ``project_element``      -- drop an element from every feasible set
  (the result need not be an interval; see ``family_interval_bounds``).
* ``catalan_spec``         -- the interval of symmetric paths weakly
  below the staircase that starts with an E step; its feasible count is
  the central binomial coefficient.

Every spec derived from another (a minor, a crossing, a layer, a face
block) comes from one move: pin a suffix count or fix a position in the
box profile(S) <= F <= profile(T), then tighten the box back to the
least and greatest profiles inside it (``_box_spec``).  The loops and
coloops are the labels whose contraction or deletion leaves no box.

A lattice path matroid is an ``LpdmSpec`` whose two bounds have one
size, so the layers and the envelope are specs like any other: between
sets of one size, the Gale order is the elementwise order of their
sorted tuples.

One int encoding serves subsets and families: bit i - 1 stands for
ground position i.  A spec stores its bounds as ``SubsetMask``s and a
``SetFamily`` its members as such ints.  Equality, hashing, counting,
membership, the exchange axiom, projection and the interval bounds all
work on the masks, and ``jsonio.family_json`` decodes them in one batch;
the label sets ``lower``, ``upper`` and ``members`` are decoded only when
first read.  Derived specs and families are built from masks through
``_trusted``, checked no further.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ArgumentError, DomainError, Frozen, OrderError
from .subsets import SubsetMask, _completions, _decode, gale_leq, interval_size

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "LpdmSpec",
    "SetFamily",
    "catalan_spec",
    "classify_elements",
    "contract",
    "delete",
    "direct_sum",
    "dual",
    "envelope_bases",
    "envelope_ground",
    "envelope_project",
    "exchange_witness",
    "family_interval_bounds",
    "feasible_sets",
    "homogeneous_component",
    "intersect",
    "project_element",
    "relabel",
    "signed_label_set",
]


def _position(ground: tuple[int, ...], label: int) -> int:
    """The position (1-based) of ``label`` in ``ground``, which must hold it."""
    if type(label) is int and label in ground:
        return ground.index(label) + 1
    raise ArgumentError(f"label {label!r} is not in the ground {ground!r}")


def _check_ground(ground: tuple[int, ...]) -> None:
    if any(type(g) is not int for g in ground):
        raise ArgumentError(f"ground labels must be integers: {ground!r}")
    if len(set(ground)) != len(ground):
        raise ArgumentError(f"ground labels must be distinct: {ground!r}")


class LpdmSpec(Frozen):
    """The delta matroid with feasible sets the Gale interval [lower, upper].

    A spec stores its ground and its two bounds as positional masks; the
    label sets ``lower`` and ``upper`` are decoded on first read.
    """

    _fields = ("ground", "_lower_mask", "_upper_mask")

    def __init__(self, ground: tuple[int, ...], lower: frozenset[int], upper: frozenset[int]) -> None:
        ground = tuple(ground)
        _check_ground(ground)
        lower, upper = frozenset(lower), frozenset(upper)
        masks = []
        for side in (lower, upper):
            if any(type(x) is not int for x in side):
                raise ArgumentError(f"bound labels must be integers: {tuple(side)!r}")
            bits = sum(1 << i for i, g in enumerate(ground) if g in side)
            if bits.bit_count() != len(side):  # a label outside the (distinct) ground sets no bit
                raise ArgumentError(f"bound {sorted(side)!r} is not within the ground {ground!r}")
            masks.append(SubsetMask._trusted(len(ground), bits))
        if not gale_leq(*masks):
            raise OrderError(f"lower bound {sorted(lower)!r} is not below {sorted(upper)!r}")
        super().__init__(ground, *masks)

    @classmethod
    def _from_profiles(cls, ground: tuple[int, ...], low, high) -> "LpdmSpec":
        """A spec built inside the package on a checked ground from two
        profiles, each with a closing 0, that are valid and ordered:
        nothing is checked, and the masks start with their profiles."""
        k = len(ground)
        masks = [SubsetMask._trusted(k, sum(1 << j for j in range(k) if p[j] > p[j + 1])) for p in (low, high)]
        for mask, p in zip(masks, (low, high)):
            mask.__dict__["profile"] = tuple(p[:k])
        return cls._trusted(ground, *masks)

    @classmethod
    def of(cls, n: int, lower=(), upper=()) -> "LpdmSpec":
        if type(n) is not int or n < 0:
            raise ArgumentError(f"ground size must be a non-negative integer, got {n!r}")
        return cls(tuple(range(1, n + 1)), frozenset(lower), frozenset(upper))

    @property
    def n(self) -> int:
        return len(self.ground)

    def position(self, label: int) -> int:
        return _position(self.ground, label)

    def labels(self, positions) -> frozenset[int]:
        return frozenset(self.ground[p - 1] for p in positions)

    @cached_property
    def lower(self) -> frozenset[int]:
        return self.labels(self._lower_mask.as_tuple())

    @cached_property
    def upper(self) -> frozenset[int]:
        return self.labels(self._upper_mask.as_tuple())

    def lower_mask(self) -> SubsetMask:
        return self._lower_mask

    def upper_mask(self) -> SubsetMask:
        return self._upper_mask

    def standard_ground(self) -> bool:
        return self.ground == tuple(range(1, self.n + 1))

    def __repr__(self) -> str:
        return f"LpdmSpec(ground={self.ground!r}, lower={self.lower!r}, upper={self.upper!r})"


def _canonical(masks, n: int) -> tuple[int, ...]:
    """Distinct bitmasks over n positions in canonical order: by size,
    then by their sorted positions.  Of two sets of one size, the one
    holding the least position where they differ comes first, so it has
    the greater bit-reversed mask."""
    return tuple(sorted(set(masks), key=lambda x: (x.bit_count(), -int(bin(x | 1 << n)[:2:-1] or "0", 2))))


class SetFamily(Frozen):
    """A finite family of subsets of a labelled ground, kept in the
    canonical order (by size, then by ground position).

    A family stores its ground and each member as an int bitmask over
    ground positions (bit i - 1 for position i).  Length, membership,
    equality, hashing, the exchange axiom and the JSON writer read the
    masks; the frozenset ``members`` are decoded on first read and kept,
    and ``repr`` goes through them.
    """

    _fields = ("ground", "_masks")

    def __init__(self, ground: tuple[int, ...], members: tuple[frozenset[int], ...]) -> None:
        ground = tuple(ground)
        _check_ground(ground)
        bit = {g: 1 << i for i, g in enumerate(ground)}
        masks = []
        for m in members:
            fs = frozenset(m)
            if any(type(x) is not int for x in fs):
                raise ArgumentError(f"member labels must be integers: {tuple(fs)!r}")
            if not fs <= bit.keys():
                raise ArgumentError(f"member {sorted(fs)!r} is not within the ground {ground!r}")
            masks.append(sum(bit[x] for x in fs))
        super().__init__(ground, _canonical(masks, len(ground)))

    @cached_property
    def members(self) -> tuple[frozenset[int], ...]:
        return tuple(_decode(self._masks, self.ground, frozenset))

    def __len__(self) -> int:
        return len(self._masks)

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        return frozenset(self._masks)

    @cached_property
    def _bit(self) -> dict[int, int]:
        return {g: 1 << i for i, g in enumerate(self.ground)}

    def __contains__(self, fs) -> bool:
        bit, fs = self._bit, frozenset(fs)
        return all(type(x) is int for x in fs) and fs <= bit.keys() and sum(bit[x] for x in fs) in self._mask_set

    def __repr__(self) -> str:
        return f"SetFamily(ground={self.ground!r}, members={self.members!r})"


def feasible_sets(m: LpdmSpec) -> SetFamily:
    """Enumerate the Gale interval [lower, upper] as bitmasks over the
    ground, in canonical order."""
    return SetFamily._trusted(m.ground, _completions(m.lower_mask().profile, m.upper_mask().profile))


def exchange_witness(family: SetFamily):
    """None if the symmetric exchange axiom holds, else a witness
    (A1, A2, e) with e in the symmetric difference such that no f in the
    symmetric difference (f = e allowed) makes A1 xor {e, f} feasible.

    Members are read as bitmasks over the ground.  Take an A1 and an e
    with A1 xor {e} infeasible (else f = e serves every A2), and let K
    be e together with every f that makes A1 xor {e, f} feasible.  The
    pair (A1, A2) fails at e exactly when A2 & K == (A1 & K) xor {e}, so
    one lookup in the projections {A & K : A in F}, built once per K,
    tells whether any A2 fails: O(|F| n^2) set lookups in all.  Only for
    the first A1 that fails are the pairs scanned, so the witness is the
    first (A2, e) in the canonical order of members and the iteration
    order of A1 xor A2.
    """
    masks = family._masks
    if not masks:
        raise DomainError("the empty family has no feasible sets to exchange")
    feasible = family._mask_set
    bits = [1 << i for i in range(len(family.ground))]
    projections: dict[int, set[int]] = {}
    for j, x in enumerate(masks):
        for b in bits:
            y = x ^ b
            if y in feasible:
                continue
            k = sum(c for c in bits if y ^ c in feasible)  # holds b, as y ^ b = x
            if k not in projections:
                projections[k] = {m & k for m in masks}
            if (x & k) ^ b in projections[k]:
                return _first_failure(family, family.members[j])
    return None


def _first_failure(family: SetFamily, a1: frozenset[int]):
    """The first (A1, A2, e) that breaks the exchange axiom for a given
    A1, by scanning every A2 and every e, f in their difference."""
    members = set(family.members)
    for a2 in family.members:
        diff = a1 ^ a2
        for e in diff:
            if not any(a1 ^ {e, f} in members for f in diff):
                return (a1, a2, e)


def classify_elements(m: LpdmSpec) -> tuple[frozenset[int], frozenset[int]]:
    """(loops, coloops) as label sets, read off ``_minor``: a loop is in
    no feasible set, so contracting it leaves none, and a coloop is in
    every one, so deleting it leaves none."""
    loops = frozenset(g for g in m.ground if _minor(m, g, 1) is None)
    return (loops, frozenset(g for g in m.ground if _minor(m, g, 0) is None))


def dual(m: LpdmSpec) -> LpdmSpec:
    """Complement every feasible set: the interval [G - T, G - S]."""
    full = (1 << m.n) - 1
    lo, hi = (SubsetMask._trusted(m.n, full ^ x.bits) for x in (m.upper_mask(), m.lower_mask()))
    return LpdmSpec._trusted(m.ground, lo, hi)


def _box_spec(ground: tuple[int, ...], lo, hi):
    """The spec on ``ground`` whose feasible sets are the position sets
    with suffix counts in the integer box lo <= . <= hi: its bounds are
    the least profile above lo and the greatest below hi.  None when
    some low entry exceeds its high entry, as the box then holds none."""
    k = len(ground)
    low, high = [0] * (k + 1), [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        low[j] = max(lo[j], low[j + 1])
        high[j] = min(hi[j], high[j + 1] + 1)
    for j in range(1, k):
        low[j] = max(low[j], low[j - 1] - 1)
        high[j] = min(high[j], high[j - 1])
    if any(x > y for x, y in zip(low, high)):
        return None
    return LpdmSpec._from_profiles(ground, low, high)


def _minor(m: LpdmSpec, label: int, x: int):
    """The feasible sets that hold ``label`` x times (x = 0 or 1), less
    the label, on the ground without it; None when there are none.

    Removing position p lowers F_1..F_p by x, and F_p = F_{p+1} + x, so
    their box entries merge into one.  The constant F_{n+1} = 0 is
    carried as a last entry that must stay inside its box.
    """
    p = m.position(label)
    lo, hi = m.lower_mask().profile + (0,), m.upper_mask().profile + (0,)
    lo = [c - x for c in lo[: p - 1]] + [max(lo[p - 1] - x, lo[p])] + list(lo[p + 1 :])
    hi = [c - x for c in hi[: p - 1]] + [min(hi[p - 1] - x, hi[p])] + list(hi[p + 1 :])
    if not lo[-1] <= 0 <= hi[-1]:
        return None
    return _box_spec(m.ground[: p - 1] + m.ground[p:], lo[:-1], hi[:-1])


def delete(m: LpdmSpec, label: int) -> LpdmSpec:
    """Feasible sets avoiding ``label``, on the ground without it."""
    if (out := _minor(m, label, 0)) is None:
        raise DomainError(f"element {label!r} is a coloop and cannot be deleted")
    return out


def contract(m: LpdmSpec, label: int) -> LpdmSpec:
    """Feasible sets through ``label`` with the element removed, on the
    ground without it."""
    if (out := _minor(m, label, 1)) is None:
        raise DomainError(f"element {label!r} is a loop and cannot be contracted")
    return out


def direct_sum(m1: LpdmSpec, m2: LpdmSpec) -> LpdmSpec:
    """Concatenate grounds (all of m1 ordered before all of m2) and take
    unions of bounds; feasible sets are exactly the unions F1 u F2."""
    if set(m1.ground) & set(m2.ground):
        raise ArgumentError(
            f"grounds overlap: {sorted(set(m1.ground) & set(m2.ground))!r}"
        )
    n1, n = m1.n, m1.n + m2.n
    lo = SubsetMask._trusted(n, m1.lower_mask().bits | m2.lower_mask().bits << n1)
    hi = SubsetMask._trusted(n, m1.upper_mask().bits | m2.upper_mask().bits << n1)
    return LpdmSpec._trusted(m1.ground + m2.ground, lo, hi)


def relabel(m: LpdmSpec, new_ground) -> LpdmSpec:
    """Rename labels positionally (the i-th label becomes new_ground[i-1])."""
    new_ground = tuple(new_ground)
    if len(new_ground) != m.n:
        raise ArgumentError(f"new ground has {len(new_ground)} labels, expected {m.n}")
    _check_ground(new_ground)
    return LpdmSpec._trusted(new_ground, m.lower_mask(), m.upper_mask())


def intersect(m1: LpdmSpec, m2: LpdmSpec):
    """The spec whose feasible sets (and polytope) are the intersection,
    or None when empty: the box between the componentwise max of the
    lower profiles and the componentwise min of the upper profiles.
    """
    if m1.ground != m2.ground:
        raise ArgumentError("intersection needs a common ground")
    c = tuple(map(max, m1.lower_mask().profile, m2.lower_mask().profile))
    d = tuple(map(min, m1.upper_mask().profile, m2.upper_mask().profile))
    return _box_spec(m1.ground, c, d)


def homogeneous_component(m: LpdmSpec, k: int):
    """The layer of feasible sets of size k, or None when empty.

    The size of a set is its first suffix count, so the layer is the box
    of [S, T] with F_1 pinned to k.  It is a lattice path matroid: an
    ``LpdmSpec`` whose two bounds have size k.  Nothing is enumerated.
    """
    n = m.n
    if type(k) is not int or not 0 <= k <= n:
        raise ArgumentError(f"size {k!r} outside [0, {n}]")
    if n == 0:
        return m
    a, b = m.lower_mask().profile, m.upper_mask().profile
    return _box_spec(m.ground, (max(a[0], k),) + a[1:], (min(b[0], k),) + b[1:])


def envelope_ground(n: int) -> tuple[int, ...]:
    """The signed ground -n < ... < -1 < 1 < ... < n."""
    if type(n) is not int or n < 0:
        raise ArgumentError(f"ground size must be a non-negative integer, got {n!r}")
    return tuple(range(-n, 0)) + tuple(range(1, n + 1))


def signed_label_set(s: SubsetMask) -> frozenset[int]:
    """S together with -i for every i not in S: the n-subset of the
    signed ground that encodes S."""
    return frozenset(i if i in s else -i for i in range(1, s.n + 1))


def envelope_bases(m: LpdmSpec) -> SetFamily:
    """Bases of the enveloping matroid on the signed ground: the
    n-subsets lying elementwise between the signed encodings of the two
    bounds.  Requires the standard ground 1..n."""
    if not m.standard_ground():
        raise ArgumentError("the enveloping matroid is defined over the standard ground 1..n")
    lower, upper = m.lower_mask(), m.upper_mask()
    return feasible_sets(LpdmSpec(envelope_ground(m.n), signed_label_set(lower), signed_label_set(upper)))


def envelope_project(basis: frozenset[int], n: int) -> tuple[Fraction, ...]:
    """Halving projection from the signed cube to the cube: coordinate i
    of the image of the indicator vector of B is ((x_i - x_{-i}) + 1)/2."""
    from fractions import Fraction
    signed, basis = envelope_ground(n), frozenset(basis)
    if len(basis) != n or any(type(x) is not int or x not in signed for x in basis):
        raise ArgumentError(f"expected an n-subset of the signed ground {signed!r}, got {basis!r}")
    return tuple(Fraction((i in basis) - (-i in basis) + 1, 2) for i in range(1, n + 1))


def project_element(family: SetFamily, label: int) -> SetFamily:
    """Drop ``label`` from every member (and from the ground)."""
    p = _position(family.ground, label) - 1
    below = (1 << p) - 1
    # the bits above p move down one place
    masks = [x & below | x >> 1 & ~below for x in family._masks]
    new_ground = family.ground[:p] + family.ground[p + 1 :]
    return SetFamily._trusted(new_ground, _canonical(masks, len(new_ground)))


def family_interval_bounds(family: SetFamily):
    """(lower, upper, is_interval): the bounds of the smallest Gale
    interval that holds the family, and whether the family equals it.
    Families that are not intervals (projections, for instance) report
    False."""
    if not family._masks:
        raise DomainError("empty family")
    n = len(family.ground)
    # suffix count i of a mask: its members from position i + 1 on
    profs = [[(x >> i).bit_count() for i in range(n)] for x in family._masks]
    spec = _box_spec(family.ground, tuple(map(min, zip(*profs))), tuple(map(max, zip(*profs))))
    # the interval holds every (distinct) member, so equal sizes mean equal families
    is_interval = interval_size(spec.lower_mask(), spec.upper_mask()) == len(family)
    return (spec.lower, spec.upper, is_interval)


def catalan_spec(n: int) -> LpdmSpec:
    """The interval of symmetric paths weakly below the staircase that
    begins with an E step, on the ground [2n]: lower bound empty, upper
    bound the odd numbers.  Its feasible count is binomial(2n, n)."""
    if type(n) is not int or n < 1:
        raise ArgumentError(f"n must be a positive integer, got {n!r}")
    return LpdmSpec.of(2 * n, frozenset(), frozenset(range(1, 2 * n, 2)))
