"""Subsets of an ordered ground set and the signed (type C) Gale order.

A subset S of {1, ..., n} is a ``SubsetMask``: an int bitmask with bit
i - 1 set for each member i.  The interval enumerator, the covers, the
chain counts and the specs of ``lpdm.matroid`` build and read that int;
the frozenset of members is decoded only when a caller reads it.  The
order reads the suffix-count profile

    S.profile[i - 1] = |{s in S : s >= i}| = popcount(bits >> (i - 1)),

which a ``SubsetMask`` computes on first use and keeps.  Profiles are
exactly the integer vectors p with p_n in {0, 1} and p_i - p_{i+1} in
{0, 1}; the map S -> S.profile is a bijection.  The Gale order used
throughout this package is suffix-count dominance:

    S <= T   iff   S.profile[i] <= T.profile[i] for every i,

which agrees with the classical pairwise definition (largest elements
compared first; ``lpdm.selftest`` keeps that form as a reference).  The
order is graded by ``gale_rank`` (the element sum), and intervals [S, T]
in it are the feasible-set families of everything built on top of this
module.  Between two k-subsets it is the elementwise order of their
sorted tuples, so ``interval`` also enumerates every ordinary lattice
path matroid, and the size-k layer of [S, T] is the interval between
max(S.profile, {1..k}.profile) and min(T.profile, {n-k+1..n}.profile),
taken componentwise.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from .errors import ArgumentError, Frozen, OrderError

__all__ = [
    "SubsetMask",
    "all_subsets",
    "cover_successors",
    "count_maximal_chains",
    "gale_leq",
    "gale_rank",
    "interval",
    "interval_size",
    "is_valid_profile",
    "mask_from_profile",
    "sort_key",
]


class SubsetMask(Frozen):
    """A subset of the ground set {1, ..., n}, held as the int bitmask
    ``bits`` (bit i - 1 for member i).  Its frozenset ``members`` are
    decoded on first read and kept, and ``repr`` goes through them;
    equality and ``hash`` read ``(n, bits)``."""

    _fields = ("n", "bits")

    def __init__(self, n: int, members: frozenset[int] = frozenset()) -> None:
        if type(n) is not int or n < 0:
            raise ArgumentError(f"ground size must be a non-negative integer, got {n!r}")
        members = frozenset(members)
        bits = 0
        for x in members:
            if type(x) is not int or not 1 <= x <= n:
                raise ArgumentError(f"member {x!r} outside ground set [1, {n}]")
            bits |= 1 << x - 1
        self.__dict__.update(n=n, bits=bits, members=members)

    @classmethod
    def _trusted(cls, n: int, bits: int) -> "SubsetMask":
        """A mask built inside the package from bits already known to lie
        below bit n: nothing is checked."""
        s = object.__new__(cls)
        s.__dict__.update(n=n, bits=bits)
        return s

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.as_tuple())

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(_spell(self.bits, range(1, self.n + 1), None))

    @cached_property
    def profile(self) -> tuple[int, ...]:
        """Suffix counts |S inter {i, ..., n}| for i = 1, ..., n."""
        bits = self.bits
        return tuple([(bits >> i).bit_count() for i in range(self.n)])

    def __contains__(self, x: int) -> bool:
        return type(x) is int and 0 < x <= self.n and self.bits >> x - 1 & 1 == 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    # masks are set members on the enumeration hot paths: compare the fields directly
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        inner = ",".join(map(str, self.as_tuple()))
        return f"SubsetMask({self.n}, {{{inner}}})"


def sort_key(s: SubsetMask) -> tuple[int, tuple[int, ...]]:
    """Canonical listing order: by cardinality, then lexicographically."""
    return (len(s), s.as_tuple())


def all_subsets(n: int):
    """All subsets of [n] in canonical order."""
    if type(n) is not int or n < 0:
        raise ArgumentError(f"ground size must be a non-negative integer, got {n!r}")
    return (SubsetMask._trusted(n, x) for x in _completions((0,) * n, tuple(range(n, 0, -1))))


def _require_same_n(s: SubsetMask, t: SubsetMask) -> None:
    if s.n != t.n:
        raise ArgumentError(f"mismatched ground sizes {s.n} and {t.n}")


def is_valid_profile(counts) -> bool:
    """Is ``counts`` the profile of a subset: ints, each 0 or 1 above the next, the last 0 or 1?"""
    counts = tuple(counts)
    return all(type(c) is int for c in counts) and all(a - b in (0, 1) for a, b in zip(counts, counts[1:] + (0,)))


def mask_from_profile(counts) -> SubsetMask:
    """Inverse of ``SubsetMask.profile``; rejects vectors that are not profiles."""
    counts = tuple(counts)
    if not is_valid_profile(counts):
        raise ArgumentError(f"{counts!r} is not a suffix-count profile")
    n, ends = len(counts), counts[1:] + (0,)
    # member i is where the suffix count drops: counts[i - 1] > counts[i]
    return SubsetMask._trusted(n, sum(1 << i for i in range(n) if counts[i] > ends[i]))


def gale_leq(s: SubsetMask, t: SubsetMask) -> bool:
    """Suffix-count dominance order on subsets of [n]."""
    _require_same_n(s, t)
    return all(a <= b for a, b in zip(s.profile, t.profile))


def gale_rank(s: SubsetMask) -> int:
    """Rank in the order: the sum of the members (of the suffix counts)."""
    return sum(s.profile)


def _require_interval(lower: SubsetMask, upper: SubsetMask) -> None:
    _require_same_n(lower, upper)
    if not gale_leq(lower, upper):
        raise OrderError(f"{lower!r} is not below {upper!r} in the Gale order")


def _completions(a, b, fix=None) -> tuple[int, ...]:
    """Every position set of [n] whose suffix counts lie in the box
    a <= . <= b, as an int bitmask (bit i - 1 for position i), in
    canonical order (by size, then lexicographically).

    ``fix = (i, level)`` keeps position i in every set (level 1) or out
    of every set (level 0).  A first pass from position 1 up narrows the
    box to the suffix counts that a choice on the positions before i can
    reach.  Then, from position n down, ``row[c]`` lists the completions
    inside {i, ..., n} with c members, those holding i first, so each
    row is in lexicographic order and the sizes come out ascending.
    Every completion built is part of a member: setup is O(n^2), and
    each member costs O(n) integer additions.
    """
    n = len(a)
    p, level = fix or (0, None)
    reach = []
    lo, hi = 0, n
    for i in range(1, n + 1):
        lo, hi = max(lo, a[i - 1]), min(hi, b[i - 1])
        reach.append((lo, hi))
        # the count passed on to position i + 1 is one less where i is taken
        lo -= i != p or level == 1
        hi -= i == p and level == 1
    row = {0: [0]}
    for i in range(n, 0, -1):
        bit = 1 << (i - 1)
        take, skip = (level != 0, level != 1) if i == p else (True, True)
        lo, hi = reach[i - 1]
        nxt = {}
        for c in range(lo, hi + 1):
            out = [bit + t for t in row.get(c - 1, ())] if take else []
            if skip and c in row:
                out += row[c]
            if out:
                nxt[c] = out
        row = nxt
    return tuple(itertools.chain.from_iterable(row.values()))


@lru_cache(maxsize=8)
def _half_tables(labels: tuple[int, ...], kind, zero) -> tuple[tuple, tuple]:
    """For the low and the high half of the bits of a mask over
    ``labels`` (bit i for labels[i]), the spelling of every value the
    half can take, as a ``kind``: a set bit i spells labels[i], and a
    clear one spells ``zero``, or nothing when ``zero`` is None."""
    w = (len(labels) + 1) // 2
    skip = () if zero is None else (zero,)
    halves = []
    for part in (labels[:w], labels[w:]):
        table = [()]
        for label in part:
            table = [t + skip for t in table] + [t + (label,) for t in table]
        halves.append(tuple(map(kind, table)))
    return tuple(halves)


def _spell(x: int, labels: tuple[int, ...], zero) -> list[int]:
    if zero is not None:
        return [labels[i] if x >> i & 1 else zero for i in range(len(labels))]
    out = []
    while x:
        low = x & -x
        out.append(labels[low.bit_length() - 1])
        x ^= low
    return out


def _decode(masks, labels: tuple[int, ...], kind, zero=None) -> list:
    """Each bitmask over ``labels`` spelled as in ``_half_tables``, as a
    tuple (in position order) or a frozenset.

    On a ground of up to 24 labels, with at least as many masks as one
    half table has entries, each half of a mask is read from a table and
    the two are joined: frozensets with ``|``, which copies their hash
    tables and rehashes nothing.  Otherwise each mask is spelled bit by
    bit, so a small family or a long ground builds no table."""
    w = (len(labels) + 1) // 2
    if len(labels) > 24 or 1 << w > len(masks):
        return [kind(_spell(x, labels, zero)) for x in masks]
    low, high = _half_tables(labels, kind, zero)
    below = (1 << w) - 1
    if kind is frozenset:
        return [low[x & below] | high[x >> w] for x in masks]
    return [low[x & below] + high[x >> w] for x in masks]


def interval(lower: SubsetMask, upper: SubsetMask) -> list[SubsetMask]:
    """All subsets A with lower <= A <= upper, in canonical order."""
    _require_interval(lower, upper)
    n, mask = lower.n, SubsetMask._trusted
    return [mask(n, x) for x in _completions(lower.profile, upper.profile)]


def interval_size(lower: SubsetMask, upper: SubsetMask) -> int:
    """|[lower, upper]|, counted in O(n^2) integer steps without listing it."""
    _require_interval(lower, upper)
    a, b = lower.profile, upper.profile
    # row[c]: position sets inside {i, ..., n} with c members whose suffix counts stay in the box
    row = [1]
    for i in range(lower.n, 0, -1):
        prev = row + [0]  # so prev[c - 1] reads 0 at c = 0
        row = [prev[c] + prev[c - 1] if a[i - 1] <= c <= b[i - 1] else 0 for c in range(len(prev))]
    return sum(row)


def _covers(x: int, n: int):
    """(b, y) for each mask y covering the mask x over [n], b being the
    bit that y sets, in canonical order: slide each movable bit of x
    (set, with the bit above it clear and inside [n]) up one place,
    highest first, as a larger slid element gives the lexicographically
    smaller set; then adjoin 1 (set bit 0) when it is clear."""
    movable = x & ~(x >> 1) & ((1 << n) - 1) >> 1
    while movable:
        b = movable.bit_length()  # the slide clears bit b - 1 and sets bit b
        movable ^= 1 << b - 1
        yield b, x ^ 3 << b - 1
    if n and not x & 1:
        yield 0, x | 1


def cover_successors(s: SubsetMask) -> list[SubsetMask]:
    """Subsets covering S, in canonical order: slide some i in S to i+1
    (larger i first gives the lexicographically smaller set), then
    adjoin 1.  Built on the bits of S."""
    n, mask = s.n, SubsetMask._trusted
    return [mask(n, y) for _, y in _covers(s.bits, n)]


def count_maximal_chains(lower: SubsetMask, upper: SubsetMask) -> int:
    """Saturated chains from ``lower`` to ``upper``, counted rank by rank on bitmasks."""
    _require_interval(lower, upper)
    # every cover raises the rank by one, so the chains reach upper after
    # exactly this many steps, and nothing else below upper has its rank;
    # a cover that sets bit b raises only the suffix count at b + 1, so a
    # successor of a set below upper stays below iff that count does
    n, top = lower.n, upper.profile
    ways = {lower.bits: 1}
    for _ in range(gale_rank(upper) - gale_rank(lower)):
        step: dict[int, int] = {}
        for x, count in ways.items():
            for b, y in _covers(x, n):
                if (y >> b).bit_count() <= top[b]:
                    step[y] = step.get(y, 0) + count
        ways = step
    return ways[upper.bits]

