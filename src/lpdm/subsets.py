"""Subsets of an ordered ground set and the signed (type C) Gale order.

A subset S of {1, ..., n} is encoded by its suffix-count profile

    profile(S)_i = |{s in S : s >= i}|,   i = 1, ..., n.

Profiles are exactly the integer vectors p with p_n in {0, 1} and
p_i - p_{i+1} in {0, 1}; the map S -> profile(S) is a bijection.  The
Gale order used throughout this package is suffix-count dominance:

    S <= T   iff   profile(S)_i <= profile(T)_i for every i,

which agrees with the classical pairwise definition (largest elements
compared first; ``lpdm.selftest`` keeps that form as a reference).  The
order is graded by ``gale_rank`` (the element sum), and intervals [S, T]
in it are the feasible-set families of everything built on top of this
module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import ArgumentError, DomainError, OrderError

__all__ = [
    "SubsetMask",
    "GaleChain",
    "all_subsets",
    "cover_successors",
    "count_maximal_chains",
    "gale_leq",
    "gale_rank",
    "interval",
    "is_valid_profile",
    "mask_from_profile",
    "profile",
    "profile_bounds",
    "sort_key",
]


@dataclass(frozen=True)
class SubsetMask:
    """A subset of the ground set {1, ..., n}."""

    n: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise ArgumentError(f"ground size must be a non-negative integer, got {self.n!r}")
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        for x in members:
            if not isinstance(x, int) or not 1 <= x <= self.n:
                raise ArgumentError(f"member {x!r} outside ground set [1, {self.n}]")

    @classmethod
    def of(cls, n: int, members=()) -> "SubsetMask":
        return cls(n, frozenset(members))

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.n, frozenset(range(1, self.n + 1)) - self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        inner = ",".join(str(x) for x in self.as_tuple())
        return f"SubsetMask({self.n}, {{{inner}}})"


def sort_key(s: SubsetMask) -> tuple[int, tuple[int, ...]]:
    """Canonical listing order: by cardinality, then lexicographically."""
    return (len(s.members), s.as_tuple())


def all_subsets(n: int):
    """All subsets of [n] in canonical order."""
    ground = range(1, n + 1)
    for k in range(n + 1):
        for combo in itertools.combinations(ground, k):
            yield SubsetMask(n, frozenset(combo))


def _require_same_n(s: SubsetMask, t: SubsetMask) -> None:
    if s.n != t.n:
        raise ArgumentError(f"mismatched ground sizes {s.n} and {t.n}")


def profile(s: SubsetMask) -> tuple[int, ...]:
    """Suffix counts (|S inter {i, ..., n}|) for i = 1, ..., n."""
    out = [0] * (s.n + 1)
    for i in range(s.n, 0, -1):
        out[i - 1] = out[i] + (1 if i in s.members else 0)
    return tuple(out[: s.n])


def is_valid_profile(counts) -> bool:
    counts = tuple(counts)
    n = len(counts)
    if any(not isinstance(c, int) for c in counts):
        return False
    for i in range(n):
        nxt = counts[i + 1] if i + 1 < n else 0
        if counts[i] - nxt not in (0, 1):
            return False
    return True


def mask_from_profile(counts) -> SubsetMask:
    """Inverse of ``profile``; rejects vectors that are not profiles."""
    counts = tuple(counts)
    if not is_valid_profile(counts):
        raise ArgumentError(f"{counts!r} is not a suffix-count profile")
    n = len(counts)
    members = set()
    for i in range(1, n + 1):
        nxt = counts[i] if i < n else 0
        if counts[i - 1] - nxt == 1:
            members.add(i)
    return SubsetMask(n, frozenset(members))


def gale_leq(s: SubsetMask, t: SubsetMask) -> bool:
    """Suffix-count dominance order on subsets of [n]."""
    _require_same_n(s, t)
    return all(a <= b for a, b in zip(profile(s), profile(t)))


def profile_bounds(masks) -> tuple[SubsetMask, SubsetMask]:
    """The componentwise minimum and maximum of the profiles of a
    nonempty list of subsets of [n]: the bounds of the smallest Gale
    interval that holds them all."""
    profs = [profile(s) for s in masks]
    lo = tuple(min(col) for col in zip(*profs))
    hi = tuple(max(col) for col in zip(*profs))
    return mask_from_profile(lo), mask_from_profile(hi)


def gale_rank(s: SubsetMask) -> int:
    """Rank in the order: the sum of the members."""
    return sum(s.members)


def interval(lower: SubsetMask, upper: SubsetMask) -> list[SubsetMask]:
    """All subsets A with lower <= A <= upper, in canonical order."""
    _require_same_n(lower, upper)
    if not gale_leq(lower, upper):
        raise OrderError(f"{lower!r} is not below {upper!r} in the Gale order")
    n = lower.n
    a, b = profile(lower), profile(upper)
    # Choose membership from position n down; c = |A inter {i+1, ..., n}|.
    found: list[SubsetMask] = []
    stack: list[tuple[int, int, frozenset[int]]] = [(n, 0, frozenset())]
    while stack:
        i, c, acc = stack.pop()
        if i == 0:
            found.append(SubsetMask(n, acc))
            continue
        if a[i - 1] <= c <= b[i - 1]:
            stack.append((i - 1, c, acc))
        if a[i - 1] <= c + 1 <= b[i - 1]:
            stack.append((i - 1, c + 1, acc | {i}))
    found.sort(key=sort_key)
    return found


def cover_successors(s: SubsetMask) -> list[SubsetMask]:
    """Subsets covering S: slide some i in S to i+1, or adjoin 1."""
    out = []
    if s.n >= 1 and 1 not in s.members:
        out.append(SubsetMask(s.n, s.members | {1}))
    for i in sorted(s.members):
        if i + 1 <= s.n and i + 1 not in s.members:
            out.append(SubsetMask(s.n, (s.members - {i}) | {i + 1}))
    out.sort(key=sort_key)
    return out


def count_maximal_chains(lower: SubsetMask, upper: SubsetMask) -> int:
    """Number of saturated chains from ``lower`` to ``upper``."""
    _require_same_n(lower, upper)
    if not gale_leq(lower, upper):
        raise OrderError(f"{lower!r} is not below {upper!r} in the Gale order")
    # every cover raises the rank by one, so the chains reach upper after
    # exactly this many steps, and nothing else below upper has its rank;
    # a cover that adds e raises only the profile entry at e, so a
    # successor of a set below upper stays below iff that entry does
    top = profile(upper)
    ways = {lower.members: 1}
    for _ in range(gale_rank(upper) - gale_rank(lower)):
        step: dict[frozenset[int], int] = {}
        for ms, count in ways.items():
            for nxt in cover_successors(SubsetMask(lower.n, ms)):
                (e,) = nxt.members - ms
                if sum(1 for x in nxt.members if x >= e) <= top[e - 1]:
                    step[nxt.members] = step.get(nxt.members, 0) + count
        ways = step
    return ways[upper.members]


@dataclass(frozen=True)
class GaleChain:
    """A saturated chain: consecutive steps are covers (rank goes up by 1)."""

    steps: tuple[SubsetMask, ...]

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ArgumentError("a chain needs at least one subset")
        n = steps[0].n
        for s in steps:
            if s.n != n:
                raise ArgumentError("chain mixes ground sizes")
        for prev, cur in zip(steps, steps[1:]):
            if gale_rank(cur) != gale_rank(prev) + 1 or not gale_leq(prev, cur):
                raise DomainError(f"{prev!r} -> {cur!r} is not a cover step")

    @property
    def n(self) -> int:
        return self.steps[0].n

    def __len__(self) -> int:
        return len(self.steps)
