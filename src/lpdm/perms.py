"""Permutations, descent statistics, and the chain <-> permutation bijection.

Saturated chains from S to S u {n} in the Gale order (S a subset of
[n-1]) are counted by the number of permutations of [n] with descent set
exactly S.  The bijection: reading a chain step by step, the move
"slide l-1 to l" (or "adjoin 1" when l = 1) happens exactly once for
each l in [n]; record at which step it happens and call that w(l).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ArgumentError, DomainError
from .subsets import GaleChain, SubsetMask

__all__ = [
    "Permutation",
    "all_permutations",
    "chain_to_permutation",
    "count_perms_with_descent_set",
    "eulerian_number",
    "permutation_to_chain",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ArgumentError(f"{images!r} is not a permutation of [n]")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ArgumentError(f"position {i} outside [1, {self.n}]")
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def descent_set(self) -> SubsetMask:
        """Positions i with w(i) > w(i+1), as a subset of [n-1]."""
        n = self.n
        members = {i for i in range(1, n) if self.images[i - 1] > self.images[i]}
        return SubsetMask(max(n - 1, 0), frozenset(members))

    def ascent_set(self) -> SubsetMask:
        n = self.n
        members = {i for i in range(1, n) if self.images[i - 1] < self.images[i]}
        return SubsetMask(max(n - 1, 0), frozenset(members))


def all_permutations(n: int):
    """All permutations of [n] in lexicographic one-line order."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def _normalize_descents(n: int, dset) -> tuple[int, ...]:
    if isinstance(dset, SubsetMask):
        members = sorted(dset.members)
    else:
        members = sorted(set(dset))
    for d in members:
        if not isinstance(d, int) or not 1 <= d <= n - 1:
            raise ArgumentError(f"descent position {d!r} outside [1, {n - 1}]")
    return tuple(members)


def _perms_with_descents_inside(n: int, cut: tuple[int, ...]) -> int:
    # multinomial: permutations whose descent set is contained in `cut`
    parts = []
    prev = 0
    for c in cut + (n,):
        parts.append(c - prev)
        prev = c
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def count_perms_with_descent_set(n: int, dset) -> int:
    """Number of permutations of [n] with descent set exactly ``dset``.

    Inclusion-exclusion over the multinomials that count permutations
    with descents contained in a given set.
    """
    if n < 0:
        raise ArgumentError("n must be non-negative")
    if n == 0:
        return 1 if not _normalize_descents(1, dset) else 0
    members = _normalize_descents(n, dset)
    total = 0
    for r in range(len(members) + 1):
        for sub in itertools.combinations(members, r):
            sign = -1 if (len(members) - r) % 2 else 1
            total += sign * _perms_with_descents_inside(n, sub)
    return total


def eulerian_number(n: int, k: int) -> int:
    """Permutations of [n] with exactly k descents."""
    if n < 0:
        raise ArgumentError("n must be non-negative")
    if k < 0 or k >= max(n, 1):
        return 0
    row = [1]
    for m in range(2, n + 1):
        prev = row
        row = [0] * m
        for j in range(m):
            row[j] = (j + 1) * (prev[j] if j < m - 1 else 0) + (m - j) * (prev[j - 1] if j >= 1 else 0)
        # row built from A(m-1, .)
        row = row[: m]
    return row[k] if k < len(row) else 0


def chain_to_permutation(chain: GaleChain) -> Permutation:
    """Read off which step slides l-1 to l (adjoins 1 when l = 1).

    The chain must run from some S inside [n-1] to S u {n} in n cover
    steps; anything else is rejected.
    """
    steps = chain.steps
    n = chain.n
    start, end = steps[0], steps[-1]
    if n in start.members or len(steps) != n + 1 or end.members != (start.members | {n}):
        raise DomainError("chain does not run from S to S u {n} in n steps")
    images = [0] * n
    for idx in range(1, len(steps)):
        added = steps[idx].members - steps[idx - 1].members
        removed = steps[idx - 1].members - steps[idx].members
        if not removed and added == {1}:
            slid = 1
        elif len(added) == 1 and len(removed) == 1:
            (a,) = added
            (r,) = removed
            if r != a - 1:
                raise DomainError(f"step {idx} is not a slide or an adjoin-1 move")
            slid = a
        else:
            raise DomainError(f"step {idx} is not a slide or an adjoin-1 move")
        if images[slid - 1]:
            raise DomainError(f"element {slid} is produced twice along the chain")
        images[slid - 1] = idx
    return Permutation(tuple(images))


def permutation_to_chain(p: Permutation, start: SubsetMask) -> GaleChain:
    """Inverse of ``chain_to_permutation``.

    ``start`` must be a subset of [n-1] equal to the descent set of
    ``p``; the chain is rebuilt by applying, at step i, the move that
    slides w^{-1}(i) - 1 to w^{-1}(i) (adjoining 1 when w^{-1}(i) = 1).
    """
    n = p.n
    if start.n != n:
        raise ArgumentError(f"start lives on [{start.n}], permutation on [{n}]")
    if p.descent_set().members != start.members:
        raise DomainError(f"descent set of {p.images!r} is not {sorted(start.members)!r}")
    order = p.inverse().images  # order[i-1] = the element slid at step i
    cur = set(start.members)
    steps = [start]
    for i in range(1, n + 1):
        l = order[i - 1]
        if l == 1:
            if 1 in cur:
                raise DomainError("cannot adjoin 1 twice")
            cur.add(1)
        else:
            if l - 1 not in cur or l in cur:
                raise DomainError(f"cannot slide {l - 1} to {l} at step {i}")
            cur.discard(l - 1)
            cur.add(l)
        steps.append(SubsetMask(n, frozenset(cur)))
    return GaleChain(tuple(steps))
