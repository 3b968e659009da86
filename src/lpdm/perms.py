"""Permutations, descent statistics, and the chain <-> permutation bijection.

Saturated chains from S to S u {n} in the Gale order (S a subset of
[n-1]) are counted by the number of permutations of [n] with descent set
exactly S.  The bijection: reading a chain step by step, the move
"slide l-1 to l" (or "adjoin 1" when l = 1) happens exactly once for
each l in [n]; record at which step it happens and call that w(l).

Every descent count here (one descent set, a Gale interval of them, a
number of descents) comes from one transfer-matrix table over suffixes,
``_descent_layers``, in O(n^3) integer additions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ArgumentError, DomainError
from .subsets import GaleChain, SubsetMask, profile

__all__ = [
    "Permutation",
    "all_permutations",
    "chain_to_permutation",
    "count_perms_in_descent_box",
    "count_perms_with_descent_set",
    "eulerian_number",
    "permutation_to_chain",
    "perms_with_descent_set",
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


def _descent_layers(lo, hi):
    """The transfer-matrix table behind every descent count here.

    Permutations are built right to left.  For k = 1, ..., n, yield the
    layer of suffixes of length k, i.e. positions i = n-k+1, ..., n: a
    dict sending d to a list whose entry r-1 counts the arrangements of
    k values in which the first is the r-th smallest, d of the positions
    i, ..., n-1 are descents, and lo_j <= (descents at positions j, ...,
    n-1) <= hi_j holds for every j >= i.  Placing a new first value of
    rank r' above the old first value (rank r < r') makes a descent, so
    each step is one prefix sum per d (de Bruijn 1970; Stanley, EC1
    section 1.4), and the whole table costs O(n^3) additions.
    """
    n = len(lo)
    layer = {0: [1]} if lo[n - 1] <= 0 <= hi[n - 1] else {}
    yield layer
    for i in range(n - 1, 0, -1):
        a, b = lo[i - 1], hi[i - 1]
        nxt: dict[int, list[int]] = {}
        for d, row in layer.items():
            below = list(itertools.accumulate(row, initial=0))
            if a <= d <= b:
                total = below[-1]
                _add_row(nxt, d, [total - x for x in below])
            if a <= d + 1 <= b:
                _add_row(nxt, d + 1, below)
        layer = nxt
        yield layer


def _add_row(layer: dict[int, list[int]], d: int, row: list[int]) -> None:
    old = layer.get(d)
    layer[d] = row if old is None else [x + y for x, y in zip(old, row)]


def count_perms_in_descent_box(lo, hi) -> int:
    """Number of permutations of [n], n = len(lo), whose descent set D
    satisfies lo_i <= |D inter [i, n-1]| <= hi_i for every i in [n].

    With lo and hi the profiles of subsets of [n-1] this counts the
    permutations whose descent set lies in that Gale interval.
    """
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != len(hi):
        raise ArgumentError("lo and hi must have the same length")
    if not lo:
        return 1
    for layer in _descent_layers(lo, hi):
        if not layer:
            return 0
    return sum(sum(row) for row in layer.values())


def _descent_profile(n: int, dset) -> tuple[int, ...]:
    """|dset inter [i, n-1]| for i = 1, ..., n."""
    return profile(SubsetMask(n, frozenset(_normalize_descents(max(n, 1), dset))))


def count_perms_with_descent_set(n: int, dset) -> int:
    """Number of permutations of [n] with descent set exactly ``dset``."""
    if n < 0:
        raise ArgumentError("n must be non-negative")
    prof = _descent_profile(n, dset)
    return count_perms_in_descent_box(prof, prof)


def perms_with_descent_set(n: int, dset):
    """The permutations of [n] with descent set exactly ``dset``, in
    lexicographic order.

    Values are chosen left to right, and a branch is taken only when the
    suffix table of ``count_perms_with_descent_set`` counts a completion
    for it, so no branch dies: the work follows the output, not n!.
    """
    if n < 0:
        raise ArgumentError("n must be non-negative")
    prof = _descent_profile(n, dset)
    if n == 0:
        yield Permutation(())
        return
    layers = list(_descent_layers(prof, prof))
    # a state (values left, prefix, r, d): the next value is the r-th
    # smallest left, and the suffix it starts has d descents; with the
    # descent set fixed, each layer holds a single d
    [(d, row)] = layers[-1].items()
    stack = [(tuple(range(1, n + 1)), (), r, d) for r in range(len(row), 0, -1) if row[r - 1]]
    while stack:
        left, prefix, r, d = stack.pop()
        prefix += (left[r - 1],)
        left = left[: r - 1] + left[r:]
        if not left:
            yield Permutation(prefix)
            continue
        below = layers[len(left) - 1]
        for r2 in range(len(left), 0, -1):
            d2 = d - 1 if r2 < r else d
            row = below.get(d2)
            if row and row[r2 - 1]:
                stack.append((left, prefix, r2, d2))


def eulerian_number(n: int, k: int) -> int:
    """Permutations of [n] with exactly k descents."""
    if n < 0:
        raise ArgumentError("n must be non-negative")
    if k < 0 or k >= max(n, 1):
        return 0
    return count_perms_in_descent_box((k,) + (0,) * (n - 1), (k,) + (n,) * (n - 1))


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
