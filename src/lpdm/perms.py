"""Permutations, descent statistics, and the chain <-> permutation bijection.

Saturated chains from S to S u {n} in the Gale order (S a subset of
[n-1]) are counted by the number of permutations of [n] with descent set
exactly S.  A chain is a tuple of ``SubsetMask`` steps.  The bijection:
reading a chain step by step, the move "slide l-1 to l" (or "adjoin 1"
when l = 1) happens exactly once for each l in [n]; record at which step
it happens and call that w(l).

Every descent count here (one descent set, a Gale interval of them, a
number of descents) comes from one transfer-matrix table over suffixes,
``_descent_layers``, in O(n^3) integer additions.  A descent set is a
subset of [n-1] and is read as a ``SubsetMask`` of [n-1], whose member
rule it follows.  Every n, k and box entry must be an ``int``.
"""

from __future__ import annotations

import itertools

from .errors import ArgumentError, DomainError, Frozen
from .subsets import SubsetMask

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


class Permutation(Frozen):
    """A permutation of [n] in one-line notation."""

    _fields = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        images = tuple(images)
        if any(type(v) is not int for v in images) or sorted(images) != list(range(1, len(images) + 1)):
            raise ArgumentError(f"{images!r} is not a permutation of [n]")
        super().__init__(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation._trusted(tuple(inv))

    def descent_set(self) -> SubsetMask:
        """Positions i with w(i) > w(i+1), as a subset of [n-1]."""
        w = self.images
        return SubsetMask._trusted(max(len(w) - 1, 0), sum(1 << i for i in range(len(w) - 1) if w[i] > w[i + 1]))

    def ascent_set(self) -> SubsetMask:
        w = self.images
        return SubsetMask._trusted(max(len(w) - 1, 0), sum(1 << i for i in range(len(w) - 1) if w[i] < w[i + 1]))


def all_permutations(n: int):
    """All permutations of [n] in lexicographic one-line order."""
    if type(n) is not int or n < 0:
        raise ArgumentError(f"n must be a non-negative integer, got {n!r}")
    return map(Permutation._trusted, itertools.permutations(range(1, n + 1)))


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
    if len(lo) != len(hi) or any(type(c) is not int for c in lo + hi):
        raise ArgumentError(f"lo and hi must be integer tuples of the same length, got {lo!r} and {hi!r}")
    if not lo:
        return 1
    for layer in _descent_layers(lo, hi):
        if not layer:
            return 0
    return sum(sum(row) for row in layer.values())


def _descent_profile(n: int, dset) -> tuple[int, ...]:
    """|dset inter [i, n-1]| for i = 1, ..., n: the profile of ``dset``
    read as a ``SubsetMask`` of [n-1], with a closing 0 when n > 0."""
    if type(n) is not int or n < 0:
        raise ArgumentError(f"n must be a non-negative integer, got {n!r}")
    return (SubsetMask(max(n - 1, 0), dset).profile + (0,))[:n]


def count_perms_with_descent_set(n: int, dset) -> int:
    """Number of permutations of [n] with descent set exactly ``dset``."""
    prof = _descent_profile(n, dset)
    return count_perms_in_descent_box(prof, prof)


def perms_with_descent_set(n: int, dset):
    """The permutations of [n] with descent set exactly ``dset``, in
    lexicographic order.

    Values are chosen left to right, and a branch is taken only when the
    suffix table of ``count_perms_with_descent_set`` counts a completion
    for it, so no branch dies: the work follows the output, not n!.
    """
    prof = _descent_profile(n, dset)
    return _descent_walk(n, prof) if n else iter((Permutation._trusted(()),))


def _descent_walk(n: int, prof):
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
            yield Permutation._trusted(prefix)
            continue
        below = layers[len(left) - 1]
        for r2 in range(len(left), 0, -1):
            d2 = d - 1 if r2 < r else d
            row = below.get(d2)
            if row and row[r2 - 1]:
                stack.append((left, prefix, r2, d2))


def eulerian_number(n: int, k: int) -> int:
    """Permutations of [n] with exactly k descents."""
    if type(n) is not int or type(k) is not int or n < 0:
        raise ArgumentError(f"n and k must be integers and n non-negative, got {n!r} and {k!r}")
    if k < 0 or k >= max(n, 1):
        return 0
    return count_perms_in_descent_box((k,) + (0,) * (n - 1), (k,) + (n,) * (n - 1))


def chain_to_permutation(steps: tuple[SubsetMask, ...]) -> Permutation:
    """Read off which step slides l-1 to l (adjoins 1 when l = 1): the
    highest bit that the step flips, bit l - 1.

    The chain must run from some S inside [n-1] to S u {n} in n cover
    steps (a start holding n cannot: S u {n} is then S); anything else
    is rejected.  Each cover raises one suffix count by one, and all n
    rise by one from S to S u {n}, so each l is slid exactly once.
    """
    n = steps[0].n if steps else 0
    if not n or len(steps) != n + 1 or steps[-1].bits != steps[0].bits | 1 << n - 1:
        raise DomainError("chain does not run from S to S u {n} in n steps")
    images = [0] * n
    for idx in range(1, n + 1):
        prev, cur = steps[idx - 1], steps[idx]
        flip = prev.bits ^ cur.bits
        l = flip.bit_length()
        # a cover flips bits l - 2 and l - 1 (bit 0 alone when l = 1) and sets the higher one
        if cur.n != n or not l or flip != 3 << l >> 2 or cur.bits & flip != 1 << l - 1:
            raise DomainError(f"{prev!r} -> {cur!r} is not a cover step")
        images[l - 1] = idx
    return Permutation._trusted(tuple(images))


def permutation_to_chain(p: Permutation, start: SubsetMask) -> tuple[SubsetMask, ...]:
    """Inverse of ``chain_to_permutation``.

    ``start`` must be a subset of [n-1] equal to the descent set of
    ``p``; the chain is rebuilt by applying, at step i, the move that
    slides w^{-1}(i) - 1 to w^{-1}(i) (adjoining 1 when w^{-1}(i) = 1).
    With the descent set checked, every such move is a cover.
    """
    n = p.n
    if start.n != n:
        raise ArgumentError(f"start lives on [{start.n}], permutation on [{n}]")
    if p.descent_set().bits != start.bits:
        raise DomainError(f"descent set of {p.images!r} is not {list(start.as_tuple())!r}")
    cur, steps = start.bits, [start]
    for l in p.inverse().images:  # the element slid at steps 1, ..., n
        cur ^= 3 << l - 2 if l > 1 else 1
        steps.append(SubsetMask._trusted(n, cur))
    return tuple(steps)
