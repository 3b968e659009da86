"""The Eulerian unimodular triangulation of the cube, restricted to cells.

The cube [0, 1]^n is the disjoint union (up to measure zero) of n!
simplices, one per permutation w: the image of the order simplex

    0 <= x_{w(1)} <= ... <= x_{w(n)} <= 1

under the volume-preserving change of coordinates

    y_n = x_1,    y_{n-i} = x_{i+1} - x_i + [w^{-1}(i+1) < w^{-1}(i)].

Each image simplex is unimodular, and all of it lies inside exactly one
"snake" cell: a polytope with bounds [S, S u {n}] for a unique subset S
of [n-1] (``simplex_cell``).  Collecting the simplices of a cell
triangulates it (``triangulate_toric``).  The simplex of w lies in the
cell of S exactly when w^{-1} has descent set {n - s : s in S}, so a
linked interval polytope with bounds [S, T], a union of the cells
[R, R u {n}] for R between S and T minus n (``subdivide``), has volume
(number of permutations whose descent set lies in that interval) / n!,
counted in O(n^3) (``volume``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ArgumentError, DomainError, Frozen
from .matroid import LpdmSpec
from .perms import Permutation, count_perms_in_descent_box, perms_with_descent_set
from .polytope import is_linked
from .subsets import SubsetMask, interval, mask_from_profile

__all__ = [
    "LatticeSimplex",
    "Subdivision",
    "eulerian_simplex",
    "is_toric",
    "simplex_cell",
    "subdivide",
    "triangulate_toric",
    "volume",
]


class LatticeSimplex(Frozen):
    """n+1 integer vertices in R^n, tagged with the permutation that
    produced them (when any)."""

    _fields = ("vertices", "perm")

    def __init__(self, vertices: tuple[tuple[int, ...], ...], perm: Permutation | None = None) -> None:
        verts = tuple(map(tuple, vertices))
        if not verts:
            raise ArgumentError("a simplex needs vertices")
        n = len(verts[0])
        if any(len(v) != n for v in verts) or len(verts) != n + 1:
            raise ArgumentError("need exactly n+1 vertices of equal dimension n")
        if any(type(c) is not int for v in verts for c in v):
            raise ArgumentError(f"simplex coordinates must be ints: {verts!r}")
        if perm is not None and not (type(perm) is Permutation and perm.n == n):
            raise ArgumentError(f"a simplex in dimension {n} takes a permutation of [{n}], not {perm!r}")
        super().__init__(verts, perm)

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    def barycenter(self) -> tuple[Fraction, ...]:
        k = len(self.vertices)
        return tuple(Fraction(sum(c), k) for c in zip(*self.vertices))


def eulerian_simplex(w: Permutation) -> LatticeSimplex:
    """The cube simplex attached to w: the image of the order simplex of
    the chain x_{w(1)} <= ... <= x_{w(n)} under the shear above.

    Vertices are listed bottom-up along the chain (all-zeros image
    first), so vertex k is the image of the indicator of the top k
    chain coordinates.  The empty permutation gives the one-point
    simplex ((),).
    """
    n, winv = w.n, w.inverse().images
    # vertex 0 is the shift alone: y_{n-i} = [w^{-1}(i+1) < w^{-1}(i)], y_n = 0
    y = [int(winv[i] < winv[i - 1]) for i in range(n - 1, 0, -1)] + [0] * min(n, 1)
    verts = [tuple(y)]
    for v in reversed(w.images):  # the next vertex sets x_v = 1: y_{n+1-v} rises, y_{n-v} falls
        y[n - v] += 1
        if v < n:
            y[n - v - 1] -= 1
        verts.append(tuple(y))
    return LatticeSimplex._trusted(tuple(verts), w)


def simplex_cell(w: Permutation) -> SubsetMask:
    """The unique S within [n-1] whose cell [S, S u {n}] contains the
    simplex of w: coordinatewise minima of the vertex suffix sums form
    the lower profile, and the suffix sums only ever exceed it by one.
    There is no cell on the empty ground (``is_toric`` admits none)."""
    n = w.n
    if n == 0:
        raise DomainError("the empty permutation lies in no cell: a cell needs n >= 1")
    verts = eulerian_simplex(w).vertices
    return mask_from_profile(tuple(min(sum(v[i:]) for v in verts) for i in range(n)))


def is_toric(m: LpdmSpec) -> bool:
    """Is the spec a cell of the cube subdivision: bounds S and S u {n}
    positionally, with S inside [n-1]?"""
    if m.n < 1:
        return False
    s, top = m.lower_mask().bits, 1 << m.n - 1
    return not s & top and m.upper_mask().bits == s | top


def triangulate_toric(m: LpdmSpec) -> list[LatticeSimplex]:
    """All Eulerian simplices lying in the given cell, sorted by their
    permutations: those of w = u^{-1} for the u with descent set
    {n - s : s in S}."""
    if not is_toric(m):
        raise DomainError("spec is not a toric cell [S, S u {n}]")
    n = m.n
    descents = [n - s for s in m.lower_mask().as_tuple()]
    out = [eulerian_simplex(u.inverse()) for u in perms_with_descent_set(n, descents)]
    out.sort(key=lambda simp: simp.perm.images)
    return out


class Subdivision(Frozen):
    """A linked interval polytope written as a union of toric cells."""

    _fields = ("parent", "cells")


def subdivide(m: LpdmSpec) -> Subdivision:
    """Cells [R, R u {n}] for every R between the lower bound and the
    upper bound minus n; their union is the parent polytope and their
    interiors are disjoint.  Each cell is built from the profile of R,
    and that profile plus one for R u {n}, with nothing checked again."""
    if m.n == 0:
        raise DomainError("no cell lives on the empty ground")
    if not is_linked(m):
        raise DomainError("only linked (full-dimensional) specs subdivide into cells")
    t_minus = SubsetMask._trusted(m.n, m.upper_mask().bits & ~(1 << m.n - 1))
    cells = tuple(
        LpdmSpec._from_profiles(m.ground, r.profile + (0,), tuple(c + 1 for c in r.profile) + (0,))
        for r in interval(m.lower_mask(), t_minus)
    )
    return Subdivision(m, cells)


def volume(m: LpdmSpec) -> Fraction:
    """Exact Euclidean volume of the polytope.

    Zero when the spec is not linked (the polytope is then lower
    dimensional).  Otherwise each cell [R, R u {n}] of the subdivision
    holds one unimodular simplex per permutation with descent set R, so
    the volume is the number of permutations whose descent set lies in
    the Gale interval [S, T minus n] over n!: one transfer-matrix count
    with the bounds lower profile <= descent profile <= upper profile - 1
    (a linked T contains n).
    """
    if not is_linked(m):
        return Fraction(0)
    hi = tuple(b - 1 for b in m.upper_mask().profile)
    return Fraction(count_perms_in_descent_box(m.lower_mask().profile, hi), math.factorial(m.n))
