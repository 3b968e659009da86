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
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError, DomainError
from .matroid import LpdmSpec
from .perms import Permutation, count_perms_in_descent_box, perms_with_descent_set
from .polytope import is_linked
from .subsets import SubsetMask, interval, mask_from_profile

__all__ = [
    "LatticeSimplex",
    "Subdivision",
    "eulerian_simplex",
    "fractional_prefix_sums",
    "is_toric",
    "simplex_cell",
    "subdivide",
    "triangulate_toric",
    "volume",
]


def fractional_prefix_sums(point) -> tuple[Fraction, ...]:
    """x |-> fractional parts of (x_1, x_1+x_2, ..., x_1+...+x_n).

    A piecewise-linear, volume-preserving self-map of the cube; its
    inverse composed with coordinate reversal carries the order
    simplices onto the ``eulerian_simplex`` images.
    """
    xs = tuple(Fraction(v) for v in point)
    if any(x < 0 or x > 1 for x in xs):
        raise ArgumentError("point outside the unit cube")
    out = []
    run = Fraction(0)
    for x in xs:
        run += x
        out.append(run % 1)
    return tuple(out)


@dataclass(frozen=True)
class LatticeSimplex:
    """n+1 integer vertices in R^n, tagged with the permutation that
    produced them (when any)."""

    vertices: tuple[tuple[int, ...], ...]
    perm: Permutation | None = None

    def __post_init__(self) -> None:
        verts = tuple(tuple(int(c) for c in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ArgumentError("a simplex needs vertices")
        n = len(verts[0])
        if any(len(v) != n for v in verts) or len(verts) != n + 1:
            raise ArgumentError("need exactly n+1 vertices of equal dimension n")

    @property
    def n(self) -> int:
        return len(self.vertices[0])

    def barycenter(self) -> tuple[Fraction, ...]:
        k = len(self.vertices)
        return tuple(
            Fraction(sum(v[i] for v in self.vertices), k) for i in range(self.n)
        )


def eulerian_simplex(w: Permutation) -> LatticeSimplex:
    """The cube simplex attached to w: the image of the order simplex of
    the chain x_{w(1)} <= ... <= x_{w(n)} under the shear above.

    Vertices are listed bottom-up along the chain (all-zeros image
    first), so vertex k is the image of the indicator of the top k
    chain coordinates.
    """
    n = w.n
    winv = w.inverse().images
    verts = []
    for k in range(n + 1):
        x = [0] * n
        for j in range(n - k + 1, n + 1):
            x[w(j) - 1] = 1
        y = [0] * n
        y[n - 1] = x[0]
        for i in range(1, n):
            step = 1 if winv[i] < winv[i - 1] else 0
            y[n - i - 1] = x[i] - x[i - 1] + step
        verts.append(tuple(y))
    return LatticeSimplex(tuple(verts), w)


def simplex_cell(w: Permutation) -> SubsetMask:
    """The unique S within [n-1] whose cell [S, S u {n}] contains the
    simplex of w: coordinatewise minima of the vertex suffix sums form
    the lower profile, and the suffix sums only ever exceed it by one."""
    simp = eulerian_simplex(w)
    n = w.n
    mins = []
    for i in range(1, n + 1):
        mins.append(min(sum(v[i - 1 :]) for v in simp.vertices))
    return mask_from_profile(tuple(mins))


def is_toric(m: LpdmSpec) -> bool:
    """Is the spec a cell of the cube subdivision: bounds S and S u {n}
    positionally, with S inside [n-1]?"""
    if m.n < 1:
        return False
    s = m.lower_mask().members
    t = m.upper_mask().members
    return m.n not in s and t == (s | {m.n})


def triangulate_toric(m: LpdmSpec) -> list[LatticeSimplex]:
    """All Eulerian simplices lying in the given cell, sorted by their
    permutations: those of w = u^{-1} for the u with descent set
    {n - s : s in S}."""
    if not is_toric(m):
        raise DomainError("spec is not a toric cell [S, S u {n}]")
    n = m.n
    descents = [n - s for s in m.lower_mask().members]
    out = [eulerian_simplex(u.inverse()) for u in perms_with_descent_set(n, descents)]
    out.sort(key=lambda simp: simp.perm.images)
    return out


@dataclass(frozen=True)
class Subdivision:
    """A linked interval polytope written as a union of toric cells."""

    parent: LpdmSpec
    cells: tuple[LpdmSpec, ...]


def subdivide(m: LpdmSpec) -> Subdivision:
    """Cells [R, R u {n}] for every R between the lower bound and the
    upper bound minus n; their union is the parent polytope and their
    interiors are disjoint."""
    if not is_linked(m):
        raise DomainError("only linked (full-dimensional) specs subdivide into cells")
    n = m.n
    s = m.lower_mask()
    t_minus = SubsetMask(n, m.upper_mask().members - {n})
    cells = tuple(
        LpdmSpec(m.ground, m.labels(r), m.labels(SubsetMask(n, r.members | {n})))
        for r in interval(s, t_minus)
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
    hi = tuple(b - 1 for b in m.upper_profile)
    return Fraction(count_perms_in_descent_box(m.lower_profile, hi), math.factorial(m.n))
