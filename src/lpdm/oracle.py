"""Independent checks: lattice-point counting, exact volumes, exact LP.

Nothing in this module knows how the rest of the package computes
volumes or vertices; it works straight from half-space data and raw
point sets so that it can sit on the other side of an equality test.

* ``count_lattice_points`` -- dynamic program over suffix sums for the
  dilated polytope; exact integers.
* ``ehrhart_volume``       -- leading coefficient of the counting
  polynomial via n-th finite differences.
* ``simplex_volume``       -- |det| / n! from vertex coordinates.
* ``hull_membership``      -- rational phase-one simplex method with
  Bland's rule; decides x in conv(V) exactly.
* ``is_edge``              -- midpoint criterion for adjacency of two
  vertices of a 0/1 polytope (no vertex of such a polytope lies inside
  a segment between two others, so the criterion is exact there).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ArgumentError, DomainError
from .polytope import HRep

__all__ = [
    "affine_rank",
    "count_lattice_points",
    "count_suffix_box",
    "ehrhart_eval",
    "ehrhart_table",
    "ehrhart_volume",
    "hull_membership",
    "is_edge",
    "simplex_volume",
]


def count_suffix_box(lower, upper, t: int) -> int:
    """Points x in {0, ..., t}^n with lower_i <= x_i + ... + x_n <= upper_i.

    ``lower`` and ``upper`` are arbitrary integer bounds (already
    dilated); the dynamic program walks i = n down to 1 keeping the
    distribution of the running suffix sum.
    """
    lower = tuple(lower)
    upper = tuple(upper)
    n = len(lower)
    if len(upper) != n:
        raise ArgumentError("bounds must have equal lengths")
    if t < 0:
        raise ArgumentError("dilation must be non-negative")
    cur = {0: 1}
    for i in range(n, 0, -1):
        lo, hi = lower[i - 1], upper[i - 1]
        nxt: dict[int, int] = {}
        for s, c in cur.items():
            for x in range(t + 1):
                s2 = s + x
                if lo <= s2 <= hi:
                    nxt[s2] = nxt.get(s2, 0) + c
        cur = nxt
    return sum(cur.values())


def count_lattice_points(h: HRep, t: int) -> int:
    """Lattice points of the t-th dilate of the polytope."""
    return count_suffix_box(
        tuple(a * t for a in h.lower), tuple(b * t for b in h.upper), t
    )


def ehrhart_table(h: HRep, tmax: int | None = None) -> tuple[int, ...]:
    """Lattice-point counts of the dilates t = 0, 1, ..., tmax (default n)."""
    if tmax is None:
        tmax = h.n
    return tuple(count_lattice_points(h, t) for t in range(tmax + 1))


def _forward_differences(counts) -> list[int]:
    diffs = list(counts)
    out = [diffs[0]]
    while len(diffs) > 1:
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        out.append(diffs[0])
    return out


def ehrhart_volume(h: HRep) -> Fraction:
    """Euclidean volume: n-th finite difference of the counts over n!.

    The counting function of an n-dimensional rational polytope with
    integer vertex coordinates is a degree-n polynomial in t, so the
    n-th difference of counts at t = 0..n is n! times the leading
    coefficient.  Lower-dimensional polytopes correctly report 0.
    """
    deltas = _forward_differences(ehrhart_table(h))
    return Fraction(deltas[h.n], math.factorial(h.n))


def ehrhart_eval(counts, t: int) -> int:
    """Value at t of the interpolating polynomial through the counts at
    0, 1, ... (Newton forward differences)."""
    deltas = _forward_differences(counts)
    total = 0
    for k, d in enumerate(deltas):
        total += d * math.comb(t, k)
    return total


def _int_det(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    m = [row[:] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def simplex_volume(vertices) -> Fraction:
    """Euclidean volume of the simplex on n+1 integer vertices in R^n."""
    verts = [tuple(v) for v in getattr(vertices, "vertices", vertices)]
    if not verts:
        raise ArgumentError("no vertices")
    n = len(verts[0])
    if len(verts) != n + 1 or any(len(v) != n for v in verts):
        raise ArgumentError("need exactly n+1 vertices of dimension n")
    rows = [[int(x - y) for x, y in zip(v, verts[0])] for v in verts[1:]]
    det = _int_det(rows)
    if det == 0:
        raise DomainError("degenerate simplex (affinely dependent vertices)")
    return Fraction(abs(det), math.factorial(n))


def _lp_feasible(columns: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Is there lambda >= 0 with sum_j lambda_j * columns[j] = rhs?

    Phase-one simplex on the artificial problem, Bland's rule for both
    the entering and the leaving choice, exact rational pivots.
    """
    m = len(rhs)
    ncols = len(columns)
    rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    for i in range(m):
        row = [columns[j][i] for j in range(ncols)]
        bi = rhs[i]
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        rows.append(row)
        b.append(bi)
    # append artificial identity
    for i in range(m):
        for k in range(m):
            rows[i].append(Fraction(1 if i == k else 0))
    total = ncols + m
    basis = list(range(ncols, total))
    while True:
        # reduced costs for the objective sum(artificials); basic costs
        # are 1 exactly on artificial basic rows
        entering = -1
        for j in range(total):
            if j in basis:
                continue
            cj = Fraction(1 if j >= ncols else 0)
            red = cj - sum(rows[i][j] for i in range(m) if basis[i] >= ncols)
            if red < 0:
                entering = j
                break  # Bland: first improving index
        if entering < 0:
            break
        leaving = -1
        best: Fraction | None = None
        for i in range(m):
            if rows[i][entering] > 0:
                ratio = b[i] / rows[i][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            # artificial objective is bounded below by 0, so this cannot
            # happen; guard anyway
            raise AssertionError("unbounded phase-one problem")
        piv = rows[leaving][entering]
        rows[leaving] = [x / piv for x in rows[leaving]]
        b[leaving] = b[leaving] / piv
        for i in range(m):
            if i != leaving and rows[i][entering] != 0:
                f = rows[i][entering]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leaving])]
                b[i] = b[i] - f * b[leaving]
        basis[leaving] = entering
    residual = sum(b[i] for i in range(m) if basis[i] >= ncols)
    return residual == 0


def hull_membership(points, x) -> bool:
    """Exact test: is x a convex combination of the given points?"""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        raise ArgumentError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ArgumentError("points of mixed dimensions")
    xs = tuple(Fraction(c) for c in x)
    if len(xs) != n:
        raise ArgumentError(f"point has {len(xs)} coordinates, expected {n}")
    if xs in pts:
        return True
    # exact necessary condition, skips most of the obvious outsiders
    for i in range(n):
        lo = min(p[i] for p in pts)
        hi = max(p[i] for p in pts)
        if not lo <= xs[i] <= hi:
            return False
    columns = [list(p) + [Fraction(1)] for p in pts]
    rhs = list(xs) + [Fraction(1)]
    return _lp_feasible(columns, rhs)


def is_edge(points, u, v) -> bool:
    """Are u, v adjacent vertices of the 0/1 polytope conv(points)?

    True iff the midpoint of u and v is not in the hull of the other
    points.  Valid whenever no vertex lies in the open segment between
    two others, which holds for 0/1 polytopes.
    """
    ut = tuple(Fraction(c) for c in u)
    vt = tuple(Fraction(c) for c in v)
    if ut == vt:
        raise ArgumentError("need two distinct vertices")
    rest = [p for p in points if tuple(Fraction(c) for c in p) not in (ut, vt)]
    if not rest:
        return True
    mid = tuple((a + b) / 2 for a, b in zip(ut, vt))
    return not hull_membership(rest, mid)


def affine_rank(points) -> int:
    """Dimension of the affine span of the points (0 for a single point)."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        raise ArgumentError("empty point set")
    base = pts[0]
    rows = [[c - b for c, b in zip(p, base)] for p in pts[1:]]
    rank = 0
    ncols = len(base)
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank
