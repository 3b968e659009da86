"""Independent checks: lattice-point counting, exact volumes, exact LP.

Nothing in this module knows how the rest of the package computes
volumes or vertices; it works straight from half-space data and raw
point sets so that it can sit on the other side of an equality test.

* ``count_lattice_points`` -- dynamic program over suffix sums for the
  dilated polytope; exact integers.
* ``ehrhart_volume``       -- leading coefficient of the counting
  polynomial via n-th finite differences.
* ``simplex_volume``       -- |det| / n! from vertex coordinates.
* ``hull_membership``      -- integer-tableau phase-one simplex method
  with Bland's rule; decides x in conv(V) exactly.
* ``is_edge``              -- midpoint criterion for adjacency of two
  vertices of a 0/1 polytope (no vertex of such a polytope lies inside
  a segment between two others, so the criterion is exact there).

Rational input is read once and scaled to integers by the lcm of its
denominators (``polytope.as_integers``); ``hull_membership`` scales the
points and x each by its own lcm.  Eliminations and pivots are fraction-free.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ArgumentError, DomainError
from .polytope import HRep, as_integers

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


def _eliminate(m: list[list[int]]) -> tuple[int, int]:
    """Bareiss fraction-free elimination of an integer matrix, in place.

    Columns with no pivot left are skipped.  Every entry stays a minor of
    the input, so each division is exact.  Returns (rank, sign of the row
    permutation); for a square matrix of full rank the last pivot is
    that sign times the determinant.
    """
    ncols = len(m[0]) if m else 0
    sign = 1
    prev = 1
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        for row in m[r + 1 :]:
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * top[col] - f * top[j]) // prev
            row[col] = 0
        prev = top[col]
        r += 1
    return r, sign


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix."""
    m = [row[:] for row in rows]
    if not m:
        return 1
    rank, sign = _eliminate(m)
    return sign * m[-1][-1] if rank == len(m) else 0


def simplex_volume(vertices) -> Fraction:
    """Euclidean volume of the simplex on n+1 integer vertices in R^n."""
    verts = [tuple(v) for v in vertices]
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


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _lp_feasible(columns: list[list[int]], rhs: list[int]) -> bool:
    """Is there lambda >= 0 with sum_j lambda_j * columns[j] = rhs?

    Phase-one simplex on the artificial problem, Bland's rule for both
    the entering and the leaving choice, on an integer tableau.  Each row
    is kept only up to a positive factor: a pivot cross-multiplies
    (Edmonds 1967; Bareiss 1968) and divides the row by its gcd.  The
    phase-one reduced costs are one more such row.  A positive factor
    changes no sign and, since the ratio test compares b_i * a_l with
    b_l * a_i, no ratio order, so the pivots are those of the rational
    tableau.
    """
    m = len(rhs)
    ncols = len(columns)
    # rows are [coefficients | artificial identity | right-hand side]
    rows = []
    for i in range(m):
        row = [col[i] for col in columns]
        if rhs[i] < 0:
            row = [-x for x in row]
        rows.append(row + [int(i == k) for k in range(m)] + [abs(rhs[i])])
    # reduced costs of sum(artificials) over the all-artificial basis
    cost = [-sum(col) for col in zip(*rows)]
    cost[ncols:-1] = [0] * m
    basis = list(range(ncols, ncols + m))
    while True:
        # Bland: first improving index; basic columns cost exactly 0
        entering = next((j for j, c in enumerate(cost[:-1]) if c < 0), -1)
        if entering < 0:
            break
        leaving = -1
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                if leaving < 0:
                    leaving = i
                    continue
                d = row[-1] * rows[leaving][entering] - rows[leaving][-1] * a
                if d < 0 or (d == 0 and basis[i] < basis[leaving]):
                    leaving = i
        if leaving < 0:
            # artificial objective is bounded below by 0, so this cannot
            # happen; guard anyway
            raise AssertionError("unbounded phase-one problem")
        prow = _reduced(rows[leaving])
        rows[leaving] = prow
        piv = prow[entering]
        for i, row in enumerate(rows):
            f = row[entering]
            if i != leaving and f != 0:
                rows[i] = _reduced([x * piv - f * y for x, y in zip(row, prow)])
        f = cost[entering]
        cost = _reduced([x * piv - f * y for x, y in zip(cost, prow)])
        basis[leaving] = entering
    # the objective row's right-hand side is minus the artificial residual
    return cost[-1] == 0


def hull_membership(points, x) -> bool:
    """Exact test: is x a convex combination of the given points?  The points
    and x are scaled to integers each by its own lcm, so each stays small."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise ArgumentError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ArgumentError("points of mixed dimensions")
    xs = tuple(x)
    if len(xs) != n:
        raise ArgumentError(f"point has {len(xs)} coordinates, expected {n}")
    sp, pts = as_integers(pts)
    sx, (xs,) = as_integers([xs])
    # x can equal a point only if its denominators divide the points' lcm
    if sp % sx == 0 and tuple(c * (sp // sx) for c in xs) in pts:
        return True
    # the exact bounding box, cross-multiplied to the common scale sp * sx,
    # skips most of the obvious outsiders
    if any(not min(col) * sx <= c * sp <= max(col) * sx for c, col in zip(xs, zip(*pts))):
        return False
    # columns at the points' scale, right-hand side at x's: neither changes a pivot
    return _lp_feasible([list(p) + [sp] for p in pts], list(xs) + [sx])


def is_edge(points, u, v) -> bool:
    """Are u, v adjacent vertices of the 0/1 polytope conv(points)?

    True iff the midpoint of u and v is not in the hull of the other
    points.  Valid whenever no vertex lies in the open segment between
    two others, which holds for 0/1 polytopes.  The other points go to
    ``hull_membership`` as given: doubling them instead would reweigh the
    convexity row against the others and change the phase-one pivots.
    """
    points = list(points)
    scale, pts = as_integers([u, v, *points])
    ut, vt = pts[0], pts[1]
    if ut == vt:
        raise ArgumentError("need two distinct vertices")
    rest = [p for p, q in zip(points, pts[2:]) if q not in (ut, vt)]
    if not rest:
        return True
    return not hull_membership(rest, tuple(Fraction(a + b, 2 * scale) for a, b in zip(ut, vt)))


def affine_rank(points) -> int:
    """Dimension of the affine span of the points (0 for a single point)."""
    _, pts = as_integers(points)
    if not pts:
        raise ArgumentError("empty point set")
    base = pts[0]
    return _eliminate([[c - b for c, b in zip(p, base)] for p in pts[1:]])[0]
