"""Independent checks: lattice-point counting, exact volumes, exact LP.

Nothing in this module knows how the rest of the package computes
volumes or vertices; it works straight from half-space data and raw
point sets so that it can sit on the other side of an equality test.
Importing it loads no other module of the package but ``lpdm.errors``.

* ``count_lattice_points`` -- dynamic program over suffix sums for the
  dilated polytope; exact integers.
* ``ehrhart_volume``       -- leading coefficient of the counting
  polynomial via n-th finite differences.
* ``simplex_volume``       -- |det| / n! from rational vertex coordinates.
* ``hull_membership``      -- integer-tableau phase-one simplex method
  with Bland's rule; decides x in conv(V) exactly.
* ``is_edge``              -- midpoint criterion for adjacency of two
  vertices of a 0/1 polytope (no vertex of such a polytope lies inside
  a segment between two others, so the criterion is exact there).

Every point is read by ``as_integers``, once, and scaled to integers by
the lcm of its set's denominators; the points and x each keep their own
lcm.  A point set is read and scaled once per set, not once per query:
``hull_membership`` and ``is_edge`` both go through its prepared form,
which holds the scaled points, their box and the signed LP tableau rows.
Eliminations and pivots are fraction-free.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING

from .errors import ArgumentError, DomainError

if TYPE_CHECKING:
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


def as_integers(points) -> tuple[int, list[tuple[int, ...]]]:
    """Rational points scaled to integers: (scale, scaled points).

    Each coordinate is read as an exact rational (an ``int`` or a
    ``Fraction`` as it is, anything else through ``Fraction``, which must
    read it), and every point is multiplied by the lcm of the denominators.
    """
    pts = [tuple(p) for p in points]
    if set(map(type, chain.from_iterable(pts))) <= {int}:
        return 1, pts
    try:
        pts = [tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in p) for p in pts]
    except (ArithmeticError, TypeError, ValueError) as exc:  # NaN or infinity, "1/0", not a number
        raise ArgumentError(f"a coordinate is not a rational: {exc}") from None
    scale = math.lcm(*(c.denominator for c in chain.from_iterable(pts)))
    return scale, [tuple(c.numerator * (scale // c.denominator) for c in p) for p in pts]


def count_suffix_box(lower, upper, t: int) -> int:
    """Points x in {0, ..., t}^n with lower_i <= x_i + ... + x_n <= upper_i.

    ``lower`` and ``upper`` are arbitrary integer bounds (already
    dilated); the dynamic program walks i = n down to 1 keeping the
    distribution of the running suffix sum.
    """
    lower, upper = tuple(lower), tuple(upper)
    if len(upper) != len(lower) or any(type(x) is not int for x in lower + upper):
        raise ArgumentError(f"bounds must be integers of equal lengths, got {lower!r} and {upper!r}")
    if type(t) is not int or t < 0:
        raise ArgumentError(f"dilation must be a non-negative integer, got {t!r}")
    cur = {0: 1}
    for lo, hi in zip(reversed(lower), reversed(upper)):  # i = n down to 1
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


def ehrhart_table(h: HRep) -> tuple[int, ...]:
    """Lattice-point counts of the dilates t = 0, 1, ..., n."""
    return tuple(count_lattice_points(h, t) for t in range(h.n + 1))


def _forward_differences(counts) -> list[int]:
    diffs, out = list(counts), []
    while diffs:
        out.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
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
    """Value at any integer t of the polynomial through the counts at 0,
    1, ...: Newton's forward form, with C(t, k) = t(t-1)...(t-k+1) / k!."""
    counts = tuple(counts)
    if not counts or type(t) is not int or any(type(c) is not int for c in counts):
        raise ArgumentError(f"need integer counts, at least one, and an integer t, got {counts!r} and t = {t!r}")
    deltas, total, binom = _forward_differences(counts), 0, 1
    for k, d in enumerate(deltas):
        total += d * binom
        binom = binom * (t - k) // (k + 1)  # exact: C(t, k + 1) is an integer
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


def simplex_volume(vertices) -> Fraction:
    """Euclidean volume of the simplex on n+1 rational vertices in R^n:
    the determinant of the edges at the scaled vertices, over scale^n n!."""
    scale, verts = as_integers(vertices)
    if not verts:
        raise ArgumentError("no vertices")
    n = len(verts[0])
    if len(verts) != n + 1 or any(len(v) != n for v in verts):
        raise ArgumentError("need exactly n+1 vertices of dimension n")
    m = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
    rank, _ = _eliminate(m)
    if rank < n:
        raise DomainError("degenerate simplex (affinely dependent vertices)")
    return Fraction(abs(m[-1][-1]) if m else 1, scale**n * math.factorial(n))


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _lp_feasible(rows: list[list[int]], ncols: int) -> bool:
    """Is there lambda >= 0 with sum_j lambda_j * column_j = rhs?

    ``rows`` holds one row [coefficients | artificial identity | rhs >= 0]
    per equation, over ``ncols`` columns, and is pivoted in place: phase
    one on the artificial problem, Bland's rule for both the entering and
    the leaving choice.  Each row is kept only up to a positive factor: a
    pivot cross-multiplies (Edmonds 1967; Bareiss 1968) and divides the
    row by its gcd.  The phase-one reduced costs are one more such row.  A
    positive factor changes no sign and, since the ratio test compares
    b_i * a_l with b_l * a_i, no ratio order, so the pivots are those of
    the rational tableau.
    """
    m = len(rows)
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
        cost = _pivot(rows, cost, entering, leaving)
        basis[leaving] = entering
    # the objective row's right-hand side is minus the artificial residual
    return cost[-1] == 0


def _pivot(rows: list[list[int]], cost: list[int], entering: int, leaving: int) -> list[int]:
    """One fraction-free pivot on the rows, in place; returns the new cost row."""
    prow = _reduced(rows[leaving])
    rows[leaving] = prow
    piv = prow[entering]
    for i, row in enumerate(rows):
        f = row[entering]
        if i != leaving and f != 0:
            rows[i] = _reduced([x * piv - f * y for x, y in zip(row, prow)])
    f = cost[entering]
    return _reduced([x * piv - f * y for x, y in zip(cost, prow)])


class _Hull:
    """A point set read once for many hull-membership queries, built from
    ``as_integers`` output: the points' lcm sp and the scaled points.  It
    keeps the points as a set, their exact box, and each tableau row of the
    LP's columns (the points, each with a closing sp) twice, as it is and
    negated, each with the artificial identity row appended."""

    def __init__(self, scale: int, points: list[tuple[int, ...]]) -> None:
        if not points:
            raise ArgumentError("empty point set")
        self.n = n = len(points[0])
        if any(len(p) != n for p in points):
            raise ArgumentError("points of mixed dimensions")
        self.scale, self.points, self._members = scale, points, set(points)
        self._box = [(min(col), max(col)) for col in zip(*points)]
        coeffs = [*map(list, zip(*points)), [scale] * len(points)]
        ident = [[int(i == k) for k in range(n + 1)] for i in range(n + 1)]
        self._rows = [(c + e, [-x for x in c] + e) for c, e in zip(coeffs, ident)]

    def member(self, nums, den: int) -> bool:
        """Is the point nums / den (den > 0) in the hull?"""
        # in lowest terms, den is x's lcm, the scale ``as_integers`` gives x
        g = math.gcd(den, *nums)
        sx, xs = (den // g, [c // g for c in nums]) if g > 1 else (den, nums)
        sp = self.scale
        # x can equal a point only if its denominators divide the points' lcm
        if sp % sx == 0 and tuple(c * (sp // sx) for c in xs) in self._members:
            return True
        # the exact bounding box, cross-multiplied to the common scale sp * sx,
        # skips most of the obvious outsiders
        if any(not lo * sx <= c * sp <= hi * sx for c, (lo, hi) in zip(xs, self._box)):
            return False
        # columns at the points' scale, right-hand side at x's: neither changes
        # a pivot; each row is copied with the sign its right-hand side picks
        rows = [signed[c < 0] + [abs(c)] for signed, c in zip(self._rows, [*xs, sx])]
        return _lp_feasible(rows, len(self.points))

    def edge(self, i: int, j: int) -> bool:
        """Is the midpoint of points i and j outside the hull of the points
        equal to neither, read at their own lcm?"""
        u, v = self.points[i], self.points[j]
        if u == v:
            raise ArgumentError("need two distinct vertices")
        rest = [p for p in self.points if p != u and p != v]
        if not rest:
            return True
        g = math.gcd(self.scale, *chain.from_iterable(rest))
        rest = [tuple(c // g for c in p) for p in rest] if g > 1 else rest
        return not _Hull(self.scale // g, rest).member([a + b for a, b in zip(u, v)], 2 * self.scale)


def hull_membership(points, x) -> bool:
    """Exact test: is x a convex combination of the given points?  The points
    and x are scaled to integers each by its own lcm, so each stays small."""
    hull = _Hull(*as_integers(points))
    sx, (xs,) = as_integers([x])
    if len(xs) != hull.n:
        raise ArgumentError(f"point has {len(xs)} coordinates, expected {hull.n}")
    return hull.member(xs, sx)


def is_edge(points, u, v) -> bool:
    """Are u, v adjacent vertices of the 0/1 polytope conv(points)?

    True iff the midpoint of u and v is not in the hull of the other
    points.  Valid whenever no vertex lies in the open segment between
    two others, which holds for 0/1 polytopes.  The set is read and scaled
    once, and the other points keep their own lcm: doubling them instead
    would reweigh the convexity row and change the phase-one pivots.
    """
    return _Hull(*as_integers([u, v, *points])).edge(0, 1)


def affine_rank(points) -> int:
    """Dimension of the affine span of the points (0 for a single point)."""
    _, pts = as_integers(points)
    if not pts or any(len(p) != len(pts[0]) for p in pts):
        raise ArgumentError("need a non-empty point set of one dimension")
    base = pts[0]
    return _eliminate([[c - b for c, b in zip(p, base)] for p in pts[1:]])[0]
