"""Independent checks: lattice-point counting, exact volumes, exact LP,
exact hull facets.

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
* ``_hull_facets``         -- the equations of aff(V), the facets of
  conv(V) and the points on each facet, by double description, for many
  questions about one set; ``_in_hull`` and ``_hull_edges`` read them.

Every point is read by ``as_integers``, once, and scaled to integers by
the lcm of its set's denominators; the points and x each keep their own
lcm.  ``hull_membership`` answers one question with one LP, built
straight from the scaled points; the rows ``_hull_facets`` returns answer
any number of membership and adjacency questions about one point set by
integer dot products and bit masks.  Eliminations and pivots are
fraction-free.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
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


def _dimension(points: list[tuple[int, ...]]) -> int:
    """The one dimension of a nonempty point set."""
    if not points:
        raise ArgumentError("empty point set")
    n = len(points[0])
    if any(len(p) != n for p in points):
        raise ArgumentError("points of mixed dimensions")
    return n


def _dot(row, x) -> int:
    return sum(map(operator.mul, row, x))


def _placed(width: int, cols: list[int], vals: list[int]) -> list[int]:
    """A row of ``width`` zeros but for ``vals`` at the columns ``cols``."""
    at = dict(zip(cols, vals))
    return [at.get(k, 0) for k in range(width)]


def _pivots(m: list[list[int]]) -> list[int]:
    """The pivot columns of the matrix, eliminated in place: the first
    columns that are independent of the columns before them."""
    rank, _ = _eliminate(m)
    return [next(j for j, x in enumerate(row) if x) for row in m[:rank]]


def _cofactors(rows: list[list[int]]) -> list[int]:
    """A null vector of k independent rows of k + 1 integers: entry j is
    (-1)^j times the minor without column j, divided by the gcd."""
    out = []
    for j in range(len(rows) + 1):
        m = [r[:j] + r[j + 1 :] for r in rows]
        rank, sign = _eliminate(m)
        minor = 1 if not m else sign * m[-1][-1] if rank == len(m) else 0
        out.append(-minor if j % 2 else minor)
    return _reduced(out)


def _hull_facets(scale: int, points: list[tuple[int, ...]]) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The equations of aff(V), the facets of conv(V) and, for each facet,
    the points on it as a bit mask (bit k for point k), V the points over
    ``scale`` (``as_integers`` output), by double description (Motzkin,
    Raiffa, Thompson and Thrall 1953; Fukuda and Prodon 1996).

    A row r holds at x = nums / den (den > 0) when r . (den, nums) is 0 for
    an equation and >= 0 for a facet; x is in conv(V) iff every row holds.
    The first lifted points (scale, v) independent of those before them are
    a simplex, and its pivot columns are a chart of aff(V).  The equations
    are cofactor null vectors of the simplex on the chart and one more
    column.  On the chart the facets start as the simplex's and take in
    every other point in turn: a facet the point violates goes, and meets
    each adjacent facet that the point satisfies strictly in a new facet
    through the point.  Two facets are adjacent iff no third one holds
    every point the two share.  The facets are zero off the chart.
    """
    n = _dimension(points)
    lifted = [(scale, *p) for p in points]
    basis = _pivots([list(col) for col in zip(*lifted)])  # point indices
    chart = _pivots([list(lifted[i]) for i in basis])  # coordinates, 0 first
    equations = [
        _placed(n + 1, [*chart, j], _cofactors([[lifted[i][k] for k in (*chart, j)] for i in basis]))
        for j in range(n + 1)
        if j not in chart
    ]
    pts = [[w[k] for k in chart] for w in lifted]
    # each facet on the chart, with the points taken in so far that lie on it as a bit mask
    facets = []
    for i in basis:
        r = _cofactors([pts[b] for b in basis if b != i])
        facets.append(([-x for x in r] if _dot(r, pts[i]) < 0 else r, sum(1 << b for b in basis if b != i)))
    for k in sorted(set(range(len(pts))) - set(basis)):
        vals = [_dot(r, pts[k]) for r, _ in facets]
        kept = [(r, z | 1 << k if v == 0 else z) for (r, z), v in zip(facets, vals) if v >= 0]
        for i, (p, zp) in enumerate(facets):
            for j, (q, zq) in enumerate(facets):
                common = zp & zq
                if vals[i] > 0 > vals[j] and not any(
                    z & common == common for h, (_, z) in enumerate(facets) if h != i and h != j
                ):
                    kept.append((_reduced([vals[i] * b - vals[j] * a for a, b in zip(p, q)]), common | 1 << k))
        facets = kept
    return equations, [_placed(n + 1, chart, r) for r, _ in facets], [z for _, z in facets]


def _in_hull(equations, facets, x) -> bool:
    """Does the point x, in (scale, x) form, satisfy every equation and facet?"""
    return all(_dot(e, x) == 0 for e in equations) and all(_dot(f, x) >= 0 for f in facets)


def _hull_edges(verts: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The pairs i < j of vertices that span an edge: no other vertex lies
    on every facet that holds both.  Exact when every point is a vertex."""
    _, _, on = _hull_facets(1, verts)
    everything = (1 << len(verts)) - 1
    return [
        (i, j)
        for i, j in combinations(range(len(verts)), 2)
        if reduce(operator.and_, (z for z in on if z >> i & z >> j & 1), everything) == 1 << i | 1 << j
    ]


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


def hull_membership(points, x) -> bool:
    """Exact test: is x a convex combination of the given points?  The points
    and x are scaled to integers each by its own lcm, so each stays small."""
    scale, pts = as_integers(points)
    n = _dimension(pts)
    sx, (xs,) = as_integers([x])  # in lowest terms: gcd(sx, *xs) == 1
    if len(xs) != n:
        raise ArgumentError(f"point has {len(xs)} coordinates, expected {n}")
    # x can equal a point only if its denominators divide the points' lcm
    if scale % sx == 0 and tuple(c * (scale // sx) for c in xs) in pts:
        return True
    # the exact bounding box, cross-multiplied to the common scale, skips
    # most of the obvious outsiders
    if any(not min(col) * sx <= c * scale <= max(col) * sx for c, col in zip(xs, zip(*pts))):
        return False
    # the LP's columns are the points, each with a closing scale, and its
    # right-hand side is x with sx: neither scale changes a pivot; each row
    # is negated where its right-hand side is negative
    coeffs = [*zip(*pts), (scale,) * len(pts)]
    rows = [
        [-a if b < 0 else a for a in c] + [int(i == k) for k in range(len(coeffs))] + [abs(b)]
        for i, (c, b) in enumerate(zip(coeffs, [*xs, sx]))
    ]
    return _lp_feasible(rows, len(pts))


def affine_rank(points) -> int:
    """Dimension of the affine span of the points (0 for a single point)."""
    _, pts = as_integers(points)
    _dimension(pts)
    base = pts[0]
    return _eliminate([[c - b for c, b in zip(p, base)] for p in pts[1:]])[0]
