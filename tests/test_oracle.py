import math
import random
from fractions import Fraction

import pytest

from lpdm import (
    ArgumentError,
    DomainError,
    HRep,
    LpdmSpec,
    affine_rank,
    count_lattice_points,
    dimension,
    ehrhart_eval,
    ehrhart_table,
    ehrhart_volume,
    hrep,
    hull_membership,
    simplex_volume,
    vertex_set,
)
from lpdm import oracle
from lpdm.oracle import _dot, _hull_edges, _hull_facets, _in_hull, as_integers, count_suffix_box
from lpdm.selftest import _inequalities, _specs_upto


# Slow, independent routes: the rational tableau and the rational
# elimination that the integer ones replaced, kept as references.


def lp_feasible_reference(columns, rhs, log=None):
    """Phase-one simplex with Bland's rule on a Fraction tableau; each
    (entering, leaving) pivot is appended to ``log`` when one is given."""
    m = len(rhs)
    ncols = len(columns)
    rows, b = [], []
    for i in range(m):
        row = [Fraction(columns[j][i]) for j in range(ncols)]
        bi = Fraction(rhs[i])
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        rows.append(row + [Fraction(int(i == k)) for k in range(m)])
        b.append(bi)
    total = ncols + m
    basis = list(range(ncols, total))
    while True:
        entering = -1
        for j in range(total):
            if j in basis:
                continue
            red = int(j >= ncols) - sum(rows[i][j] for i in range(m) if basis[i] >= ncols)
            if red < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving, best = -1, None
        for i in range(m):
            if rows[i][entering] > 0:
                ratio = b[i] / rows[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if log is not None:
            log.append((entering, leaving))
        piv = rows[leaving][entering]
        rows[leaving] = [x / piv for x in rows[leaving]]
        b[leaving] /= piv
        for i in range(m):
            f = rows[i][entering]
            if i != leaving and f != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leaving])]
                b[i] -= f * b[leaving]
        basis[leaving] = entering
    return sum(b[i] for i in range(m) if basis[i] >= ncols) == 0


def hull_membership_reference(points, x):
    pts = [tuple(Fraction(c) for c in p) for p in points]
    xs = tuple(Fraction(c) for c in x)
    if xs in pts:
        return True
    return lp_feasible_reference([list(p) + [1] for p in pts], list(xs) + [1])


def lp_tableau_from_columns(columns, rhs):
    """The integer tableau [coefficients | artificial identity | |rhs|] built
    straight from the columns and the right-hand side, one row per
    equation, negated where the right-hand side is negative."""
    m = len(rhs)
    rows = []
    for i in range(m):
        row = [col[i] for col in columns]
        if rhs[i] < 0:
            row = [-x for x in row]
        rows.append(row + [int(i == k) for k in range(m)] + [abs(rhs[i])])
    return rows


def lp_steps_reference(points, x):
    """Membership read the per-call way: the points and x each scaled by its
    own lcm, the exact-hit and box shortcuts, then the integer LP on a
    tableau built from the columns.  Returns (answer, tableau or None)."""
    sp, pts = as_integers(points)
    sx, (xs,) = as_integers([x])
    if sp % sx == 0 and tuple(c * (sp // sx) for c in xs) in pts:
        return True, None
    if any(not min(col) * sx <= c * sp <= max(col) * sx for c, col in zip(xs, zip(*pts))):
        return False, None
    return None, lp_tableau_from_columns([list(p) + [sp] for p in pts], list(xs) + [sx])


def affine_rank_reference(points):
    """Rank of the difference vectors by Gauss-Jordan elimination over Fraction."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    rows = [[c - b for c, b in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    for col in range(len(pts[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / top[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def simplex_volume_reference(vertices):
    """|det| / n! of the edge vectors, by Gaussian elimination over Fraction."""
    pts = [tuple(Fraction(c) for c in p) for p in vertices]
    rows = [[c - b for c, b in zip(p, pts[0])] for p in pts[1:]]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        top = rows[col]
        det *= top[col]
        for row in rows[col + 1 :]:
            f = row[col] / top[col]
            row[:] = [x - f * y for x, y in zip(row, top)]
    return abs(det) / math.factorial(n)


def random_cloud(rng, n):
    """Up to 12 rational points in [-2, 2]^n, with duplicates now and then."""
    pts = []
    for _ in range(rng.randint(1, 12)):
        if pts and rng.random() < 0.15:
            pts.append(rng.choice(pts))
            continue
        d = rng.choice((1, 2, 3, 4, 6, 12))
        pts.append(tuple(Fraction(rng.randint(-2 * d, 2 * d), d) for _ in range(n)))
    return pts

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_count_lattice_points_cube():
    h = hrep(LpdmSpec.of(3, (), {1, 2, 3}))
    assert count_lattice_points(h, 0) == 1
    assert count_lattice_points(h, 1) == 8
    assert count_lattice_points(h, 2) == 27


def test_count_at_one_matches_vertices(specs_n3):
    for m in specs_n3:
        assert count_lattice_points(hrep(m), 1) == len(vertex_set(m))


def test_count_suffix_box_validates():
    with pytest.raises(ArgumentError):
        count_suffix_box((0,), (1, 1), 1)
    with pytest.raises(ArgumentError):
        count_suffix_box((0,), (1,), -1)
    # bounds are integers: a float or a bool is refused, not compared
    for lower, upper in (((0.5,), (1.5,)), ((0,), (1.0,)), ((True,), (1,)), ((0, 0), (2, False))):
        with pytest.raises(ArgumentError):
            count_suffix_box(lower, upper, 2)
    assert count_suffix_box((), (), 3) == 1


def test_ehrhart_volume_worked():
    assert ehrhart_volume(hrep(LpdmSpec.of(3, (), {1, 3}))) == Fraction(1, 2)
    assert ehrhart_volume(hrep(LpdmSpec.of(3, (), {1, 2, 3}))) == 1
    assert ehrhart_volume(hrep(LpdmSpec.of(3, {1, 3}, {1, 3}))) == 0


def test_ehrhart_table_and_eval():
    # unit square: (t+1)^2 points in the t-th dilate
    h = hrep(LpdmSpec.of(2, (), {1, 2}))
    counts = ehrhart_table(h)
    assert counts == (1, 4, 9)
    assert ehrhart_eval(counts, 3) == 16
    assert ehrhart_eval(counts, 0) == 1
    assert tuple(count_lattice_points(h, t) for t in range(5)) == (1, 4, 9, 16, 25)


def test_ehrhart_eval_matches_counts(specs_n3):
    for m in specs_n3:
        h = hrep(m)
        counts = ehrhart_table(h)
        for t in (m.n + 1, m.n + 2):
            assert ehrhart_eval(counts, t) == count_lattice_points(h, t)


def lagrange_reference(counts, t):
    """The polynomial through (j, counts[j]), j = 0, 1, ..., at t, in Lagrange form over Fractions."""
    total = Fraction(0)
    for j, c in enumerate(counts):
        term = Fraction(c)
        for i in range(len(counts)):
            if i != j:
                term *= Fraction(t - i, j - i)
        total += term
    return total


def test_ehrhart_eval_matches_the_lagrange_interpolant(specs_n3):
    rng = random.Random("ehrhart-eval")
    tables = [ehrhart_table(hrep(m)) for m in specs_n3]
    tables += [tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 8))) for _ in range(200)]
    for counts in tables:
        n = len(counts) - 1
        for t in range(-3, n + 4):
            got = ehrhart_eval(counts, t)
            assert type(got) is int and got == lagrange_reference(counts, t), (counts, t)
    for counts, t in (((), 0), ([1], True), ([1], 1.0), ([1, 4], Fraction(1))):
        with pytest.raises(ArgumentError):
            ehrhart_eval(counts, t)


def test_simplex_volume():
    assert simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == Fraction(1, 6)
    assert simplex_volume([(0, 0), (2, 0), (0, 1)]) == 1
    with pytest.raises(DomainError):
        simplex_volume([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(ArgumentError):
        simplex_volume([(0, 0), (1, 0)])
    with pytest.raises(ArgumentError):
        simplex_volume([])


def test_simplex_volume_is_exact_on_rational_vertices(spell_mixed):
    half = Fraction(1, 2)
    assert simplex_volume([(0, 0), (3 * half, 0), (0, 1)]) == Fraction(3, 4)
    assert simplex_volume([(0, 0), (half, 0), (0, 1)]) == Fraction(1, 4)
    assert simplex_volume([("0", 0.0), ("1/2", 0), (0, True)]) == Fraction(1, 4)
    assert simplex_volume([()]) == 1
    with pytest.raises(DomainError):
        simplex_volume([(0, 0), (half, half), (1, 1)])
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 4)
        verts = random_cloud(rng, n)[: n + 1]
        if len(verts) < n + 1:
            continue
        want = simplex_volume_reference(verts)
        if want == 0:
            with pytest.raises(DomainError):
                simplex_volume(verts)
            continue
        assert simplex_volume(verts) == want, verts
        assert simplex_volume([spell_mixed(rng, v) for v in verts]) == want, verts
        # vol(kV) = k^n vol(V)
        for k in (2, 3, Fraction(1, 3), Fraction(-5, 2)):
            assert simplex_volume([tuple(k * c for c in v) for v in verts]) == abs(k) ** n * want


def test_hull_membership():
    assert hull_membership(SQUARE, (Fraction(1, 2), Fraction(1, 2)))
    assert hull_membership(SQUARE, (1, 1))
    assert not hull_membership(SQUARE, (2, 0))  # bounding box cut
    assert not hull_membership([(0, 0), (1, 1)], (1, 0))  # inside the box, off the segment
    assert hull_membership([(0, 0), (2, 2)], (1, 1))
    with pytest.raises(ArgumentError):
        hull_membership([], (0,))
    with pytest.raises(ArgumentError):
        hull_membership(SQUARE, (0, 0, 0))
    with pytest.raises(ArgumentError):
        hull_membership([(0,), (1, 2)], (0,))


def test_hull_membership_matches_fraction_reference():
    rng = random.Random(20230601)
    inside = 0
    for trial in range(600):
        n = rng.randint(1, 4)
        pts = random_cloud(rng, n)
        kind = trial % 4
        if kind == 0:
            x = rng.choice(pts)  # x is one of the points
        elif kind == 1:
            # a convex combination, so the LP has to find it
            w = [rng.randint(0, 3) for _ in pts]
            w[0] += 1
            x = tuple(sum(wi * p[i] for wi, p in zip(w, pts)) / sum(w) for i in range(n))
        else:
            d = rng.choice((1, 2, 3, 4, 6, 12))
            x = tuple(Fraction(rng.randint(-2 * d, 2 * d), d) for _ in range(n))
        want = hull_membership_reference(pts, x)
        assert hull_membership(pts, x) == want, (pts, x)
        inside += want
    assert 200 < inside < 550  # both answers are well represented


def test_hull_membership_single_point_and_mixed_inputs():
    assert hull_membership([(Fraction(1, 3), -1)], ("1/3", -1))
    assert not hull_membership([(Fraction(1, 3), -1)], (0, -1))
    # the same segment given as ints, bools, Fractions, strings and floats
    seg = [(0, 0), (True, 1)]
    for mid in ((Fraction(1, 2), Fraction(1, 2)), ("1/2", "1/2"), (0.5, 0.5)):
        assert hull_membership(seg, mid)
        assert hull_membership([(False, "0"), (1.0, Fraction(1))], mid)
    assert not hull_membership(seg, (0.5, 0.25))
    with pytest.raises(ArgumentError, match="point has 3 coordinates, expected 2"):
        hull_membership(seg, (0, 0, 0))


def draw_nums(rng, n):
    """A rational point near [-2, 2]^n as (numerators, one denominator),
    often not in lowest terms."""
    d = rng.choice((1, 2, 3, 4, 6, 12)) * rng.choice((1, 1, 2, 5))
    return [rng.randint(-2 * d, 2 * d) for _ in range(n)], d


def draw_query(rng, pts, n, share):
    """``draw_nums``, or, with probability ``share``, a convex combination
    of the points scaled up by k, also as (numerators, one denominator)."""
    nums, den = draw_nums(rng, n)
    if rng.random() < share:
        w = [rng.randint(0, 3) for _ in pts]
        w[0] += 1
        x = [sum(wi * p[i] for wi, p in zip(w, pts)) / sum(w) for i in range(n)]
        k = math.lcm(*(c.denominator for c in x)) * rng.choice((1, 3))
        nums, den = [int(c * k) for c in x], k
    return nums, den


def test_prepared_hull_matches_the_fraction_tableau():
    rng = random.Random(20261019)
    inside = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        pts = random_cloud(rng, n)
        for _ in range(6):
            nums, den = draw_query(rng, pts, n, 0.3)
            x = [Fraction(c, den) for c in nums]
            want = hull_membership_reference(pts, x)
            assert hull_membership(pts, x) == want, (pts, nums, den)
            inside += want
    assert 150 < inside < 450  # both answers are well represented


def test_double_description_matches_the_fraction_tableau():
    """x is in the hull iff it is on every equation and facet: rational
    clouds, with duplicates, of full and of lower dimension.  Each facet's
    mask holds exactly the points on it."""
    rng = random.Random(20261020)
    inside = flat = 0
    for trial in range(200):
        n = rng.randint(1, 4)
        pts = random_cloud(rng, n)
        if trial % 3 == 0:  # on a hyperplane of one more dimension
            a = [rng.randint(-2, 2) for _ in range(n)]
            pts = [(*p, sum(c * q for c, q in zip(a, p)) + Fraction(1, 3)) for p in pts]
            n += 1
        scale, scaled = as_integers(pts)
        equations, facets, masks = _hull_facets(scale, scaled)
        flat += bool(equations)
        for f, z in zip(facets, masks, strict=True):
            assert z == sum(1 << k for k, p in enumerate(scaled) if _dot(f, (scale, *p)) == 0), (pts, f)
        for _ in range(6):
            nums, den = draw_query(rng, pts, n, 0.4)
            want = hull_membership_reference(pts, [Fraction(c, den) for c in nums])
            assert _in_hull(equations, facets, (den, *nums)) == want, (pts, nums, den)
            inside += want
    assert 400 < inside < 900 and flat > 80, (inside, flat)  # both answers, and many flat hulls


def midpoint_edge_reference(verts, i, j):
    """Vertices i, j of a 0/1 polytope span an edge iff their midpoint is
    not in the hull of the other vertices (no vertex of such a polytope
    lies inside a segment between two others)."""
    rest = [v for k, v in enumerate(verts) if k not in (i, j)]
    mid = [Fraction(a + b, 2) for a, b in zip(verts[i], verts[j])]
    return not rest or not hull_membership_reference(rest, mid)


def test_incidence_edges_equal_the_midpoint_criterion_on_every_vertex_set():
    for m in _specs_upto(4):
        verts = vertex_set(m)
        pairs = [(i, j) for i in range(len(verts)) for j in range(i + 1, len(verts))]
        assert _hull_edges(verts) == [(i, j) for i, j in pairs if midpoint_edge_reference(verts, i, j)], m


def square_edges_reference(verts):
    """The edges of a spec polytope by the square rule, found by neighbour
    lookup: u and v span an edge iff they differ in one coordinate, or v is
    u less e_i plus e_j and the other two corners of that square, u ∧ v =
    u - e_i and u ∨ v = u + e_j, are not both vertices."""
    index = {v: k for k, v in enumerate(verts)}
    edges = set()
    for u, k in index.items():
        for i in range(len(u)):
            flip = index.get(u[:i] + (1 - u[i],) + u[i + 1 :])
            if flip is not None:
                edges.add((min(k, flip), max(k, flip)))
            for j in range(len(u)):
                if u[i] > u[j]:
                    meet, join = u[:i] + (0,) + u[i + 1 :], u[:j] + (1,) + u[j + 1 :]
                    swap = index.get(meet[:j] + (1,) + meet[j + 1 :])
                    if swap is not None and not (meet in index and join in index):
                        edges.add((min(k, swap), max(k, swap)))
    return sorted(edges)


def test_the_square_rule_gives_the_incidence_edges_on_every_spec():
    edges = 0
    for m in _specs_upto(5):
        verts = vertex_set(m)
        want = _hull_edges(verts)
        assert square_edges_reference(verts) == want, m
        edges += len(want)
    assert edges == 12136


def test_every_facet_of_a_linked_spec_is_an_inequality():
    """On a full-dimensional spec the hull has no equation, and each facet,
    read in lowest terms, is one of the 4n inequalities of ``hrep``."""
    linked = 0
    for m in _specs_upto(5):
        if m.n == dimension(m):
            equations, facets, _ = _hull_facets(1, vertex_set(m))
            rows = _inequalities(hrep(m))
            assert not equations and all(tuple(f) in rows for f in facets), m
            assert all(math.gcd(*f) == 1 and min(_dot(f, (1, *v)) for v in vertex_set(m)) == 0 for f in facets)
            linked += 1
    assert linked == 175


def lcm_dropping_clouds(rng, count):
    """Point sets, every other one with two added points whose denominators
    carry a 5 or a 7, so that dropping those two lowers the lcm."""
    for trial in range(count):
        n = rng.randint(1, 4)
        pts = random_cloud(rng, n)
        if trial % 2:
            d = rng.choice((5, 7, 10, 14))
            pts += [tuple(Fraction(rng.randint(-2 * d, 2 * d), d) for _ in range(n)) for _ in range(2)]
            rng.shuffle(pts)
        yield pts


def test_pivots_and_rows_are_those_of_the_tableau_built_from_columns(monkeypatch):
    """Each LP that ``hull_membership`` solves pivots as the tableau built
    from the columns at the points' own lcm does, row for row; the pivots
    are also those of the Fraction tableau."""
    logs = []  # one ([(entering, leaving), ...], [reduced row, ...]) per LP solved
    lp, pivot, reduce = oracle._lp_feasible, oracle._pivot, oracle._reduced

    def logged_lp(rows, ncols):
        logs.append(([], []))
        return lp(rows, ncols)

    def logged_pivot(rows, cost, entering, leaving):
        logs[-1][0].append((entering, leaving))
        return pivot(rows, cost, entering, leaving)

    def logged_reduced(row):
        out = reduce(row)
        logs[-1][1].append(list(out))
        return out

    monkeypatch.setattr(oracle, "_lp_feasible", logged_lp)
    monkeypatch.setattr(oracle, "_pivot", logged_pivot)
    monkeypatch.setattr(oracle, "_reduced", logged_reduced)
    rng = random.Random(4)
    solved = 0
    for pts in lcm_dropping_clouds(rng, 100):
        n = len(pts[0])
        queries = [(pts, [Fraction(c, d) for c in nums]) for nums, d in (draw_nums(rng, n) for _ in range(3))]
        scaled = as_integers(pts)[1]
        j = next((k for k, q in enumerate(scaled) if q != scaled[0]), None)
        if j is not None:  # the midpoint of points 0 and j against the rest, at the rest's own lcm
            rest = [p for p, q in zip(pts, scaled) if q not in (scaled[0], scaled[j])]
            if rest:
                queries.append((rest, [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(pts[0], pts[j])]))
        for points, x in queries:
            answer, tableau = lp_steps_reference(points, x)
            before = len(logs)
            got = hull_membership(points, x)
            assert got == hull_membership_reference(points, x)
            if tableau is None:
                assert len(logs) == before and got == answer
                continue
            oracle._lp_feasible(tableau, len(points))
            assert len(logs) == before + 2 and logs[-2] == logs[-1]
            fraction_pivots = []
            sp, scaled_pts = as_integers(points)
            sx, (xs,) = as_integers([x])
            lp_feasible_reference([list(p) + [sp] for p in scaled_pts], list(xs) + [sx], fraction_pivots)
            assert logs[-1][0] == fraction_pivots
            solved += 1
    assert solved > 100, solved


def test_hull_edges_square():
    assert _hull_edges(SQUARE) == [(0, 1), (0, 2), (1, 3), (2, 3)]  # the four sides, no diagonal
    assert _hull_edges([(0, 0), (1, 1)]) == [(0, 1)]  # nothing else left
    assert _hull_edges([(1, 1)]) == []


def as_integers_reference(points):
    """Every point times the lcm of all the denominators, over Fraction."""
    pts = [[Fraction(c) for c in p] for p in points]
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    return scale, [tuple(int(c * scale) for c in p) for p in pts]


def test_as_integers_matches_the_common_lcm_reference(spell_mixed):
    rng = random.Random(13)
    for _ in range(300):
        pts = random_cloud(rng, rng.randint(1, 5))
        mixed = [spell_mixed(rng, p) for p in pts]
        want = as_integers_reference(pts)
        for given in (pts, mixed, map(list, mixed)):
            scale, got = as_integers(given)
            assert (scale, got) == want, mixed
            assert all(type(c) is int for p in got for c in p)
        ints = [tuple(int(12 * c) for c in p) for p in pts]
        assert as_integers(map(list, ints)) == (1, ints)
    # all ints: scale 1, and the points come back as tuples
    assert as_integers([[1, -2], (0, 3)]) == (1, [(1, -2), (0, 3)])
    assert as_integers([]) == (1, [])
    assert as_integers([("1/2", 0.25), (True, 3)]) == (4, [(2, 1), (4, 12)])


def test_affine_rank():
    assert affine_rank([(1, 2)]) == 0
    assert affine_rank([(0, 0), (2, 2), (1, 1)]) == 1
    assert affine_rank(SQUARE) == 2
    assert affine_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    with pytest.raises(ArgumentError):
        affine_rank([])


def test_affine_rank_rejects_points_of_mixed_dimension():
    # zip would cut each point to the first one's length: the first list read rank 1
    for pts in ([(0, 0), (1,)], [(0,), (1, 1)], [(0, 0), (1, 1), (2, 0, 5)]):
        with pytest.raises(ArgumentError):
            affine_rank(pts)


def test_affine_rank_matches_fraction_reference():
    rng = random.Random(7)
    for _ in range(300):
        pts = random_cloud(rng, rng.randint(1, 5))
        if rng.random() < 0.3:
            # a point on the line through two others adds no dimension
            pts.append(tuple(2 * a - b for a, b in zip(pts[0], pts[-1])))
        assert affine_rank(pts) == affine_rank_reference(pts), pts


def test_volume_of_point_count_one():
    h = HRep(2, (1, 1), (1, 1))
    assert count_lattice_points(h, 1) == 1
    assert ehrhart_volume(h) == 0
