import functools
import random
from fractions import Fraction
from itertools import accumulate, product

import pytest

from lpdm import (
    ArgumentError,
    DomainError,
    Facet,
    HRep,
    LpdmSpec,
    SubsetMask,
    contains,
    dimension,
    face,
    feasible_sets,
    all_subsets,
    gale_leq,
    hrep,
    intersect,
    is_linked,
    mask_from_profile,
    relabel,
    vertex_set,
)


def test_hrep_worked():
    h = hrep(LpdmSpec.of(3, {1}, {1, 3}))
    assert h == HRep(3, (1, 0, 0), (2, 1, 1))


def test_hrep_validates():
    with pytest.raises(ArgumentError):
        HRep(2, (0,), (1, 1))
    with pytest.raises(ArgumentError):
        HRep(2, (0, 2), (2, 1))  # not a suffix profile
    with pytest.raises(ArgumentError):
        HRep(2, (2, 1), (1, 1))  # lower above upper


def test_contains():
    h = hrep(LpdmSpec.of(3, {1}, {1, 3}))
    assert contains(h, (1, 0, 0))
    assert contains(h, (1, 0, 1))
    assert contains(h, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert not contains(h, (0, 0, 0))  # below the lower bound
    assert not contains(h, (1, 1, 1))  # above the upper bound
    assert not contains(h, (2, 0, 0))  # outside the cube
    with pytest.raises(ArgumentError):
        contains(h, (1, 0))


@functools.cache
def suffix_sums(point):
    """The suffix sums x_i + ... + x_n over Fraction, or None off the cube."""
    xs = [Fraction(v) for v in point]
    if any(x < 0 or x > 1 for x in xs):
        return None
    return list(accumulate(reversed(xs)))[::-1]


def contains_reference(h, point):
    """Suffix sums over Fraction, the slow independent route."""
    sums = suffix_sums(tuple(point))
    return sums is not None and all(lo <= s <= hi for lo, s, hi in zip(h.lower, sums, h.upper))


def all_hreps(n):
    masks = list(all_subsets(n))
    return [hrep(LpdmSpec.of(n, s.members, t.members)) for s in masks for t in masks if gale_leq(s, t)]


def test_contains_matches_fraction_reference_on_01_points():
    for n in range(7):
        points = list(product((0, 1), repeat=n))
        for h in all_hreps(n):
            for bits in points:
                assert contains(h, bits) == contains_reference(h, bits), (h, bits)


def test_contains_matches_fraction_reference_on_rational_points():
    rng = random.Random(11)
    hits = 0
    for n in range(1, 7):
        hs = all_hreps(n)
        for _ in range(400):
            h = rng.choice(hs)
            d = rng.choice((1, 2, 3, 4, 6, 12))
            x = tuple(Fraction(rng.randint(-1, d + 1), d) for _ in range(n))
            want = contains_reference(h, x)
            assert contains(h, x) == want, (h, x)
            hits += want
    assert 100 < hits < 2300


def test_contains_input_parity():
    h = hrep(LpdmSpec.of(3, {1}, {1, 3}))
    half = Fraction(1, 2)
    # ints, bools, Fractions, strings and floats read as the same rationals
    for x in ((1, 0, 1), (True, False, True), (Fraction(1), 0, "1"), (1.0, 0.0, 1.0)):
        assert contains(h, x)
    for x in ((half, half, half), ("1/2", "1/2", "1/2"), (0.5, 0.5, 0.5), (half, "0.5", 0.5)):
        assert contains(h, x)
    for x in ((0, 0, 0), (False, False, False), ("0", 0.0, Fraction(0)), ("1/2", 0, 0), (0.5, 0.25, 0)):
        assert not contains(h, x)
    assert not contains(h, ("-1/2", 1, 1))  # a negative coordinate
    assert not contains(h, (1.5, 0, 0))
    for bad in ((1, 0), ("1/2",) * 4):
        with pytest.raises(ArgumentError, match=f"point has {len(bad)} coordinates, expected 3"):
            contains(h, bad)
    assert contains(HRep(0, (), ()), ())


DENOMS = (1, 2, 3, 4, 5, 6, 7, 12)


def random_hrep(rng, n):
    """The polytope between the meet and the join of two random subsets'
    profiles, with the two subsets' indicator vectors as vertices."""
    ends = [tuple(int(rng.random() < 0.5) for _ in range(n)) for _ in range(2)]
    profiles = [list(accumulate(reversed(v)))[::-1] for v in ends]
    return HRep(n, tuple(map(min, *profiles)), tuple(map(max, *profiles))), ends


def long_points(rng, n, ends):
    """Convex combinations of the two vertices (ints where they agree),
    and the same with one or more coordinates redrawn in [0, 1], each with
    its own denominator from DENOMS, so a running scale grows mid-scan."""
    u, v = ends
    for k in range(24):
        w = Fraction(rng.randint(0, 12), 12)
        x = [a if a == b else w * a + (1 - w) * b for a, b in zip(u, v)]
        for i in rng.sample(range(n), (0, 1, rng.randint(2, n))[k % 3]):
            d = rng.choice(DENOMS)
            x[i] = Fraction(rng.randint(0, d), d)
        yield tuple(x)


def test_contains_matches_fraction_reference_on_long_points(spell_mixed):
    rng = random.Random(2024)
    hits = misses = 0
    for n in range(8, 25):
        for _ in range(4):
            h, ends = random_hrep(rng, n)
            for x in long_points(rng, n, ends):
                want = contains_reference(h, x)
                assert contains(h, x) == want, (h, x)
                assert contains(h, spell_mixed(rng, x)) == want, (h, x)
                hits += want
                misses += not want
            # out at the first coordinate scanned (x_n) and at the last (x_1)
            inside = tuple(Fraction(a + b, 2) for a, b in zip(*ends))
            assert contains(h, inside)
            for i, bad in ((n - 1, Fraction(-1, 7)), (n - 1, Fraction(13, 12)), (0, Fraction(-1, 5)), (0, Fraction(8, 7))):
                x = inside[:i] + (bad,) + inside[i + 1 :]
                assert not contains(h, x) and not contains(h, spell_mixed(rng, x)), (h, x)
    assert hits > 500 and misses > 500, (hits, misses)


class Unreadable(Fraction):
    """A Fraction whose value must not be read."""

    def as_integer_ratio(self):
        raise AssertionError("a coordinate past the point's exit was read")

    numerator = denominator = property(as_integer_ratio)


def test_contains_stops_reading_where_the_point_leaves():
    h = hrep(LpdmSpec.of(10, {10}, {1, 10}))  # x_10 must be 1
    assert not contains(h, (Unreadable(1, 2),) * 9 + (Fraction(1, 2),))
    assert not contains(h, (Unreadable(1, 2),) * 8 + (Fraction(3, 2), Fraction(1)))
    assert not contains(h, (Unreadable(1, 2),) * 9 + (2,))  # an int leaves first
    assert contains(h, ("1/2",) + (0,) * 8 + (Fraction(1),))
    assert contains(h, (Fraction(1, 2),) + (0,) * 8 + (1,))  # ints, then a rational
    assert not contains(h, ("3/2",) + (0,) * 8 + (Fraction(1),))


def test_vertices_satisfy_hrep(specs_n3):
    for m in specs_n3:
        h = hrep(m)
        verts = vertex_set(m)
        assert len(verts) == len(feasible_sets(m))
        for v in verts:
            assert contains(h, v)


def test_vertex_set_worked():
    assert vertex_set(LpdmSpec.of(2, (), {1, 2})) == [
        (0, 0), (1, 0), (0, 1), (1, 1)
    ]


def test_dimension():
    assert dimension(LpdmSpec.of(3, {1}, {1, 3})) == 3
    assert dimension(LpdmSpec.of(3, {1, 3}, {1, 3})) == 0
    assert dimension(LpdmSpec.of(2, {2}, {1, 2})) == 1


def test_is_linked():
    assert is_linked(LpdmSpec.of(3, (), {1, 2, 3}))
    assert not is_linked(LpdmSpec.of(3, {1, 3}, {1, 3}))
    assert not is_linked(LpdmSpec.of(2, {2}, {1, 2}))


def test_intersect_worked():
    got = intersect(LpdmSpec.of(2, (), {2}), LpdmSpec.of(2, {1}, {1, 2}))
    assert got == LpdmSpec.of(2, {1}, {2})


def test_intersect_empty_and_mismatch():
    assert intersect(LpdmSpec.of(2, {1, 2}, {1, 2}), LpdmSpec.of(2, (), ())) is None
    with pytest.raises(ArgumentError):
        intersect(LpdmSpec.of(2, (), ()), relabel(LpdmSpec.of(2, (), ()), (3, 4)))


def test_intersect_matches_set_intersection(specs_n5_two_grounds):
    members = {m: set(feasible_sets(m).members) for m in specs_n5_two_grounds if m.n <= 4}
    for m1 in members:
        for m2 in members:
            if m1.ground != m2.ground:
                continue
            got = intersect(m1, m2)
            want = members[m1] & members[m2]
            if got is None:
                assert not want, (m1, m2)
            else:
                assert set(feasible_sets(got).members) == want, (m1, m2)


def test_facet_validates():
    with pytest.raises(ArgumentError):
        Facet("weird", 1, 0)
    with pytest.raises(ArgumentError):
        Facet("coordinate", 0, 1)
    with pytest.raises(ArgumentError):
        Facet("coordinate", 1, 2)
    with pytest.raises(ArgumentError):
        Facet("suffix", 1, 0)
    # an index or a coordinate level equal to an int but not of type int is refused
    for index, level in ((True, 1), (2.0, 1), (2, 1.0), (2, True), (2, False), (2, "1")):
        with pytest.raises(ArgumentError):
            Facet("coordinate", index, level)
    with pytest.raises(ArgumentError):
        Facet("suffix", True, "lower")


def test_face_coordinate_worked():
    m = LpdmSpec.of(5, {1, 3}, {2, 3, 5})
    res = face(m, Facet("coordinate", 3, 1))
    assert len(res.family) == 9
    one, rest = res.factors
    assert one == LpdmSpec((3,), frozenset({3}), frozenset({3}))
    assert rest == LpdmSpec((1, 2, 4, 5), frozenset({1}), frozenset({2, 5}))
    assert len(res.family) == len(feasible_sets(one)) * len(feasible_sets(rest))


def test_face_suffix_worked():
    m = LpdmSpec.of(2, (), {1, 2})
    res = face(m, Facet("suffix", 2, "lower"))
    assert {frozenset(a) for a in res.family.members} == {frozenset(), frozenset({1})}
    low, high = res.factors
    assert low == LpdmSpec((1,), frozenset(), frozenset({1}))
    assert high == LpdmSpec((2,), frozenset(), frozenset())


def test_face_empty():
    res = face(LpdmSpec.of(2, {2}, {2}), Facet("coordinate", 1, 1))
    assert len(res.family) == 0 and res.factors is None


def test_face_index_out_of_range():
    with pytest.raises(ArgumentError):
        face(LpdmSpec.of(2, (), ()), Facet("coordinate", 3, 0))


def test_face_of_the_point_polytope():
    # on the empty ground the polytope is a point, which has no facet
    for facet in (Facet("suffix", 1, "upper"), Facet("coordinate", 1, 0)):
        with pytest.raises(DomainError, match="no facet"):
            face(LpdmSpec.of(0), facet)


def block_spec_reference(ground, start, stop, position_sets):
    """The spec on the positions start, ..., stop - 1 spanned by the parts
    of the given position sets inside that block: the componentwise
    minimum and maximum of their profiles."""
    block = ground[start - 1 : stop - 1]
    parts = [SubsetMask(stop - start, frozenset(p - start + 1 for p in a if start <= p < stop)) for a in position_sets]
    profs = [s.profile for s in parts]
    lo, hi = mask_from_profile(map(min, zip(*profs))), mask_from_profile(map(max, zip(*profs)))
    return LpdmSpec(block, frozenset(block[p - 1] for p in lo.members), frozenset(block[p - 1] for p in hi.members))


def test_face_matches_filter_and_block_reference(specs_n5_two_grounds):
    for m in (m for m in specs_n5_two_grounds if m.n <= 4):
        members = feasible_sets(m).members
        index = {g: p for p, g in enumerate(m.ground, start=1)}
        positions = [frozenset(index[x] for x in a) for a in members]
        for i in range(1, m.n + 1):
            for level in (0, 1):
                res = face(m, Facet("coordinate", i, level))
                want = tuple(a for a, ps in zip(members, positions) if (i in ps) == bool(level))
                assert res.family.members == want, (m, i, level)
            for side in ("lower", "upper"):
                target = (m.lower_mask() if side == "lower" else m.upper_mask()).profile[i - 1]
                kept = [k for k, ps in enumerate(positions) if sum(1 for p in ps if p >= i) == target]
                res = face(m, Facet("suffix", i, side))
                assert res.family.members == tuple(members[k] for k in kept), (m, i, side)
                parts = [positions[k] for k in kept]
                want = (block_spec_reference(m.ground, 1, i, parts), block_spec_reference(m.ground, i, m.n + 1, parts))
                assert res.factors == want, (m, i, side)


def test_vertex_set_follows_feasible_sets(specs_n5_two_grounds):
    for m in specs_n5_two_grounds:
        want = [tuple(int(g in a) for g in m.ground) for a in feasible_sets(m).members]
        assert vertex_set(m) == want
