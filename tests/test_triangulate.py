import random
from fractions import Fraction
from itertools import accumulate

import pytest

from lpdm import (
    ArgumentError,
    DomainError,
    LatticeSimplex,
    LpdmSpec,
    Permutation,
    SubsetMask,
    all_permutations,
    all_subsets,
    ehrhart_volume,
    eulerian_simplex,
    gale_leq,
    hrep,
    interval,
    is_linked,
    is_toric,
    mask_from_profile,
    simplex_cell,
    simplex_volume,
    subdivide,
    triangulate_toric,
    volume,
)


def test_lattice_simplex_validates():
    with pytest.raises(ArgumentError):
        LatticeSimplex(((0, 0), (1, 0)))
    with pytest.raises(ArgumentError):
        LatticeSimplex(())
    simp = LatticeSimplex(((0, 0), (1, 0), (0, 1)))
    assert simp.n == 2 and simp.perm is None
    assert simp.barycenter() == (Fraction(1, 3), Fraction(1, 3))


def test_lattice_simplex_rejects_what_int_would_coerce():
    # each of these used to be read through int() into ((0, 0), (1, 0), (0, 1))
    for verts in (((0, 0), (1.7, 0), (0, True)), (("0", "0"), ("1", "0"), ("0", "1")), ((0, 0), (1, 0), (0, True))):
        with pytest.raises(ArgumentError, match="must be ints"):
            LatticeSimplex(verts)
    square = ((0, 0), (1, 0), (1, 1))
    assert LatticeSimplex(square, Permutation((2, 1))).perm == Permutation((2, 1))
    for perm in (Permutation((1, 2, 3)), (2, 1), Permutation(())):
        with pytest.raises(ArgumentError, match="permutation of \\[2\\]"):
            LatticeSimplex(square, perm)


def test_eulerian_simplex_worked():
    simp = eulerian_simplex(Permutation((1, 3, 2)))
    assert simp.vertices == ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1))
    assert simp.perm == Permutation((1, 3, 2))
    assert eulerian_simplex(Permutation(())).vertices == ((),)


def test_eulerian_simplices_unimodular():
    for n in (1, 2, 3, 4):
        for w in all_permutations(n):
            assert simplex_volume(eulerian_simplex(w).vertices) == Fraction(
                1, [1, 1, 2, 6, 24][n]
            )


def test_prefix_sum_transport():
    # the fractional parts of the prefix sums of the reversed barycenter
    # recover the inverse permutation scaled into the open cube
    for n in (1, 2, 3, 4):
        for w in all_permutations(n):
            bary = eulerian_simplex(w).barycenter()
            got = tuple(x % 1 for x in accumulate(reversed(bary)))
            winv = w.inverse().images
            assert got == tuple(Fraction(winv[i], n + 1) for i in range(n))


def test_simplex_cell_worked():
    assert simplex_cell(Permutation((1, 3, 2))).members == frozenset({1})
    assert simplex_cell(Permutation((2, 3, 1))).members == frozenset({2})
    assert simplex_cell(Permutation((3, 2, 5, 4, 6, 1))).members == frozenset({2, 4, 5})
    assert simplex_cell(Permutation((1, 2))).members == frozenset()
    with pytest.raises(DomainError):
        simplex_cell(Permutation(()))  # no cell on the empty ground


def test_simplex_cell_closed_form():
    for n in (1, 2, 3, 4):
        for w in all_permutations(n):
            want = frozenset(n - d for d in w.inverse().descent_set().members)
            assert simplex_cell(w).members == want


def test_simplex_cell_differs_from_both_descents_and_ascents():
    swapped = Permutation((1, 3, 2))
    assert simplex_cell(swapped).members != swapped.descent_set().members
    cycled = Permutation((2, 3, 1))
    assert simplex_cell(cycled).members != cycled.ascent_set().members


def test_is_toric():
    assert is_toric(LpdmSpec.of(3, {1}, {1, 3}))
    assert is_toric(LpdmSpec.of(3, (), {3}))
    assert not is_toric(LpdmSpec.of(3, (), {1, 2, 3}))
    assert not is_toric(LpdmSpec.of(3, {3}, {3}))
    assert not is_toric(LpdmSpec.of(0))


def test_triangulate_toric_worked():
    simps = triangulate_toric(LpdmSpec.of(3, {1}, {1, 3}))
    assert [s.perm.images for s in simps] == [(1, 3, 2), (3, 1, 2)]
    with pytest.raises(DomainError):
        triangulate_toric(LpdmSpec.of(3, (), {1, 2, 3}))


def test_triangulate_toric_matches_label_filter():
    for n in range(1, 6):
        perms = list(all_permutations(n))
        for s in all_subsets(n - 1):
            want = [w.images for w in perms if simplex_cell(w).members == s.members]
            got = triangulate_toric(LpdmSpec.of(n, s.members, s.members | {n}))
            assert [x.perm.images for x in got] == want


def test_triangulate_toric_is_output_sensitive():
    # the bottom cell of the 11-cube holds only the identity's simplex
    (simp,) = triangulate_toric(LpdmSpec.of(11, (), {11}))
    assert simp.perm == Permutation(tuple(range(1, 12)))


def test_subdivide_cube():
    sub = subdivide(LpdmSpec.of(3, (), {1, 2, 3}))
    assert [(sorted(c.lower), sorted(c.upper)) for c in sub.cells] == [
        ([], [3]),
        ([1], [1, 3]),
        ([2], [2, 3]),
        ([1, 2], [1, 2, 3]),
    ]
    with pytest.raises(DomainError):
        subdivide(LpdmSpec.of(3, {1, 3}, {1, 3}))
    with pytest.raises(DomainError):  # no cell lives on the empty ground
        subdivide(LpdmSpec.of(0))
    assert volume(LpdmSpec.of(0)) == 1


def test_trusted_cells_equal_the_validating_constructor():
    specs = []
    for n in range(1, 7):
        masks = list(all_subsets(n))
        for ground in (tuple(range(1, n + 1)), tuple(10 * x + 7 for x in range(n, 0, -1))):
            specs += [
                LpdmSpec(ground, frozenset(ground[p - 1] for p in s.members), frozenset(ground[p - 1] for p in t.members))
                for s in masks
                for t in masks
                if gale_leq(s, t)
            ]
    linked = [m for m in specs if is_linked(m)]
    assert len(linked) > 1000
    for m in linked:
        n = m.n
        ranks = interval(m.lower_mask(), SubsetMask(n, m.upper_mask().members - {n}))
        want = [LpdmSpec(m.ground, m.labels(r.members), m.labels(r.members | {n})) for r in ranks]
        got = subdivide(m).cells
        assert list(got) == want and list(map(hash, got)) == list(map(hash, want))
        assert list(map(repr, got)) == list(map(repr, want))
        for cell, ref in zip(got, want):
            assert (cell.lower_mask(), cell.upper_mask()) == (ref.lower_mask(), ref.upper_mask())
            assert cell.lower_mask().profile == ref.lower_mask().profile
            assert cell.upper_mask().profile == ref.upper_mask().profile


def test_volume_worked():
    assert volume(LpdmSpec.of(3, {1}, {1, 3})) == Fraction(1, 3)
    assert volume(LpdmSpec.of(3, (), {1, 3})) == Fraction(1, 2)
    assert volume(LpdmSpec.of(3, (), {1, 2, 3})) == 1
    assert volume(LpdmSpec.of(3, {1, 3}, {1, 3})) == 0
    # middle slab of the 4-cube: the second Eulerian number over 4!
    assert volume(LpdmSpec.of(4, {1}, {3, 4})) == Fraction(11, 24)


def test_volume_matches_lattice_count_route(specs_n3):
    for m in specs_n3:
        assert volume(m) == ehrhart_volume(hrep(m))


def test_volume_of_the_point():
    m = LpdmSpec.of(0)
    assert volume(m) == 1 == ehrhart_volume(hrep(m))


def random_linked_spec(rng, n):
    """Profiles a < b drawn position by position from n down."""
    a, b = [0], [1]
    for _ in range(n - 1):
        steps = [(x, y) for x in (0, 1) for y in (0, 1) if a[-1] + x < b[-1] + y]
        x, y = rng.choice(steps)
        a.append(a[-1] + x)
        b.append(b[-1] + y)
    lower, upper = mask_from_profile(a[::-1]), mask_from_profile(b[::-1])
    return LpdmSpec.of(n, lower.members, upper.members)


def test_volume_matches_lattice_count_route_beyond_enumeration():
    rng = random.Random(20231126)
    for n in range(8, 21):
        for _ in range(4):
            m = random_linked_spec(rng, n)
            assert volume(m) == ehrhart_volume(hrep(m))
