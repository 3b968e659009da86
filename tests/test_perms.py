import itertools
import math
from fractions import Fraction

import pytest

from lpdm import (
    ArgumentError,
    DomainError,
    LpdmSpec,
    Permutation,
    SubsetMask,
    all_permutations,
    all_subsets,
    chain_to_permutation,
    count_perms_in_descent_box,
    count_perms_with_descent_set,
    eulerian_number,
    gale_leq,
    is_linked,
    permutation_to_chain,
    subdivide,
    volume,
)
from lpdm.perms import _descent_profile


def beta_reference(n, dset):
    """Permutations of [n] with descent set exactly ``dset``, by
    inclusion-exclusion: the permutations whose descents lie inside a
    set {c_1 < ... < c_r} number the multinomial n! / (c_1! (c_2 -
    c_1)! ... (n - c_r)!)."""
    members = sorted(dset)
    total = 0
    for r in range(len(members) + 1):
        for cut in itertools.combinations(members, r):
            inside = math.factorial(n)
            for lo, hi in zip((0,) + cut, cut + (n,)):
                inside //= math.factorial(hi - lo)
            total += (-1) ** (len(members) - r) * inside
    return total


def eulerian_closed_form(n, k):
    """A(n, k) = sum over j of (-1)^j C(n+1, j) (k+1-j)^n."""
    return sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 2))


def test_permutation_validates():
    w = Permutation((2, 1, 3))
    assert w.n == 3 and w.images[0] == 2
    assert w.inverse().images == (2, 1, 3)
    with pytest.raises(ArgumentError):
        Permutation((1, 1))
    with pytest.raises(ArgumentError):
        Permutation((0, 1))
    # images equal to 1..n but not of type int are refused
    for images in [(2.0, True), (1.0,), (2, True), ("1",)]:
        with pytest.raises(ArgumentError):
            Permutation(images)


def test_identity_and_inverse():
    w = Permutation((3, 1, 2))
    assert w.inverse().images == (2, 3, 1)
    assert all(w.inverse().images[v - 1] == i for i, v in enumerate(w.images, start=1))
    assert w.inverse().inverse() == w


def test_descents_and_ascents_worked():
    w = Permutation((3, 2, 5, 4, 6, 1))
    assert w.descent_set().members == frozenset({1, 3, 5})
    assert w.ascent_set().members == frozenset({2, 4})
    e = Permutation((1, 2, 3, 4))
    assert e.descent_set().members == frozenset() and e.ascent_set().members == frozenset({1, 2, 3})


def test_descent_set_counts():
    # worked values; the classes of S_5 add up to 5!
    assert count_perms_with_descent_set(6, frozenset({1, 3, 5})) == 61
    assert count_perms_with_descent_set(3, frozenset({1})) == 2
    assert count_perms_with_descent_set(5, frozenset()) == 1
    assert count_perms_with_descent_set(4, frozenset({1, 2, 3})) == 1
    total = sum(
        count_perms_with_descent_set(5, frozenset(s))
        for s in ((), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                  (3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4))
    )
    assert total == math.factorial(5)


def test_ascent_counts_match_descent_counts():
    # reversal swaps ascents and descents positionwise
    perms = list(all_permutations(4))
    for s in ((), (1,), (2,), (1, 3), (1, 2, 3)):
        by_ascents = sum(1 for w in perms if w.ascent_set().members == frozenset(s))
        assert by_ascents == count_perms_with_descent_set(4, frozenset(s))


def test_descent_set_count_validates():
    with pytest.raises(ArgumentError):
        count_perms_with_descent_set(4, {4})
    with pytest.raises(ArgumentError):
        count_perms_with_descent_set(-1, ())
    with pytest.raises(ArgumentError):
        count_perms_with_descent_set(0, {1})
    assert count_perms_with_descent_set(0, ()) == 1
    with pytest.raises(ArgumentError):
        count_perms_in_descent_box((0, 0), (1,))


def descent_profile_reference(n, dset):
    """|dset inter [i, n-1]| for i = 1, ..., n, by a loop over the positions."""
    bits = 0
    for d in sorted(set(dset)):
        if not isinstance(d, int) or not 0 < d < n:
            raise ArgumentError(f"descent position {d!r} outside [1, {max(n, 1) - 1}]")
        bits |= 1 << d - 1
    return SubsetMask._trusted(n, bits).profile


def test_descent_profile_matches_the_position_loop():
    for n in range(8):
        for r in range(n + 1):
            for dset in itertools.combinations(range(1, n), r):
                want = descent_profile_reference(n, dset)
                assert _descent_profile(n, dset) == want, (n, dset)
                assert count_perms_with_descent_set(n, dset) == count_perms_in_descent_box(want, want), (n, dset)
        for bad in (0, n, -1):
            with pytest.raises(ArgumentError, match=rf"member {bad} outside ground set \[1, {max(n - 1, 0)}\]"):
                _descent_profile(n, {bad})


def test_descent_set_counts_match_reference():
    for n in range(1, 8):
        for s in all_subsets(n - 1):
            assert count_perms_with_descent_set(n, s.members) == beta_reference(n, s.members)


def test_volume_matches_reference_cell_sum():
    # volume is one count over a Gale interval of descent sets; the
    # reference counts each cell [R, R u {n}] of the subdivision apart
    for n in range(1, 7):
        masks = list(all_subsets(n))
        for s in masks:
            for t in masks:
                if not gale_leq(s, t):
                    continue
                m = LpdmSpec.of(n, s.members, t.members)
                if not is_linked(m):
                    assert volume(m) == 0
                    continue
                cells = subdivide(m).cells
                want = sum(beta_reference(n, c.lower_mask().members) for c in cells)
                assert volume(m) == Fraction(want, math.factorial(n))


def test_eulerian_numbers():
    assert [eulerian_number(4, k) for k in range(4)] == [1, 11, 11, 1]
    assert eulerian_number(5, 2) == 66
    assert sum(eulerian_number(6, k) for k in range(6)) == 720
    assert eulerian_number(0, 0) == 1 and eulerian_number(4, 4) == 0 and eulerian_number(4, -1) == 0


def test_eulerian_numbers_match_closed_form():
    for n in range(1, 26):
        for k in range(n):
            assert eulerian_number(n, k) == eulerian_closed_form(n, k)


def test_hypersimplex_slab_volumes_at_n25():
    # the slab k-1 <= x_1 + ... + x_n <= k has volume A(n, k-1) / n!
    n = 25
    for k in range(1, n + 1):
        m = LpdmSpec.of(n, range(1, k), range(n - k + 1, n + 1))
        assert volume(m) == Fraction(eulerian_closed_form(n, k - 1), math.factorial(n))


def test_all_permutations_complete():
    perms = list(all_permutations(4))
    assert len(perms) == 24 == len(set(perms))
    assert perms[0].images == (1, 2, 3, 4)


def chain_of(n, *member_sets):
    return tuple(SubsetMask(n, frozenset(m)) for m in member_sets)


def test_chain_to_permutation_worked():
    chain = chain_of(
        6, {1, 3, 5}, {1, 3, 6}, {2, 3, 6}, {1, 2, 3, 6}, {1, 2, 4, 6}, {1, 3, 4, 6}, {1, 3, 5, 6}
    )
    assert chain_to_permutation(chain).images == (3, 2, 5, 4, 6, 1)


def test_permutation_to_chain_worked():
    got = permutation_to_chain(Permutation((5, 3, 6, 1, 4, 2)), SubsetMask(6, frozenset({1, 3, 5})))
    want = chain_of(
        6, {1, 3, 5}, {1, 4, 5}, {1, 4, 6}, {2, 4, 6}, {2, 5, 6}, {1, 2, 5, 6}, {1, 3, 5, 6}
    )
    assert got == want


def test_permutation_to_chain_needs_matching_start():
    w = Permutation((2, 1))
    with pytest.raises(DomainError):
        permutation_to_chain(w, SubsetMask(2, frozenset()))  # descent set is {1}
    with pytest.raises(ArgumentError):
        permutation_to_chain(w, SubsetMask(3, frozenset({1})))  # a start on [3]


def test_chain_to_permutation_rejects_chains_off_the_cell():
    # both are valid chains of covers, but neither runs from S inside [n-1] to S u {n} in n steps
    with pytest.raises(DomainError):
        chain_to_permutation(chain_of(3, (), {1}, {2}))  # ends below {3}
    with pytest.raises(DomainError):
        chain_to_permutation(chain_of(3, {3}, {1, 3}, {2, 3}, {1, 2, 3}))  # starts holding 3


def test_round_trip_small():
    for n in range(1, 8):
        for w in all_permutations(n):
            start = SubsetMask(n, w.descent_set().members)
            assert chain_to_permutation(permutation_to_chain(w, start)) == w
