import math

import pytest

from lpdm import (
    ArgumentError,
    DomainError,
    GaleChain,
    Permutation,
    SubsetMask,
    all_permutations,
    chain_to_permutation,
    count_perms_with_descent_set,
    eulerian_number,
    permutation_to_chain,
)


def test_permutation_validates():
    w = Permutation((2, 1, 3))
    assert w.n == 3 and w(1) == 2
    assert w.inverse().images == (2, 1, 3)
    with pytest.raises(ArgumentError):
        Permutation((1, 1))
    with pytest.raises(ArgumentError):
        Permutation((0, 1))


def test_identity_and_inverse():
    w = Permutation((3, 1, 2))
    assert Permutation.identity(3).images == (1, 2, 3)
    assert w.inverse().images == (2, 3, 1)
    assert all(w.inverse()(w(i)) == i for i in (1, 2, 3))


def test_descents_and_ascents_worked():
    w = Permutation((3, 2, 5, 4, 6, 1))
    assert w.descent_set().members == frozenset({1, 3, 5})
    assert w.ascent_set().members == frozenset({2, 4})
    e = Permutation.identity(4)
    assert e.descent_set().members == frozenset() and e.ascent_set().members == frozenset({1, 2, 3})


def test_descent_set_counts():
    # inclusion-exclusion over compositions
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


def test_eulerian_numbers():
    assert [eulerian_number(4, k) for k in range(4)] == [1, 11, 11, 1]
    assert eulerian_number(5, 2) == 66
    assert sum(eulerian_number(6, k) for k in range(6)) == 720


def test_all_permutations_complete():
    perms = list(all_permutations(4))
    assert len(perms) == 24 == len(set(perms))
    assert perms[0].images == (1, 2, 3, 4)


def chain_of(n, *member_sets):
    return GaleChain(tuple(SubsetMask(n, frozenset(m)) for m in member_sets))


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


def test_round_trip_small():
    for n in (1, 2, 3, 4):
        for w in all_permutations(n):
            start = SubsetMask(n, w.descent_set().members)
            assert chain_to_permutation(permutation_to_chain(w, start)) == w
