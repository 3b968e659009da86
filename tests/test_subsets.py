import itertools
import random

import pytest
from hypothesis import given, strategies as st

from lpdm import (
    ArgumentError,
    DomainError,
    OrderError,
    Permutation,
    SubsetMask,
    all_subsets,
    chain_to_permutation,
    count_maximal_chains,
    cover_successors,
    gale_leq,
    gale_rank,
    interval,
    interval_size,
    is_valid_profile,
    mask_from_profile,
    sort_key,
)
from lpdm.oracle import count_suffix_box
from lpdm.subsets import _decode
from lpdm.selftest import gale_leq_definitional


def mask(n, *members):
    return SubsetMask(n, frozenset(members))


def test_construction_validates_members():
    assert mask(3, 1, 2).as_tuple() == (1, 2)
    with pytest.raises(ArgumentError):
        mask(3, 4)
    with pytest.raises(ArgumentError):
        mask(3, 0)
    with pytest.raises(ArgumentError):
        SubsetMask(-1, frozenset())
    # a size or member equal to an int but not of type int is refused
    for n, members in ((True, {True}), (True, set()), (3.0, {1}), (3, {1.0}), (3, {True}), (3, {2, False})):
        with pytest.raises(ArgumentError):
            SubsetMask(n, frozenset(members))


def test_complement_and_len():
    s = mask(4, 1, 3)
    assert len(s) == 2 and 3 in s and 2 not in s


def test_profile_worked_values():
    assert mask(6, 1, 3, 5).profile == (3, 2, 2, 1, 1, 0)
    assert mask(2).profile == (0, 0)
    assert mask(2, 1, 2).profile == (2, 1)
    assert SubsetMask(0, frozenset()).profile == ()


def test_profile_round_trip_exhaustive():
    for n in range(5):
        for s in all_subsets(n):
            p = s.profile
            assert is_valid_profile(p)
            assert mask_from_profile(p) == s


def test_invalid_profiles_rejected():
    assert not is_valid_profile((0, 2))
    assert not is_valid_profile((1, 0, 1))
    assert not is_valid_profile((2,))
    assert not is_valid_profile((-1,))
    with pytest.raises(ArgumentError):
        mask_from_profile((0, 2))


def test_gale_leq_worked_pairs():
    assert gale_leq(mask(2, 1), mask(2, 2))
    assert gale_leq(mask(5, 3, 4), mask(5, 2, 3, 5))
    # incomparable: sizes pull one way, positions the other
    assert not gale_leq(mask(3, 1, 2), mask(3, 3))
    assert not gale_leq(mask(3, 3), mask(3, 1, 2))
    # the slip in the published six-set list: 45 is not below 235
    assert not gale_leq(mask(5, 4, 5), mask(5, 2, 3, 5))


def test_gale_leq_requires_same_ground():
    with pytest.raises(ArgumentError):
        gale_leq(mask(2, 1), mask(3, 1))
    with pytest.raises(ArgumentError):  # and so does the selftest's pairwise reference
        gale_leq_definitional(mask(2, 1), mask(3, 1))


def test_rank_is_member_sum():
    assert gale_rank(mask(6, 1, 3, 5)) == 9
    assert gale_rank(mask(4)) == 0


@given(st.integers(0, 2**7 - 1), st.integers(0, 2**7 - 1))
def test_both_comparison_forms_agree(a, b):
    s = SubsetMask(7, frozenset(i + 1 for i in range(7) if a >> i & 1))
    t = SubsetMask(7, frozenset(i + 1 for i in range(7) if b >> i & 1))
    assert gale_leq(s, t) == gale_leq_definitional(s, t)


def test_all_subsets_canonical_order():
    got = [s.as_tuple() for s in all_subsets(3)]
    assert got == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert got == sorted(got, key=lambda t: (len(t), t))


def test_interval_worked():
    got = interval(mask(3, 1), mask(3, 1, 3))
    assert [s.as_tuple() for s in got] == [(1,), (2,), (3,), (1, 2), (1, 3)]
    assert [sort_key(s) for s in got] == sorted(sort_key(s) for s in got)


def test_interval_and_chains_on_a_deep_ground():
    # the ground is deeper than the interpreter's recursion limit
    low, high = mask(1200), mask(1200, 1200)
    got = interval(low, high)
    assert len(got) == 1201
    assert got[0] == low and got[-1] == high
    assert count_maximal_chains(low, high) == 1


def test_interval_rejects_incomparable():
    with pytest.raises(OrderError):
        interval(mask(2, 2), mask(2, 1))


def test_cover_successors_worked():
    assert cover_successors(mask(2)) == [mask(2, 1)]
    assert cover_successors(mask(3, 1)) == [mask(3, 2)]
    assert cover_successors(mask(2, 2)) == [mask(2, 1, 2)]
    assert cover_successors(mask(2, 1, 2)) == []
    assert cover_successors(SubsetMask(0, frozenset())) == []


def test_chain_validation():
    # a chain is a tuple of masks; chain_to_permutation checks that each step is a cover
    assert chain_to_permutation((mask(2), mask(2, 1), mask(2, 2))) == Permutation((1, 2))
    assert chain_to_permutation((mask(2, 1), mask(2, 2), mask(2, 1, 2))) == Permutation((2, 1))
    with pytest.raises(DomainError, match=r"\(2, \{\}\) -> SubsetMask\(2, \{1,2\}\) is not a cover step$"):
        chain_to_permutation((mask(2), mask(2, 1, 2), mask(2, 2)))  # skips a rank
    with pytest.raises(DomainError, match=r"\(4, \{2\}\) -> SubsetMask\(4, \{1\}\) is not a cover step$"):
        chain_to_permutation((mask(4), mask(4, 1), mask(4, 2), mask(4, 1), mask(4, 4)))  # goes down
    with pytest.raises(DomainError, match="^chain does not run from S to S u {n} in n steps$"):
        chain_to_permutation(())


def test_count_maximal_chains_values():
    s, t = mask(6, 1, 3, 5), mask(6, 1, 3, 5, 6)
    assert count_maximal_chains(s, t) == 61
    assert count_maximal_chains(s, s) == 1
    with pytest.raises(OrderError):
        count_maximal_chains(mask(2, 2), mask(2, 1))


def interval_reference(lower, upper):
    """The stack-and-sort enumerator: choose membership from position n
    down inside the profile box, then sort into canonical order."""
    n = lower.n
    a, b = lower.profile, upper.profile
    found = []
    stack = [(n, 0, frozenset())]
    while stack:
        i, c, acc = stack.pop()
        if i == 0:
            found.append(SubsetMask(n, acc))
            continue
        if a[i - 1] <= c <= b[i - 1]:
            stack.append((i - 1, c, acc))
        if a[i - 1] <= c + 1 <= b[i - 1]:
            stack.append((i - 1, c + 1, acc | {i}))
    found.sort(key=sort_key)
    return found


def comparable_pairs(n):
    masks = list(all_subsets(n))
    return [(s, t) for s in masks for t in masks if gale_leq(s, t)]


def profile_bounds(masks):
    """The componentwise minimum and maximum of the profiles of a
    nonempty list of subsets of [n]: the bounds of the smallest Gale
    interval that holds them all."""
    profs = [s.profile for s in masks]
    return mask_from_profile(map(min, zip(*profs))), mask_from_profile(map(max, zip(*profs)))


def seeded_pairs(n, count):
    """Comparable pairs on [n]: the profile bounds of two random subsets."""
    rng = random.Random(f"pairs:{n}")
    draw = lambda: SubsetMask(n, frozenset(x for x in range(1, n + 1) if rng.random() < 0.5))
    return [profile_bounds([draw(), draw()]) for _ in range(count)]


def test_interval_matches_stack_and_sort_reference():
    for n in range(8):
        for s, t in comparable_pairs(n):
            assert interval(s, t) == interval_reference(s, t), (s, t)
    for n in range(10, 15):
        for s, t in seeded_pairs(n, 6):
            got, want = interval(s, t), interval_reference(s, t)
            assert got == want, (s, t)
            # masks built without validation still compute their profiles
            assert [x.profile for x in got] == [x.profile for x in want]


def test_interval_size_matches_listing_and_oracle():
    pairs = [p for n in range(8) for p in comparable_pairs(n)]
    pairs += [p for n in range(8, 15) for p in seeded_pairs(n, 6)]
    for s, t in pairs:
        size = interval_size(s, t)
        assert size == len(interval(s, t)) == count_suffix_box(s.profile, t.profile, 1), (s, t)
    # the staircase on [2n] holds binomial(2n, n) sets; at n = 30 no listing could finish
    stair = lambda n: SubsetMask(2 * n, frozenset(range(1, 2 * n, 2)))
    assert interval_size(SubsetMask(24, frozenset()), stair(12)) == 2704156
    assert interval_size(SubsetMask(60, frozenset()), stair(30)) == 118264581564861424


def test_interval_size_rejects_bad_pairs():
    with pytest.raises(OrderError):
        interval_size(mask(2, 2), mask(2, 1))
    with pytest.raises(ArgumentError):
        interval_size(mask(2), mask(3))


def cover_successors_reference(s):
    """Adjoin 1 or slide an element up by one, then sort into canonical order."""
    out = [SubsetMask(s.n, s.members | {1})] if s.n >= 1 and 1 not in s.members else []
    out += [SubsetMask(s.n, (s.members - {i}) | {i + 1}) for i in s.members if i < s.n and i + 1 not in s.members]
    return sorted(out, key=sort_key)


def test_cover_successors_in_canonical_order():
    for n in range(8):
        for s in all_subsets(n):
            assert cover_successors(s) == cover_successors_reference(s)


@pytest.mark.parametrize("n", [0, 1, 5, 12, 17, 24, 25, 40])
def test_decode_spells_every_mask_from_tables_or_bits(n):
    # a family at least as large as a half table reads tables (up to 24 labels); a smaller one is spelled bit by bit
    rng = random.Random(f"decode:{n}")
    labels = tuple(rng.sample(range(-60, 60), n))
    for count in (0, 1, 3, min(1 << (n + 1) // 2, 4096), 3000):
        masks = [rng.getrandbits(n) for _ in range(count)]
        spelled = [tuple(labels[i] for i in range(n) if x >> i & 1) for x in masks]
        assert _decode(masks, labels, tuple) == spelled
        assert _decode(masks, labels, frozenset) == list(map(frozenset, spelled))
        assert _decode(masks, (1,) * n, tuple, 0) == [tuple(x >> i & 1 for i in range(n)) for x in masks]


def test_bit_form_matches_a_frozenset_reference():
    for n in range(9):
        for k in range(n + 1):
            for combo in itertools.combinations(range(1, n + 1), k):
                ref = frozenset(combo)
                checked = SubsetMask(n, ref)
                trusted = SubsetMask._trusted(n, sum(1 << x - 1 for x in combo))
                assert trusted == checked and checked == trusted and hash(trusted) == hash(checked)
                for s in (checked, trusted):
                    assert s.profile == tuple(sum(1 for x in ref if x >= i) for i in range(1, n + 1))
                    assert len(s) == len(ref)
                    assert [x in s for x in range(-1, n + 2)] == [x in ref for x in range(-1, n + 2)]
                    assert s.members == ref and s.as_tuple() == combo
                    assert repr(s) == f"SubsetMask({n}, {{{','.join(map(str, combo))}}})"
                    assert sort_key(s) == (k, combo)
                    assert gale_rank(s) == sum(ref)
                    assert mask_from_profile(s.profile) == s


def count_maximal_chains_reference(lower, upper):
    """The rank-by-rank chain count over frozensets of members: every
    cover adjoins 1 or slides a member up by one, and a cover that adds
    e keeps a set below upper iff its suffix count at e stays below."""
    n = lower.n
    top = [sum(1 for x in upper.members if x >= i) for i in range(1, n + 1)]
    ways = {lower.members: 1}
    for _ in range(sum(upper.members) - sum(lower.members)):
        step = {}
        for ms, count in ways.items():
            covers = [(ms - {i}) | {i + 1} for i in ms if i < n and i + 1 not in ms]
            covers += [ms | {1}] if n >= 1 and 1 not in ms else []
            for nxt in covers:
                (e,) = nxt - ms
                if sum(1 for x in nxt if x >= e) <= top[e - 1]:
                    step[nxt] = step.get(nxt, 0) + count
        ways = step
    return ways[upper.members]


def test_count_maximal_chains_matches_frozenset_reference():
    pairs = [p for n in range(7) for p in comparable_pairs(n)]
    pairs += [p for n in range(9, 13) for p in seeded_pairs(n, 50)]
    assert len(pairs) > 1000
    for s, t in pairs:
        assert count_maximal_chains(s, t) == count_maximal_chains_reference(s, t), (s, t)
