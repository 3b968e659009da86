import random
import time
from fractions import Fraction

import pytest

from lpdm import (
    ArgumentError,
    DomainError,
    Facet,
    LpdmSpec,
    OrderError,
    SetFamily,
    SubsetMask,
    all_subsets,
    catalan_spec,
    classify_elements,
    contract,
    delete,
    direct_sum,
    dual,
    envelope_bases,
    envelope_ground,
    envelope_project,
    exchange_witness,
    face,
    family_interval_bounds,
    feasible_sets,
    gale_leq,
    homogeneous_component,
    intersect,
    interval_size,
    project_element,
    relabel,
    signed_label_set,
)
from lpdm.jsonio import family_json
from lpdm.matroid import _box_spec


def fam(*sets):
    return {frozenset(s) for s in sets}


def test_spec_validates():
    with pytest.raises(ArgumentError):
        LpdmSpec.of(3, lower={4})
    with pytest.raises(ArgumentError):
        LpdmSpec((1, 1, 2), frozenset(), frozenset())
    with pytest.raises(OrderError):
        LpdmSpec.of(3, lower={1, 2}, upper={3})
    # labels equal to a ground label but not of type int are refused, not kept
    for ground, lower, upper in [
        ((1, 2, 3), {1.0}, {2, 3}),
        ((1, 2, 3), {1}, {True, 3}),
        ((1, 2, 3), (), {"3"}),
        ((1, True, 3), (), {3}),
        ((1, 2.0, 3), (), {3}),
    ]:
        with pytest.raises(ArgumentError, match="labels must be integers"):
            LpdmSpec(ground, lower, upper)
    with pytest.raises(ArgumentError, match="labels must be integers"):
        relabel(LpdmSpec.of(2), (1, False))
    m = LpdmSpec.of(3, {1}, {1, 3})
    assert m.n == 3 and m.standard_ground()
    assert m.position(3) == 3
    with pytest.raises(ArgumentError):
        m.position(9)


def test_set_family_membership_is_constant_time():
    fam = feasible_sets(LpdmSpec.of(14, (), range(1, 15)))
    probes = [fam.members[i * 7919 % len(fam)] for i in range(5000)] + [{15}, {1, 16}] * 2500
    start = time.perf_counter()
    found = sum(1 for a in probes if a in fam)
    assert time.perf_counter() - start < 1.0
    assert found == 5000


def test_set_family_canonical_order():
    f = SetFamily((1, 2, 3), ({3}, {1, 2}, {3}, set(), {1}))
    assert f.members == (frozenset(), frozenset({1}), frozenset({3}), frozenset({1, 2}))
    assert len(f) == 4
    assert {1, 2} in f and {2, 3} not in f
    assert family_json(f)["members"] == [[], [1], [3], [1, 2]]
    with pytest.raises(ArgumentError):
        SetFamily((1, 2), ({3},))
    for members in ([{1.0}, {True, 2}], [{1.0}], [{True, 2}], [set(), {2.0}]):
        with pytest.raises(ArgumentError, match="labels must be integers"):
            SetFamily((1, 2), members)


def test_feasible_sets_worked():
    got = set(feasible_sets(LpdmSpec.of(3, {1}, {1, 3})).members)
    assert got == fam({1}, {2}, {3}, {1, 2}, {1, 3})


def test_feasible_sets_six_set_interval():
    got = set(feasible_sets(LpdmSpec.of(5, {3, 4}, {2, 3, 5})).members)
    assert got == fam({3, 4}, {3, 5}, {1, 3, 4}, {1, 3, 5}, {2, 3, 4}, {2, 3, 5})


def test_feasible_sets_fifteen_set_interval():
    got = set(feasible_sets(LpdmSpec.of(5, {1, 3}, {2, 3, 5})).members)
    want = fam(
        {1, 3}, {2, 3}, {1, 4}, {2, 4}, {3, 4}, {1, 5}, {2, 5}, {3, 5},
        {1, 2, 3}, {1, 2, 4}, {1, 2, 5}, {1, 3, 4}, {1, 3, 5}, {2, 3, 4}, {2, 3, 5},
    )
    assert got == want and len(got) == 15


def test_exchange_holds_on_intervals(specs_n3):
    for m in specs_n3:
        assert exchange_witness(feasible_sets(m)) is None


def test_exchange_witness_on_violating_family():
    bad = SetFamily((1, 2, 3), (frozenset(), frozenset({1}), frozenset({1, 2, 3})))
    witness = exchange_witness(bad)
    assert witness is not None
    a1, a2, e = witness
    assert e in (a1 ^ a2)
    with pytest.raises(DomainError):
        exchange_witness(SetFamily((1, 2), ()))


def exchange_witness_reference(family):
    """The symmetric exchange axiom pair by pair: for every A1, A2 and e
    in their difference, look for an f in it with A1 xor {e, f} feasible."""
    if not family.members:
        raise DomainError("the empty family has no feasible sets to exchange")
    members = set(family.members)
    for a1 in family.members:
        for a2 in family.members:
            diff = a1 ^ a2
            for e in diff:
                if not any(a1 ^ {e, f} in members for f in diff):
                    return (a1, a2, e)
    return None


def random_families(count):
    """Seeded families with n <= 6 on labels drawn from [-8, 8], with up
    to 12 members."""
    rng = random.Random("exchange-families")
    for _ in range(count):
        ground = tuple(rng.sample(range(-8, 9), rng.randint(0, 6)))
        draw = lambda: frozenset(x for x in ground if rng.random() < 0.5)
        yield SetFamily(ground, tuple(draw() for _ in range(rng.randint(1, 12))))


def test_exchange_witness_matches_reference(specs_n5_two_grounds):
    intervals = [feasible_sets(m) for m in specs_n5_two_grounds]
    # distinct nonempty projections, in a fixed order
    projections = dict.fromkeys(p for f in intervals for g in f.ground if (p := project_element(f, g)).members)
    failing = 0
    for family in intervals + list(projections) + list(random_families(10_000)):
        got = exchange_witness(family)
        assert got == exchange_witness_reference(family), family
        failing += got is not None
    assert failing > 1000  # the witnesses are compared, not only None


def test_exchange_witness_on_the_n12_staircase():
    family = feasible_sets(LpdmSpec.of(12, (), (1, 3, 5, 7, 9, 11)))
    assert len(family) == 924
    start = time.perf_counter()
    assert exchange_witness(family) is None
    assert time.perf_counter() - start < 1.0


def test_box_specs_equal_the_validating_constructor(specs_n5_two_grounds):
    built = []
    for m in specs_n5_two_grounds:
        for label in m.ground:
            for op in (delete, contract):
                try:
                    built.append(op(m, label))
                except DomainError:
                    pass
        built += [homogeneous_component(m, k) for k in range(m.n + 1)]
        built.append(_box_spec(m.ground, m.lower_mask().profile, m.upper_mask().profile))
    by_ground = {}
    for m in specs_n5_two_grounds:
        by_ground.setdefault(m.ground, []).append(m)
    for specs in by_ground.values():
        # every pair up to n = 4; at n = 5 (462 specs, 26 us a crossing) every 21st spec meets all
        built += [intersect(m1, m2) for m1 in specs[:: 1 if len(specs) < 462 else 21] for m2 in specs]
    # equal specs with the same profiles are checked once
    built = {(b, b.lower_mask().profile, b.upper_mask().profile) for b in built if b is not None}
    assert len(built) > 1000
    for b, _, _ in built:
        assert b == LpdmSpec(b.ground, b.lower, b.upper)
        index = {g: i for i, g in enumerate(b.ground, start=1)}
        for mask, side in ((b.lower_mask(), b.lower), (b.upper_mask(), b.upper)):
            assert mask.profile == SubsetMask(b.n, frozenset(index[x] for x in side)).profile


def test_classify_elements():
    loops, coloops = classify_elements(LpdmSpec.of(3, {2}, {2}))
    assert coloops == frozenset({2}) and loops == frozenset({1, 3})
    loops, coloops = classify_elements(LpdmSpec.of(3, {1}, {1, 3}))
    assert loops == frozenset() and coloops == frozenset()


def classify_reference(m):
    """(loops, coloops) by the positional profile rule: position p is
    pinned when p = n or the bounds hold equally many elements above it;
    a pinned p in both bounds is a coloop, and in neither a loop."""
    s, t = m.lower_mask(), m.upper_mask()
    a, b = s.profile, t.profile
    pinned = [p for p in range(1, m.n + 1) if p == m.n or a[p] == b[p]]
    loops = m.labels(p for p in pinned if p not in s and p not in t)
    return (loops, m.labels(p for p in pinned if p in s and p in t))


def test_classify_elements_matches_the_profile_rule():
    checked = 0
    for n in range(7):
        masks = list(all_subsets(n))
        permuted = tuple(random.Random(f"classify:{n}").sample(range(1, n + 1), n))
        for s in masks:
            for t in masks:
                if gale_leq(s, t):
                    for ground in (tuple(range(1, n + 1)), permuted):
                        m = LpdmSpec(ground, frozenset(ground[p - 1] for p in s.members), frozenset(ground[p - 1] for p in t.members))
                        assert classify_elements(m) == classify_reference(m), m
                        checked += 1
    assert checked == 2 * 2353  # the comparable pairs with n <= 6, on two grounds


def test_dual_worked():
    assert dual(LpdmSpec.of(3, {1}, {1, 3})) == LpdmSpec.of(3, {2}, {2, 3})
    m = LpdmSpec.of(4, {2, 3}, {1, 3, 4})
    assert dual(dual(m)) == m


def test_dual_complements_family():
    m = LpdmSpec.of(4, {2}, {1, 4})
    g = frozenset(m.ground)
    want = {g - a for a in feasible_sets(m).members}
    assert set(feasible_sets(dual(m)).members) == want


def test_delete_worked():
    got = delete(LpdmSpec.of(5, {3, 4}, {2, 3, 5}), 5)
    assert got.ground == (1, 2, 3, 4)
    assert (got.lower, got.upper) == (frozenset({3, 4}), frozenset({2, 3, 4}))
    want = {a for a in feasible_sets(LpdmSpec.of(5, {3, 4}, {2, 3, 5})).members if 5 not in a}
    assert set(feasible_sets(got).members) == want


def test_delete_coloop_rejected():
    with pytest.raises(DomainError):
        delete(LpdmSpec.of(2, {2}, {2}), 2)


def test_contract_worked():
    got = contract(LpdmSpec.of(5, {3, 4}, {2, 3, 5}), 5)
    assert got.ground == (1, 2, 3, 4)
    assert (got.lower, got.upper) == (frozenset({3}), frozenset({2, 3}))
    assert set(feasible_sets(got).members) == fam({3}, {1, 3}, {2, 3})


def test_contract_loop_rejected():
    with pytest.raises(DomainError):
        contract(LpdmSpec.of(2, {1}, {1}), 2)


def delete_reference(m, label):
    """Deletion in closed form on positions: a deleted position p in the
    lower bound is replaced by the smallest free position above it (it
    exists unless p is a coloop); p in the upper bound is replaced by
    the largest free position below it, or dropped when there is none."""
    p = m.position(label)
    if label in classify_elements(m)[1]:
        raise DomainError(f"element {label!r} is a coloop and cannot be deleted")
    s, t = set(m.lower_mask().members), set(m.upper_mask().members)
    if p in s:
        s.discard(p)
        s.add(min(x for x in range(p + 1, m.n + 1) if x not in s))
    if p in t:
        t.discard(p)
        below = [x for x in range(1, p) if x not in t]
        if below:
            t.add(max(below))
    return LpdmSpec(tuple(g for g in m.ground if g != label), m.labels(s), m.labels(t))


def contract_reference(m, label):
    """Contraction in closed form, dual to deletion: a contracted
    position p missing from the lower bound drops the largest bound
    element below it (if any); missing from the upper bound, it drops
    the smallest bound element above it (it exists unless p is a loop)."""
    p = m.position(label)
    if label in classify_elements(m)[0]:
        raise DomainError(f"element {label!r} is a loop and cannot be contracted")
    s, t = set(m.lower_mask().members), set(m.upper_mask().members)
    if p in s:
        s.discard(p)
    elif any(x < p for x in s):
        s.discard(max(x for x in s if x < p))
    if p in t:
        t.discard(p)
    else:
        t.discard(min(x for x in t if x > p))
    return LpdmSpec(tuple(g for g in m.ground if g != label), m.labels(s), m.labels(t))


def outcome(op, *args):
    try:
        return op(*args)
    except DomainError as exc:
        return ("domain", str(exc))


def test_minors_match_closed_forms(specs_n5_two_grounds):
    refused = 0
    for m in specs_n5_two_grounds:
        for label in m.ground:
            for op, reference in ((delete, delete_reference), (contract, contract_reference)):
                got = outcome(op, m, label)
                assert got == outcome(reference, m, label), (op.__name__, m, label)
                refused += isinstance(got, tuple)
    assert refused > 0  # the coloop and loop refusals are compared too


def test_minors_match_filters(specs_n5_two_grounds):
    for m in specs_n5_two_grounds:
        members = set(feasible_sets(m).members)
        for label in m.ground:
            keep = {a for a in members if label not in a}
            if keep:
                assert set(feasible_sets(delete(m, label)).members) == keep
            else:
                with pytest.raises(DomainError, match="coloop"):
                    delete(m, label)
            through = {a - {label} for a in members if label in a}
            if through:
                assert set(feasible_sets(contract(m, label)).members) == through
            else:
                with pytest.raises(DomainError, match="loop"):
                    contract(m, label)


def test_direct_sum_bounds_union():
    left = LpdmSpec.of(1, {1}, {1})
    right = relabel(LpdmSpec.of(1, frozenset(), {1}), (2,))
    total = direct_sum(left, right)
    assert total == LpdmSpec((1, 2), frozenset({1}), frozenset({1, 2}))
    # the interval of the summed bounds can exceed the set of pairwise
    # unions: {2} is feasible here but is not a union of summand sets
    assert set(feasible_sets(total).members) == fam({1}, {2}, {1, 2})


def test_direct_sum_rejects_overlap():
    m = LpdmSpec.of(2, {1}, {1})
    with pytest.raises(ArgumentError):
        direct_sum(m, m)


def test_relabel():
    m = LpdmSpec.of(3, {1}, {1, 3})
    r = relabel(m, (10, 20, 30))
    assert r.ground == (10, 20, 30)
    assert (r.lower, r.upper) == (frozenset({10}), frozenset({10, 30}))
    with pytest.raises(ArgumentError):
        relabel(m, (1, 1, 2))
    with pytest.raises(ArgumentError):
        relabel(m, (1, 2))
    with pytest.raises(ArgumentError, match="must be integers"):  # checked before any label is hashed
        relabel(m, ([10], 20, 30))


def test_homogeneous_component_worked():
    fixed = LpdmSpec.of(6, {1, 3, 5}, {2, 4, 5, 6})
    c3 = homogeneous_component(fixed, 3)
    assert (c3.lower, c3.upper) == (frozenset({1, 3, 5}), frozenset({4, 5, 6}))
    c4 = homogeneous_component(fixed, 4)
    assert (c4.lower, c4.upper) == (frozenset({1, 2, 3, 5}), frozenset({2, 4, 5, 6}))
    assert homogeneous_component(fixed, 6) is None
    with pytest.raises(ArgumentError):
        homogeneous_component(fixed, 7)


def test_homogeneous_component_matches_size_filter():
    specs = [
        LpdmSpec.of(n, s.members, t.members)
        for n in range(7)
        for s in all_subsets(n)
        for t in all_subsets(n)
        if gale_leq(s, t)
    ]
    for m in specs:
        members = set(feasible_sets(m).members)
        for k in range(m.n + 1):
            comp = homogeneous_component(m, k)
            want = {a for a in members if len(a) == k}
            if comp is None:
                assert not want
            else:
                assert len(comp.lower) == len(comp.upper) == k  # a lattice path matroid
                assert set(feasible_sets(comp).members) == want


def test_envelope_ground_and_encoding():
    assert envelope_ground(2) == (-2, -1, 1, 2)
    assert signed_label_set(SubsetMask(3, frozenset({1, 3}))) == frozenset({1, -2, 3})


def test_envelope_bases_smallest_case():
    f = envelope_bases(LpdmSpec.of(1, frozenset(), {1}))
    assert f.ground == (-1, 1)
    assert set(f.members) == fam({-1}, {1})
    with pytest.raises(ArgumentError):
        envelope_bases(relabel(LpdmSpec.of(2, {1}, {1}), (3, 4)))


def test_envelope_project_worked():
    assert envelope_project(frozenset({-5, -1, 2, 3, 4}), 5) == (0, 1, 1, 1, 0)
    assert envelope_project(frozenset({1, -1}), 2) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ArgumentError):
        envelope_project(frozenset({1}), 2)
    with pytest.raises(ArgumentError):
        envelope_project(frozenset({1, 7}), 2)


def test_project_element_gap():
    m = LpdmSpec.of(5, {3, 4}, {2, 3, 5})
    proj = project_element(feasible_sets(m), 4)
    assert proj.ground == (1, 2, 3, 5)
    assert set(proj.members) == fam({3}, {1, 3}, {2, 3}, {3, 5}, {1, 3, 5}, {2, 3, 5})
    lo, hi, is_interval = family_interval_bounds(proj)
    assert lo == frozenset({3}) and hi == frozenset({2, 3, 5})
    assert not is_interval
    with pytest.raises(ArgumentError):
        project_element(proj, 4)


def test_project_loop_and_coloop():
    m = LpdmSpec.of(3, {2}, {2})
    members = feasible_sets(m)
    dropped_loop = project_element(members, 1)
    assert set(dropped_loop.members) == set(feasible_sets(delete(m, 1)).members)
    dropped_coloop = project_element(members, 2)
    assert set(dropped_coloop.members) == set(feasible_sets(contract(m, 2)).members)


def test_family_interval_bounds_on_intervals(specs_n3):
    for m in specs_n3:
        lo, hi, is_interval = family_interval_bounds(feasible_sets(m))
        assert is_interval and lo == m.lower and hi == m.upper
    with pytest.raises(DomainError):
        family_interval_bounds(SetFamily((1,), ()))


def test_catalan_spec():
    assert catalan_spec(2) == LpdmSpec.of(4, frozenset(), {1, 3})
    assert len(feasible_sets(catalan_spec(2))) == 6
    assert len(feasible_sets(catalan_spec(3))) == 20
    with pytest.raises(ArgumentError):
        catalan_spec(0)


def test_feasible_sets_equal_the_validating_constructor(specs_n5_two_grounds):
    for m in specs_n5_two_grounds:
        fam = feasible_sets(m)
        # the validating constructor dedups and sorts; here it changes nothing
        checked = SetFamily(m.ground, fam.members[::-1] + fam.members)
        assert fam == checked and fam.members == checked.members, m
        positions = {g: i for i, g in enumerate(m.ground, start=1)}
        assert {frozenset(positions[x] for x in a) for a in fam.members} == {
            s.members for s in all_subsets(m.n) if gale_leq(m.lower_mask(), s) and gale_leq(s, m.upper_mask())
        }


def _profile(n, positions):
    return tuple(sum(1 for p in positions if p >= i) for i in range(1, n + 1))


def canonical_reference(m):
    """The feasible label sets of ``m`` from its ground and bounds alone:
    the position sets whose suffix counts lie between the bounds', found
    by choosing membership from position n down, sorted by size and then
    by positions."""
    n = m.n
    pos = {g: i for i, g in enumerate(m.ground, start=1)}
    a, b = (_profile(n, {pos[x] for x in side}) for side in (m.lower, m.upper))
    found, stack = [], [(n, ())]
    while stack:
        i, chosen = stack.pop()
        if i == 0:
            found.append(chosen)
            continue
        for taken in (chosen, (i,) + chosen):
            if a[i - 1] <= len(taken) <= b[i - 1]:
                stack.append((i - 1, taken))
    found.sort(key=lambda ps: (len(ps), ps))
    return tuple(frozenset(m.ground[p - 1] for p in ps) for ps in found)


def seeded_specs(ground, count, seed, flips=None, most=None):
    """Specs on ``ground`` bounded by the componentwise min and max of
    the profiles of two random position sets: independent ones, or the
    second the first with ``flips`` positions toggled.  With ``most``,
    specs with more feasible sets than that are drawn again."""
    rng = random.Random(seed)
    n = len(ground)
    made = 0
    while made < count:
        first = {p for p in range(1, n + 1) if rng.random() < 0.5}
        if flips is None:
            second = {p for p in range(1, n + 1) if rng.random() < 0.5}
        else:
            second = first ^ set(rng.sample(range(1, n + 1), flips))
        profs = [_profile(n, first), _profile(n, second)]
        sides = [tuple(map(f, *profs)) + (0,) for f in (min, max)]
        lower, upper = (frozenset(ground[i] for i in range(n) if p[i] > p[i + 1]) for p in sides)
        m = LpdmSpec(ground, lower, upper)
        if most is None or interval_size(m.lower_mask(), m.upper_mask()) <= most:
            made += 1
            yield m


# grounds whose canonical (positional) order is not the order of the labels
NON_STANDARD_GROUNDS = {
    "descending": [tuple(range(n, 0, -1)) for n in range(11)],
    "sparse": [tuple(random.Random(f"sparse:{n}").sample(range(-50, 1000), n)) for n in range(11)],
    "signed": [envelope_ground(k) for k in range(6)],
}


@pytest.mark.parametrize("kind", list(NON_STANDARD_GROUNDS))
def test_mask_fold_matches_the_reference_on_other_grounds(kind):
    for ground in NON_STANDARD_GROUNDS[kind]:
        for m in seeded_specs(ground, 12, f"{kind}:{ground}"):
            want = canonical_reference(m)
            fam = feasible_sets(m)
            assert len(fam) == len(want) and fam.members == want, m
            order = {g: i for i, g in enumerate(m.ground)}
            assert family_json(fam)["members"] == [sorted(a, key=order.__getitem__) for a in want]
            assert all(a in fam for a in want)


def test_mask_fold_matches_the_reference_on_long_grounds():
    # members over more than 24 labels are spelled bit by bit, not from tables
    for n in (25, 31, 40, 49):
        ground = tuple(random.Random(f"wide:{n}").sample(range(-500, 500), n))
        for m in seeded_specs(ground, 4, f"wide:{n}", flips=4, most=3000):
            fam = feasible_sets(m)
            assert fam.members == canonical_reference(m), m
            order = {g: i for i, g in enumerate(ground)}
            assert family_json(fam)["members"] == [sorted(a, key=order.__getitem__) for a in fam.members]


def test_envelope_bases_match_the_reference():
    for n in range(5):
        for s in all_subsets(n):
            for t in all_subsets(n):
                if gale_leq(s, t):
                    m = LpdmSpec(envelope_ground(n), signed_label_set(s), signed_label_set(t))
                    assert envelope_bases(LpdmSpec.of(n, s.members, t.members)).members == canonical_reference(m)


def test_envelope_bases_equal_the_validating_constructor():
    # envelope_bases builds the signed bounds as masks; the public constructor reads them as label sets
    for n in range(7):
        for s in all_subsets(n):
            for t in all_subsets(n):
                if gale_leq(s, t):
                    m = LpdmSpec(envelope_ground(n), signed_label_set(s), signed_label_set(t))
                    assert envelope_bases(LpdmSpec.of(n, s.members, t.members)) == feasible_sets(m), (s, t)


def test_public_family_equals_the_mask_built_one():
    checked = 0
    for grounds in NON_STANDARD_GROUNDS.values():
        for ground in grounds:
            for m in seeded_specs(ground, 3, f"public:{ground}"):
                built = feasible_sets(m)
                members = list(canonical_reference(m))
                random.Random(repr(m)).shuffle(members)
                public = SetFamily(m.ground, members + [set(a) for a in members[:3]])
                assert public == built and built == public, m
                assert hash(public) == hash(built) and repr(public) == repr(built)
                checked += 1
    assert checked == 3 * sum(map(len, NON_STANDARD_GROUNDS.values()))
    assert SetFamily((2, 1), ({1},)) != SetFamily((1, 2), ({1},))
    for ground, member in (((3, 1, 2), {1, 4}), (envelope_ground(2), {-3}), ((), {0})):
        with pytest.raises(ArgumentError):
            SetFamily(ground, (frozenset(), member))


def test_reading_the_masks_leaves_members_undecoded():
    m = LpdmSpec((5, -2, 9, 1, -7, 30), frozenset({-2}), frozenset({5, 1, 30}))
    fam = feasible_sets(m)
    first = canonical_reference(m)[0]
    assert len(fam) == len(canonical_reference(m))
    assert first in fam and tuple(first) in fam and {-2, 4} not in fam and {5, -2, 9, 1, -7, 30} not in fam
    assert exchange_witness(fam) is None
    lists = family_json(fam)["members"]
    assert family_json(fam)["ground"] == list(m.ground)
    proj = project_element(fam, 9)
    lower, upper, _ = family_interval_bounds(proj)
    assert lower | upper <= set(proj.ground)
    facet = face(m, Facet("coordinate", 2, 1)).family
    assert len(facet) and exchange_witness(facet) is None
    # equality and hashing read the masks too, of families and of specs
    assert fam == feasible_sets(m) and hash(fam) == hash(feasible_sets(m))
    spec = dual(relabel(m, range(6)))
    assert spec == dual(relabel(m, range(6))) and hash(spec) == hash(dual(relabel(m, range(6))))
    assert "lower" not in vars(spec) and "upper" not in vars(spec)
    for family in (fam, proj, facet):
        assert "members" not in vars(family)
    assert fam.members == tuple(map(frozenset, lists)) and vars(fam)["members"] is fam.members


def test_projection_and_bounds_match_the_label_set_reference(specs_n5_two_grounds):
    for m in specs_n5_two_grounds:
        fam = feasible_sets(m)
        for label in m.ground:
            got = project_element(fam, label)
            ground = tuple(g for g in m.ground if g != label)
            want = SetFamily(ground, tuple(a - {label} for a in fam.members))
            assert got == want and got.members == want.members, (m, label)
            # the bounds from each member's profile, and the interval they span listed in full
            pos = {g: i for i, g in enumerate(ground, start=1)}
            profs = [_profile(len(ground), {pos[x] for x in a}) for a in want.members]
            spec = _box_spec(ground, tuple(map(min, zip(*profs))), tuple(map(max, zip(*profs))))
            span = set(feasible_sets(spec).members)
            assert family_interval_bounds(got) == (spec.lower, spec.upper, span == set(want.members)), (m, label)
