"""The value classes: equality, hashing, repr and immutability.

Each class was a frozen dataclass; the repr strings below are the ones
those dataclasses printed, so the plain classes keep their behaviour.
"""

import pytest

from lpdm import (
    FaceResult,
    Facet,
    HRep,
    LpdmSpec,
    PathWord,
    Permutation,
    SetFamily,
    Subdivision,
    SubsetMask,
    all_permutations,
    chain_to_permutation,
    contract,
    delete,
    direct_sum,
    dual,
    face,
    feasible_sets,
    homogeneous_component,
    hrep,
    intersect,
    path_from_subset,
    permutation_to_chain,
    perms_with_descent_set,
    project_element,
    relabel,
    simplex_cell,
    subdivide,
    triangulate_toric,
)
from lpdm.cli import CommandResult
from lpdm.errors import Frozen
from lpdm.matroid import _box_spec
from lpdm.selftest import CheckResult

SPEC = LpdmSpec.of(4, {1}, {2, 4})

# name -> (builder, repr printed by the dataclass)
SAMPLES = {
    "SubsetMask": (lambda: SubsetMask(5, frozenset({1, 3})), "SubsetMask(5, {1,3})"),
    "LpdmSpec": (
        lambda: LpdmSpec.of(4, {1}, {2, 4}),
        "LpdmSpec(ground=(1, 2, 3, 4), lower=frozenset({1}), upper=frozenset({2, 4}))",
    ),
    "LpdmSpec-labels": (
        lambda: LpdmSpec((30, 10, 20), frozenset({10}), frozenset({20, 30})),
        "LpdmSpec(ground=(30, 10, 20), lower=frozenset({10}), upper=frozenset({20, 30}))",
    ),
    "SetFamily": (
        lambda: SetFamily((2, 1), ({1}, (), {1, 2})),
        "SetFamily(ground=(2, 1), members=(frozenset(), frozenset({1}), frozenset({1, 2})))",
    ),
    "PathWord": (lambda: PathWord("ENNE"), "PathWord(steps='ENNE')"),
    "Permutation": (lambda: Permutation((3, 1, 2)), "Permutation(images=(3, 1, 2))"),
    "HRep": (lambda: hrep(SPEC), "HRep(n=4, lower=(1, 0, 0, 0), upper=(2, 2, 1, 1))"),
    "Facet": (lambda: Facet("suffix", 2, "upper"), "Facet(kind='suffix', index=2, level='upper')"),
    "FaceResult": (
        lambda: face(SPEC, Facet("coordinate", 1, 1)),
        "FaceResult(family=SetFamily(ground=(1, 2, 3, 4), members=(frozenset({1}), frozenset({1, 2}), "
        "frozenset({1, 3}), frozenset({1, 4}))), factors=(LpdmSpec(ground=(1,), lower=frozenset({1}), "
        "upper=frozenset({1})), LpdmSpec(ground=(2, 3, 4), lower=frozenset(), upper=frozenset({4}))))",
    ),
    "FaceResult-empty": (
        lambda: face(LpdmSpec.of(2, (), {1}), Facet("coordinate", 2, 1)),
        "FaceResult(family=SetFamily(ground=(1, 2), members=()), factors=None)",
    ),
    "Subdivision": (
        lambda: subdivide(LpdmSpec.of(3, (), {3})),
        "Subdivision(cells=(LpdmSpec(ground=(1, 2, 3), lower=frozenset(), upper=frozenset({3})),))",
    ),
    "CommandResult": (
        lambda: CommandResult("ok", {"rank": 6}, 0.5, 0),
        "CommandResult(status='ok', payload={'rank': 6}, milliseconds=0.5, exit_code=0, log='')",
    ),
    "CheckResult": (
        lambda: CheckResult("order-axioms", True, "ok", 1.5),
        "CheckResult(name='order-axioms', passed=True, detail='ok', seconds=1.5)",
    ),
}

FIELDS = {
    SubsetMask: ("n", "bits"),
    LpdmSpec: ("ground", "_lower_mask", "_upper_mask"),
    SetFamily: ("ground", "_masks"),
    PathWord: ("steps",),
    Permutation: ("images",),
    HRep: ("n", "lower", "upper"),
    Facet: ("kind", "index", "level"),
    FaceResult: ("family", "factors"),
    Subdivision: ("cells",),
    CommandResult: ("status", "payload", "milliseconds", "exit_code", "log"),
    CheckResult: ("name", "passed", "detail", "seconds"),
}


def test_every_former_dataclass_is_sampled():
    assert len(FIELDS) == 11
    assert {type(build()) for build, _ in SAMPLES.values()} == set(FIELDS)


@pytest.mark.parametrize("name", list(SAMPLES))
def test_repr_equality_and_hash(name):
    build, text = SAMPLES[name]
    x, y = build(), build()
    assert repr(x) == text
    assert x is not y and x == y and not x != y
    values = tuple(getattr(x, f) for f in FIELDS[type(x)])
    if name != "CommandResult":  # its payload is a dict, so it has no hash
        assert hash(x) == hash(y) == hash(values)


@pytest.mark.parametrize("name", list(SAMPLES))
def test_assignment_raises(name):
    x = SAMPLES[name][0]()
    for f in FIELDS[type(x)]:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.extra = 1


def test_equality_needs_the_same_class():
    samples = [build() for build, _ in SAMPLES.values()]
    for a in samples:
        for b in samples:
            assert (a == b) == (a is b or (type(a) is type(b) and repr(a) == repr(b)))
    # equal field tuples, different classes
    class One(Frozen):
        _fields = ("n",)

        def __init__(self, n):
            self.__dict__["n"] = n

    class Two(One):
        pass

    one, two = One(2), Two(2)
    assert one._values() == two._values() and hash(one) == hash(two)
    assert one != two and two != one
    assert one.__eq__(two) is NotImplemented and two.__eq__(one) is NotImplemented
    assert SubsetMask(2).__eq__(one) is NotImplemented and SubsetMask(2) != one
    assert SubsetMask(3) == SubsetMask(3, frozenset()) != SubsetMask(4)


def test_trusted_spec_equals_the_validated_one():
    checked = LpdmSpec((1, 2, 3, 4), frozenset({1}), frozenset({2, 4}))
    trusted = _box_spec((1, 2, 3, 4), (1, 0, 0, 0), (2, 2, 1, 1))
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked) == SAMPLES["LpdmSpec"][1]
    # the masks are the fields, and repr spells them as label sets
    assert trusted.lower_mask() is not checked.lower_mask()
    assert "_lower_mask" not in repr(checked) and "_upper_mask" not in repr(checked)
    assert trusted.lower_mask().profile == checked.lower_mask().profile == (1, 0, 0, 0)
    assert trusted != _box_spec((1, 2, 3, 4), (1, 0, 0, 0), (2, 1, 1, 1))


@pytest.mark.parametrize("name", list(SAMPLES))
def test_every_value_is_its_fields(name):
    # an instance stores exactly its fields, so the generic store rebuilds it
    x = SAMPLES[name][0]()
    assert set(FIELDS[type(x)]) <= vars(x).keys()
    y = type(x)._trusted(*x._values())
    assert y == x and x == y and repr(y) == repr(x)
    if name != "CommandResult":  # its payload is a dict, so it has no hash
        assert hash(y) == hash(x)


def test_cached_properties_on_frozen_instances():
    mask = SubsetMask._trusted(4, 0b1010)
    assert "profile" not in vars(mask)
    assert mask.profile == (2, 2, 1, 1) and vars(mask)["profile"] is mask.profile
    assert mask == SubsetMask(4, frozenset({2, 4}))
    fam = SetFamily((1, 2), ((), (1,)))
    assert (1,) in fam and (2,) not in fam


def test_internal_builders_skip_the_validating_constructors(monkeypatch):
    checked = (Permutation, PathWord, HRep, LpdmSpec, SetFamily)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built through its validating constructor")

    cell = LpdmSpec.of(5, {2}, {2, 5})
    spec, other = LpdmSpec((30, 10, 20, 40), {10}, {20, 40}), LpdmSpec((7, 8), (), {7})
    for cls in checked:
        monkeypatch.setattr(cls, "__init__", refuse)
    perms = list(all_permutations(4))
    cells = [simplex_cell(w) for w in perms]
    built = triangulate_toric(cell) + perms
    built += [*perms_with_descent_set(5, {2, 4}), *perms_with_descent_set(0, ())]
    built += [w.inverse() for w in perms]
    built += [chain_to_permutation(permutation_to_chain(w, SubsetMask(4, w.descent_set().members))) for w in perms]
    built += [path_from_subset(s) for s in cells] + [hrep(cell)]
    built += [dual(spec), direct_sum(spec, other), direct_sum(other, spec), relabel(spec, (4, 3, 2, 1))]
    built += [delete(spec, 30), contract(spec, 10), intersect(spec, dual(spec)), *subdivide(cell).cells]
    built += [homogeneous_component(spec, k) for k in (1, 2)] + [feasible_sets(spec), feasible_sets(cell)]
    for facet in (("coordinate", 2, 0), ("coordinate", 3, 1), ("suffix", 2, "upper")):
        res = face(spec, Facet._trusted(*facet))
        built += [res.family, *res.factors]
    built.append(project_element(feasible_sets(spec), 20))
    monkeypatch.undo()

    def rebuilt(x):
        """The same value through the public constructor, fields rebuilt first."""
        if type(x) is LpdmSpec:
            return LpdmSpec(x.ground, x.lower, x.upper)
        if type(x) is SetFamily:
            return SetFamily(x.ground, x.members)
        return type(x)(*map(rebuilt, x._values())) if type(x) in checked else x

    assert {type(x) for x in built} == set(checked)
    for x in built:
        ref = rebuilt(x)
        assert x == ref and ref == x and hash(x) == hash(ref) and repr(x) == repr(ref)
    assert all(s == SubsetMask(s.n, s.members) for s in cells)
