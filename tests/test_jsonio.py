from fractions import Fraction

import pytest

import lpdm.jsonio
from lpdm import LpdmSpec, OrderError, PathWord, Permutation, SetFamily, UsageError, relabel
from lpdm.jsonio import family_json, parse_spec, read, spec_json
from lpdm.polytope import Facet


def test_jsonio_exports_read_and_the_shared_shapes():
    assert sorted(lpdm.jsonio.__all__) == ["family_json", "member_lists", "parse_spec", "read", "spec_json"]


def test_parse_spec_variants():
    assert parse_spec({"n": 3, "S": [1], "T": [1, 3]}) == LpdmSpec.of(3, {1}, {1, 3})
    custom = parse_spec({"ground": [4, 7, 9], "S": [4], "T": [4, 9]})
    assert custom.ground == (4, 7, 9)
    assert parse_spec({"n": 2, "ground": [5, 6], "S": [], "T": []}).ground == (5, 6)


def test_parse_spec_errors():
    with pytest.raises(UsageError):
        read({"first": [1, 2]}, "first")
    with pytest.raises(UsageError):
        parse_spec({"n": 2, "S": [1]})
    with pytest.raises(UsageError):
        parse_spec({"n": 3, "ground": [1, 2], "S": [], "T": []})
    with pytest.raises(UsageError):
        parse_spec({"n": 2, "S": [True], "T": []})
    with pytest.raises(OrderError):
        parse_spec({"n": 3, "S": [1, 2], "T": [3]})


def test_spec_json_round_trip():
    m = LpdmSpec.of(5, {3, 4}, {2, 3, 5})
    assert spec_json(m) == {"n": 5, "S": [3, 4], "T": [2, 3, 5]}
    assert parse_spec(spec_json(m)) == m
    r = relabel(m, (10, 20, 30, 40, 50))
    out = spec_json(r)
    assert out["ground"] == [10, 20, 30, 40, 50]
    assert parse_spec(out) == r


def test_parse_int_and_lists():
    # a subset field reads the document's integer n and its own integer array
    assert read({"n": 4, "S": []}, "S").n == 4
    with pytest.raises(UsageError):
        read({"n": "4", "S": []}, "S")
    with pytest.raises(UsageError):
        read({"n": True, "S": []}, "S")
    with pytest.raises(UsageError):
        read({"n": 3, "S": "nope"}, "S")
    with pytest.raises(UsageError):
        read({"n": 3, "S": [1, 2.5]}, "S")


def test_parse_subset():
    s = read({"n": 3, "S": [1, 3]}, "S")
    assert s.n == 3 and s.members == frozenset({1, 3})
    with pytest.raises(UsageError):
        read({"n": 3}, "S")


def test_fractions():
    assert read({"x": ["2/4", 3]}, "x") == (Fraction(1, 2), 3)
    for bad in (True, 1.5, "x", "1/0", None):
        with pytest.raises(UsageError, match="^not a rational: "):
            read({"x": [bad]}, "x")


def test_points():
    assert read({"x": ["1/2", 1, "0/1"]}, "x") == (Fraction(1, 2), 1, 0)
    with pytest.raises(UsageError):
        read({"x": "1/2"}, "x")


def test_family_json():
    fam = SetFamily((1, 2), (frozenset({2}), frozenset()))
    assert family_json(fam) == {"ground": [1, 2], "members": [[], [2]]}
    # labels are listed in ground order, not sorted
    assert family_json(SetFamily((5, 2), (frozenset({2, 5}),))) == {"ground": [5, 2], "members": [[5, 2]]}


def test_facet_from_json():
    assert read({"facet": {"kind": "coordinate", "i": 2, "value": 1}}, "facet") == Facet(
        "coordinate", 2, 1
    )
    assert read({"facet": {"kind": "suffix", "i": 1, "side": "upper"}}, "facet") == Facet(
        "suffix", 1, "upper"
    )
    for bad in (
        {"kind": "weird", "i": 1, "value": 0},
        {"kind": "coordinate", "i": 1, "value": 2},
        {"kind": "coordinate", "i": 1, "value": True},
        {"kind": "coordinate", "i": 1, "value": 1.0},
        {"kind": "coordinate", "i": 1, "value": 0.0},
        {"kind": "suffix", "i": 1, "side": "top"},
        {"kind": "coordinate", "value": 0},
    ):
        with pytest.raises(UsageError):
            read({"facet": bad}, "facet")


def test_parse_object():
    doc = {"first": {"n": 1, "S": [], "T": []}, "second": [1]}
    assert read(doc, "first") == LpdmSpec.of(1)
    for key, bad in (("second", [1]), ("second", None), ("first", "x"), ("facet", 3), ("facet", [])):
        with pytest.raises(UsageError, match=f"^'{key}' must be a JSON object$"):
            read({**doc, key: bad}, key)
    with pytest.raises(UsageError, match="^'facet' must be a JSON object$"):
        read(doc, "facet")
    with pytest.raises(KeyError):
        read(doc, "missing")


def test_parse_word():
    assert read({"P": "ENNE"}, "P") == PathWord("ENNE")
    for key in ("P", "Q", "word"):
        for bad in (5, None, ["E", "N"], True, {"E": 1}):
            with pytest.raises(UsageError, match=f"^'{key}' must be a step word string$"):
                read({key: bad}, key)


def test_parse_int_list_rejects_bools_and_strings():
    assert read({"perm": [3, 1, 2]}, "perm") == Permutation((3, 1, 2))
    for bad in ([1, True], [False], ["1", 2], [2, "1"], [1.0], "12", None):
        with pytest.raises(UsageError, match="^field 'perm' must be an array of integers$"):
            read({"perm": bad}, "perm")
