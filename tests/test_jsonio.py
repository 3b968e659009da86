from fractions import Fraction

import pytest

from lpdm import LpdmSpec, OrderError, SetFamily, UsageError, relabel
from lpdm.jsonio import (
    facet_from_json,
    family_json,
    frac_str,
    hrep_json,
    parse_frac,
    parse_int,
    parse_int_list,
    parse_point,
    parse_spec,
    parse_subset,
    spec_json,
)
from lpdm.polytope import Facet, hrep


def test_parse_spec_variants():
    assert parse_spec({"n": 3, "S": [1], "T": [1, 3]}) == LpdmSpec.of(3, {1}, {1, 3})
    custom = parse_spec({"ground": [4, 7, 9], "S": [4], "T": [4, 9]})
    assert custom.ground == (4, 7, 9)
    assert parse_spec({"n": 2, "ground": [5, 6], "S": [], "T": []}).ground == (5, 6)


def test_parse_spec_errors():
    with pytest.raises(UsageError):
        parse_spec([1, 2])
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
    assert parse_int({"n": 4}, "n") == 4
    with pytest.raises(UsageError):
        parse_int({"n": "4"}, "n")
    with pytest.raises(UsageError):
        parse_int({"n": True}, "n")
    with pytest.raises(UsageError):
        parse_int_list("nope", "S")
    with pytest.raises(UsageError):
        parse_int_list([1, 2.5], "S")


def test_parse_subset():
    s = parse_subset({"n": 3, "S": [1, 3]})
    assert s.n == 3 and s.members == frozenset({1, 3})
    with pytest.raises(UsageError):
        parse_subset({"n": 3})


def test_fractions():
    assert parse_frac("2/4") == Fraction(1, 2)
    assert parse_frac(3) == 3
    assert frac_str(3) == "3/1"
    assert frac_str(Fraction(-1, 2)) == "-1/2"
    for bad in (True, 1.5, "x", "1/0", None):
        with pytest.raises(UsageError):
            parse_frac(bad)


def test_points():
    assert parse_point(["1/2", 1, "0/1"]) == (Fraction(1, 2), 1, 0)
    with pytest.raises(UsageError):
        parse_point("1/2")


def test_hrep_and_family_json():
    assert hrep_json(hrep(LpdmSpec.of(3, {1}, {1, 3}))) == {
        "n": 3,
        "a": [1, 0, 0],
        "b": [2, 1, 1],
    }
    fam = SetFamily((1, 2), (frozenset({2}), frozenset()))
    assert family_json(fam) == {"ground": [1, 2], "members": [[], [2]]}


def test_facet_from_json():
    assert facet_from_json({"kind": "coordinate", "i": 2, "value": 1}) == Facet(
        "coordinate", 2, 1
    )
    assert facet_from_json({"kind": "suffix", "i": 1, "side": "upper"}) == Facet(
        "suffix", 1, "upper"
    )
    for bad in (
        {"kind": "weird", "i": 1, "value": 0},
        {"kind": "coordinate", "i": 1, "value": 2},
        {"kind": "coordinate", "i": 1, "value": True},
        {"kind": "suffix", "i": 1, "side": "top"},
        {"kind": "coordinate", "value": 0},
    ):
        with pytest.raises(UsageError):
            facet_from_json(bad)
