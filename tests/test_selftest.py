import random
from fractions import Fraction

import pytest

from lpdm import ArgumentError, oracle
from lpdm import selftest as st


def test_registry_shape():
    names = [name for name, _ in st.CHECKS]
    assert len(names) == len(set(names))
    assert len(names) >= 20
    assert st._BY_NAME["catalan-counts"] is dict(st.CHECKS)["catalan-counts"]


def test_acceptance_listing():
    numbers = [row[0] for row in st.ACCEPTANCE]
    assert numbers == list(range(1, 13))
    for _, name, cap, title in st.ACCEPTANCE:
        assert name in st._BY_NAME
        assert isinstance(cap, int) and cap >= 4
        assert title


def test_unknown_name_rejected():
    with pytest.raises(ArgumentError):
        st.run_selftest(2, names=["no-such-check"])
    with pytest.raises(ArgumentError):
        st.run_selftest(0)
    # a cap that is not an int is refused before any check runs
    for cap in (2.5, 4.0, True, "3"):
        with pytest.raises(ArgumentError, match="max_n must be an integer"):
            st.run_selftest(cap)


def test_requested_order_preserved():
    rows = st.run_selftest(1, names=["catalan-counts", "order-axioms"])
    assert [r.name for r in rows] == ["catalan-counts", "order-axioms"]
    assert all(r.passed for r in rows)
    assert all(r.seconds >= 0 for r in rows)


def test_check_failure_is_reported_not_raised(monkeypatch):
    def broken(cap):
        raise st.CheckFailure("expected twelve, saw thirteen")

    monkeypatch.setitem(st._BY_NAME, "order-axioms", broken)
    rows = st.run_selftest(1, names=["order-axioms"])
    assert [r.passed for r in rows] == [False]
    assert "thirteen" in rows[0].detail


def test_crash_is_reported_not_raised(monkeypatch):
    def crashing(cap):
        raise ZeroDivisionError("kaboom")

    monkeypatch.setitem(st._BY_NAME, "order-axioms", crashing)
    rows = st.run_selftest(1, names=["order-axioms"])
    assert not rows[0].passed
    assert "ZeroDivisionError" in rows[0].detail


def test_seeded_rng_is_stable():
    a = st._rng("unit")
    b = st._rng("unit")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    assert st._rng("other").random() != st._rng("unit").random()


def rational_points_reference(rng, n, count):
    """The Fraction drawer the selftest used before it drew integer
    numerators over one denominator."""
    pts = []
    for _ in range(count):
        denom = rng.choice((2, 3, 4, 6, 12))
        if rng.random() < 0.5:
            pt = tuple(Fraction(rng.randint(0, denom), denom) for _ in range(n))
        else:
            lo, hi = -((denom + 1) // 2), denom + (denom + 1) // 2
            pt = tuple(Fraction(rng.randint(lo, hi), denom) for _ in range(n))
        pts.append(pt)
    return pts


def test_rational_draws_reproduce_the_fraction_drawer():
    for n in range(7):
        for seed in range(8):
            a, b = random.Random(f"draw:{n}:{seed}"), random.Random(f"draw:{n}:{seed}")
            count = 1 + 37 * seed
            got = [tuple(Fraction(c, den) for c in nums) for nums, den in st._rational_draws(a, n, count)]
            assert got == rational_points_reference(b, n, count)
            assert a.getstate() == b.getstate()  # the same rng calls, so later draws match too


def test_the_selftest_solves_no_lp(monkeypatch):
    """Every hull question of the selftest is answered by the facet rows."""

    def no_lp(rows, ncols):
        raise AssertionError("the selftest solved an LP")

    monkeypatch.setattr(oracle, "_lp_feasible", no_lp)
    assert [(r.name, r.detail) for r in st.run_selftest(2) if not r.passed] == []


def test_hull_checks_keep_their_detail_strings_at_every_cap():
    """The hull checks count what they did; the counts are those of the LP
    hull they replaced, cap by cap (the rational draws stop at n = 4)."""
    specs = (3, 13, 48, 174, 636, 2352)
    draws = (606, 2626, 9696, 35148, 35148, 35148)
    edges = (1, 14, 146, 1366, 1366, 1366)
    for cap in range(1, 7):
        i = cap - 1
        assert st.vertex_theorem(cap) == f"{specs[i]} specs 0/1-exact; {draws[i]} rational points agree with the hull"
        assert st.edge_directions(cap) == f"{edges[i]} certified edges to n={min(cap, 4)} all use allowed directions"
