from fractions import Fraction

import pytest
from lpdm import LpdmSpec, all_subsets, gale_leq


@pytest.fixture(scope="session")
def specs_n3():
    """All interval specs on a 3-element ground."""
    masks = list(all_subsets(3))
    return [
        LpdmSpec.of(3, s.members, t.members)
        for s in masks
        for t in masks
        if gale_leq(s, t)
    ]


@pytest.fixture(scope="session")
def specs_n5_two_grounds():
    """All interval specs with n <= 5, on the ground 1..n and on a
    descending ground of other labels."""
    out = []
    for n in range(6):
        masks = list(all_subsets(n))
        for ground in (tuple(range(1, n + 1)), tuple(10 * x + 7 for x in range(n, 0, -1))):
            out += [
                LpdmSpec(ground, frozenset(ground[p - 1] for p in s.members), frozenset(ground[p - 1] for p in t.members))
                for s in masks
                for t in masks
                if gale_leq(s, t)
            ]
    return out


@pytest.fixture(scope="session")
def spell_mixed():
    """A function (rng, point) -> the point with each coordinate spelled at
    random as a Fraction, a string, and where exact also as an int, a bool
    or a float: every spelling reads back as the same rational."""

    def spell(rng, point):
        out = []
        for c in map(Fraction, point):
            forms = [c, str(c)]
            if c.denominator & (c.denominator - 1) == 0:  # a power of two
                forms.append(float(c))
            if c.denominator == 1:
                forms.append(int(c))
            if c in (0, 1):
                forms.append(bool(c))
            out.append(rng.choice(forms))
        return tuple(out)

    return spell
