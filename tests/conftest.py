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
