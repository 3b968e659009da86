from itertools import product

import pytest

from lpdm import (
    ArgumentError,
    DomainError,
    LpdmSpec,
    OrderError,
    PathWord,
    SubsetMask,
    all_subsets,
    bounding_path_meets,
    column_heights,
    dimension,
    gale_leq,
    is_snake,
    is_symmetric,
    path_from_subset,
    path_leq,
    path_points,
    skew_boxes,
    skew_svg,
    subset_from_path,
)


def mask(n, *members):
    return SubsetMask(n, frozenset(members))


# Slow, independent routes: step loops over the word, one per reader, kept
# as references for the readers that now go through ``path_points``.


def path_leq_reference(p, q):
    """Every suffix of p has at most as many E steps as that of q."""
    ep = eq = 0
    for cp, cq in zip(reversed(p.steps), reversed(q.steps)):
        ep += cp == "E"
        eq += cq == "E"
        if ep > eq:
            return False
    return True


def column_heights_reference(p):
    """The N steps taken before each E step."""
    heights, seen_n = [], 0
    for c in p.steps:
        if c == "E":
            heights.append(seen_n)
        else:
            seen_n += 1
    return tuple(heights)


def bounding_path_meets_reference(lower, upper):
    """Steps j >= n, from the first step on, after which both words have
    taken as many E steps."""
    p, q = path_from_subset(lower).steps, path_from_subset(upper).steps
    n, meets, ep, eq = lower.n, 0, 0, 0
    for j in range(1, 2 * n + 1):
        ep += p[j - 1] == "E"
        eq += q[j - 1] == "E"
        meets += j >= n and ep == eq
    return meets


def balanced_words(max_len):
    for length in range(0, max_len + 1, 2):
        for steps in product("EN", repeat=length):
            if steps.count("E") * 2 == length:
                yield PathWord("".join(steps))


def comparable_pairs(ns):
    for n in ns:
        subsets = list(all_subsets(n))
        yield from ((s, t) for s in subsets for t in subsets if gale_leq(s, t))


def test_path_word_validates():
    with pytest.raises(ArgumentError):
        PathWord("EXN")
    with pytest.raises(ArgumentError):
        PathWord("EEN")
    assert PathWord("").n == 0
    assert str(PathWord("EN")) == "EN"


def test_symmetry_predicate():
    assert is_symmetric(PathWord("EENN"))
    assert is_symmetric(PathWord("ENNNENEEEN"))
    assert not is_symmetric(PathWord("ENNE"))
    assert is_symmetric(PathWord(""))


def test_subset_path_worked_values():
    assert path_from_subset(mask(5, 2, 3, 4)).steps == "ENNNENEEEN"
    assert subset_from_path(PathWord("ENNNENEEEN")) == mask(5, 2, 3, 4)
    assert path_from_subset(mask(2)).steps == "EENN"
    assert path_from_subset(mask(2, 1, 2)).steps == "NNEE"


def test_subset_from_path_rejects_asymmetric():
    with pytest.raises(DomainError):
        subset_from_path(PathWord("ENNE"))


def test_round_trip_all_subsets():
    for n in range(5):
        for s in all_subsets(n):
            p = path_from_subset(s)
            assert is_symmetric(p)
            assert subset_from_path(p) == s


def test_dominance_matches_subset_order():
    subsets = list(all_subsets(4))
    for s in subsets:
        for t in subsets:
            got = path_leq(path_from_subset(s), path_from_subset(t))
            assert got == gale_leq(s, t)


def test_path_leq_length_mismatch():
    with pytest.raises(ArgumentError):
        path_leq(PathWord("EN"), PathWord("EENN"))


def test_column_heights():
    assert column_heights(PathWord("EENN")) == (0, 0)
    assert column_heights(PathWord("NNEE")) == (2, 2)
    assert column_heights(PathWord("ENEN")) == (0, 1)


def test_path_points():
    assert path_points(PathWord("EN")) == [(0, 0), (1, 0), (1, 1)]
    assert path_points(PathWord("")) == [(0, 0)]


def test_word_readers_match_the_step_loop_references():
    words = list(balanced_words(10))
    pairs = 0
    for p in words:
        assert column_heights(p) == column_heights_reference(p)
        for q in words:
            if p.n == q.n:
                assert path_leq(p, q) == path_leq_reference(p, q), (p, q)
                pairs += 1
    assert pairs == 68845


def test_bounding_path_meets_matches_the_step_loop_reference():
    for s, t in comparable_pairs(range(1, 8)):
        assert bounding_path_meets(s, t) == bounding_path_meets_reference(s, t), (s, t)


def test_dimension_is_n_plus_one_minus_the_meets():
    # the point polytope on the empty ground too: its paths share (0, 0)
    for s, t in comparable_pairs(range(8)):
        assert dimension(LpdmSpec.of(s.n, s.members, t.members)) == s.n + 1 - bounding_path_meets(s, t)


def test_skew_boxes_worked():
    assert skew_boxes(mask(2, 1), mask(2, 2)) == frozenset({(0, 0), (1, 1)})
    assert skew_boxes(mask(2), mask(2, 1, 2)) == frozenset(
        {(0, 0), (0, 1), (1, 0), (1, 1)}
    )
    assert skew_boxes(mask(3, 1), mask(3, 1)) == frozenset()


def test_skew_boxes_requires_comparable():
    message = r"^SubsetMask\(3, \{1,2\}\) is not below SubsetMask\(3, \{3\}\) in the Gale order$"
    for op in (skew_boxes, bounding_path_meets):
        with pytest.raises(OrderError, match=message):
            op(mask(3, 1, 2), mask(3, 3))
        with pytest.raises(ArgumentError):
            op(mask(2), mask(3))


def test_skew_boxes_antidiagonal_symmetry():
    for n in range(1, 5):
        subsets = list(all_subsets(n))
        for s in subsets:
            for t in subsets:
                if gale_leq(s, t):
                    boxes = skew_boxes(s, t)
                    assert all((n - 1 - r, n - 1 - c) in boxes for (c, r) in boxes)


def test_is_snake():
    assert is_snake(mask(2, 1), mask(2, 2))
    assert not is_snake(mask(2), mask(2, 1, 2))
    assert is_snake(mask(3, 1), mask(3, 1))


def test_bounding_path_meets():
    # equal bounds touch everywhere past the midpoint
    assert bounding_path_meets(mask(3, 1, 3), mask(3, 1, 3)) == 4
    # the full cube's bounds only meet at the far corner
    assert bounding_path_meets(mask(3), mask(3, 1, 2, 3)) == 1
    assert bounding_path_meets(mask(0), mask(0)) == 1


def test_skew_svg_deterministic():
    one = skew_svg(mask(3, 1), mask(3, 2, 3))
    two = skew_svg(mask(3, 1), mask(3, 2, 3))
    assert one == two
    assert one.startswith("<svg ")
    assert one.rstrip().endswith("</svg>")
    assert one.count("<polyline") == 2
    assert "stroke-dasharray" in one
