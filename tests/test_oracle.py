from fractions import Fraction

import pytest

from lpdm import (
    ArgumentError,
    DomainError,
    HRep,
    LpdmSpec,
    affine_rank,
    count_lattice_points,
    ehrhart_eval,
    ehrhart_table,
    ehrhart_volume,
    hrep,
    hull_membership,
    is_edge,
    simplex_volume,
    vertex_set,
)
from lpdm.oracle import count_suffix_box

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_count_lattice_points_cube():
    h = hrep(LpdmSpec.of(3, (), {1, 2, 3}))
    assert count_lattice_points(h, 0) == 1
    assert count_lattice_points(h, 1) == 8
    assert count_lattice_points(h, 2) == 27


def test_count_at_one_matches_vertices(specs_n3):
    for m in specs_n3:
        assert count_lattice_points(hrep(m), 1) == len(vertex_set(m))


def test_count_suffix_box_validates():
    with pytest.raises(ArgumentError):
        count_suffix_box((0,), (1, 1), 1)
    with pytest.raises(ArgumentError):
        count_suffix_box((0,), (1,), -1)
    assert count_suffix_box((), (), 3) == 1


def test_ehrhart_volume_worked():
    assert ehrhart_volume(hrep(LpdmSpec.of(3, (), {1, 3}))) == Fraction(1, 2)
    assert ehrhart_volume(hrep(LpdmSpec.of(3, (), {1, 2, 3}))) == 1
    assert ehrhart_volume(hrep(LpdmSpec.of(3, {1, 3}, {1, 3}))) == 0


def test_ehrhart_table_and_eval():
    # unit square: (t+1)^2 points in the t-th dilate
    h = hrep(LpdmSpec.of(2, (), {1, 2}))
    counts = ehrhart_table(h)
    assert counts == (1, 4, 9)
    assert ehrhart_eval(counts, 3) == 16
    assert ehrhart_eval(counts, 0) == 1
    assert ehrhart_table(h, 4) == (1, 4, 9, 16, 25)


def test_ehrhart_eval_matches_counts(specs_n3):
    for m in specs_n3:
        h = hrep(m)
        counts = ehrhart_table(h)
        for t in (m.n + 1, m.n + 2):
            assert ehrhart_eval(counts, t) == count_lattice_points(h, t)


def test_simplex_volume():
    assert simplex_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == Fraction(1, 6)
    assert simplex_volume([(0, 0), (2, 0), (0, 1)]) == 1
    with pytest.raises(DomainError):
        simplex_volume([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(ArgumentError):
        simplex_volume([(0, 0), (1, 0)])
    with pytest.raises(ArgumentError):
        simplex_volume([])


def test_hull_membership():
    assert hull_membership(SQUARE, (Fraction(1, 2), Fraction(1, 2)))
    assert hull_membership(SQUARE, (1, 1))
    assert not hull_membership(SQUARE, (2, 0))  # bounding box cut
    assert not hull_membership([(0, 0), (1, 1)], (1, 0))  # inside the box, off the segment
    assert hull_membership([(0, 0), (2, 2)], (1, 1))
    with pytest.raises(ArgumentError):
        hull_membership([], (0,))
    with pytest.raises(ArgumentError):
        hull_membership(SQUARE, (0, 0, 0))
    with pytest.raises(ArgumentError):
        hull_membership([(0,), (1, 2)], (0,))


def test_is_edge_square():
    assert is_edge(SQUARE, (0, 0), (1, 0))
    assert is_edge(SQUARE, (0, 0), (0, 1))
    assert not is_edge(SQUARE, (0, 0), (1, 1))  # diagonal
    assert is_edge([(0, 0), (1, 1)], (0, 0), (1, 1))  # nothing else left
    with pytest.raises(ArgumentError):
        is_edge(SQUARE, (0, 0), (0, 0))


def test_affine_rank():
    assert affine_rank([(1, 2)]) == 0
    assert affine_rank([(0, 0), (2, 2), (1, 1)]) == 1
    assert affine_rank(SQUARE) == 2
    assert affine_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    with pytest.raises(ArgumentError):
        affine_rank([])


def test_volume_of_point_count_one():
    h = HRep(2, (1, 1), (1, 1))
    assert count_lattice_points(h, 1) == 1
    assert ehrhart_volume(h) == 0
