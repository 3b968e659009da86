"""The library boundary, covered from one table.

Every name in ``lpdm.__all__`` has a row.  A row calls the name's
integer-valued arguments with ``True``, a float and a value out of
range, and says what each call does: raise the ``LpdmError`` subclass
given, or answer the value given (an iterator is read out first).  An
integer argument is accepted only when its type is ``int``, so a
``bool`` is refused.  A name that takes no integer argument has an
empty row, but for the point readers: a point coordinate is any exact
rational (a bool, a float or a string such as "1/2" too), and their rows
give coordinates that are not rationals, each an ``ArgumentError``.
"""

from collections.abc import Iterator
from fractions import Fraction

import pytest

import lpdm
from lpdm import (
    ArgumentError,
    Facet,
    HRep,
    LpdmSpec,
    Permutation,
    SetFamily,
    SubsetMask,
    affine_rank,
    all_permutations,
    all_subsets,
    catalan_spec,
    contains,
    contract,
    count_lattice_points,
    count_perms_in_descent_box,
    count_perms_with_descent_set,
    delete,
    ehrhart_eval,
    envelope_ground,
    envelope_project,
    eulerian_number,
    face,
    feasible_sets,
    homogeneous_component,
    hrep,
    hull_membership,
    is_valid_profile,
    mask_from_profile,
    project_element,
    relabel,
    simplex_volume,
)

BAD = ArgumentError
CUBE = LpdmSpec.of(2, (), {1, 2})  # every subset of [2]
FAMILY = feasible_sets(CUBE)
POINT = SubsetMask(1, {1})
# point coordinates that are not rationals: NaN, infinity (spelled and a float),
# a word, None, a list, a complex number and a zero denominator
NOT_RATIONAL = (float("nan"), "x", "inf", float("inf"), None, [1], 1j, "1/0")


def row(fn, *cases):
    """The cases of one callable: (arguments, expected outcome) pairs."""
    return [(fn, args, want) for args, want in cases]


def descent_row(fn):
    # n, then the descent set: a subset of [n - 1]
    return row(
        fn,
        ((True, ()), BAD), ((3.0, ()), BAD), ((-1, ()), BAD),
        ((3, {True}), BAD), ((3, {1.0}), BAD), ((3, {3}), BAD), ((3, {0}), BAD),
    )


def label_row(fn, target):
    # a label of the ground (1, 2)
    return row(fn, ((target, True), BAD), ((target, 1.0), BAD), ((target, 3), BAD))


def point_row(fn, args, *cases):
    # ``args(c)`` holds one coordinate c; ``cases`` follow
    return row(fn, *((args(c), BAD) for c in NOT_RATIONAL), *cases)


def size_row(fn, low=-1):
    # a ground size n; ``low`` is out of range
    return row(fn, ((True,), BAD), ((2.0,), BAD), ((low,), BAD))


TABLE = {
    # the error classes take a message, and the two result records are built by face and subdivide
    "ArgumentError": [],
    "DomainError": [],
    "LpdmError": [],
    "OrderError": [],
    "UsageError": [],
    "FaceResult": [],
    "Subdivision": [],
    "Facet": row(
        Facet,
        (("suffix", True, "lower"), BAD), (("suffix", 1.0, "lower"), BAD), (("suffix", 0, "lower"), BAD),
        (("coordinate", 1, True), BAD), (("coordinate", 1, 1.0), BAD), (("coordinate", 1, 2), BAD),
    ),
    "HRep": row(
        HRep,
        ((True, (1,), (1,)), BAD), ((1.0, (1,), (1,)), BAD), ((-1, (), ()), BAD),
        ((2, (True, False), (2, 1)), BAD), ((2, (1.0, 0), (2, 1)), BAD), ((2, (2, 0), (2, 1)), BAD),
    ),
    "LpdmSpec": row(
        LpdmSpec,
        (((True, 2), (), ()), BAD), (((1.0, 2), (), ()), BAD), (((1, 2), {True}, {2}), BAD), (((1, 2), (), {3}), BAD),
    )
    + size_row(LpdmSpec.of)
    + row(CUBE.position, ((True,), BAD), ((1.0,), BAD), ((3,), BAD), ((2,), 2)),
    "PathWord": [],
    "Permutation": row(Permutation, (((True, 2),), BAD), (((1.0, 2),), BAD), (((0, 1),), BAD)),
    "SetFamily": row(
        SetFamily,
        (((True, 2), [()]), BAD), (((1.0, 2), [()]), BAD), (((1, 2), [{True}]), BAD), (((1, 2), [{3}]), BAD),
    )
    + row(FAMILY.__contains__, (({True},), False), (({1.0},), False), (({3},), False), (({1, 2},), True)),
    "SubsetMask": size_row(SubsetMask)
    + row(SubsetMask, ((2, {True}), BAD), ((2, {1.0}), BAD), ((2, {3}), BAD))
    + row(POINT.__contains__, ((True,), False), ((1.0,), False), ((2,), False), ((1,), True)),
    "affine_rank": point_row(
        affine_rank, lambda c: ([(0, 0), (1, c)],), (([(0, 0), (1,)],), BAD), (([(0, 0), (True, "1/2")],), 1)
    ),
    "all_permutations": size_row(all_permutations),
    "all_subsets": size_row(all_subsets),
    "bounding_path_meets": [],
    "catalan_spec": size_row(catalan_spec, low=0),
    "chain_to_permutation": [],
    "classify_elements": [],
    "column_heights": [],
    # a coordinate is checked also when it is left unread: x_2 leaves the cube as an int or a rational
    "contains": point_row(contains, lambda c: (hrep(CUBE), (0, c)), ((hrep(CUBE), (True, 0.5)), True))
    + point_row(contains, lambda c: (hrep(CUBE), (c, 5)))
    + point_row(contains, lambda c: (hrep(CUBE), (c, "5/2")), ((hrep(CUBE), (0.5, 5)), False)),
    "contract": label_row(contract, CUBE),
    "count_lattice_points": row(count_lattice_points, ((hrep(CUBE), True), BAD), ((hrep(CUBE), 1.0), BAD), ((hrep(CUBE), -1), BAD)),
    "count_maximal_chains": [],
    "count_perms_in_descent_box": row(
        count_perms_in_descent_box,
        (((0, True), (1, 1)), BAD), (((0, 0), (1, 0.5)), BAD), (((0,), (1, 1)), BAD), (((3, 0), (3, 0)), 0),
    ),
    "count_perms_with_descent_set": descent_row(count_perms_with_descent_set),
    "cover_successors": [],
    "delete": label_row(delete, CUBE),
    "dimension": [],
    "direct_sum": [],
    "dual": [],
    # the counts 1, 2 interpolate to 1 + t, which reads -2 at t = -3
    "ehrhart_eval": row(
        ehrhart_eval,
        (((1, 2), True), BAD), (((1, 2), 1.0), BAD), (((), 3), BAD), (((1, 2), -3), -2),
        (((1.5, 2), 3), BAD), (((1, True), 3), BAD),
    ),
    "ehrhart_table": [],
    "ehrhart_volume": [],
    "envelope_bases": [],
    "envelope_ground": size_row(envelope_ground),
    "envelope_project": row(
        envelope_project,
        (({1}, True), BAD), (({1}, 1.0), BAD), (((), -1), BAD), (({True}, 1), BAD), (({1.0}, 1), BAD), (({2}, 1), BAD),
    ),
    "eulerian_number": row(
        eulerian_number,
        ((True, 0), BAD), ((3.0, 1), BAD), ((-1, 0), BAD), ((3, True), BAD), ((3, 1.0), BAD), ((3, 3), 0), ((3, -1), 0),
    ),
    "eulerian_simplex": [],
    "exchange_witness": [],
    # the facet's own integers are Facet's row; here its index lies past the ground
    "face": row(face, ((CUBE, Facet("suffix", 3, "lower")), BAD)),
    "family_interval_bounds": [],
    "feasible_sets": [],
    "gale_leq": [],
    "gale_rank": [],
    "homogeneous_component": row(
        homogeneous_component, ((CUBE, True), BAD), ((CUBE, 1.0), BAD), ((CUBE, 3), BAD), ((CUBE, -1), BAD)
    ),
    "hrep": [],
    "hull_membership": point_row(
        hull_membership, lambda c: ([(0, 0), (1, 1)], (c, 0)), (([(0, 0), (1, 1)], ("1/2", 0.5)), True)
    ),
    "intersect": [],
    "interval": [],
    "interval_size": [],
    "is_linked": [],
    "is_snake": [],
    "is_symmetric": [],
    "is_toric": [],
    "is_valid_profile": row(
        is_valid_profile, (((True, False),), False), (((1.0, 0),), False), (((2, 0),), False), (((1, 0),), True)
    ),
    "mask_from_profile": row(mask_from_profile, (((True, False),), BAD), (((1.0, 0),), BAD), (((2, 0),), BAD)),
    "path_from_subset": [],
    "path_leq": [],
    "path_points": [],
    "permutation_to_chain": [],
    "project_element": label_row(project_element, FAMILY),
    "relabel": row(relabel, ((CUBE, (True, 2)), BAD), ((CUBE, (1.0, 2)), BAD), ((CUBE, (1, 2, 3)), BAD)),
    "signed_label_set": [],
    "simplex_cell": [],
    "simplex_volume": point_row(
        simplex_volume, lambda c: ([(0, 0), (1, 0), (0, c)],), (([(0, 0), (1, 0), ("0", 0.5)],), Fraction(1, 4))
    ),
    "skew_boxes": [],
    "skew_svg": [],
    "sort_key": [],
    "subdivide": [],
    "subset_from_path": [],
    "triangulate_toric": [],
    "vertex_set": [],
    "volume": [],
}


def _outcome(fn, args):
    """The class of the exception the call raises, or its answer."""
    try:
        out = fn(*args)
        return list(out) if isinstance(out, Iterator) else out
    except Exception as exc:  # anything but the expected LpdmError subclass is a mismatch
        return type(exc)


def test_every_root_name_has_a_row():
    assert sorted(TABLE) == sorted(lpdm.__all__)


def test_integer_arguments_at_the_boundary():
    wrong = []
    for name, cases in TABLE.items():
        for fn, args, want in cases:
            got = _outcome(fn, args)
            if (got, type(got)) != (want, type(want)):
                wrong.append(f"{name}: {getattr(fn, '__qualname__', fn)}{args!r} gave {got!r}, want {want!r}")
    assert not wrong, "\n".join(wrong)


def test_iterators_check_their_arguments_at_the_call():
    # the error comes from the call itself, before any item is read
    for call in (
        lambda: all_subsets(-1),
        lambda: all_subsets(True),
        lambda: all_permutations(-1),
        lambda: all_permutations(2.0),
    ):
        with pytest.raises(ArgumentError):
            call()
