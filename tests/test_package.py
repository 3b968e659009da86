import subprocess
import sys
from pathlib import Path

import pytest

import lpdm
import lpdm.jsonio

# The package root: every public name of the library modules and the five
# error classes, with the oracle's count_suffix_box and jsonio left out.
ROOT_NAMES = """
ArgumentError DomainError FaceResult Facet HRep LpdmError
LpdmSpec OrderError PathWord Permutation SetFamily Subdivision SubsetMask
UsageError affine_rank all_permutations all_subsets bounding_path_meets catalan_spec
chain_to_permutation classify_elements column_heights contains contract
count_lattice_points count_maximal_chains count_perms_in_descent_box
count_perms_with_descent_set cover_successors delete dimension direct_sum dual
ehrhart_eval ehrhart_table ehrhart_volume envelope_bases envelope_ground
envelope_project eulerian_number eulerian_simplex exchange_witness face
family_interval_bounds feasible_sets gale_leq gale_rank
homogeneous_component hrep hull_membership intersect interval interval_size is_linked
is_snake is_symmetric is_toric is_valid_profile mask_from_profile path_from_subset
path_leq path_points permutation_to_chain perms_with_descent_set
project_element relabel signed_label_set simplex_cell simplex_volume skew_boxes
skew_svg sort_key subdivide subset_from_path triangulate_toric
vertex_set volume
""".split()


def test_root_names_are_pinned():
    assert len(ROOT_NAMES) == 77
    assert sorted(lpdm.__all__) == sorted(ROOT_NAMES)
    assert all(callable(getattr(lpdm, name)) for name in lpdm.__all__)
    assert not hasattr(lpdm, "count_suffix_box")
    assert not set(lpdm.jsonio.__all__) & set(lpdm.__all__)


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this lpdm; its stdout."""
    src = str(Path(lpdm.__file__).resolve().parents[1])
    probe = f"import sys; sys.path.insert(0, {src!r}); " + code
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_bare_import_loads_no_library_module():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('lpdm')))"
    assert _fresh("import lpdm; " + loaded) == "['lpdm']"
    # an unknown dunder is an AttributeError that loads nothing
    assert _fresh("import lpdm; assert not hasattr(lpdm, '__wrapped__'); " + loaded) == "['lpdm']"


def test_a_submodule_name_loads_that_module_alone():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('lpdm')))"
    jsonio_only = "['lpdm', 'lpdm.errors', 'lpdm.jsonio']"
    assert _fresh("from lpdm import jsonio; " + loaded) == jsonio_only
    assert _fresh("import lpdm; lpdm.jsonio.read; " + loaded) == jsonio_only
    # the public names still resolve and list as before, after or without it
    probe = "import lpdm; {}print(lpdm.volume.__module__, dir(lpdm) == {!r})"
    for first in ("", "from lpdm import jsonio, polytope; "):
        assert _fresh(probe.format(first, sorted(ROOT_NAMES))) == "lpdm.triangulate True"


def test_the_oracle_loads_no_module_it_checks():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('lpdm')))"
    assert _fresh("import lpdm.oracle; " + loaded) == "['lpdm', 'lpdm.errors', 'lpdm.oracle']"


def test_star_import_and_dir_give_the_root_names():
    star = "from lpdm import *; print(sorted(k for k in globals() if k[0] != '_' and k != 'sys'))"
    assert _fresh(star) == str(sorted(ROOT_NAMES))
    assert _fresh("import lpdm; print(dir(lpdm))") == str(sorted(ROOT_NAMES))
    assert sorted(dir(lpdm)) == sorted(ROOT_NAMES)


def test_hidden_and_unknown_names_raise():
    with pytest.raises(AttributeError):
        lpdm.count_suffix_box
    with pytest.raises(AttributeError):
        lpdm.no_such_name
    with pytest.raises(AttributeError):
        lpdm.__no_such_dunder__


def test_root_names_are_the_module_objects():
    import lpdm.oracle
    import lpdm.subsets

    assert lpdm.SubsetMask is lpdm.subsets.SubsetMask
    assert lpdm.hull_membership is lpdm.oracle.hull_membership
    assert lpdm.UsageError is lpdm.errors.UsageError
