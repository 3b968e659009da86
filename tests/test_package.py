import lpdm
import lpdm.jsonio

# The package root: every public name of the library modules and the five
# error classes, with the oracle's count_suffix_box and jsonio left out.
ROOT_NAMES = """
ArgumentError DomainError FaceResult Facet GaleChain HRep LatticeSimplex LpdmError
LpdmSpec OrderError PathWord Permutation SetFamily SkewBoxSet Subdivision SubsetMask
UsageError affine_rank all_permutations all_subsets bounding_path_meets catalan_spec
chain_to_permutation classify_elements column_heights contains contract
count_lattice_points count_maximal_chains count_perms_in_descent_box
count_perms_with_descent_set cover_successors delete dimension direct_sum dual
ehrhart_eval ehrhart_table ehrhart_volume envelope_bases envelope_ground
envelope_project eulerian_number eulerian_simplex exchange_witness face
family_interval_bounds feasible_sets fractional_prefix_sums gale_leq gale_rank
homogeneous_component hrep hull_membership intersect interval interval_size is_edge is_linked
is_snake is_symmetric is_toric is_valid_profile mask_from_profile path_from_subset
path_leq path_points permutation_to_chain perms_with_descent_set
project_element relabel signed_label_set simplex_cell simplex_volume skew_boxes
skew_svg sort_key subdivide subset_from_path triangulate_toric verify_exchange
vertex_set volume
""".split()


def test_root_names_are_pinned():
    assert len(ROOT_NAMES) == 83
    assert sorted(lpdm.__all__) == sorted(ROOT_NAMES)
    assert all(callable(getattr(lpdm, name)) for name in lpdm.__all__)
    assert not hasattr(lpdm, "count_suffix_box")
    assert not set(lpdm.jsonio.__all__) & set(lpdm.__all__)
