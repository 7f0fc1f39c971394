"""The public names of the package root, pinned: removing or adding one is a decision
that edits this list (and CHANGES.md lists every removal)."""

import types

import modorder as mo

PUBLIC_NAMES = [
    "AnnihPair", "AxiomError", "DirectSumWitness", "DualWitness", "EQUIVALENT_FAMILY",
    "EndoRing", "FiniteModule", "FiniteRing", "IdemPair", "InnerInverse", "LawReport",
    "MapPair", "ModuleContext", "NotAPartialOrder", "OrderVerdict", "Poset", "RELATIONS",
    "RelationMatrix", "RickartCert", "SpecError", "build_matrix_ring",
    "build_module_from_tables", "build_poset", "build_product", "build_ring_as_module",
    "build_ring_from_tables", "build_zm_over_zn", "build_zn", "check_annihilator_monotone",
    "check_equivalence", "check_partial_order", "check_ring_bridge", "check_subset_cyclic",
    "check_unit_invariance", "check_witness_constructions", "corollary_gb_le",
    "cyclic_submodule", "default_corpus", "direct_sum_le", "dual", "dual_as_module",
    "endo_ring", "evaluate", "find_converse_gap", "generating_set", "hartwig_minus_le",
    "hom_group", "idempotent_annih_identity", "is_direct_sum", "is_hom", "is_proper_star",
    "is_regular_element", "is_regular_module", "is_rickart", "is_rickart_star", "jones_le",
    "left_star_le", "member_laws", "minus_le_dual", "minus_le_idem", "minus_le_image",
    "minus_le_relaxed", "mitsch_le", "mitsch_le_sym", "module_from_spec", "module_to_spec",
    "paper_corpus", "regular_decomposition", "regular_set", "relation_matrix", "revalidate",
    "right_ann", "right_star_le", "ring_from_spec", "ring_minus_le_annih", "ring_to_spec",
    "run_suite", "same_ring", "smash", "star_le", "subset_cyclic", "to_dot", "to_json_dict",
    "transitive_reduction", "vn_regular_witness", "witness_to_json",
]


def test_public_names_of_package_root():
    names = sorted(name for name, value in vars(mo).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
