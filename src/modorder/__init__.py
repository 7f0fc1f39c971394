"""Minus-type partial orders on finite modules over finite rings.

Finite rings and modules are explicit Cayley tables; the dual space and
endomorphism ring are enumerated exhaustively; every order relation returns
a replayable witness; and the law suite re-proves the underlying theorems by
exhaustion over a corpus of desk-scale modules.
"""

from .rings import (AxiomError, FiniteRing, RickartCert, SpecError, build_matrix_ring,
                    build_product, build_ring_from_tables, build_zn,
                    hartwig_minus_le, idempotent_annih_identity, is_proper_star,
                    is_rickart, is_rickart_star, ring_from_spec, ring_minus_le_annih,
                    ring_to_spec, same_ring, vn_regular_witness)
from .modules import (FiniteModule, build_module_from_tables, build_ring_as_module,
                      build_zm_over_zn, cyclic_submodule, is_direct_sum, module_from_spec,
                      module_to_spec, right_ann)
from .homs import (EndoRing, ModuleContext, dual, dual_as_module, endo_ring,
                   generating_set, hom_group, is_hom, smash)
from .orders import (EQUIVALENT_FAMILY, RELATIONS, corollary_gb_le, direct_sum_le,
                     evaluate, is_regular_element, is_regular_module, jones_le,
                     left_star_le, minus_le_dual, minus_le_idem, minus_le_image,
                     minus_le_relaxed, mitsch_le, mitsch_le_sym, regular_decomposition,
                     regular_set, revalidate, right_star_le, star_le, subset_cyclic)
from .laws import (LawReport, RelationMatrix, check_annihilator_monotone,
                   check_equivalence, check_partial_order, check_ring_bridge,
                   check_subset_cyclic, check_unit_invariance,
                   check_witness_constructions, default_corpus, find_converse_gap,
                   member_laws, paper_corpus, relation_matrix, run_suite)
from .hasse import NotAPartialOrder, Poset, build_poset, to_dot, to_json_dict, transitive_reduction
from .verdicts import (AnnihPair, DirectSumWitness, DualWitness, IdemPair, InnerInverse,
                       MapPair, OrderVerdict, witness_to_json)

__version__ = "0.1.0"
