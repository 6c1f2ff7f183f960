"""Kohnert diagrams, their polynomials, and their Demazure crystals."""

from .compositions import Composition, compositions_of, compositions_up_to
from .crystal import (CrystalGraph, crystal_graph, crystal_to_dot, raising,
                      rectify, rectify_step)
from .diagrams import (Cell, Diagram, GridParseError, composition_diagram,
                       is_southwest, rothe_diagram, weight)
from .labeling import (component_demazure_data, demazure_expansion,
                       is_vexillary_diagram, label_grid, labeling_with_reason,
                       membership, membership_report, slide_expansion)
from .moves import (DEFAULT_MAX_DIAGRAMS, KohnertSet, MaxDiagramsError,
                    ResourceBoundError, generate_kd, kd_to_dot, kd_to_json,
                    kohnert_polynomial)
from .perms import (Permutation, all_permutations, compose, contains_2143,
                    lehmer_code, longest, reduced_word, sort_and_minimal_perm)
from .polynomials import (ExpansionError, IntPolynomial, apply_word,
                          basis_sum, demazure_character, divided_difference,
                          expand_in_basis, fundamental_slide, pi_op,
                          schubert_polynomial)
from .tableaux import (Tableau, TableauCrystal, demazure_set_op,
                       demazure_subset, enumerate_sskt, highest_weight_tableau,
                       is_sskt, psi, sskt_raise, ssyt_lower, ssyt_raise)

__version__ = "0.6.0"
