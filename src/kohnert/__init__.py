"""Kohnert diagrams, their polynomials, and their Demazure crystals."""

from .compositions import Composition, compositions_of, compositions_up_to
from .crystal import (CrystalGraph, crystal_graph, crystal_to_dot, raising,
                      rectify, rectify_column, rectify_step)
from .diagrams import (Cell, Diagram, GridParseError, column_weights,
                       composition_diagram, is_composition_diagram,
                       is_southwest, rothe_diagram, weight)
from .labeling import (Labeling, component_demazure_data, demazure_expansion,
                       is_flagged, is_vexillary_diagram, kohnert_labeling,
                       label_pairing, labeling_diagram, labeling_with_reason,
                       membership, membership_report,
                       quasi_yamanouchi_diagrams, rect_labeling,
                       relabel_rectify, slide_expansion, yamanouchi_diagrams)
from .moves import (DEFAULT_MAX_DIAGRAMS, KohnertSet, MaxDiagramsError,
                    ResourceBoundError, generate_kd, kd_to_dot, kd_to_json,
                    kohnert_polynomial)
from .perms import (Permutation, all_permutations, compose, contains_2143,
                    lehmer_code, length, longest, reduced_word,
                    sort_and_minimal_perm)
from .polynomials import (ExpansionError, IntPolynomial, apply_word,
                          demazure_character, divided_difference,
                          expand_in_basis, fundamental_slide,
                          monomial_generating, pi_op, schubert_polynomial)
from .tableaux import (Tableau, TableauCrystal, demazure_set_op,
                       demazure_subset, enumerate_sskt, highest_weight_tableau,
                       is_sskt, psi, sskt_raise, ssyt_lower, ssyt_raise)

__version__ = "0.1.0"
