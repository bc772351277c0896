"""Finite group actions on variable spaces, induced symmetries,
coherent-state frames, and operator quantization, all at exhaustively
checkable desk scale.

Groups, actions and unitary representations are validated from their
generators: each "for all pairs" law is checked on generators x all
elements, which is exact for integer tables (monomial representations
included) and, for dense representations, holds every pair within 2*D
times the generator tolerance (D the longest generator word). A
representation is dense (UnitaryRep, one matrix per element) or monomial
(MonomialRep, one permutation and one vector of integer exponents of a
root of unity per element, whose laws are exact), behind one interface."""

from .linalg import (
    SpectralData,
    eig_hermitian,
    expm_antihermitian,
    is_unitary,
    resolution_deviation,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    check_homomorphism,
    dihedral_vertex_action,
    is_transitive,
    left_translation_action,
    make_named_group,
    orbit_partition,
    orbits,
    subgroup_generated,
)
from .variables import (
    ConceptualVariable,
    InducedAction,
    accessibility_leq,
    induce_group,
    is_permissible,
    maximal_permissible_subgroup,
    variable_from_point_labels,
)
from .coherent import (
    CoherentSystem,
    FrameOperator,
    MonomialRep,
    UnitaryRep,
    frame_operator,
    is_irreducible,
    left_regular_rep,
    make_coherent,
    permutation_rep,
)
from .quantize import (
    OperatorBundle,
    build_operator,
    coarse_grain,
    conjugation_covariance,
    covariance_check,
    eigen_orbit_partition,
    maximality_check,
    model_reduce,
    operator_from_matrix,
    question_answer_match,
    spectrum_permutations,
)
from .spin import spin_component_operator, spin_generators, spin_rotation
from .phasespace import fourier_matrix, mub_deviation, momentum_operator
from .scenarios import BUILTIN_SCENARIOS, run_all, run_scenario

__version__ = "0.1.0"
