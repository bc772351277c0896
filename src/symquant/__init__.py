"""Finite group actions on variable spaces, induced symmetries,
coherent-state frames, and operator quantization, all at exhaustively
checkable desk scale.

Groups, actions and unitary representations are validated from their
generators: each "for all pairs" law is checked on generators x all
elements, which is exact for integer tables and, for representations,
holds every pair within 2*D times the generator tolerance (D the longest
generator word)."""

from .linalg import (
    SpectralData,
    eig_hermitian,
    expm_antihermitian,
    is_unitary,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    InvariantMeasure,
    check_homomorphism,
    counting_measure,
    cyclic_shift_action,
    dihedral_vertex_action,
    haar_measure,
    invariant_measure,
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
    variable_from_json,
    variable_from_point_labels,
    variable_to_json,
)
from .coherent import (
    CoherentSystem,
    FrameOperator,
    UnitaryRep,
    frame_operator,
    is_irreducible,
    left_regular_rep,
    make_coherent,
    permutation_rep,
    rep_from_json,
    rep_to_json,
    resolution_deviation,
    unitary_transport,
)
from .quantize import (
    CoarseGraining,
    DensityOp,
    EigenOrbitPartition,
    OperatorBundle,
    Povm,
    StatisticalModel,
    build_density,
    build_operator,
    build_povm,
    coarse_grain,
    conjugation_covariance,
    covariance_check,
    eigen_orbit_partition,
    function_operator,
    maximality_check,
    model_reduce,
    operator_from_matrix,
    question_answer_match,
    spectrum_permutations,
)
from .spin import spin_component_operator, spin_generators, spin_rotation
from .phasespace import fourier_matrix, mub_deviation, position_operator, momentum_operator
from .scenarios import BUILTIN_SCENARIOS, run_all, run_scenario

__version__ = "0.1.0"
