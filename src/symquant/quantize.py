"""Operators built from weighted state families, measurement effects and
density operators over them, covariance under symmetry, the orbit structure
of a spectrum under induced value transformations, reduction of a value set
to one orbit, and coarse graining.

The guiding picture: a labelled resolution of the identity turns a variable
into a Hermitian operator; the induced symmetry of the variable permutes
the operator's eigenvalues, and restricting the variable's range to one
orbit of eigenvalues is the natural model reduction.

Operators, effects, densities, covariance rebuilds and coarse-graining
projections are weighted projector sums, computed by linalg.projector_sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .linalg import (
    DimensionMismatchError,
    SpectralData,
    as_cmatrix,
    as_cvector,
    as_state_family,
    eig_hermitian,
    is_unitary,
    max_abs,
    projector_sum,
)
from .groups import orbit_partition, rows_are_permutations
from .variables import ConceptualVariable, GroupAction, element_value_map
from .coherent import NotUnitaryError, UnitaryRep, resolution_deviation


class RowMismatchError(ValueError):
    pass


class NegativeWeightError(ValueError):
    pass


class NotInSubgroupError(ValueError):
    pass


class SpectrumNotPreservedError(ValueError):
    pass


class NotAnOrbitError(ValueError):
    pass


class NotUnitError(ValueError):
    pass


@dataclass(frozen=True)
class OperatorBundle:
    """A Hermitian operator together with its clustered spectral data.

    Bundles built from a state family keep the family (states, weights,
    labels) so covariance checks can rebuild relabelled operators; bundles
    built straight from a matrix carry only the matrix and its clustered
    eigenbasis, from which relabelled operators are rebuilt.
    """

    matrix: np.ndarray
    spectrum: SpectralData
    labels: np.ndarray | None = None
    states: np.ndarray | None = None
    weights: np.ndarray | None = None
    source_variable: ConceptualVariable | None = None

    def __post_init__(self):
        for name in ("matrix", "labels", "states", "weights"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr).copy()
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues


def build_operator(states, weights, labels, *, require_resolution=True,
                   degeneracy_tol=1e-8, source_variable=None) -> OperatorBundle:
    """The operator sum_i labels[i] * w_i |s_i><s_i| with its spectrum.

    The family is expected to resolve the identity; with
    require_resolution=False a failing family only warns, which is useful
    for diagnostics on partial families.
    """
    st, w = as_state_family(states, weights)
    n, d = st.shape
    lab = np.asarray(labels, dtype=float)
    if lab.shape != (n,):
        raise DimensionMismatchError(f"{n} states but {lab.shape} labels")

    dev = resolution_deviation(st, w)
    if dev > 1e-9 * d:
        msg = f"state family misses the identity by {dev:.3e}"
        if require_resolution:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=2)

    A = projector_sum(st, lab * w)
    A = (A + A.conj().T) / 2.0
    spec = eig_hermitian(A, degeneracy_tol)
    return OperatorBundle(matrix=A, spectrum=spec, labels=lab, states=st,
                          weights=w, source_variable=source_variable)


def operator_from_matrix(A, *, degeneracy_tol=1e-8,
                         source_variable=None) -> OperatorBundle:
    """Bundle an explicitly given Hermitian matrix with its spectrum."""
    A = as_cmatrix(A)
    spec = eig_hermitian(A, degeneracy_tol)
    return OperatorBundle(matrix=A, spectrum=spec,
                          source_variable=source_variable)


def function_operator(states, weights, labels, f: Callable[[float], float],
                      **kwargs) -> OperatorBundle:
    """Apply a real function to the labels before building the operator.

    For an orthonormal family this is the functional calculus: the result's
    eigenvalues are f applied to the original ones.
    """
    lab = np.asarray(labels, dtype=float)
    return build_operator(states, weights, [float(f(u)) for u in lab], **kwargs)


# ---------------------------------------------------------------------------
# measurements and states


@dataclass(frozen=True)
class StatisticalModel:
    """Row-stochastic table P(outcome | value id)."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).copy()
        if p.ndim != 2:
            raise ValueError("probabilities must be a 2-d table")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("each row must sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def n_values(self) -> int:
        return self.probabilities.shape[0]

    @property
    def outcome_count(self) -> int:
        return self.probabilities.shape[1]


@dataclass(frozen=True)
class Povm:
    """Positive effects, one per outcome, summing to the identity."""

    effects: np.ndarray

    def __post_init__(self):
        eff = np.asarray(self.effects, dtype=np.complex128).copy()
        if eff.ndim != 3 or eff.shape[1] != eff.shape[2]:
            raise ValueError("effects must be square matrices stacked on axis 0")
        scale = max(1.0, max_abs(eff))
        for z, M in enumerate(eff):
            if max_abs(M - M.conj().T) > 1e-10 * scale:
                raise ValueError(f"effect {z} is not Hermitian")
            if float(np.linalg.eigvalsh(M)[0]) < -1e-10 * scale:
                raise ValueError(f"effect {z} is not positive semidefinite")
        eff.setflags(write=False)
        object.__setattr__(self, "effects", eff)

    @property
    def outcome_count(self) -> int:
        return self.effects.shape[0]

    def effect(self, outcomes) -> np.ndarray:
        """Additive effect of a set of outcomes."""
        idx = sorted(set(int(z) for z in outcomes))
        return self.effects[idx].sum(axis=0)

    def completeness_deviation(self) -> float:
        d = self.effects.shape[1]
        return max_abs(self.effects.sum(axis=0) - np.eye(d))


def build_povm(model: StatisticalModel, states, weights) -> Povm:
    """Mix the state projectors with the model's outcome probabilities.

    effects[z] = sum_v P(z|v) w_v |s_v><s_v|; completeness follows from the
    family resolving the identity and the rows summing to one, and is
    verified to 1e-10.
    """
    st, w = as_state_family(states, weights)
    n, d = st.shape
    if model.n_values != n:
        raise RowMismatchError(
            f"model has {model.n_values} rows for {n} states"
        )
    povm = Povm(effects=projector_sum(st, model.probabilities.T * w))
    dev = povm.completeness_deviation()
    if dev > 1e-10 * max(1.0, d):
        raise ValueError(f"effects miss the identity by {dev:.3e}")
    return povm


@dataclass(frozen=True)
class DensityOp:
    """A positive unit-trace operator with the weight profile that built it."""

    sigma: np.ndarray
    weight_function: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=np.complex128).copy()
        scale = max(1.0, max_abs(s))
        if max_abs(s - s.conj().T) > 1e-10 * scale:
            raise ValueError("density operator must be Hermitian")
        if float(np.linalg.eigvalsh(s)[0]) < -1e-12 * scale:
            raise ValueError("density operator must be positive semidefinite")
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)

    @property
    def trace(self) -> float:
        return float(np.trace(self.sigma).real)


def build_density(pi, states, weights, *, normalize=False) -> DensityOp:
    """Weight the state projectors by a nonnegative profile pi.

    With normalize=True the combined weights pi*w are rescaled to total
    mass 1; for an orthonormal unit-weight family that makes the trace 1.
    """
    st, w = as_state_family(states, weights)
    p = np.asarray(pi, dtype=float)
    if p.shape != w.shape:
        raise DimensionMismatchError(f"{len(st)} states but {p.shape} weights")
    if np.any(p < 0):
        raise NegativeWeightError("weight function must be nonnegative")
    mass = p * w
    if normalize:
        total = mass.sum()
        if total <= 0:
            raise NegativeWeightError("total weight mass must be positive")
        mass = mass / total
    sigma = projector_sum(st, mass)
    sigma = (sigma + sigma.conj().T) / 2.0
    return DensityOp(sigma=sigma, weight_function=p)


# ---------------------------------------------------------------------------
# covariance under the symmetry


@dataclass(frozen=True)
class CovarianceReport:
    distance: float
    tolerance: float
    passed: bool


def conjugation_covariance(bundle: OperatorBundle, unitary, value_perm,
                           *, tol_scale=1e-9) -> CovarianceReport:
    """Does conjugating the operator match relabelling its construction?

    Compares U^dag A U against the operator rebuilt with labels permuted by
    value_perm (label'[i] = label[value_perm[i]]). Bundles without a state
    family permute their eigenvalue clusters instead and are rebuilt as
    V diag(u') V^dag from the eigenbasis V, with u'[j] = u[value_perm[j]]
    repeated by the multiplicity of cluster j.
    """
    U = as_cmatrix(unitary)
    if not is_unitary(U, 1e-9):
        raise NotUnitaryError("covariance check needs a unitary matrix")
    A = bundle.matrix
    lhs = U.conj().T @ A @ U
    perm = np.asarray(value_perm, dtype=np.intp)
    if bundle.states is not None:
        if perm.shape != bundle.labels.shape:
            raise DimensionMismatchError(
                "value permutation must act on the label indices"
            )
        rhs = projector_sum(bundle.states, bundle.labels[perm] * bundle.weights)
    else:
        if perm.shape != (bundle.spectrum.n_clusters,):
            raise DimensionMismatchError(
                "value permutation must act on the eigenvalue clusters"
            )
        rhs = bundle.spectrum.reconstruct(bundle.eigenvalues[perm])
    dist = float(np.linalg.norm(lhs - rhs))
    tol = tol_scale * max(1.0, float(np.linalg.norm(A)))
    return CovarianceReport(distance=dist, tolerance=tol, passed=dist <= tol)


def covariance_check(bundle: OperatorBundle, rep: UnitaryRep, h: int,
                     var: ConceptualVariable, act: GroupAction,
                     *, tol_scale=1e-9) -> CovarianceReport:
    """Covariance for a group element acting through a variable.

    The element must induce a single value permutation on the variable
    (i.e. lie in the maximal permissible subgroup); otherwise
    NotInSubgroupError. The representation supplies the unitary for h.
    """
    g = element_value_map(var, act, h)
    if g is None:
        raise NotInSubgroupError(
            f"element {h} does not act through a value permutation"
        )
    return conjugation_covariance(bundle, rep.matrices[h], g,
                                  tol_scale=tol_scale)


# ---------------------------------------------------------------------------
# orbit structure of the spectrum and model reduction


@dataclass(frozen=True)
class EigenOrbitPartition:
    """Orbits of eigenvalue ids under a set of value permutations."""

    eigenvalues: tuple[float, ...]
    blocks: tuple[tuple[int, ...], ...]
    single_orbit: bool

    def label_blocks(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(self.eigenvalues[i] for i in b) for b in self.blocks)


def _as_id_perms(perms, n: int) -> np.ndarray:
    if hasattr(perms, "induced_perm"):
        perms = perms.induced_perm
    arr = np.asarray(perms, dtype=np.intp)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise SpectrumNotPreservedError(
            f"permutations must act on all {n} eigenvalue ids"
        )
    if not rows_are_permutations(arr, n):
        raise SpectrumNotPreservedError(
            "a transformation fails to map the eigenvalue set onto itself"
        )
    return arr


def spectrum_permutations(eigenvalues, value_maps, tol=1e-9) -> np.ndarray:
    """Turn label-level maps into permutations of eigenvalue ids.

    Each map must send every eigenvalue to another eigenvalue within
    tol * max(1, largest magnitude); otherwise SpectrumNotPreservedError.
    """
    u = np.asarray(eigenvalues, dtype=float)
    scale = max(1.0, float(np.max(np.abs(u))) if u.size else 1.0)
    perms = np.empty((len(value_maps), len(u)), dtype=np.intp)
    for r, f in enumerate(value_maps):
        for j, x in enumerate(u):
            y = float(f(x))
            hits = np.nonzero(np.abs(u - y) <= tol * scale)[0]
            if hits.size == 0:
                raise SpectrumNotPreservedError(
                    f"map sends eigenvalue {x:.6g} to {y:.6g}, "
                    "which is outside the spectrum"
                )
            perms[r, j] = hits[0]
    return _as_id_perms(perms, len(u))


def eigen_orbit_partition(bundle: OperatorBundle, perms) -> EigenOrbitPartition:
    """Partition the eigenvalue ids into orbits of the given permutations.

    perms may be an InducedAction (its value permutations are used) or an
    array of id permutations. Each permutation must be a bijection of the
    id set; blocks are sorted by smallest member.
    """
    n = bundle.spectrum.n_clusters
    blocks = orbit_partition(_as_id_perms(perms, n))
    return EigenOrbitPartition(
        eigenvalues=tuple(float(x) for x in bundle.eigenvalues),
        blocks=blocks, single_orbit=len(blocks) == 1,
    )


def model_reduce(eigenvalues, perms, target_orbit, tol=1e-9) -> ConceptualVariable:
    """Restrict a value set to one orbit of the induced transformations.

    eigenvalues is the candidate value set, perms the id permutations of
    the induced group, target_orbit the labels to keep. The target must be
    exactly one orbit (closed and connected); the result is the reduced
    variable whose label set is the orbit, on which the induced group acts
    transitively by construction.
    """
    u = np.asarray(eigenvalues, dtype=float)
    arr = _as_id_perms(perms, len(u))
    scale = max(1.0, float(np.max(np.abs(u))) if u.size else 1.0)
    ids = []
    for x in target_orbit:
        hits = np.nonzero(np.abs(u - float(x)) <= tol * scale)[0]
        if hits.size == 0:
            raise NotAnOrbitError(f"target value {x:.6g} is not in the value set")
        ids.append(int(hits[0]))
    if not ids:
        raise NotAnOrbitError("target set is empty; an orbit has at least one value")
    id_set = set(ids)
    if len(id_set) != len(ids):
        raise NotAnOrbitError("target values are not distinct")
    # the rows are bijections, so a closed set is a union of orbits
    touched = [b for b in orbit_partition(arr) if id_set.intersection(b)]
    if set().union(*touched) != id_set:
        raise NotAnOrbitError(
            "target set is not closed under the induced transformations"
        )
    if len(touched) > 1:
        raise NotAnOrbitError("target set is a union of several orbits")
    labels = sorted(float(u[i]) for i in id_set)
    return ConceptualVariable(
        space_size=len(labels),
        values=np.arange(len(labels), dtype=np.intp),
        value_labels=tuple(labels),
    )


def maximality_check(bundle: OperatorBundle) -> bool:
    """True iff every eigenvalue cluster is one-dimensional."""
    return bool(np.all(bundle.spectrum.multiplicities == 1))


# ---------------------------------------------------------------------------
# coarse graining


@dataclass(frozen=True)
class CoarseGraining:
    """A many-to-one relabelling of basis labels and its block structure."""

    t_map: np.ndarray
    coarse_labels: tuple[float, ...]
    blocks: tuple[tuple[int, ...], ...]
    block_projections: np.ndarray


def coarse_grain(basis, fine_labels, t: Callable[[float], float],
                 *, degeneracy_tol=1e-8):
    """Relabel an orthonormal basis through t and rebuild the operator.

    Returns (CoarseGraining, OperatorBundle). Blocks are the preimages of
    the distinct coarse labels (ascending); when t is not injective the
    resulting operator has a degenerate eigenvalue and fails the
    maximality check.
    """
    st, _ = as_state_family(basis, 1.0)
    n, d = st.shape
    gram = st.conj() @ st.T
    if max_abs(gram - np.eye(n)) > 1e-10:
        raise ValueError("basis must be orthonormal")
    fine = np.asarray(fine_labels, dtype=float)
    if fine.shape != (n,):
        raise DimensionMismatchError(f"{n} basis vectors but {fine.shape} labels")

    coarse_per_vec = np.array([float(t(u)) for u in fine])
    coarse_labels = tuple(sorted(set(coarse_per_vec.tolist())))
    label_index = {s: j for j, s in enumerate(coarse_labels)}
    t_map = np.array([label_index[s] for s in coarse_per_vec], dtype=np.intp)
    one_hot = np.arange(len(coarse_labels))[:, None] == t_map
    blocks = tuple(tuple(int(i) for i in np.nonzero(row)[0]) for row in one_hot)
    projections = projector_sum(st, one_hot.astype(float))
    bundle = build_operator(st, 1.0, coarse_per_vec,
                            require_resolution=(n == d),
                            degeneracy_tol=degeneracy_tol)
    grain = CoarseGraining(t_map=t_map, coarse_labels=coarse_labels,
                           blocks=blocks, block_projections=projections)
    return grain, bundle


# ---------------------------------------------------------------------------
# question/answer matching


def question_answer_match(v, bases: Mapping[str, np.ndarray], tol=1e-6):
    """Which basis vectors coincide with a unit vector, up to phase?

    bases maps a question label to a matrix whose columns are the basis
    vectors. A pair (label, j) matches when the squared overlap
    |<basis_j|v>|^2 reaches 1 - tol. Returns the matches in basis order.
    """
    v = as_cvector(v)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise NotUnitError("vector must have unit norm")
    matches = []
    for label, B in bases.items():
        B = as_cmatrix(B)
        if not is_unitary(B, 1e-9):
            raise ValueError(f"basis {label!r} is not orthonormal")
        if B.shape[0] != v.size:
            raise DimensionMismatchError(f"basis {label!r} dimension mismatch")
        overlaps = np.abs(B.conj().T @ v) ** 2
        for j in np.nonzero(overlaps >= 1.0 - tol)[0]:
            matches.append((label, int(j)))
    return matches
