"""Operators built from weighted state families, covariance under symmetry,
the orbit structure of a spectrum under induced value transformations,
reduction of a value set to one orbit, and coarse graining.

The guiding picture: a labelled resolution of the identity turns a variable
into a Hermitian operator; the induced symmetry of the variable permutes
the operator's eigenvalues, and restricting the variable's range to one
orbit of eigenvalues is the natural model reduction.

Operators and covariance rebuilds are weighted projector sums, computed
by linalg.projector_sum.

Covariance has one kernel: covariance_check runs it on a set of group
elements, one block of groups.element_blocks at a time, as the law checks
run (per block one value-map read and one stacked conjugation by the
rep's conjugated method, the rep not tested again since its constructor
proved it unitary), and on one element, given as an int or a numpy
integer, with no block: its value map is read from its one row
(variables._element_map) and it is conjugated once.
conjugation_covariance runs it on one unitary. A one-element call costs
O(points) for its value map, read off the first points that the
variable computes once and keeps, plus one conjugation, so on
dihedral:200's vertex parity with the permutation rep of its value action
a call takes about 31 us, where a one-element block took 38 us (one BLAS
thread, 2-core x86-64), most of it the numpy calls of the arithmetic.
Both report the worst distance only, and the report check that reads it
states the tolerance.
A rep of either form serves: conjugation by a monomial rep is a gather of
the operator's entries.

Orbits of a spectrum come back as plain blocks of eigenvalue ids
(eigen_orbit_partition), as coarse graining returns its blocks of basis
indices; a block's labels are read off the bundle's eigenvalues, and the
permutations of an induced action are passed as its value_action.perm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .linalg import (
    DimensionMismatchError,
    SpectralData,
    _require_hermitian,
    as_cmatrix,
    as_cvector,
    as_state_family,
    eig_hermitian,
    is_unitary,
    projector_sum,
    resolution_deviation,
    unitarity_errors,
)
from .groups import orbit_partition, read_only, rows_are_permutations
from .variables import ConceptualVariable, GroupAction, _element_map, _element_maps
from .coherent import MonomialRep, NotUnitaryError, UnitaryRep, _require_same_group


class NotInSubgroupError(ValueError):
    pass


class SpectrumNotPreservedError(ValueError):
    pass


class NotAnOrbitError(ValueError):
    pass


class NotUnitError(ValueError):
    pass


class NotOrthonormalError(ValueError):
    pass


@dataclass(frozen=True)
class OperatorBundle:
    """A Hermitian operator together with its clustered spectral data.

    Bundles built from a state family keep the family (states, weights,
    labels) so covariance checks can rebuild relabelled operators; bundles
    built straight from a matrix carry only the matrix and its clustered
    eigenbasis, from which relabelled operators are rebuilt.

    The matrix must be a finite nonempty Hermitian matrix (as_cmatrix and
    the Hermitian test of linalg), however the bundle is built; it is kept
    read-only as complex128, as the family's arrays are kept read-only, by
    groups.read_only's rule: a copy, unless the array already is read-only
    and owns its memory (or views a read-only array that does), as
    phasespace.momentum_operator hands it over. The
    spectrum is eig_hermitian(matrix), computed on first read and kept: a
    caller that reads only the matrix pays for no eigendecomposition.
    """

    matrix: np.ndarray
    labels: np.ndarray | None = None
    states: np.ndarray | None = None
    weights: np.ndarray | None = None
    source_variable: ConceptualVariable | None = None

    def __post_init__(self):
        A = as_cmatrix(self.matrix)
        _require_hermitian(A)
        object.__setattr__(self, "matrix", A)
        for name in ("matrix", "labels", "states", "weights"):
            arr = getattr(self, name)
            if arr is not None:
                object.__setattr__(self, name, read_only(np.asarray(arr)))

    @cached_property
    def spectrum(self) -> SpectralData:
        return eig_hermitian(self.matrix)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues


def build_operator(states, weights, labels, *,
                   source_variable=None) -> OperatorBundle:
    """The operator sum_i labels[i] * w_i |s_i><s_i|, its spectrum computed
    on first read. A family that does not resolve the identity within
    1e-9 * dim, or a non-finite state, weight or label, is refused."""
    st, w = as_state_family(states, weights)
    n, d = st.shape
    lab = np.asarray(labels, dtype=float)
    if lab.shape != (n,):
        raise DimensionMismatchError(f"{n} states but {lab.shape} labels")
    if not np.all(np.isfinite(lab)):
        raise ValueError("labels must be finite")

    dev = resolution_deviation(st, w)
    # "not within", so that a NaN deviation is refused
    if not dev <= 1e-9 * d:
        raise ValueError(f"state family misses the identity by {dev:.3e}")

    A = projector_sum(st, lab * w)
    A = (A + A.conj().T) / 2.0
    A.setflags(write=False)
    return OperatorBundle(matrix=A, labels=lab, states=st, weights=w,
                          source_variable=source_variable)


def operator_from_matrix(A) -> OperatorBundle:
    """Bundle an explicitly given Hermitian matrix, its spectrum computed on
    first read; OperatorBundle refuses a non-square or non-Hermitian one."""
    return OperatorBundle(matrix=A)


# ---------------------------------------------------------------------------
# covariance under the symmetry


@dataclass(frozen=True)
class CovarianceReport:
    """The worst Frobenius distance between conjugated and relabelled
    operators; a report check holds it to its own tolerance."""

    distance: float


def _covariance(bundle: OperatorBundle, lhs: np.ndarray, perms: np.ndarray) -> float:
    """The worst Frobenius distance between a stack of conjugates
    V^dag A V and the operator relabelled by the matching value
    permutations perm."""
    if bundle.states is not None:
        if perms.shape[1:] != bundle.labels.shape:
            raise DimensionMismatchError(
                "value permutation must act on the label indices"
            )
        rhs = projector_sum(bundle.states, bundle.labels.take(perms) * bundle.weights)
    else:
        if perms.shape[1:] != (bundle.spectrum.n_clusters,):
            raise DimensionMismatchError(
                "value permutation must act on the eigenvalue clusters"
            )
        rhs = bundle.spectrum.reconstruct(bundle.eigenvalues.take(perms))
    # np.linalg.norm(d, axis=(-2, -1)) evaluates this expression, and the
    # square root is monotone, so taking it of the largest sum gives the
    # same bits without the wrapper's per-call cost. The difference is
    # written over rhs and squared over lhs, which each caller forms anew
    d = np.subtract(lhs, rhs, out=rhs)
    dc = np.conjugate(d, out=lhs)
    dc *= d
    sums = np.add.reduce(dc.real, axis=(-2, -1))
    return math.sqrt(sums.max())


def _require_dim(bundle: OperatorBundle, d: int) -> None:
    if d != len(bundle.matrix):
        raise DimensionMismatchError(
            f"unitary of dimension {d}, operator of dimension {len(bundle.matrix)}")


def conjugation_covariance(bundle: OperatorBundle, unitary,
                           value_perm) -> CovarianceReport:
    """Does conjugating the operator match relabelling its construction?

    Compares U^dag A U against the operator rebuilt with labels permuted by
    value_perm (label'[i] = label[value_perm[i]]). Bundles without a state
    family permute their eigenvalue clusters instead and are rebuilt as
    V diag(u') V^dag from the eigenbasis V, with u'[j] = u[value_perm[j]]
    repeated by the multiplicity of cluster j.
    """
    U = as_cmatrix(unitary)
    del unitary
    if not is_unitary(U):
        raise NotUnitaryError("covariance check needs a unitary matrix")
    _require_dim(bundle, len(U))
    perm = np.asarray(value_perm, dtype=np.intp)
    # the conjugate is formed and the unitary released before the
    # relabelled operator is built
    U = U[None]
    lhs = U.conj().swapaxes(-1, -2) @ bundle.matrix @ U
    del U
    return CovarianceReport(distance=_covariance(bundle, lhs, perm[None]))


def _outside_subgroup(k) -> NotInSubgroupError:
    return NotInSubgroupError(f"element {k} does not act through a value permutation")


def covariance_check(bundle: OperatorBundle, rep: UnitaryRep | MonomialRep, elements,
                     var: ConceptualVariable, act: GroupAction) -> CovarianceReport:
    """Covariance for one group element or a nonempty set of them (repeats
    allowed) acting through a variable; the report holds the worst distance.

    One element, an int or a numpy integer, is read as one row
    (variables._element_map) and conjugated once; a set is read and
    conjugated a block of elements at a time. Both give the same bits.
    NotInSubgroupError names the first element outside the maximal
    permissible subgroup, groups.BadElementError an index outside the group.
    A rep of another group than the action's, or of another dimension than
    the operator's, is refused; its constructor proved it unitary.
    """
    _require_same_group(rep, act)
    _require_dim(bundle, rep.dim)
    if isinstance(elements, (int, np.integer)):
        ks, maps, ok = _element_map(var, act, elements)
        if not ok:
            raise _outside_subgroup(ks[0])
        return CovarianceReport(distance=_covariance(
            bundle, rep.conjugated(bundle.matrix, ks), maps[None]))
    blocks = list(_element_maps(var, act, elements, bundle.matrix.size))
    if not blocks:
        raise ValueError("covariance needs at least one group element")
    for ks, _, ok in blocks:
        i = ok.argmin()
        if not ok[i]:
            raise _outside_subgroup(ks[i])
    return CovarianceReport(distance=max([
        _covariance(bundle, rep.conjugated(bundle.matrix, ks), maps)
        for ks, maps, _ in blocks]))


# ---------------------------------------------------------------------------
# orbit structure of the spectrum and model reduction


def _as_id_perms(perms, n: int) -> np.ndarray:
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


def _value_ids(u: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """For each y, the first id i with |u[i] - y| <= 1e-9 * max(1, max |u|),
    or len(u) where there is none."""
    scale = max(1.0, float(np.max(np.abs(u), initial=0.0)))
    near = np.abs(np.subtract.outer(ys, u)) <= 1e-9 * scale
    missing = np.ones(ys.shape + (1,), dtype=bool)
    return np.argmax(np.concatenate([near, missing], axis=-1), axis=-1)


def spectrum_permutations(eigenvalues, value_maps) -> np.ndarray:
    """Turn label-level maps into permutations of eigenvalue ids.

    Each map must send every eigenvalue to another eigenvalue within
    1e-9 * max(1, largest magnitude); otherwise SpectrumNotPreservedError.
    """
    u = np.asarray(eigenvalues, dtype=float)
    images = np.array([[float(f(x)) for x in u] for f in value_maps],
                      dtype=float).reshape(len(value_maps), len(u))
    perms = _value_ids(u, images)
    if (perms == len(u)).any():
        r, j = np.argwhere(perms == len(u))[0]
        raise SpectrumNotPreservedError(
            f"map sends eigenvalue {u[j]:.6g} to {images[r, j]:.6g}, "
            "which is outside the spectrum"
        )
    return _as_id_perms(perms, len(u))


def eigen_orbit_partition(bundle: OperatorBundle,
                          perms) -> tuple[tuple[int, ...], ...]:
    """The orbits of the eigenvalue ids under an array of id permutations
    (for an InducedAction, its value_action.perm), as tuples of ids sorted
    by smallest member. Each permutation must be a bijection of the id
    set."""
    return orbit_partition(_as_id_perms(perms, bundle.spectrum.n_clusters))


def model_reduce(eigenvalues, perms, target_orbit) -> ConceptualVariable:
    """Restrict a value set to one orbit of the induced transformations.

    eigenvalues is the candidate value set, perms the id permutations of
    the induced group, target_orbit the labels to keep. The target must be
    exactly one orbit (closed and connected); the result is the reduced
    variable whose label set is the orbit, on which the induced group acts
    transitively by construction.
    """
    u = np.asarray(eigenvalues, dtype=float)
    arr = _as_id_perms(perms, len(u))
    targets = np.array([float(x) for x in target_orbit])
    ids = _value_ids(u, targets)
    if (ids == len(u)).any():
        x = targets[np.argmax(ids == len(u))]
        raise NotAnOrbitError(f"target value {x:.6g} is not in the value set")
    if not ids.size:
        raise NotAnOrbitError("target set is empty; an orbit has at least one value")
    id_set = set(ids.tolist())
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
    return ConceptualVariable(values=np.arange(len(labels), dtype=np.intp),
                              value_labels=tuple(labels))


def maximality_check(bundle: OperatorBundle) -> bool:
    """True iff every eigenvalue cluster is one-dimensional."""
    return bool(np.all(bundle.spectrum.multiplicities == 1))


# ---------------------------------------------------------------------------
# coarse graining


def coarse_grain(basis, fine_labels, t: Callable[[float], float]):
    """Relabel a basis, orthonormal by linalg.unitarity_errors on its
    columns, through t and rebuild the operator; a basis that does not span
    the space is refused by build_operator.

    Returns (blocks, OperatorBundle). The blocks are the preimages of the
    distinct coarse labels, as tuples of basis indices in ascending order
    of label; when t is not injective the resulting operator has a
    degenerate eigenvalue and fails the maximality check.
    """
    st, _ = as_state_family(basis, 1.0)
    n = len(st)
    if not unitarity_errors(st.T)[0] <= 1e-9 * n:
        raise ValueError("basis must be orthonormal")
    fine = np.asarray(fine_labels, dtype=float)
    if fine.shape != (n,):
        raise DimensionMismatchError(f"{n} basis vectors but {fine.shape} labels")

    coarse = [float(t(u)) for u in fine]
    blocks = tuple(tuple(i for i, x in enumerate(coarse) if x == c)
                   for c in sorted(set(coarse)))
    return blocks, build_operator(st, 1.0, coarse)


# ---------------------------------------------------------------------------
# question/answer matching


def question_answer_match(v, bases: Mapping[str, np.ndarray]):
    """Which basis vectors coincide with a unit vector, up to phase?

    bases maps a question label to a matrix whose columns are the basis
    vectors. A pair (label, j) matches when the squared overlap
    |<basis_j|v>|^2 reaches 1 - 1e-6. Returns the matches in basis order;
    NotOrthonormalError when a basis is not orthonormal, NotUnitError when
    v is not a unit vector.
    """
    v = as_cvector(v)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise NotUnitError("vector must have unit norm")
    matches = []
    for label, B in bases.items():
        B = as_cmatrix(B)
        if not is_unitary(B):
            raise NotOrthonormalError(f"basis {label!r} is not orthonormal")
        if B.shape[0] != v.size:
            raise DimensionMismatchError(f"basis {label!r} dimension mismatch")
        overlaps = np.abs(B.conj().T @ v) ** 2
        for j in np.nonzero(overlaps >= 1.0 - 1e-6)[0]:
            matches.append((label, int(j)))
    return matches
