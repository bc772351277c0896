"""Unitary representations of finite groups, irreducibility by the
character norm, coherent-state orbits of a fiducial vector, and the frame
operator whose scalarity turns an orbit into a resolution of the identity.
The frame operator is a weighted projector sum, linalg.projector_sum.

Integrals over a compact symmetry reduce here to weighted sums over a
finite group; when the base point has a nontrivial stabilizer the sum
counts each state once per stabilizing element, a constant factor that is
absorbed into the frame scalar.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup, GroupAction, InvariantMeasure, counting_measure, is_transitive
from .linalg import (as_cmatrix, as_cvector, as_state_family, is_unitary,
                     max_abs, projector_sum)


class ZeroFiducialError(ValueError):
    pass


class NonTransitiveError(ValueError):
    pass


class NotScalarError(ValueError):
    pass


class NotUnitaryError(ValueError):
    pass


@dataclass(frozen=True)
class UnitaryRep:
    """One unitary matrix per group element, multiplicative over the table.

    Every matrix must be unitary within 1e-9*dim and the identity element
    must map to the identity matrix. The product law V(s)V(k) = V(s*k) is
    checked for every generator s of the group and every element k, within
    eps = 1e-8*dim / (2*D) (Frobenius), where D is the group's generation
    depth. The elements that satisfy the law exactly are closed under
    products; in floating point the error of V(h)V(k) = V(h*k) for a word
    h of L generators grows by at most 2*eps per letter (to first order in
    the unitarity error), so every pair then satisfies the law within
    2*D*eps = 1e-8*dim, the bound an all-pairs check would apply.

    law_error records the largest error measured, the Frobenius norm of
    V(s)V(k) - V(s*k) over generators s and all elements k, so that a
    report can quote it without measuring the law again.
    """

    group: FiniteGroup
    dim: int
    matrices: np.ndarray
    law_error: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=np.complex128).copy()
        n, d = self.group.order, self.dim
        if mats.shape != (n, d, d):
            raise ValueError(f"matrices must have shape ({n},{d},{d})")
        eye = np.eye(d)
        if np.linalg.norm(mats[self.group.identity] - eye) > 1e-12 * d:
            raise ValueError("identity element must map to the identity matrix")
        for k in range(n):
            if not is_unitary(mats[k], 1e-9):
                raise ValueError(f"matrix for element {k} is not unitary")
        tol = 1e-8 * d / (2 * self.group.depth)
        law_error = 0.0
        for s in self.group.generating_set:
            prods = mats[s] @ mats
            target = mats[self.group.cayley[s]]
            err = float(np.max(np.linalg.norm(prods - target, axis=(1, 2))))
            if err > tol:
                raise ValueError(
                    f"representation product law fails at generator {s} "
                    f"(error {err:.3e})"
                )
            law_error = max(law_error, err)
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "law_error", law_error)

    def matrix(self, k: int) -> np.ndarray:
        return self.matrices[k]


def permutation_rep(act: GroupAction) -> UnitaryRep:
    """Permutation matrices realizing an action: U(k) e_x = e_{k.x}."""
    n, m = act.group.order, act.space_size
    mats = np.zeros((n, m, m), dtype=np.complex128)
    mats[np.arange(n)[:, None], act.perm, np.arange(m)] = 1.0
    return UnitaryRep(group=act.group, dim=m, matrices=mats)


def left_regular_rep(g: FiniteGroup) -> UnitaryRep:
    """The group permuting itself: functions pulled back along k^{-1}.

    On basis vectors this sends e_y to e_{k.y}, giving exact 0/1
    permutation matrices of dimension equal to the group order.
    """
    from .groups import left_translation_action

    return permutation_rep(left_translation_action(g))


def commutant_dimension(rep: UnitaryRep, tol: float = 1e-8) -> int:
    """Dimension of {X : X V(k) = V(k) X for every element k}.

    By Schur orthogonality it equals the character norm
    c = (1/|G|) * sum_k |tr V(k)|^2 (Serre, Linear Representations of
    Finite Groups, 2.3), which is an integer between 1 and d^2. Raises
    ValueError when |c - round(c)| > tol*d^2: the matrices then do not form
    a representation.
    """
    d = rep.dim
    chars = np.einsum("kii->k", rep.matrices)
    c = float(np.vdot(chars, chars).real) / rep.group.order
    if abs(c - round(c)) > tol * d * d:
        raise ValueError(
            f"character norm {c:.6g} is not an integer; "
            "the matrices do not form a representation"
        )
    return round(c)


def is_irreducible(rep: UnitaryRep, tol: float = 1e-8):
    """(irreducible?, commutant dimension); irreducible iff the commutant
    is exactly the scalars."""
    c = commutant_dimension(rep, tol)
    return c == 1, c


@dataclass(frozen=True)
class CoherentSystem:
    """The orbit of a fiducial vector under a representation.

    states[k] = V(k) |fiducial>; the measure lives on the space the group
    acts on, and states are parametrized by group elements.
    """

    rep: UnitaryRep
    action: GroupAction
    base_point: int
    fiducial: np.ndarray
    states: np.ndarray
    measure: InvariantMeasure
    commutant_dim: int

    def __post_init__(self):
        f = as_cvector(self.fiducial).copy()
        st = np.asarray(self.states, dtype=np.complex128).copy()
        if st.shape != (self.rep.group.order, self.rep.dim):
            raise ValueError("states must hold one vector per group element")
        norms = np.linalg.norm(st, axis=1)
        if np.max(np.abs(norms - np.linalg.norm(f))) > 1e-9 * max(1.0, np.linalg.norm(f)):
            raise ValueError("orbit states must all share the fiducial norm")
        if np.linalg.norm(st[self.rep.group.identity] - f) > 1e-12 * max(1.0, np.linalg.norm(f)):
            raise ValueError("the identity element must reproduce the fiducial")
        f.setflags(write=False)
        st.setflags(write=False)
        object.__setattr__(self, "fiducial", f)
        object.__setattr__(self, "states", st)

    def state_weights(self) -> np.ndarray:
        """Measure weight attached to each group-element-labelled state."""
        pts = self.action.perm[:, self.base_point]
        return self.measure.weights[pts]


def make_coherent(rep: UnitaryRep, act: GroupAction, base_point: int,
                  fiducial, measure: InvariantMeasure | None = None) -> CoherentSystem:
    """Orbit of a fiducial vector under an irreducible representation.

    The action must be transitive; a reducible representation is allowed
    but triggers a warning because the frame operator then need not be a
    scalar.
    """
    if act.group is not rep.group and not np.array_equal(act.group.cayley, rep.group.cayley):
        raise ValueError("action and representation use different groups")
    if not (0 <= base_point < act.space_size):
        raise ValueError("base point out of range")
    if not is_transitive(act):
        raise NonTransitiveError("the action must be transitive on the space")
    f = as_cvector(fiducial)
    if f.size != rep.dim:
        raise ValueError("fiducial dimension must match the representation")
    if np.linalg.norm(f) < 1e-12:
        raise ZeroFiducialError("fiducial vector is numerically zero")
    if measure is None:
        measure = counting_measure(act)
    if len(measure.weights) != act.space_size:
        raise ValueError("measure must live on the action's space")
    irr, cdim = is_irreducible(rep)
    if not irr:
        warnings.warn(
            f"representation is reducible (commutant dimension {cdim}); "
            "the frame operator may fail to be a scalar",
            stacklevel=2,
        )
    states = rep.matrices @ f
    return CoherentSystem(rep=rep, action=act, base_point=base_point,
                          fiducial=f, states=states, measure=measure,
                          commutant_dim=cdim)


@dataclass(frozen=True)
class FrameOperator:
    """Weighted sum of orbit-state projectors and its scalar value.

    T equals lam times the identity; normalized_weights are the measure
    weights divided by lam, under which the orbit resolves the identity.
    """

    T: np.ndarray
    lam: float
    normalized_weights: np.ndarray


def frame_operator(cs: CoherentSystem) -> FrameOperator:
    """Sum the weighted state projectors and verify scalarity.

    Commutation of T with the representation is verified first, on the
    group's generators within 1e-9*scale/D (D the generation depth). The
    commutator with a word of L generators is at most the sum of its
    letters' commutators plus the representation's product-law error, so
    every element then commutes within 1e-9*scale up to that error. Then
    T must be lam*I with lam = trace(T)/dim > 0, otherwise NotScalarError
    (a reducible representation or broken invariance).
    """
    T = projector_sum(cs.states, cs.state_weights())
    d = cs.rep.dim
    scale = max(1.0, float(np.linalg.norm(T)))

    group = cs.rep.group
    comm_err = 0.0
    for s in group.generating_set:
        V = cs.rep.matrices[s]
        comm_err = max(comm_err, float(np.linalg.norm(V @ T - T @ V)))
    if comm_err > 1e-9 * scale / group.depth:
        raise NotScalarError(
            f"frame operator fails to commute with the representation "
            f"(error {comm_err:.3e}); the measure is not invariant"
        )

    lam = float(np.trace(T).real) / d
    scal_err = float(np.linalg.norm(T - lam * np.eye(d)))
    if scal_err > 1e-8 * max(1.0, abs(np.trace(T).real)):
        evals = np.linalg.eigvalsh(T)
        rank = int(np.sum(evals > 1e-12 * max(1.0, evals[-1])))
        raise NotScalarError(
            f"frame operator is not a scalar (deviation {scal_err:.3e}, "
            f"rank {rank} of {d}); the representation is likely reducible"
        )
    if lam <= 0:
        raise NotScalarError("frame scalar must be positive for a nonzero fiducial")

    dev = max_abs(T / lam - np.eye(d))
    if dev > 1e-9 * d:
        raise NotScalarError(f"normalized frame misses the identity by {dev:.3e}")
    return FrameOperator(T=T, lam=lam,
                         normalized_weights=cs.measure.weights / lam)


def resolution_deviation(states, weights) -> float:
    """Max-norm deviation of sum_i w_i |s_i><s_i| from the identity."""
    st, w = as_state_family(states, weights)
    return max_abs(projector_sum(st, w) - np.eye(st.shape[1]))


def unitary_transport(cs: CoherentSystem, W) -> CoherentSystem:
    """Carry a coherent system through a unitary change of frame.

    States map to W|s>, the representation to W V W^dag, and the measure is
    unchanged, so the resolution deviation is preserved.
    """
    W = as_cmatrix(W)
    if not is_unitary(W, 1e-9):
        raise NotUnitaryError("transport matrix is not unitary")
    if W.shape[0] != cs.rep.dim:
        raise ValueError("transport dimension mismatch")
    new_mats = W @ cs.rep.matrices @ W.conj().T
    new_rep = UnitaryRep(group=cs.rep.group, dim=cs.rep.dim, matrices=new_mats)
    return CoherentSystem(
        rep=new_rep, action=cs.action, base_point=cs.base_point,
        fiducial=W @ cs.fiducial, states=cs.states @ W.T,
        measure=cs.measure, commutant_dim=cs.commutant_dim,
    )


# ---------------------------------------------------------------------------
# concrete representations used by the built-in scenarios


def dihedral_rotation_rep(g: FiniteGroup) -> UnitaryRep:
    """The planar rotation/reflection matrices of a dihedral group."""
    if g.elements is None or not g.name.startswith("dihedral:"):
        raise ValueError("expected a group built by make_named_group('dihedral:n')")
    n = g.order // 2
    i, b = np.array(g.elements).T
    a = 2.0 * np.pi * i / n
    c, s = np.cos(a), np.sin(a)
    rot = np.moveaxis(np.array([[c, -s], [s, c]]), -1, 0)
    reflect = np.where(b[:, None, None] == 1, np.diag([1.0, -1.0]), np.eye(2))
    mats = (rot @ reflect).astype(np.complex128)
    return UnitaryRep(group=g, dim=2, matrices=mats)


def binary_tetrahedral_spin_rep(g: FiniteGroup) -> UnitaryRep:
    """The defining 2x2 unitary matrices of the unit-quaternion group."""
    if g.elements is None or g.name != "binary_tetrahedral":
        raise ValueError("expected make_named_group('binary_tetrahedral')")
    a, b, c, d = np.array(g.elements).T / 2.0
    mats = np.moveaxis(np.array([[a + 1j * b, c + 1j * d],
                                 [-c + 1j * d, a - 1j * b]]), -1, 0)
    return UnitaryRep(group=g, dim=2, matrices=mats)


# ---------------------------------------------------------------------------
# serialization


def rep_to_json(rep: UnitaryRep) -> str:
    """Element-indexed arrays of row-major [re, im] entry pairs."""
    payload = [
        [[float(z.real), float(z.imag)] for z in mat.ravel()]
        for mat in rep.matrices
    ]
    return json.dumps({"dim": rep.dim, "matrices": payload})


def rep_from_json(group: FiniteGroup, text: str) -> UnitaryRep:
    obj = json.loads(text)
    d = int(obj["dim"])
    mats = np.array(
        [[complex(re, im) for re, im in mat] for mat in obj["matrices"]],
        dtype=np.complex128,
    ).reshape(group.order, d, d)
    return UnitaryRep(group=group, dim=d, matrices=mats)
