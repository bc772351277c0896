"""Unitary representations of finite groups, irreducibility by the
character norm, coherent-state orbits of a fiducial vector, and the frame
operator whose scalarity turns an orbit into a resolution of the identity.
The frame operator is a projector sum, linalg.projector_sum.

Integrals over a compact symmetry reduce here to sums over a finite group.
On a transitive action of a finite group the invariant measure is unique
up to scale, the counting measure, and the frame scalar divides the scale
out, so every orbit state has weight 1 and no measure is taken. When the
base point has a nontrivial stabilizer the sum counts each state once per
stabilizing element, a constant factor that is absorbed into the frame
scalar as well.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup, GroupAction, is_transitive
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

    matrices is a stack of one dim x dim matrix per element. Every matrix
    must be unitary within 1e-9*dim, tested by stacked products, and the
    identity element must map to the identity matrix. The product law
    V(s)V(k) = V(s*k) is checked for every generator s of the group and
    every element k, within
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
    matrices: np.ndarray
    law_error: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=np.complex128).copy()
        n = self.group.order
        if mats.ndim != 3 or len(mats) != n or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must be a stack of {n} square matrices")
        d = mats.shape[1]
        eye = np.eye(d)
        if np.linalg.norm(mats[self.group.identity] - eye) > 1e-12 * d:
            raise ValueError("identity element must map to the identity matrix")
        # both laws run on slices of elements of about 2**14 entries, which
        # stay in cache. V^dag V - I is stacked with V^dag made contiguous
        # so that each product runs on BLAS; a non-finite entry gives an
        # error that fails the comparison
        step = -(-n // (1 + mats.size // (1 << 14)))
        blocks = [slice(k, k + step) for k in range(0, n, step)]
        with np.errstate(invalid="ignore"):
            err = np.concatenate([
                np.linalg.norm(np.conjugate(m.swapaxes(1, 2), out=np.empty_like(m)) @ m
                               - eye, axis=(1, 2))
                for m in (mats[b] for b in blocks)
            ])
        unitary = err <= 1e-9 * d
        if not unitary.all():
            raise ValueError(f"matrix for element {np.argmin(unitary)} is not unitary")
        tol = 1e-8 * d / (2 * self.group.depth)
        law_error = 0.0
        for s in self.group.generating_set:
            err = max(float(np.max(np.linalg.norm(
                mats[s] @ mats[b] - mats[self.group.cayley[s, b]], axis=(1, 2))))
                for b in blocks)
            if err > tol:
                raise ValueError(
                    f"representation product law fails at generator {s} "
                    f"(error {err:.3e})"
                )
            law_error = max(law_error, err)
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "law_error", law_error)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def matrix(self, k: int) -> np.ndarray:
        return self.matrices[k]


def permutation_rep(act: GroupAction) -> UnitaryRep:
    """Permutation matrices realizing an action: U(k) e_x = e_{k.x}."""
    n, m = act.group.order, act.space_size
    mats = np.zeros((n, m, m), dtype=np.complex128)
    mats[np.arange(n)[:, None], act.perm, np.arange(m)] = 1.0
    return UnitaryRep(group=act.group, matrices=mats)


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

    states[k] = V(k) |fiducial>: states are parametrized by group elements,
    each with weight 1, and the group acts transitively on the space that
    holds the base point.
    """

    rep: UnitaryRep
    action: GroupAction
    base_point: int
    fiducial: np.ndarray
    states: np.ndarray
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


def make_coherent(rep: UnitaryRep, act: GroupAction, base_point: int,
                  fiducial) -> CoherentSystem:
    """Orbit of a fiducial vector under an irreducible representation.

    The action must be transitive, so that its invariant measure is the
    counting measure up to scale; a reducible representation is allowed
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
    irr, cdim = is_irreducible(rep)
    if not irr:
        warnings.warn(
            f"representation is reducible (commutant dimension {cdim}); "
            "the frame operator may fail to be a scalar",
            stacklevel=2,
        )
    states = rep.matrices @ f
    return CoherentSystem(rep=rep, action=act, base_point=base_point,
                          fiducial=f, states=states, commutant_dim=cdim)


@dataclass(frozen=True)
class FrameOperator:
    """Sum of orbit-state projectors and its scalar value.

    T equals lam times the identity; normalized_weights holds one weight
    per orbit state, 1/lam, under which the orbit states resolve the
    identity.
    """

    T: np.ndarray
    lam: float
    normalized_weights: np.ndarray


def frame_operator(cs: CoherentSystem) -> FrameOperator:
    """Sum the orbit-state projectors, each with weight 1, and verify that
    the sum is a positive scalar.

    T = sum_k V(k)|f><f|V(k)^dag commutes with the representation by
    construction: V(s) T V(s)^dag reindexes the sum by k -> s*k, up to the
    product-law error that UnitaryRep bounds, so it is not checked. T must
    be lam*I with lam = trace(T)/dim > 0, otherwise NotScalarError (a
    reducible representation); for a nonzero fiducial
    lam = |G| * ||f||^2 / dim.
    """
    T = projector_sum(cs.states, np.ones(len(cs.states)))
    d = cs.rep.dim
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
                         normalized_weights=np.full(len(cs.states), 1.0 / lam))


def resolution_deviation(states, weights) -> float:
    """Max-norm deviation of sum_i w_i |s_i><s_i| from the identity."""
    st, w = as_state_family(states, weights)
    return max_abs(projector_sum(st, w) - np.eye(st.shape[1]))


def unitary_transport(cs: CoherentSystem, W) -> CoherentSystem:
    """Carry a coherent system through a unitary change of frame.

    States map to W|s>, the representation to W V W^dag, and the weights
    are unchanged, so the resolution deviation is preserved.
    """
    W = as_cmatrix(W)
    if not is_unitary(W, 1e-9):
        raise NotUnitaryError("transport matrix is not unitary")
    if W.shape[0] != cs.rep.dim:
        raise ValueError("transport dimension mismatch")
    new_mats = W @ cs.rep.matrices @ W.conj().T
    new_rep = UnitaryRep(group=cs.rep.group, matrices=new_mats)
    return CoherentSystem(
        rep=new_rep, action=cs.action, base_point=cs.base_point,
        fiducial=W @ cs.fiducial, states=cs.states @ W.T,
        commutant_dim=cs.commutant_dim,
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
    return UnitaryRep(group=g, matrices=mats)


def binary_tetrahedral_spin_rep(g: FiniteGroup) -> UnitaryRep:
    """The defining 2x2 unitary matrices of the unit-quaternion group."""
    if g.elements is None or g.name != "binary_tetrahedral":
        raise ValueError("expected make_named_group('binary_tetrahedral')")
    a, b, c, d = np.array(g.elements).T / 2.0
    mats = np.moveaxis(np.array([[a + 1j * b, c + 1j * d],
                                 [-c + 1j * d, a - 1j * b]]), -1, 0)
    return UnitaryRep(group=g, matrices=mats)


# ---------------------------------------------------------------------------
# serialization


def rep_to_json(rep: UnitaryRep) -> str:
    """Element-indexed arrays of row-major [re, im] entry pairs."""
    pairs = rep.matrices.view(np.float64).reshape(rep.group.order, -1, 2)
    return json.dumps({"dim": rep.dim, "matrices": pairs.tolist()})


def rep_from_json(group: FiniteGroup, text: str) -> UnitaryRep:
    obj = json.loads(text)
    d = int(obj["dim"])
    pairs = np.array(obj["matrices"], dtype=np.float64)
    mats = pairs.view(np.complex128).reshape(group.order, d, d)
    return UnitaryRep(group=group, matrices=mats)
