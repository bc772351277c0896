"""Unitary representations of finite groups, irreducibility by the
character norm, coherent-state orbits of a fiducial vector, and the frame
operator whose scalarity turns an orbit into a resolution of the identity.
Irreducibility has one routine, is_irreducible, and a CoherentSystem
checks that its own action is transitive. The frame operator is one
projector sum, linalg.projector_sum; unitarity is decided in linalg alone.

A representation is dense (UnitaryRep) or monomial (MonomialRep); the
functions here use only the interface the two share, so a monomial rep is
never expanded into a |G| x d x d stack, nor into a |G| x d table of
complex phases.

Integrals over a compact symmetry reduce here to sums over a finite group.
On a transitive action of a finite group the invariant measure is unique
up to scale, the counting measure, and the frame scalar divides the scale
out, so every orbit state has weight 1 and no measure is taken. When the
base point has a nontrivial stabilizer the sum counts each state once per
stabilizing element, a constant factor that is absorbed into the frame
scalar as well. The orbit states then resolve the identity with the
weight 1/lam each, lam being FrameOperator.lam.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import (FiniteGroup, GroupAction, element_blocks, generator_law,
                     is_transitive, left_translation_action, read_only)
from .linalg import as_cvector, max_abs, projector_sum, unitarity_errors


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
    """One dense unitary matrix per group element, multiplicative over the
    table.

    A representation has one of two forms, with one interface: dim, group,
    matrix(k), characters(), orbit(f) and conjugated(A, ks). UnitaryRep
    stores the d x d matrix of every element; it is the form of reps whose
    matrices mix basis vectors, such as dihedral_rotation_rep and
    binary_tetrahedral_spin_rep. MonomialRep stores a permutation and the
    integer exponents of roots of unity per element; it is the form of
    permutation_rep, left_regular_rep, and the phase-space shift_rep and
    clock_rep, and its laws are exact.

    matrices is a stack of one dim x dim matrix per element, dim >= 1,
    kept read-only as complex128 by groups.read_only's rule: a copy,
    unless it already is a read-only complex128 array owning its memory.
    Every matrix must be unitary by linalg.unitarity_errors, and the
    identity element must map to the identity matrix. The product law
    V(s)V(k) = V(s*k) is checked by groups.generator_law, for every
    generator s of the group and every element k, within
    eps = 1e-8*dim / (2*D) (Frobenius), where D is the group's generation
    depth. The elements that satisfy the law exactly are closed under
    products; in floating point the error of V(h)V(k) = V(h*k) for a word
    h of L generators grows by at most 2*eps per letter (to first order in
    the unitarity error), so every pair then satisfies the law within
    2*D*eps = 1e-8*dim, the bound an all-pairs check would apply.
    """

    group: FiniteGroup
    matrices: np.ndarray

    def __post_init__(self):
        mats = read_only(np.asarray(self.matrices, dtype=np.complex128))
        n = self.group.order
        if mats.ndim != 3 or len(mats) != n or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must be a stack of {n} square matrices")
        d = mats.shape[1]
        if d == 0:
            raise ValueError("matrices must have dimension at least 1")
        if np.linalg.norm(mats[self.group.identity] - np.eye(d)) > 1e-12 * d:
            raise ValueError("identity element must map to the identity matrix")
        unitary = unitarity_errors(mats) <= 1e-9 * d
        if not unitary.all():
            raise ValueError(f"matrix for element {np.argmin(unitary)} is not unitary")
        g = self.group
        generator_law(g, mats.size, lambda s, b: np.linalg.norm(
            mats[s] @ mats[b] - mats[g.cayley[s, b]], axis=(1, 2)),
            "representation product law", 1e-8 * d / (2 * g.depth))
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def matrix(self, k: int) -> np.ndarray:
        return self.matrices[k]

    def characters(self) -> np.ndarray:
        """The trace of every element's matrix."""
        return np.einsum("kii->k", self.matrices)

    def orbit(self, f) -> np.ndarray:
        """V(k) f for every element k, stacked on axis 0; f is a vector or
        a dim x m matrix."""
        return self.matrices @ f

    def conjugated(self, A, ks) -> np.ndarray:
        """The stack V(k)^dag A V(k) over a 1-d index array of elements."""
        mats = self.matrices[ks]
        return mats.conj().swapaxes(-1, -2) @ A @ mats


_ZERO = np.zeros(1, dtype=np.int16)
_ZERO.setflags(write=False)


def _zero_exponents(shape) -> np.ndarray:
    """A read-only int16 table of zeros that stores one shared zero, read
    with strides 0 (np.broadcast_to builds the same view more slowly)."""
    return np.ndarray(shape, np.int16, _ZERO, strides=(0, 0))


@dataclass(frozen=True)
class MonomialRep:
    """A representation by permutations with phases that are roots of
    unity: V(k) e_x = w^exponent[k, x] e_{perm[k, x]}, with perm the maps
    of a GroupAction and w = exp(2 pi i / modulus).

    These are the representations induced from one-dimensional characters
    of finite order (Serre, Linear Representations of Finite Groups, 7.1).
    They are stored as the action and an int16 |G| x dim array of
    exponents, reduced into range(modulus) and read-only, with 1 <= modulus
    <= 32767 (at modulus 1 a view of one shared zero). A table that already
    is in that form and owns its memory is kept, not copied, by
    groups.read_only's rule; any other is reduced into a new one. A phase
    is read from the table of the modulus roots when a method needs it,
    and no |G| x dim x dim stack or |G| x dim complex table is stored. The
    permutation part obeys the composition law exactly: GroupAction checks
    it on integers. The laws of the phases are exact integer checks too:
    - the identity: exponent[e] == 0, since perm[e] is the identity map;
    - unitarity holds by construction, every phase being of modulus 1;
    - the product law: V(s)V(k) e_x = w^(exponent[s, perm[k, x]] +
      exponent[k, x]) e_{perm[s*k, x]}, so V(s)V(k) = V(s*k) iff
      exponent[s, perm[k, x]] + exponent[k, x] - exponent[s*k, x] is 0 mod
      modulus at every x. It is checked by groups.generator_law, for every
      generator s and every element k, which proves it for every pair;
      with modulus 1 every exponent is 0 and it holds trivially.
    A rep that breaks a law is refused: there is no error to record.
    """

    action: GroupAction
    exponent: np.ndarray
    modulus: int

    def __post_init__(self):
        m = self.modulus
        if not (isinstance(m, (int, np.integer)) and 1 <= m <= np.iinfo(np.int16).max):
            raise ValueError("modulus must be an integer in [1, 32767]")
        m = int(m)
        e = np.asarray(self.exponent)
        g, d = self.group, self.dim
        if e.shape != (g.order, d) or e.dtype.kind not in "iu":
            raise ValueError(
                f"exponent must hold {d} integers for each of {g.order} elements")
        if m == 1:
            # every exponent is 0 mod 1, so every law holds
            e = _zero_exponents(e.shape)
        else:
            if e.dtype != np.int16 or e.min() < 0 or e.max() >= m:
                # a one-byte dtype cannot hold every modulus
                if e.itemsize < 2:
                    e = e.astype(np.int16)
                e = np.mod(e, m).astype(np.int16, copy=False)
                e.setflags(write=False)
            # a reduced int16 table is copied unless no caller can write to it
            e = read_only(e)
            if e[g.identity].any():
                raise ValueError("identity element must map to the identity matrix")
            # int16 sums can overflow: each slice is added in intp
            perm = self.action.perm

            def mismatch(s, b):
                err = e[s][perm[b]].astype(np.intp)
                err += e[b]
                err -= e[g.cayley[s, b]]
                return err % m != 0

            generator_law(g, e.size, mismatch, "representation product law")
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        roots.setflags(write=False)
        object.__setattr__(self, "exponent", e)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "_roots", roots)

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    @property
    def dim(self) -> int:
        return self.action.space_size

    def matrix(self, k: int) -> np.ndarray:
        """The dense matrix of one element."""
        m = np.zeros((self.dim, self.dim), dtype=np.complex128)
        m[self.action.perm[k], np.arange(self.dim)] = self._roots[self.exponent[k]]
        return m

    def characters(self) -> np.ndarray:
        """The sum of every element's phases at its fixed points, read on
        the element blocks of groups.element_blocks, as the laws are."""
        out = np.empty(self.group.order, dtype=np.complex128)
        for b in element_blocks(len(out), self.exponent.size):
            fixed = self.action.perm[b] == np.arange(self.dim)
            out[b] = np.where(fixed, self._roots[self.exponent[b]], 0.0).sum(axis=1)
        return out

    def orbit(self, f) -> np.ndarray:
        """V(k) f for every element k, stacked on axis 0, by one scatter per
        element block of groups.element_blocks; f is a vector or a dim x m
        matrix."""
        f = np.asarray(f)
        out = np.zeros((self.group.order,) + f.shape, dtype=np.complex128)
        for b in element_blocks(len(out), out.size):
            e = self.exponent[b]
            ph = self._roots[e].reshape(e.shape + (1,) * (f.ndim - 1))
            out[np.arange(len(out))[b, None], self.action.perm[b]] = ph * f
        return out

    def conjugated(self, A, ks) -> np.ndarray:
        """The stack V(k)^dag A V(k) over a 1-d index array of elements, by
        one gather: entry (x, y) is
        conj(phase[k, x]) * A[perm[k, x], perm[k, y]] * phase[k, y]. With
        modulus 1 every phase is 1, and the gather is all."""
        p = self.action.perm.take(ks, axis=0)
        out = np.asarray(A)[p[:, :, None], p[:, None, :]]
        if self.modulus == 1:
            return out
        ph = self._roots.take(self.exponent.take(ks, axis=0))
        out = out * ph.conj()[:, :, None]
        out *= ph[:, None, :]
        return out


def permutation_rep(act: GroupAction) -> MonomialRep:
    """Permutation matrices realizing an action, U(k) e_x = e_{k.x}: the
    monomial rep of the action with modulus 1, every phase 1."""
    return MonomialRep(action=act, modulus=1,
                       exponent=_zero_exponents((act.group.order, act.space_size)))


def left_regular_rep(g: FiniteGroup) -> MonomialRep:
    """The group permuting itself: functions pulled back along k^{-1}.

    On basis vectors this sends e_y to e_{k.y}, giving exact 0/1
    permutation matrices of dimension equal to the group order.
    """
    return permutation_rep(left_translation_action(g))


def is_irreducible(rep: UnitaryRep | MonomialRep, tol: float = 1e-8):
    """(irreducible?, commutant dimension), the commutant being
    {X : X V(k) = V(k) X for every element k}; irreducible iff it is
    exactly the scalars.

    By Schur orthogonality its dimension equals the character norm
    c = (1/|G|) * sum_k |tr V(k)|^2 (Serre, Linear Representations of
    Finite Groups, 2.3), which is an integer between 1 and d^2. Raises
    ValueError when |c - round(c)| > tol*d^2: the matrices then do not form
    a representation.
    """
    d = rep.dim
    chars = rep.characters()
    c = float(np.vdot(chars, chars).real) / rep.group.order
    if abs(c - round(c)) > tol * d * d:
        raise ValueError(
            f"character norm {c:.6g} is not an integer; "
            "the matrices do not form a representation"
        )
    return round(c) == 1, round(c)


def _require_same_group(rep: UnitaryRep | MonomialRep, act: GroupAction) -> None:
    """Refuse a rep and an action whose groups differ: the same object, or
    equal Cayley tables, is one group."""
    if act.group is not rep.group and not np.array_equal(act.group.cayley, rep.group.cayley):
        raise ValueError("action and representation use different groups")


@dataclass(frozen=True)
class CoherentSystem:
    """The orbit of a fiducial vector under a representation.

    The fiducial, finite, nonzero and of the rep's dimension, is kept
    read-only; states[k] = V(k) |fiducial> (read-only) and commutant_dim are
    derived once. States are parametrized by group elements, each with
    weight 1, the counting measure, which needs a transitive action; the
    base point is an integer (numpy too) in range(action.space_size), kept
    as int.
    """

    rep: UnitaryRep | MonomialRep
    action: GroupAction
    base_point: int
    fiducial: np.ndarray

    def __post_init__(self):
        _require_same_group(self.rep, self.action)
        point = self.base_point
        if not (isinstance(point, (int, np.integer)) and 0 <= point < self.action.space_size):
            raise ValueError(
                f"base point must be an integer in range({self.action.space_size})")
        f = as_cvector(self.fiducial).copy()
        if f.size != self.rep.dim:
            raise ValueError("fiducial dimension must match the representation")
        if np.linalg.norm(f) < 1e-12:
            raise ZeroFiducialError("fiducial vector is numerically zero")
        if not is_transitive(self.action):
            raise NonTransitiveError("the action must be transitive on the space")
        f.setflags(write=False)
        object.__setattr__(self, "base_point", int(point))
        object.__setattr__(self, "fiducial", f)

    @cached_property
    def states(self) -> np.ndarray:
        st = self.rep.orbit(self.fiducial)
        st.setflags(write=False)
        return st

    @cached_property
    def commutant_dim(self) -> int:
        return is_irreducible(self.rep)[1]


def make_coherent(rep: UnitaryRep | MonomialRep, act: GroupAction, base_point: int,
                  fiducial) -> CoherentSystem:
    """Orbit of a fiducial vector under an irreducible representation.

    CoherentSystem checks the groups, the transitive action, base_point and
    the fiducial; a reducible representation is allowed but triggers a
    warning because the frame operator then need not be a scalar.
    """
    cs = CoherentSystem(rep=rep, action=act, base_point=base_point, fiducial=fiducial)
    if cs.commutant_dim != 1:
        warnings.warn(
            f"representation is reducible (commutant dimension {cs.commutant_dim}); "
            "the frame operator may fail to be a scalar",
            stacklevel=2,
        )
    return cs


@dataclass(frozen=True)
class FrameOperator:
    """Sum of orbit-state projectors and its scalar value lam = tr T / dim.

    T equals lam times the identity, so the orbit states resolve the
    identity under the weight 1/lam each.
    """

    T: np.ndarray

    @property
    def lam(self) -> float:
        return float(np.trace(self.T).real) / len(self.T)


def frame_operator(cs: CoherentSystem) -> FrameOperator:
    """Sum the orbit-state projectors, each with weight 1, and verify that
    the sum is a positive scalar.

    T = sum_k V(k)|f><f|V(k)^dag commutes with the representation by
    construction: V(s) T V(s)^dag reindexes the sum by k -> s*k, up to the
    product-law error that UnitaryRep bounds, so it is not checked. T must
    be lam*I: max |T/lam - I| <= 1e-9*dim, build_operator's rule for every
    family, or NotScalarError (a reducible representation); the nonzero
    fiducial gives lam = |G| * ||f||^2 / dim > 0.
    """
    frame = FrameOperator(T=projector_sum(cs.states, np.ones(len(cs.states))))
    d = cs.rep.dim
    dev = max_abs(frame.T / frame.lam - np.eye(d))
    if not dev <= 1e-9 * d:
        evals = np.linalg.eigvalsh(frame.T)
        rank = int(np.sum(evals > 1e-12 * max(1.0, evals[-1])))
        raise NotScalarError(
            f"frame operator is not a scalar (deviation {dev:.3e}, "
            f"rank {rank} of {d}); the representation is likely reducible"
        )
    return frame


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
