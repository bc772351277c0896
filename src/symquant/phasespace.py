"""Finite cyclic phase space: shift and clock unitaries, the Fourier
(momentum) basis, mutual unbiasedness, and position/momentum operators.

The shift and clock representations of cyclic:n are monomial: a
permutation and n phases per element (coherent.MonomialRep), O(n^2) in
all, so lattices up to MAX_PHASE_N = 1024 points are reachable.

This is the n-point stand-in for translations of position and momentum on
the line; the genuinely continuous case (unbounded operators, continuous
spectra) is only analogized, never represented.
"""

from __future__ import annotations

import numpy as np

from .coherent import MonomialRep, permutation_rep
from .groups import FiniteGroup, GroupAction, cyclic_group, cyclic_shift_action
from .quantize import OperatorBundle, build_operator


# the largest lattice accepted: the phase scenario at MAX_PHASE_N (cyclic
# group of order 1024) takes about 4.5 s and peaks at about 168 MiB under
# tracemalloc with one BLAS thread, well inside a 1 GiB budget; its dense
# n x n products (the shift's matrix power alone about 1.8 s) dominate, not
# the monomial reps' n x n phases; it reads only the matrices of X and P,
# so neither is eigendecomposed
MAX_PHASE_N = 1024


class BadSizeError(ValueError):
    pass


def _check_size(n: int) -> int:
    n = int(n)
    if not 2 <= n <= MAX_PHASE_N:
        raise BadSizeError(
            f"lattice size must lie between 2 and the largest supported size "
            f"{MAX_PHASE_N}, got {n}")
    return n


def fourier_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix; column p is the momentum state |p>."""
    n = _check_size(n)
    x = np.arange(n)
    return np.exp(2j * np.pi * np.outer(x, x) / n) / np.sqrt(n)


def shift_unitary(n: int, c: int = 1) -> np.ndarray:
    """Position shift by c: |x> -> |x + c mod n>."""
    n = _check_size(n)
    S = np.zeros((n, n), dtype=np.complex128)
    S[(np.arange(n) + c) % n, np.arange(n)] = 1.0
    return S


def clock_unitary(n: int, d: int = 1) -> np.ndarray:
    """Momentum shift by d, diagonal in position: |x> -> w^{dx} |x>."""
    n = _check_size(n)
    return np.diag(np.exp(2j * np.pi * d * np.arange(n) / n))


def _lattice_group(n: int, group: FiniteGroup | None) -> FiniteGroup:
    """cyclic:n, or the given group when its order is n."""
    n = _check_size(n)
    g = group if group is not None else cyclic_group(n)
    if g.order != n:
        raise ValueError(f"a group of order {g.order} cannot shift {n} points")
    return g


def shift_rep(n: int, group: FiniteGroup | None = None) -> MonomialRep:
    """k -> shift by k, a faithful unitary representation of cyclic:n: the
    permutation rep of the shifts."""
    return permutation_rep(cyclic_shift_action(_lattice_group(n, group)))


def clock_rep(n: int, group: FiniteGroup | None = None) -> MonomialRep:
    """k -> clock^k, the Fourier-conjugate representation of cyclic:n: the
    trivial permutation of every point, with phase w^{kx} at x."""
    g = _lattice_group(n, group)
    x = np.arange(n)
    fixed = GroupAction(group=g, perm=np.broadcast_to(x, (n, n)))
    # the phases of clock_unitary(n, k), operation for operation
    return MonomialRep(action=fixed, phase=np.exp(2j * np.pi * x[:, None] * x / n))


def mub_deviation(n: int) -> float:
    """Largest deviation of |<x|p>|^2 from 1/n over the two bases."""
    F = fourier_matrix(n)
    return float(np.max(np.abs(np.abs(F) ** 2 - 1.0 / n)))


def position_operator(n: int) -> OperatorBundle:
    """Multiplication by the lattice coordinate, labels 0..n-1."""
    n = _check_size(n)
    basis = np.eye(n, dtype=np.complex128)
    return build_operator(basis, 1.0, np.arange(n, dtype=float))


def momentum_operator(n: int) -> OperatorBundle:
    """The coordinate operator of the Fourier basis, labels 0..n-1."""
    n = _check_size(n)
    F = fourier_matrix(n)
    return build_operator(F.T, 1.0, np.arange(n, dtype=float))


def commutator_norm(n: int) -> float:
    """Frobenius norm of [X, P]; strictly positive for every n >= 2."""
    X = position_operator(n).matrix
    P = momentum_operator(n).matrix
    return float(np.linalg.norm(X @ P - P @ X))
