"""Finite cyclic phase space: the shift and clock representations of
cyclic:n, the Fourier (momentum) basis, mutual unbiasedness, and the
momentum operator. Position is the coordinate x itself, X = diag(x).

The shift is the left-regular representation of cyclic:n, whose Cayley
table is cayley[k, x] == (k + x) % n: the group translating its own n
points. The shift and clock are held in one form only, the monomial one:
a permutation and n int16 exponents of w per element (coherent.MonomialRep),
O(n^2) small integers in all, with exact laws, and P is the circulant of
one FFT, so the phase scenario reaches MAX_PHASE_N = 1024 points in about
0.2 s and 56 MiB (tracemalloc). A dense matrix of one element is
rep.matrix(k).

This is the n-point stand-in for translations of position and momentum on
the line; the genuinely continuous case (unbounded operators, continuous
spectra) is only analogized, never represented.
"""

from __future__ import annotations

import numpy as np

from .coherent import MonomialRep, left_regular_rep
from .groups import FiniteGroup, GroupAction
from .linalg import as_cmatrix
from .quantize import OperatorBundle, operator_from_matrix


# the largest lattice accepted: the phase scenario at MAX_PHASE_N (cyclic
# group of order 1024) takes about 0.2 s and peaks at about 56 MiB under
# tracemalloc with one BLAS thread (2-core x86-64 box), well inside a 1 GiB
# budget; it holds one n x n complex array (P, 16 MiB) and two n x n int16
# exponent tables (the shift's and the clock's, 2 MiB each), a check adds
# at most two n x n complex arrays (F, or the FFTs of P), and no n x n
# product or eigendecomposition is formed
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


def shift_rep(g: FiniteGroup) -> MonomialRep:
    """k -> shift by k, |x> -> |x + k mod n>, a faithful unitary
    representation of g = cyclic:n: its left-regular rep, whose maps are
    the rows of g's Cayley table."""
    _check_size(g.order)
    return left_regular_rep(g)


def clock_rep(g: FiniteGroup) -> MonomialRep:
    """k -> clock^k, |x> -> w^{kx} |x> with w = exp(2 pi i / n), the
    Fourier-conjugate representation of g = cyclic:n: the trivial
    permutation of every point, with the exponent (k x) mod n at x."""
    n = _check_size(g.order)
    # k x < 2**31 for every n up to MAX_PHASE_N; the rep reduces it mod n
    x = np.arange(n, dtype=np.int32)
    fixed = GroupAction(group=g, perm=np.broadcast_to(x, (n, n)))
    return MonomialRep(action=fixed, exponent=np.multiply.outer(x, x), modulus=n)


def mub_deviation(F) -> float:
    """Largest deviation of |<x|p>|^2 from 1/n over the position basis and
    the columns p of an n x n matrix F, such as fourier_matrix(n)."""
    F = as_cmatrix(F)
    return float(np.max(np.abs(np.abs(F) ** 2 - 1.0 / len(F))))


def momentum_operator(n: int) -> OperatorBundle:
    """The coordinate operator of the Fourier basis, labels 0..n-1: the
    circulant P[a, b] = c[(a - b) mod n] of c = ifft(0, ..., n-1)."""
    n = _check_size(n)
    c = np.fft.ifft(np.arange(n, dtype=float))
    a = np.arange(n)
    return operator_from_matrix(c[(a[:, None] - a) % n])

