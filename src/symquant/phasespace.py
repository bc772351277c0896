"""Finite cyclic phase space: the shift and clock representations of
cyclic:n, the Fourier (momentum) basis, mutual unbiasedness, and the
momentum operator. Position is the coordinate x itself, X = diag(x).

The shift is the left-regular representation of cyclic:n, whose Cayley
table is cayley[k, x] == (k + x) % n: the group translating its own n
points. The shift and clock are held in one form only, the monomial one:
a permutation and n int16 exponents of w per element (coherent.MonomialRep),
O(n^2) small integers in all, with exact laws, and P is the circulant of
one FFT. Every table and matrix here is built in the dtype and shape it is
kept in, in place or a block of rows at a time, and handed over read-only,
so that no n x n temporary passes through a constructor: the phase
scenario reaches MAX_PHASE_N = 1024 points in about 0.15 s and 39 MiB
(tracemalloc). A dense matrix of one element is rep.matrix(k).

This is the n-point stand-in for translations of position and momentum on
the line; the genuinely continuous case (unbounded operators, continuous
spectra) is only analogized, never represented.
"""

from __future__ import annotations

import numpy as np

from .coherent import MonomialRep, left_regular_rep
from .groups import FiniteGroup, GroupAction, element_blocks
from .linalg import as_cmatrix, max_abs
from .quantize import OperatorBundle, operator_from_matrix


# the largest lattice accepted: the phase scenario at MAX_PHASE_N (cyclic
# group of order 1024) takes about 0.15 s and peaks at about 39 MiB under
# tracemalloc with one BLAS thread (2-core x86-64 box), well inside a 1 GiB
# budget; it holds one n x n complex array (P, 16 MiB) and n x n int16
# tables (the group's, the clock's permutation and exponents, 2 MiB each),
# a check adds at most one n x n complex array (F, the commutator, or the
# FFTs of P) and the temporaries of one row block, and no n x n product
# or eigendecomposition is formed
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
    """Unitary DFT matrix, exp(2 pi i x p / n) / sqrt(n); column p is the
    momentum state |p>. It is filled in place a block of rows at a time,
    so no n x n temporary is formed."""
    n = _check_size(n)
    x = np.arange(n)
    F = np.empty((n, n), dtype=np.complex128)
    for b in element_blocks(n, F.size):
        rows = F[b]
        np.multiply(2j * np.pi, np.multiply.outer(x[b], x), out=rows)
        rows /= n
        np.exp(rows, out=rows)
        rows /= np.sqrt(n)
    return F


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
    # the exponents are reduced into int16 a block of rows at a time, the
    # form MonomialRep keeps, so it stores them without a copy; k x < 2**31
    # for every n up to MAX_PHASE_N
    x = np.arange(n, dtype=np.int32)
    exponent = np.empty((n, n), dtype=np.int16)
    for b in element_blocks(n, exponent.size):
        np.remainder(np.multiply.outer(x[b], x), n, out=exponent[b])
    exponent.setflags(write=False)
    fixed = GroupAction(group=g, perm=np.broadcast_to(x.astype(np.int16), (n, n)))
    return MonomialRep(action=fixed, exponent=exponent, modulus=n)


def mub_deviation(F) -> float:
    """Largest deviation of |<x|p>|^2 from 1/n over the position basis and
    the columns p of an n x n matrix F, such as fourier_matrix(n)."""
    F = as_cmatrix(F)
    # on blocks of rows, so that no n x n temporary is formed
    return max(max_abs(np.abs(F[b]) ** 2 - 1.0 / len(F))
               for b in element_blocks(len(F), F.size))


def momentum_operator(n: int) -> OperatorBundle:
    """The coordinate operator of the Fourier basis, labels 0..n-1: the
    circulant P[a, b] = c[(a - b) mod n] of c = ifft(0, ..., n-1).

    Row a is the window of n entries starting at n - 1 - a in c reversed
    and tiled twice, so P is one copy of a strided view of those windows,
    formed with no n x n index table and kept by the bundle without a
    second copy."""
    n = _check_size(n)
    c = np.fft.ifft(np.arange(n, dtype=float))
    tile = np.concatenate((c[::-1], c[::-1]))
    step = tile.itemsize
    # row a starts at tile[n - 1 - a]: one step back per row, forward per column
    P = np.ndarray((n, n), tile.dtype, tile, (n - 1) * step, (-step, step)).copy()
    del tile
    P.setflags(write=False)
    return operator_from_matrix(P)

