#!/usr/bin/env python3
"""Walkthrough: position and momentum on a finite cyclic lattice.

Shifts of position and of momentum both represent the cyclic group; the
momentum basis is the Fourier transform of the position basis, the two bases
are mutually unbiased, and the two coordinate operators refuse to commute.
The continuous line is only analogized here - nothing in this demo has a
continuous spectrum.
"""

import numpy as np

from symquant.groups import cyclic_group
from symquant.phasespace import (
    clock_rep,
    fourier_matrix,
    momentum_operator,
    mub_deviation,
    shift_rep,
)

n = 4
print(f"== lattice of {n} points ==")
g = cyclic_group(n)
S = shift_rep(g).matrix(1)
M = clock_rep(g).matrix(1)
print("position shift S:\n", S.real.astype(int))
print("momentum shift (clock) M diagonal:", np.round(np.diag(M), 6))
w = np.exp(2j * np.pi / n)
print("Weyl braiding  M S = w S M :",
      bool(np.allclose(M @ S, w * (S @ M))))

print("\n== mutual unbiasedness ==")
F = fourier_matrix(n)
print("|<x|p>|^2 (all entries should be 1/n):\n", np.round(np.abs(F) ** 2, 12))
for m in range(2, 9):
    print(f"  n={m}: max deviation from 1/n = {mub_deviation(fourier_matrix(m)):.3e}")

print("\n== coordinate operators ==")
x = np.arange(n, dtype=float)
X = np.diag(x)                      # position is the coordinate itself
P = momentum_operator(n)            # F X F^dag, the circulant of one FFT
print("position spectrum:", x)
print("momentum spectrum:", P.eigenvalues)
print("P = F X F^dag:", bool(np.allclose(P.matrix, F @ X @ F.conj().T)))
print("commutator norm ||[X, P]||_F:",
      np.linalg.norm(X @ P.matrix - P.matrix @ X))
print("(positive for every lattice size - the two variables cannot be")
print(" diagonalized together, even though each alone is maximal)")
