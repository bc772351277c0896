#!/usr/bin/env python3
"""Walkthrough: from a labelled resolution of the identity to operators,
their coarse graining, and the questions a state answers.

A state family that resolves the identity, together with a real label per
state, defines a Hermitian operator. Relabelling a basis through a
many-to-one function merges eigenvalues: the coarse operator is no longer
maximal.
"""

import numpy as np

from symquant import (
    build_operator,
    coarse_grain,
    maximality_check,
    question_answer_match,
)

basis = np.eye(2, dtype=complex)

print("== operator from labelled basis states ==")
comp = build_operator(basis, 1.0, [0.5, -0.5])
print("matrix:\n", comp.matrix.real)
print("eigenvalues:", comp.eigenvalues, " maximal:", maximality_check(comp))

print("\n== coarse graining a three-level system ==")
basis3 = np.eye(3, dtype=complex)
blocks, bundle = coarse_grain(basis3, [1.0, 0.0, -1.0], lambda u: u * u)
print("blocks (preimages of each coarse label):", blocks)
print("coarse operator:", np.diag(bundle.matrix.real))
print("maximal after the non-injective relabelling:", maximality_check(bundle))

print("\n== which question does a state answer? ==")
z = np.eye(2, dtype=complex)
x = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
bases = {"z": z, "x": x}
for v, label in [
    (np.array([1.0, 0.0]), "z+"),
    (np.array([1.0, 1.0]) / np.sqrt(2), "x+"),
    (np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)]), "tilted"),
]:
    print(f"  state {label:7s} matches {question_answer_match(v, bases)}")
