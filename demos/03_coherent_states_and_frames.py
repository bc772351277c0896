#!/usr/bin/env python3
"""Walkthrough: coherent-state orbits and resolutions of the identity.

Take an irreducible unitary representation, pick any nonzero fiducial vector,
and sweep it around the group orbit. The weighted sum of the resulting
projectors is forced to be a scalar multiple of the identity, so dividing by
that scalar resolves the identity operator.
"""

import numpy as np

from symquant import (
    frame_operator,
    is_irreducible,
    make_coherent,
    make_named_group,
    resolution_deviation,
)
from symquant.coherent import binary_tetrahedral_spin_rep, dihedral_rotation_rep
from symquant.groups import dihedral_vertex_action, left_translation_action

print("== eight planar rotations/reflections of the square ==")
d4 = make_named_group("dihedral:4")
rep = dihedral_rotation_rep(d4)
print("irreducible:", is_irreducible(rep))

cs = make_coherent(rep, dihedral_vertex_action(d4), 0, (1.0, 0.0))
frame = frame_operator(cs)
print("frame operator:\n", np.round(frame.T.real, 12))
print("scalar:", frame.lam, " (group order 8 / dimension 2 = 4)")
print("resolution deviation after dividing by the scalar:",
      resolution_deviation(cs.states, 1.0 / frame.lam))

print("\n== the same orbit in a rotated frame ==")
# a unitary W carries each state s to W s and keeps the weights
had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
moved = cs.states @ had.T
print("resolution deviation unchanged:",
      resolution_deviation(moved, 1.0 / frame.lam))

print("\n== 24 unit quaternions on a two-dimensional space ==")
bt = make_named_group("binary_tetrahedral")
rep24 = binary_tetrahedral_spin_rep(bt)
cs24 = make_coherent(rep24, left_translation_action(bt), bt.identity, (1.0, 0.0))
frame24 = frame_operator(cs24)
print("scalar:", frame24.lam, " (group order 24 / dimension 2 = 12)")
print("all", len(cs24.states), "orbit states have unit norm:",
      bool(np.allclose(np.linalg.norm(cs24.states, axis=1), 1.0)))
