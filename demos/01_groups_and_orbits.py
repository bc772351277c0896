#!/usr/bin/env python3
"""Walkthrough: building finite groups, acting on spaces, and finding orbits.

Every group lives as an explicit Cayley table, so the group axioms and the
action axioms are checked exhaustively at construction time. We build a few
named groups, act on small spaces, and split the spaces into orbits.
"""

import numpy as np

from symquant import (
    GroupAction,
    is_transitive,
    make_named_group,
    orbits,
    subgroup_generated,
)
from symquant.groups import dihedral_vertex_action

print("== named groups ==")
for spec in ("cyclic:4", "dihedral:4", "symmetric:3", "binary_tetrahedral",
             "cyclic:2xcyclic:2"):
    g = make_named_group(spec)
    # abelian: every pair commutes, so the table equals its transpose
    abelian = np.array_equal(g.cayley, g.cayley.T)
    print(f"{spec:22s} order {g.order:3d}  abelian={abelian}")

print("\n== the dihedral group permuting square vertices ==")
d4 = make_named_group("dihedral:4")
act = dihedral_vertex_action(d4)
print("element (rotation, flip) -> vertex permutation")
for k in range(d4.order):
    print(f"  {str(d4.elements[k]):6s} -> {act.perm[k].tolist()}")
print("orbits:", orbits(act), " transitive:", is_transitive(act))

print("\n== orbits split when the action has fixed points ==")
c3 = make_named_group("cyclic:3")
fix_zero = GroupAction(group=c3,
                       perm=[[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
print("orbits:", orbits(fix_zero), " transitive:", is_transitive(fix_zero))

print("\n== subgroups from generators ==")
c4 = make_named_group("cyclic:4")
print("subgroup of cyclic:4 generated by {2}:", subgroup_generated(c4, [2]))
s = d4.elements.index((0, 1))
print("subgroup of dihedral:4 generated by the reflection:",
      subgroup_generated(d4, [s]))
