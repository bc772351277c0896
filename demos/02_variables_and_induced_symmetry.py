#!/usr/bin/env python3
"""Walkthrough: variables on a group-acted space and their induced symmetry.

A variable is a function on the space. If equal values stay equal under every
group element, the group action pushes down to the value space; otherwise only
a subgroup survives, and the library finds the largest one.
"""

from symquant import (
    accessibility_leq,
    induce_group,
    is_permissible,
    left_translation_action,
    make_named_group,
    maximal_permissible_subgroup,
    variable_from_point_labels,
)

g = make_named_group("cyclic:4")
# cyclic:4 acting on its own four elements by left translation: element k
# shifts point x to (k + x) mod 4
act = left_translation_action(g)

print("space: four points shifted cyclically by the group\n")

parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
print("parity variable (point labels 0,1,0,1):")
ok, witness = is_permissible(parity, act)
print("  respects the action:", ok)

induced = induce_group(parity, act)
print("  induced value permutations per element:")
for k in range(g.order):
    print(f"    element {k}: value ids -> {induced.value_action.perm[k].tolist()}")
print("  kernel (elements acting trivially on values):", induced.kernel)
print("  image group order:", induced.image_group.order)

print("\nindicator variable (1 on the first two points):")
indicator = variable_from_point_labels([1.0, 1.0, 0.0, 0.0])
ok, witness = is_permissible(indicator, act)
print("  respects the action:", ok)
k, p1, p2 = witness
print(f"  witness: element {k} separates points {p1} and {p2}, which share a value")
H = maximal_permissible_subgroup(indicator, act)
print("  largest subgroup under which it does behave:", H)

print("\ncoarser/finer partial order:")
ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
ok, f = accessibility_leq(parity, ident)
print("  parity = f(identity-variable)?", ok, " f table:", f.tolist())
ok, _ = accessibility_leq(ident, parity)
print("  identity-variable = f(parity)?", ok)
