"""Variables as functions on a finite space carrying a group action.

A variable assigns each point of the space a value id drawn from a finite
label list. The module decides whether a variable respects the action
(equal values stay equal under every group element), builds the induced
transformation group on the value space (whose value permutations are the
maps of InducedAction.value_action), finds the largest subgroup under
which the variable behaves, and compares variables by the coarser/finer
partial order.

Each of these reads one value-map table off the first point of each
value (ConceptualVariable.first_points), which a variable computes once,
on first read, and keeps: the value map of one group element then costs
O(points). The value maps of one element, a subset or the whole group
have one reader, _element_maps, which yields them a block of elements at
a time (groups.element_blocks), so a yes/no verdict keeps no maps and
stops at the first failing block. An induced action holds its value action
and derives the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import (FiniteGroup, GroupAction, as_index_array, element_blocks,
                     element_indices)


class SizeMismatchError(ValueError):
    pass


class NotPermissibleError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        k, p1, p2 = witness
        super().__init__(
            f"variable is not permissible: element {k} separates points "
            f"{p1} and {p2} that share a value"
        )


@dataclass(frozen=True)
class ConceptualVariable:
    """A function from a finite space to a finite list of labels.

    values[point] is an index into value_labels, one per point of the
    space, so space_size is the length of values; every label must be
    attained (the label list is the exact range of the function), and the
    labels must be distinct and not NaN (a NaN equals no label, itself
    included). The ids are stored read-only as int16 up to 32,768 labels
    (int32 beyond), as the group module stores its index arrays.

    first_points[v] is the smallest point whose value is v, computed on
    first read and kept, as OperatorBundle keeps its spectrum.
    """

    values: np.ndarray
    value_labels: tuple

    def __post_init__(self):
        labels = tuple(self.value_labels)
        v = np.asarray(self.values)
        if v.ndim != 1:
            raise ValueError("values must assign one id per point")
        if not labels:
            raise ValueError("label list must be nonempty")
        if any(x != x for x in labels):
            raise ValueError("labels must not be NaN")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        v = as_index_array(v, len(labels), "value id out of range")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "value_labels", labels)
        if not np.bincount(v, minlength=len(labels)).all():
            raise ValueError("every label must be attained by some point")

    @property
    def space_size(self) -> int:
        return len(self.values)

    @cached_property
    def first_points(self) -> np.ndarray:
        # every label is attained, so the unique ids are 0..len(labels)-1, and
        # np.unique returns the index of the first occurrence of each
        first = np.unique(self.values, return_index=True)[1]
        first.setflags(write=False)
        return first


def variable_from_point_labels(point_labels) -> ConceptualVariable:
    """Build a variable from the raw label at each point.

    The labels are sorted ascending, so that value ids align with ascending
    eigenvalue order.
    """
    pts = list(point_labels)
    uniq = sorted(dict.fromkeys(pts))
    idx = {x: i for i, x in enumerate(uniq)}
    values = np.array([idx[x] for x in pts], dtype=np.intp)
    return ConceptualVariable(values=values, value_labels=tuple(uniq))


def _value_maps(var: ConceptualVariable, images):
    """Read one value table per row of images off the first point of each
    of var's values: maps[r][v] = images[r, var.first_points[v]]. ok[r]
    says whether the table reproduces the row, maps[r][var.values] ==
    images[r] at every point, that is, whether row r is constant on every
    level set of var.
    """
    maps = images.take(var.first_points, axis=1)
    ok = (maps.take(var.values, axis=1) == images).all(axis=1)
    return maps, ok


def _element_maps(var: ConceptualVariable, act: GroupAction, elements, size: int = 0):
    """(ks, maps, ok) per block of the element indices (one or a sequence,
    read once by groups.element_indices): ks is the block's 1-d index array
    and (maps, ok) the _value_maps of its rows. The blocks are the slices of
    element_blocks(count, count * max(points, size)), size being the
    entries per element of what the caller computes on a block, and are
    yielded one at a time, so a large set is read a block of rows at a
    time, as the law checks are; the sizes and indices are checked on the
    call. No elements give no blocks. It is the one reader of element value
    maps, so no |G| x points table is gathered, not even over the whole
    group."""
    if var.space_size != act.space_size:
        raise SizeMismatchError(
            f"variable on {var.space_size} points, action on {act.space_size}"
        )
    ks = element_indices(elements, act.group.order)
    blocks = element_blocks(ks.size, ks.size * max(var.space_size, size))
    # take gathers by the int16 maps faster than fancy indexing does
    return ((ks[b], *_value_maps(var, var.values.take(act.perm.take(ks[b], axis=0))))
            for b in blocks)


def _witness(var: ConceptualVariable, act: GroupAction, blocks):
    """The first violating triple of the _element_maps blocks, or None.

    (k, p1, p2): k is the first failing element, and (p1, p2) the smallest
    pair over the points p2 that k moves off the value of p1, the first
    point sharing p2's value. No block after k's is read.
    """
    for ks, m, ok in blocks:
        if not ok.all():
            i = int(np.argmin(ok))
            k = int(ks[i])
            bad = np.flatnonzero(m[i][var.values] != var.values[act.perm[k]])
            p1s = var.first_points[var.values[bad]]
            p1 = int(p1s.min())
            return k, p1, int(bad[np.argmax(p1s == p1)])
    return None


def is_permissible(var: ConceptualVariable, act: GroupAction):
    """Do equal values stay equal under every group element?

    Exhaustive over all elements and all points: element k passes when the
    value at k.p is a function of the value at p. Returns (True, None) or
    (False, (k, p1, p2)) with k the first failing element and (p1, p2) the
    smallest pair of points that share a value and that k separates, p1
    being the first point with that value. No value map is kept.
    """
    witness = _witness(var, act, _element_maps(var, act, range(act.group.order)))
    return witness is None, witness


@dataclass(frozen=True)
class InducedAction:
    """The transformation group induced on a variable's value space.

    value_action lets the original group act on value ids:
    value_action.perm[k] is the value permutation matching element k. The
    map k -> value_action.perm[k] is a homomorphism: k_to_image numbers its
    images, and it, image_group and kernel are derived on first read and kept.
    """

    value_action: GroupAction

    @cached_property
    def k_to_image(self) -> np.ndarray:
        index: dict[bytes, int] = {}    # distinct maps, numbered in order of first appearance
        k_to_image = np.array([index.setdefault(r.tobytes(), len(index))
                               for r in self.value_action.perm], dtype=np.intp)
        k_to_image.setflags(write=False)
        return k_to_image

    @cached_property
    def image_group(self) -> FiniteGroup:
        # the image of a*b depends only on the images of a and b, so one
        # representative per image element, its first, fills the whole m x m table
        g, k_to_image = self.value_action.group, self.k_to_image
        reps = np.unique(k_to_image, return_index=True)[1]
        gens = k_to_image[list(g.generators)].tolist()
        return FiniteGroup(k_to_image[g.cayley[np.ix_(reps, reps)]], name=f"induced({g.name})",
                           generators=tuple(dict.fromkeys(gens)))

    @cached_property
    def kernel(self) -> tuple[int, ...]:
        act = self.value_action    # the elements whose value map is the identity
        return tuple(np.flatnonzero((act.perm == np.arange(act.space_size)).all(1)).tolist())


def induce_group(var: ConceptualVariable, act: GroupAction) -> InducedAction:
    """Push the group action through a permissible variable onto its values.

    Checked: permissibility, then the action laws of value_action, by which
    k -> value_action.perm[k] is a homomorphism into the value permutations
    (the value map of s*k is that of s after that of k), and, on its first
    read, the group laws of the image group, each from the group's
    generators and their images.
    Not checked, because implied by the homomorphism: the image table is
    well defined, the images of the generators generate it,
    |G| = |kernel| * |image|, and the image group acts faithfully on the
    values by value_action's law read through k_to_image.
    """
    # each block's maps are written into the (order, values) table, in the
    # values' dtype, as the permissibility check reads them; no block is
    # kept, and the first failing block names the witness
    induced = np.empty((act.group.order, len(var.value_labels)), dtype=var.values.dtype)
    for ks, maps, ok in _element_maps(var, act, range(act.group.order)):
        if not ok.all():
            raise NotPermissibleError(_witness(var, act, [(ks, maps, ok)]))
        induced[ks] = maps
    induced.setflags(write=False)
    return InducedAction(value_action=GroupAction(group=act.group, perm=induced))


def is_permissible_under(var: ConceptualVariable, act: GroupAction, subset) -> bool:
    """Permissibility quantified over a subset of group elements only; it
    stops at the first block with a failing element."""
    return all(ok.all() for _, _, ok in _element_maps(var, act, tuple(subset)))


def maximal_permissible_subgroup(var: ConceptualVariable, act: GroupAction) -> tuple[int, ...]:
    """All elements that act on the variable through some value permutation.

    Not checked, because implied: these are the elements that map every
    level set of the variable into a level set, and a bijection of a finite
    space that does so permutes the level sets (each level set's preimage
    is a union of level sets of the same total size, so none is missed).
    They form the stabilizer of the partition into level sets, a subgroup.
    """
    blocks = _element_maps(var, act, range(act.group.order))
    return tuple(np.concatenate([ks[ok] for ks, _, ok in blocks]).tolist())


def accessibility_leq(alpha: ConceptualVariable, beta: ConceptualVariable):
    """Is alpha a function of beta (alpha coarser than or equal to beta)?

    Returns (True, f) with f a table from beta value ids to alpha value ids
    such that alpha = f(beta) pointwise, or (False, None).
    """
    if alpha.space_size != beta.space_size:
        raise SizeMismatchError(
            f"variables on {alpha.space_size} vs {beta.space_size} points"
        )
    maps, ok = _value_maps(beta, alpha.values[None, :])
    return (True, maps[0]) if ok[0] else (False, None)
