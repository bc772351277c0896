"""Variables as functions on a finite space carrying a group action.

A variable assigns each point of the space a value id drawn from a finite
label list. The module decides whether a variable respects the action
(equal values stay equal under every group element), builds the induced
transformation group on the value space, finds the largest subgroup under
which the variable behaves, and compares variables by the coarser/finer
partial order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup, GroupAction, check_homomorphism, subgroup_generated
from .groups import _perm_cycles


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

    values[point] is an index into value_labels; every label must be
    attained (the label list is the exact range of the function).
    """

    space_size: int
    values: np.ndarray
    value_labels: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.intp).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "value_labels", tuple(self.value_labels))
        if v.shape != (self.space_size,):
            raise ValueError("values must assign one id per point")
        n_labels = len(self.value_labels)
        if n_labels == 0:
            raise ValueError("label list must be nonempty")
        if v.size and (v.min() < 0 or v.max() >= n_labels):
            raise ValueError("value id out of range")
        if set(np.unique(v)) != set(range(n_labels)):
            raise ValueError("every label must be attained by some point")

    @property
    def n_values(self) -> int:
        return len(self.value_labels)

    def label_per_point(self) -> list:
        return [self.value_labels[i] for i in self.values]


def variable_from_point_labels(point_labels, *, sort=True) -> ConceptualVariable:
    """Build a variable from the raw label at each point.

    Numeric labels are sorted ascending by default so value ids align with
    ascending eigenvalue order; sort=False keeps first-appearance order.
    """
    pts = list(point_labels)
    uniq = []
    for x in pts:
        if x not in uniq:
            uniq.append(x)
    if sort:
        uniq = sorted(uniq)
    idx = {x: i for i, x in enumerate(uniq)}
    values = np.array([idx[x] for x in pts], dtype=np.intp)
    return ConceptualVariable(space_size=len(pts), values=values,
                              value_labels=tuple(uniq))


def variable_to_json(var: ConceptualVariable) -> str:
    """Serialize as a JSON object with value ids and the label array."""
    return json.dumps(
        {
            "space_size": var.space_size,
            "values": [int(i) for i in var.values],
            "value_labels": list(var.value_labels),
        },
        separators=(", ", ": "),
    )


def variable_from_json(text: str) -> ConceptualVariable:
    obj = json.loads(text)
    return ConceptualVariable(
        space_size=int(obj["space_size"]),
        values=np.array(obj["values"], dtype=np.intp),
        value_labels=tuple(obj["value_labels"]),
    )


def _check_sizes(var: ConceptualVariable, act: GroupAction) -> None:
    if var.space_size != act.space_size:
        raise SizeMismatchError(
            f"variable on {var.space_size} points, action on {act.space_size}"
        )


def _value_classes(var: ConceptualVariable) -> list[np.ndarray]:
    return [np.nonzero(var.values == v)[0] for v in range(var.n_values)]


def is_permissible(var: ConceptualVariable, act: GroupAction):
    """Do equal values stay equal under every group element?

    Exhaustive over all elements and all point pairs. Returns (True, None)
    or (False, (k, p1, p2)) with the first violating triple in (k, p1, p2)
    scanning order.
    """
    _check_sizes(var, act)
    classes = _value_classes(var)
    for k in range(act.group.order):
        moved = var.values[act.perm[k]]
        candidates = []
        for cls in classes:
            vals = moved[cls]
            bad = np.nonzero(vals != vals[0])[0]
            if bad.size:
                candidates.append((int(cls[0]), int(cls[bad[0]])))
        if candidates:
            p1, p2 = min(candidates)
            return False, (k, p1, p2)
    return True, None


def element_value_map(var: ConceptualVariable, act: GroupAction, h: int):
    """The single permutation of value ids induced by element h, if any.

    Returns an index array g with g[value at p] == value at h.p for every
    point p, or None when no single-valued assignment exists. A total
    single-valued g is automatically a bijection because h is invertible
    and every label is attained.
    """
    _check_sizes(var, act)
    moved = var.values[act.perm[h]]
    g = np.full(var.n_values, -1, dtype=np.intp)
    for p in range(var.space_size):
        v = var.values[p]
        if g[v] == -1:
            g[v] = moved[p]
        elif g[v] != moved[p]:
            return None
    if len(set(g.tolist())) != var.n_values:
        return None
    return g


@dataclass(frozen=True)
class InducedAction:
    """The transformation group induced on a variable's value space.

    induced_perm[k] is the value permutation matching element k; the map
    k -> induced_perm[k] is a verified homomorphism whose kernel and image
    are recorded. value_action lets the original group act on value ids;
    image_action is the faithful action of the quotient image group.
    """

    base: GroupAction
    variable: ConceptualVariable
    induced_perm: np.ndarray
    kernel: tuple[int, ...]
    image_group: FiniteGroup
    k_to_image: np.ndarray
    value_action: GroupAction
    image_action: GroupAction


def induce_group(var: ConceptualVariable, act: GroupAction) -> InducedAction:
    """Push the group action through a permissible variable onto its values."""
    ok, witness = is_permissible(var, act)
    if not ok:
        raise NotPermissibleError(witness)
    order, nv = act.group.order, var.n_values
    rep_point = np.array([np.nonzero(var.values == v)[0][0] for v in range(nv)])
    moved = var.values[act.perm]        # (order, space): value at k.p
    induced = moved[:, rep_point]       # (order, nv)
    if not np.array_equal(induced[:, var.values], moved):
        raise AssertionError("induced map failed the defining identity")

    rows = [tuple(r) for r in induced.tolist()]
    distinct: list[tuple[int, ...]] = []
    row_index: dict[tuple[int, ...], int] = {}
    for r in rows:
        if r not in row_index:
            row_index[r] = len(distinct)
            distinct.append(r)
    k_to_image = np.array([row_index[r] for r in rows], dtype=np.intp)

    m = len(distinct)
    # check_homomorphism below rejects a table that is not well defined
    img_cayley = np.empty((m, m), dtype=np.intp)
    img_cayley[k_to_image[:, None], k_to_image[None, :]] = k_to_image[act.group.cayley]
    identity_img = int(k_to_image[act.group.identity])
    img_inverses = np.argmax(img_cayley == identity_img, axis=1)
    image_group = FiniteGroup(
        order=m, cayley=img_cayley, identity=identity_img, inverses=img_inverses,
        name=f"induced({act.group.name})",
        element_names=tuple(_perm_cycles(r) for r in distinct),
    )
    ok, bad = check_homomorphism(k_to_image, act.group, image_group)
    if not ok:
        raise AssertionError(f"induced map is not a homomorphism at pair {bad}")

    kernel = tuple(np.flatnonzero((induced == np.arange(nv)).all(axis=1)).tolist())
    if order % len(kernel) or order // len(kernel) != m:
        raise AssertionError("kernel size inconsistent with image order")

    value_action = GroupAction(group=act.group, space_size=nv, perm=induced)
    image_action = GroupAction(
        group=image_group, space_size=nv,
        perm=np.array(distinct, dtype=np.intp),
    )
    return InducedAction(
        base=act, variable=var, induced_perm=value_action.perm, kernel=kernel,
        image_group=image_group, k_to_image=k_to_image,
        value_action=value_action, image_action=image_action,
    )


def is_permissible_under(var: ConceptualVariable, act: GroupAction, subset) -> bool:
    """Permissibility quantified over a subset of group elements only."""
    _check_sizes(var, act)
    classes = _value_classes(var)
    for k in subset:
        moved = var.values[act.perm[int(k)]]
        for cls in classes:
            vals = moved[cls]
            if np.any(vals != vals[0]):
                return False
    return True


def maximal_permissible_subgroup(var: ConceptualVariable, act: GroupAction) -> tuple[int, ...]:
    """All elements that act on the variable through some value permutation.

    The element-wise set must come out closed under the Cayley table; a
    closure failure would be an internal inconsistency and raises loudly.
    """
    _check_sizes(var, act)
    members = tuple(
        h for h in range(act.group.order)
        if element_value_map(var, act, h) is not None
    )
    closure = subgroup_generated(act.group, members)
    if set(closure) != set(members):
        raise RuntimeError(
            "element-wise permissible set is not closed under the group table; "
            "this indicates an implementation bug"
        )
    if not is_permissible_under(var, act, members):
        raise RuntimeError("returned subgroup fails the restricted check")
    return members


def accessibility_leq(alpha: ConceptualVariable, beta: ConceptualVariable):
    """Is alpha a function of beta (alpha coarser than or equal to beta)?

    Returns (True, f) with f a table from beta value ids to alpha value ids
    such that alpha = f(beta) pointwise, or (False, None).
    """
    if alpha.space_size != beta.space_size:
        raise SizeMismatchError(
            f"variables on {alpha.space_size} vs {beta.space_size} points"
        )
    f = np.full(beta.n_values, -1, dtype=np.intp)
    for p in range(beta.space_size):
        b, a = beta.values[p], alpha.values[p]
        if f[b] == -1:
            f[b] = a
        elif f[b] != a:
            return False, None
    return True, f
