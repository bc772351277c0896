"""Finite groups as explicit Cayley tables, their actions on finite spaces,
orbits, subgroups, homomorphism checking, and invariant measures.

Element ordering convention: named groups are generated breadth-first from
their canonical generators, identity first, then the generators in listed
order, then products level by level. The ordering is deterministic, so
Cayley tables are reproducible byte for byte. Direct products follow the
same rule using the paired generators of the factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_GROUP_ORDER = 10000


class UnknownGroupNameError(ValueError):
    pass


class OrderTooLargeError(ValueError):
    pass


class MassCountMismatchError(ValueError):
    pass


class BadElementError(ValueError):
    pass


def _as_index_array(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.intp).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table on element indices.

    cayley[a, b] is the index of the product a*b. Validation checks the
    Latin-square property and the identity and inverse laws on every
    element. It then checks that the recorded generators reach every
    element by left multiplication (breadth first from the identity) and
    runs Light's associativity test, (x*s)*y == x*(s*y) for every
    generator s and all x, y. The elements s that pass the test are closed
    under products, so the test proves associativity for all triples. An
    empty generator tuple makes every element a generator: the test is
    then the exhaustive one, at O(n^3) cost.

    depth is the breadth-first depth: the longest shortest word in the
    generators (at least 1). Constructors that check a law on generators
    only scale their tolerance by it.
    """

    order: int
    cayley: np.ndarray
    identity: int
    inverses: np.ndarray
    name: str = "group"
    element_names: tuple[str, ...] | None = None
    generators: tuple[int, ...] = ()
    elements: tuple | None = None
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cayley", _as_index_array(self.cayley))
        object.__setattr__(self, "inverses", _as_index_array(self.inverses))
        n = self.order
        if n <= 0:
            raise ValueError("group order must be positive")
        if self.cayley.shape != (n, n):
            raise ValueError(f"cayley table must be {n}x{n}")
        if self.cayley.min() < 0 or self.cayley.max() >= n:
            raise ValueError("cayley entries out of range")
        full = np.arange(n)
        if not all(np.array_equal(np.sort(row), full) for row in self.cayley):
            raise ValueError("cayley table rows are not permutations (not a Latin square)")
        if not all(np.array_equal(np.sort(col), full) for col in self.cayley.T):
            raise ValueError("cayley table columns are not permutations (not a Latin square)")
        e = self.identity
        if not (0 <= e < n):
            raise ValueError("identity index out of range")
        if not (np.array_equal(self.cayley[e], full) and np.array_equal(self.cayley[:, e], full)):
            raise ValueError("identity laws fail")
        if self.inverses.shape != (n,):
            raise ValueError("inverses must list one element per element")
        if not np.all(self.cayley[full, self.inverses] == e):
            raise ValueError("inverse law fails")
        if not np.all(self.cayley[self.inverses, full] == e):
            raise ValueError("left inverse law fails")
        if self.element_names is not None and len(self.element_names) != n:
            raise ValueError("element_names length mismatch")
        for g in self.generators:
            if not (0 <= g < n):
                raise ValueError("generator index out of range")
        object.__setattr__(self, "depth", self._generation_depth())
        t = self.cayley
        for s in self.generating_set:
            if not np.array_equal(t[t[:, s], :], t[:, t[s, :]]):
                raise ValueError(f"associativity fails at generator {s}")

    def _generation_depth(self) -> int:
        """Breadth-first search from the identity, left-multiplying by the
        generating set; raises unless every element is reached."""
        gens = np.asarray(self.generating_set, dtype=np.intp)
        seen = np.zeros(self.order, dtype=bool)
        slot = np.empty(self.order, dtype=np.intp)
        frontier = np.array([self.identity], dtype=np.intp)
        seen[frontier] = True
        depth = 0
        while True:
            reached = self.cayley[np.ix_(gens, frontier)].ravel()
            reached = reached[~seen[reached]]
            if reached.size == 0:
                break
            # one copy of each element: exactly one position wins slot[x]
            # (np.unique would do, but costs ~10 ms on its first call)
            pos = np.arange(reached.size)
            slot[reached] = pos
            frontier = reached[slot[reached] == pos]
            seen[frontier] = True
            depth += 1
        if not seen.all():
            raise ValueError(
                f"generators {list(self.generators)} reach {int(seen.sum())} "
                f"of {self.order} elements"
            )
        return max(depth, 1)

    @property
    def generating_set(self) -> tuple[int, ...]:
        """The recorded generators, or every element when none are recorded."""
        return self.generators or tuple(range(self.order))

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))


@dataclass(frozen=True)
class GroupAction:
    """A left action of a finite group on {0..space_size-1}.

    perm[k] is the permutation applied by element k. Every row must be a
    bijection and the identity must act trivially. The composition law
    perm[s*k] = perm[s] o perm[k] is checked for every generator s of the
    group and every element k. The elements s that satisfy it are closed
    under products, so the law holds for all pairs; permutations are
    integers, so the check is exact.
    """

    group: FiniteGroup
    space_size: int
    perm: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "perm", _as_index_array(self.perm))
        n, m = self.group.order, self.space_size
        if m <= 0:
            raise ValueError("space_size must be positive")
        if self.perm.shape != (n, m):
            raise ValueError(f"perm must be {n}x{m}")
        full = np.arange(m)
        if not all(np.array_equal(np.sort(row), full) for row in self.perm):
            raise ValueError("each group element must act by a bijection")
        if not np.array_equal(self.perm[self.group.identity], full):
            raise ValueError("identity must act trivially")
        t = self.group.cayley
        for s in self.group.generating_set:
            lhs = self.perm[t[s]]           # (n, m)
            rhs = self.perm[s][self.perm]   # (n, m)
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"action composition law fails at generator {s}")

    def apply(self, k: int, point: int) -> int:
        return int(self.perm[k, point])


@dataclass(frozen=True)
class InvariantMeasure:
    """Nonnegative weights on a space, constant on each orbit of an action."""

    weights: np.ndarray
    per_orbit_normalization: tuple[float, ...]
    orbit_blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        for block in self.orbit_blocks:
            vals = w[list(block)]
            if np.any(vals != vals[0]):
                raise ValueError("weights must be constant on each orbit")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


# ---------------------------------------------------------------------------
# group generation


def generate_group(generators, mul, identity, *, name="group", name_of=None,
                   max_order=MAX_GROUP_ORDER):
    """Breadth-first closure of generators under mul, returning a FiniteGroup.

    Elements must be hashable. The element list starts with the identity,
    then the generators in order, then products level by level.
    """
    elements = [identity]
    index = {identity: 0}
    gens = []
    for g in generators:
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
            gens.append(g)
    frontier = list(elements)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in index:
                    if len(elements) >= max_order:
                        raise OrderTooLargeError(
                            f"group exceeds maximum order {max_order}"
                        )
                    index[y] = len(elements)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    n = len(elements)
    cayley = np.empty((n, n), dtype=np.intp)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            cayley[i, j] = index[mul(a, b)]
    inverses = np.empty(n, dtype=np.intp)
    for i in range(n):
        inverses[i] = int(np.nonzero(cayley[i] == 0)[0][0])
    names = tuple(name_of(x) for x in elements) if name_of else None
    gen_idx = tuple(index[g] for g in gens)
    return FiniteGroup(
        order=n, cayley=cayley, identity=0, inverses=inverses, name=name,
        element_names=names, generators=gen_idx, elements=tuple(elements),
    )


def _perm_cycles(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s] or p[s] == s:
            seen[s] = True
            continue
        cyc = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "e"


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownGroupNameError("cyclic order must be >= 1")
    if n > MAX_GROUP_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds {MAX_GROUP_ORDER}")
    gens = [1] if n > 1 else []
    return generate_group(
        gens, lambda a, b: (a + b) % n, 0, name=f"cyclic:{n}",
        name_of=lambda k: "e" if k == 0 else f"r{k}" if k > 1 else "r",
    )


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon as pairs (rotation, flip)."""
    if n < 1:
        raise UnknownGroupNameError("dihedral order parameter must be >= 1")
    if 2 * n > MAX_GROUP_ORDER:
        raise OrderTooLargeError(f"order {2*n} exceeds {MAX_GROUP_ORDER}")

    def mul(x, y):
        i1, b1 = x
        i2, b2 = y
        return ((i1 + (i2 if b1 == 0 else -i2)) % n, b1 ^ b2)

    def nm(x):
        i, b = x
        r = "" if i == 0 else ("r" if i == 1 else f"r{i}")
        s = "s" if b else ""
        return (r + s) or "e"

    return generate_group([(1, 0), (0, 1)], mul, (0, 0),
                          name=f"dihedral:{n}", name_of=nm)


def symmetric_group(n: int) -> FiniteGroup:
    """All permutations of n points, as image tuples."""
    if n < 1:
        raise UnknownGroupNameError("symmetric order parameter must be >= 1")
    order = 1
    for k in range(2, n + 1):
        order *= k
    if order > MAX_GROUP_ORDER:
        raise OrderTooLargeError(f"order {order} exceeds {MAX_GROUP_ORDER}")
    identity = tuple(range(n))
    gens = []
    if n >= 2:
        t = list(identity)
        t[0], t[1] = t[1], t[0]
        gens.append(tuple(t))
        if n >= 3:
            gens.append(tuple((i + 1) % n for i in range(n)))

    def mul(p, q):  # (p o q)(x) = p(q(x))
        return tuple(p[q[i]] for i in range(n))

    return generate_group(gens, mul, identity,
                          name=f"symmetric:{n}", name_of=_perm_cycles)


def _quat_mul(x, y):
    # Hamilton product on doubled integer coordinates (a,b,c,d) ~ q = x/2
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    prod = (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )
    assert all(v % 2 == 0 for v in prod), "product left the Hurwitz units"
    return tuple(v // 2 for v in prod)


def _quat_name(x):
    a, b, c, d = x
    if sorted(map(abs, x)) == [0, 0, 0, 2]:
        for coord, sym in zip(x, ("1", "i", "j", "k")):
            if coord:
                return sym if coord > 0 else "-" + sym
    parts = []
    for coord, sym in zip(x, ("1", "i", "j", "k")):
        parts.append(("+" if coord > 0 else "-") + sym)
    return "(" + "".join(parts).lstrip("+") + ")/2"


def binary_tetrahedral_group() -> FiniteGroup:
    """The 24 unit Hurwitz quaternions, generated from i and (1+i+j+k)/2.

    Elements are stored as doubled integer quaternion coordinates so the
    Cayley table is exact.
    """
    one = (2, 0, 0, 0)
    qi = (0, 2, 0, 0)
    omega = (1, 1, 1, 1)
    return generate_group([qi, omega], _quat_mul, one,
                          name="binary_tetrahedral", name_of=_quat_name)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product, generated breadth-first from the paired generators."""
    if g1.order * g2.order > MAX_GROUP_ORDER:
        raise OrderTooLargeError(
            f"order {g1.order * g2.order} exceeds {MAX_GROUP_ORDER}"
        )
    t1, t2 = g1.cayley, g2.cayley

    def mul(x, y):
        return (int(t1[x[0], y[0]]), int(t2[x[1], y[1]]))

    e = (g1.identity, g2.identity)
    gens = ([(a, g2.identity) for a in g1.generating_set]
            + [(g1.identity, b) for b in g2.generating_set])

    def nm(x):
        n1 = g1.element_names[x[0]] if g1.element_names else str(x[0])
        n2 = g2.element_names[x[1]] if g2.element_names else str(x[1])
        return f"({n1},{n2})"

    return generate_group(gens, mul, e, name=f"{g1.name}x{g2.name}", name_of=nm)


def make_named_group(name: str) -> FiniteGroup:
    """Build a group from a name string.

    Grammar: ``cyclic:<n>``, ``dihedral:<n>``, ``symmetric:<n>``,
    ``binary_tetrahedral``, and ``<name>x<name>`` for direct products.
    """
    if not isinstance(name, str) or not name:
        raise UnknownGroupNameError(f"bad group name: {name!r}")
    parts = name.split("x")
    if len(parts) > 1:
        groups = [make_named_group(p) for p in parts]
        out = groups[0]
        for g in groups[1:]:
            out = direct_product(out, g)
        return out
    if name == "binary_tetrahedral":
        return binary_tetrahedral_group()
    head, sep, tail = name.partition(":")
    if not sep:
        raise UnknownGroupNameError(f"unknown group name: {name!r}")
    try:
        n = int(tail)
    except ValueError:
        raise UnknownGroupNameError(f"bad order in group name: {name!r}") from None
    if head == "cyclic":
        return cyclic_group(n)
    if head == "dihedral":
        return dihedral_group(n)
    if head == "symmetric":
        return symmetric_group(n)
    raise UnknownGroupNameError(f"unknown group name: {name!r}")


# ---------------------------------------------------------------------------
# actions, orbits, measures


def left_translation_action(g: FiniteGroup) -> GroupAction:
    """The group acting on itself by left multiplication (always transitive)."""
    return GroupAction(group=g, space_size=g.order, perm=g.cayley.copy())


def cyclic_shift_action(g: FiniteGroup, space_size: int | None = None) -> GroupAction:
    """A cyclic group shifting {0..n-1} by +k. Requires the cyclic ordering."""
    n = g.order
    m = n if space_size is None else space_size
    if m != n:
        raise ValueError("shift action needs space_size == group order")
    perm = np.array([[(x + k) % n for x in range(n)] for k in range(n)])
    return GroupAction(group=g, space_size=n, perm=perm)


def dihedral_vertex_action(g: FiniteGroup) -> GroupAction:
    """A dihedral group permuting the n vertices of the polygon."""
    if g.elements is None or not g.name.startswith("dihedral:"):
        raise ValueError("expected a group built by make_named_group('dihedral:n')")
    n = g.order // 2
    perm = np.empty((g.order, n), dtype=np.intp)
    for idx, (i, b) in enumerate(g.elements):
        for x in range(n):
            perm[idx, x] = (i + (x if b == 0 else -x)) % n
    return GroupAction(group=g, space_size=n, perm=perm)


def natural_permutation_action(g: FiniteGroup) -> GroupAction:
    """A symmetric group acting on its points via the stored image tuples."""
    if g.elements is None:
        raise ValueError("group does not carry element data")
    m = len(g.elements[0])
    perm = np.array(g.elements, dtype=np.intp).reshape(g.order, m)
    return GroupAction(group=g, space_size=m, perm=perm)


def orbit_partition(perms) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by the rows of an (r, m) permutation
    array, as blocks sorted by smallest point; r = 0 gives singletons.

    Every point starts labelled by itself. Each round, a point takes the
    smallest label among itself and its images and preimages under each
    row, the point its label names takes that value too, and pointer
    jumping (label <- label[label]) runs to a fixed point. On one long
    cycle the rounds grow like log m, not like its length. Labels only
    decrease and always name a point of the same orbit. Once every row
    maps the labelling to itself, labels are constant on orbits; with
    label[label] == label after the jumping, each point then carries the
    smallest point of its orbit.
    """
    perms = np.asarray(perms, dtype=np.intp)
    r, m = perms.shape
    inverse = np.empty_like(perms)
    inverse[np.arange(r)[:, None], perms] = np.arange(m)
    label = np.arange(m)
    while True:
        low = np.minimum(label, label[perms].min(axis=0, initial=m))
        np.minimum(low, label[inverse].min(axis=0, initial=m), out=low)
        np.minimum.at(low, label, low)
        while True:
            jumped = low[low]
            if (jumped == low).all():
                break
            low = jumped
        label = low
        if (label[perms] == label).all():
            break
    # points in ascending order: blocks appear by smallest point, sorted
    blocks: dict[int, list[int]] = {}
    for x, root in enumerate(label.tolist()):
        blocks.setdefault(root, []).append(x)
    return tuple(map(tuple, blocks.values()))


def orbits(act: GroupAction) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the space, blocks sorted by smallest point.

    The output depends only on the set of permutations, so it is invariant
    under any reordering of the group elements.
    """
    return orbit_partition(act.perm)


def is_transitive(act: GroupAction) -> bool:
    return len(orbits(act)) == 1


def haar_measure(g: FiniteGroup) -> np.ndarray:
    """Counting measure on the group: weight 1 per element.

    For a finite group this is both the left- and the right-invariant Haar
    measure, so the two constructions coincide.
    """
    w = np.ones(g.order)
    w.setflags(write=False)
    return w


def invariant_measure(act: GroupAction, per_orbit_mass) -> InvariantMeasure:
    """Invariant measure with a prescribed total mass on each orbit.

    Each point of an orbit receives mass / orbit size, so invariance holds
    exactly (the weight depends only on the orbit id).
    """
    blocks = orbits(act)
    masses = [float(m) for m in per_orbit_mass]
    if len(masses) != len(blocks):
        raise MassCountMismatchError(
            f"{len(masses)} masses for {len(blocks)} orbits"
        )
    if any(m <= 0 for m in masses):
        raise ValueError("orbit masses must be positive")
    weights = np.empty(act.space_size)
    for mass, block in zip(masses, blocks):
        weights[list(block)] = mass / len(block)
    return InvariantMeasure(weights=weights, per_orbit_normalization=tuple(masses),
                            orbit_blocks=blocks)


def counting_measure(act: GroupAction) -> InvariantMeasure:
    """Weight 1 on every point (orbit mass equal to orbit size)."""
    blocks = orbits(act)
    return invariant_measure(act, [len(b) for b in blocks])


# ---------------------------------------------------------------------------
# subgroups and homomorphisms


def subgroup_generated(g: FiniteGroup, gens) -> tuple[int, ...]:
    """Smallest subset containing the identity and gens, closed under the table."""
    gens = list(gens)
    for x in gens:
        if not (0 <= int(x) < g.order):
            raise BadElementError(f"element index {x} out of range")
    seeds = sorted({g.identity} | {int(x) for x in gens})
    # the subgroup is the orbit of the identity under x -> x*s, s in seeds
    return next(b for b in orbit_partition(g.cayley[:, seeds].T)
                if g.identity in b)


def check_homomorphism(f, src: FiniteGroup, dst: FiniteGroup):
    """Exhaustively test f(a*b) == f(a)*f(b) over all pairs.

    f is an index map (sequence of dst indices, one per src element).
    Returns (True, None) or (False, (a, b)) with the first violating pair.
    """
    f = np.asarray(f, dtype=np.intp)
    if f.shape != (src.order,):
        raise ValueError("map must assign one image per source element")
    if f.min() < 0 or f.max() >= dst.order:
        raise BadElementError("map image out of range")
    lhs = f[src.cayley]
    rhs = dst.cayley[f[:, None], f[None, :]]
    if np.array_equal(lhs, rhs):
        return True, None
    bad = np.argwhere(lhs != rhs)
    a, b = map(int, bad[0])
    return False, (a, b)
