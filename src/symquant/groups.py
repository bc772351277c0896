"""Finite groups as explicit Cayley tables, their actions on finite spaces,
orbits, subgroups and homomorphism checking.

Element ordering convention: named groups are generated breadth-first from
their canonical generators, identity first, then the generators in listed
order, then products level by level. The ordering is deterministic, so
Cayley tables are reproducible byte for byte. Direct products follow the
same rule using the paired generators of the factors.

Every size, identity and inverse is read off the arrays that fix it: a
group's order, identity and inverses off its Cayley table, an action's
space size off its permutation array. No constructor takes them beside
the array.

Cyclic, dihedral and direct-product groups are built by _index_group
from a law on the integer codes of their elements (k, 2i + b and
a*|G2| + b): one law call gives each code times each generator, and
_breadth_first over that table visits the codes exactly as
generate_group's closure visits the coordinates, so the tables, elements
and generators are the same byte for byte. The other named groups
(symmetric, binary tetrahedral) are built by generate_group from integer
coordinates and a mul on whole arrays of them, one call per level of its
closure. Both fill the table by _cayley_table, one law call per row block
of element_blocks and no Python call per pair: every pair is multiplied,
and a product that is not an element is refused, naming the pair.
FiniteGroup's reach-and-depth check is the same _breadth_first.

Index arrays are compact. A Cayley table, an action's maps and a
variable's value ids (variables.ConceptualVariable) are stored read-only
in the smallest of int16, int32 and int64 that holds every index they may
take: int16 up to 32,768 elements, points or labels, so for every group
of at most MAX_GROUP_ORDER elements. The range is checked before the
entries are narrowed, so an out-of-range entry is refused, never wrapped.
A table handed over read-only, in its stored dtype and owning its memory,
is kept without a copy (read_only), so the library's own actions build
their tables that way, in place or a block of rows at a time, with no
intp temporary.
Arithmetic on these arrays stays in their dtype and can overflow: cast to
np.intp first (t.astype(np.intp)) to compute with them.

Every "for all pairs" law (Light's associativity test, the action law,
both representation product laws, check_homomorphism) is checked by one
routine, generator_law, on the generators s and all elements k in blocks
of rows (element_blocks): the s that satisfy it are closed under products
and reach every element. The action law on the group's own table
(left_translation_action) is associativity, and is not checked again.
The other reads over all elements run on the same blocks: a variable's
value maps (variables._element_maps, which yields them block by block,
so a permissibility verdict keeps none) and a monomial rep's characters
and orbits. Caller-supplied element indices are read by element_indices.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

MAX_GROUP_ORDER = 10000


class UnknownGroupNameError(ValueError):
    pass


class OrderTooLargeError(ValueError):
    pass


class BadElementError(ValueError):
    pass


class GeneratorLawError(ValueError):
    """A law over all elements fails at the generator named by .generator."""

    def __init__(self, message: str, generator: int):
        super().__init__(message)
        self.generator = generator


def _index_dtype(bound: int) -> type:
    """The smallest of int16, int32 and int64 that holds 0..bound-1."""
    if bound <= 1 << 15:
        return np.int16
    return np.int32 if bound <= 1 << 31 else np.int64


def read_only(arr: np.ndarray, dtype=None) -> np.ndarray:
    """arr as a constructor stores it, read-only in dtype (arr's own by
    default): arr itself when it already is a read-only array of that dtype
    owning its memory, which no caller can write to, else a read-only
    C-ordered copy.

    This is the one ownership rule of the library's stored arrays: a
    constructor that builds its array in the dtype and shape it keeps, and
    hands it over read-only (arr.setflags(write=False)), pays for no second
    copy. as_index_array, OperatorBundle, UnitaryRep and MonomialRep keep
    their arrays by it.
    """
    dt = arr.dtype if dtype is None else dtype
    if arr.dtype != dt or arr.flags.writeable or arr.base is not None:
        arr = arr.astype(dt, order="C")
        arr.setflags(write=False)
    return arr


def as_index_array(a, bound: int, message: str) -> np.ndarray:
    """A read-only array of indices in 0..bound-1, in _index_dtype(bound),
    kept by read_only's rule.

    The range is checked on the input's own integer dtype before it is
    narrowed, so that an entry of 2**16 + k raises ValueError(message)
    rather than wrap to k. A non-integer input is first cast to intp, as
    np.asarray(a, dtype=np.intp) would. The result is a copy, unless the
    input already is a read-only array of that dtype owning its memory: a
    group's table passed as the maps of left_translation_action is shared,
    and an action's maps built in that dtype are kept, not copied.
    """
    arr = np.asarray(a)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.intp)
    if arr.size and (arr.min() < 0 or int(arr.max()) >= bound):
        raise ValueError(message)
    return read_only(arr, _index_dtype(bound))


def element_blocks(n: int, size: int) -> list[slice]:
    """Slices of the n elements, each holding about 2**14 of an array's
    size entries: the row blocks on which every law over all elements is
    checked, so that its temporaries stay in cache and far below the
    array's own size; no elements give no slices."""
    step = -(-n // (1 + size // (1 << 14))) or 1
    return [slice(k, k + step) for k in range(0, n, step)]


def generator_law(g: FiniteGroup, size: int, error, law: str,
                  tol: float = 0.0) -> None:
    """Check that every entry of error(s, b), the errors of the elements k
    in b, is at most tol, over the generators s of g and the slices b of
    element_blocks(g.order, size), size being the entries of the array the
    law reads; an exact law's error is a boolean mismatch. At the first s
    whose largest error is over tol, raises
    GeneratorLawError(f"{law} fails at generator {s}"), with the error
    appended when tol > 0."""
    blocks = element_blocks(g.order, size)
    for s in g.generating_set:
        err = max(float(np.max(error(s, b))) for b in blocks)
        if err > tol:
            message = f"{law} fails at generator {s}"
            raise GeneratorLawError(
                message + f" (error {err:.3e})" if tol else message, s)


def element_indices(elements, order: int) -> np.ndarray:
    """Caller-supplied element indices, one or a sequence, as a 1-d intp
    array: each must be an integer in range(order) (2.0 reads as 2), and
    anything else (1.5, -1, 2**64) raises BadElementError. An integer
    scalar in range(order) is read at once, and so is a range object whose
    first and last entries are, since its other entries lie between them;
    integer input with every entry in range is cast directly, and the
    rest, refused or not, is compared as read."""
    if isinstance(elements, (int, np.integer)) and 0 <= elements < order:
        return np.array([elements], dtype=np.intp)
    if isinstance(elements, range) and (not elements or (
            elements[0] in range(order) and elements[-1] in range(order))):
        return np.arange(elements.start, elements.stop, elements.step, dtype=np.intp)
    raw = np.asarray(elements).reshape(-1)
    if raw.dtype.kind in "iu" and raw.size and raw.min() >= 0 and raw.max() < order:
        return raw.astype(np.intp)
    inside = np.asarray((raw >= 0) & (raw < order), dtype=bool)
    ks = np.where(inside, raw, 0).astype(np.intp)
    bad = ~inside | (ks != raw)
    if bad.any():
        raise BadElementError(f"element index {raw[bad][0]} out of range: "
                              f"not an integer in range({order})")
    return ks


def _breadth_first(succ: list[list[int]], roots: list[int]) -> tuple[list[int], int]:
    """The nodes reached from the distinct roots over the successor lists
    succ, in breadth-first order (the roots, then level by level each
    node's successors in listed order), and the number of levels after
    the roots'."""
    seen = bytearray(len(succ))
    for x in roots:
        seen[x] = 1
    order, start, depth = list(roots), 0, 0
    while True:
        end = len(order)
        for x in order[start:end]:
            for y in succ[x]:
                if not seen[y]:
                    seen[y] = 1
                    order.append(y)
        if len(order) == end:
            return order, depth
        start, depth = end, depth + 1


def rows_are_permutations(rows: np.ndarray, m: int) -> bool:
    """Whether every row of an (r, m) integer array is a permutation of
    0..m-1: entries in range, and every value hit once in each row."""
    rows = np.asarray(rows)
    if rows.size == 0:
        return True
    if rows.min() < 0 or rows.max() >= m:
        return False
    hit = np.zeros(rows.shape, dtype=bool)
    hit[np.arange(rows.shape[0])[:, None], rows] = True
    return bool(hit.all())


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table on element indices.

    cayley[a, b] is the index of the product a*b, stored read-only as
    int16 up to order 32,768 (int32 beyond); see the module docstring.
    The table fixes the rest:
    order is its side, identity the x with cayley[0, x] == 0 (0*x = 0 holds
    only for x = e), and inverses[a] the first b with a*b == e. Validation
    checks that the entries are in range, the identity laws on the row and
    column of that identity, and a*inverses[a] == e for every element a
    (a row with no identity in it fails here). It then checks that the
    recorded generators reach every element by left multiplication
    (breadth first from the identity) and runs Light's associativity test,
    (x*s)*y == x*(s*y) for every generator s and all x, y (generator_law).
    The elements s that pass it are closed under products, so it proves
    associativity for all triples. An empty generator tuple makes every
    element a generator: the test is then the exhaustive one, at O(n^3)
    cost. The inverse search and Light's test run on blocks of rows, so
    their temporaries hold about 2**14 entries whatever the order.

    Not checked, because implied by those laws: the left inverse law
    (with b = inverses[a] and c = inverses[b], b*a = (b*a)*(b*c) =
    b*(a*b)*c = b*c = e), so the table is a group's, and the Latin-square
    property (a*x = a*y gives x = y on multiplying by a's inverse, and
    likewise for columns). A table that is not square fails the identity
    laws, which need a row and a column equal to 0..n-1.

    depth is the breadth-first depth: the longest shortest word in the
    generators (at least 1). Constructors that check a law on generators
    only scale their tolerance by it.

    elements, when given, holds each element's value (generate_group's
    integers or coordinate tuples); it is the one description of an
    element.
    """

    cayley: np.ndarray
    _: KW_ONLY
    name: str = "group"
    generators: tuple[int, ...] = ()
    elements: tuple | None = None
    order: int = field(init=False)
    identity: int = field(init=False)
    inverses: np.ndarray = field(init=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.cayley)
        n = len(t)
        t = as_index_array(t, n, "cayley entries out of range")
        full = np.arange(n)
        e = int(np.argmax(t[0] == 0))
        if t.shape != (n, n) or not (np.array_equal(t[e], full)
                                     and np.array_equal(t[:, e], full)):
            raise ValueError("identity laws fail")
        inverses = np.empty(n, dtype=np.intp)
        for b in element_blocks(n, t.size):
            inverses[b] = np.argmax(t[b] == e, axis=1)
        if not np.all(t[full, inverses] == e):
            raise ValueError("inverse law fails")
        inverses.setflags(write=False)
        for attr, value in (("cayley", t), ("order", n), ("identity", e),
                            ("inverses", inverses)):
            object.__setattr__(self, attr, value)
        for g in self.generators:
            if not (0 <= g < n):
                raise ValueError("generator index out of range")
        object.__setattr__(self, "depth", self._generation_depth())
        # (x*s)*y == x*(s*y) on the rows x of each block
        generator_law(self, t.size, lambda s, b: t[t[b, s]] != t[b][:, t[s]],
                      "associativity")

    def _generation_depth(self) -> int:
        """Breadth-first search from the identity, left-multiplying by the
        recorded generators; raises unless every element is reached. With
        none recorded every element is a generator, and the depth is 1."""
        if not self.generators:
            return 1
        # succ[x] lists s*x for each generator s
        succ = self.cayley[list(self.generators)].T.tolist()
        reached, depth = _breadth_first(succ, [self.identity])
        if len(reached) < self.order:
            raise ValueError(
                f"generators {list(self.generators)} reach {len(reached)} "
                f"of {self.order} elements"
            )
        return max(depth, 1)

    @property
    def generating_set(self) -> tuple[int, ...]:
        """The recorded generators, or every element when none are recorded."""
        return self.generators or tuple(range(self.order))

    @property
    def is_abelian(self) -> bool:
        """True iff the generators commute pairwise, which holds iff every
        pair of elements does, since the generators reach every element."""
        s = list(self.generating_set)
        sub = self.cayley[np.ix_(s, s)]
        return bool(np.array_equal(sub, sub.T))


@dataclass(frozen=True)
class GroupAction:
    """A left action of a finite group on {0..space_size-1}.

    perm[k] is the map applied by element k, one row per element; the
    number of columns is space_size. It is stored read-only as int16 up to
    32,768 points (int32 beyond); see the module docstring. Its entries
    must be points and the identity must act trivially. The composition law
    perm[s*k] = perm[s] o perm[k] is checked for every generator s of the
    group and every element k, by generator_law. The elements s that
    satisfy it are closed under products, so the law holds for all pairs;
    the maps are integer arrays, so the check is exact.

    Not checked, because implied: every row is a bijection, since
    perm[k] o perm[k^-1] = perm[e] is the identity map. And when perm is
    the group's own table (perm is group.cayley, left_translation_action),
    nothing is checked again: FiniteGroup has proved its entries in range,
    its identity row the identity map, and its composition law
    (s*k)*x = s*(k*x), which is associativity, by Light's test.
    """

    group: FiniteGroup
    perm: np.ndarray

    def __post_init__(self):
        if self.perm is self.group.cayley:
            return
        perm = np.asarray(self.perm)
        n = self.group.order
        if perm.ndim != 2 or len(perm) != n or perm.size == 0:
            raise ValueError(f"perm must have {n} rows and at least one column")
        m = perm.shape[1]
        perm = as_index_array(perm, m, "action entries out of range")
        object.__setattr__(self, "perm", perm)
        if not np.array_equal(perm[self.group.identity], np.arange(m)):
            raise ValueError("identity must act trivially")
        t = self.group.cayley
        # perm[s*k] == perm[s] o perm[k] on the elements k of each block
        generator_law(self.group, perm.size,
                      lambda s, b: perm[t[s, b]] != perm[s][perm[b]],
                      "action composition law")

    @property
    def space_size(self) -> int:
        return self.perm.shape[1]


# ---------------------------------------------------------------------------
# group generation


def _products(mul, x, y):
    """mul(x, y) for x of shape (r, 1, k) and y of shape (1, c, k), as an
    (r*c, k) integer array, x-major."""
    shape = (x.shape[0], y.shape[1], x.shape[2])
    out = np.asarray(mul(x, y))
    if out.shape != shape or out.dtype.kind not in "iu":
        raise ValueError(
            f"mul must return integer coordinates of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    return out.astype(np.int64, copy=False).reshape(-1, shape[2])


def _element_lookup(coords: np.ndarray):
    """A map from (r, k) int64 coordinate rows to element indices, -1 where
    a row is not an element.

    A row's key is its mixed-radix number inside the bounding box of the
    elements' coordinates: exact, and the same integer only for the same
    coordinates. Rows outside the box are not elements and get the key
    box, which no element has. Keys index a dense table over the box, which
    may hold at most max(n*n, 2**16) points, so that it is no larger than
    the Cayley table; a wider spread of coordinates raises ValueError.
    """
    n, k = coords.shape
    lo = coords.min(axis=0)
    span = (coords.max(axis=0) - lo + 1).tolist()
    box = math.prod(span)
    if box > max(n * n, 1 << 16):
        raise ValueError(
            f"element coordinates span a box of {box} points, more than "
            f"max(n*n, 2**16) for {n} elements"
        )
    radix = [math.prod(span[j + 1:]) for j in range(k)]
    span = np.array(span, dtype=np.uint64)

    def keys(rows):
        # one coordinate column at a time: a reduction or a matrix product
        # along a short last axis costs several times the arithmetic itself.
        # A negative offset wraps to a huge unsigned one: outside the box
        key, inside = 0, True
        for j in range(k):
            off = rows[:, j] - lo[j]
            inside = inside & (off.view(np.uint64) < span[j])
            off *= radix[j]
            key = key + off
        return np.where(inside, key, box)

    table = np.full(box + 1, -1, dtype=_index_dtype(n))
    table[keys(coords)] = np.arange(n)
    return lambda rows: table[keys(rows)]


def _law_codes(values, n: int, x, y) -> np.ndarray:
    """values, the codes of the products x[i]*y[j], refused with ValueError
    at the first pair whose value is not a code in 0..n-1."""
    out = np.asarray(values)
    if out.size and (out.min() < 0 or out.max() >= n):
        i, j = divmod(int(np.argmax((out < 0) | (out >= n))), out.shape[1])
        raise ValueError(f"the product of elements {x[i]} and {y[j]} is not an element: "
                         f"the law gives a value outside the codes 0..{n - 1}")
    return out


def _cayley_table(n: int, rows, pos=None) -> np.ndarray:
    """The read-only n x n Cayley table, filled on the row blocks b of
    element_blocks(n, n*n) by rows(b), the codes of the products of the
    elements in b with every element: checked by _law_codes, which names
    a pair by element index, before they are read through pos, if given."""
    cayley = np.empty((n, n), dtype=_index_dtype(n))
    for b in element_blocks(n, n * n):
        codes = _law_codes(rows(b), n, range(n)[b], range(n))
        cayley[b] = codes if pos is None else pos[codes]
    cayley.setflags(write=False)
    return cayley


def generate_group(generators, mul, identity, *, name="group"):
    """Breadth-first closure of generators under mul, returning a FiniteGroup.

    An element is an integer or a tuple of k integer coordinates. mul works
    on arrays: mul(X, Y) takes integer arrays whose last axis holds the
    coordinates (length 1 for integer elements) and broadcasts over the
    leading axes, like a numpy ufunc, returning the products' coordinates.

    The element list starts with the identity, then the generators in
    order, then products level by level: each element of a level times
    each generator, in that order. A level is one mul call. The Cayley
    table is _cayley_table's one fill, one call mul(E[b, None], E[None])
    per row block b of element_blocks, its products read back to element
    indices by an exact integer key of their coordinates in a dense table
    over the elements' bounding box (a box of more than max(n*n, 2**16)
    points raises ValueError). A product that is not an element raises
    ValueError naming the pair, and FiniteGroup then rejects a table that
    is not a group's (a closed but non-associative mul, for one).

    A closure of more than MAX_GROUP_ORDER elements, read at the call,
    raises OrderTooLargeError.

    elements holds the elements as Python values, ints or tuples of ints.
    """
    ident = np.asarray(identity, dtype=np.int64)
    k = ident.size
    index: dict[tuple[int, ...], int] = {}

    def discover(rows: np.ndarray) -> list[list[int]]:
        """The rows not seen before, in order, each given the next index."""
        new = []
        for row in rows.tolist():
            key = tuple(row)
            if key not in index:
                index[key] = len(index)
                new.append(row)
        return new

    elements = discover(ident.reshape(1, k))
    gens = discover(np.asarray(generators, dtype=np.int64).reshape(-1, k))
    elements += gens
    gen_rows = np.array(gens, dtype=np.int64).reshape(1, -1, k)
    frontier = np.array(elements, dtype=np.int64)
    while len(frontier) and gens:
        level = discover(_products(mul, frontier[:, None], gen_rows))
        if len(index) > MAX_GROUP_ORDER:
            raise OrderTooLargeError(
                f"group exceeds maximum order {MAX_GROUP_ORDER}")
        elements += level
        frontier = np.array(level, dtype=np.int64).reshape(-1, k)
    n = len(elements)
    coords = np.array(elements, dtype=np.int64)
    lookup = _element_lookup(coords)
    cayley = _cayley_table(n, lambda b: lookup(
        _products(mul, coords[b, None], coords[None])).reshape(-1, n))
    if ident.ndim == 0:
        values = coords[:, 0].tolist()
    else:
        values = list(map(tuple, elements))
    return FiniteGroup(
        cayley, name=name,
        generators=tuple(range(1, 1 + len(gens))), elements=tuple(values),
    )


def _index_group(n: int, law, identity: int, generators, *, radix=None,
                 name: str) -> FiniteGroup:
    """The group on the codes 0..n-1 under law, in generate_group's
    element order.

    law(x, y) takes two 1-d arrays of codes and returns the len(x) x len(y)
    table of the codes of the products x[i]*y[j]. The codes come in the
    table's dtype (int16 up to 32,768 codes), in which the law must not
    overflow. The element order is generate_group's: the identity, the
    generators not already listed, then level by level each element times
    each generator, found by _breadth_first over the n x g table of each
    code times each generator (one law call). Then _cayley_table fills the
    table with law(order[b], order) on its row blocks b, read through pos,
    the inverse of the order. A law value that is not a code raises
    ValueError, and so do generators that do not reach every code.

    elements holds each element's code, or the pair divmod(code, radix)
    when radix is given.
    """
    gens = list(dict.fromkeys(s for s in generators if s != identity))
    dt = _index_dtype(n)
    codes = np.arange(n, dtype=dt)
    succ = _law_codes(law(codes, np.array(gens, dtype=dt)), n, codes, gens).tolist()
    order, _ = _breadth_first(succ, [identity] + gens)
    if len(order) < n:
        raise ValueError(f"generators reach {len(order)} of {n} codes")
    order = np.array(order, dtype=dt)
    pos = np.empty(n, dtype=dt)
    pos[order] = codes
    cayley = _cayley_table(n, lambda b: law(order[b], order), pos)
    if radix is None:
        values = order.tolist()
    else:
        values = zip(*(c.tolist() for c in divmod(order, radix)))
    return FiniteGroup(cayley, name=name, generators=tuple(range(1, 1 + len(gens))),
                       elements=tuple(values))


def _refuse_above_bound(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise OrderTooLargeError(f"order {order} exceeds {MAX_GROUP_ORDER}")


def _named_order(head: str, n: int) -> int:
    """The order of the group head:n (n, 2n or n!), read off its parameter;
    UnknownGroupNameError for n < 1, OrderTooLargeError above
    MAX_GROUP_ORDER. The order is formed only while it is near the bound;
    past that, the refusal names the group, so that it neither waits on n!
    nor formats a number past Python's limit on integer digits."""
    if n < 1:
        what = "cyclic order" if head == "cyclic" else f"{head} order parameter"
        raise UnknownGroupNameError(f"{what} must be >= 1")
    if head == "cyclic":
        order = n
    elif head == "dihedral":
        order = 2 * n if n <= MAX_GROUP_ORDER else None
    else:
        # the running product of 1..n, stopped once it passes the bound
        order = 1
        for k in range(2, n + 1):
            order *= k
            if order > MAX_GROUP_ORDER and k < n:
                order = None
                break
    if order is None:
        raise OrderTooLargeError(f"order of {head}:{n} exceeds {MAX_GROUP_ORDER}")
    _refuse_above_bound(order)
    return order


def cyclic_group(n: int) -> FiniteGroup:
    _named_order("cyclic", n)
    gens = [1] if n > 1 else []
    return _index_group(n, lambda a, b: (a[:, None] + b) % n, 0, gens,
                        name=f"cyclic:{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of a regular n-gon as pairs (rotation, flip)."""
    _named_order("dihedral", n)

    def law(x, y):
        # (i1, b1)(i2, b2) = (i1 + (-1)**b1 i2, b1 ^ b2) on the codes 2i + b
        i1, b1 = (x >> 1)[:, None], (x & 1)[:, None]
        return ((i1 + (1 - 2 * b1) * (y >> 1)) % n << 1) + (b1 ^ (y & 1))

    return _index_group(2 * n, law, 0, [2 * (1 % n), 1], radix=2,
                        name=f"dihedral:{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """All permutations of n points, as image tuples."""
    _named_order("symmetric", n)
    identity = tuple(range(n))
    gens = []
    if n >= 2:
        t = list(identity)
        t[0], t[1] = t[1], t[0]
        gens.append(tuple(t))
        if n >= 3:
            gens.append(tuple((i + 1) % n for i in range(n)))

    def mul(p, q):  # (p o q)(x) = p(q(x))
        return np.take_along_axis(p, q, axis=-1)

    return generate_group(gens, mul, identity, name=f"symmetric:{n}")


def _quat_mul(x, y):
    # Hamilton product on doubled integer coordinates (a,b,c,d) ~ q = x/2
    a1, b1, c1, d1 = np.moveaxis(x, -1, 0)
    a2, b2, c2, d2 = np.moveaxis(y, -1, 0)
    prod = np.stack((
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    ), axis=-1)
    assert (prod % 2 == 0).all(), "product left the Hurwitz units"
    return prod // 2


def binary_tetrahedral_group() -> FiniteGroup:
    """The 24 unit Hurwitz quaternions, generated from i and (1+i+j+k)/2.

    Elements are stored as doubled integer quaternion coordinates so the
    Cayley table is exact.
    """
    one = (2, 0, 0, 0)
    qi = (0, 2, 0, 0)
    omega = (1, 1, 1, 1)
    return generate_group([qi, omega], _quat_mul, one, name="binary_tetrahedral")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product, generated breadth-first from the paired generators."""
    _refuse_above_bound(g1.order * g2.order)
    t1, t2, m = g1.cayley, g2.cayley, g2.order

    def outer(t, a, b):
        # t[a[:, None], b], several times faster gathered as rows then
        # columns; the shorter of a and b is gathered first
        return t[a][:, b] if len(a) <= len(b) else t[:, b][a]

    def law(x, y):
        # the codes a*m + b; every code is below MAX_GROUP_ORDER < 2**15, so
        # the int16 entries of t1 times m do not overflow
        (a1, b1), (a2, b2) = divmod(x, m), divmod(y, m)
        out = outer(t1, a1, a2) * m
        out += outer(t2, b1, b2)
        return out

    e1, e2 = g1.identity, g2.identity
    gens = ([a * m + e2 for a in g1.generating_set]
            + [e1 * m + b for b in g2.generating_set])
    return _index_group(g1.order * m, law, e1 * m + e2, gens, radix=m,
                        name=f"{g1.name}x{g2.name}")


def _named_factor(name: str) -> tuple[int, Callable[[], FiniteGroup]]:
    """The order of a group named without a product, read off its name, and
    the call that builds it; a name its builder would refuse is refused
    here, with the builder's error, and nothing is built."""
    if not name:
        raise UnknownGroupNameError(f"bad group name: {name!r}")
    if name == "binary_tetrahedral":
        return 24, lambda: binary_tetrahedral_group()
    head, sep, tail = name.partition(":")
    if not sep:
        raise UnknownGroupNameError(f"unknown group name: {name!r}")
    try:
        n = int(tail)
    except ValueError:
        raise UnknownGroupNameError(f"bad order in group name: {name!r}") from None
    builders = {"cyclic": cyclic_group, "dihedral": dihedral_group,
                "symmetric": symmetric_group}
    if head not in builders:
        raise UnknownGroupNameError(f"unknown group name: {name!r}")
    return _named_order(head, n), lambda: builders[head](n)


def make_named_group(name: str) -> FiniteGroup:
    """Build a group from a name string.

    Grammar: ``cyclic:<n>``, ``dihedral:<n>``, ``symmetric:<n>``,
    ``binary_tetrahedral``, and ``<name>x<name>`` for direct products.
    Every factor's order is read off its name, so a product above
    MAX_GROUP_ORDER is refused before any factor is built.
    """
    if not isinstance(name, str) or not name:
        raise UnknownGroupNameError(f"bad group name: {name!r}")
    factors = [_named_factor(part) for part in name.split("x")]
    order = 1
    for factor_order, _ in factors:
        order *= factor_order
        _refuse_above_bound(order)
    groups = [build() for _, build in factors]
    out = groups[0]
    for g in groups[1:]:
        out = direct_product(out, g)
    return out


# ---------------------------------------------------------------------------
# actions and orbits


def left_translation_action(g: FiniteGroup) -> GroupAction:
    """The group acting on itself by left multiplication (always transitive).

    The action's maps are the rows of the Cayley table, and perm is the
    table itself, shared read-only rather than copied; its laws are the
    group's, so GroupAction checks nothing again. For cyclic:n, whose
    table is cayley[k, x] == (k + x) % n, it is the shift of n points by k."""
    return GroupAction(group=g, perm=g.cayley)


def dihedral_vertex_action(g: FiniteGroup) -> GroupAction:
    """A dihedral group permuting the n vertices of the polygon."""
    if g.elements is None or not g.name.startswith("dihedral:"):
        raise ValueError("expected a group built by make_named_group('dihedral:n')")
    n = g.order // 2
    # built in the stored dtype, with no intp temporary: i + x and i - x
    # lie in -(n - 1)..2n - 2, and 2n - 2 <= MAX_GROUP_ORDER - 2 = 9,998
    # < 2**15, so no int16 sum overflows before the remainder
    dt = _index_dtype(n)
    i, b = np.array(g.elements, dtype=dt).T[:, :, None]
    x = np.arange(n, dtype=dt)
    perm = np.where(b == 0, x, -x)
    perm += i
    perm %= n
    perm.setflags(write=False)
    return GroupAction(group=g, perm=perm)


def natural_permutation_action(g: FiniteGroup) -> GroupAction:
    """A symmetric group acting on its points via the stored image tuples,
    read into the stored dtype a block of elements at a time."""
    if g.elements is None:
        raise ValueError("group does not carry element data")
    m = len(g.elements[0])
    perm = np.empty((g.order, m), dtype=_index_dtype(m))
    for b in element_blocks(g.order, perm.size):
        perm[b] = as_index_array(g.elements[b], m, "action entries out of range")
    perm.setflags(write=False)
    return GroupAction(group=g, perm=perm)


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

    Computed from the maps of the group's generating set alone, in
    O(|generators| * space_size): GroupAction proves the composition law
    on them and FiniteGroup proves that they reach every element, so their
    maps generate the same permutation group as all the rows. The output
    depends only on that group, so it is invariant under any reordering of
    the group elements.
    """
    return orbit_partition(act.perm[list(act.group.generating_set)])


def is_transitive(act: GroupAction) -> bool:
    return len(orbits(act)) == 1


# ---------------------------------------------------------------------------
# subgroups and homomorphisms


def subgroup_generated(g: FiniteGroup, gens) -> tuple[int, ...]:
    """Smallest subset containing the identity and gens, closed under the table."""
    seeds = sorted({g.identity} | set(element_indices(list(gens), g.order).tolist()))
    # the subgroup is the orbit of the identity under x -> x*s, s in seeds
    return next(b for b in orbit_partition(g.cayley[:, seeds].T)
                if g.identity in b)


def check_homomorphism(f, src: FiniteGroup, dst: FiniteGroup):
    """Test f(a*b) == f(a)*f(b) for every pair by f(s*k) == f(s)*f(k) on
    the generators s of src and all k (generator_law), which implies it.

    f holds one dst index per src element, read by element_indices.
    Returns (True, None), or (False, (s, k)) with s the first failing
    generator and k the first element it fails on.
    """
    if np.shape(f) != (src.order,):
        raise ValueError("map must assign one image per source element")
    f = element_indices(f, dst.order)

    def error(s, b):
        return f[src.cayley[s, b]] != dst.cayley[f[s], f[b]]

    try:
        generator_law(src, src.order, error, "homomorphism law")
    except GeneratorLawError as exc:
        s = exc.generator
        return False, (s, int(np.argmax(error(s, slice(None)))))
    return True, None
