"""Slow, direct versions of library checks, kept as oracles.

FiniteGroup, GroupAction and UnitaryRep check each "for all pairs" law on
generators x all elements only. The exhaustive checks they replaced live
here, and property tests on random permutation groups require the
constructors and the oracles to reach the same verdicts.

Orbits, generated subgroups and the orbit test of model_reduce all run on
one vectorized routine, groups.orbit_partition. The point-by-point
breadth-first searches it replaced live here too, as does the dense stack
of spectral projections that the matrix-only covariance check used to sum.

Permissibility, element value maps, the maximal permissible subgroup and
the accessibility order are all read off one value-map table; the
point-by-point loops they replaced live here. Irreducibility is decided
by the character norm; the Kronecker/SVD null-space computation of the
commutant it replaced lives here as well.

generate_group multiplies whole arrays of elements at once. The
construction it replaced, one scalar mul call per (element, generator) in
the closure and per pair in the Cayley table, lives here with the scalar
multiplications of the named groups, and must build the same groups byte
for byte.

Some laws are not checked at all, because the laws that are checked imply
them: that a group's table is a Latin square and its inverses two-sided,
that an action's maps are bijections, that the value maps of a
permissible variable form a homomorphism with |G| = |kernel| * |image|,
and that the maximal permissible subgroup is closed. Brute-force versions
of those laws live here, and the constructors must accept exactly the
inputs that the brute-force versions accept.

Every weighted sum of state projectors, sum_k w_k |s_k><s_k| (frame
operators, labelled operators, POVM effects, density operators, coarse-
graining projections, spectral reconstructions, exp(-itH)), is computed by
one kernel, linalg.projector_sum. The per-caller einsum contractions it
replaced live here, and must agree with the callers on random families.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symquant.coherent import (
    UnitaryRep,
    binary_tetrahedral_spin_rep,
    commutant_dimension,
    dihedral_rotation_rep,
    frame_operator,
    is_irreducible,
    left_regular_rep,
    make_coherent,
    permutation_rep,
    resolution_deviation,
    unitary_transport,
)
from symquant.groups import (
    FiniteGroup,
    GroupAction,
    _perm_cycles,
    _quat_name,
    check_homomorphism,
    cyclic_group,
    dihedral_vertex_action,
    generate_group,
    left_translation_action,
    make_named_group,
    natural_permutation_action,
    orbit_partition,
    orbits,
    subgroup_generated,
)
from symquant.linalg import (
    as_state_family,
    eig_hermitian,
    expm_antihermitian,
    projector_sum,
)
from symquant.quantize import (
    NotAnOrbitError,
    StatisticalModel,
    build_density,
    build_operator,
    build_povm,
    coarse_grain,
    conjugation_covariance,
    eigen_orbit_partition,
    model_reduce,
    operator_from_matrix,
)
from symquant.spin import perpendicular_unit, spin_component_operator, spin_rotation
from symquant.variables import (
    NotPermissibleError,
    accessibility_leq,
    element_value_map,
    induce_group,
    is_permissible,
    is_permissible_under,
    maximal_permissible_subgroup,
    variable_from_point_labels,
)

settings.register_profile("oracles", max_examples=60, deadline=None,
                          derandomize=True, database=None)
ORACLE_SETTINGS = settings.get_profile("oracles")


# ---------------------------------------------------------------------------
# oracles


def associative_all_triples(cayley) -> bool:
    """(a*b)*c == a*(b*c) for every triple."""
    t = np.asarray(cayley)
    return bool(np.array_equal(t[t, :], t[:, t]))


def is_group_by_brute_force(cayley, identity) -> bool:
    """Identity laws, a two-sided inverse for every element, and
    associativity over every triple."""
    t = np.asarray(cayley)
    n = t.shape[0]
    if not (np.array_equal(t[identity], np.arange(n))
            and np.array_equal(t[:, identity], np.arange(n))):
        return False
    unit = t == identity
    return bool((unit & unit.T).any(axis=1).all()) and associative_all_triples(t)


def right_inverses(cayley, identity) -> np.ndarray:
    """For each a, the first b with a*b == identity, or the identity when
    there is none; b*a == identity is not required."""
    unit = np.asarray(cayley) == identity
    return np.where(unit.any(axis=1), np.argmax(unit, axis=1), identity)


def is_latin_square(cayley) -> bool:
    t = np.asarray(cayley)
    n = t.shape[0]
    full = np.arange(n)
    return all(np.array_equal(np.sort(r), full) for r in np.concatenate([t, t.T]))


def is_action_by_brute_force(group: FiniteGroup, perm) -> bool:
    """Every map a bijection of the points, and the composition law on every
    pair; the identity then acts trivially."""
    perm = np.asarray(perm)
    m = perm.shape[1]
    return (all(np.array_equal(np.sort(r), np.arange(m)) for r in perm)
            and action_law_all_pairs(group, perm))


def action_law_all_pairs(group: FiniteGroup, perm) -> bool:
    """perm[k1*k2] == perm[k1] o perm[k2] for every pair."""
    perm = np.asarray(perm)
    return all(np.array_equal(perm[group.cayley[k1]], perm[k1][perm])
               for k1 in range(group.order))


def rep_law_all_pairs_error(group: FiniteGroup, mats) -> float:
    """Largest Frobenius error of V(k1)V(k2) == V(k1*k2) over every pair."""
    mats = np.asarray(mats, dtype=np.complex128)
    return max(
        float(np.max(np.linalg.norm(mats[k1] @ mats - mats[group.cayley[k1]],
                                    axis=(1, 2))))
        for k1 in range(group.order)
    )


def closure_by_products(cayley, identity, gens) -> set:
    """Every product of gens (the identity included), by brute force."""
    closed = {identity}
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for s in gens:
                c = int(cayley[s][a])
                if c not in closed:
                    closed.add(c)
                    changed = True
    return closed


def orbits_by_bfs(perms, m) -> tuple:
    """Orbits of the rows of an (r, m) permutation array, one breadth-first
    search per unseen point; blocks sorted by smallest point."""
    perms = np.asarray(perms).reshape(-1, m)
    seen = np.zeros(m, dtype=bool)
    blocks = []
    for start in range(m):
        if seen[start]:
            continue
        block = {start}
        frontier = [start]
        seen[start] = True
        while frontier:
            nxt = []
            for x in frontier:
                for y in perms[:, x]:
                    y = int(y)
                    if not seen[y]:
                        seen[y] = True
                        block.add(y)
                        nxt.append(y)
            frontier = nxt
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def subgroup_by_two_sided_closure(g: FiniteGroup, gens) -> tuple:
    """Close the seeds (gens and the identity) under multiplication by a
    seed on either side."""
    seeds = sorted({g.identity} | {int(x) for x in gens})
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for a in frontier:
            for b in seeds:
                for c in (int(g.cayley[a, b]), int(g.cayley[b, a])):
                    if c not in closed:
                        closed.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(closed))


def orbit_verdict_by_search(perms, ids) -> str | None:
    """model_reduce's orbit test on target ids: None when they form one
    orbit, else the reason (closure under every row, then connectivity)."""
    id_set = set(ids)
    for row in perms:
        if {int(row[i]) for i in id_set} != id_set:
            return "not closed"
    seen = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for row in perms:
                y = int(row[x])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return None if seen == id_set else "union of several orbits"


def covariance_distance_by_projection_stack(bundle, U, perm) -> float:
    """|| U^dag A U - sum_j u[perm[j]] P_j ||_F with the k x d x d stack of
    cluster projections P_j built in full."""
    spec = bundle.spectrum
    offsets = np.concatenate([[0], np.cumsum(spec.multiplicities)])
    stack = np.stack([
        spec.vectors[:, a:b] @ spec.vectors[:, a:b].conj().T
        for a, b in zip(offsets, offsets[1:])
    ])
    rhs = np.einsum("j,jkl->kl", spec.eigenvalues[np.asarray(perm)], stack)
    return float(np.linalg.norm(U.conj().T @ bundle.matrix @ U - rhs))


def permissible_by_class_scan(var, act):
    """Scan the elements in order and, for each, every value class. The
    witness is the first failing element k and the smallest pair (first
    point of a class, first point of that class that k moves off the
    value of the class's first point)."""
    classes = [np.nonzero(var.values == v)[0] for v in range(var.n_values)]
    for k in range(act.group.order):
        moved = var.values[act.perm[k]]
        candidates = []
        for cls in classes:
            vals = moved[cls]
            bad = np.nonzero(vals != vals[0])[0]
            if bad.size:
                candidates.append((int(cls[0]), int(cls[bad[0]])))
        if candidates:
            return False, (k, *min(candidates))
    return True, None


def value_map_by_point_loop(var, act, h):
    """The value permutation of element h, assigned point by point; None
    when a value would be sent to two values or the table is no bijection."""
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


def factor_map_by_point_loop(alpha, beta):
    """(True, f) with alpha = f(beta) pointwise, assigned point by point,
    or (False, None)."""
    f = np.full(beta.n_values, -1, dtype=np.intp)
    for p in range(beta.space_size):
        b, a = beta.values[p], alpha.values[p]
        if f[b] == -1:
            f[b] = a
        elif f[b] != a:
            return False, None
    return True, f


def commutant_by_kronecker_svd(rep, tol=1e-8) -> int:
    """Null-space dimension of X V(s) = V(s) X over the group's generators
    s, as a linear system in the d^2 entries of X, by SVD. The stacked
    system has |S|*d^2 rows and d^2 columns: O(|S| d^6) time and
    O(|S| d^4) memory."""
    d = rep.dim
    eye = np.eye(d)
    blocks = []
    for k in rep.group.generating_set:
        V = rep.matrices[k]
        # row-major vec: vec(XV - VX) = (I (x) V^T - V (x) I) vec(X)
        blocks.append(np.kron(eye, V.T) - np.kron(V, eye))
    if not blocks:
        return d * d
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    thresh = tol * max(1.0, float(s[0]))
    return d * d - int(np.sum(s > thresh))


def generate_group_by_pairs(generators, mul, identity, *, name="group",
                            name_of=None) -> FiniteGroup:
    """Breadth-first closure with one scalar mul call per (element,
    generator), then one per pair for the Cayley table; elements are any
    hashable values."""
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
    return FiniteGroup(
        order=n, cayley=cayley, identity=0, inverses=inverses, name=name,
        element_names=names, generators=tuple(index[g] for g in gens),
        elements=tuple(elements),
    )


def compose_scalar(p, q):
    """(p o q)(x) = p(q(x)) on image tuples."""
    return tuple(p[i] for i in q)


def quat_mul_scalar(x, y):
    """Hamilton product on doubled integer quaternion coordinates."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    prod = (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    assert all(v % 2 == 0 for v in prod)
    return tuple(v // 2 for v in prod)


def named_group_by_pairs(name: str) -> FiniteGroup:
    """make_named_group(name), built by generate_group_by_pairs from scalar
    multiplications."""
    parts = name.split("x")
    if len(parts) > 1:
        out = named_group_by_pairs(parts[0])
        for part in parts[1:]:
            g1, g2 = out, named_group_by_pairs(part)
            n1 = g1.element_names or tuple(map(str, range(g1.order)))
            n2 = g2.element_names or tuple(map(str, range(g2.order)))
            out = generate_group_by_pairs(
                [(a, g2.identity) for a in g1.generating_set]
                + [(g1.identity, b) for b in g2.generating_set],
                lambda x, y, t1=g1.cayley, t2=g2.cayley: (
                    int(t1[x[0], y[0]]), int(t2[x[1], y[1]])),
                (g1.identity, g2.identity), name=f"{g1.name}x{g2.name}",
                name_of=lambda x, n1=n1, n2=n2: f"({n1[x[0]]},{n2[x[1]]})")
        return out
    if name == "binary_tetrahedral":
        return generate_group_by_pairs([(0, 2, 0, 0), (1, 1, 1, 1)], quat_mul_scalar,
                                       (2, 0, 0, 0), name=name, name_of=_quat_name)
    head, _, tail = name.partition(":")
    n = int(tail)
    if head == "cyclic":
        return generate_group_by_pairs(
            [1] if n > 1 else [], lambda a, b: (a + b) % n, 0, name=name,
            name_of=lambda k: "e" if k == 0 else f"r{k}" if k > 1 else "r")
    if head == "dihedral":
        def dihedral_name(x):
            i, b = x
            r = "" if i == 0 else ("r" if i == 1 else f"r{i}")
            return (r + ("s" if b else "")) or "e"

        return generate_group_by_pairs(
            [(1 % n, 0), (0, 1)],
            lambda x, y: ((x[0] + (y[0] if x[1] == 0 else -y[0])) % n, x[1] ^ y[1]),
            (0, 0), name=name, name_of=dihedral_name)
    assert head == "symmetric"
    identity = tuple(range(n))
    gens = []
    if n >= 2:
        gens.append((1, 0) + identity[2:])
        if n >= 3:
            gens.append(tuple((i + 1) % n for i in range(n)))
    return generate_group_by_pairs(gens, compose_scalar, identity, name=name,
                                   name_of=_perm_cycles)


def assert_same_group(new: FiniteGroup, old: FiniteGroup):
    """Byte-identical tables and identical Python element data."""
    assert new.cayley.dtype == old.cayley.dtype
    assert new.cayley.tobytes() == old.cayley.tobytes()
    assert new.inverses.tobytes() == old.inverses.tobytes()
    # repr tells Python ints from numpy integers
    assert repr(new.elements) == repr(old.elements)
    assert new.element_names == old.element_names
    assert new.generators == old.generators
    assert new.depth == old.depth
    assert new.name == old.name


def rows_by_stacking(states) -> np.ndarray:
    """A state family as rows: an array as given, a list of vectors (of
    any shape) flattened one by one."""
    rows = np.asarray(states, dtype=np.complex128)
    if rows.ndim != 2:
        rows = np.stack([np.ravel(np.asarray(s, dtype=np.complex128))
                         for s in states])
    return rows


def projectors_by_einsum(weights, rows) -> np.ndarray:
    """sum_k w_k |s_k><s_k|, one weight vector or a stack of them."""
    return np.einsum("...k,ki,kj->...ij", weights, rows, rows.conj())


def labelled_sum_by_einsum(rows, weights, labels) -> np.ndarray:
    """sum_k labels_k w_k |s_k><s_k|, unsymmetrized."""
    return np.einsum("k,k,ki,kj->ij", labels, weights, rows, rows.conj())


def povm_effects_by_einsum(probabilities, rows, weights) -> np.ndarray:
    return np.einsum("vz,v,vi,vj->zij", probabilities, weights, rows, rows.conj())


def block_projections_by_einsum(rows, blocks) -> np.ndarray:
    return np.stack([np.einsum("ki,kj->ij", rows[list(b)], rows[list(b)].conj())
                     for b in blocks])


def spectral_sum_by_einsum(values, vectors) -> np.ndarray:
    """V diag(values) V^dag for eigenvectors stored as columns."""
    return np.einsum("k,ik,jk->ij", values, vectors, vectors.conj())


def transport_by_einsum(W, mats) -> np.ndarray:
    return np.einsum("ij,kjl,ml->kim", W, mats, W.conj())


def assert_close(got, want):
    """Agreement within 1e-12 * max(1, ||want||) (Frobenius over all axes)."""
    scale = max(1.0, float(np.linalg.norm(want)))
    assert float(np.linalg.norm(got - want)) <= 1e-12 * scale


def direct_sum(*reps) -> UnitaryRep:
    """Block-diagonal sum of representations of one group."""
    g = reps[0].group
    d = sum(r.dim for r in reps)
    mats = np.zeros((g.order, d, d), dtype=np.complex128)
    at = 0
    for r in reps:
        mats[:, at:at + r.dim, at:at + r.dim] = r.matrices
        at += r.dim
    return UnitaryRep(group=g, dim=d, matrices=mats)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def permutation_sets(draw, max_points=12, max_rows=4):
    """An (r, m) array of random permutations, r = 0 included; the rows
    need not form a group."""
    m = draw(st.integers(1, max_points))
    rows = draw(st.lists(st.permutations(range(m)), max_size=max_rows))
    return np.array(rows, dtype=np.intp).reshape(len(rows), m)


def compose(p, q):
    """(p o q)(x) = p(q(x)) on arrays of image tuples, broadcasting."""
    return np.take_along_axis(p, q, axis=-1)


@st.composite
def permutation_generators(draw, max_degree=5):
    """A degree up to max_degree and 1-3 random permutations of it."""
    m = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
    return m, [tuple(p) for p in gens]


@st.composite
def permutation_groups(draw, max_degree=5):
    """A permutation group on up to max_degree points from 1-3 random
    generators, built breadth-first by generate_group."""
    m, gens = draw(permutation_generators(max_degree))
    return generate_group(gens, compose, tuple(range(m)))


@st.composite
def labelled_actions(draw, max_degree=5, max_labels=4):
    """A random labelling of the points of a random permutation group's
    natural or left-translation action."""
    g = draw(permutation_groups(max_degree))
    if draw(st.booleans()):
        act = natural_permutation_action(g)
    else:
        act = left_translation_action(g)
    labels = draw(st.lists(st.integers(0, max_labels - 1),
                           min_size=act.space_size, max_size=act.space_size))
    return variable_from_point_labels(labels), act


# a loop of order 5 that is no group: a Latin square with identity 0 in
# which every element is its own inverse, which no group of order 5 has
LOOP_5 = np.array([[0, 1, 2, 3, 4],
                   [1, 0, 3, 4, 2],
                   [2, 4, 0, 1, 3],
                   [3, 2, 4, 0, 1],
                   [4, 3, 1, 2, 0]])


@st.composite
def tables_with_identity(draw, max_order=5):
    """An order-n table, 2 <= n <= max_order, whose row and column 0 are
    those of an identity: either random, or a group's table (or LOOP_5)
    relabelled by a permutation fixing 0 and then changed in up to two
    cells."""
    n = draw(st.integers(2, max_order))
    if draw(st.booleans()):
        bases = [cyclic_group(n).cayley]
        if n == 4:
            bases.append(make_named_group("cyclic:2xcyclic:2").cayley)
        if n == 5:
            bases.append(LOOP_5)
        base = draw(st.sampled_from(bases))
        sigma = np.array([0] + draw(st.permutations(range(1, n))), dtype=np.intp)
        inv = np.argsort(sigma)
        t = sigma[base[np.ix_(inv, inv)]]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            t[i, j] = draw(st.integers(0, n - 1))
    else:
        t = np.zeros((n, n), dtype=np.intp)
        t[0], t[:, 0] = np.arange(n), np.arange(n)
        t[1:, 1:] = np.reshape(draw(st.lists(st.integers(0, n - 1),
                                             min_size=(n - 1) ** 2,
                                             max_size=(n - 1) ** 2)),
                               (n - 1, n - 1))
    return t


def _present(rows, form):
    """A family of row states as an array, a list of 1-d vectors, or a
    list of column vectors (which must be flattened and stacked)."""
    if form == "array":
        return rows
    if form == "vectors":
        return list(rows)
    return [r[:, None] for r in rows]


@st.composite
def state_families(draw, max_states=7, max_dim=5):
    """(states, weights): random complex states in one of the three forms,
    with real weights, some zero and some negative, or one scalar weight."""
    n, d = draw(st.integers(1, max_states)), draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    weights = rng.normal(size=n) * draw(st.sampled_from([1.0, 1e3]))
    weights[rng.random(n) < 0.3] = 0.0
    if draw(st.booleans()):
        weights = float(weights[0])
    return _present(rows, draw(st.sampled_from(["array", "vectors", "columns"]))), weights


@st.composite
def resolving_families(draw, max_states=7, max_dim=4):
    """(rows, weights): n >= d row states with positive weights w_k that
    resolve the identity, sum_k w_k |s_k><s_k| = I: the rows of a random
    isometry, each divided by sqrt(w_k)."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(d, max_states))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V, _ = np.linalg.qr(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))
    weights = rng.uniform(0.1, 10.0, size=n)
    return V / np.sqrt(weights)[:, None], weights


def _random_unitary(rng, d) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Q


def _quiet_operator(states, weights, labels):
    """build_operator on a family that need not resolve the identity."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_operator(states, weights, labels, require_resolution=False)


def _non_generators(g: FiniteGroup) -> list[int]:
    return [k for k in range(g.order)
            if k != g.identity and k not in g.generators]


def _copy(g: FiniteGroup, **changes) -> FiniteGroup:
    fields = dict(order=g.order, cayley=g.cayley, identity=g.identity,
                  inverses=g.inverses, generators=g.generators)
    fields.update(changes)
    return FiniteGroup(**fields)


# ---------------------------------------------------------------------------
# agreement on valid inputs


class TestOraclesAgree:
    @ORACLE_SETTINGS
    @given(permutation_groups())
    def test_random_permutation_groups(self, g):
        assert associative_all_triples(g.cayley)
        assert 1 <= g.depth <= max(g.order - 1, 1)
        act = natural_permutation_action(g)
        assert action_law_all_pairs(g, act.perm)
        rep = permutation_rep(act)
        assert rep_law_all_pairs_error(g, rep.matrices) == 0.0
        # with no recorded generators every element is one: depth 1
        assert _copy(g, generators=()).depth == 1

    @pytest.mark.parametrize("name", ["dihedral:5", "binary_tetrahedral"])
    def test_named_group_float_reps(self, name):
        g = make_named_group(name)
        assert associative_all_triples(g.cayley)
        if name == "binary_tetrahedral":
            rep = binary_tetrahedral_spin_rep(g)
        else:
            rep = dihedral_rotation_rep(g)
        assert rep_law_all_pairs_error(g, rep.matrices) <= 1e-8 * rep.dim


ORACLE_GROUP_NAMES = (
    "cyclic:1", "cyclic:2", "cyclic:7", "cyclic:66", "cyclic:2000",
    "dihedral:1", "dihedral:2", "dihedral:3", "dihedral:4", "dihedral:24",
    "dihedral:200", "dihedral:500",
    "symmetric:1", "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5",
    "symmetric:6", "binary_tetrahedral",
    "cyclic:2xcyclic:3", "dihedral:3xcyclic:2", "binary_tetrahedralxcyclic:2",
    "symmetric:3xsymmetric:3xcyclic:2", "cyclic:4xdihedral:5xbinary_tetrahedral",
)


class TestGroupConstructionOracle:
    @pytest.mark.parametrize("name", ORACLE_GROUP_NAMES)
    def test_named_groups_match_per_pair_construction(self, name):
        assert_same_group(make_named_group(name), named_group_by_pairs(name))

    @ORACLE_SETTINGS
    @given(permutation_generators(max_degree=6))
    def test_random_permutation_groups_match(self, case):
        m, gens = case
        identity = tuple(range(m))
        assert_same_group(generate_group(gens, compose, identity),
                          generate_group_by_pairs(gens, compose_scalar, identity))


# ---------------------------------------------------------------------------
# rejections


class TestRejections:
    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_changed_non_generator_matrix_rejected(self, g, data):
        candidates = _non_generators(g)
        assume(candidates)
        k = data.draw(st.sampled_from(candidates))
        theta = data.draw(st.floats(0.01, 2 * np.pi - 0.01))
        mats = permutation_rep(natural_permutation_action(g)).matrices.copy()
        mats[k] = mats[k] * np.exp(1j * theta)      # still unitary
        assert rep_law_all_pairs_error(g, mats) > 1e-8 * mats.shape[1]
        with pytest.raises(ValueError, match="product law"):
            UnitaryRep(group=g, dim=mats.shape[1], matrices=mats)

    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_changed_non_generator_perm_row_rejected(self, g, data):
        candidates = _non_generators(g)
        assume(candidates)
        k = data.draw(st.sampled_from(candidates))
        act = natural_permutation_action(g)
        row = data.draw(st.permutations(range(act.space_size)))
        assume(list(row) != act.perm[k].tolist())
        perm = act.perm.copy()
        perm[k] = row
        assert not action_law_all_pairs(g, perm)
        with pytest.raises(ValueError, match="composition law"):
            GroupAction(group=g, space_size=act.space_size, perm=perm)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_every_generator_is_checked(self, n):
        # rotation by i for the element (i, b), whatever b: the law holds
        # at the rotation generator and fails at the flip generator
        g = make_named_group(f"dihedral:{n}")
        shifts = [i for i, _ in g.elements]
        perm = np.array([[(x + i) % n for x in range(n)] for i in shifts])
        assert not action_law_all_pairs(g, perm)
        with pytest.raises(ValueError, match="composition law"):
            GroupAction(group=g, space_size=n, perm=perm)
        mats = np.stack([np.roll(np.eye(n), i, axis=0) for i in shifts])
        assert rep_law_all_pairs_error(g, mats) > 1e-8 * n
        with pytest.raises(ValueError, match="product law"):
            UnitaryRep(group=g, dim=n, matrices=mats)

    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_generators_must_generate(self, g, data):
        gens = tuple(data.draw(st.lists(st.integers(0, g.order - 1),
                                        min_size=1, max_size=3)))
        if closure_by_products(g.cayley, g.identity, gens) == set(range(g.order)):
            assert _copy(g, generators=gens).generators == gens
        else:
            with pytest.raises(ValueError, match="reach"):
                _copy(g, generators=gens)

    @ORACLE_SETTINGS
    @given(st.integers(3, 20), st.data())
    def test_intercalate_swap_in_cyclic_table(self, half, data):
        # swapping the intercalate (a,b), (a,b+h), (a+h,b), (a+h,b+h) keeps
        # a Latin square with identity and inverses when a, b, a+b avoid 0, h
        n = 2 * half
        a = data.draw(st.integers(1, n - 1))
        b = data.draw(st.integers(1, n - 1))
        assume(a % half and b % half and (a + b) % half)
        g = cyclic_group(n)
        t = g.cayley.copy()
        a2, b2 = (a + half) % n, (b + half) % n
        rows, cols = [a, a, a2, a2], [b, b2, b, b2]
        t[rows, cols] = t[rows, cols][[1, 0, 3, 2]]
        assert not associative_all_triples(t)
        for gens in ((), (1,), tuple(range(1, n))):
            with pytest.raises(ValueError):
                _copy(g, cayley=t, generators=gens)


    def test_product_outside_generated_set_rejected(self):
        # the closure multiplies by the generator 1 only and stays in
        # {0..3}; the table's products with 3 leave it
        def mul(a, b):
            return np.where(b == 3, 99, (a + b) % 4)

        assert np.array_equal(mul(np.arange(4), np.ones(4, dtype=int)), [1, 2, 3, 0])
        with pytest.raises(ValueError, match="not an element"):
            generate_group([1], mul, 0)

    def test_closed_non_associative_mul_rejected(self):
        # the cyclic:66 table with one intercalate swapped away from column
        # 1, used as a lookup: the closure under 1 still finds 0..65 in
        # order, every product is an element, and the table is a Latin
        # square with identity and inverses, but not associative
        t = cyclic_group(66).cayley.copy()
        rows, cols = [2, 2, 35, 35], [3, 36, 3, 36]
        t[rows, cols] = t[rows, cols][[1, 0, 3, 2]]
        assert not associative_all_triples(t)

        def mul(x, y):
            return t[x[..., 0], y[..., 0]][..., None]

        with pytest.raises(ValueError, match="associativity"):
            generate_group([1], mul, 0)


# ---------------------------------------------------------------------------
# laws implied by the checked ones


def _tables_with_right_inverses(n) -> np.ndarray:
    """Every order-n table whose row and column 0 are an identity's and in
    which every element a has some b with a*b == 0, as a (K, n, n) array."""
    cells = np.array(list(itertools.product(range(n), repeat=(n - 1) ** 2)),
                     dtype=np.intp).reshape(-1, n - 1, n - 1)
    tables = np.empty((len(cells), n, n), dtype=np.intp)
    tables[:, 0], tables[:, :, 0] = np.arange(n), np.arange(n)
    tables[:, 1:, 1:] = cells
    return tables[(tables == 0).any(axis=2).all(axis=1)]


def _group_accepts(t, generators=()) -> bool:
    try:
        FiniteGroup(order=len(t), cayley=t, identity=0,
                    inverses=right_inverses(t, 0), generators=generators)
    except ValueError:
        return False
    return True


def _action_accepts(g, perm) -> bool:
    try:
        GroupAction(group=g, space_size=perm.shape[1], perm=perm)
    except ValueError:
        return False
    return True


@st.composite
def rows_for_group(draw, max_degree=4, max_points=4):
    """A random permutation group and an (order, m) array of maps of m
    points: either random, or those of a valid action (natural, trivial or
    left translation) changed up to twice, each time by setting one entry
    or by swapping two entries of a row (which keeps it a bijection)."""
    g = draw(permutation_groups(max_degree))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["natural", "trivial", "left"]))
        if kind == "natural":
            perm = natural_permutation_action(g).perm.copy()
        elif kind == "left":
            perm = g.cayley.copy()
        else:
            m = draw(st.integers(1, max_points))
            perm = np.tile(np.arange(m), (g.order, 1))
        m = perm.shape[1]
        for _ in range(draw(st.integers(0, 2))):
            k, x = draw(st.integers(0, g.order - 1)), draw(st.integers(0, m - 1))
            y = draw(st.integers(0, m - 1))
            if draw(st.booleans()):
                perm[k, x] = y
            else:
                perm[k, [x, y]] = perm[k, [y, x]]
    else:
        m = draw(st.integers(1, max_points))
        perm = np.reshape(draw(st.lists(st.integers(0, m - 1),
                                        min_size=g.order * m,
                                        max_size=g.order * m)),
                          (g.order, m))
    return g, np.asarray(perm, dtype=np.intp)


@st.composite
def coset_variables(draw, max_degree=5):
    """The left cosets xH of a random subgroup H of a random permutation
    group, as a variable on its left translation action: always
    permissible, and the induced action is that on the cosets."""
    g = draw(permutation_groups(max_degree))
    gens = draw(st.lists(st.integers(0, g.order - 1), max_size=2))
    H = list(subgroup_generated(g, gens))
    labels = g.cayley[:, H].min(axis=1).tolist()
    return variable_from_point_labels(labels), left_translation_action(g)


class TestImpliedLaws:
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_tables_accepted_exactly_when_groups(self, n):
        # every table with an identity row and column and right inverses,
        # under every generator set: neither the rows and columns nor the
        # left inverses are checked, yet only the groups' tables pass
        tables = _tables_with_right_inverses(n)
        generator_sets = [()] + [gens for r in range(1, n)
                                 for gens in itertools.combinations(range(1, n), r)]
        groups = 0
        for t in tables:
            is_group = is_group_by_brute_force(t, 0)
            groups += is_group
            for gens in generator_sets:
                reach = closure_by_products(t, 0, gens or range(n)) == set(range(n))
                assert _group_accepts(t, gens) == (is_group and reach)
            assert is_latin_square(t) or not is_group
        assert groups == 1

    @settings(ORACLE_SETTINGS, max_examples=150)
    @given(tables_with_identity(), st.data())
    def test_random_tables_accepted_exactly_when_groups(self, t, data):
        n = len(t)
        gens = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
        reach = closure_by_products(t, 0, gens or range(n)) == set(range(n))
        expected = is_group_by_brute_force(t, 0) and reach
        assert _group_accepts(t, gens) == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_row_set_accepted_exactly_when_an_action(self, n):
        # cyclic:n on 3 points, every one of the 27**n choices of maps
        g = cyclic_group(n)
        maps = np.array(list(itertools.product(range(3), repeat=3)), dtype=np.intp)
        actions = 0
        for rows in itertools.product(range(len(maps)), repeat=n):
            perm = maps[list(rows)]
            expected = is_action_by_brute_force(g, perm)
            actions += expected
            assert _action_accepts(g, perm) == expected
        # homomorphisms into S_3: the identity, and for n = 2 the three
        # transpositions, for n = 3 the two 3-cycles
        assert actions == {2: 4, 3: 3}[n]

    @ORACLE_SETTINGS
    @given(rows_for_group())
    def test_random_rows_accepted_exactly_when_an_action(self, case):
        g, perm = case
        assert _action_accepts(g, perm) == is_action_by_brute_force(g, perm)

    @ORACLE_SETTINGS
    @given(st.one_of(labelled_actions(), coset_variables()))
    def test_induced_map_is_a_homomorphism(self, case):
        var, act = case
        assume(is_permissible(var, act)[0])
        g = act.group
        induced = induce_group(var, act)
        assert check_homomorphism(induced.k_to_image, g,
                                  induced.image_group) == (True, None)
        assert g.order == len(induced.kernel) * induced.image_group.order
        images = [int(induced.k_to_image[s]) for s in g.generators]
        assert induced.image_group.generators == tuple(dict.fromkeys(images))

    @pytest.mark.parametrize("n", [4, 7, 200])
    def test_faithful_variable_image_generated_by_generator_images(self, n):
        # every vertex its own value: the image is the whole group, and
        # Light's test on it runs on the two generator images
        g = make_named_group(f"dihedral:{n}")
        induced = induce_group(variable_from_point_labels(range(n)),
                               dihedral_vertex_action(g))
        assert induced.kernel == (g.identity,)
        assert induced.image_group.order == g.order
        assert induced.image_group.generators == tuple(
            int(induced.k_to_image[s]) for s in g.generators)
        assert check_homomorphism(induced.k_to_image, g,
                                  induced.image_group) == (True, None)

    @ORACLE_SETTINGS
    @given(st.one_of(labelled_actions(), coset_variables()))
    def test_maximal_permissible_subgroup_is_closed(self, case):
        var, act = case
        H = list(maximal_permissible_subgroup(var, act))
        assert act.group.identity in H
        assert set(act.group.cayley[np.ix_(H, H)].ravel().tolist()) <= set(H)


# ---------------------------------------------------------------------------
# one orbit routine


class TestOrbitOracles:
    @ORACLE_SETTINGS
    @given(permutation_sets())
    def test_orbit_partition_matches_search(self, perms):
        m = perms.shape[1]
        blocks = orbit_partition(perms)
        assert blocks == orbits_by_bfs(perms, m)
        assert sorted(x for b in blocks for x in b) == list(range(m))

    def test_no_rows_gives_singletons(self):
        assert orbit_partition(np.empty((0, 4), dtype=np.intp)) == (
            (0,), (1,), (2,), (3,))

    @pytest.mark.parametrize("m", [7, 64, 1000])
    def test_one_long_cycle_in_shuffled_order(self, m):
        # one m-cycle through the points in a random order: one orbit
        order = np.random.default_rng(m).permutation(m)
        row = np.empty(m, dtype=np.intp)
        row[order] = np.roll(order, 1)
        assert orbit_partition(row[None, :]) == (tuple(range(m)),)

    @pytest.mark.parametrize("name", ["cyclic:12", "dihedral:6", "symmetric:4",
                                      "binary_tetrahedral"])
    def test_named_group_actions(self, name):
        g = make_named_group(name)
        for act in (left_translation_action(g),
                    GroupAction(group=g, space_size=g.order,
                                perm=g.cayley.T[g.inverses])):
            assert orbits(act) == orbits_by_bfs(act.perm, act.space_size)
        if name.startswith("symmetric"):
            act = natural_permutation_action(g)
            assert orbits(act) == orbits_by_bfs(act.perm, act.space_size)

    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_subgroup_generated_matches_closure(self, g, data):
        gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
        assert subgroup_generated(g, gens) == subgroup_by_two_sided_closure(g, gens)

    @ORACLE_SETTINGS
    @given(permutation_sets(max_points=8))
    def test_eigen_orbit_partition_matches_search(self, perms):
        assume(perms.shape[0] > 0)
        m = perms.shape[1]
        bundle = operator_from_matrix(np.diag(np.arange(m, dtype=float)))
        part = eigen_orbit_partition(bundle, perms)
        assert part.blocks == orbits_by_bfs(perms, m)
        assert part.single_orbit == (len(part.blocks) == 1)

    @ORACLE_SETTINGS
    @given(permutation_sets(max_points=8), st.data())
    def test_model_reduce_verdicts_match_search(self, perms, data):
        assume(perms.shape[0] > 0)
        m = perms.shape[1]
        ids = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                 max_size=m, unique=True))
        u = np.arange(m, dtype=float) - 0.5 * m
        expected = orbit_verdict_by_search(perms, ids)
        if expected is None:
            reduced = model_reduce(u, perms, u[ids])
            assert reduced.value_labels == tuple(sorted(u[ids].tolist()))
        else:
            with pytest.raises(NotAnOrbitError, match=expected):
                model_reduce(u, perms, u[ids])


# ---------------------------------------------------------------------------
# one spectral representation


class TestCovarianceOracle:
    @pytest.mark.parametrize("j", [1.0, 1.5, 3.0])
    def test_half_turn_reversal_matches_projection_stack(self, j):
        a = np.array([0.3, -0.5, 0.8])
        a /= np.linalg.norm(a)
        bundle = spin_component_operator(j, a)
        U = spin_rotation(j, perpendicular_unit(a), np.pi)
        reversal = np.arange(bundle.dim - 1, -1, -1)
        report = conjugation_covariance(bundle, U, reversal)
        oracle = covariance_distance_by_projection_stack(bundle, U, reversal)
        assert report.passed
        assert abs(report.distance - oracle) <= 1e-12

    @pytest.mark.parametrize("mults", [(1, 1, 1), (2, 1), (1, 3, 2)])
    def test_degenerate_random_unitaries_match_projection_stack(self, mults):
        d, k = sum(mults), len(mults)
        rng = np.random.default_rng(10 * d + k)
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        A = (Q * np.repeat(np.arange(1.0, k + 1), mults)) @ Q.conj().T
        bundle = operator_from_matrix((A + A.conj().T) / 2)
        assert list(bundle.spectrum.multiplicities) == list(mults)
        W, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for U in (np.eye(d), W):
            for perm in (np.arange(k), rng.permutation(k)):
                report = conjugation_covariance(bundle, U, perm)
                oracle = covariance_distance_by_projection_stack(bundle, U, perm)
                assert abs(report.distance - oracle) <= 1e-12 * max(1.0, oracle)
        # the identity with the identity relabelling is covariant
        assert conjugation_covariance(bundle, np.eye(d), np.arange(k)).passed


# ---------------------------------------------------------------------------
# one value-map table


class TestValueMapOracles:
    @ORACLE_SETTINGS
    @given(labelled_actions())
    def test_verdict_and_witness_match_class_scan(self, case):
        var, act = case
        expected = permissible_by_class_scan(var, act)
        assert is_permissible(var, act) == expected
        if expected[0]:
            induced = induce_group(var, act).induced_perm
            for k in range(act.group.order):
                assert np.array_equal(induced[k],
                                      value_map_by_point_loop(var, act, k))
        else:
            with pytest.raises(NotPermissibleError) as err:
                induce_group(var, act)
            assert err.value.witness == expected[1]

    @ORACLE_SETTINGS
    @given(labelled_actions())
    def test_every_element_value_map(self, case):
        var, act = case
        for h in range(act.group.order):
            got = element_value_map(var, act, h)
            expected = value_map_by_point_loop(var, act, h)
            if expected is None:
                assert got is None
            else:
                assert np.array_equal(got, expected)

    @ORACLE_SETTINGS
    @given(labelled_actions())
    def test_maximal_permissible_subgroup(self, case):
        var, act = case
        expected = tuple(h for h in range(act.group.order)
                         if value_map_by_point_loop(var, act, h) is not None)
        assert maximal_permissible_subgroup(var, act) == expected

    @ORACLE_SETTINGS
    @given(labelled_actions(), st.data())
    def test_permissible_under_random_subsets(self, case, data):
        var, act = case
        subset = data.draw(st.lists(st.integers(0, act.group.order - 1),
                                    max_size=6))
        expected = all(value_map_by_point_loop(var, act, k) is not None
                       for k in subset)
        assert is_permissible_under(var, act, subset) == expected

    @ORACLE_SETTINGS
    @given(st.integers(1, 10).flatmap(lambda m: st.tuples(
        st.lists(st.integers(0, 3), min_size=m, max_size=m),
        st.lists(st.integers(0, 3), min_size=m, max_size=m))))
    def test_accessibility_both_directions(self, labellings):
        a, b = (variable_from_point_labels(x) for x in labellings)
        for alpha, beta in ((a, b), (b, a)):
            ok, f = accessibility_leq(alpha, beta)
            expected_ok, expected_f = factor_map_by_point_loop(alpha, beta)
            assert ok == expected_ok
            if ok:
                assert np.array_equal(f, expected_f)
            else:
                assert f is None


# ---------------------------------------------------------------------------
# irreducibility by the character norm


class TestCommutantOracle:
    @pytest.mark.parametrize("name", ["dihedral:4", "dihedral:5", "binary_tetrahedral"])
    def test_named_group_reps(self, name):
        g = make_named_group(name)
        if name == "binary_tetrahedral":
            rep = binary_tetrahedral_spin_rep(g)
        else:
            rep = dihedral_rotation_rep(g)
        assert commutant_dimension(rep) == commutant_by_kronecker_svd(rep) == 1
        assert is_irreducible(rep) == (True, 1)

    @pytest.mark.parametrize("name", ["cyclic:3", "dihedral:3", "symmetric:3",
                                      "binary_tetrahedral"])
    def test_left_regular_reps(self, name):
        # the regular representation holds each irrep of dimension d_i
        # d_i times, so its commutant has dimension sum d_i^2 = |G|
        rep = left_regular_rep(make_named_group(name))
        assert commutant_dimension(rep) == commutant_by_kronecker_svd(rep) == rep.dim

    @ORACLE_SETTINGS
    @given(permutation_groups())
    def test_random_permutation_reps(self, g):
        acts = [natural_permutation_action(g)]
        if g.order <= 24:       # the oracle's system grows as d^4
            acts.append(left_translation_action(g))
        for act in acts:
            rep = permutation_rep(act)
            assert commutant_dimension(rep) == commutant_by_kronecker_svd(rep)

    @pytest.mark.parametrize("n", [4, 5])
    def test_reducible_direct_sums(self, n):
        g = make_named_group(f"dihedral:{n}")
        rot = dihedral_rotation_rep(g)
        trivial = UnitaryRep(group=g, dim=1, matrices=np.ones((g.order, 1, 1)))
        sign = UnitaryRep(group=g, dim=1, matrices=np.array(
            [[[(-1.0) ** b]] for _, b in g.elements]))
        rng = np.random.default_rng(n)
        for parts, expected in (((trivial, trivial), 4), ((rot, trivial), 2),
                                ((rot, rot), 4),
                                ((rot, sign, trivial), 3),
                                ((rot, rot, trivial, trivial), 8)):
            rep = direct_sum(*parts)
            d = rep.dim
            W, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            mixed = UnitaryRep(group=g, dim=d,
                               matrices=W @ rep.matrices @ W.conj().T)
            for r in (rep, mixed):
                assert commutant_dimension(r) == commutant_by_kronecker_svd(r) == expected
                assert is_irreducible(r) == (False, expected)

    def test_left_regular_rep_of_symmetric_five(self):
        # d = 120: the Kronecker system would be 2 x 14400 x 14400 complex,
        # about 6.6 GB; the character norm reads 120 traces
        rep = left_regular_rep(make_named_group("symmetric:5"))
        assert rep.dim == 120
        assert commutant_dimension(rep) == 120

    def test_non_integer_character_norm_raises(self):
        g = make_named_group("dihedral:4")
        rep = dihedral_rotation_rep(g)
        mats = rep.matrices.copy()
        k = next(k for k in range(g.order) if k != g.identity)
        a = 0.3
        mats[k] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
        object.__setattr__(rep, "matrices", mats)
        with pytest.raises(ValueError, match="not an integer"):
            commutant_dimension(rep)
        with pytest.raises(ValueError, match="not an integer"):
            is_irreducible(rep)


# ---------------------------------------------------------------------------
# one projector-sum kernel


class TestProjectorSumOracles:
    @ORACLE_SETTINGS
    @given(state_families())
    def test_kernel_and_family_reader(self, family):
        states, weights = family
        rows, w = as_state_family(states, weights)
        assert np.array_equal(rows, rows_by_stacking(states))
        assert w.shape == (rows.shape[0],)
        want = projectors_by_einsum(np.broadcast_to(weights, w.shape), rows)
        assert_close(projector_sum(rows, w), want)
        dev = np.max(np.abs(want - np.eye(rows.shape[1])))
        assert abs(resolution_deviation(states, weights) - dev) <= 1e-12 * max(1.0, dev)

    @ORACLE_SETTINGS
    @given(state_families(), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_weight_stacks(self, family, m, seed):
        rows, _ = as_state_family(*family)
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(m, rows.shape[0]))
        stack[rng.random(stack.shape) < 0.3] = 0.0
        got = projector_sum(rows, stack)
        assert got.shape == (m,) + 2 * (rows.shape[1],)
        assert_close(got, projectors_by_einsum(stack, rows))
        for z in range(m):
            assert_close(got[z], projectors_by_einsum(stack[z], rows))

    @ORACLE_SETTINGS
    @given(state_families(), st.integers(0, 2**32 - 1))
    def test_build_operator(self, family, seed):
        states, weights = family
        rows = rows_by_stacking(states)
        w = np.broadcast_to(weights, (rows.shape[0],))
        labels = np.random.default_rng(seed).normal(size=rows.shape[0])
        bundle = _quiet_operator(states, weights, labels)
        A = labelled_sum_by_einsum(rows, w, labels)
        assert_close(bundle.matrix, (A + A.conj().T) / 2.0)

    @ORACLE_SETTINGS
    @given(state_families(), st.integers(0, 2**32 - 1))
    def test_covariance_distance(self, family, seed):
        states, weights = family
        rng = np.random.default_rng(seed)
        rows = rows_by_stacking(states)
        n, d = rows.shape
        bundle = _quiet_operator(states, weights, rng.normal(size=n))
        U, perm = _random_unitary(rng, d), rng.permutation(n)
        rhs = labelled_sum_by_einsum(rows, np.broadcast_to(weights, (n,)),
                                     bundle.labels[perm])
        oracle = float(np.linalg.norm(U.conj().T @ bundle.matrix @ U - rhs))
        report = conjugation_covariance(bundle, U, perm)
        scale = max(1.0, float(np.linalg.norm(bundle.matrix)))
        assert abs(report.distance - oracle) <= 1e-12 * scale

    @ORACLE_SETTINGS
    @given(resolving_families(), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from(["array", "vectors", "columns"]))
    def test_build_povm(self, family, outcomes, seed, form):
        rows, weights = family
        rng = np.random.default_rng(seed)
        P = rng.random(size=(rows.shape[0], outcomes))
        P[rng.random(P.shape) < 0.3] = 0.0
        P[:, 0] += 1e-3   # no row may be all zero
        P /= P.sum(axis=1, keepdims=True)
        model = StatisticalModel(P)
        povm = build_povm(model, _present(rows, form), weights)
        assert_close(povm.effects,
                     povm_effects_by_einsum(model.probabilities, rows, weights))

    @ORACLE_SETTINGS
    @given(state_families(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_build_density(self, family, normalize, seed):
        states, weights = family
        rows = rows_by_stacking(states)
        n = rows.shape[0]
        w = np.abs(np.broadcast_to(weights, (n,)))
        pi = np.random.default_rng(seed).random(size=n)
        pi[: n // 2] = 0.0
        assume(not normalize or float(np.sum(pi * w)) > 0)
        mass = pi * w
        if normalize:
            mass = mass / mass.sum()
        want = projectors_by_einsum(mass, rows)
        sigma = build_density(pi, states, w, normalize=normalize).sigma
        assert_close(sigma, (want + want.conj().T) / 2.0)

    @pytest.mark.filterwarnings("ignore:state family misses the identity")
    @ORACLE_SETTINGS
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_coarse_grain_projections(self, d, missing, k, seed):
        rng = np.random.default_rng(seed)
        n = max(1, d - missing)
        rows = _random_unitary(rng, d)[:n]
        fine = rng.permutation(n).astype(float)
        grain, _ = coarse_grain(list(rows), fine, lambda u: float(u % k))
        coarse = [float(u % k) for u in fine]
        blocks = tuple(tuple(i for i in range(n) if coarse[i] == c)
                       for c in sorted(set(coarse)))
        assert grain.blocks == blocks
        assert_close(grain.block_projections,
                     block_projections_by_einsum(rows, blocks))

    @ORACLE_SETTINGS
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_reconstruct(self, d, seed, degenerate):
        rng = np.random.default_rng(seed)
        Q = _random_unitary(rng, d)
        u = rng.normal(size=d)
        if degenerate:
            u = np.round(u)
        spec = eig_hermitian((Q * u) @ Q.conj().T)
        values = rng.normal(size=spec.n_clusters)
        values[rng.random(values.size) < 0.3] = 0.0
        for vals in (None, values):
            want = spectral_sum_by_einsum(
                np.repeat(spec.eigenvalues if vals is None else vals,
                          spec.multiplicities),
                spec.vectors)
            assert_close(spec.reconstruct(vals), want)

    @ORACLE_SETTINGS
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.floats(-20.0, 20.0))
    def test_expm_antihermitian(self, d, seed, t):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (G + G.conj().T) / 2.0
        w, V = np.linalg.eigh(H)
        assert_close(expm_antihermitian(H, t),
                     spectral_sum_by_einsum(np.exp(-1j * t * w), V))

    @ORACLE_SETTINGS
    @given(st.sampled_from(["dihedral:3", "dihedral:4", "dihedral:6",
                            "binary_tetrahedral"]),
           st.integers(0, 2**32 - 1))
    def test_frame_operator_and_transport(self, name, seed):
        g = make_named_group(name)
        if name == "binary_tetrahedral":
            rep, act, base = (binary_tetrahedral_spin_rep(g),
                              left_translation_action(g), g.identity)
        else:
            rep, act, base = dihedral_rotation_rep(g), dihedral_vertex_action(g), 0
        rng = np.random.default_rng(seed)
        cs = make_coherent(rep, act, base, rng.normal(size=2) + 1j * rng.normal(size=2))
        frame = frame_operator(cs)
        assert_close(frame.T, projectors_by_einsum(cs.state_weights(), cs.states))
        W = _random_unitary(rng, 2)
        moved = unitary_transport(cs, W)
        assert_close(moved.rep.matrices, transport_by_einsum(W, rep.matrices))
