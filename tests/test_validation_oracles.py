"""Slow, direct versions of library checks, kept as oracles.

FiniteGroup, GroupAction and UnitaryRep check each "for all pairs" law on
generators x all elements only. The exhaustive checks they replaced live
here, and property tests on random permutation groups require the
constructors and the oracles to reach the same verdicts.

Orbits, generated subgroups and the orbit test of model_reduce all run on
one vectorized routine, groups.orbit_partition. The point-by-point
breadth-first searches it replaced live here too, as does the dense stack
of spectral projections that the matrix-only covariance check used to sum.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symquant.coherent import (
    UnitaryRep,
    binary_tetrahedral_spin_rep,
    dihedral_rotation_rep,
    permutation_rep,
)
from symquant.groups import (
    FiniteGroup,
    GroupAction,
    cyclic_group,
    generate_group,
    left_translation_action,
    make_named_group,
    natural_permutation_action,
    orbit_partition,
    orbits,
    subgroup_generated,
)
from symquant.quantize import (
    NotAnOrbitError,
    conjugation_covariance,
    eigen_orbit_partition,
    model_reduce,
    operator_from_matrix,
)
from symquant.spin import perpendicular_unit, spin_component_operator, spin_rotation

settings.register_profile("oracles", max_examples=60, deadline=None,
                          derandomize=True, database=None)
ORACLE_SETTINGS = settings.get_profile("oracles")


# ---------------------------------------------------------------------------
# oracles


def associative_all_triples(cayley) -> bool:
    """(a*b)*c == a*(b*c) for every triple."""
    t = np.asarray(cayley)
    return bool(np.array_equal(t[t, :], t[:, t]))


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


# ---------------------------------------------------------------------------
# strategies


@st.composite
def permutation_sets(draw, max_points=12, max_rows=4):
    """An (r, m) array of random permutations, r = 0 included; the rows
    need not form a group."""
    m = draw(st.integers(1, max_points))
    rows = draw(st.lists(st.permutations(range(m)), max_size=max_rows))
    return np.array(rows, dtype=np.intp).reshape(len(rows), m)


@st.composite
def permutation_groups(draw, max_degree=5):
    """A permutation group on up to max_degree points from 1-3 random
    generators, built breadth-first by generate_group."""
    m = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))

    def mul(p, q):
        return tuple(p[q[i]] for i in range(m))

    return generate_group([tuple(p) for p in gens], mul, tuple(range(m)))


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
