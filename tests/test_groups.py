"""Tests for finite groups, actions, orbits, and invariant measures."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symquant.groups import (
    BadElementError,
    FiniteGroup,
    GroupAction,
    MassCountMismatchError,
    OrderTooLargeError,
    UnknownGroupNameError,
    check_homomorphism,
    counting_measure,
    cyclic_group,
    cyclic_shift_action,
    dihedral_vertex_action,
    haar_measure,
    invariant_measure,
    is_transitive,
    left_translation_action,
    make_named_group,
    orbits,
    subgroup_generated,
)


class TestNamedGroups:
    def test_cyclic_four(self):
        g = make_named_group("cyclic:4")
        assert g.order == 4
        assert g.is_abelian
        # breadth-first generation orders elements by power of the generator
        expected = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        assert np.array_equal(g.cayley, expected)

    def test_dihedral_four_relations(self):
        g = make_named_group("dihedral:4")
        assert g.order == 8
        assert not g.is_abelian
        r = g.elements.index((1, 0))
        s = g.elements.index((0, 1))
        e = g.identity
        # r^4 = e
        x = e
        for _ in range(4):
            x = g.mul(x, r)
        assert x == e
        # s^2 = e
        assert g.mul(s, s) == e
        # s r s = r^{-1}
        assert g.mul(g.mul(s, r), s) == g.inv(r)

    def test_binary_tetrahedral(self):
        g = make_named_group("binary_tetrahedral")
        assert g.order == 24
        # 8 unit quaternions plus 16 half-units, all of norm 1
        doubled = np.array(g.elements)
        norms = (doubled ** 2).sum(axis=1)
        assert np.all(norms == 4)
        n_axis_units = sum(1 for q in g.elements if sorted(map(abs, q)) == [0, 0, 0, 2])
        assert n_axis_units == 8

    @pytest.mark.parametrize("n,order", [(1, 1), (2, 2), (3, 6), (4, 24)])
    def test_symmetric(self, n, order):
        assert make_named_group(f"symmetric:{n}").order == order

    def test_direct_product(self):
        g = make_named_group("cyclic:2xcyclic:2")
        assert g.order == 4
        assert g.is_abelian
        # every non-identity element squares to the identity
        assert all(g.mul(x, x) == g.identity for x in range(4))

    def test_unknown_name(self):
        for bad in ("", "quaternion:8", "cyclic", "cyclic:x"):
            with pytest.raises(UnknownGroupNameError):
                make_named_group(bad)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLargeError):
            make_named_group("symmetric:8")
        with pytest.raises(OrderTooLargeError):
            make_named_group("cyclic:20000")

    def test_validation_rejects_broken_table(self):
        with pytest.raises(ValueError):
            FiniteGroup(order=2, cayley=[[0, 0], [1, 1]], identity=0,
                        inverses=[0, 1])

    def test_rejects_non_associative_loop_above_order_64(self):
        # one intercalate swapped in the cyclic:66 table: still a Latin
        # square with identity and inverses, but no longer associative
        g = cyclic_group(66)
        t = g.cayley.copy()
        rows, cols = [1, 1, 34, 34], [1, 34, 1, 34]
        t[rows, cols] = t[rows, cols][[1, 0, 3, 2]]
        for gens in ((), (1,), tuple(range(1, 66))):
            with pytest.raises(ValueError):
                FiniteGroup(order=66, cayley=t, identity=0,
                            inverses=g.inverses, generators=gens)
        with pytest.raises(ValueError, match="associativity"):
            FiniteGroup(order=66, cayley=t, identity=0, inverses=g.inverses)

    def test_generators_must_generate(self):
        g = cyclic_group(6)
        with pytest.raises(ValueError, match="reach 3 of 6"):
            FiniteGroup(order=6, cayley=g.cayley, identity=0,
                        inverses=g.inverses, generators=(2,))
        assert FiniteGroup(order=6, cayley=g.cayley, identity=0,
                           inverses=g.inverses, generators=(2, 3)).depth == 3


class TestActionsAndOrbits:
    def test_trivial_group_orbits(self):
        g = cyclic_group(1)
        act = GroupAction(group=g, space_size=3, perm=[[0, 1, 2]])
        assert orbits(act) == ((0,), (1,), (2,))
        assert not is_transitive(act)

    def test_shift_action_single_orbit(self):
        act = cyclic_shift_action(cyclic_group(4))
        assert orbits(act) == ((0, 1, 2, 3),)
        assert is_transitive(act)

    def test_sign_flip_single_orbit(self):
        g = cyclic_group(2)
        act = GroupAction(group=g, space_size=2, perm=[[0, 1], [1, 0]])
        assert orbits(act) == ((0, 1),)

    def test_dihedral_vertices_transitive(self):
        g = make_named_group("dihedral:4")
        act = dihedral_vertex_action(g)
        # independent oracle: reachability by composing the raw permutations
        reach = {0}
        changed = True
        while changed:
            changed = False
            for k in range(g.order):
                for x in list(reach):
                    y = int(act.perm[k, x])
                    if y not in reach:
                        reach.add(y)
                        changed = True
        assert reach == {0, 1, 2, 3}
        assert is_transitive(act)

    def test_orbits_invariant_under_element_reordering(self):
        g = make_named_group("dihedral:3")
        act = dihedral_vertex_action(g)
        rng = np.random.default_rng(0)
        sigma = rng.permutation(g.order)
        inv_sigma = np.argsort(sigma)
        relabeled = FiniteGroup(
            order=g.order,
            cayley=sigma[g.cayley[np.ix_(inv_sigma, inv_sigma)]],
            identity=int(sigma[g.identity]),
            inverses=sigma[g.inverses[inv_sigma]],
        )
        act2 = GroupAction(group=relabeled, space_size=act.space_size,
                           perm=act.perm[inv_sigma])
        assert orbits(act2) == orbits(act)

    def test_action_validation_rejects_bad_composition(self):
        # a 3-cycle does not square to the identity, so it is no C2 action
        g = cyclic_group(2)
        with pytest.raises(ValueError):
            GroupAction(group=g, space_size=3, perm=[[0, 1, 2], [1, 2, 0]])

    def test_left_translation_action_is_valid_and_transitive(self):
        g = make_named_group("binary_tetrahedral")
        act = left_translation_action(g)
        assert is_transitive(act)


class TestMeasures:
    def test_haar_uniform(self):
        g = cyclic_group(4)
        assert_allclose(haar_measure(g), np.ones(4))
        d4 = make_named_group("dihedral:4")
        w = haar_measure(d4)
        assert_allclose(w, np.ones(8))
        assert w.sum() == d4.order

    def test_haar_left_and_right_invariant(self):
        # weight arrays indexed by elements: invariance under both
        # translations means w[k*x] == w[x] == w[x*k] for all k, x
        g = make_named_group("dihedral:3")
        w = haar_measure(g)
        for k in range(g.order):
            assert_allclose(w[g.cayley[k]], w)
            assert_allclose(w[g.cayley[:, k]], w)

    def test_uniform_mass_on_transitive_orbit(self):
        act = cyclic_shift_action(cyclic_group(4))
        m = invariant_measure(act, [1.0])
        assert_allclose(m.weights, [0.25, 0.25, 0.25, 0.25])

    def test_two_orbits(self):
        g = cyclic_group(3)
        # fixes point 0, cycles 1,2,3
        act = GroupAction(group=g, space_size=4,
                          perm=[[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
        m = invariant_measure(act, [1.0, 1.0])
        assert_allclose(m.weights, [1.0, 1 / 3, 1 / 3, 1 / 3])

    def test_mass_two_on_pair_orbit(self):
        g = cyclic_group(2)
        act = GroupAction(group=g, space_size=2, perm=[[0, 1], [1, 0]])
        m = invariant_measure(act, [2.0])
        assert_allclose(m.weights, [1.0, 1.0])

    def test_mass_count_mismatch(self):
        act = cyclic_shift_action(cyclic_group(4))
        with pytest.raises(MassCountMismatchError):
            invariant_measure(act, [1.0, 1.0])

    def test_invariance_exact(self):
        g = make_named_group("dihedral:4")
        act = dihedral_vertex_action(g)
        m = invariant_measure(act, [3.7])
        for k in range(g.order):
            assert np.all(m.weights[act.perm[k]] == m.weights)

    def test_counting_measure(self):
        act = cyclic_shift_action(cyclic_group(5))
        assert_allclose(counting_measure(act).weights, np.ones(5))


class TestSubgroupsAndHoms:
    def test_subgroup_generated_examples(self):
        g = cyclic_group(4)
        assert subgroup_generated(g, [2]) == (0, 2)
        assert subgroup_generated(g, []) == (0,)
        assert subgroup_generated(g, [1]) == (0, 1, 2, 3)

    def test_subgroup_bad_element(self):
        with pytest.raises(BadElementError):
            subgroup_generated(cyclic_group(4), [7])

    def test_subgroup_closed_in_nonabelian(self):
        g = make_named_group("dihedral:4")
        s = g.elements.index((0, 1))
        sub = subgroup_generated(g, [s])
        assert sub == tuple(sorted((g.identity, s)))
        for a in sub:
            for b in sub:
                assert g.mul(a, b) in sub

    def test_identity_hom(self):
        g = cyclic_group(4)
        ok, witness = check_homomorphism(np.arange(4), g, g)
        assert ok and witness is None

    def test_mod_two_reduction_hom(self):
        g4, g2 = cyclic_group(4), cyclic_group(2)
        f = [0, 1, 0, 1]
        ok, _ = check_homomorphism(f, g4, g2)
        assert ok
        # independent 16-pair oracle
        for a in range(4):
            for b in range(4):
                assert f[(a + b) % 4] == (f[a] + f[b]) % 2

    def test_doubling_map_verdict_matches_oracle(self):
        g = cyclic_group(4)
        f = [(2 * k) % 4 for k in range(4)]
        ok, _ = check_homomorphism(f, g, g)
        oracle = all(
            f[(a + b) % 4] == (f[a] + f[b]) % 4 for a in range(4) for b in range(4)
        )
        assert ok == oracle

    def test_non_hom_witness(self):
        g4, g2 = cyclic_group(4), cyclic_group(2)
        ok, witness = check_homomorphism([0, 0, 1, 0], g4, g2)
        assert not ok
        a, b = witness
        f = [0, 0, 1, 0]
        assert f[g4.mul(a, b)] != g2.mul(f[a], f[b])
