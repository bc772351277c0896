"""Tests for finite groups, actions and orbits."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from symquant import groups
from symquant.groups import (
    BadElementError,
    FiniteGroup,
    GeneratorLawError,
    GroupAction,
    OrderTooLargeError,
    UnknownGroupNameError,
    check_homomorphism,
    cyclic_group,
    dihedral_vertex_action,
    element_blocks,
    element_indices,
    generate_group,
    generator_law,
    is_transitive,
    left_translation_action,
    make_named_group,
    orbit_partition,
    orbits,
    subgroup_generated,
)
from symquant.variables import ConceptualVariable, variable_from_point_labels

# SHA-256 of each named group's Cayley table as little-endian int64. The
# tables are integers, so the digests are the same on every platform; a
# change to the element order of a named group changes its digest.
CAYLEY_SHA256 = {
    "cyclic:1": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "cyclic:6": "2e06ad144d1c87196b9321980710b463c6fba841e32b478a8276b1e72213ece7",
    "cyclic:64": "6d8988074a34eebaeed944798d4fa44b21266b91c05575e8c036efb936a699f9",
    "dihedral:1": "db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8",
    "dihedral:2": "cd18db5001222f5aa2e67a2e1ec7bedb6c97259bc407ac0536383a96da99ee0d",
    "dihedral:4": "0f8e8639240aafeb34206674b3c9b959c60888269e784124abd1c13ac8d85ab0",
    "dihedral:24": "d17c4c87b869d9f359858e4ae8666256a3f0d2aafd282f179e582304ad14a679",
    "dihedral:200": "ca09b0cc214311795e21f1725541936d34e2a57d30ed01c185c8e0488ee0d22f",
    "symmetric:3": "00c2207c6dc19a5a026b2979b44eef1a223251213ae8cc9c8d51c31604f55e54",
    "symmetric:4": "12de8f85aee855561355cdc0865043a30e79e911ff638ef26d60f75c855a7144",
    "symmetric:5": "0c3028285ab5321164e78641cc8a115f60cdef6334a81676213de4f7110248d1",
    "symmetric:6": "dfbaca1d389953bbb010c04083cf13aa50bc1d4bafdf901f4d1df865fac053f6",
    "binary_tetrahedral": "d17242f6da89adc172a151c82715193d3a7a8357257a12b26bcb0902a15e194a",
    "cyclic:2xcyclic:3": "c945688de4660acf690fcfe1961eeea175d081be758d95cb25aee774b8bfd7cb",
    "dihedral:3xcyclic:2": "5f3785375fbd4e53296f0e801a8b83790afb9a0aa47003cca5c664a10c0b881f",
}


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
        t = g.cayley
        x = e
        for _ in range(4):
            x = t[x, r]
        assert x == e
        # s^2 = e
        assert t[s, s] == e
        # s r s = r^{-1}
        assert t[t[s, r], s] == g.inverses[r]

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
        assert all(g.cayley[x, x] == g.identity for x in range(4))

    def test_dihedral_one_is_order_two(self):
        # the rotation generator (1 mod 1, 0) is the identity: D1 = {e, s}
        g = make_named_group("dihedral:1")
        assert g.order == 2
        assert g.elements == ((0, 0), (0, 1))
        assert g.generators == (1,)
        assert np.array_equal(g.cayley, [[0, 1], [1, 0]])
        act = dihedral_vertex_action(g)
        assert act.space_size == 1
        assert np.array_equal(act.perm, [[0], [0]])

    @pytest.mark.parametrize("name", sorted(CAYLEY_SHA256))
    def test_is_abelian_matches_whole_table_oracle(self, name):
        # is_abelian tests only that the generators commute; the oracle
        # compares every pair, the whole table with its transpose
        g = make_named_group(name)
        assert g.is_abelian == np.array_equal(g.cayley, g.cayley.T)

    @pytest.mark.parametrize("name", ["cyclic:6", "dihedral:4", "cyclic:2xcyclic:3"])
    def test_is_abelian_without_recorded_generators(self, name):
        # with none recorded every element is a generator
        g = make_named_group(name)
        assert FiniteGroup(g.cayley).is_abelian == g.is_abelian

    @pytest.mark.parametrize("name", sorted(CAYLEY_SHA256))
    def test_cayley_tables_pinned(self, name):
        t = make_named_group(name).cayley
        digest = hashlib.sha256(np.ascontiguousarray(t, dtype="<i8").tobytes())
        assert digest.hexdigest() == CAYLEY_SHA256[name]

    def test_elements_are_python_values(self):
        assert all(type(x) is int for x in make_named_group("cyclic:5").elements)
        for name in ("dihedral:3", "symmetric:3", "binary_tetrahedral",
                     "cyclic:2xcyclic:3"):
            for x in make_named_group(name).elements:
                assert type(x) is tuple and all(type(c) is int for c in x)

    def test_unknown_name(self):
        for bad in ("", "quaternion:8", "cyclic", "cyclic:x"):
            with pytest.raises(UnknownGroupNameError):
                make_named_group(bad)

    def test_order_too_large(self):
        # an order reached only through a large n is refused by naming the
        # group: 2000! and 2n for n of 4,300 nines have more digits than
        # Python formats (a bare ValueError), and 100000! took 0.13 s
        nines = "9" * 4300
        for name, message in [
            ("symmetric:8", "order 40320 exceeds 10000"),
            ("cyclic:20000", "order 20000 exceeds 10000"),
            ("symmetric:2000", "order of symmetric:2000 exceeds 10000"),
            ("symmetric:100000", "order of symmetric:100000 exceeds 10000"),
            (f"dihedral:{nines}", f"order of dihedral:{nines} exceeds 10000"),
        ]:
            with pytest.raises(OrderTooLargeError, match=f"^{re.escape(message)}$"):
                make_named_group(name)

    def test_product_above_the_bound_is_refused_before_any_factor_is_built(self, monkeypatch):
        # 14 factors of order 2, 2**14 = 16384 elements: building every
        # factor and the products up to order 8192 before the refusal took
        # 9.4 s and 170 MiB
        built = []
        post_init = FiniteGroup.__post_init__
        monkeypatch.setattr(FiniteGroup, "__post_init__",
                            lambda g: built.append(g.name) or post_init(g))
        refusals = [
            ("x".join(["cyclic:2"] * 14), OrderTooLargeError, "order 16384 exceeds 10000"),
            # the first running product above the bound, as direct_product names it
            ("cyclic:100xcyclic:200xcyclic:3", OrderTooLargeError, "order 20000 exceeds 10000"),
            ("dihedral:6000xcyclic:2", OrderTooLargeError, "order 12000 exceeds 10000"),
            # a factor that its builder refuses is refused first, in order
            ("cyclic:5000xcyclic:5000xcyclic:0", UnknownGroupNameError,
             "cyclic order must be >= 1"),
            ("cyclic:5000xsymmetric:0", UnknownGroupNameError,
             "symmetric order parameter must be >= 1"),
            ("cyclic:5000xfoo:3xcyclic:5000", UnknownGroupNameError,
             "unknown group name: 'foo:3'"),
            ("cyclic:5000xcyclic:5000x", UnknownGroupNameError, "bad group name: ''"),
        ]
        for name, error, message in refusals:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                make_named_group(name)
        assert built == []
        assert make_named_group("cyclic:2xdihedral:3").order == 12

    def test_validation_rejects_broken_table(self):
        # a row or a column that is not a permutation breaks the identity
        # laws, or else associativity: a Latin-square check would be implied
        with pytest.raises(ValueError, match="identity laws"):
            FiniteGroup([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="identity laws"):
            FiniteGroup([[0, 1], [0, 1]])
        # a table that is not square has no identity row and column
        with pytest.raises(ValueError, match="identity laws"):
            FiniteGroup([[0, 1, 1], [1, 0, 0]])
        # a monoid: 1*1 == 1, so 1 has no inverse, though the identity laws
        # and associativity hold
        with pytest.raises(ValueError, match="inverse law"):
            FiniteGroup([[0, 1], [1, 1]])
        # identity row and column, self-inverse elements, row 1 repeats 0
        with pytest.raises(ValueError, match="associativity"):
            FiniteGroup([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
        # 1*2 == 0 == 2*2, but 2*1 != 0: right inverses only, which
        # associativity rules out
        with pytest.raises(ValueError, match="associativity"):
            FiniteGroup([[0, 1, 2], [1, 1, 0], [2, 1, 0]])

    def test_entries_out_of_range_rejected(self):
        # -1 must not wrap around to the element 2 it would index, nor
        # 2**16 + 1 narrow to the element 1 it is in int16
        g = cyclic_group(3)
        for (a, b), bad in (((1, 1), -1), ((1, 1), 3), ((2, 2), 2**16 + 1)):
            t = g.cayley.astype(np.int64)
            t[a, b] = bad
            with pytest.raises(ValueError, match="cayley entries out of range"):
                FiniteGroup(t)

    def test_identity_and_inverses_read_off_the_table(self):
        # cyclic:3 relabelled so that the identity is element 2
        t = np.array([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
        g = FiniteGroup(t)
        assert (g.order, g.identity) == (3, 2)
        assert g.inverses.tolist() == [1, 0, 2]

    def test_rejects_non_associative_loop_above_order_64(self):
        # one intercalate swapped in the cyclic:66 table: still a Latin
        # square with identity and inverses, but no longer associative
        g = cyclic_group(66)
        t = g.cayley.copy()
        rows, cols = [1, 1, 34, 34], [1, 34, 1, 34]
        t[rows, cols] = t[rows, cols][[1, 0, 3, 2]]
        for gens in ((), (1,), tuple(range(1, 66))):
            with pytest.raises(ValueError):
                FiniteGroup(t, generators=gens)
        with pytest.raises(ValueError, match="associativity"):
            FiniteGroup(t)

    def test_generators_must_generate(self):
        g = cyclic_group(6)
        with pytest.raises(ValueError, match="reach 3 of 6"):
            FiniteGroup(g.cayley, generators=(2,))
        assert FiniteGroup(g.cayley, generators=(2, 3)).depth == 3


def _relabelled(t, sigma):
    """The table t with element x renamed sigma[x]."""
    inv = np.argsort(sigma)
    return sigma[np.asarray(t)[np.ix_(inv, inv)]]


def _last_block(n):
    return element_blocks(n, n * n)[-1]


class TestCompactTables:
    @pytest.mark.parametrize("name", sorted(CAYLEY_SHA256))
    def test_named_groups_actions_and_values_store_int16(self, name):
        g = make_named_group(name)
        assert g.cayley.dtype == np.int16 and not g.cayley.flags.writeable
        act = left_translation_action(g)
        assert act.perm.dtype == np.int16
        # the table's rows are the maps: shared, not copied
        assert act.perm is g.cayley
        var = variable_from_point_labels([x % 3 for x in range(g.order)])
        assert var.values.dtype == np.int16

    def test_wider_ranges_take_a_wider_dtype(self):
        for n, dtype in ((2**15, np.int16), (2**15 + 1, np.int32)):
            var = ConceptualVariable(np.arange(n), tuple(range(n)))
            assert var.values.dtype == dtype
            act = GroupAction(group=cyclic_group(1), perm=[np.arange(n)])
            assert act.perm.dtype == dtype

    def test_inverse_fault_in_the_last_row_block(self):
        # row 190 of cyclic:200 loses its identity entry: no inverse
        g = cyclic_group(200)
        assert len(element_blocks(200, 200 * 200)) > 1
        assert _last_block(200).start <= 190
        t = g.cayley.copy()
        t[190, 10] = 5
        with pytest.raises(ValueError, match="inverse law fails"):
            FiniteGroup(t, generators=g.generators)

    def test_associativity_fault_in_the_last_row_block(self):
        # the intercalate (50, 20), (50, 120), (150, 20), (150, 120) of
        # cyclic:200 swapped; Light's test at generator 1 then fails on
        # rows 49, 50, 149 and 150, which the relabelling moves into the
        # last block (196, 197 and 149, 150)
        n = 200
        t = cyclic_group(n).cayley.copy()
        rows, cols = [50, 50, 150, 150], [20, 120, 20, 120]
        t[rows, cols] = t[rows, cols][[1, 0, 3, 2]]
        sigma = np.arange(n)
        sigma[[49, 50, 196, 197]] = [196, 197, 49, 50]
        t = _relabelled(t, sigma)
        bad = np.flatnonzero((t[t[:, 1]] != t[:, t[1]]).any(axis=1))
        assert bad.min() >= _last_block(n).start
        with pytest.raises(ValueError, match="associativity fails at generator 1$"):
            FiniteGroup(t, generators=(1,))

    def test_composition_fault_in_the_last_row_block(self):
        # the map of element 190 replaced by that of 191: the law at
        # generator 1 fails for the elements 189 and 190 only
        g = cyclic_group(200)
        perm = g.cayley.copy()
        perm[190] = perm[191]
        t = g.cayley
        bad = np.flatnonzero((perm[t[1]] != perm[1][perm]).any(axis=1))
        assert bad.min() >= _last_block(200).start
        with pytest.raises(ValueError,
                           match="composition law fails at generator 1$"):
            GroupAction(group=g, perm=perm)

    def test_peak_memory_of_a_large_cyclic_group(self):
        # the Cayley table of cyclic:2000 is 7.6 MiB as int16; with intp
        # tables and whole-table law checks the same calls peaked at 157 MiB
        tracemalloc.start()
        try:
            g = make_named_group("cyclic:2000")
            assert orbits(left_translation_action(g)) == (tuple(range(2000)),)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestGenerateGroup:
    @staticmethod
    def torus_mul(counter, n):
        def mul(x, y):
            counter.append(np.broadcast_shapes(x.shape, y.shape))
            return (x + y) % n
        return mul

    def test_no_mul_call_per_pair(self):
        # Z_20 x Z_20: 160000 pairs, depth 38; one call per level and per
        # block of table rows
        calls = []
        g = generate_group([(1, 0), (0, 1)], self.torus_mul(calls, 20), (0, 0))
        assert g.order == 400 and g.depth == 38
        assert len(calls) < 100
        assert sum(int(np.prod(shape[:-1])) for shape in calls) >= 400 * 400

    def test_integer_elements(self):
        calls = []
        g = generate_group([2], self.torus_mul(calls, 6), 0)
        assert g.elements == (0, 2, 4)
        assert all(shape[-1] == 1 for shape in calls)
        assert np.array_equal(g.cayley, [[0, 1, 2], [1, 2, 0], [2, 0, 1]])

    def test_duplicate_and_identity_generators_skipped(self):
        g = generate_group([0, 3, 3, 1], lambda a, b: (a + b) % 4, 0)
        assert g.elements == (0, 3, 1, 2)
        assert g.generators == (1, 2)

    def test_order_bound(self, monkeypatch):
        # the bound is read at the call
        monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 49)
        with pytest.raises(OrderTooLargeError, match="maximum order 49"):
            generate_group([1], lambda a, b: (a + b) % 50, 0)
        monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 50)
        assert generate_group([1], lambda a, b: (a + b) % 50, 0).order == 50

    def test_product_below_the_box_is_not_an_element(self):
        # Z_2 x Z_2 by xor, except (1, 1)*(1, 1) = (1, -1): below the box in
        # its second coordinate, though its mixed-radix key 2*1 - 1 is that
        # of the element (0, 1). The closure never forms that product.
        def mul(x, y):
            out = x ^ y
            both = (x == 1).all(axis=-1) & (y == 1).all(axis=-1)
            return np.where(both[..., None], [1, -1], out)

        with pytest.raises(ValueError, match="elements 3 and 3 is not an element"):
            generate_group([(1, 0), (0, 1)], mul, (0, 0))

    def test_coordinate_box_bounded(self):
        # Z_2 as {(0, 0), (1, h)}: 2 * (h + 1) points in the bounding box
        def z2(h):
            return generate_group([(1, h)], lambda x, y: (x + y) % [2, 2 * h], (0, 0))

        assert z2(1000).order == 2
        with pytest.raises(ValueError, match="box of 200002 points"):
            z2(100000)

    def test_mul_must_return_integer_coordinates(self):
        with pytest.raises(ValueError, match="integer coordinates"):
            generate_group([1], lambda a, b: (a + b) / 2, 0)
        with pytest.raises(ValueError, match="integer coordinates"):
            generate_group([(1, 0)], lambda a, b: a[..., 0] + b[..., 0], (0, 0))


class TestActionsAndOrbits:
    def test_trivial_group_orbits(self):
        g = cyclic_group(1)
        act = GroupAction(group=g, perm=[[0, 1, 2]])
        assert orbits(act) == ((0,), (1,), (2,))
        assert not is_transitive(act)

    def test_shift_action_single_orbit(self):
        act = left_translation_action(cyclic_group(4))
        assert orbits(act) == ((0, 1, 2, 3),)
        assert is_transitive(act)

    def test_sign_flip_single_orbit(self):
        g = cyclic_group(2)
        act = GroupAction(group=g, perm=[[0, 1], [1, 0]])
        assert orbits(act) == ((0, 1),)

    def test_fixed_point_and_three_cycle(self):
        # Z3 fixes point 0 and cycles 1 -> 2 -> 3
        g = cyclic_group(3)
        act = GroupAction(group=g, perm=[[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
        assert orbits(act) == ((0,), (1, 2, 3))
        assert not is_transitive(act)

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
        relabeled = FiniteGroup(sigma[g.cayley[np.ix_(inv_sigma, inv_sigma)]])
        act2 = GroupAction(group=relabeled, perm=act.perm[inv_sigma])
        assert orbits(act2) == orbits(act)

    def test_action_validation_rejects_bad_composition(self):
        # a 3-cycle does not square to the identity, so it is no C2 action
        g = cyclic_group(2)
        with pytest.raises(ValueError):
            GroupAction(group=g, perm=[[0, 1, 2], [1, 2, 0]])
        # a map that is no bijection breaks the composition law: the
        # element squares to the identity, so its map would have to invert
        # itself
        with pytest.raises(ValueError, match="composition law"):
            GroupAction(group=g, perm=[[0, 1, 2], [0, 0, 1]])
        # a negative entry must not wrap around to a valid point, nor
        # 2**16 + 1 narrow to the point 1 in int16
        for row in ([0, 1, 3], [-1, 0, 1], [0, 2**16 + 1, 2]):
            with pytest.raises(ValueError, match="out of range"):
                GroupAction(group=g, perm=[[0, 1, 2], row])

    def test_left_translation_action_is_valid_and_transitive(self):
        g = make_named_group("binary_tetrahedral")
        act = left_translation_action(g)
        assert is_transitive(act)

    def test_the_table_itself_is_not_checked_again(self, monkeypatch):
        # its law (s*k)*x = s*(k*x) is associativity, proved by FiniteGroup
        g = make_named_group("dihedral:4")
        calls = []
        monkeypatch.setattr(groups, "generator_law",
                            lambda *args, **kw: calls.append(args[3]))
        assert GroupAction(group=g, perm=g.cayley).perm is g.cayley
        assert left_translation_action(g).perm is g.cayley
        assert calls == []
        # an equal copy of the table is an array like any other
        GroupAction(group=g, perm=g.cayley.copy())
        assert calls == ["action composition law"]

    @pytest.mark.parametrize("name", ["cyclic:5", "dihedral:4"])
    def test_table_with_two_rows_swapped_is_refused(self, name):
        # rows 1 and 2 of cyclic:5 are shifts by 1 and 2, and of dihedral:4
        # a rotation and a flip: no automorphism exchanges either pair
        g = make_named_group(name)
        swapped = g.cayley.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        with pytest.raises(ValueError, match="composition law"):
            GroupAction(group=g, perm=swapped)


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
                assert g.cayley[a, b] in sub

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
        assert f[g4.cayley[a, b]] != g2.cayley[f[a], f[b]]

    def test_fractional_images_rejected(self):
        # read as [0, 1, 0, 1], a homomorphism, had they been truncated
        with pytest.raises(BadElementError, match="1.7"):
            check_homomorphism([0, 1.7, 0, 1.2], cyclic_group(4), cyclic_group(2))

    def test_fractional_seed_rejected(self):
        # read as 1, the whole group, had it been truncated
        with pytest.raises(BadElementError, match="1.5"):
            subgroup_generated(cyclic_group(4), [1.5])

    def test_huge_image_rejected(self):
        g = cyclic_group(4)
        with pytest.raises(BadElementError, match=str(2**64)):
            check_homomorphism([0, 1, 2, 2**64], g, g)

    def test_map_of_the_wrong_shape_rejected(self):
        g = cyclic_group(4)
        with pytest.raises(ValueError, match="one image per source element"):
            check_homomorphism(np.arange(4).reshape(2, 2), g, g)

    def test_integral_floats_are_indices(self):
        assert element_indices([2.0, 0, True], 4).tolist() == [2, 0, 1]
        assert element_indices(3, 4).tolist() == [3]
        assert element_indices(np.array([3, 0], dtype=np.uint8), 4).tolist() == [3, 0]
        for bad in (-1, 4, 0.5, float("nan"), 2**63, 2**64):
            with pytest.raises(BadElementError):
                element_indices([0, bad], 4)
        # integer arrays with an entry out of range, of their own dtype
        for dtype, bad in ((np.int8, -1), (np.uint64, 2**63), (np.int64, 4)):
            with pytest.raises(BadElementError,
                               match=rf"^element index {bad} out of range: "
                                     r"not an integer in range\(4\)$"):
                element_indices(np.array([0, bad], dtype=dtype), 4)

    @pytest.mark.parametrize("x", [
        0, 4, True, np.int16(3), np.uint64(3), -1, 5, 2**64, 2.0, 1.5,
        range(0), range(5), range(4, -1, -1), range(1, 5, 2),
        range(-1, 3), range(2, 6), range(0, 6, 5), range(5, 0, -2)])
    def test_read_at_once_matches_the_array_route(self, x):
        # an integer scalar or a range inside range(5) is read at once; each
        # input reads as its list does, and a scalar as its 0-d array too
        if isinstance(x, range):
            forms, listed = (x,), list(x)
        else:
            forms, listed = (x, np.array(x)), [x]
        for form in forms:
            try:
                expected = element_indices(listed, 5)
            except BadElementError as exc:
                with pytest.raises(BadElementError) as err:
                    element_indices(form, 5)
                assert str(err.value) == str(exc)
            else:
                got = element_indices(form, 5)
                assert got.dtype == expected.dtype == np.intp
                assert got.ndim == 1 and np.array_equal(got, expected)

    def test_identity_map_of_a_large_group_stays_small(self):
        # all pairs through intp temporaries peaked at 42 MiB here
        g = make_named_group("cyclic:2000")
        tracemalloc.start()
        try:
            assert check_homomorphism(np.arange(2000), g, g) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestGeneratorLaw:
    def test_no_elements_give_no_blocks(self):
        assert element_blocks(0, 0) == [] and element_blocks(0, 2**15) == []

    def test_largest_error_over_generators_and_blocks(self):
        g = make_named_group("dihedral:3")
        seen = []

        def error(s, b):
            seen.append((s, b))
            return np.arange(g.order)[b] * s / 10

        # the largest error, 1.0, is within tol = 1.0
        generator_law(g, 2**15, error, "test law", tol=1.0)
        # generators 1 and 2, each on the three blocks of 2**15 entries
        blocks = element_blocks(g.order, 2**15)
        assert len(blocks) == 3
        assert seen == [(s, b) for s in g.generators for b in blocks]

    def test_raises_at_the_first_generator_over_tol(self):
        g = make_named_group("dihedral:3")
        with pytest.raises(GeneratorLawError,
                           match=r"^test law fails at generator 2 \(error 1.000e\+00\)$") as exc:
            generator_law(g, g.order, lambda s, b: np.arange(g.order)[b] * s / 10,
                          "test law", tol=0.7)
        assert exc.value.generator == 2

    def test_exact_law_message_has_no_error(self):
        g = cyclic_group(3)
        with pytest.raises(GeneratorLawError, match=r"^exact law fails at generator 1$"):
            generator_law(g, g.order, lambda s, b: np.ones(g.order, dtype=bool)[b],
                          "exact law")

    def test_no_recorded_generators_checks_every_element(self):
        g = FiniteGroup(cyclic_group(4).cayley)
        seen = []
        generator_law(g, g.order, lambda s, b: seen.append(s) or np.zeros(1), "law")
        assert seen == [0, 1, 2, 3]
