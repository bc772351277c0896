"""Tests for variables, permissibility, induced groups, and the partial order."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from symquant.groups import (
    BadElementError,
    cyclic_group,
    left_translation_action,
    make_named_group,
    subgroup_generated,
)
from symquant.variables import (
    ConceptualVariable,
    NotPermissibleError,
    SizeMismatchError,
    accessibility_leq,
    element_value_map,
    induce_group,
    is_permissible,
    is_permissible_under,
    maximal_permissible_subgroup,
    variable_from_point_labels,
)


@pytest.fixture
def z4():
    g = cyclic_group(4)
    return g, left_translation_action(g)


@pytest.fixture
def parity():
    return variable_from_point_labels([0.0, 1.0, 0.0, 1.0])


@pytest.fixture
def indicator():
    # 1 on points {0, 1}, 0 on {2, 3}
    return variable_from_point_labels([1.0, 1.0, 0.0, 0.0])


def brute_force_permissible(var, act):
    """Independent triple-loop oracle for the defining condition."""
    for k in range(act.group.order):
        for p1 in range(var.space_size):
            for p2 in range(var.space_size):
                if var.values[p1] == var.values[p2]:
                    q1, q2 = act.perm[k, p1], act.perm[k, p2]
                    if var.values[q1] != var.values[q2]:
                        return False
    return True


class TestPermissibility:
    def test_parity_permissible(self, z4, parity):
        _, act = z4
        ok, witness = is_permissible(parity, act)
        assert ok and witness is None
        assert brute_force_permissible(parity, act)

    def test_indicator_witness(self, z4, indicator):
        _, act = z4
        ok, witness = is_permissible(indicator, act)
        assert not ok
        assert witness == (1, 0, 1)
        assert not brute_force_permissible(indicator, act)
        # the witness actually violates the condition
        k, p1, p2 = witness
        assert indicator.values[p1] == indicator.values[p2]
        assert indicator.values[act.perm[k, p1]] != indicator.values[act.perm[k, p2]]

    def test_constant_variable(self, z4):
        _, act = z4
        const = variable_from_point_labels([5.0] * 4)
        assert is_permissible(const, act) == (True, None)

    def test_injective_variable(self, z4):
        _, act = z4
        ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
        assert is_permissible(ident, act) == (True, None)

    def test_size_mismatch(self, z4, parity):
        _, act = z4
        small = variable_from_point_labels([0.0, 1.0])
        with pytest.raises(SizeMismatchError):
            is_permissible(small, act)

    def test_verdict_matches_oracle_on_random_variables(self, z4):
        _, act = z4
        rng = np.random.default_rng(9)
        for _ in range(20):
            var = variable_from_point_labels(
                [float(x) for x in rng.integers(0, 3, size=4)]
            )
            assert is_permissible(var, act)[0] == brute_force_permissible(var, act)


class TestInducedGroup:
    def test_parity_induces_order_two(self, z4, parity):
        g, act = z4
        ind = induce_group(parity, act)
        assert ind.kernel == (0, 2)
        assert ind.image_group.order == 2
        # defining identity, exhaustively and exactly
        for k in range(g.order):
            for p in range(4):
                assert ind.value_action.perm[k][parity.values[p]] == \
                    parity.values[act.perm[k, p]]

    def test_injective_variable_faithful(self, z4):
        g, act = z4
        ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
        ind = induce_group(ident, act)
        assert ind.kernel == (0,)
        assert ind.image_group.order == g.order

    def test_constant_variable_trivial_image(self, z4):
        _, act = z4
        const = variable_from_point_labels([5.0] * 4)
        ind = induce_group(const, act)
        assert ind.image_group.order == 1
        assert ind.kernel == (0, 1, 2, 3)

    def test_rejects_impermissible(self, z4, indicator):
        _, act = z4
        with pytest.raises(NotPermissibleError) as err:
            induce_group(indicator, act)
        assert err.value.witness == (1, 0, 1)

    def test_derived_values_are_not_fields(self, z4, parity):
        # the numbering, image and kernel follow from the value action, are
        # read once, and cannot be set apart from it
        _, act = z4
        ind = induce_group(parity, act)
        for name in ("kernel", "k_to_image", "image_group"):
            with pytest.raises(TypeError):
                dataclasses.replace(ind, **{name: getattr(ind, name)})
            assert getattr(ind, name) is getattr(ind, name)
        assert not ind.k_to_image.flags.writeable

    def test_quotient_injective(self, z4, parity):
        g, act = z4
        ind = induce_group(parity, act)
        # elements map to the same value permutation iff same kernel coset
        for k1 in range(g.order):
            for k2 in range(g.order):
                same_perm = ind.k_to_image[k1] == ind.k_to_image[k2]
                coset = g.cayley[g.inverses[k1], k2] in ind.kernel
                assert same_perm == coset


class TestMaximalSubgroup:
    def test_indicator_subgroup(self, z4, indicator):
        _, act = z4
        assert maximal_permissible_subgroup(indicator, act) == (0, 2)

    def test_permissible_everywhere_gives_whole_group(self, z4, parity):
        g, act = z4
        assert maximal_permissible_subgroup(parity, act) == tuple(range(g.order))

    def test_injective_gives_whole_group(self, z4):
        g, act = z4
        ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
        assert maximal_permissible_subgroup(ident, act) == tuple(range(g.order))

    def test_element_value_map_consistency(self, z4, indicator):
        _, act = z4
        g2 = element_value_map(indicator, act, 2)
        assert g2 is not None and list(g2) == [1, 0]
        assert element_value_map(indicator, act, 1) is None
        assert element_value_map(indicator, act, 3) is None

    @pytest.mark.parametrize("h", [-1, -2, 4, 1.5])
    def test_element_value_map_index_range(self, z4, indicator, h):
        # a negative index does not count from the end
        _, act = z4
        with pytest.raises(BadElementError, match="out of range"):
            element_value_map(indicator, act, h)

    @pytest.mark.parametrize("subset", [[0, -1], [0, -2], [4], [2, 4], [2**64]])
    def test_permissible_under_index_range(self, z4, indicator, subset):
        _, act = z4
        with pytest.raises(BadElementError, match="out of range"):
            is_permissible_under(indicator, act, subset)

    def test_maximality_by_brute_force(self, z4, indicator):
        g, act = z4
        H = maximal_permissible_subgroup(indicator, act)
        assert is_permissible_under(indicator, act, H)
        for h in range(g.order):
            if h in H:
                continue
            enlarged = subgroup_generated(g, list(H) + [h])
            assert not is_permissible_under(indicator, act, enlarged)

    def test_monotone_under_subgroups(self, z4, parity):
        g, act = z4
        for gens in ([], [1], [2], [3], [1, 2]):
            sub = subgroup_generated(g, gens)
            assert is_permissible_under(parity, act, sub)


class TestAccessibilityOrder:
    def test_parity_below_identity(self, z4, parity):
        ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
        ok, f = accessibility_leq(parity, ident)
        assert ok
        assert list(f) == [0, 1, 0, 1]

    def test_identity_not_below_constant(self):
        ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
        const = variable_from_point_labels([7.0] * 4)
        ok, f = accessibility_leq(ident, const)
        assert not ok and f is None

    def test_reflexive(self, parity):
        ok, f = accessibility_leq(parity, parity)
        assert ok
        assert list(f) == [0, 1]

    def test_transitive(self):
        fine = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
        mid = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
        coarse = variable_from_point_labels([0.0] * 4)
        assert accessibility_leq(mid, fine)[0]
        assert accessibility_leq(coarse, mid)[0]
        assert accessibility_leq(coarse, fine)[0]

    def test_mutual_leq_is_relabeling(self):
        a = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
        b = variable_from_point_labels([9.0, 4.0, 9.0, 4.0])
        ok_ab, f_ab = accessibility_leq(a, b)
        ok_ba, f_ba = accessibility_leq(b, a)
        assert ok_ab and ok_ba
        # both factor maps are bijections, so a and b are relabelings
        assert sorted(f_ab) == [0, 1]
        assert sorted(f_ba) == [0, 1]

    def test_size_mismatch(self, parity):
        small = variable_from_point_labels([0.0, 1.0])
        with pytest.raises(SizeMismatchError):
            accessibility_leq(parity, small)


class TestVariableType:
    def test_surjectivity_enforced(self):
        with pytest.raises(ValueError, match="every label must be attained"):
            ConceptualVariable(values=[0, 0], value_labels=(0.0, 1.0))

    def test_value_ids_out_of_range_rejected(self):
        # 2**16 + 1 must not narrow to the id 1 in int16
        for bad in (-1, 2, 2**16 + 1):
            with pytest.raises(ValueError, match="value id out of range"):
                ConceptualVariable(values=np.array([0, bad]), value_labels=("a", "b"))

    def test_values_one_per_point(self):
        with pytest.raises(ValueError, match="one id per point"):
            ConceptualVariable(values=[[0, 1]], value_labels=(0.0, 1.0))

    @pytest.mark.parametrize("labels", [(1.0, 1.0), ("a", "a"), (0, 0.0)])
    def test_repeated_labels_rejected(self, labels):
        # two ids with one label would make a constant function look like
        # a two-valued one to induce_group
        with pytest.raises(ValueError, match="labels must be distinct"):
            ConceptualVariable(values=[0, 1, 0, 1], value_labels=labels)

    @pytest.mark.parametrize("nan", [float("nan"), np.nan, np.float64("nan")])
    def test_nan_labels_rejected(self, nan):
        with pytest.raises(ValueError, match="labels must not be NaN"):
            ConceptualVariable(values=[0, 1], value_labels=(nan, 1.0))

    def test_nan_point_labels_rejected(self):
        # distinct NaN objects are distinct dict keys, and NaN has no place
        # in the ascending label order
        with pytest.raises(ValueError, match="labels must not be NaN"):
            variable_from_point_labels([np.nan, float("nan"), 1.0])

    def test_sorted_labels(self):
        var = variable_from_point_labels([3.0, 1.0, 3.0, 2.0])
        assert var.value_labels == (1.0, 2.0, 3.0)
        assert list(var.values) == [2, 0, 2, 1]


def read_all(induced):
    """The induced action, its numbering, image and kernel read once."""
    induced.k_to_image, induced.image_group, induced.kernel
    return induced


def traced(call):
    """call() and the tracemalloc peak of the call alone, in MiB."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def cyclic_5000():
    g = make_named_group("cyclic:5000")
    return g, left_translation_action(g)


class TestReadsOverAllElementsStayCompact:
    """A whole 5000 x 5000 read of the value ids under the action peaked at
    119 MiB; on element blocks each call stays near 1 MiB above the built
    group."""

    def test_is_permissible(self, cyclic_5000):
        _, act = cyclic_5000
        parity = variable_from_point_labels(np.arange(5000) % 2)
        result, peak = traced(lambda: is_permissible(parity, act))
        assert result == (True, None) and peak < 8

    def test_maximal_permissible_subgroup(self, cyclic_5000):
        _, act = cyclic_5000
        parity = variable_from_point_labels(np.arange(5000) % 2)
        half = variable_from_point_labels(np.arange(5000) < 2500)
        result, peak = traced(lambda: maximal_permissible_subgroup(parity, act))
        assert result == tuple(range(5000)) and peak < 8
        # the shift by 2500 swaps the halves, in a later block than the identity
        result, peak = traced(lambda: maximal_permissible_subgroup(half, act))
        assert result == (0, 2500) and peak < 8
        assert is_permissible(half, act) == (False, (1, 0, 2499))

    def test_induce_group(self, cyclic_5000):
        _, act = cyclic_5000
        parity = variable_from_point_labels(np.arange(5000) % 2)
        induced, peak = traced(lambda: read_all(induce_group(parity, act)))
        assert induced.image_group.order == 2 and peak < 8
        assert induced.kernel == tuple(range(0, 5000, 2))
        assert np.array_equal(induced.k_to_image, np.arange(5000) % 2)

    def test_permissibility_of_the_identity_labelling_keeps_no_maps(self):
        # a yes/no verdict reads the 2000 x 2000 value maps block by block
        # and keeps none; concatenating them took the peak to 15.4 MiB
        g = make_named_group("cyclic:2000")
        act = left_translation_action(g)
        ident = variable_from_point_labels(np.arange(2000))
        result, peak = traced(lambda: is_permissible(ident, act))
        assert result == (True, None) and peak < 2

    def test_induce_group_of_the_identity_labelling(self):
        # the 2000 value maps are all distinct, so the image is the group;
        # read as one whole table and keyed by tuples of their rows, they
        # took the call's peak to 191 MiB
        g = make_named_group("cyclic:2000")
        act = left_translation_action(g)
        ident = variable_from_point_labels(np.arange(2000))
        induced, peak = traced(lambda: read_all(induce_group(ident, act)))
        assert induced.image_group.order == 2000 and induced.kernel == (0,)
        assert peak < 100
