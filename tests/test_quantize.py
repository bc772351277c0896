"""Tests for operator construction, covariance, orbits, reduction, coarse
graining, and question/answer matching."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from symquant.groups import (BadElementError, GroupAction, cyclic_group,
                             dihedral_vertex_action, left_translation_action,
                             make_named_group)
from symquant import linalg, quantize, variables
from symquant.coherent import (UnitaryRep, dihedral_rotation_rep, left_regular_rep,
                               permutation_rep)
from symquant.linalg import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
    eig_hermitian,
)
from symquant.phasespace import clock_rep, fourier_matrix, shift_rep
from symquant.quantize import (
    NotAnOrbitError,
    NotInSubgroupError,
    NotUnitError,
    OperatorBundle,
    SpectrumNotPreservedError,
    build_operator,
    coarse_grain,
    conjugation_covariance,
    covariance_check,
    eigen_orbit_partition,
    maximality_check,
    model_reduce,
    operator_from_matrix,
    question_answer_match,
    spectrum_permutations,
)
from symquant.spin import spin_generators
from symquant.variables import (
    ConceptualVariable,
    accessibility_leq,
    induce_group,
    variable_from_point_labels,
)

QUBIT = np.eye(2, dtype=complex)


class TestBuildOperator:
    def test_spin_half_component(self):
        b = build_operator(QUBIT, 1.0, [0.5, -0.5])
        assert_allclose(b.matrix, np.diag([0.5, -0.5]), atol=1e-15)
        assert_allclose(b.eigenvalues, [-0.5, 0.5])

    def test_unit_labels_give_identity(self):
        b = build_operator(QUBIT, 1.0, [1.0, 1.0])
        assert np.max(np.abs(b.matrix - np.eye(2))) <= 1e-10

    def test_strict_mode_raises(self):
        with pytest.raises(ValueError, match="misses the identity"):
            build_operator([np.array([1.0, 0.0])], 1.0, [5.0])

    def test_orthonormal_unit_weights_eigenvalues_are_labels(self):
        rng = np.random.default_rng(2)
        W, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        labels = [3.0, -1.0, 0.5, 2.0]
        b = build_operator(W.T, 1.0, labels)
        assert_allclose(b.eigenvalues, sorted(labels), atol=1e-9)

    @pytest.mark.parametrize("states, weights, labels, message", [
        ([[np.nan, 0.0], [0.0, 1.0]], 1.0, [0.0, 1.0], "state entries"),
        ([[np.inf, 0.0], [0.0, 1.0]], 1.0, [0.0, 1.0], "state entries"),
        (QUBIT, [np.nan, 1.0], [0.0, 1.0], "weights"),
        (QUBIT, 1.0, [np.nan, 1.0], "labels"),
        (QUBIT, 1.0, [np.inf, 1.0], "labels"),
    ])
    def test_non_finite_family_refused(self, states, weights, labels, message):
        # a NaN deviation from the identity used to pass the resolution
        # test, and the operator came back NaN
        with pytest.raises(ValueError, match=f"{message} must be finite"):
            build_operator(states, weights, labels)

    def test_label_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_operator(QUBIT, 1.0, [1.0])

    def test_real_labels_give_hermitian(self):
        rng = np.random.default_rng(6)
        W, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        b = build_operator(W.T, 1.0, [1.0, 2.0, 3.0])
        assert np.max(np.abs(b.matrix - b.matrix.conj().T)) <= 1e-10

    def test_unitary_conjugation_preserves_spectrum(self):
        rng = np.random.default_rng(8)
        labels = [0.0, 1.0, 4.0]
        b = build_operator(np.eye(3, dtype=complex), 1.0, labels)
        W, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        moved = operator_from_matrix(W @ b.matrix @ W.conj().T)
        assert_allclose(moved.eigenvalues, b.eigenvalues, atol=1e-9)

    def test_spectral_sum_matches_quadratic_form(self):
        # <v|A|v> = sum_j u_j |<w_j|v>|^2 over the eigenvector columns w_j
        rng = np.random.default_rng(4)
        b = build_operator(np.eye(5, dtype=complex), 1.0, rng.normal(size=5))
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        spec = b.spectrum
        u = np.repeat(spec.eigenvalues, spec.multiplicities)
        spectral = float(u @ np.abs(spec.vectors.conj().T @ v) ** 2)
        direct = float((v.conj() @ b.matrix @ v).real)
        assert abs(spectral - direct) <= 1e-9


class TestFunctionsOfLabels:
    """A function f of a variable is quantized by passing the labels
    [f(u) for u in labels] to build_operator."""

    def test_indicator_projects(self):
        labels = [0.5, -0.5]
        b = build_operator(QUBIT, 1.0, [1.0 if u == 0.5 else 0.0 for u in labels])
        assert_allclose(b.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_square_on_spin_one(self):
        b = build_operator(np.eye(3, dtype=complex), 1.0,
                           [u * u for u in (1.0, 0.0, -1.0)])
        assert_allclose(b.matrix, np.diag([1.0, 0.0, 1.0]), atol=1e-15)
        assert list(b.spectrum.multiplicities) == [1, 2]

    def test_eigenvalues_are_the_function_values(self):
        rng = np.random.default_rng(12)
        W, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        labels = np.array([2.0, -1.0, 0.0, 1.0])
        f = lambda u: u ** 2 + 1.0
        b = build_operator(W.T, 1.0, [f(u) for u in labels])
        assert_allclose(b.eigenvalues, sorted({f(u) for u in labels}), atol=1e-9)

    def test_agrees_with_functional_calculus(self):
        # on an orthonormal family, the operator of f(labels) is f applied
        # to the spectrum of the operator of the labels
        rng = np.random.default_rng(13)
        W, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        labels = [-2.0, -1.0, 0.0, 1.0, 2.0]
        f = np.abs
        a = build_operator(W.T, 1.0, labels)
        fa = build_operator(W.T, 1.0, [f(u) for u in labels])
        assert_allclose(fa.matrix, a.spectrum.reconstruct(f(a.eigenvalues)),
                        atol=1e-12)
        assert not maximality_check(fa)


class TestSpectrumOnFirstRead:
    """A bundle eigendecomposes its matrix when its spectrum is first read;
    the input checks of the builders still run at the call."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []

        def counted(A, *args, **kwargs):
            calls.append(A)
            return eig_hermitian(A, *args, **kwargs)

        for mod in (linalg, quantize):
            monkeypatch.setattr(mod, "eig_hermitian", counted)
        return calls

    def test_non_square_matrix_refused_at_the_call(self, eig_calls):
        with pytest.raises(NotSquareError):
            operator_from_matrix(np.ones((2, 3)))
        assert eig_calls == []

    def test_empty_matrix_refused_at_the_call(self, eig_calls):
        with pytest.raises(DimensionMismatchError, match="matrix must be nonempty"):
            operator_from_matrix(np.zeros((0, 0)))
        assert eig_calls == []

    def test_non_hermitian_matrix_refused_at_the_call(self, eig_calls):
        with pytest.raises(NotHermitianError):
            operator_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert eig_calls == []

    def test_bundle_refuses_a_non_hermitian_matrix(self, eig_calls):
        # the record itself, however it is built: maximality_check would
        # otherwise meet the matrix only in the lazy spectrum
        with pytest.raises(NotHermitianError):
            OperatorBundle(matrix=[[0, 1], [0, 0]])
        assert eig_calls == []

    def test_replaced_matrix_is_checked(self, eig_calls):
        bundle = operator_from_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(NotHermitianError):
            dataclasses.replace(bundle, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSquareError):
            dataclasses.replace(bundle, matrix=np.ones((2, 3)))
        assert eig_calls == []

    def test_family_missing_the_identity_refused_at_the_call(self, eig_calls):
        with pytest.raises(ValueError, match="misses the identity"):
            build_operator([np.array([1.0, 0.0])], 1.0, [5.0])
        assert eig_calls == []

    @pytest.mark.parametrize("build", [
        lambda: build_operator(np.eye(3, dtype=complex), 1.0, [2.0, -1.0, 2.0]),
        lambda: operator_from_matrix(spin_generators(1.5)[0]),
    ])
    def test_spectrum_is_computed_once_on_first_read(self, build, eig_calls):
        b = build()
        assert eig_calls == []
        first = b.spectrum
        assert b.spectrum is first
        assert b.eigenvalues is first.eigenvalues
        assert len(eig_calls) == 1
        want = eig_hermitian(b.matrix)
        for name in ("eigenvalues", "multiplicities", "vectors"):
            got = getattr(first, name)
            assert got.dtype == getattr(want, name).dtype
            assert got.tobytes() == getattr(want, name).tobytes(), name


class TestCovariance:
    def test_identity_element(self):
        b = build_operator(QUBIT, 1.0, [0.5, -0.5])
        rep = conjugation_covariance(b, np.eye(2), [0, 1])
        assert rep.distance <= 1e-15

    def test_qubit_swap(self):
        b = build_operator(QUBIT, 1.0, [0.5, -0.5])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = conjugation_covariance(b, swap, [1, 0])
        assert rep.distance <= 1e-9
        # explicit conjugation oracle
        lhs = swap @ np.diag([0.5, -0.5]) @ swap
        assert_allclose(lhs, np.diag([-0.5, 0.5]))

    def test_spin_one_half_turn(self):
        # pi-rotation about x reverses the z component
        Jx, _, Jz = spin_generators(1.0)
        b = operator_from_matrix(Jz)
        U = scipy.linalg.expm(-1j * np.pi * Jx)
        rep = conjugation_covariance(b, U, [2, 1, 0])
        assert rep.distance <= 1e-9
        assert np.linalg.norm(U.conj().T @ Jz @ U + Jz) <= 1e-9

    def test_group_wrapper_and_subgroup_error(self):
        g = cyclic_group(4)
        act = left_translation_action(g)
        parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
        indicator = variable_from_point_labels([1.0, 1.0, 0.0, 0.0])
        induced = induce_group(parity, act)
        value_rep = permutation_rep(induced.value_action)
        bundle = build_operator(QUBIT, 1.0, list(parity.value_labels))
        for h in range(4):
            rep = covariance_check(bundle, value_rep, h, parity, act)
            assert rep.distance <= 1e-9
        with pytest.raises(NotInSubgroupError):
            covariance_check(bundle, value_rep, 1, indicator, act)


class TestCovarianceOverElements:
    @pytest.fixture
    def z4_parity(self):
        g = cyclic_group(4)
        act = left_translation_action(g)
        parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
        value_rep = permutation_rep(induce_group(parity, act).value_action)
        bundle = build_operator(QUBIT, 1.0, list(parity.value_labels))
        return g, act, parity, value_rep, bundle

    def test_whole_group_and_repeats(self, z4_parity):
        _, act, parity, value_rep, bundle = z4_parity
        for elements in (range(4), [3, 1, 3, 0, 0], (2,)):
            report = covariance_check(bundle, value_rep, elements, parity, act)
            assert report.distance <= 1e-15

    def test_worst_element_is_reported(self, z4_parity):
        # the trivial representation conjugates nothing, so the elements
        # that swap the two parities miss by ||diag(0, 1) - diag(1, 0)||
        g, act, parity, _, bundle = z4_parity
        trivial = UnitaryRep(group=g, matrices=np.broadcast_to(np.eye(2), (4, 2, 2)))
        assert covariance_check(bundle, trivial, [0, 2], parity, act).distance <= 1e-9
        for elements in ([0, 1], [2, 0, 3], 3):
            report = covariance_check(bundle, trivial, elements, parity, act)
            assert abs(report.distance - np.sqrt(2.0)) <= 1e-12

    def test_first_element_outside_subgroup_is_named(self, z4_parity):
        _, act, _, value_rep, bundle = z4_parity
        indicator = variable_from_point_labels([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(NotInSubgroupError, match="^element 3 does not"):
            covariance_check(bundle, value_rep, [0, 2, 3, 1], indicator, act)

    def test_empty_set_rejected(self, z4_parity):
        _, act, parity, value_rep, bundle = z4_parity
        with pytest.raises(ValueError, match="at least one"):
            covariance_check(bundle, value_rep, [], parity, act)

    @pytest.mark.parametrize("elements", [-1, 4, [0, -1], [1, 4],
                                          np.array([1, 4], dtype=np.uint8),
                                          np.array([0, -1], dtype=np.int8)])
    def test_index_range(self, z4_parity, elements):
        # a negative index does not count from the end
        _, act, parity, value_rep, bundle = z4_parity
        with pytest.raises(BadElementError, match="out of range"):
            covariance_check(bundle, value_rep, elements, parity, act)


class TestCovarianceInputsThatDoNotFit:
    """A rep and an action of different groups, or a unitary of another
    dimension than the operator's, are refused before any conjugation."""

    @pytest.mark.parametrize("name", ["cyclic:4", "cyclic:2"])
    def test_rep_of_another_group_refused(self, name):
        # cyclic:4 has the order of dihedral:2, the Klein group, and its
        # left regular rep fits the 4-dimensional operator
        g = make_named_group("dihedral:2")
        act = left_translation_action(g)
        labels = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
        bundle = build_operator(np.eye(4), 1.0, list(labels.value_labels))
        with pytest.raises(ValueError, match="different groups"):
            covariance_check(bundle, left_regular_rep(make_named_group(name)),
                             0, labels, act)

    def test_rep_of_another_dimension_refused(self):
        g = cyclic_group(4)
        act = left_translation_action(g)
        parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
        bundle = build_operator(QUBIT, 1.0, list(parity.value_labels))
        with pytest.raises(DimensionMismatchError, match="dimension 4, operator of dimension 2"):
            covariance_check(bundle, left_regular_rep(g), 1, parity, act)

    def test_unitary_of_another_dimension_refused(self):
        bundle = build_operator(QUBIT, 1.0, [0.5, -0.5])
        with pytest.raises(DimensionMismatchError, match="dimension 3, operator of dimension 2"):
            conjugation_covariance(bundle, np.eye(3), [0, 1])


class TestSingleElementCovariance:
    """One element per call, as the benchmark's group ladder checks: the
    same kernel as a set call, on one element's value map and matrix."""

    @staticmethod
    def dihedral_parity(n):
        g = make_named_group(f"dihedral:{n}")
        act = dihedral_vertex_action(g)
        parity = variable_from_point_labels([x % 2 for x in range(n)])
        bundle = build_operator(QUBIT, 1.0, list(parity.value_labels))
        return g, act, parity, bundle

    @staticmethod
    def clock_momentum(n):
        # the identity labelling of cyclic:n's points under left translation
        # and the momentum operator: the clock, of modulus n, shifts the
        # Fourier basis as the translations shift the labels, while the
        # shift, of modulus 1, commutes with the operator
        g = cyclic_group(n)
        act = left_translation_action(g)
        var = variable_from_point_labels(range(n))
        bundle = build_operator(fourier_matrix(n).T, 1.0, range(n))
        return g, act, var, bundle, (clock_rep(g), shift_rep(g))

    @pytest.mark.parametrize("n, route", [(4, "states"), (6, "states"), (24, "states"),
                                          (24, "matrix"), (6, "clock")],
                             ids=["4", "6", "24", "matrix-24", "clock-6"])
    def test_max_over_single_calls_is_the_set_distance(self, n, route):
        # every route of _covariance (a state family, or a bare matrix
        # relabelled through its spectrum) and of conjugated (dense, a
        # permutation, phases): the trivial rep misses the parity swap by
        # sqrt(2), the clock holds within rounding, and the others differ
        # from the relabelled operator by rounding or by a swap
        if route == "clock":
            g, act, var, bundle, reps = self.clock_momentum(n)
        else:
            g, act, var, bundle = self.dihedral_parity(n)
            if route == "matrix":
                bundle = operator_from_matrix(bundle.matrix)
            value_rep = permutation_rep(induce_group(var, act).value_action)
            trivial = UnitaryRep(group=g, matrices=np.broadcast_to(QUBIT, (g.order, 2, 2)))
            reps = (value_rep, dihedral_rotation_rep(g), trivial)
        distances = []
        for rep in reps:
            single = max(covariance_check(bundle, rep, h, var, act).distance
                         for h in range(g.order))
            whole = covariance_check(bundle, rep, range(g.order), var, act)
            assert single == whole.distance
            distances.append(whole.distance)
        if route == "clock":
            assert distances[0] <= 1e-12 < 1.0 <= distances[1]
        else:
            assert abs(distances[-1] - np.sqrt(2.0)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 6, 24])
    def test_non_permissible_element_refused_by_both_forms(self, n):
        g, act, _, bundle = self.dihedral_parity(n)
        half = variable_from_point_labels([x < n // 2 for x in range(n)])
        rep = dihedral_rotation_rep(g)
        messages = []
        for elements in (1, [0, 1]):
            with pytest.raises(NotInSubgroupError) as err:
                covariance_check(bundle, rep, elements, half, act)
            messages.append(str(err.value))
        assert messages == ["element 1 does not act through a value permutation"] * 2

    @pytest.mark.parametrize("n", [4, 24])
    def test_first_points_computed_once(self, n, monkeypatch):
        g, act, parity, bundle = self.dihedral_parity(n)
        value_rep = permutation_rep(induce_group(parity, act).value_action)
        prop = ConceptualVariable.__dict__["first_points"]
        first, calls = prop.func, []

        def counted(var):
            calls.append(var)
            return first(var)

        monkeypatch.setattr(prop, "func", counted)
        fresh = variable_from_point_labels([x % 2 for x in range(n)])
        for h in range(g.order):
            covariance_check(bundle, value_rep, h, fresh, act)
        assert len(calls) == 1 and calls[0] is fresh


class TestBlockedCovariance:
    """A large set is checked a block of elements at a time, so that its
    value maps and conjugates never stand as |elements| x points arrays."""

    N = 600

    @pytest.fixture
    def cyclic_thirds(self):
        # x mod 3 on the points of cyclic:600: every translation permutes
        # its three values, and a family of states that is not the
        # standard basis leaves each element a nonzero distance
        g = cyclic_group(self.N)
        act = left_translation_action(g)
        var = variable_from_point_labels(np.arange(self.N) % 3)
        rep = permutation_rep(induce_group(var, act).value_action)
        states = scipy.linalg.expm(1j * np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]) / 3)
        bundle = build_operator(states, 1.0, [0.0, 1.0, 3.0])
        return act, var, rep, bundle

    def test_blocks_give_the_distance_of_one_block(self, cyclic_thirds, monkeypatch):
        act, var, rep, bundle = cyclic_thirds
        blocks = []
        original = variables.element_blocks

        def recorded(n, size):
            blocks.append(original(n, size))
            return blocks[-1]

        monkeypatch.setattr(variables, "element_blocks", recorded)
        blocked = covariance_check(bundle, rep, range(self.N), var, act).distance
        assert len(blocks[-1]) > 1
        monkeypatch.setattr(variables, "element_blocks", lambda n, size: [slice(0, n)])
        whole = covariance_check(bundle, rep, range(self.N), var, act).distance
        single = max(covariance_check(bundle, rep, k, var, act).distance
                     for k in range(self.N))
        assert blocked == whole == single > 0.1

    def test_first_element_outside_subgroup_in_a_later_block(self, cyclic_thirds):
        act, _, rep, bundle = cyclic_thirds
        # only the identity keeps the points 0 and 1 together; element 7
        # comes last but one, in the last block
        pair = variable_from_point_labels(np.arange(self.N) < 2)
        with pytest.raises(NotInSubgroupError, match="^element 7 does not"):
            covariance_check(bundle, rep, [0] * (self.N - 1) + [7, 5], pair, act)

    def test_set_call_stays_below_one_table(self):
        # all 2000 elements of cyclic:2000 on its points: one int16
        # |elements| x points table would be 7.6 MiB
        n = 2000
        act = left_translation_action(cyclic_group(n))
        parity = variable_from_point_labels(np.arange(n) % 2)
        rep = permutation_rep(induce_group(parity, act).value_action)
        bundle = build_operator(QUBIT, 1.0, [0.0, 1.0])
        parity.first_points
        tracemalloc.start()
        try:
            assert covariance_check(bundle, rep, range(n), parity, act).distance == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_one_element_reads_its_index_once(self, cyclic_thirds, monkeypatch):
        act, var, rep, bundle = cyclic_thirds
        calls = []
        original = variables.element_indices

        def counted(elements, order):
            calls.append(elements)
            return original(elements, order)

        monkeypatch.setattr(variables, "element_indices", counted)
        covariance_check(bundle, rep, 5, var, act)
        assert calls == [5]


class TestEigenOrbits:
    def test_sign_flip_pair(self):
        b = build_operator(QUBIT, 1.0, [0.5, -0.5])
        perms = spectrum_permutations(b.eigenvalues, [lambda u: u, lambda u: -u])
        assert eigen_orbit_partition(b, perms) == ((0, 1),)

    def test_trivial_group_singletons(self):
        b = build_operator(np.eye(3, dtype=complex), 1.0, [1.0, 0.0, -1.0])
        assert eigen_orbit_partition(b, [np.arange(3)]) == ((0,), (1,), (2,))

    def test_flip_fixes_zero(self):
        b = build_operator(np.eye(3, dtype=complex), 1.0, [1.0, 0.0, -1.0])
        perms = spectrum_permutations(b.eigenvalues, [lambda u: -u])
        blocks = eigen_orbit_partition(b, perms)
        assert blocks == ((0, 2), (1,))
        assert [b.eigenvalues[list(x)].tolist() for x in blocks] == [[-1.0, 1.0], [0.0]]

    def test_spectrum_not_preserved(self):
        b = build_operator(np.eye(3, dtype=complex), 1.0, [-1.0, 0.0, 2.0])
        with pytest.raises(SpectrumNotPreservedError):
            spectrum_permutations(b.eigenvalues, [lambda u: -u])
        for row in ([0, 0, 1], [0, 1, 3], [-1, 0, 1]):
            with pytest.raises(SpectrumNotPreservedError, match="onto itself"):
                eigen_orbit_partition(b, [np.arange(3), row])

    def test_induced_value_permutations(self):
        # parity on Z4: the odd shifts swap the two values, so the two
        # eigenvalue ids form one orbit under value_action.perm
        g = cyclic_group(4)
        act = left_translation_action(g)
        parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
        induced = induce_group(parity, act)
        b = build_operator(QUBIT, 1.0, list(parity.value_labels))
        assert eigen_orbit_partition(b, induced.value_action.perm) == ((0, 1),)

    def test_induced_value_permutations_with_fixed_values(self):
        # cyclic:2 on three points, swapping 1 and 2 and fixing 0: the
        # identity variable's blocks are {0} and {1, 2}
        act = GroupAction(group=cyclic_group(2), perm=[[0, 1, 2], [0, 2, 1]])
        var = variable_from_point_labels([0.0, 1.0, 2.0])
        induced = induce_group(var, act)
        b = build_operator(np.eye(3, dtype=complex), 1.0, list(var.value_labels))
        assert eigen_orbit_partition(b, induced.value_action.perm) == ((0,), (1, 2))


class TestModelReduce:
    def test_spin_half_labels(self):
        eigs = [-0.5, 0.5]
        perms = spectrum_permutations(eigs, [lambda u: u, lambda u: -u])
        reduced = model_reduce(eigs, perms, [-0.5, 0.5])
        assert reduced.value_labels == (-0.5, 0.5)
        assert reduced.space_size == 2

    def test_singleton_orbit_under_trivial_group(self):
        reduced = model_reduce([0.0], [np.arange(1)], [0.0])
        assert reduced.value_labels == (0.0,)

    def test_rejects_non_orbit(self):
        eigs = [-1.0, 0.0, 1.0]
        perms = spectrum_permutations(eigs, [lambda u: -u])
        with pytest.raises(NotAnOrbitError):
            model_reduce(eigs, perms, [-1.0, 0.0])

    def test_rejects_union_of_orbits(self):
        eigs = [-1.0, 0.0, 1.0]
        perms = spectrum_permutations(eigs, [lambda u: -u])
        with pytest.raises(NotAnOrbitError):
            model_reduce(eigs, perms, [-1.0, 0.0, 1.0])

    def test_rejects_label_outside_spectrum(self):
        with pytest.raises(NotAnOrbitError):
            model_reduce([0.0, 1.0], [np.arange(2)], [2.0])

    def test_rejects_empty_target(self):
        with pytest.raises(NotAnOrbitError, match="empty"):
            model_reduce([1.0, 2.0], [[0, 1]], [])


class TestMaximality:
    def test_distinct_eigenvalues(self):
        b = operator_from_matrix(np.diag([1.0, 0.0, -1.0]))
        assert maximality_check(b)

    def test_squared_labels_collide(self):
        b = operator_from_matrix(np.diag([1.0, 0.0, 1.0]))
        assert not maximality_check(b)

    def test_identity_fully_degenerate(self):
        assert not maximality_check(operator_from_matrix(np.eye(2)))


class TestCoarseGrain:
    def test_non_finite_coarse_label_refused(self):
        # blocks ((), ()) came back for a relabelling that returns NaN
        with pytest.raises(ValueError, match="labels must be finite"):
            coarse_grain(np.eye(2, dtype=complex), [0.5, -0.5], lambda u: np.nan)

    def test_non_finite_basis_refused(self):
        with pytest.raises(ValueError, match="state entries must be finite"):
            coarse_grain([[np.nan, 0.0], [0.0, 1.0]], [0.5, -0.5], lambda u: u)

    def test_identity_map_recovers_operator(self):
        basis = np.eye(3, dtype=complex)
        blocks, bundle = coarse_grain(basis, [1.0, 0.0, -1.0], lambda u: u)
        assert blocks == ((2,), (1,), (0,))
        assert bundle.eigenvalues.tolist() == [-1.0, 0.0, 1.0]
        assert_allclose(bundle.matrix, np.diag([1.0, 0.0, -1.0]), atol=1e-15)
        assert maximality_check(bundle)

    def test_square_blocks(self):
        basis = np.eye(3, dtype=complex)
        blocks, bundle = coarse_grain(basis, [1.0, 0.0, -1.0], lambda u: u * u)
        assert bundle.eigenvalues.tolist() == [0.0, 1.0]
        assert blocks == ((1,), (0, 2))
        assert_allclose(bundle.matrix, np.diag([1.0, 0.0, 1.0]), atol=1e-15)
        assert not maximality_check(bundle)
        # the eigenspace of the coarse label 1 is spanned by its block
        assert_allclose(bundle.spectrum.reconstruct([0.0, 1.0]),
                        np.diag([1.0, 0.0, 1.0]), atol=1e-15)

    def test_constant_map(self):
        basis = np.eye(2, dtype=complex)
        blocks, bundle = coarse_grain(basis, [0.5, -0.5], lambda u: 3.0)
        assert blocks == ((0, 1),)
        assert bundle.eigenvalues.tolist() == [3.0]
        assert_allclose(bundle.matrix, 3.0 * np.eye(2), atol=1e-15)
        assert not maximality_check(bundle)

    def test_requires_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            coarse_grain([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0], lambda u: u)

    def test_partial_orthonormal_family_refused(self):
        # two orthonormal vectors in three dimensions do not resolve the
        # identity, so no operator is built from them
        basis = np.eye(3, dtype=complex)[:2]
        with pytest.raises(ValueError, match="misses the identity by 1.000e"):
            coarse_grain(basis, [1.0, -1.0], lambda u: u)

    def test_split_degenerate_block_flips_maximality(self):
        # refining a degenerate operator into distinct labels makes the
        # coarse variable a non-injective function of the fine one
        fine = variable_from_point_labels([1.0, 0.0, -1.0])
        coarse = variable_from_point_labels([1.0, 0.0, 1.0])
        ok, f = accessibility_leq(coarse, fine)
        assert ok
        assert len(set(f.tolist())) < len(fine.value_labels)  # non-injective
        basis = np.eye(3, dtype=complex)
        _, fine_bundle = coarse_grain(basis, [1.0, 0.0, -1.0], lambda u: u)
        _, coarse_bundle = coarse_grain(basis, [1.0, 0.0, -1.0], lambda u: u * u)
        assert maximality_check(fine_bundle)
        assert not maximality_check(coarse_bundle)

    @pytest.fixture
    def z4_parity_map(self):
        # parity read off as an accessible function of the identity
        # variable on Z4, through accessibility_leq's table
        ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
        parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
        ok, f = accessibility_leq(parity, ident)
        assert ok
        to_parity = dict(zip(ident.value_labels,
                             (parity.value_labels[i] for i in f)))
        return ident.value_labels, to_parity.__getitem__

    def test_parity_on_z4_pairs_even_and_odd(self, z4_parity_map):
        labels, t = z4_parity_map
        blocks, bundle = coarse_grain(np.eye(4, dtype=complex), labels, t)
        assert blocks == ((0, 2), (1, 3))
        assert bundle.eigenvalues.tolist() == [0.0, 1.0]
        assert_allclose(bundle.matrix, np.diag([0.0, 1.0, 0.0, 1.0]), atol=1e-15)

    def test_parity_on_z4_is_not_maximal(self, z4_parity_map):
        labels, t = z4_parity_map
        basis = np.eye(4, dtype=complex)
        _, coarse = coarse_grain(basis, labels, t)
        _, fine = coarse_grain(basis, labels, lambda u: u)
        assert not maximality_check(coarse)
        assert maximality_check(fine)


class TestQuestionAnswer:
    @pytest.fixture
    def qubit_bases(self):
        z = np.eye(2, dtype=complex)
        x = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
        return {"z": z, "x": x}

    def test_z_plus_matches_z_only(self, qubit_bases):
        # overlap table: |<x pm|z+>|^2 = 1/2 < 1 - tol
        matches = question_answer_match(np.array([1.0, 0.0]), qubit_bases)
        assert matches == [("z", 0)]

    def test_x_plus_matches_x_only(self, qubit_bases):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        matches = question_answer_match(v, qubit_bases)
        assert matches == [("x", 0)]

    def test_tilted_vector_matches_none(self, qubit_bases):
        v = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        assert question_answer_match(v, qubit_bases) == []

    def test_phase_insensitive(self, qubit_bases):
        v = np.exp(1j * 0.7) * np.array([1.0, 0.0])
        assert question_answer_match(v, qubit_bases) == [("z", 0)]

    def test_not_unit(self, qubit_bases):
        with pytest.raises(NotUnitError):
            question_answer_match(np.array([1.0, 1.0]), qubit_bases)
