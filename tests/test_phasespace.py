"""Tests for the finite cyclic phase-space machinery."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symquant.coherent import UnitaryRep
from symquant.groups import cyclic_group
from symquant.phasespace import (
    BadSizeError,
    clock_rep,
    clock_unitary,
    commutator_norm,
    fourier_matrix,
    momentum_operator,
    mub_deviation,
    position_operator,
    shift_rep,
    shift_unitary,
)


class TestFourier:
    def test_two_point_by_hand(self):
        F = fourier_matrix(2)
        assert_allclose(F, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)
        assert np.max(np.abs(np.abs(F) ** 2 - 0.5)) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 17))
    def test_unitary_and_unbiased(self, n):
        F = fourier_matrix(n)
        assert np.linalg.norm(F.conj().T @ F - np.eye(n)) <= 1e-12 * n
        assert mub_deviation(n) <= 1e-10

    def test_bad_size(self):
        with pytest.raises(BadSizeError):
            fourier_matrix(1)


class TestShiftAndClock:
    def test_shift_moves_basis(self):
        S = shift_unitary(4, 1)
        for x in range(4):
            e = np.zeros(4)
            e[x] = 1.0
            out = S @ e
            assert out[(x + 1) % 4] == 1.0

    def test_shift_by_n_is_identity(self):
        assert_allclose(shift_unitary(4, 4), np.eye(4), atol=1e-15)
        S = shift_unitary(4, 1)
        assert_allclose(np.linalg.matrix_power(S, 4), np.eye(4), atol=1e-15)

    def test_clock_phases(self):
        M = clock_unitary(3, 1)
        w = np.exp(2j * np.pi / 3)
        assert_allclose(np.diag(M), [1.0, w, w ** 2], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reps_are_valid(self, n):
        # UnitaryRep validation checks the product law on generators x all
        # elements, which bounds every Cayley pair
        srep = shift_rep(n)
        crep = clock_rep(n)
        assert srep.dim == crep.dim == n

    @pytest.mark.parametrize("n", [2, 4, 7, 64])
    def test_shift_rep_is_the_permutation_rep_of_the_shifts(self, n):
        mats = np.stack([shift_unitary(n, k) for k in range(n)])
        srep = shift_rep(n)
        assert srep.matrices.dtype == mats.dtype
        assert srep.matrices.tobytes() == mats.tobytes()
        assert srep.law_error == 0.0

    @pytest.mark.parametrize("n", [64, 128])
    def test_clock_law_error_is_the_whole_stack_maximum(self, n):
        # the law is measured on slices of elements: 16 slices of 4 at
        # n = 64, 128 slices of one at n = 128
        crep = clock_rep(n)
        mats, g = crep.matrices, crep.group
        whole = max(
            float(np.max(np.linalg.norm(mats[s] @ mats - mats[g.cayley[s]], axis=(1, 2))))
            for s in g.generating_set
        )
        assert crep.law_error == whole

    @pytest.mark.parametrize("factor, message", [
        (1.001, "element 127 is not unitary"),
        (np.exp(1e-6j), "product law fails at generator 1 "),   # unitary
    ])
    def test_fault_in_the_last_slice_is_caught(self, factor, message):
        n = 128
        mats = np.stack([clock_unitary(n, k) for k in range(n)])
        mats[n - 1] *= factor
        with pytest.raises(ValueError, match=message):
            UnitaryRep(group=cyclic_group(n), matrices=mats)

    def test_group_of_another_order_rejected(self):
        with pytest.raises(ValueError, match="cannot shift"):
            shift_rep(4, cyclic_group(5))
        with pytest.raises(ValueError, match="stack of 5 square matrices"):
            clock_rep(4, cyclic_group(5))

    def test_weyl_commutation(self):
        n = 4
        S = shift_unitary(n)
        M = clock_unitary(n)
        w = np.exp(2j * np.pi / n)
        # the clock and shift braid by one phase per step
        assert np.linalg.norm(M @ S - w * S @ M) <= 1e-12


class TestOperators:
    def test_position_diagonal(self):
        X = position_operator(3).matrix
        assert_allclose(X, np.diag([0.0, 1.0, 2.0]), atol=1e-15)

    def test_momentum_is_fourier_conjugate(self):
        n = 5
        F = fourier_matrix(n)
        X = position_operator(n).matrix
        P = momentum_operator(n).matrix
        assert np.linalg.norm(P - F @ X @ F.conj().T) <= 1e-12

    def test_noncommutation_three_by_hand(self):
        # oracle: build the 3x3 commutator explicitly from the DFT
        n = 3
        F = fourier_matrix(n)
        X = np.diag(np.arange(n, dtype=float))
        P = F @ X @ F.conj().T
        norm = np.linalg.norm(X @ P - P @ X)
        assert norm > 0.1
        assert abs(commutator_norm(n) - norm) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 17))
    def test_noncommutation_everywhere(self, n):
        assert commutator_norm(n) > 1e-6

    def test_spectra_are_full_lattice(self):
        for n in (2, 5):
            assert_allclose(position_operator(n).eigenvalues, np.arange(n))
            assert_allclose(momentum_operator(n).eigenvalues, np.arange(n),
                            atol=1e-9)
