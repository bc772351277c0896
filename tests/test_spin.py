"""Tests for the angular-momentum machinery."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from symquant.linalg import is_unitary
from symquant.quantize import maximality_check
from symquant.spin import (
    MAX_SPIN,
    BadSpinError,
    _check_spin,
    component_matrix,
    perpendicular_unit,
    rotation_from_vector,
    spin_component_operator,
    spin_generators,
    spin_rotation,
)

SQ2 = np.sqrt(2.0)


class TestGenerators:
    def test_spin_half_matrices(self):
        Jx, Jy, Jz = spin_generators(0.5)
        assert_allclose(Jz, np.diag([0.5, -0.5]), atol=1e-15)
        assert_allclose(Jx, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)
        assert_allclose(Jy, 0.5 * np.array([[0, -1j], [1j, 0]]), atol=1e-15)

    def test_spin_one_matrices(self):
        Jx, _, Jz = spin_generators(1.0)
        assert_allclose(Jz, np.diag([1.0, 0.0, -1.0]), atol=1e-15)
        ladder = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / SQ2
        assert_allclose(Jx, ladder, atol=1e-15)

    @pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_traceless_and_commutation(self, j):
        Jx, Jy, Jz = spin_generators(j)
        for J in (Jx, Jy, Jz):
            assert abs(np.trace(J)) <= 1e-12
        assert np.max(np.abs(Jx @ Jy - Jy @ Jx - 1j * Jz)) <= 1e-10
        assert np.max(np.abs(Jy @ Jz - Jz @ Jy - 1j * Jx)) <= 1e-10
        assert np.max(np.abs(Jz @ Jx - Jx @ Jz - 1j * Jy)) <= 1e-10

    @pytest.mark.parametrize("bad", [-0.5, 0.3, 1.2])
    def test_bad_spin(self, bad):
        with pytest.raises(BadSpinError):
            spin_generators(bad)

    def test_spin_bounded_by_max_spin(self):
        assert _check_spin(MAX_SPIN) == MAX_SPIN
        for big in (MAX_SPIN + 0.5, 1e7, 1e300):
            with pytest.raises(BadSpinError, match="largest supported spin"):
                _check_spin(big)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
    def test_casimir(self, j):
        Jx, Jy, Jz = spin_generators(j)
        J2 = Jx @ Jx + Jy @ Jy + Jz @ Jz
        assert_allclose(J2, j * (j + 1) * np.eye(int(2 * j) + 1), atol=1e-12)


class TestComponentOperator:
    def test_z_direction_spin_half(self):
        b = spin_component_operator(0.5, [0.0, 0.0, 1.0])
        assert_allclose(b.eigenvalues, [-0.5, 0.5], atol=1e-12)

    def test_x_direction_spin_one(self):
        b = spin_component_operator(1.0, [1.0, 0.0, 0.0])
        # oracle: independent eigensolver on the explicit ladder matrix
        Jx, _, _ = spin_generators(1.0)
        expect = np.sort(np.linalg.eigvalsh(Jx))
        assert_allclose(b.eigenvalues, expect, atol=1e-12)
        assert_allclose(b.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-9)

    def test_diagonal_direction(self):
        a = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        b = spin_component_operator(0.5, a)
        assert_allclose(b.eigenvalues, [-0.5, 0.5], atol=1e-9)

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
    def test_maximal_for_random_directions(self, j):
        rng = np.random.default_rng(int(2 * j))
        for _ in range(5):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            assert maximality_check(spin_component_operator(j, a))

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            component_matrix(0.5, [0.0, 0.0, 2.0])


class TestRotations:
    def test_zero_angle(self):
        assert_allclose(spin_rotation(1.0, [0, 0, 1], 0.0), np.eye(3), atol=1e-15)

    def test_full_turn_spin_half(self):
        U = spin_rotation(0.5, [0, 0, 1], 2 * np.pi)
        assert np.linalg.norm(U + np.eye(2)) <= 1e-9

    def test_double_turn_spin_half(self):
        U = spin_rotation(0.5, [0, 0, 1], 4 * np.pi)
        assert np.linalg.norm(U - np.eye(2)) <= 1e-9

    def test_full_turn_integer_spin(self):
        U = spin_rotation(1.0, [0, 1, 0], 2 * np.pi)
        assert np.linalg.norm(U - np.eye(3)) <= 1e-9

    def test_half_turn_conjugates_z_to_minus_z(self):
        _, _, Jz = spin_generators(1.0)
        U = spin_rotation(1.0, [1.0, 0.0, 0.0], np.pi)
        assert np.linalg.norm(U.conj().T @ Jz @ U + Jz) <= 1e-9

    def test_matches_scipy_expm(self):
        a = np.array([0.6, 0.0, 0.8])
        H = component_matrix(1.5, a)
        U = spin_rotation(1.5, a, 1.234)
        assert np.linalg.norm(U - scipy.linalg.expm(-1.234j * H)) <= 1e-9

    def test_rotation_vector_form(self):
        v = np.array([np.pi, 0.0, 0.0])
        assert_allclose(rotation_from_vector(0.5, v),
                        spin_rotation(0.5, [1, 0, 0], np.pi), atol=1e-12)
        assert_allclose(rotation_from_vector(0.5, [0.0, 0.0, 0.0]), np.eye(2))

    def test_unitary(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            assert is_unitary(spin_rotation(1.5, a, float(rng.uniform(-7, 7))))


class TestPerpendicular:
    @pytest.mark.parametrize("a", [[0, 0, 1], [1, 0, 0], [0.6, 0.0, 0.8]])
    def test_orthogonal_unit(self, a):
        b = perpendicular_unit(np.array(a, dtype=float))
        assert abs(np.linalg.norm(b) - 1.0) <= 1e-12
        assert abs(np.dot(a, b)) <= 1e-12
