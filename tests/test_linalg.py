"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from symquant.linalg import (
    NotHermitianError,
    NotSquareError,
    eig_hermitian,
    expm_antihermitian,
    is_unitary,
)


def random_hermitian(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (M + M.conj().T) / 2


class TestEigHermitian:
    def test_diagonal_with_degeneracy(self):
        spec = eig_hermitian(np.diag([3.0, 1.0, 1.0]), 1e-8)
        assert_allclose(spec.eigenvalues, [1.0, 3.0])
        assert list(spec.multiplicities) == [2, 1]

    def test_two_by_two_offdiagonal(self):
        # characteristic polynomial u^2 - 1/4 by hand: roots -1/2, 1/2
        A = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = eig_hermitian(A)
        assert_allclose(spec.eigenvalues, [-0.5, 0.5], atol=1e-12)
        assert list(spec.multiplicities) == [1, 1]

    def test_identity_fully_degenerate(self):
        spec = eig_hermitian(np.eye(4))
        assert spec.n_clusters == 1
        assert list(spec.multiplicities) == [4]
        assert_allclose(spec.projection(0), np.eye(4), atol=1e-12)
        assert_allclose(spec.projection(-1), np.eye(4), atol=1e-12)
        with pytest.raises(IndexError):
            spec.projection(1)
        assert_allclose(spec.reconstruct(), np.eye(4), atol=1e-12)

    def test_merging_controlled_by_tolerance(self):
        A = np.diag([1.0, 1.0 + 5e-9, 2.0])
        merged = eig_hermitian(A, 1e-8)
        assert list(merged.multiplicities) == [2, 1]
        split = eig_hermitian(A, 1e-12)
        assert list(split.multiplicities) == [1, 1, 1]

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            eig_hermitian(np.ones((2, 3)))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @staticmethod
    def _check_projection_laws(A, spec):
        d = A.shape[0]
        scale = max(1.0, np.linalg.norm(A))
        assert np.linalg.norm(A - spec.reconstruct()) <= 1e-9 * scale
        assert int(spec.multiplicities.sum()) == d
        projections = [spec.projection(j) for j in range(spec.n_clusters)]
        total = np.zeros((d, d), dtype=complex)
        for i, (P, u, k) in enumerate(zip(projections, spec.eigenvalues,
                                          spec.multiplicities)):
            assert np.linalg.norm(P - P.conj().T) <= 1e-9
            assert abs(np.trace(P).real - k) <= 1e-9
            assert np.linalg.norm(A @ P - u * P) <= 1e-9 * scale
            for k2, Q in enumerate(projections):
                expect = P if i == k2 else 0.0 * P
                assert np.linalg.norm(P @ Q - expect) <= 1e-9
            total += P
        assert np.linalg.norm(total - np.eye(d)) <= 1e-9
        # the dense sum of eigenvalue-weighted projections is the same operator
        dense = sum(u * P for u, P in zip(spec.eigenvalues, projections))
        assert np.linalg.norm(dense - spec.reconstruct()) <= 1e-9 * scale

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
    def test_reconstruction_and_projection_laws(self, d):
        rng = np.random.default_rng(41 + d)
        A = random_hermitian(rng, d)
        spec = eig_hermitian(A)
        assert spec.dim == d
        self._check_projection_laws(A, spec)

    @pytest.mark.parametrize("mults", [(2, 1), (1, 3, 2), (4, 1, 1, 2)])
    def test_degenerate_cluster_projection_laws(self, mults):
        # a random unitary conjugate of diag(1,..,1, 2,..,2, ...): cluster j
        # has multiplicity mults[j] and its projection has trace mults[j]
        d = sum(mults)
        rng = np.random.default_rng(d)
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        values = np.repeat(np.arange(1.0, len(mults) + 1), mults)
        A = (Q * values) @ Q.conj().T
        A = (A + A.conj().T) / 2
        spec = eig_hermitian(A)
        assert list(spec.multiplicities) == list(mults)
        assert_allclose(spec.eigenvalues, np.arange(1.0, len(mults) + 1), atol=1e-9)
        self._check_projection_laws(A, spec)
        for j in range(len(mults)):
            W = Q[:, values == j + 1]
            assert np.linalg.norm(spec.projection(j) - W @ W.conj().T) <= 1e-9

    def test_expectation_matches_quadratic_form(self):
        rng = np.random.default_rng(7)
        A = random_hermitian(rng, 6)
        spec = eig_hermitian(A)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        direct = float((v.conj() @ A @ v).real)
        assert abs(spec.expectation(v) - direct) <= 1e-9

    def test_expectation_on_degenerate_spectrum(self):
        # diag(2, -1, 2): <v|A|v> = 2(|v0|^2 + |v2|^2) - |v1|^2
        spec = eig_hermitian(np.diag([2.0, -1.0, 2.0]))
        assert list(spec.multiplicities) == [1, 2]
        v = np.array([1.0, 1j, 1.0]) / np.sqrt(3)
        assert abs(spec.expectation(v) - 1.0) <= 1e-12


class TestExpm:
    def test_zero_angle(self):
        rng = np.random.default_rng(3)
        H = random_hermitian(rng, 4)
        assert_allclose(expm_antihermitian(H, 0.0), np.eye(4), atol=1e-12)

    def test_half_spin_full_turn(self):
        # diagonal phases e^{-i*pi} and e^{+i*pi} are both -1
        H = np.diag([0.5, -0.5])
        assert_allclose(expm_antihermitian(H, 2 * np.pi), -np.eye(2), atol=1e-12)

    def test_quarter_turn_phases(self):
        H = np.diag([1.0, -1.0])
        assert_allclose(expm_antihermitian(H, np.pi / 2),
                        np.diag([-1j, 1j]), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            expm_antihermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_unitarity_and_inverse(self, d):
        rng = np.random.default_rng(d)
        H = random_hermitian(rng, d)
        t = float(rng.uniform(-3, 3))
        U = expm_antihermitian(H, t)
        assert is_unitary(U, 1e-9)
        assert np.linalg.norm(U @ expm_antihermitian(H, -t) - np.eye(d)) <= 1e-9 * d

    def test_one_parameter_group_law(self):
        rng = np.random.default_rng(11)
        H = random_hermitian(rng, 5)
        for _ in range(10):
            s, t = rng.uniform(-4, 4, size=2)
            lhs = expm_antihermitian(H, s) @ expm_antihermitian(H, t)
            assert np.linalg.norm(lhs - expm_antihermitian(H, s + t)) <= 1e-8

    def test_against_scipy_expm(self):
        # independent route: Pade-based matrix exponential
        rng = np.random.default_rng(23)
        H = random_hermitian(rng, 6)
        t = 1.37
        assert np.linalg.norm(
            expm_antihermitian(H, t) - scipy.linalg.expm(-1j * t * H)
        ) <= 1e-9


class TestPredicates:
    def test_is_unitary_identity(self):
        assert is_unitary(np.eye(3), 1e-10)

    def test_is_unitary_rejects(self):
        assert not is_unitary(2.0 * np.eye(3), 1e-10)
        assert not is_unitary(np.ones((2, 3)))
