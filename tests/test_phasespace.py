"""Tests for the finite cyclic phase-space machinery."""

import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symquant import coherent, linalg, phasespace, quantize, scenarios
from symquant.cli import main
from symquant.coherent import MonomialRep, UnitaryRep, left_regular_rep
from symquant.groups import GeneratorLawError, GroupAction, cyclic_group
from symquant.phasespace import (
    MAX_PHASE_N,
    BadSizeError,
    clock_rep,
    fourier_matrix,
    momentum_operator,
    mub_deviation,
    shift_rep,
)
from symquant.scenarios import run_scenario


def _commutator_norm(n):
    """||[X, P]||_F of X = diag(0, ..., n-1) and the library's momentum
    operator."""
    X, P = np.diag(np.arange(n)), momentum_operator(n).matrix
    return np.linalg.norm(X @ P - P @ X)


class TestFourier:
    def test_two_point_by_hand(self):
        F = fourier_matrix(2)
        assert_allclose(F, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)
        assert np.max(np.abs(np.abs(F) ** 2 - 0.5)) <= 1e-15

    @pytest.mark.parametrize("n", range(2, 17))
    def test_unitary_and_unbiased(self, n):
        F = fourier_matrix(n)
        assert np.linalg.norm(F.conj().T @ F - np.eye(n)) <= 1e-12 * n
        assert mub_deviation(F) <= 1e-10

    def test_bad_size(self):
        with pytest.raises(BadSizeError):
            fourier_matrix(1)

    def test_empty_matrix_refused(self):
        with pytest.raises(linalg.DimensionMismatchError, match="matrix must be nonempty"):
            mub_deviation(np.zeros((0, 0)))

    @pytest.mark.parametrize("n", [MAX_PHASE_N + 1, 20000])
    def test_size_above_the_bound(self, n):
        with pytest.raises(BadSizeError, match="largest supported size 1024"):
            fourier_matrix(n)

    def test_reps_above_the_bound(self):
        g = cyclic_group(MAX_PHASE_N + 1)
        for rep in (shift_rep, clock_rep):
            with pytest.raises(BadSizeError, match="largest supported size 1024"):
                rep(g)


class TestShiftIsLeftRegular:
    def test_cyclic_table_is_the_shift(self):
        # the shift is cyclic:n acting on itself: its table is (k + x) mod n,
        # and shift_rep is the left-regular rep, sharing the table as maps
        for n in list(range(1, 65)) + [1024]:
            g = cyclic_group(n)
            k = np.arange(n)
            assert g.cayley.dtype == np.int16
            assert np.array_equal(g.cayley, (k[:, None] + k) % n), n
            if n < 2:
                continue
            shift, regular = shift_rep(g), left_regular_rep(g)
            assert shift.action.perm is g.cayley
            assert np.array_equal(shift.action.perm, regular.action.perm), n
            assert np.array_equal(shift.exponent, regular.exponent), n
            assert shift.modulus == regular.modulus == 1


class TestShiftAndClock:
    def test_shift_moves_basis(self):
        S = shift_rep(cyclic_group(4)).matrix(1)
        for x in range(4):
            e = np.zeros(4)
            e[x] = 1.0
            out = S @ e
            assert out[(x + 1) % 4] == 1.0

    def test_shift_by_n_is_identity(self):
        srep = shift_rep(cyclic_group(4))
        # element 0 is the shift by 4 = 0 mod 4
        assert_allclose(srep.matrix(0), np.eye(4), atol=1e-15)
        S = srep.matrix(1)
        assert_allclose(np.linalg.matrix_power(S, 4), np.eye(4), atol=1e-15)

    def test_clock_phases(self):
        M = clock_rep(cyclic_group(3)).matrix(1)
        w = np.exp(2j * np.pi / 3)
        assert_allclose(np.diag(M), [1.0, w, w ** 2], atol=1e-15)
        assert_allclose(M, np.diag(np.diag(M)), atol=0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reps_are_valid(self, n):
        # MonomialRep validation checks the product law on generators x all
        # elements, which bounds every Cayley pair
        g = cyclic_group(n)
        srep = shift_rep(g)
        crep = clock_rep(g)
        assert srep.group is crep.group is g
        assert srep.dim == crep.dim == n

    @pytest.mark.parametrize("factor, message", [
        (1.001, "element 127 is not unitary"),
        (np.exp(1e-6j), "product law fails at generator 1 "),   # unitary
    ])
    def test_fault_in_the_last_slice_is_caught(self, factor, message):
        n = 128
        crep = clock_rep(cyclic_group(n))
        mats = np.stack([crep.matrix(k) for k in range(n)])
        mats[n - 1] *= factor
        with pytest.raises(ValueError, match=message):
            UnitaryRep(group=crep.group, matrices=mats)

    @pytest.mark.parametrize("shift", [1, -1, 128, 129])
    def test_fault_in_the_last_exponent_slice_is_caught(self, shift):
        # 128 x 128 exponents run in one slice of 128 elements: an exponent
        # moved at one point of the last element breaks the exact law,
        # unless it moves by the modulus
        n = 128
        crep = clock_rep(cyclic_group(n))
        exponent = crep.exponent.astype(np.intp)
        exponent[n - 1, 5] += shift
        if shift % n:
            with pytest.raises(GeneratorLawError, match="product law fails at generator 1$"):
                MonomialRep(action=crep.action, exponent=exponent, modulus=n)
        else:
            rep = MonomialRep(action=crep.action, exponent=exponent, modulus=n)
            assert np.array_equal(rep.exponent, crep.exponent)

    def test_identity_fault_is_caught(self):
        crep = clock_rep(cyclic_group(8))
        exponent = crep.exponent.copy()
        exponent[0, 3] = 1
        with pytest.raises(ValueError, match="identity element must map to the identity"):
            MonomialRep(action=crep.action, exponent=exponent, modulus=8)

    @pytest.mark.parametrize("exponent, modulus, message", [
        (np.zeros((4, 4), dtype=np.int16), 0, r"modulus must be an integer in \[1, 32767\]"),
        (np.zeros((4, 4), dtype=np.int16), 2**15, r"modulus must be an integer in \[1, 32767\]"),
        (np.zeros((4, 4), dtype=np.int16), 4.0, r"modulus must be an integer in \[1, 32767\]"),
        (np.zeros((4, 4)), 4, "exponent must hold 4 integers for each of 4 elements"),
        (np.zeros((4, 3), dtype=int), 4, "exponent must hold 4 integers for each of 4 elements"),
    ])
    def test_bad_exponents_or_modulus_refused(self, exponent, modulus, message):
        crep = clock_rep(cyclic_group(4))
        with pytest.raises(ValueError, match=message):
            MonomialRep(action=crep.action, exponent=exponent, modulus=modulus)

    def test_exponents_of_any_integer_dtype_are_reduced(self):
        # the character k -> w^k of cyclic:200 on one point, w a 200th root,
        # with exponents given as int8 in [-100, 100), as intp past the
        # modulus and as uint8: reduced into range(200) in int16 each time
        g = cyclic_group(200)
        k = np.arange(200)
        one_point = GroupAction(group=g, perm=np.zeros((200, 1), dtype=int))
        signed = np.where(k < 100, k, k - 200).astype(np.int8)
        for exponent in (signed, k + 200, k.astype(np.uint8)):
            rep = MonomialRep(action=one_point, exponent=exponent[:, None], modulus=200)
            assert rep.exponent.dtype == np.int16
            assert np.array_equal(rep.exponent[:, 0], k)

    def test_clock_at_the_largest_size_stores_int16_exponents(self):
        # 2 MiB of read-only exponents at n = 1024, where n x n complex
        # phases were 16 MiB; the only complex array held is the n roots
        crep = clock_rep(cyclic_group(MAX_PHASE_N))
        assert crep.exponent.dtype == np.int16
        assert crep.exponent.nbytes == 2 * 2**20
        assert not crep.exponent.flags.writeable
        assert crep.modulus == MAX_PHASE_N
        held = [v for v in vars(crep).values()
                if isinstance(v, np.ndarray) and v.dtype.kind == "c"]
        assert [v.size for v in held] == [MAX_PHASE_N]

    def test_weyl_commutation(self):
        n = 4
        g = cyclic_group(n)
        S = shift_rep(g).matrix(1)
        M = clock_rep(g).matrix(1)
        w = np.exp(2j * np.pi / n)
        # the clock and shift braid by one phase per step
        assert np.linalg.norm(M @ S - w * S @ M) <= 1e-12


class TestOperators:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 64])
    def test_momentum_closed_form(self, n):
        # P[a, b] = c[(a - b) mod n], c[m] = (1/n) sum_p p w^{mp}, which is
        # (n - 1)/2 at m = 0 and 1/(w^m - 1) elsewhere, w = exp(2 pi i / n)
        m = np.arange(1, n)
        c = np.concatenate([[(n - 1) / 2], 1 / (np.exp(2j * np.pi * m / n) - 1)])
        a = np.arange(n)
        assert_allclose(momentum_operator(n).matrix, c[(a[:, None] - a) % n],
                        rtol=0, atol=1e-13)

    def test_momentum_is_fourier_conjugate(self):
        n = 5
        F = fourier_matrix(n)
        X = np.diag(np.arange(n))
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
        assert abs(_commutator_norm(n) - norm) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 17))
    def test_noncommutation_everywhere(self, n):
        assert _commutator_norm(n) > 1e-6

    def test_spectra_are_full_lattice(self):
        for n in (2, 5):
            assert_allclose(momentum_operator(n).eigenvalues, np.arange(n),
                            atol=1e-9)


class TestMemory:
    def test_phase_scenario_at_128_peaks_below_16_mib(self):
        # dense |G| x d x d rep stacks peaked at 97 MiB here; the monomial
        # reps hold n x n int16 exponents, and the n x n operators dominate
        tracemalloc.start()
        try:
            assert run_scenario({"scenario": "phase", "params": {"n": 128}}).all_passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestNothingDense:
    def test_phase_scenario_expands_no_shift_or_clock(self, monkeypatch, tmp_path):
        # the Weyl relation is read off the (perm, exponent) pairs: no
        # matrix power, no dense matrix of a rep
        def refuse(*args, **kwargs):
            raise AssertionError("the phase scenario built a dense shift or clock")

        monkeypatch.setattr(np.linalg, "matrix_power", refuse)
        monkeypatch.setattr(MonomialRep, "matrix", refuse)
        out = tmp_path / "phase.json"
        assert main(["phase", "--n", "64", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert {c["name"] for c in checks} >= {"paired_translation_unitary"}
        assert all(c["passed"] for c in checks)

    def test_phase_scenario_sums_no_projectors(self, monkeypatch, tmp_path):
        # P is the circulant of one FFT and X is kept as its diagonal x, so
        # no operator is a projector sum over a basis, wherever the
        # function is looked up
        def refuse(*args, **kwargs):
            raise AssertionError("the phase scenario summed projectors")

        for module in (linalg, coherent, quantize, phasespace, scenarios):
            for name in ("projector_sum", "build_operator"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "phase.json"
        assert main(["phase", "--n", "64", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert {c["name"] for c in checks} >= {
            "position_momentum_noncommuting", "momentum_operator_is_fourier_conjugate"}
        assert all(c["passed"] for c in checks)
