"""Every table and operator is built at the size it is kept.

A constructor builds its array in the dtype and shape it stores, in place
or a block of rows at a time (groups.element_blocks), and hands it over
read-only and owning its memory, so that groups.read_only keeps it
without a copy. The tracemalloc peak of each construction is then the
bytes it keeps plus the temporaries of one element block; the intp index
tables and whole-array temporaries it replaced took each of these peaks
to two to eight times the kept bytes.

The spin generators and the component along a direction are filled on
their three bands into the one array each returns, and the spin scenario
keeps the component and its eigenvectors, not J: each check fills the
generators it reads one residual at a time and forms each residual in one
buffer. The projector sum forms one temporary beside its result, and a
kernel handed a matrix it no longer reads releases it before the sum.
"""

import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from symquant import phasespace, scenarios, spin
from symquant.coherent import MonomialRep, UnitaryRep
from symquant.groups import (
    GroupAction,
    cyclic_group,
    dihedral_vertex_action,
    left_translation_action,
    make_named_group,
    read_only,
)
from symquant.linalg import eig_hermitian, projector_sum
from symquant.quantize import operator_from_matrix
from symquant.variables import induce_group, variable_from_point_labels

# the temporaries of one element block: about 2**14 entries
# (groups.element_blocks), at most two complex arrays of them at once
ONE_BLOCK = 2 * 2**14 * 16

# before CPython 3.11 a caller's stack holds each argument of a call until
# the call returns, so a callee that drops its input frees nothing: one
# more d x d matrix where a kernel releases the matrix it was handed
ARGUMENT_HELD = sys.version_info < (3, 11)


def traced(call):
    """call() and the tracemalloc peak of the call alone, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestPeakIsKeptBytesPlusOneBlock:
    def test_dihedral_vertex_action(self):
        # intp tables of i + x and its remainder: 1.29 MiB for 156 KiB kept
        g = make_named_group("dihedral:200")
        act, peak = traced(lambda: dihedral_vertex_action(g))
        assert peak <= act.perm.nbytes + ONE_BLOCK

    @pytest.mark.parametrize("n", [256, 1024])
    def test_clock_rep(self, n):
        # the int32 outer product and its remainder: 0.82 MiB for 256 KiB
        # at n = 256; the identity maps as an n x n table: 2 MiB more at
        # n = 1024. They are one shared row read with stride 0
        g = cyclic_group(n)
        rep, peak = traced(lambda: phasespace.clock_rep(g))
        perm = rep.action.perm
        assert perm.strides[0] == 0 and perm.base.nbytes == n * perm.itemsize
        assert peak <= rep.exponent.nbytes + ONE_BLOCK

    def test_momentum_operator(self):
        # two n x n intp index tables and a copy of P in the bundle: 2.0 MiB
        # for 1 MiB kept
        phasespace.momentum_operator(256)    # the FFT of size 256 planned
        bundle, peak = traced(lambda: phasespace.momentum_operator(256))
        assert peak <= bundle.matrix.nbytes + ONE_BLOCK

    def test_momentum_operator_at_the_largest_size(self):
        # the finiteness check on one n x n boolean array: 17.0 MiB for 16
        phasespace.momentum_operator(1024)    # the FFT of size 1024 planned
        bundle, peak = traced(lambda: phasespace.momentum_operator(1024))
        assert peak <= bundle.matrix.nbytes + ONE_BLOCK

    def test_fourier_matrix_and_its_deviation(self):
        # the whole-array formula: 2 MiB for 1 MiB kept, and 1 MiB to read it
        F, peak = traced(lambda: phasespace.fourier_matrix(256))
        assert peak <= F.nbytes + ONE_BLOCK
        dev, peak = traced(lambda: phasespace.mub_deviation(F))
        assert dev <= 1e-12 and peak <= ONE_BLOCK

    def test_phase_checks_form_one_n_by_n_array(self):
        # the commutator through a float and a complex n x n array, and the
        # Fourier conjugate through two complex ones
        n = 256
        s = SimpleNamespace(n=n, x=np.arange(n, dtype=float),
                            P=phasespace.momentum_operator(n).matrix)
        scenarios._fourier_conjugate(s)    # the FFT of size 256 planned
        for check in (scenarios._noncommuting, scenarios._fourier_conjugate):
            _, peak = traced(lambda: check(s))
            assert peak <= s.P.nbytes + ONE_BLOCK, check.__name__

    def test_induce_group_of_the_identity_labelling(self):
        # every block's maps kept and then concatenated: 23.2 MiB for 7.6 MiB
        act = left_translation_action(make_named_group("cyclic:2000"))
        ident = variable_from_point_labels(np.arange(2000))
        ident.first_points
        induced, peak = traced(lambda: induce_group(ident, act))
        assert peak <= induced.value_action.perm.nbytes + ONE_BLOCK


class TestSpinMatricesAreTridiagonalFills:
    @pytest.mark.parametrize("j", [100.0, spin.MAX_SPIN])
    def test_each_peaks_within_a_tenth_above_its_array(self, j):
        # filled on their three bands, whose O(d) entries are 5% of one
        # matrix at j = 100; the dense ladder route took the component to
        # 6.0 times its matrix and the generators' stack to 2.0 times
        a = np.array([0.36, -0.48, 0.8])
        A, peak = traced(lambda: spin.component_matrix(j, a))
        assert peak <= 1.1 * A.nbytes
        J, peak = traced(lambda: spin.spin_generators(j))
        assert peak <= 1.1 * J.nbytes

    def test_scenario_at_j_50_peaks_near_6_matrices(self):
        # j = 50 with reduce: the component and its eigenvectors held from
        # setup on, the perpendicular spectrum from the half turn on, and no
        # check forming more than four d x d complex matrices beside them:
        # 6.11 matrices at the peak. Holding the half turn, a stack of J and
        # a second temporary per projector sum took it to 8.1, and the dense
        # ladder route with whole-array residuals to 12.1. On CPython 3.10
        # the half turn stays on its caller's stack through the relabelled
        # operator's build: 7.11 matrices with it held so on 3.11
        config = {"scenario": "spin", "params": {"j": 50.0, "reduce": True}}
        scenarios.run_scenario(config)    # the binary tetrahedral group built
        report, peak = traced(lambda: scenarios.run_scenario(config))
        assert report.all_passed
        assert peak <= (6.5 + ARGUMENT_HELD) * 101**2 * 16


class TestKernelsFormOneTemporary:
    """The d x d kernels under the spin scenario, each measured in d x d
    complex matrices (MATRIX) beside what its caller holds."""

    MATRIX = 101**2 * 16

    def test_projector_sum_is_its_result_and_one_temporary(self):
        # the weighted states conjugated in place and the product
        # conjugated in place: 2.0 matrices for n = d states, where a
        # conjugated copy of the states took it to 3.0
        rng = np.random.default_rng(36)
        S = rng.normal(size=(101, 101)) + 1j * rng.normal(size=(101, 101))
        w = rng.normal(size=101)
        out, peak = traced(lambda: projector_sum(S, w))
        assert peak <= 2.1 * out.nbytes

    def test_spin_rotation_near_three_matrices(self):
        # the component is released once its eigenvectors are found, so the
        # sum forms its temporary and result beside them alone: 3.03
        # matrices, where the component held through a two-temporary sum
        # took it to 5.03. On CPython 3.10 the component stays on the
        # caller's stack: 4.02 with it held so on 3.11
        axis = np.array([0.36, -0.48, 0.8])
        U, peak = traced(lambda: spin.spin_rotation(50.0, axis, 0.7))
        assert peak <= (3.2 + ARGUMENT_HELD) * self.MATRIX

    def test_eig_hermitian_near_three_matrices_beside_its_input(self):
        # phases fixed in place on eigh's own eigenvectors, and the
        # reconstruction compared in its own buffer: 3.04 matrices beside
        # the held input, where a phase-fixed copy took it to 4.04
        A = spin.component_matrix(50.0, [0.36, -0.48, 0.8])
        eig_hermitian(A)    # the eigensolver's first call made
        spec, peak = traced(lambda: eig_hermitian(A))
        assert peak <= 3.2 * self.MATRIX


def owned(a):
    """A read-only array owning its memory, as a constructor hands it over."""
    a = np.array(a)
    a.setflags(write=False)
    return a


class TestOneOwnershipRule:
    def test_read_only_keeps_only_what_no_caller_can_write(self):
        # an owner, and a view of it, that are both read-only are kept
        a = owned(np.arange(6.0))
        for view in (a, a[::2], a[:, None].T):
            assert read_only(view) is view and read_only(view, np.float64) is view
        # a writable array, a writable view, and a read-only view of a
        # writable array are copied
        writable = np.arange(6.0)
        flagged = writable[::2]
        flagged.setflags(write=False)
        for other in (writable, writable[::2], flagged):
            kept = read_only(other)
            assert kept is not other and not kept.flags.writeable
            assert kept.base is None and np.array_equal(kept, other)
        cast = read_only(a, np.complex128)
        assert cast.dtype == np.complex128 and not cast.flags.writeable

    def test_operator_bundle_keeps_a_handed_over_matrix(self):
        P = phasespace.momentum_operator(8).matrix
        assert operator_from_matrix(P).matrix is P
        writable = P.copy()
        kept = operator_from_matrix(writable).matrix
        assert kept is not writable and not kept.flags.writeable
        writable[0, 0] = 7.0
        assert kept[0, 0] == P[0, 0]

    def test_unitary_rep_keeps_a_handed_over_stack(self):
        g = cyclic_group(2)
        mats = owned(np.stack([np.eye(2), [[0, 1], [1, 0]]]).astype(np.complex128))
        assert UnitaryRep(group=g, matrices=mats).matrices is mats
        for other in (mats.copy(), mats.real):
            kept = UnitaryRep(group=g, matrices=other).matrices
            assert kept is not other and not kept.flags.writeable
            assert kept.dtype == np.complex128 and np.array_equal(kept, mats)

    @pytest.mark.parametrize("n", [3, 8])
    def test_monomial_rep_keeps_reduced_exponents(self, n):
        fixed = GroupAction(group=cyclic_group(n), perm=np.broadcast_to(np.arange(n), (n, n)))
        e = owned((np.multiply.outer(np.arange(n), np.arange(n)) % n).astype(np.int16))
        assert MonomialRep(action=fixed, exponent=e, modulus=n).exponent is e
        # a writable table, and one that is not reduced, are stored anew
        for other in (e.copy(), owned(e + n)):
            kept = MonomialRep(action=fixed, exponent=other, modulus=n).exponent
            assert kept is not other and not kept.flags.writeable
            assert np.array_equal(kept, e)
