"""Tests for representations, irreducibility, coherent orbits, and frames.

The Kronecker/SVD commutant that irreducibility used to be computed with
is an oracle in test_validation_oracles.py, compared there with the
character norm on named-group, permutation and direct-sum representations.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symquant.groups import (
    GroupAction,
    cyclic_group,
    dihedral_vertex_action,
    left_translation_action,
    make_named_group,
)
from symquant import coherent, linalg
from symquant.coherent import (
    FrameOperator,
    NonTransitiveError,
    NotScalarError,
    UnitaryRep,
    ZeroFiducialError,
    binary_tetrahedral_spin_rep,
    dihedral_rotation_rep,
    frame_operator,
    is_irreducible,
    left_regular_rep,
    make_coherent,
    permutation_rep,
)
from symquant.linalg import resolution_deviation


@pytest.fixture
def d4_rep():
    g = make_named_group("dihedral:4")
    return g, dihedral_rotation_rep(g)


class TestLeftRegular:
    def test_cyclic_two(self):
        rep = left_regular_rep(cyclic_group(2))
        assert_allclose(rep.matrix(0), np.eye(2))
        assert_allclose(rep.matrix(1), [[0, 1], [1, 0]])

    def test_identity_element(self):
        g = make_named_group("dihedral:3")
        rep = left_regular_rep(g)
        assert_allclose(rep.matrix(g.identity), np.eye(g.order))

    def test_cyclic_three_pullback(self):
        # U(k) f (x) = f(k^{-1} x): columns follow the index arithmetic
        g = cyclic_group(3)
        rep = left_regular_rep(g)
        for k in range(3):
            for x in range(3):
                for y in range(3):
                    expect = 1.0 if g.cayley[g.inverses[k], x] == y else 0.0
                    assert rep.matrix(k)[x, y] == expect

    def test_regular_rep_of_abelian_group_reducible(self):
        rep = left_regular_rep(cyclic_group(3))
        irr, cdim = is_irreducible(rep)
        assert not irr
        assert cdim == 3

    def test_dihedral_200_peaks_below_16_mib(self):
        # a dense 400 x 400 x 400 stack would be 977 MiB (733 MiB peak was
        # measured at dihedral:100); the monomial rep holds 400 x 400 int16
        # exponents
        tracemalloc.start()
        try:
            rep = left_regular_rep(make_named_group("dihedral:200"))
            assert is_irreducible(rep) == (False, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_cyclic_5000_holds_no_exponent_table(self):
        # every exponent is 0 mod 1, so the rep reads one shared zero with
        # strides 0: a stored 5000 x 5000 int16 table held 47.7 MiB, and its
        # np.mod copy took the build's peak to 95.4 MiB
        g = make_named_group("cyclic:5000")
        tracemalloc.start()
        try:
            rep = left_regular_rep(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        e = rep.exponent
        assert e.shape == (5000, 5000) and e.dtype == np.int16
        assert not e.flags.writeable and not e.any()

    def test_cyclic_2000_characters_peak_below_8_mib(self):
        # read on element blocks; the whole 2000 x 2000 complex table of
        # phases took the peak to 126 MiB
        rep = left_regular_rep(make_named_group("cyclic:2000"))
        tracemalloc.start()
        try:
            chars = rep.characters()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chars[0] == 2000 and not chars[1:].any()
        assert peak < 8 * 2**20


class TestIrreducibility:
    def test_one_dimensional(self):
        g = cyclic_group(3)
        w = np.exp(2j * np.pi / 3)
        mats = np.array([[[1.0]], [[w]], [[w ** 2]]])
        rep = UnitaryRep(group=g, matrices=mats)
        assert is_irreducible(rep) == (True, 1)

    def test_dihedral_rotation_rep(self, d4_rep):
        _, rep = d4_rep
        irr, cdim = is_irreducible(rep)
        assert irr and cdim == 1

    def test_dihedral_one_rotation_rep(self):
        # D1 = {e, s}: the identity and the reflection diag(1, -1), which
        # split into two characters
        rep = dihedral_rotation_rep(make_named_group("dihedral:1"))
        assert np.array_equal(rep.matrices, [np.eye(2), np.diag([1.0, -1.0])])
        assert is_irreducible(rep) == (False, 2)

    def test_doubled_trivial_rep(self):
        g = cyclic_group(2)
        mats = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        rep = UnitaryRep(group=g, matrices=mats)
        assert is_irreducible(rep) == (False, 4)

    def test_binary_tetrahedral_spin_rep_irreducible(self):
        g = make_named_group("binary_tetrahedral")
        rep = binary_tetrahedral_spin_rep(g)
        assert is_irreducible(rep) == (True, 1)


class TestUnitaryRepValidation:
    def test_rejects_non_homomorphism(self):
        g = cyclic_group(2)
        mats = np.stack([np.eye(2), np.diag([1.0, 1.0j])])
        with pytest.raises(ValueError):
            UnitaryRep(group=g, matrices=mats)

    def test_rejects_non_unitary(self):
        g = cyclic_group(1)
        with pytest.raises(ValueError):
            UnitaryRep(group=g, matrices=np.stack([2 * np.eye(2)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0])
    def test_first_non_unitary_element_named(self, d4_rep, bad):
        g, rep = d4_rep
        mats = rep.matrices.copy()
        mats[[3, 5], 0, 0] = bad
        with pytest.raises(ValueError, match="element 3 is not unitary"):
            UnitaryRep(group=g, matrices=mats)

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="stack of 2 square matrices"):
            UnitaryRep(group=cyclic_group(2), matrices=np.ones((2, 2, 3)))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="^matrices must have dimension at least 1$"):
            UnitaryRep(group=cyclic_group(2), matrices=np.zeros((2, 0, 0)))


class TestCoherentSystems:
    def test_d4_orbit(self, d4_rep):
        g, rep = d4_rep
        act = dihedral_vertex_action(g)
        cs = make_coherent(rep, act, 0, (1.0, 0.0))
        assert cs.states.shape == (8, 2)
        assert_allclose(np.linalg.norm(cs.states, axis=1), np.ones(8), atol=1e-12)

    def test_trivial_group_single_state(self):
        g = cyclic_group(1)
        rep = UnitaryRep(group=g, matrices=np.ones((1, 1, 1)))
        act = GroupAction(group=g, perm=[[0]])
        cs = make_coherent(rep, act, 0, (1.0,))
        assert_allclose(cs.states, [[1.0]])

    def test_bt24_unit_states(self):
        g = make_named_group("binary_tetrahedral")
        rep = binary_tetrahedral_spin_rep(g)
        cs = make_coherent(rep, left_translation_action(g), g.identity, (1.0, 0.0))
        assert cs.states.shape == (24, 2)
        assert_allclose(np.linalg.norm(cs.states, axis=1), np.ones(24), atol=1e-12)

    @pytest.mark.parametrize("point", [1.5, 1.0, -1, 4, "0", None])
    def test_base_point_must_be_a_point(self, d4_rep, point):
        # the system itself refuses it, however it is built: by
        # make_coherent or by replacing the field
        g, rep = d4_rep
        act = dihedral_vertex_action(g)
        with pytest.raises(ValueError, match=r"integer in range\(4\)"):
            make_coherent(rep, act, point, (1.0, 0.0))
        cs = make_coherent(rep, act, 0, (1.0, 0.0))
        with pytest.raises(ValueError, match=r"integer in range\(4\)"):
            dataclasses.replace(cs, base_point=point)

    def test_numpy_integer_base_point_stored_as_int(self, d4_rep):
        g, rep = d4_rep
        cs = make_coherent(rep, dihedral_vertex_action(g), np.int64(3), (1.0, 0.0))
        assert cs.base_point == 3 and type(cs.base_point) is int

    def test_zero_fiducial(self, d4_rep):
        g, rep = d4_rep
        act = dihedral_vertex_action(g)
        with pytest.raises(ZeroFiducialError):
            make_coherent(rep, act, 0, (0.0, 0.0))

    def test_non_transitive(self, d4_rep):
        g, rep = d4_rep
        idle = GroupAction(group=g, perm=np.zeros((8, 2), dtype=int) + [0, 1])
        with pytest.raises(NonTransitiveError):
            make_coherent(rep, idle, 0, (1.0, 0.0))

    def test_system_refuses_a_non_transitive_action(self, d4_rep):
        # the system itself, however it is built: the identity action of
        # dihedral:4 on its 4 points would give the frame scalar 4.0
        g, rep = d4_rep
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, (1.0, 0.0))
        idle = GroupAction(group=g, perm=np.zeros((8, 4), dtype=int) + np.arange(4))
        message = "the action must be transitive on the space"
        with pytest.raises(NonTransitiveError, match=message):
            coherent.CoherentSystem(rep=rep, action=idle, base_point=0, fiducial=(1.0, 0.0))
        with pytest.raises(NonTransitiveError, match=message):
            dataclasses.replace(cs, action=idle)

    @pytest.mark.parametrize("name", ["cyclic:4", "cyclic:2"])
    def test_action_of_another_group_refused(self, name):
        # cyclic:4 has the order of dihedral:2, the Klein group, but not its
        # Cayley table
        act = left_translation_action(make_named_group("dihedral:2"))
        rep = left_regular_rep(make_named_group(name))
        with pytest.raises(ValueError, match="different groups"):
            make_coherent(rep, act, 0, np.eye(rep.dim)[0])

    def test_system_refuses_an_action_of_another_group(self, d4_rep):
        # the system itself, however it is built: cyclic:8 has the order of
        # dihedral:4
        g, rep = d4_rep
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, (1.0, 0.0))
        other = left_translation_action(make_named_group("cyclic:8"))
        with pytest.raises(ValueError, match="different groups"):
            dataclasses.replace(cs, action=other)

    def test_fiducial_is_the_identity_state(self, d4_rep):
        g, rep = d4_rep
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, (0.6, 0.8j))
        assert_allclose(cs.states[g.identity], [0.6, 0.8j], rtol=0, atol=0)

    def test_fiducial_and_states_are_read_only(self, d4_rep):
        g, rep = d4_rep
        f = np.array([0.6, 0.8j])
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, f)
        f[0] = 5.0
        assert cs.fiducial.tolist() == [0.6, 0.8j]
        assert not cs.fiducial.flags.writeable and not cs.states.flags.writeable

    def test_derived_values_are_not_fields(self, d4_rep):
        # the states and the commutant dimension follow from the rep and
        # the fiducial, and lam from T: none can be set apart from them
        g, rep = d4_rep
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, (1.0, 0.0))
        with pytest.raises(TypeError):
            dataclasses.replace(cs, states=np.tile([1.0, 0.0], (8, 1)))
        with pytest.raises(TypeError):
            dataclasses.replace(cs, commutant_dim=5)
        with pytest.raises(TypeError):
            FrameOperator(T=np.eye(2), lam=3.0)

    def test_replaced_fiducial_is_checked(self, d4_rep):
        g, rep = d4_rep
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, (1.0, 0.0))
        with pytest.raises(ZeroFiducialError, match="numerically zero"):
            dataclasses.replace(cs, fiducial=np.zeros(2))
        with pytest.raises(ValueError, match="fiducial dimension must match"):
            dataclasses.replace(cs, fiducial=np.ones(3))

    def test_orbit_is_computed_once(self, d4_rep, monkeypatch):
        g, rep = d4_rep
        calls = []
        orbit = UnitaryRep.orbit
        monkeypatch.setattr(UnitaryRep, "orbit",
                            lambda self, f: calls.append(f) or orbit(self, f))
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, (1.0, 0.0))
        frame_operator(cs)
        assert cs.states is cs.states
        assert len(calls) == 1

    def test_reducible_rep_warns(self):
        g = cyclic_group(2)
        mats = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        rep = UnitaryRep(group=g, matrices=mats)
        act = GroupAction(group=g, perm=[[0, 1], [1, 0]])
        with pytest.warns(UserWarning, match="reducible"):
            make_coherent(rep, act, 0, (1.0, 0.0))


class TestFrameOperator:
    def test_d4_frame_by_direct_summation(self, d4_rep):
        g, rep = d4_rep
        act = dihedral_vertex_action(g)
        cs = make_coherent(rep, act, 0, (1.0, 0.0))
        frame = frame_operator(cs)
        # oracle: explicit 8-term sum, no Schur shortcut
        T = np.zeros((2, 2), dtype=complex)
        for k in range(8):
            s = rep.matrices[k] @ np.array([1.0, 0.0])
            T += np.outer(s, s.conj())
        assert np.linalg.norm(T - frame.T) <= 1e-12
        assert np.linalg.norm(frame.T - 4.0 * np.eye(2)) <= 1e-10
        assert abs(frame.lam - 4.0) <= 1e-12

    def test_bt24_frame(self):
        g = make_named_group("binary_tetrahedral")
        rep = binary_tetrahedral_spin_rep(g)
        cs = make_coherent(rep, left_translation_action(g), g.identity, (1.0, 0.0))
        frame = frame_operator(cs)
        T = np.zeros((2, 2), dtype=complex)
        for k in range(24):
            s = rep.matrices[k] @ np.array([1.0, 0.0])
            T += np.outer(s, s.conj())
        assert np.linalg.norm(T - frame.T) <= 1e-12
        assert np.linalg.norm(frame.T - 12.0 * np.eye(2)) <= 1e-9
        assert abs(frame.lam - 12.0) <= 1e-12

    def test_trivial_frame(self):
        g = cyclic_group(1)
        rep = UnitaryRep(group=g, matrices=np.ones((1, 1, 1)))
        act = GroupAction(group=g, perm=[[0]])
        frame = frame_operator(make_coherent(rep, act, 0, (1.0,)))
        assert abs(frame.lam - 1.0) <= 1e-12

    def test_commutes_with_every_matrix(self, d4_rep):
        g, rep = d4_rep
        act = dihedral_vertex_action(g)
        frame = frame_operator(make_coherent(rep, act, 0, (0.6, 0.8j)))
        for k in range(g.order):
            V = rep.matrices[k]
            assert np.linalg.norm(V @ frame.T - frame.T @ V) <= 1e-9

    def test_reducible_rep_not_scalar(self):
        g = cyclic_group(2)
        mats = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        rep = UnitaryRep(group=g, matrices=mats)
        act = GroupAction(group=g, perm=[[0, 1], [1, 0]])
        with pytest.warns(UserWarning):
            cs = make_coherent(rep, act, 0, (1.0, 0.0))
        with pytest.raises(NotScalarError):
            frame_operator(cs)

    def test_scalar_positive_for_any_fiducial(self, d4_rep):
        g, rep = d4_rep
        act = dihedral_vertex_action(g)
        rng = np.random.default_rng(17)
        for _ in range(5):
            f = rng.normal(size=2) + 1j * rng.normal(size=2)
            frame = frame_operator(make_coherent(rep, act, 0, f))
            assert frame.lam > 0
            lam_expected = g.order * float(np.linalg.norm(f)) ** 2 / 2
            assert abs(frame.lam - lam_expected) <= 1e-9 * lam_expected

    def test_equivalent_rep_conjugates_frame(self, d4_rep):
        g, rep = d4_rep
        act = dihedral_vertex_action(g)
        cs = make_coherent(rep, act, 0, (1.0, 0.0))
        frame = frame_operator(cs)
        rng = np.random.default_rng(3)
        W, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        # the rep W V W^dag, whose orbit of W f is W times the orbit of f
        moved = make_coherent(UnitaryRep(group=g, matrices=W @ rep.matrices @ W.conj().T),
                              act, 0, W @ cs.states[g.identity])
        frame2 = frame_operator(moved)
        assert np.linalg.norm(frame2.T - W @ frame.T @ W.conj().T) <= 1e-10
        assert abs(frame2.lam - frame.lam) <= 1e-10


    def test_orbit_is_summed_once(self, d4_rep, monkeypatch):
        g, rep = d4_rep
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, (1.0, 0.0))
        calls = []
        total = linalg.projector_sum
        for module in (coherent, linalg):
            monkeypatch.setattr(module, "projector_sum",
                                lambda st, w: calls.append(st) or total(st, w))
        frame_operator(cs)
        assert len(calls) == 1

    def test_vertex_frame_of_dihedral_200_peaks_below_3_35_mib(self):
        # 400 basis states e_{k.0} of d = 200, each vertex reached twice, so
        # T = 2 I; the one sum peaks at 3.06 MiB, a second one made 3.67
        g = make_named_group("dihedral:200")
        act = dihedral_vertex_action(g)
        with pytest.warns(UserWarning, match="reducible"):
            cs = make_coherent(permutation_rep(act), act, 0, np.eye(200)[0])
        cs.states
        tracemalloc.start()
        try:
            frame = frame_operator(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frame.lam == 2.0
        assert peak < 3.35 * 2**20


class TestResolution:
    def test_orthonormal_basis(self):
        dev = resolution_deviation(np.eye(2), 1.0)
        assert dev == 0.0

    def test_d4_normalized_weights_resolve_identity(self, d4_rep):
        # four vertices, eight orbit states, each of weight 1/lam
        g, rep = d4_rep
        cs = make_coherent(rep, dihedral_vertex_action(g), 0, (1.0, 0.0))
        frame = frame_operator(cs)
        assert len(cs.states) == g.order
        assert resolution_deviation(cs.states, 1.0 / frame.lam) <= 1e-12

    def test_d4_quarter_weights(self, d4_rep):
        g, rep = d4_rep
        act = dihedral_vertex_action(g)
        cs = make_coherent(rep, act, 0, (1.0, 0.0))
        assert resolution_deviation(cs.states, 0.25) <= 1e-12

    def test_single_state_fails(self):
        dev = resolution_deviation([np.array([1.0, 0.0])], 1.0)
        assert abs(dev - 1.0) <= 1e-15


class TestPermutationRep:
    def test_matches_action(self):
        g = make_named_group("dihedral:4")
        act = dihedral_vertex_action(g)
        rep = permutation_rep(act)
        for k in range(g.order):
            for x in range(4):
                col = rep.matrix(k)[:, x]
                assert col[act.perm[k, x]] == 1.0
                assert col.sum() == 1.0
