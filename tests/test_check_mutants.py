"""Every report check can fail: one injected fault (a mutant) per check.

Each entry of MUTANTS names a check, the configuration whose report holds
it, and a fault: one library function outside scenarios.py, replaced at the
name the scenario looks it up under, by a version that builds a wrong
object or decides a wrong verdict. Under the fault the scenario still
returns a report, and the named check fails in it. No mutant replaces a
helper that only measures a distance (resolution_deviation, max_abs), and
none silences an error the library raises on the faulty object. A check
that no such fault can fail proves nothing, so a new check lands with its
mutant: the table's keys must equal the names the reports emit.
"""

import dataclasses
import json
from typing import Callable, NamedTuple

import numpy as np
import pytest

from symquant import coherent, groups, linalg, quantize, scenarios, spin
from symquant import phasespace as ps
from symquant.cli import main
from symquant.coherent import UnitaryRep
from symquant.quantize import NotAnOrbitError
from symquant.variables import variable_from_point_labels


class Mutant(NamedTuple):
    config: dict
    target: object          # the module or class the scenario reads it from
    name: str
    fault: Callable         # original function -> faulty replacement


PEDAGOGY = {"scenario": "pedagogy_z4"}
D4 = {"scenario": "coherent_d4"}
BT24 = {"scenario": "coherent_bt24"}
SPIN = {"scenario": "spin"}
PHASE = {"scenario": "phase"}


def _flipped_verdict(orig):
    def fault(*args):
        ok, witness = orig(*args)
        return not ok, witness
    return fault


def _swapped_witness(orig):
    def fault(var, act):
        ok, w = orig(var, act)
        return ok, None if w is None else (w[0], w[2], w[1])
    return fault


def _induced_with(**changes):
    # induce_group returning its result with some fields computed wrongly
    def make(orig):
        def fault(var, act):
            induced = orig(var, act)
            return dataclasses.replace(induced, **{
                key: change(induced) for key, change in changes.items()})
        return fault
    return make


def _character_norm_plus_one(orig):
    return lambda rep, tol=1e-8: orig(rep, tol) + 1


def _frame_with(T_scale=1.0, weight_scale=1.0):
    def make(orig):
        def fault(cs):
            frame = orig(cs)
            return dataclasses.replace(
                frame, T=T_scale * frame.T, lam=T_scale * frame.lam,
                normalized_weights=weight_scale * frame.normalized_weights)
        return fault
    return make


def _quaternion_group():
    # i and j generate the 8-element quaternion group, whose defining
    # representation is still irreducible
    return groups.generate_group([(0, 2, 0, 0), (0, 0, 2, 0)], groups._quat_mul,
                                 (2, 0, 0, 0), name="binary_tetrahedral")


def _scaled_component(factor):
    return lambda orig: lambda j, direction: factor * orig(j, direction)


def _drifting_shift_rep(orig):
    # the shift by k carries the phase exp(1e-11 i k): unitary, the identity
    # at k = 0, but n shifts come back with phase exp(1e-11 i n)
    def fault(n, group=None):
        rep = orig(n, group)
        drift = np.exp(1e-11j * np.arange(n))[:, None, None]
        return UnitaryRep(group=rep.group, matrices=drift * rep.matrices)
    return fault


def _drifting_clock_rep(orig):
    # clock^k with the phase step 2*pi/n rounded to 1e-10 relative
    def fault(n, group=None):
        return UnitaryRep(group=group, matrices=np.stack(
            [ps.clock_unitary(n, k * (1 + 1e-10)) for k in range(n)]))
    return fault


def _shorter_cycle_shift(orig):
    # shifts only the first n - 1 points, an (n-1)-cycle
    def fault(n, c=1):
        m = np.arange(n - 1)
        S = np.zeros((n, n), dtype=np.complex128)
        S[(m + c) % (n - 1), m] = 1.0
        S[n - 1, n - 1] = 1.0
        return S
    return fault


def _clamped_shift(orig):
    # |x> -> |min(x + c, n - 1)>: the last point absorbs the overflow
    def fault(n, c=1):
        x = np.arange(n)
        S = np.zeros((n, n), dtype=np.complex128)
        S[np.minimum(x + c, n - 1), x] = 1.0
        return S
    return fault


def _reduce_keeping_smallest(orig):
    def fault(eigenvalues, perms, target):
        reduced = orig(eigenvalues, perms, target)
        return variable_from_point_labels(list(reduced.value_labels[:1]))
    return fault


def _reduce_accepting_anything(orig):
    def fault(eigenvalues, perms, target):
        try:
            return orig(eigenvalues, perms, target)
        except NotAnOrbitError:
            return variable_from_point_labels(list(target))
    return fault


MUTANTS = {
    # pedagogy_z4
    "parity_variable_permissible": Mutant(
        PEDAGOGY, scenarios, "is_permissible", _flipped_verdict),
    "indicator_variable_not_permissible": Mutant(
        PEDAGOGY, scenarios, "is_permissible", _swapped_witness),
    "induced_map_homomorphism_all_pairs": Mutant(
        PEDAGOGY, scenarios, "induce_group",
        _induced_with(k_to_image=lambda ind: ind.image_group.order - 1 - ind.k_to_image)),
    "induced_kernel_two_element_subgroup": Mutant(
        PEDAGOGY, scenarios, "induce_group",
        _induced_with(kernel=lambda ind: (0,))),
    "induced_image_is_two_element_cyclic": Mutant(
        PEDAGOGY, scenarios, "induce_group",
        _induced_with(image_group=lambda ind: ind.base.group)),
    "quotient_by_kernel_injective": Mutant(
        PEDAGOGY, scenarios, "induce_group",
        _induced_with(induced_perm=lambda ind: np.zeros_like(ind.induced_perm)
                      + np.arange(ind.induced_perm.shape[1]))),
    "indicator_maximal_subgroup": Mutant(
        PEDAGOGY, scenarios, "maximal_permissible_subgroup",
        lambda orig: lambda var, act: (0,)),
    "subgroup_maximality_brute_force": Mutant(
        PEDAGOGY, scenarios, "is_permissible_under",
        lambda orig: lambda var, act, subset: orig(var, act, range(act.group.order))),
    "covariance_all_subgroup_elements": Mutant(
        PEDAGOGY, scenarios, "permutation_rep",
        lambda orig: lambda act: UnitaryRep(
            group=act.group, matrices=np.zeros_like(orig(act).matrices)
            + np.eye(act.space_size))),
    "coarser_finer_partial_order": Mutant(
        PEDAGOGY, scenarios, "accessibility_leq",
        lambda orig: lambda alpha, beta: orig(beta, alpha)),
    # coherent_d4
    "rotation_rep_irreducible": Mutant(
        D4, coherent, "commutant_dimension", _character_norm_plus_one),
    "frame_operator_four_times_identity": Mutant(
        D4, scenarios, "frame_operator", _frame_with(T_scale=0.5)),
    "transport_preserves_resolution": Mutant(
        D4, scenarios, "frame_operator", _frame_with(weight_scale=0.5)),
    # coherent_bt24
    "group_order_24": Mutant(
        BT24, groups, "binary_tetrahedral_group", lambda orig: _quaternion_group),
    "spin_half_rep_irreducible": Mutant(
        BT24, coherent, "commutant_dimension", _character_norm_plus_one),
    "orbit_states_unit_norm": Mutant(
        BT24, scenarios, "make_coherent",
        lambda orig: lambda rep, act, base, f: orig(rep, act, base, 2 * np.asarray(f))),
    "frame_operator_twelve_times_identity": Mutant(
        BT24, scenarios, "frame_operator", _frame_with(T_scale=0.5)),
    # spin
    "generator_commutation_relations": Mutant(
        SPIN, scenarios, "spin_generators",
        lambda orig: lambda j: (lambda Jx, Jy, Jz: (Jx, -Jy, Jz))(*orig(j))),
    "component_spectrum_ladder_values": Mutant(
        SPIN, spin, "component_matrix", _scaled_component(1.01)),
    "component_covariance_binary_tetrahedral": Mutant(
        SPIN, scenarios, "rotation_matrix",
        lambda orig: lambda axis, angle: orig(axis, -angle)),
    "component_operator_maximal": Mutant(
        SPIN, scenarios, "maximality_check", lambda orig: lambda b: not orig(b)),
    # Pauli matrices in place of J = sigma/2: a full turn gives +I at spin 1/2
    "full_turn_rotation_sign": Mutant(
        SPIN, spin, "component_matrix", _scaled_component(2.0)),
    # eigenvalues 1.6e-10 too large (relative) miss -I by 7.1e-10 at the full
    # turn, inside its 1e-9, and I by 1.4e-9 at the double turn; no other
    # check fails
    "double_turn_rotation_identity": Mutant(
        SPIN, scenarios, "spin_component_operator",
        lambda orig: lambda j, a: quantize.operator_from_matrix(
            (1 + 1.6e-10) * orig(j, a).matrix)),
    "rotation_angle_additivity": Mutant(
        SPIN, spin, "component_matrix", _scaled_component(1.01)),
    "covariance_half_turn_reverses_labels": Mutant(
        SPIN, scenarios, "perpendicular_unit",
        lambda orig: lambda a: np.asarray(a, dtype=float)),
    "sign_flip_orbit_partition": Mutant(
        {"scenario": "spin", "params": {"reduce": False}},
        scenarios, "eigen_orbit_partition",
        lambda orig: lambda bundle, perms: orig(bundle, perms[:1])),
    # at spin 0, where no second basis is built: for d > 1 the question and
    # answer check raises on a basis that is not orthonormal
    "eigenbasis_resolves_identity": Mutant(
        {"scenario": "spin", "params": {"j": 0.0}}, linalg.SpectralData, "basis",
        lambda orig: lambda self: orig(self)[:, :-1]),
    "question_answer_unique_match": Mutant(
        SPIN, scenarios, "question_answer_match",
        lambda orig: lambda v, bases: [(label, 0) for label in bases]),
    "reduction_to_sign_flip_orbit": Mutant(
        SPIN, scenarios, "model_reduce", _reduce_keeping_smallest),
    "reduction_rejects_non_orbit": Mutant(
        SPIN, scenarios, "model_reduce", _reduce_accepting_anything),
    # phase
    "shift_rep_of_cyclic_group": Mutant(
        PHASE, ps, "shift_rep", _drifting_shift_rep),
    "clock_rep_of_cyclic_group": Mutant(
        PHASE, ps, "clock_rep", _drifting_clock_rep),
    "mutually_unbiased_position_momentum": Mutant(
        PHASE, ps, "fourier_matrix",
        lambda orig: lambda n: np.eye(n, dtype=np.complex128)),
    "position_momentum_noncommuting": Mutant(
        PHASE, ps, "momentum_operator", lambda orig: ps.position_operator),
    "shift_full_cycle_is_identity": Mutant(
        PHASE, ps, "shift_unitary", _shorter_cycle_shift),
    "momentum_operator_is_fourier_conjugate": Mutant(
        PHASE, ps, "momentum_operator",
        lambda orig: lambda n: quantize.build_operator(
            ps.fourier_matrix(n).conj().T, 1.0, np.arange(n, dtype=float))),
    "paired_translation_unitary": Mutant(
        PHASE, ps, "shift_unitary", _clamped_shift),
}


def _emitted_names(tmp_path):
    out = tmp_path / "report.json"
    names = {c.name for r in scenarios.run_all() for c in r.checks}
    for argv in (["spin", "--j", "50", "--reduce"], ["phase", "--n", "64"]):
        assert main(argv + ["--out", str(out)]) == 0
        names |= {c["name"] for c in json.loads(out.read_text())["checks"]}
    return names


def test_every_emitted_check_has_a_mutant(tmp_path):
    assert set(MUTANTS) == _emitted_names(tmp_path)


@pytest.mark.filterwarnings("ignore:representation is reducible")
@pytest.mark.parametrize("check", sorted(MUTANTS))
def test_mutant_fails_its_check(check, monkeypatch):
    config, target, name, fault = MUTANTS[check]
    assert _verdict(config, check), "the check must pass on the unpatched library"
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    assert not _verdict(config, check)


def _verdict(config, check):
    (passed,) = [c.passed for c in scenarios.run_scenario(config).checks
                 if c.name == check]
    return passed
