"""Every report check can fail: one injected fault (a mutant) per check.

Each entry of MUTANTS names a check, the configuration whose report holds
it, and a fault: one library function outside scenarios.py, replaced at the
name the scenario looks it up under, by a version that builds a wrong
object or decides a wrong verdict. Under the fault the scenario still
returns a report, and the named check fails in it. No mutant replaces a
helper that only measures a distance (resolution_deviation, max_abs), and
none silences an error the library raises on the faulty object. A check
that no such fault can fail proves nothing, so a new check lands with its
mutant: the table's keys must equal the names the scenarios declare.
"""

import dataclasses
import json
from typing import Callable, NamedTuple

import numpy as np
import pytest

from symquant import coherent, quantize, scenarios, spin
from symquant import phasespace as ps
from symquant.cli import main
from symquant.coherent import MonomialRep
from symquant.groups import GroupAction
from symquant.quantize import NotAnOrbitError
from symquant.variables import InducedAction, variable_from_point_labels


class Mutant(NamedTuple):
    config: dict
    target: object          # the module or class the scenario reads it from
    name: str
    fault: Callable         # original function -> faulty replacement


PEDAGOGY = {"scenario": "pedagogy_z4"}
COHERENT = {"scenario": "coherent"}
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
    # induce_group returning its result with some values computed wrongly.
    # Every derived value is read off the true value action first, so that
    # one wrong value does not move the others, and is then written into
    # the record's __dict__, where its cached_property finds it
    def make(orig):
        def fault(var, act):
            induced = orig(var, act)
            values = {name: getattr(induced, name)
                      for name in ("k_to_image", "image_group", "kernel")}
            values.update({key: change(induced) for key, change in changes.items()})
            faulty = InducedAction(value_action=values.pop("value_action", induced.value_action))
            faulty.__dict__.update(values)
            return faulty
        return fault
    return make


def _character_norm_plus_one(orig):
    def fault(rep, tol=1e-8):
        c = orig(rep, tol)[1] + 1
        return c == 1, c
    return fault


def _frame_with(T_scale):
    # lam is tr T / d, so it follows the scaled T
    def make(orig):
        def fault(cs):
            frame = orig(cs)
            return dataclasses.replace(frame, T=T_scale * frame.T)
        return fault
    return make


def _scaled_component(factor):
    return lambda orig: lambda j, direction: factor * orig(j, direction)


def _exponent_off_by_one(orig):
    # one exponent of the unit step moved by one, over the modulus n: the
    # rep's exact product law refuses it, and the check that builds it fails
    def fault(g):
        rep = orig(g)
        exponent = rep.exponent.astype(np.intp)
        exponent[1, 0] += 1
        return MonomialRep(action=rep.action, exponent=exponent, modulus=g.order)
    return fault


def _doubled_clock(orig):
    # k -> w^(2kx): a valid rep of cyclic:n, so it builds, but it braids
    # with the shift by w^(2cd), not w^(cd)
    def fault(g):
        rep = orig(g)
        return MonomialRep(action=rep.action, exponent=2 * rep.exponent.astype(np.intp),
                           modulus=rep.modulus)
    return fault


def _trivial_permutation_rep(orig):
    # every element acts as the identity: the permutation part of the
    # action replaced by the trivial action, phases kept
    def fault(act):
        rep = orig(act)
        fixed = GroupAction(group=act.group,
                            perm=np.zeros_like(act.perm) + np.arange(act.space_size))
        return MonomialRep(action=fixed, exponent=rep.exponent, modulus=rep.modulus)
    return fault


def _eigenvector_lost(orig):
    # the eigenbasis one vector short, its last cluster one dimension smaller
    def fault(A):
        spec = orig(A)
        mult = spec.multiplicities.copy()
        mult[-1] -= 1
        return dataclasses.replace(spec, multiplicities=mult,
                                   vectors=spec.vectors[:, :-1])
    return fault


def _component_a_one_short(orig):
    # the real question and answer match, handed the eigenbasis of the
    # component along a one vector short
    def fault(v, bases):
        return orig(v, {**bases, "component_a": bases["component_a"][:, :-1]})
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
        _induced_with(image_group=lambda ind: ind.value_action.group)),
    # every element acting trivially on the values
    "quotient_by_kernel_injective": Mutant(
        PEDAGOGY, scenarios, "induce_group",
        _induced_with(value_action=lambda ind: GroupAction(
            group=ind.value_action.group,
            perm=np.zeros_like(ind.value_action.perm)
            + np.arange(ind.value_action.space_size)))),
    "indicator_maximal_subgroup": Mutant(
        PEDAGOGY, scenarios, "maximal_permissible_subgroup",
        lambda orig: lambda var, act: (0,)),
    "subgroup_maximality_brute_force": Mutant(
        PEDAGOGY, scenarios, "is_permissible_under",
        lambda orig: lambda var, act, subset: orig(var, act, range(act.group.order))),
    "covariance_all_subgroup_elements": Mutant(
        PEDAGOGY, scenarios, "permutation_rep", _trivial_permutation_rep),
    "coarser_finer_partial_order": Mutant(
        PEDAGOGY, scenarios, "accessibility_leq",
        lambda orig: lambda alpha, beta: orig(beta, alpha)),
    "parity_coarse_grain_not_maximal": Mutant(
        PEDAGOGY, scenarios, "coarse_grain",
        lambda orig: lambda basis, labels, t: orig(basis, labels, lambda u: u)),
    # coherent
    "rep_irreducible[dihedral:4]": Mutant(
        COHERENT, coherent, "is_irreducible", _character_norm_plus_one),
    "frame_scalar[dihedral:4]": Mutant(
        COHERENT, scenarios, "frame_operator", _frame_with(T_scale=0.5)),
    "rep_irreducible[binary_tetrahedral]": Mutant(
        COHERENT, coherent, "is_irreducible", _character_norm_plus_one),
    "frame_scalar[binary_tetrahedral]": Mutant(
        COHERENT, scenarios, "frame_operator", _frame_with(T_scale=0.5)),
    # spin
    # the generator fill with Jy's bands negated: [Jx, -Jy] = -i Jz
    "generator_commutation_relations": Mutant(
        SPIN, scenarios, "_generator",
        lambda orig: lambda ladder, i: -orig(ladder, i) if i == 1 else orig(ladder, i)),
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
    "covariance_half_turn_reverses_labels": Mutant(
        SPIN, scenarios, "perpendicular_unit",
        lambda orig: lambda a: np.asarray(a, dtype=float)),
    "sign_flip_orbit_partition": Mutant(
        {"scenario": "spin", "params": {"reduce": False}},
        scenarios, "eigen_orbit_partition",
        lambda orig: lambda bundle, perms: orig(bundle, perms[:1])),
    # an eigensolver that loses an eigenvector; the half turn it makes
    # non-unitary is a failed check, not an error
    "eigenbasis_resolves_identity": Mutant(
        SPIN, quantize, "eig_hermitian", _eigenvector_lost),
    "question_answer_unique_match": Mutant(
        SPIN, scenarios, "question_answer_match",
        lambda orig: lambda v, bases: [(label, 0) for label in bases]),
    "reduction_to_sign_flip_orbit": Mutant(
        SPIN, scenarios, "model_reduce", _reduce_keeping_smallest),
    "reduction_rejects_non_orbit": Mutant(
        SPIN, scenarios, "model_reduce", _reduce_accepting_anything),
    # phase
    "shift_rep_of_cyclic_group": Mutant(
        PHASE, ps, "shift_rep", _exponent_off_by_one),
    "clock_rep_of_cyclic_group": Mutant(
        PHASE, ps, "clock_rep", _exponent_off_by_one),
    "mutually_unbiased_position_momentum": Mutant(
        PHASE, ps, "fourier_matrix",
        lambda orig: lambda n: np.eye(n, dtype=np.complex128)),
    # a momentum operator that is the position operator, diag(0, ..., n-1)
    "position_momentum_noncommuting": Mutant(
        PHASE, ps, "momentum_operator",
        lambda orig: lambda n: quantize.operator_from_matrix(
            np.diag(np.arange(n, dtype=float)))),
    # the momentum operator of the opposite Fourier sign, F^dag X F = conj(P)
    "momentum_operator_is_fourier_conjugate": Mutant(
        PHASE, ps, "momentum_operator",
        lambda orig: lambda n: quantize.operator_from_matrix(orig(n).matrix.conj())),
    "paired_translation_unitary": Mutant(
        PHASE, ps, "clock_rep", _doubled_clock),
}


def test_every_declared_check_has_a_mutant():
    # read off the scenario tables, without running a report
    assert set(MUTANTS) == {spec.name for scenario in scenarios._SCENARIOS.values()
                            for spec in scenario.checks}


# the checks a spin report of dimension 1 leaves out, and those it leaves
# out without reduce
SPIN_D1 = {"covariance_half_turn_reverses_labels", "question_answer_unique_match",
           "reduction_rejects_non_orbit"}
SPIN_NO_REDUCE = {"reduction_to_sign_flip_orbit", "reduction_rejects_non_orbit"}


@pytest.mark.parametrize("config, dropped", [
    *[({"scenario": name}, set()) for name in scenarios.BUILTIN_SCENARIOS],
    ({"scenario": "spin", "params": {"j": 0, "reduce": True}}, SPIN_D1),
    ({"scenario": "spin", "params": {"reduce": False}}, SPIN_NO_REDUCE),
    ({"scenario": "spin", "params": {"j": 50}}, set()),
], ids=[*scenarios.BUILTIN_SCENARIOS, "spin-j0-reduce", "spin-no-reduce", "spin-j50"])
def test_each_report_emits_its_enabled_declarations_in_order(config, dropped):
    declared = [spec.name for spec in scenarios._SCENARIOS[config["scenario"]].checks]
    emitted = [c.name for c in scenarios.run_scenario(config).checks]
    assert emitted == [name for name in declared if name not in dropped]


@pytest.mark.filterwarnings("ignore:representation is reducible")
@pytest.mark.parametrize("check", sorted(MUTANTS))
def test_mutant_fails_its_check(check, monkeypatch):
    config, target, name, fault = MUTANTS[check]
    assert _verdict(config, check), "the check must pass on the unpatched library"
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    assert not _verdict(config, check)


def test_basis_not_orthonormal_is_a_failed_check(monkeypatch, capsys):
    # at spin 1/2, question_answer_match raises on the truncated basis: the
    # report is written, with the question and answer check failed, and
    # exit 1
    monkeypatch.setattr(scenarios, "question_answer_match",
                        _component_a_one_short(scenarios.question_answer_match))
    assert main(["spin", "--j", "0.5"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    match = checks["question_answer_unique_match"]
    assert not match["passed"]
    assert match["details"] == "basis 'component_a' is not orthonormal"
    assert [name for name, c in checks.items() if not c["passed"]] == [
        "question_answer_unique_match"]


def test_eigenvector_lost_is_a_failed_half_turn(monkeypatch, capsys):
    # at spin 1/2 the half turn read off a spectrum one eigenvector short is
    # not unitary: the report is written, with the half-turn check failed as
    # an exact check that names ||U^dag U - I||_F, and exit 1
    monkeypatch.setattr(quantize, "eig_hermitian",
                        _eigenvector_lost(quantize.eig_hermitian))
    assert main(["spin", "--j", "0.5"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    half_turn = checks["covariance_half_turn_reverses_labels"]
    assert not half_turn["passed"]
    assert (half_turn["max_error"], half_turn["tolerance"]) == (1.0, 0.0)
    assert half_turn["details"] == (
        "the half turn is not unitary: ||U^dag U - I||_F = 1.000e+00")
    assert not checks["eigenbasis_resolves_identity"]["passed"]
    # no override passes it: the check is declared with a tolerance, so an
    # override may name it, but the failure is exact, with the same details
    config = {"scenario": "spin", "params": {"j": 0.5}}
    for overrides in ({"*": 1e6}, {"covariance_half_turn_reverses_labels": 1e6}):
        report = scenarios.run_scenario({**config, "tolerances": overrides})
        (half_turn,) = [c for c in report.checks
                        if c.name == "covariance_half_turn_reverses_labels"]
        assert not half_turn.passed
        assert (half_turn.max_error, half_turn.tolerance) == (1.0, 0.0)
        assert half_turn.details == (
            "the half turn is not unitary: ||U^dag U - I||_F = 1.000e+00")


@pytest.mark.parametrize("name, failed", [
    # the Weyl check reads the shift too, so a refused shift fails it
    ("shift_rep", ["shift_rep_of_cyclic_group", "paired_translation_unitary"]),
    ("clock_rep", ["clock_rep_of_cyclic_group", "paired_translation_unitary"]),
])
def test_refused_rep_is_a_failed_check(name, failed, monkeypatch, capsys):
    # the rep's constructor raises at its first use: the report is written,
    # with each check that reads the rep failed as an exact check that names
    # the law, and exit 1
    monkeypatch.setattr(ps, name, _exponent_off_by_one(getattr(ps, name)))
    assert main(["phase", "--n", "4"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert [n for n, c in checks.items() if not c["passed"]] == failed
    for n in failed:
        assert (checks[n]["max_error"], checks[n]["tolerance"]) == (1.0, 0.0)
        assert checks[n]["details"] == "representation product law fails at generator 1"


def test_doubled_clock_fails_only_the_weyl_check(monkeypatch):
    monkeypatch.setattr(ps, "clock_rep", _doubled_clock(ps.clock_rep))
    report = scenarios.run_scenario(PHASE)
    assert [c.name for c in report.checks if not c.passed] == ["paired_translation_unitary"]


def _verdict(config, check):
    (passed,) = [c.passed for c in scenarios.run_scenario(config).checks
                 if c.name == check]
    return passed
