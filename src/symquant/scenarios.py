"""Built-in end-to-end scenarios and the verification driver.

Each scenario assembles the library's machinery on a small concrete setup,
runs a fixed list of named checks, and returns a deterministic
VerificationReport. Every verdict is proved on finite objects; nothing
draws random numbers. The optional "seed" is validated and echoed, but
feeds nothing.

Configuration document (one UTF-8 JSON object):
    {"scenario": str, "params": object?, "tolerances": object?, "seed": int?}
Tolerance overrides are finite, non-negative numbers keyed by the name of
a check that has a tolerance; the key "*" overrides every such check. A
key that names no toleranced check of the scenario is refused. The
runners state each check once, with its default tolerance; run_scenario
alone applies the overrides, after the runner returns.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import phasespace as ps
from .coherent import (
    NotUnitaryError,
    binary_tetrahedral_spin_rep,
    dihedral_rotation_rep,
    frame_operator,
    make_coherent,
    permutation_rep,
    resolution_deviation,
    unitary_transport,
)
from .groups import (
    check_homomorphism,
    cyclic_group,
    dihedral_vertex_action,
    left_translation_action,
    make_named_group,
    subgroup_generated,
)
from .linalg import DEGENERACY_TOL, max_abs
from .quantize import (
    NotAnOrbitError,
    NotOrthonormalError,
    build_operator,
    coarse_grain,
    conjugation_covariance,
    covariance_check,
    eigen_orbit_partition,
    maximality_check,
    model_reduce,
    question_answer_match,
    spectrum_permutations,
)
from .phasespace import BadSizeError, _check_size
from .reporting import Check, VerificationReport, exact_check, make_check
from .spin import (
    BadSpinError,
    perpendicular_unit,
    quaternion_axis_angle,
    rotation_matrix,
    spin_component_operator,
    spin_generators,
    spin_rotation,
    _check_spin,
)
from .variables import (
    accessibility_leq,
    induce_group,
    is_permissible,
    is_permissible_under,
    maximal_permissible_subgroup,
    variable_from_point_labels,
)

DEFAULT_SEED = 2026


class ConfigParseError(ValueError):
    pass


class UnknownScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# pedagogy: shift action on four points


def _pedagogy_z4_checks(params) -> list[Check]:
    g = cyclic_group(4)
    act = left_translation_action(g)
    parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
    indicator = variable_from_point_labels([1.0, 1.0, 0.0, 0.0])
    checks = []

    ok, _ = is_permissible(parity, act)
    checks.append(exact_check(
        "parity_variable_permissible", ok,
        "equal parities stay equal under every shift (exhaustive)",
    ))

    ok2, witness = is_permissible(indicator, act)
    checks.append(exact_check(
        "indicator_variable_not_permissible", (not ok2) and witness == (1, 0, 1),
        f"witness (element, point, point) = {witness}",
    ))

    induced = induce_group(parity, act)
    hom_ok, _ = check_homomorphism(induced.k_to_image, g, induced.image_group)
    checks.append(exact_check(
        "induced_map_homomorphism_all_pairs", hom_ok,
        "f(s*k) = f(s)f(k) for the generator and all 4 elements, which "
        "implies all 16 ordered pairs",
    ))
    checks.append(exact_check(
        "induced_kernel_two_element_subgroup", induced.kernel == (0, 2),
        f"kernel = {list(induced.kernel)}",
    ))
    c2 = cyclic_group(2)
    image_matches = (
        induced.image_group.order == 2
        and np.array_equal(induced.image_group.cayley, c2.cayley)
    )
    checks.append(exact_check(
        "induced_image_is_two_element_cyclic", image_matches,
        "image Cayley table equals the order-2 cyclic table",
    ))
    n_distinct = len({tuple(r) for r in induced.value_action.perm})
    checks.append(exact_check(
        "quotient_by_kernel_injective",
        n_distinct == g.order // len(induced.kernel),
        f"{n_distinct} distinct value permutations for 4 elements, kernel 2",
    ))

    H = maximal_permissible_subgroup(indicator, act)
    checks.append(exact_check(
        "indicator_maximal_subgroup", H == (0, 2), f"H = {list(H)}",
    ))

    brute_ok = all(
        is_permissible_under(indicator, act, S) == (set(S) <= set(H))
        for S in [(0,), (0, 2), (0, 1, 2, 3)]
    ) and not any(
        is_permissible_under(indicator, act, subgroup_generated(g, H + (h,)))
        for h in range(g.order) if h not in H
    )
    checks.append(exact_check(
        "subgroup_maximality_brute_force", brute_ok,
        "restricted verdicts match on every subgroup; adjoining any outside "
        "element breaks the variable",
    ))

    basis = np.eye(2, dtype=np.complex128)
    bundle = build_operator(basis, 1.0, list(parity.value_labels))
    value_rep = permutation_rep(induced.value_action)
    Hp = maximal_permissible_subgroup(parity, act)
    cov = covariance_check(bundle, value_rep, Hp, parity, act)
    checks.append(make_check(
        "covariance_all_subgroup_elements", cov.distance, 1e-9,
        f"conjugation matches relabelling for all {len(Hp)} elements",
    ))

    ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
    const = variable_from_point_labels([7.0, 7.0, 7.0, 7.0])
    leq1, f1 = accessibility_leq(parity, ident)
    leq2, _ = accessibility_leq(ident, const)
    leq3, f3 = accessibility_leq(parity, parity)
    order_ok = (
        leq1 and list(f1) == [0, 1, 0, 1]
        and not leq2
        and leq3 and list(f3) == [0, 1]
    )
    checks.append(exact_check(
        "coarser_finer_partial_order", order_ok,
        "parity factors through the identity; identity does not factor "
        "through a constant; reflexivity holds",
    ))

    # parity as an accessible function of the identity variable, read off
    # the factor table f1: relabelling the finer basis through it merges
    # eigenvalues, so the coarse operator is not maximal
    ok, details = False, "parity does not factor through the identity"
    if leq1:
        to_parity = dict(zip(ident.value_labels,
                             (parity.value_labels[i] for i in f1)))
        basis4 = np.eye(4, dtype=np.complex128)
        blocks, coarse = coarse_grain(basis4, ident.value_labels,
                                      to_parity.__getitem__)
        _, fine = coarse_grain(basis4, ident.value_labels, lambda u: u)
        ok = (blocks == ((0, 2), (1, 3))
              and not maximality_check(coarse) and maximality_check(fine))
        details = (f"blocks = {[list(b) for b in blocks]}; the coarse "
                   "operator is degenerate, the identity relabelling is not")
    checks.append(exact_check("parity_coarse_grain_not_maximal", ok, details))
    return checks


# ---------------------------------------------------------------------------
# coherent-state scenarios


def _coherent_d4_checks(params) -> list[Check]:
    g = make_named_group("dihedral:4")
    act = dihedral_vertex_action(g)
    rep = dihedral_rotation_rep(g)
    cs = make_coherent(rep, act, 0, (1.0, 0.0))
    frame = frame_operator(cs)
    checks = []

    checks.append(exact_check(
        "rotation_rep_irreducible", cs.commutant_dim == 1,
        f"commutant dimension = {cs.commutant_dim}",
    ))

    err = float(np.linalg.norm(frame.T - 4.0 * np.eye(2)))
    checks.append(make_check(
        "frame_operator_four_times_identity", err, 1e-10,
        f"scalar = {frame.lam:.6g} over 8 orbit states",
    ))

    w = 1.0 / frame.lam

    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    phase = np.diag([1.0, 1.0j])
    worst = max(
        resolution_deviation(unitary_transport(cs, W).states, w)
        for W in (had, phase)
    )
    checks.append(make_check(
        "transport_preserves_resolution", worst, 1e-9,
        "orbit carried through a Hadamard-type and a phase unitary",
    ))
    return checks


def _coherent_bt24_checks(params) -> list[Check]:
    g = make_named_group("binary_tetrahedral")
    rep = binary_tetrahedral_spin_rep(g)
    act = left_translation_action(g)
    cs = make_coherent(rep, act, g.identity, (1.0, 0.0))
    checks = []

    checks.append(exact_check(
        "group_order_24", g.order == 24, f"order = {g.order}",
    ))
    checks.append(exact_check(
        "spin_half_rep_irreducible", cs.commutant_dim == 1,
        f"commutant dimension = {cs.commutant_dim}",
    ))

    norm_dev = float(np.max(np.abs(np.linalg.norm(cs.states, axis=1) - 1.0)))
    checks.append(make_check(
        "orbit_states_unit_norm", norm_dev, 1e-12,
        "24 states from the fiducial (1, 0)",
    ))

    frame = frame_operator(cs)
    err = float(np.linalg.norm(frame.T - 12.0 * np.eye(2)))
    checks.append(make_check(
        "frame_operator_twelve_times_identity", err, 1e-9,
        f"scalar = {frame.lam:.6g} over 24 orbit states",
    ))
    return checks


# ---------------------------------------------------------------------------
# spin scenario


def _spin_checks(params) -> list[Check]:
    j = params["j"]
    _check_spin(j)
    a = np.asarray(params["direction"])
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if a.shape != (3,) or not 1e-12 <= norm < np.inf:
        raise ConfigParseError("direction must be a nonzero, finite 3-vector")
    a = a / norm
    checks = []

    # errors relative to the size of the operators compared, which grows
    # with j, so that one tolerance serves every spin
    J = np.stack(spin_generators(j))
    Jx, Jy, Jz = J
    d = len(Jx)
    j_scale = max(1.0, float(np.linalg.norm(J)))
    comm_err = max(
        max_abs(Jx @ Jy - Jy @ Jx - 1j * Jz),
        max_abs(Jy @ Jz - Jz @ Jy - 1j * Jx),
        max_abs(Jz @ Jx - Jx @ Jz - 1j * Jy),
    )
    checks.append(make_check(
        "generator_commutation_relations", comm_err / j_scale, 1e-10,
        "all three cyclic commutators, relative to the norm of J",
    ))

    bundle = spin_component_operator(j, a)
    ladder = np.arange(-j, j + 0.5)
    spec_err = float(np.max(np.abs(bundle.eigenvalues - ladder)))
    checks.append(make_check(
        "component_spectrum_ladder_values", spec_err, 1e-9,
        f"eigenvalues of the component along {np.round(a, 6).tolist()}",
    ))

    # U(s)^dag J_i U(s) = sum_k R(s)_ik J_k on the generators s. Conjugation
    # by a unitary and R acting on the index i both keep the Frobenius error
    # of the triple J, so a word of L generators errs by at most the sum of
    # its letters' errors: every element is within depth * the largest.
    g = make_named_group("binary_tetrahedral")
    gen_err = 0.0
    for s in g.generators:
        axis, angle = quaternion_axis_angle(g.elements[s])
        U, R = spin_rotation(j, axis, angle), rotation_matrix(axis, angle)
        gen_err = max(gen_err, math.hypot(*(
            np.linalg.norm(U.conj().T @ J[i] @ U - np.tensordot(R[i], J, 1))
            for i in range(3))))
    rel_err = g.depth * gen_err / j_scale
    checks.append(make_check(
        "component_covariance_binary_tetrahedral", rel_err, 1e-9,
        "U(s)^dag J U(s) = R(s) J on both generators of the binary tetrahedral "
        f"group, relative to the norm of J; {g.depth} (the generation depth) "
        "times the larger generator error bounds every element, so with the "
        "ladder values the spectrum holds along every direction in the orbit "
        "of a under the group's 12 rotations",
    ))

    checks.append(exact_check(
        "component_operator_maximal", maximality_check(bundle),
        "every eigenvalue cluster is one-dimensional (clustering tolerance "
        f"{DEGENERACY_TOL:.1e})",
    ))

    # U(k), the rotation by 2*pi*k/8 about a, from the measured spectrum
    spec = bundle.spectrum

    def turn(k):
        return spec.reconstruct(np.exp(-0.25j * np.pi * k * spec.eigenvalues))

    sign = (-1.0) ** int(round(2 * j))
    err_2pi = float(np.linalg.norm(turn(8) - sign * np.eye(d)))
    checks.append(make_check(
        "full_turn_rotation_sign", err_2pi, 1e-9,
        f"rotation by 2*pi equals {int(sign)} * identity at spin {j}",
    ))
    err_4pi = float(np.linalg.norm(turn(16) - np.eye(d)))
    checks.append(make_check(
        "double_turn_rotation_identity", err_4pi, 1e-9, "rotation by 4*pi",
    ))

    if d > 1:
        # the half turn about a perpendicular axis b, read off the spectrum
        # of the component along b, whose eigenbasis the question/answer
        # check below uses as well
        spec_b = spin_component_operator(j, perpendicular_unit(a)).spectrum
        U = spec_b.reconstruct(np.exp(-1j * np.pi * spec_b.eigenvalues))
        try:
            cov = conjugation_covariance(bundle, U, np.arange(d - 1, -1, -1))
        except NotUnitaryError:
            # no covariance was measured, so no tolerance override may pass
            # the check: it fails as an exact check
            err = float(np.linalg.norm(U.conj().T @ U - np.eye(d)))
            checks.append(exact_check(
                "covariance_half_turn_reverses_labels", False,
                f"the half turn is not unitary: ||U^dag U - I||_F = {err:.3e}",
            ))
        else:
            checks.append(make_check(
                "covariance_half_turn_reverses_labels",
                cov.distance / max(1.0, float(np.linalg.norm(bundle.matrix))),
                1e-9,
                "half turn about a perpendicular axis negates the component, "
                "relative to the norm of the component",
            ))

    flip_perms = spectrum_permutations(
        bundle.eigenvalues, [lambda u: u, lambda u: -u]
    )
    blocks = eigen_orbit_partition(bundle, flip_perms)
    expected_blocks = tuple(tuple(sorted({i, d - 1 - i}))
                            for i in range((d + 1) // 2))
    checks.append(exact_check(
        "sign_flip_orbit_partition", blocks == expected_blocks,
        f"orbits of eigenvalue ids = {[list(b) for b in blocks]} "
        f"(clustering tolerance {DEGENERACY_TOL:.1e})",
    ))

    basis = bundle.spectrum.vectors
    dev = resolution_deviation(basis.T, 1.0)
    checks.append(make_check(
        "eigenbasis_resolves_identity", dev, 1e-9, "unit weights",
    ))

    if d > 1:
        bases = {"component_a": basis, "component_b": spec_b.vectors}
        v = basis[:, 0]
        try:
            matches = question_answer_match(v, bases)
        except NotOrthonormalError as exc:
            matches, details = None, str(exc)
        else:
            details = f"matches = {matches}"
        checks.append(exact_check(
            "question_answer_unique_match", matches == [("component_a", 0)],
            details,
        ))

    if params["reduce"]:
        target = bundle.eigenvalues[list(blocks[-1])].tolist()
        reduced = model_reduce(bundle.eigenvalues, flip_perms, target)
        checks.append(exact_check(
            "reduction_to_sign_flip_orbit",
            reduced.value_labels == tuple(sorted(target)),
            f"reduced label set = {list(reduced.value_labels)}",
        ))
        if d > 1:
            try:
                model_reduce(bundle.eigenvalues, flip_perms,
                             [float(bundle.eigenvalues[0])])
                rejected = False
            except NotAnOrbitError:
                rejected = True
            checks.append(exact_check(
                "reduction_rejects_non_orbit", rejected,
                "the lowest eigenvalue alone is not closed under the flip",
            ))

    return checks


# ---------------------------------------------------------------------------
# phase-space scenario


def _compose(a, b):
    """The (perm, phase) pair of V_a V_b from those of V_a and V_b."""
    (pa, fa), (pb, fb) = a, b
    return pa[pb], fa[pb] * fb


def _phase_checks(params) -> list[Check]:
    """Continuous translations are demonstrated on a finite cyclic lattice;
    genuinely continuous spectra are out of scope, so no reduction is
    performed here."""
    n = _check_size(params["n"])
    c, d = params["c"], params["d"]
    checks = []

    # each rep measures its product law on generators x all elements,
    # which bounds every pair (see MonomialRep)
    g = cyclic_group(n)
    srep = ps.shift_rep(g)
    crep = ps.clock_rep(g)
    checks.append(make_check(
        "shift_rep_of_cyclic_group", srep.law_error, 1e-12,
        "permutation matrices multiply along the Cayley table",
    ))
    checks.append(make_check(
        "clock_rep_of_cyclic_group", crep.law_error, 1e-10,
        "diagonal phase matrices multiply along the Cayley table",
    ))

    # F is built here once; momentum_operator builds its own, so that the
    # conjugation check below compares two routes
    F = ps.fourier_matrix(n)
    checks.append(make_check(
        "mutually_unbiased_position_momentum", ps.mub_deviation(F), 1e-10,
        f"all squared overlaps equal 1/{n}",
    ))

    X = ps.position_operator(n).matrix
    P = ps.momentum_operator(n).matrix
    cnorm = float(np.linalg.norm(X @ P - P @ X))
    checks.append(exact_check(
        "position_momentum_noncommuting", cnorm > 1e-6,
        f"commutator_norm = {cnorm:.6g}",
    ))

    # V(1)^n by repeated squaring of (perm, phase), the bits of n taken
    # from the lowest; ||V(1)^n - I||_F sums |phase - 1|^2 over the fixed
    # points and |phase|^2 + 1 over the moved ones
    unit = srep.action.perm[1], srep.phase[1]
    power, bits = (np.arange(n), np.ones(n)), n
    while bits:
        if bits & 1:
            power = _compose(power, unit)
        unit, bits = _compose(unit, unit), bits >> 1
    p, f = power
    fixed = p == np.arange(n)
    f = np.where(fixed, f - 1, f)
    err = math.sqrt(float(np.sum(f.real ** 2 + f.imag ** 2)) + np.count_nonzero(~fixed))
    checks.append(make_check(
        "shift_full_cycle_is_identity", err, 1e-12,
        f"{n} unit shifts compose to the identity",
    ))

    conj_err = float(np.linalg.norm(P - F @ X @ F.conj().T))
    checks.append(make_check(
        "momentum_operator_is_fourier_conjugate", conj_err, 1e-9,
        "two construction routes for the momentum operator agree",
    ))

    # W = S^c C^d is monomial, so W^dag W is diagonal with entries |phase|^2
    _, f = _compose((srep.action.perm[c % n], srep.phase[c % n]),
                    (crep.action.perm[d % n], crep.phase[d % n]))
    uni_err = float(np.linalg.norm(f.real ** 2 + f.imag ** 2 - 1))
    checks.append(make_check(
        "paired_translation_unitary", uni_err, 1e-12,
        f"position shift {c} paired with momentum shift {d}",
    ))
    return checks


# ---------------------------------------------------------------------------
# driver

_SCENARIOS = {
    "spin": (
        _spin_checks,
        {
            "j": 0.5,
            "direction": [0.0, 0.0, 1.0],
            "reduce": True,
        },
    ),
    "phase": (_phase_checks, {"n": 4, "c": 1, "d": 1}),
    "pedagogy_z4": (_pedagogy_z4_checks, {}),
    "coherent_d4": (_coherent_d4_checks, {}),
    "coherent_bt24": (_coherent_bt24_checks, {}),
}

BUILTIN_SCENARIOS = tuple(_SCENARIOS)


def _finite_number(value) -> bool:
    """A non-bool int or float within the float range (NaN compares false)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _coerce_param(name: str, value, default):
    """Coerce a configuration value to the type of its default; numbers
    must be finite."""
    bad = ConfigParseError(f"bad value for parameter {name!r}: {value!r}")
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise bad
        return value
    if isinstance(default, (int, float)):
        integral = isinstance(default, int)
        if not _finite_number(value) or (integral and int(value) != value):
            raise bad
        return int(value) if integral else float(value)
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not all(map(_finite_number, value)):
            raise bad
        return [float(x) for x in value]
    raise bad


def parse_config(config) -> dict:
    """Validate a configuration document and fill in defaults."""
    if not isinstance(config, dict):
        raise ConfigParseError("configuration must be a JSON object")
    unknown = set(config) - {"scenario", "params", "tolerances", "seed"}
    if unknown:
        raise ConfigParseError(f"unknown configuration keys: {sorted(unknown)}")
    if "scenario" not in config:
        raise ConfigParseError("configuration must name a scenario")
    name = config["scenario"]
    if not isinstance(name, str):
        raise ConfigParseError("scenario must be a string")
    if name not in _SCENARIOS:
        raise UnknownScenarioError(f"unknown scenario: {name!r}")
    _, defaults = _SCENARIOS[name]
    params = config.get("params") or {}
    if not isinstance(params, dict):
        raise ConfigParseError("params must be an object")
    bad = set(params) - set(defaults)
    if bad:
        raise ConfigParseError(f"unknown params for {name}: {sorted(bad)}")
    resolved_params = {
        key: _coerce_param(key, params.get(key, default), default)
        for key, default in defaults.items()
    }
    tolerances = config.get("tolerances") or {}
    if not isinstance(tolerances, dict):
        raise ConfigParseError("tolerances must be an object")
    bad = sorted(str(k) for k, v in tolerances.items()
                 if not (_finite_number(v) and v >= 0))
    if bad:
        raise ConfigParseError(
            f"tolerance overrides must be finite, non-negative numbers: {bad}")
    tolerances = {str(k): float(v) for k, v in tolerances.items()}
    seed = config.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigParseError("seed must be an integer")
    return {
        "scenario": name,
        "params": resolved_params,
        "tolerances": tolerances,
        "seed": seed,
    }


def run_scenario(config) -> VerificationReport:
    """Run one scenario from a configuration document and apply its
    tolerance overrides to the checks that have a tolerance (above 0:
    exact checks have none)."""
    resolved = parse_config(config)
    runner, _ = _SCENARIOS[resolved["scenario"]]
    overrides = resolved["tolerances"]
    start = time.perf_counter()
    try:
        checks = runner(resolved["params"])
    except (BadSpinError, BadSizeError) as exc:
        raise ConfigParseError(f"invalid parameters: {exc}") from exc
    toleranced = {c.name for c in checks if c.tolerance > 0}
    unused = sorted(set(overrides) - toleranced - {"*"})
    if unused:
        raise ConfigParseError(
            f"tolerance overrides name no toleranced check of "
            f"{resolved['scenario']}: {unused}")
    checks = [
        replace(c, tolerance=overrides.get(c.name, overrides.get("*", c.tolerance)))
        if c.tolerance > 0 else c
        for c in checks
    ]
    timing_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        scenario=resolved["scenario"], checks=tuple(checks),
        timing_ms=timing_ms, config_echo=resolved,
    )


def run_all(tolerances=None) -> list[VerificationReport]:
    """Run every built-in scenario with default parameters."""
    reports = []
    for name in BUILTIN_SCENARIOS:
        config = {"scenario": name}
        if tolerances:
            config["tolerances"] = dict(tolerances)
        reports.append(run_scenario(config))
    return reports

