"""Built-in end-to-end scenarios and the verification driver.

Each scenario is a setup, which only builds the objects its checks share
from params that parse_config has already validated, and a table that
declares each check once as a CheckSpec. The setup neither validates nor
edits its params: parse_config alone refuses a configuration, checking
each param against the type of its default and the bound declared beside
it (the spin's bound also rounds j to its half-integer, which the report
then echoes). run_scenario alone runs the declared checks in order,
applies the tolerance overrides and turns a declared exception into a
failed exact check. Every verdict is proved on finite objects; nothing draws
random numbers. The optional "seed" is validated and echoed, but feeds
nothing.

Configuration document (one UTF-8 JSON object):
    {"scenario": str, "params": object?, "tolerances": object?, "seed": int?}
Tolerance overrides are finite, non-negative numbers keyed by the name of
a check that the scenario declares with a tolerance for the given params;
the key "*" overrides every such check. parse_config refuses any other
key, before the scenario's setup runs.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import phasespace as ps
from .coherent import (
    NotUnitaryError,
    binary_tetrahedral_spin_rep,
    dihedral_rotation_rep,
    frame_operator,
    make_coherent,
    permutation_rep,
)
from .groups import (
    GeneratorLawError,
    binary_tetrahedral_group,
    check_homomorphism,
    cyclic_group,
    dihedral_vertex_action,
    element_blocks,
    left_translation_action,
    make_named_group,
    subgroup_generated,
)
from .linalg import DEGENERACY_TOL, max_abs, resolution_deviation, unitarity_errors
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
from .phasespace import _check_size
from .reporting import Check, VerificationReport, exact_check, make_check
from .spin import (
    perpendicular_unit,
    quaternion_axis_angle,
    rotation_matrix,
    spin_component_operator,
    spin_generators,
    spin_rotation,
    _check_spin,
    _combination,
    _generator,
    _ladder,
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


class CheckSpec(NamedTuple):
    """One declared check. run(shared) returns (error, details), or, for an
    exact check (tolerance 0), (verdict, details). The report holds the
    check when when(params) is true. An exception of the types in
    fails_on[0] fails it as an exact check, with details
    fails_on[1](shared, exc)."""

    name: str
    tolerance: float
    run: Callable
    when: Callable = lambda params: True
    fails_on: tuple = ((), None)


# ---------------------------------------------------------------------------
# pedagogy: shift action on four points


def _z4_setup(params) -> SimpleNamespace:
    g = cyclic_group(4)
    act = left_translation_action(g)
    parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
    indicator = variable_from_point_labels([1.0, 1.0, 0.0, 0.0])
    ident = variable_from_point_labels([0.0, 1.0, 2.0, 3.0])
    return SimpleNamespace(
        g=g, act=act, parity=parity, indicator=indicator, ident=ident,
        induced=induce_group(parity, act), H=maximal_permissible_subgroup(indicator, act),
        parity_of_ident=accessibility_leq(parity, ident))


def _indicator_not_permissible(s):
    ok, witness = is_permissible(s.indicator, s.act)
    return (not ok) and witness == (1, 0, 1), \
        f"witness (element, point, point) = {witness}"


def _quotient_injective(s):
    n_distinct = len({tuple(r) for r in s.induced.value_action.perm})
    return (n_distinct == s.g.order // len(s.induced.kernel),
            f"{n_distinct} distinct value permutations for 4 elements, kernel 2")


def _maximality_brute_force(s):
    ok = all(
        is_permissible_under(s.indicator, s.act, S) == (set(S) <= set(s.H))
        for S in [(0,), (0, 2), (0, 1, 2, 3)]
    ) and not any(
        is_permissible_under(s.indicator, s.act, subgroup_generated(s.g, s.H + (h,)))
        for h in range(s.g.order) if h not in s.H
    )
    return ok, ("restricted verdicts match on every subgroup; adjoining any "
                "outside element breaks the variable")


def _z4_covariance(s):
    bundle = build_operator(np.eye(2, dtype=np.complex128), 1.0,
                            list(s.parity.value_labels))
    value_rep = permutation_rep(s.induced.value_action)
    Hp = maximal_permissible_subgroup(s.parity, s.act)
    cov = covariance_check(bundle, value_rep, Hp, s.parity, s.act)
    return cov.distance, f"conjugation matches relabelling for all {len(Hp)} elements"


def _partial_order(s):
    leq1, f1 = s.parity_of_ident
    leq2, _ = accessibility_leq(s.ident, variable_from_point_labels([7.0] * 4))
    leq3, f3 = accessibility_leq(s.parity, s.parity)
    ok = (leq1 and list(f1) == [0, 1, 0, 1]
          and not leq2
          and leq3 and list(f3) == [0, 1])
    return ok, ("parity factors through the identity; identity does not factor "
                "through a constant; reflexivity holds")


def _coarse_grain_not_maximal(s):
    # parity as an accessible function of the identity variable, read off
    # the factor table f1: relabelling the finer basis through it merges
    # eigenvalues, so the coarse operator is not maximal
    leq1, f1 = s.parity_of_ident
    if not leq1:
        return False, "parity does not factor through the identity"
    labels = s.ident.value_labels
    to_parity = dict(zip(labels, (s.parity.value_labels[i] for i in f1)))
    basis4 = np.eye(4, dtype=np.complex128)
    blocks, coarse = coarse_grain(basis4, labels, to_parity.__getitem__)
    _, fine = coarse_grain(basis4, labels, lambda u: u)
    ok = (blocks == ((0, 2), (1, 3))
          and not maximality_check(coarse) and maximality_check(fine))
    return ok, (f"blocks = {[list(b) for b in blocks]}; the coarse operator "
                "is degenerate, the identity relabelling is not")


_Z4_CHECKS = (
    CheckSpec("parity_variable_permissible", 0, lambda s: (
        is_permissible(s.parity, s.act)[0],
        "equal parities stay equal under every shift (exhaustive)")),
    CheckSpec("indicator_variable_not_permissible", 0, _indicator_not_permissible),
    CheckSpec("induced_map_homomorphism_all_pairs", 0, lambda s: (
        check_homomorphism(s.induced.k_to_image, s.g, s.induced.image_group)[0],
        "f(s*k) = f(s)f(k) for the generator and all 4 elements, which "
        "implies all 16 ordered pairs")),
    CheckSpec("induced_kernel_two_element_subgroup", 0, lambda s: (
        s.induced.kernel == (0, 2), f"kernel = {list(s.induced.kernel)}")),
    CheckSpec("induced_image_is_two_element_cyclic", 0, lambda s: (
        s.induced.image_group.order == 2
        and np.array_equal(s.induced.image_group.cayley, cyclic_group(2).cayley),
        "image Cayley table equals the order-2 cyclic table")),
    CheckSpec("quotient_by_kernel_injective", 0, _quotient_injective),
    CheckSpec("indicator_maximal_subgroup", 0, lambda s: (
        s.H == (0, 2), f"H = {list(s.H)}")),
    CheckSpec("subgroup_maximality_brute_force", 0, _maximality_brute_force),
    CheckSpec("covariance_all_subgroup_elements", 1e-9, _z4_covariance),
    CheckSpec("coarser_finer_partial_order", 0, _partial_order),
    CheckSpec("parity_coarse_grain_not_maximal", 0, _coarse_grain_not_maximal),
)


# ---------------------------------------------------------------------------
# coherent-state scenario: one row per declared system


# group name -> (action builder, rep builder, fiducial). Every row's base
# point is 0: vertex 0 of the dihedral action, the binary tetrahedral identity
_SYSTEMS = {
    "dihedral:4": (dihedral_vertex_action, dihedral_rotation_rep, (1.0, 0.0)),
    "binary_tetrahedral": (left_translation_action, binary_tetrahedral_spin_rep,
                           (1.0, 0.0)),
}


def _coherent_setup(params) -> dict:
    systems = {}
    for name, (action, rep, fiducial) in _SYSTEMS.items():
        g = make_named_group(name)
        cs = make_coherent(rep(g), action(g), 0, fiducial)
        systems[name] = SimpleNamespace(cs=cs, frame=frame_operator(cs))
    return systems


def _irreducible(name, systems):
    cs = systems[name].cs
    return cs.commutant_dim == 1, f"commutant dimension = {cs.commutant_dim}"


def _frame_scalar(name, systems):
    """||T - c I_d||_F against the closed form c = |G| ||f||^2 / d."""
    cs, frame = systems[name].cs, systems[name].frame
    d = cs.rep.dim
    c = cs.rep.group.order * np.vdot(cs.fiducial, cs.fiducial).real / d
    return (float(np.linalg.norm(frame.T - c * np.eye(d))),
            f"scalar = {frame.lam:.6g} over {len(cs.states)} orbit states")


_COHERENT_CHECKS = tuple(spec for name in _SYSTEMS for spec in (
    CheckSpec(f"rep_irreducible[{name}]", 0, functools.partial(_irreducible, name)),
    CheckSpec(f"frame_scalar[{name}]", 1e-10, functools.partial(_frame_scalar, name)),
))


# ---------------------------------------------------------------------------
# spin scenario


def _nonzero_direction(direction: list) -> list:
    """The bound of the spin's direction: a finite 3-vector, nonzero."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(direction)
    if len(direction) != 3 or not 1e-12 <= norm < np.inf:
        raise ValueError("direction must be a nonzero, finite 3-vector")
    return direction


def _spin_setup(params) -> SimpleNamespace:
    # parse_config has rounded j to its half-integer: the matrices, the
    # details, the ladder comparison and the echoed params all use it
    j = params["j"]
    # errors relative to the size of the operators compared, which grows
    # with j, so that one tolerance serves every spin. J itself is not
    # kept: the two checks that read it fill one generator at a time
    j_scale = max(1.0, float(np.linalg.norm(spin_generators(j))))
    a = np.asarray(params["direction"])
    a = a / np.linalg.norm(a)
    bundle = spin_component_operator(j, a)
    flip_perms = spectrum_permutations(bundle.eigenvalues, [lambda u: u, lambda u: -u])
    # the spectrum along a perpendicular axis b, read by the half turn and
    # the question/answer check, is built at its first use: built here, it
    # raised the tracemalloc peak at j = 50 from 1.90 to 2.06 MiB
    spec_b = functools.cache(
        lambda: spin_component_operator(j, perpendicular_unit(a)).spectrum)
    return SimpleNamespace(
        j=j, a=a, d=len(bundle.matrix), j_scale=j_scale,
        bundle=bundle, flip_perms=flip_perms, spec_b=spec_b,
        blocks=eigen_orbit_partition(bundle, flip_perms))


def _d_above_1(params) -> bool:
    return params["j"] > 0


def _commutation(s):
    # each residual A @ B - B @ A - 1j * C, in that order, formed in one
    # buffer beside one temporary. The generators are filled per residual
    # from one ladder, and A and B are released before C is filled
    ladder = _ladder(s.j)
    err = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        A, B = _generator(ladder, a), _generator(ladder, b)
        res = A @ B
        res -= B @ A
        del A, B
        res -= 1j * _generator(ladder, c)
        err = max(err, max_abs(res))
    return err / s.j_scale, "all three cyclic commutators, relative to the norm of J"


def _generator_turn_error(j, q):
    """The Frobenius error of U^dag J U = R J, over the triple J, for the
    rotation named by the quaternion q."""
    axis, angle = quaternion_axis_angle(q)
    U, R = spin_rotation(j, axis, angle), rotation_matrix(axis, angle)
    # each residual U^dag J_i U - sum_k R_ik J_k is formed in one buffer, in
    # that order, J_i and the combination filled on their bands from one
    # ladder while it is formed, after U's eigendecomposition
    ladder = _ladder(j)

    def residual_norm(i):
        res = U.conj().T @ _generator(ladder, i)
        res = res @ U
        res -= _combination(ladder, R[i])
        return np.linalg.norm(res)

    return math.hypot(*(residual_norm(i) for i in range(3)))


# built and validated once per process; bound at import, so that a builder
# patched into groups later never fills the cache
_bt_group = functools.cache(binary_tetrahedral_group)


def _bt_covariance(s):
    # U(s)^dag J_i U(s) = sum_k R(s)_ik J_k on the generators s. Conjugation
    # by a unitary and R acting on the index i both keep the Frobenius error
    # of the triple J, so a word of L generators errs by at most the sum of
    # its letters' errors: every element is within depth * the largest.
    # One generator's U is released before the next U is built.
    g = _bt_group()
    gen_err = max(_generator_turn_error(s.j, g.elements[gen]) for gen in g.generators)
    return g.depth * gen_err / s.j_scale, (
        "U(s)^dag J U(s) = R(s) J on both generators of the binary tetrahedral "
        f"group, relative to the norm of J; {g.depth} (the generation depth) "
        "times the larger generator error bounds every element, so with the "
        "ladder values the spectrum holds along every direction in the orbit "
        "of a under the group's 12 rotations")


def _turn_error(s, k, sign):
    """||U(k) - sign * I||_F for U(k), the rotation by 2*pi*k/8 about a,
    from the measured spectrum; sign comes off U's diagonal in place."""
    spec = s.bundle.spectrum
    U = spec.reconstruct(np.exp(-0.25j * np.pi * k * spec.eigenvalues))
    U[np.diag_indices(s.d)] -= sign
    return float(np.linalg.norm(U))


def _full_turn(s):
    sign = (-1.0) ** int(round(2 * s.j))
    return (_turn_error(s, 8, sign),
            f"rotation by 2*pi equals {int(sign)} * identity at spin {s.j}")


def _half_turn_unitary(s):
    """The rotation by pi about the perpendicular axis b, from b's spectrum;
    it is built for its check and not kept."""
    spec = s.spec_b()
    return spec.reconstruct(np.exp(-1j * np.pi * spec.eigenvalues))


def _half_turn(s):
    cov = conjugation_covariance(s.bundle, _half_turn_unitary(s),
                                 np.arange(s.d - 1, -1, -1))
    return (cov.distance / max(1.0, float(np.linalg.norm(s.bundle.matrix))),
            "half turn about a perpendicular axis negates the component, "
            "relative to the norm of the component")


def _half_turn_not_unitary(s, exc):
    err = unitarity_errors(_half_turn_unitary(s))[0]
    return f"the half turn is not unitary: ||U^dag U - I||_F = {err:.3e}"


def _sign_flip_orbits(s):
    expected = tuple(tuple(sorted({i, s.d - 1 - i})) for i in range((s.d + 1) // 2))
    return s.blocks == expected, (
        f"orbits of eigenvalue ids = {[list(b) for b in s.blocks]} "
        f"(clustering tolerance {DEGENERACY_TOL:.1e})")


def _question_answer(s):
    basis = s.bundle.spectrum.vectors
    matches = question_answer_match(
        basis[:, 0], {"component_a": basis, "component_b": s.spec_b().vectors})
    return matches == [("component_a", 0)], f"matches = {matches}"


def _reduction(s):
    target = s.bundle.eigenvalues[list(s.blocks[-1])].tolist()
    reduced = model_reduce(s.bundle.eigenvalues, s.flip_perms, target)
    return (reduced.value_labels == tuple(sorted(target)),
            f"reduced label set = {list(reduced.value_labels)}")


def _rejects_non_orbit(s):
    try:
        model_reduce(s.bundle.eigenvalues, s.flip_perms,
                     [float(s.bundle.eigenvalues[0])])
        rejected = False
    except NotAnOrbitError:
        rejected = True
    return rejected, "the lowest eigenvalue alone is not closed under the flip"


_SPIN_CHECKS = (
    CheckSpec("generator_commutation_relations", 1e-10, _commutation),
    CheckSpec("component_spectrum_ladder_values", 1e-9, lambda s: (
        float(np.max(np.abs(s.bundle.eigenvalues - np.arange(-s.j, s.j + 0.5)))),
        f"eigenvalues of the component along {np.round(s.a, 6).tolist()}")),
    CheckSpec("component_covariance_binary_tetrahedral", 1e-9, _bt_covariance),
    CheckSpec("component_operator_maximal", 0, lambda s: (
        maximality_check(s.bundle),
        "every eigenvalue cluster is one-dimensional (clustering tolerance "
        f"{DEGENERACY_TOL:.1e})")),
    CheckSpec("full_turn_rotation_sign", 1e-9, _full_turn),
    CheckSpec("double_turn_rotation_identity", 1e-9, lambda s: (
        _turn_error(s, 16, 1.0), "rotation by 4*pi")),
    CheckSpec("covariance_half_turn_reverses_labels", 1e-9, _half_turn,
              when=_d_above_1, fails_on=(NotUnitaryError, _half_turn_not_unitary)),
    CheckSpec("sign_flip_orbit_partition", 0, _sign_flip_orbits),
    CheckSpec("eigenbasis_resolves_identity", 1e-9, lambda s: (
        resolution_deviation(s.bundle.spectrum.vectors.T, 1.0), "unit weights")),
    CheckSpec("question_answer_unique_match", 0, _question_answer,
              when=_d_above_1, fails_on=(NotOrthonormalError, lambda s, exc: str(exc))),
    CheckSpec("reduction_to_sign_flip_orbit", 0, _reduction,
              when=lambda params: params["reduce"]),
    CheckSpec("reduction_rejects_non_orbit", 0, _rejects_non_orbit,
              when=lambda params: params["reduce"] and _d_above_1(params)),
)


# ---------------------------------------------------------------------------
# phase-space scenario
#
# Continuous translations are demonstrated on a finite cyclic lattice;
# genuinely continuous spectra are out of scope, so no reduction is
# performed here.


def _phase_setup(params) -> SimpleNamespace:
    n = params["n"]
    g = cyclic_group(n)
    # each rep proves its laws exactly when it is built, and refuses a rep
    # that breaks one, so the shift and clock are built at their first use
    # by a check, which a refusal then fails in a written report. X = diag(x)
    # is kept as x; the one check that reads F builds it
    return SimpleNamespace(
        n=n, c=params["c"], d=params["d"],
        srep=functools.cache(lambda: ps.shift_rep(g)),
        crep=functools.cache(lambda: ps.clock_rep(g)),
        x=np.arange(n, dtype=float), P=ps.momentum_operator(n).matrix)


def _rep_refused(s, exc):
    return str(exc)


def _laws_hold(rep, details):
    """The run of the check that a rep's laws hold: its constructor proves
    them on integers, or raises GeneratorLawError."""
    def run(s):
        getattr(s, rep)()
        return True, details
    return run


def _compose(a, b):
    """The (perm, exponent) pair of V_a V_b from those of V_a and V_b, the
    exponents over one modulus."""
    (pa, ea), (pb, eb) = a, b
    return pa[pb], ea[pb] + eb


def _weyl(s):
    # C^d S^c = w^(cd) S^c C^d, w = exp(2 pi i / n), on (perm, exponent)
    # pairs, the exponents raised to a modulus M that n and both reps'
    # moduli divide
    n, c, d = s.n, s.c % s.n, s.d % s.n
    S, C = s.srep(), s.crep()
    M = math.lcm(n, S.modulus, C.modulus)

    def pair(rep, k):
        return rep.action.perm[k], rep.exponent[k].astype(np.intp) * (M // rep.modulus)

    (p1, e1), (p2, e2) = _compose(pair(C, d), pair(S, c)), _compose(pair(S, c), pair(C, d))
    ok = np.array_equal(p1, p2) and not ((e1 - e2 - c * d * (M // n)) % M).any()
    return ok, (f"position shift {s.c} paired with momentum shift {s.d}: "
                "C^d S^c = w^(cd) S^c C^d")


def _noncommuting(s):
    # (XP - PX)[a, b] = (x_a - x_b) P[a, b], formed in one complex buffer
    C = np.empty_like(s.P)
    np.subtract(s.x[:, None], s.x, out=C)
    C *= s.P
    cnorm = float(np.linalg.norm(C))
    return cnorm > 1e-6, f"commutator_norm = {cnorm:.6g}"


def _fourier_conjugate(s):
    # F^dag P F against diag(x), by an inverse FFT along rows and an FFT
    # along columns, written back a block of columns at a time; x comes off
    # the diagonal in place, and the Frobenius norm is read without a second
    # n x n array
    D = np.fft.ifft(s.P, axis=1)
    for b in element_blocks(s.n, D.size):
        D[:, b] = np.fft.fft(D[:, b], axis=0)
    D[np.diag_indices(s.n)] -= s.x
    return (math.sqrt(np.vdot(D, D).real),
            "two construction routes for the momentum operator agree")


_PHASE_CHECKS = (
    CheckSpec("shift_rep_of_cyclic_group", 0, _laws_hold(
        "srep", "permutation matrices multiply along the Cayley table"),
        fails_on=(GeneratorLawError, _rep_refused)),
    CheckSpec("clock_rep_of_cyclic_group", 0, _laws_hold(
        "crep", "diagonal phase matrices multiply along the Cayley table"),
        fails_on=(GeneratorLawError, _rep_refused)),
    CheckSpec("mutually_unbiased_position_momentum", 1e-10, lambda s: (
        ps.mub_deviation(ps.fourier_matrix(s.n)), f"all squared overlaps equal 1/{s.n}")),
    CheckSpec("position_momentum_noncommuting", 0, _noncommuting),
    CheckSpec("momentum_operator_is_fourier_conjugate", 1e-9, _fourier_conjugate),
    CheckSpec("paired_translation_unitary", 0, _weyl,
              fails_on=(GeneratorLawError, _rep_refused)),
)


# ---------------------------------------------------------------------------
# driver


class _Scenario(NamedTuple):
    setup: Callable     # validated params -> the shared objects
    checks: tuple       # the CheckSpecs, in report order
    defaults: dict      # each param's default, whose type the param takes
    bounds: dict = {}   # param -> its value within bounds, else ValueError


_SCENARIOS = {
    "spin": _Scenario(_spin_setup, _SPIN_CHECKS,
                      {"j": 0.5, "direction": [0.0, 0.0, 1.0], "reduce": True},
                      {"j": _check_spin, "direction": _nonzero_direction}),
    "phase": _Scenario(_phase_setup, _PHASE_CHECKS, {"n": 4, "c": 1, "d": 1},
                       {"n": _check_size}),
    "pedagogy_z4": _Scenario(_z4_setup, _Z4_CHECKS, {}),
    "coherent": _Scenario(_coherent_setup, _COHERENT_CHECKS, {}),
}

BUILTIN_SCENARIOS = tuple(_SCENARIOS)


def _declared(scenario: _Scenario, params: dict) -> list[CheckSpec]:
    """The scenario's checks that the report holds for params, in order."""
    return [spec for spec in scenario.checks if spec.when(params)]


def _finite_number(value) -> bool:
    """A non-bool int or float within the float range (NaN compares false)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _coerce_param(value, default):
    """Coerce a configuration value to the type of its default; numbers
    must be finite. A ValueError holds the value's repr."""
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
    elif isinstance(default, (int, float)):
        integral = isinstance(default, int)
        if _finite_number(value) and not (integral and int(value) != value):
            return int(value) if integral else float(value)
    elif isinstance(value, (list, tuple)) and all(map(_finite_number, value)):
        return [float(x) for x in value]
    raise ValueError(repr(value))


def parse_config(config) -> dict:
    """Validate a configuration document and fill in defaults; the only
    refusal of a configuration. Each param takes the type of its default
    and must pass the scenario's bound on it. A tolerance override must name
    a check that the scenario declares with a tolerance for the resolved
    params."""
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
    scenario = _SCENARIOS[name]
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigParseError("params must be an object")
    bad = set(params) - set(scenario.defaults)
    if bad:
        raise ConfigParseError(f"unknown params for {name}: {sorted(bad)}")
    resolved_params = {}
    for key, default in scenario.defaults.items():
        bound = scenario.bounds.get(key, lambda value: value)
        try:
            resolved_params[key] = bound(_coerce_param(params.get(key, default), default))
        except ValueError as exc:
            raise ConfigParseError(f"bad value for parameter {key!r}: {exc}") from exc
    tolerances = config.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigParseError("tolerances must be an object")
    bad = sorted(str(k) for k, v in tolerances.items()
                 if not (_finite_number(v) and v >= 0))
    if bad:
        raise ConfigParseError(
            f"tolerance overrides must be finite, non-negative numbers: {bad}")
    tolerances = {str(k): float(v) for k, v in tolerances.items()}
    toleranced = {spec.name for spec in _declared(scenario, resolved_params)
                  if spec.tolerance > 0}
    unused = sorted(set(tolerances) - toleranced - {"*"})
    if unused:
        raise ConfigParseError(
            f"tolerance overrides name no toleranced check of {name}: {unused}")
    seed = config.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) or not -2**63 <= seed < 2**63:
        raise ConfigParseError("seed must be an integer in [-2**63, 2**63)")
    return {
        "scenario": name,
        "params": resolved_params,
        "tolerances": tolerances,
        "seed": seed,
    }


def _check(spec: CheckSpec, shared, overrides: dict) -> Check:
    errors, explain = spec.fails_on
    try:
        value, details = spec.run(shared)
    except errors as exc:
        return exact_check(spec.name, False, explain(shared, exc))
    if spec.tolerance == 0:
        return exact_check(spec.name, value, details)
    tolerance = overrides.get(spec.name, overrides.get("*", spec.tolerance))
    return make_check(spec.name, value, tolerance, details)


def run_scenario(config) -> VerificationReport:
    """Run one scenario from a configuration document: its setup, then
    each declared check in order, under its tolerance override."""
    resolved = parse_config(config)
    scenario = _SCENARIOS[resolved["scenario"]]
    params = resolved["params"]
    start = time.perf_counter()
    shared = scenario.setup(params)
    checks = tuple(_check(spec, shared, resolved["tolerances"])
                   for spec in _declared(scenario, params))
    timing_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(checks=checks, timing_ms=timing_ms, config_echo=resolved)


def run_all(tolerances=None) -> list[VerificationReport]:
    """Run every built-in scenario with default parameters."""
    reports = []
    for name in BUILTIN_SCENARIOS:
        config = {"scenario": name}
        if tolerances is not None:
            config["tolerances"] = dict(tolerances)
        reports.append(run_scenario(config))
    return reports
