"""Built-in end-to-end scenarios and the verification driver.

Each scenario assembles the library's machinery on a small concrete setup,
runs a fixed list of named checks, and returns a deterministic
VerificationReport. Randomized property checks draw from a generator
seeded by the configuration; the seed is echoed in the report.

Configuration document (one UTF-8 JSON object):
    {"scenario": str, "params": object?, "tolerances": object?, "seed": int?}
Tolerance overrides are keyed by check name; the key "*" overrides every
check.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import phasespace as ps
from .coherent import (
    binary_tetrahedral_spin_rep,
    dihedral_rotation_rep,
    frame_operator,
    is_irreducible,
    make_coherent,
    permutation_rep,
    resolution_deviation,
    unitary_transport,
)
from .groups import (
    check_homomorphism,
    cyclic_group,
    cyclic_shift_action,
    dihedral_vertex_action,
    is_transitive,
    left_translation_action,
    make_named_group,
    subgroup_generated,
)
from .linalg import max_abs
from .quantize import (
    NotAnOrbitError,
    build_operator,
    conjugation_covariance,
    covariance_check,
    eigen_orbit_partition,
    maximality_check,
    model_reduce,
    question_answer_match,
    spectrum_permutations,
)
from .phasespace import BadSizeError
from .reporting import Check, VerificationReport, exact_check, make_check
from .spin import (
    BadSpinError,
    perpendicular_unit,
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
SPIN_GROUP_SOURCES = ("sampled", "binary_tetrahedral")


class ConfigParseError(ValueError):
    pass


class UnknownScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class SpinScenario:
    """A spin-j component measurement along a unit direction."""

    j: float
    direction: tuple[float, float, float] = (0.0, 0.0, 1.0)
    group_source: str = "sampled"
    reduce_demo: bool = False
    n_directions: int = 20
    n_angle_pairs: int = 10

    def __post_init__(self):
        _check_spin(self.j)
        a = np.asarray(self.direction, dtype=float)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(a)
        if a.shape != (3,) or not 1e-12 <= norm < np.inf:
            raise ConfigParseError("direction must be a nonzero, finite 3-vector")
        a = a / norm
        object.__setattr__(self, "direction", tuple(float(x) for x in a))
        if self.n_directions < 1 or self.n_angle_pairs < 1:
            raise ConfigParseError(
                "n_directions and n_angle_pairs must be at least 1"
            )

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1


@dataclass(frozen=True)
class PhaseSpaceScenario:
    """An n-point cyclic lattice with paired position/momentum shifts."""

    n: int
    shift_pos: int = 1
    shift_mom: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ConfigParseError("lattice size must be at least 2")


class _Tol:
    def __init__(self, overrides):
        self.overrides = dict(overrides or {})

    def __call__(self, name: str, default: float) -> float:
        if name in self.overrides:
            return float(self.overrides[name])
        if "*" in self.overrides:
            return float(self.overrides["*"])
        return float(default)


# ---------------------------------------------------------------------------
# pedagogy: shift action on four points


def _pedagogy_z4_checks(params, tol: _Tol, rng) -> list[Check]:
    g = cyclic_group(4)
    act = cyclic_shift_action(g)
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
        "all 16 ordered element pairs checked",
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
    n_distinct = len({tuple(r) for r in induced.induced_perm})
    checks.append(exact_check(
        "quotient_by_kernel_injective",
        n_distinct == g.order // len(induced.kernel),
        f"{n_distinct} distinct value permutations for 4 elements, kernel 2",
    ))

    H = maximal_permissible_subgroup(indicator, act)
    checks.append(exact_check(
        "indicator_maximal_subgroup", H == (0, 2), f"H = {list(H)}",
    ))

    subgroups = [(0,), (0, 2), (0, 1, 2, 3)]
    brute_ok = True
    for S in subgroups:
        expect = set(S) <= set(H)
        if is_permissible_under(indicator, act, S) != expect:
            brute_ok = False
    for h in range(g.order):
        if h in H:
            continue
        enlarged = subgroup_generated(g, list(H) + [h])
        if is_permissible_under(indicator, act, enlarged):
            brute_ok = False
    checks.append(exact_check(
        "subgroup_maximality_brute_force", brute_ok,
        "restricted verdicts match on every subgroup; adjoining any outside "
        "element breaks the variable",
    ))

    basis = np.eye(2, dtype=np.complex128)
    bundle = build_operator(basis, 1.0, list(parity.value_labels),
                            source_variable=parity)
    value_rep = permutation_rep(induced.value_action)
    Hp = maximal_permissible_subgroup(parity, act)
    worst = 0.0
    for h in Hp:
        rep_report = covariance_check(bundle, value_rep, h, parity, act)
        worst = max(worst, rep_report.distance)
    checks.append(make_check(
        "covariance_all_subgroup_elements", worst,
        tol("covariance_all_subgroup_elements", 1e-9),
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
    return checks


# ---------------------------------------------------------------------------
# coherent-state scenarios


def _coherent_d4_checks(params, tol: _Tol, rng) -> list[Check]:
    g = make_named_group("dihedral:4")
    act = dihedral_vertex_action(g)
    rep = dihedral_rotation_rep(g)
    checks = []

    irr, cdim = is_irreducible(rep)
    checks.append(exact_check(
        "rotation_rep_irreducible", irr and cdim == 1,
        f"commutant dimension = {cdim}",
    ))
    checks.append(exact_check(
        "vertex_action_transitive", is_transitive(act),
        "all four vertices lie in one orbit",
    ))

    cs = make_coherent(rep, act, 0, (1.0, 0.0))
    frame = frame_operator(cs)
    err = float(np.linalg.norm(frame.T - 4.0 * np.eye(2)))
    checks.append(make_check(
        "frame_operator_four_times_identity", err,
        tol("frame_operator_four_times_identity", 1e-10),
        f"scalar = {frame.lam:.6g} over 8 orbit states",
    ))

    comm = max(
        float(np.linalg.norm(rep.matrices[k] @ frame.T - frame.T @ rep.matrices[k]))
        for k in range(g.order)
    )
    checks.append(make_check(
        "frame_commutes_with_rep", comm, tol("frame_commutes_with_rep", 1e-9),
        "checked against all 8 representation matrices",
    ))

    w = cs.state_weights() / frame.lam
    dev = resolution_deviation(cs.states, w)
    checks.append(make_check(
        "normalized_orbit_resolves_identity", dev,
        tol("normalized_orbit_resolves_identity", 1e-9),
        "weights divided by the frame scalar",
    ))

    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    phase = np.diag([1.0, 1.0j])
    worst = max(
        resolution_deviation(unitary_transport(cs, W).states, w)
        for W in (had, phase)
    )
    checks.append(make_check(
        "transport_preserves_resolution", worst,
        tol("transport_preserves_resolution", 1e-9),
        "orbit carried through a Hadamard-type and a phase unitary",
    ))

    checks.append(exact_check(
        "frame_scalar_positive", frame.lam > 0, f"scalar = {frame.lam:.6g}",
    ))
    return checks


def _coherent_bt24_checks(params, tol: _Tol, rng) -> list[Check]:
    g = make_named_group("binary_tetrahedral")
    rep = binary_tetrahedral_spin_rep(g)
    act = left_translation_action(g)
    checks = []

    checks.append(exact_check(
        "group_order_24", g.order == 24, f"order = {g.order}",
    ))

    irr, cdim = is_irreducible(rep)
    checks.append(exact_check(
        "spin_half_rep_irreducible", irr, f"commutant dimension = {cdim}",
    ))

    cs = make_coherent(rep, act, g.identity, (1.0, 0.0))
    norm_dev = float(np.max(np.abs(np.linalg.norm(cs.states, axis=1) - 1.0)))
    checks.append(make_check(
        "orbit_states_unit_norm", norm_dev, tol("orbit_states_unit_norm", 1e-12),
        "24 states from the fiducial (1, 0)",
    ))

    frame = frame_operator(cs)
    err = float(np.linalg.norm(frame.T - 12.0 * np.eye(2)))
    checks.append(make_check(
        "frame_operator_twelve_times_identity", err,
        tol("frame_operator_twelve_times_identity", 1e-9),
        f"scalar = {frame.lam:.6g} over 24 orbit states",
    ))

    dev = resolution_deviation(cs.states, cs.state_weights() / frame.lam)
    checks.append(make_check(
        "normalized_orbit_resolves_identity", dev,
        tol("normalized_orbit_resolves_identity", 1e-9),
        "weights divided by the frame scalar",
    ))
    return checks


# ---------------------------------------------------------------------------
# spin scenario


def _spin_checks(params, tol: _Tol, rng) -> list[Check]:
    scn = SpinScenario(
        j=float(params["j"]),
        direction=tuple(params["direction"]),
        group_source=params["group_source"],
        reduce_demo=bool(params["reduce"]),
        n_directions=int(params["n_directions"]),
        n_angle_pairs=int(params["n_angle_pairs"]),
    )
    j, d = scn.j, scn.dim
    a = np.asarray(scn.direction)
    checks = []

    Jx, Jy, Jz = spin_generators(j)
    comm_err = max(
        max_abs(Jx @ Jy - Jy @ Jx - 1j * Jz),
        max_abs(Jy @ Jz - Jz @ Jy - 1j * Jx),
        max_abs(Jz @ Jx - Jx @ Jz - 1j * Jy),
    )
    checks.append(make_check(
        "generator_commutation_relations", comm_err,
        tol("generator_commutation_relations", 1e-10),
        "all three cyclic commutators",
    ))

    bundle = spin_component_operator(j, a)
    ladder = np.arange(-j, j + 0.5)
    spec_err = float(np.max(np.abs(bundle.eigenvalues - ladder)))
    checks.append(make_check(
        "component_spectrum_ladder_values", spec_err,
        tol("component_spectrum_ladder_values", 1e-9),
        f"eigenvalues of the component along {list(np.round(a, 6))}",
    ))

    worst = 0.0
    for _ in range(scn.n_directions):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v)
        b = spin_component_operator(j, v)
        worst = max(worst, float(np.max(np.abs(b.eigenvalues - ladder))))
    checks.append(make_check(
        "component_spectrum_random_directions", worst,
        tol("component_spectrum_random_directions", 1e-9),
        f"{scn.n_directions} seeded unit directions",
    ))

    checks.append(exact_check(
        "component_operator_maximal", maximality_check(bundle),
        "every eigenvalue cluster is one-dimensional (clustering tolerance "
        f"{bundle.spectrum.degeneracy_tol:.1e})",
    ))

    sign = (-1.0) ** int(round(2 * j))
    full_turn = spin_rotation(j, a, 2 * np.pi)
    err_2pi = float(np.linalg.norm(full_turn - sign * np.eye(d)))
    checks.append(make_check(
        "full_turn_rotation_sign", err_2pi, tol("full_turn_rotation_sign", 1e-9),
        f"rotation by 2*pi equals {int(sign)} * identity at spin {j}",
    ))
    err_4pi = float(np.linalg.norm(spin_rotation(j, a, 4 * np.pi) - np.eye(d)))
    checks.append(make_check(
        "double_turn_rotation_identity", err_4pi,
        tol("double_turn_rotation_identity", 1e-9), "rotation by 4*pi",
    ))

    worst = 0.0
    for _ in range(scn.n_angle_pairs):
        s, t = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        lhs = spin_rotation(j, a, s) @ spin_rotation(j, a, t)
        rhs = spin_rotation(j, a, s + t)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    checks.append(make_check(
        "rotation_angle_additivity", worst,
        tol("rotation_angle_additivity", 1e-8),
        f"{scn.n_angle_pairs} seeded angle pairs about the fixed axis",
    ))

    if d > 1:
        b = perpendicular_unit(a)
        U = spin_rotation(j, b, np.pi)
        reversal = np.arange(d - 1, -1, -1)
        cov = conjugation_covariance(bundle, U, reversal)
        checks.append(make_check(
            "covariance_half_turn_reverses_labels", cov.distance,
            tol("covariance_half_turn_reverses_labels", 1e-9),
            "half turn about a perpendicular axis negates the component",
        ))

    flip_perms = spectrum_permutations(
        bundle.eigenvalues, [lambda u: u, lambda u: -u]
    )
    partition = eigen_orbit_partition(bundle, flip_perms)
    expected_blocks = []
    for i in range(d // 2):
        expected_blocks.append((i, d - 1 - i))
    if d % 2:
        expected_blocks.append((d // 2,))
    expected_blocks = tuple(sorted(expected_blocks))
    part_ok = partition.blocks == expected_blocks and (
        partition.single_orbit == (len(expected_blocks) == 1)
    )
    checks.append(exact_check(
        "sign_flip_orbit_partition", part_ok,
        f"orbits of eigenvalue ids = {[list(b) for b in partition.blocks]} "
        f"(clustering tolerance {bundle.spectrum.degeneracy_tol:.1e})",
    ))

    distinct = {tuple(p) for p in flip_perms}
    closed = all(
        tuple(p[np.asarray(q)]) in distinct for p in flip_perms for q in flip_perms
    )
    is_full = len(distinct) == math.factorial(d)
    checks.append(exact_check(
        "value_transformations_embed_in_symmetric_group", closed,
        f"{len(distinct)} distinct permutations of {d} values; "
        + ("equal to the full symmetric group"
           if is_full else "a proper subgroup of the full symmetric group"),
    ))

    basis = bundle.spectrum.basis()
    dev = resolution_deviation(basis.T, 1.0)
    checks.append(make_check(
        "eigenbasis_resolves_identity", dev,
        tol("eigenbasis_resolves_identity", 1e-9), "unit weights",
    ))

    if d > 1:
        b = perpendicular_unit(a)
        basis_b = spin_component_operator(j, b).spectrum.basis()
        bases = {"component_a": basis, "component_b": basis_b}
        v = basis[:, 0]
        matches = question_answer_match(v, bases)
        checks.append(exact_check(
            "question_answer_unique_match", matches == [("component_a", 0)],
            f"matches = {matches}",
        ))

    if scn.reduce_demo:
        target = partition.label_blocks()[-1]
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

    if scn.group_source == "binary_tetrahedral":
        g = make_named_group("binary_tetrahedral")
        rep = binary_tetrahedral_spin_rep(g)
        cs = make_coherent(rep, left_translation_action(g), g.identity, (1.0, 0.0))
        frame = frame_operator(cs)
        err = float(np.linalg.norm(frame.T - 12.0 * np.eye(2)))
        checks.append(make_check(
            "finite_subgroup_frame_scalar", err,
            tol("finite_subgroup_frame_scalar", 1e-9),
            f"scalar = {frame.lam:.6g} from the 24-element subgroup orbit",
        ))
    return checks


# ---------------------------------------------------------------------------
# phase-space scenario


def _phase_checks(params, tol: _Tol, rng) -> list[Check]:
    scn = PhaseSpaceScenario(
        n=int(params["n"]),
        shift_pos=int(params["c"]),
        shift_mom=int(params["d"]),
    )
    n = scn.n
    checks = []

    # each rep measures its product law on generators x all elements,
    # which bounds every pair (see UnitaryRep)
    g = cyclic_group(n)
    srep = ps.shift_rep(n, g)
    crep = ps.clock_rep(n, g)
    checks.append(make_check(
        "shift_rep_of_cyclic_group", srep.law_error,
        tol("shift_rep_of_cyclic_group", 1e-12),
        "permutation matrices multiply along the Cayley table",
    ))
    checks.append(make_check(
        "clock_rep_of_cyclic_group", crep.law_error,
        tol("clock_rep_of_cyclic_group", 1e-10),
        "diagonal phase matrices multiply along the Cayley table",
    ))

    checks.append(make_check(
        "mutually_unbiased_position_momentum", ps.mub_deviation(n),
        tol("mutually_unbiased_position_momentum", 1e-10),
        f"all squared overlaps equal 1/{n}",
    ))

    F = ps.fourier_matrix(n)
    X = ps.position_operator(n).matrix
    P = ps.momentum_operator(n).matrix
    cnorm = float(np.linalg.norm(X @ P - P @ X))
    checks.append(exact_check(
        "position_momentum_noncommuting", cnorm > 1e-6,
        f"commutator_norm = {cnorm:.6g}",
    ))

    S = ps.shift_unitary(n, 1)
    err = float(np.linalg.norm(np.linalg.matrix_power(S, n) - np.eye(n)))
    checks.append(make_check(
        "shift_full_cycle_is_identity", err,
        tol("shift_full_cycle_is_identity", 1e-12),
        f"{n} unit shifts compose to the identity",
    ))

    conj_err = float(np.linalg.norm(P - F @ X @ F.conj().T))
    checks.append(make_check(
        "momentum_operator_is_fourier_conjugate", conj_err,
        tol("momentum_operator_is_fourier_conjugate", 1e-9),
        "two construction routes for the momentum operator agree",
    ))

    W = ps.shift_unitary(n, scn.shift_pos) @ ps.clock_unitary(n, scn.shift_mom)
    uni_err = float(np.linalg.norm(W.conj().T @ W - np.eye(n)))
    checks.append(make_check(
        "paired_translation_unitary", uni_err,
        tol("paired_translation_unitary", 1e-12),
        f"position shift {scn.shift_pos} paired with momentum shift {scn.shift_mom}",
    ))

    checks.append(exact_check(
        "finite_cyclic_analog_note", True,
        "continuous translations are demonstrated on a finite cyclic lattice; "
        "genuinely continuous spectra are out of scope, so no reduction is "
        "performed here",
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
            "group_source": "sampled",
            "reduce": True,
            "n_directions": 20,
            "n_angle_pairs": 10,
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
    if isinstance(default, str):
        if not isinstance(value, str):
            raise bad
        return value
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
    if name == "spin":
        source = resolved_params["group_source"]
        if source not in SPIN_GROUP_SOURCES:
            raise ConfigParseError(
                f"unknown group_source {source!r}; expected one of "
                f"{list(SPIN_GROUP_SOURCES)}"
            )
        if source == "binary_tetrahedral" and resolved_params["j"] != 0.5:
            raise ConfigParseError(
                "group_source 'binary_tetrahedral' needs j = 0.5: its spin "
                "representation is two-dimensional"
            )
    tolerances = config.get("tolerances") or {}
    if not isinstance(tolerances, dict):
        raise ConfigParseError("tolerances must be an object")
    try:
        tolerances = {str(k): float(v) for k, v in tolerances.items()}
    except (TypeError, ValueError):
        raise ConfigParseError("tolerance overrides must be numbers") from None
    bad = sorted(k for k, v in tolerances.items() if not math.isfinite(v))
    if bad:
        raise ConfigParseError(f"tolerance overrides must be finite: {bad}")
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
    """Run one scenario from a configuration document."""
    resolved = parse_config(config)
    runner, _ = _SCENARIOS[resolved["scenario"]]
    rng = np.random.default_rng(resolved["seed"])
    start = time.perf_counter()
    try:
        checks = runner(resolved["params"], _Tol(resolved["tolerances"]), rng)
    except (BadSpinError, BadSizeError) as exc:
        raise ConfigParseError(f"invalid parameters: {exc}") from exc
    timing_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        scenario=resolved["scenario"], checks=tuple(checks),
        timing_ms=timing_ms, config_echo=resolved,
    )


def run_all(tolerances=None, seed: int | None = None) -> list[VerificationReport]:
    """Run every built-in scenario with default parameters."""
    reports = []
    for name in BUILTIN_SCENARIOS:
        config = {"scenario": name}
        if tolerances:
            config["tolerances"] = dict(tolerances)
        if seed is not None:
            config["seed"] = seed
        reports.append(run_scenario(config))
    return reports


def spin_orbit_demo(j: float = 0.5, direction=(0.0, 0.0, 1.0),
                    seed: int = DEFAULT_SEED) -> VerificationReport:
    """Focused report on the orbit structure of a component's spectrum.

    The value transformations come from the rotations fixing or reversing
    the measurement direction (identity and sign flip); the report records
    the orbit partition, whether it is a single orbit, and how the induced
    permutations sit inside the symmetric group on the eigenvalues.
    """
    config = {
        "scenario": "spin",
        "params": {"j": float(j), "direction": list(direction), "reduce": True},
        "seed": seed,
    }
    full = run_scenario(config)
    keep = (
        "sign_flip_orbit_partition",
        "value_transformations_embed_in_symmetric_group",
        "reduction_to_sign_flip_orbit",
        "reduction_rejects_non_orbit",
    )
    checks = tuple(c for c in full.checks if c.name in keep)
    return VerificationReport(scenario="spin_orbit", checks=checks,
                              timing_ms=full.timing_ms,
                              config_echo=full.config_echo)


def phase_space_demo(n: int, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run the finite phase-space scenario for one lattice size."""
    return run_scenario({
        "scenario": "phase", "params": {"n": int(n)}, "seed": seed,
    })
