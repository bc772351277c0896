"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (visible with pytest -s)."""

import numpy as np

from symquant.coherent import (
    binary_tetrahedral_spin_rep,
    dihedral_rotation_rep,
    make_coherent,
    permutation_rep,
)
from symquant.groups import (
    check_homomorphism,
    cyclic_group,
    dihedral_vertex_action,
    left_translation_action,
    make_named_group,
    subgroup_generated,
)
from symquant.linalg import resolution_deviation
from symquant.phasespace import fourier_matrix, momentum_operator, mub_deviation
from symquant.quantize import (
    build_operator,
    coarse_grain,
    conjugation_covariance,
    covariance_check,
    eigen_orbit_partition,
    maximality_check,
    operator_from_matrix,
    spectrum_permutations,
)
from symquant.reporting import dumps, strip_timing
from symquant.scenarios import run_all
from symquant.spin import (
    perpendicular_unit,
    spin_component_operator,
    spin_generators,
    spin_rotation,
)
from symquant.variables import (
    induce_group,
    is_permissible,
    is_permissible_under,
    maximal_permissible_subgroup,
    variable_from_point_labels,
)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def orbit_sum(rep, fiducial):
    """Direct summation oracle, independent of any scalar shortcut."""
    T = np.zeros((rep.dim, rep.dim), dtype=complex)
    for k in range(rep.group.order):
        s = rep.matrices[k] @ fiducial
        T += np.outer(s, s.conj())
    return T


def test_01_resolution_of_identity_frames():
    g4 = make_named_group("dihedral:4")
    rep4 = dihedral_rotation_rep(g4)
    f = np.array([1.0, 0.0])
    T4 = orbit_sum(rep4, f)
    ok = np.linalg.norm(T4 - 4.0 * np.eye(2)) <= 1e-10

    bt = make_named_group("binary_tetrahedral")
    rep24 = binary_tetrahedral_spin_rep(bt)
    T24 = orbit_sum(rep24, f)
    ok = ok and np.linalg.norm(T24 - 12.0 * np.eye(2)) <= 1e-9

    cs4 = make_coherent(rep4, dihedral_vertex_action(g4), 0, f)
    ok = ok and resolution_deviation(cs4.states, 1.0 / 4.0) <= 1e-9
    cs24 = make_coherent(rep24, left_translation_action(bt), bt.identity, f)
    ok = ok and resolution_deviation(cs24.states, 1.0 / 12.0) <= 1e-9
    report("resolution_of_identity_frames", ok)


def test_02_induced_homomorphism_and_kernel():
    g = cyclic_group(4)
    act = left_translation_action(g)
    parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
    induced = induce_group(parity, act)
    hom_ok, _ = check_homomorphism(induced.k_to_image, g, induced.image_group)
    pairs_ok = all(
        induced.k_to_image[g.cayley[a, b]]
        == induced.image_group.cayley[induced.k_to_image[a], induced.k_to_image[b]]
        for a in range(4) for b in range(4)
    )
    report("induced_homomorphism_and_kernel",
           hom_ok and pairs_ok and induced.kernel == (0, 2))


def test_03_permissibility_and_maximal_subgroup():
    g = cyclic_group(4)
    act = left_translation_action(g)
    parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
    indicator = variable_from_point_labels([1.0, 1.0, 0.0, 0.0])
    ok = is_permissible(parity, act) == (True, None)
    verdict, witness = is_permissible(indicator, act)
    ok = ok and not verdict and witness == (1, 0, 1)
    H = maximal_permissible_subgroup(indicator, act)
    ok = ok and H == (0, 2)
    for gens in ([], [1], [2], [3], [1, 2], [1, 3], [2, 3]):
        sub = subgroup_generated(g, gens)
        expect = set(sub) <= set(H)
        ok = ok and is_permissible_under(indicator, act, sub) == expect
    report("permissibility_and_maximal_subgroup", ok)


def test_04_covariance():
    g = cyclic_group(4)
    act = left_translation_action(g)
    parity = variable_from_point_labels([0.0, 1.0, 0.0, 1.0])
    induced = induce_group(parity, act)
    value_rep = permutation_rep(induced.value_action)
    bundle = build_operator(np.eye(2, dtype=complex), 1.0,
                            list(parity.value_labels))
    ok = True
    for h in maximal_permissible_subgroup(parity, act):
        ok = ok and covariance_check(bundle, value_rep, h, parity, act).distance <= 1e-9

    for j in (0.5, 1.0):
        a = np.array([0.0, 0.0, 1.0])
        comp = spin_component_operator(j, a)
        U = spin_rotation(j, perpendicular_unit(a), np.pi)
        d = comp.matrix.shape[0]
        cov = conjugation_covariance(comp, U, np.arange(d - 1, -1, -1))
        ok = ok and cov.distance <= 1e-9
    _, _, Jz = spin_generators(1.0)
    U = spin_rotation(1.0, [1.0, 0.0, 0.0], np.pi)
    ok = ok and np.linalg.norm(U.conj().T @ Jz @ U + Jz) <= 1e-9
    report("covariance", ok)


def test_05_eigenvalue_orbit_partitions():
    half = spin_component_operator(0.5, [0.0, 0.0, 1.0])
    perms = spectrum_permutations(half.eigenvalues, [lambda u: u, lambda u: -u])
    blocks = eigen_orbit_partition(half, perms)
    ok = blocks == ((0, 1),) and half.eigenvalues.tolist() == [-0.5, 0.5]

    one = spin_component_operator(1.0, [0.0, 0.0, 1.0])
    perms = spectrum_permutations(one.eigenvalues, [lambda u: -u])
    blocks = eigen_orbit_partition(one, perms)
    ok = ok and [one.eigenvalues[list(b)].tolist() for b in blocks] == [
        [-1.0, 1.0], [0.0]]
    report("eigenvalue_orbit_partitions", ok)


def test_06_maximality():
    ok = all(
        maximality_check(spin_component_operator(j, [0.0, 0.0, 1.0]))
        for j in (0.5, 1.0, 1.5)
    )
    _, _, Jz = spin_generators(1.0)
    ok = ok and not maximality_check(operator_from_matrix(Jz @ Jz))
    basis = np.eye(3, dtype=complex)
    for t in (lambda u: u * u, lambda u: 0.0, lambda u: abs(u)):
        _, bundle = coarse_grain(basis, [1.0, 0.0, -1.0], t)
        ok = ok and not maximality_check(bundle)
    report("maximality", ok)


def test_07_component_spectrum_random_directions():
    rng = np.random.default_rng(2026)
    ok = True
    for j in (0.5, 1.0, 1.5):
        ladder = np.arange(-j, j + 0.5)
        for _ in range(20):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            bundle = spin_component_operator(j, a)
            ok = ok and float(np.max(np.abs(bundle.eigenvalues - ladder))) <= 1e-9
    report("component_spectrum_random_directions", ok)


def test_08_rotation_group_law():
    a = np.array([0.0, 0.0, 1.0])
    ok = np.linalg.norm(spin_rotation(0.5, a, 2 * np.pi) + np.eye(2)) <= 1e-9
    ok = ok and np.linalg.norm(spin_rotation(0.5, a, 4 * np.pi) - np.eye(2)) <= 1e-9
    rng = np.random.default_rng(2026)
    for _ in range(10):
        s, t = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        lhs = spin_rotation(0.5, a, s) @ spin_rotation(0.5, a, t)
        ok = ok and np.linalg.norm(lhs - spin_rotation(0.5, a, s + t)) <= 1e-8
    report("rotation_group_law", ok)


def test_09_coarse_graining_loses_maximality():
    # on Z_n with n even and n > 2, parity as a function of the identity
    # variable pairs the even and the odd points, so its operator is
    # degenerate
    ok = True
    for n in (4, 6, 8):
        labels = [float(u) for u in range(n)]
        basis = np.eye(n, dtype=complex)
        blocks, coarse = coarse_grain(basis, labels, lambda u: u % 2)
        _, fine = coarse_grain(basis, labels, lambda u: u)
        ok = ok and blocks == (tuple(range(0, n, 2)), tuple(range(1, n, 2)))
        ok = ok and not maximality_check(coarse) and maximality_check(fine)
    report("coarse_graining_loses_maximality", ok)


def test_10_phase_space_analog():
    ok = all(mub_deviation(fourier_matrix(n)) <= 1e-10 for n in range(2, 17))
    for n in range(2, 17):
        X, P = np.diag(np.arange(n)), momentum_operator(n).matrix
        ok = ok and np.linalg.norm(X @ P - P @ X) > 0
    report("phase_space_analog", ok)


def test_11_report_determinism():
    a = dumps(run_all())
    b = dumps(run_all())
    report("report_determinism", strip_timing(a) == strip_timing(b))
