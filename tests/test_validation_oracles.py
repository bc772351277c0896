"""Slow, direct versions of library checks, kept as oracles.

FiniteGroup reads its order, identity and inverses off its Cayley table;
property tests relabel random permutation groups and must get back the
relabelled identity and inverses, and the per-pair group construction
below must find the inverses FiniteGroup reads off.

FiniteGroup, GroupAction, both representation forms and
check_homomorphism check each "for all pairs" law on generators x all
elements only, through one routine, groups.generator_law. The exhaustive
checks they replaced live here, and property tests on random permutation
groups require the constructors and the oracles to reach the same
verdicts; a fault at the second generator of a dihedral group must be
named in each law's error.

Orbits, generated subgroups and the orbit test of model_reduce all run on
one vectorized routine, groups.orbit_partition. The point-by-point
breadth-first searches it replaced live here too, as does the dense stack
of spectral projections that the matrix-only covariance check used to sum.

Permissibility, element value maps, the maximal permissible subgroup and
the accessibility order are all read off one value-map table; the
point-by-point loops they replaced live here. The table is read at the
first point of each value, which a variable computes once and keeps; the
scatter of point indices that every value-map read used to redo lives
here, and must find the same points on enumerated and random variables.
Every read of value maps over a set of elements runs a block of elements
at a time, and the verdicts, witnesses and subgroups must be the same with
one element per block. is_permissible and induce_group decide
permissibility on the group's generators alone, and induce_group then
reads every element's map at the first points only. The scan over every
element at every point that they ran before lives here
(permissible_by_every_element), and must reach their verdict on random
and named groups, also when the generator tuple is shuffled or padded with
products; the witness must name a failing generator, and the first
failing element when the generators are the elements 1..g. The induced
maps must be the rows that _element_maps reads. induce_group numbers the
images by the bytes of each value map; the numbering by tuples it
replaced lives here. Irreducibility is decided by the character norm; the
Kronecker/SVD null-space computation of the commutant it replaced lives
here as well.

generate_group multiplies whole arrays of elements at once. The
construction it replaced, one scalar mul call per (element, generator) in
the closure and per pair in the Cayley table, lives here with the scalar
multiplications of the named groups, and must build the same groups byte
for byte. Cyclic, dihedral and direct-product groups are built from a law
on the integer codes of their elements, with no closure level and no
coordinate lookup; the coordinate multiplications generate_group built
them from live here, and must give the same groups byte for byte,
including a product whose factor's identity is not index 0.
A group's depth, the longest shortest word in its generators, is read off
one breadth-first search; the word lengths found by growing the sets S,
S*S, ... of products on the table until they cover the group live here,
and must give the same depth on every pinned named group and on random
permutation groups under random generating sets.

Some laws are not checked at all, because the laws that are checked imply
them: that a group's table is a Latin square and its inverses two-sided,
that an action's maps are bijections, that the value maps of a
permissible variable form a homomorphism with |G| = |kernel| * |image|,
and that the maximal permissible subgroup is closed. Brute-force versions
of those laws live here, and the constructors must accept exactly the
inputs that the brute-force versions accept.

The frame operator of a coherent system gives every orbit state weight
1, so it commutes with the representation by construction and
frame_operator checks only that it is a positive scalar. The commutation
check on the generators that it ran while it took a measure lives here,
on random fiducials of dihedral and binary tetrahedral frames, and must
still catch weights that are not invariant.

Unitarity and the resolution of the identity are each decided by one
rule in linalg. A coherent system derives its states from the fiducial by
rep.orbit; the dense product V(k) f per element lives here. frame_operator's
verdict is the resolution rule alone, on its one sum T weighted 1/lam; the
orbit summed a second time under that weight, and the three tests it made
before (a Frobenius scalar test, lam > 0, then the resolution rule), live
here, and must reach the same verdict on irreducible and reducible reps up
to dimension 10, where the resolution rule implies the Frobenius test. coarse_grain refuses
a basis by the unitarity rule on its columns; the max-norm Gram test it
replaced lives here, and must reach the same verdict on bases far from
both thresholds.

Every weighted sum of state projectors, sum_k w_k |s_k><s_k| (frame
operators, labelled operators, coarse-grained operators, spectral
reconstructions, exp(-itH)), is computed by
one kernel, linalg.projector_sum. The per-caller einsum contractions it
replaced live here, and must agree with the callers on random families.
It forms one temporary beside its result; the expression with a second,
conjugated copy of the states lives here, and must give the same values on
seeded families in every memory layout, the signs of exact zeros aside.

The spin scenario proves rotation covariance on the two generators of the
binary tetrahedral group, and reads the rotations by 2*pi*k/8 off one
measured spectrum. Covariance on all 24 elements, and the rotations
rebuilt by an independent matrix exponential, live here.

covariance_check takes a set of group elements and, one block of elements
at a time, reads their value maps in one pass and conjugates by their
matrices in one stacked product.
The per-element check it replaced, one value map and one conjugation per
element, lives here, and must give the same worst distance and reject the
same first element.

Permutation, left-regular, shift and clock representations are monomial,
V(k) e_x = w^exponent[k, x] e_{perm[k, x]} with w a root of unity, and are
stored and checked as a permutation and integer exponents per element,
never as a |G| x d x d stack nor as complex phases. The dense stacks they
were built as live here, and so does the product law on complex phases
that the monomial form checked before its laws were exact. On random
permutation groups with phases drawn from a character of finite order,
the dense UnitaryRep and MonomialRep must agree on characters, orbit
states, conjugation and covariance, the complex law must reach the
integer law's verdict, and the two forms must reject the same faulty
exponents with the same message.

The phase scenario reads its Weyl relation C^d S^c = w^(cd) S^c C^d off
the shift and clock reps, composing (perm, exponent) pairs. The dense
n x n shift and clock constructors, and the relation read off their
products, live here, and the scenario's verdict must equal theirs on the
reps and on tables that no valid rep holds. Its momentum operator is the
circulant of one FFT, and its commutator is taken entrywise; the projector
sum over the Fourier columns that built P, and the dense products X P and
P X, live here, and must agree with them entry by entry within 2 n^2 eps
and in the six printed digits of the commutator norm.

Every table and operator is built in the dtype and shape it is kept in,
in place or a block of rows at a time: the dihedral vertex and natural
permutation actions in int16, the clock's exponents reduced into int16,
the momentum operator as one copy of windows of its reversed tiled
column, the Fourier matrix by row blocks, and the phase scenario's
commutator and Fourier-conjugate checks in one n x n buffer each. The
intp and whole-array formulas they replaced live here, and the new
tables, matrices and check values must equal them exactly.

The spin generators and the component along a direction are tridiagonal,
and are filled on their three bands into one (3, d, d) array and one
d x d array. The dense ladder construction they replaced, J+ and its
adjoint combined into Jx and Jy and then summed along the direction,
lives here, and the filled matrices must equal it byte for byte, the sign
of every zero included; along a unit axis the component is that
generator, byte for byte. The two spin checks that read J fill the
generators, and the combinations sum_k R_ik J_k, on their bands one
residual at a time and form each residual in one buffer in place, and the
covariance distance is squared in place. The whole-matrix expressions over
the stacked J, with np.tensordot for the combinations, live here, and must
give the same norms bit for bit from j = 0 to 50 and at 150 and 400; the
combinations must have tensordot's values.

eig_hermitian fixes the phase of every eigenvector in one gather and one
broadcast multiply, and clusters the eigenvalues by comparing each
ascending gap with the threshold in one pass. The column loop and the
greedy cluster loop it replaced live here, and on matrices with planted
degeneracies, gaps at the threshold and tolerances from 1e-12 to 1e-6 the
two must give the same bytes.
"""

import hashlib
import itertools
import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symquant.coherent import (
    MonomialRep,
    NotScalarError,
    UnitaryRep,
    binary_tetrahedral_spin_rep,
    dihedral_rotation_rep,
    frame_operator,
    is_irreducible,
    left_regular_rep,
    make_coherent,
    permutation_rep,
)
from symquant.groups import (
    MAX_GROUP_ORDER,
    FiniteGroup,
    GroupAction,
    check_homomorphism,
    cyclic_group,
    dihedral_vertex_action,
    direct_product,
    generate_group,
    left_translation_action,
    make_named_group,
    orbit_partition,
    orbits,
    subgroup_generated,
)
from symquant import groups, linalg, scenarios, spin, variables
from symquant.linalg import (
    DEGENERACY_TOL,
    as_state_family,
    eig_hermitian,
    expm_antihermitian,
    projector_sum,
    resolution_deviation,
)
from symquant.phasespace import (
    clock_rep,
    fourier_matrix,
    momentum_operator,
    mub_deviation,
    shift_rep,
)
from symquant.quantize import (
    NotAnOrbitError,
    NotInSubgroupError,
    OperatorBundle,
    build_operator,
    coarse_grain,
    conjugation_covariance,
    covariance_check,
    eigen_orbit_partition,
    model_reduce,
    operator_from_matrix,
)
from symquant.scenarios import run_scenario
from symquant.spin import (
    component_matrix,
    perpendicular_unit,
    quaternion_axis_angle,
    rotation_matrix,
    spin_component_operator,
    spin_generators,
    spin_rotation,
)
from symquant.variables import (
    ConceptualVariable,
    InducedAction,
    NotPermissibleError,
    accessibility_leq,
    induce_group,
    is_permissible,
    is_permissible_under,
    maximal_permissible_subgroup,
    variable_from_point_labels,
)
from test_groups import CAYLEY_SHA256

settings.register_profile("oracles", max_examples=60, deadline=None,
                          derandomize=True, database=None)
ORACLE_SETTINGS = settings.get_profile("oracles")


# ---------------------------------------------------------------------------
# oracles


def associative_all_triples(cayley) -> bool:
    """(a*b)*c == a*(b*c) for every triple."""
    t = np.asarray(cayley)
    return bool(np.array_equal(t[t, :], t[:, t]))


def is_group_by_brute_force(cayley, identity) -> bool:
    """Identity laws, a two-sided inverse for every element, and
    associativity over every triple."""
    t = np.asarray(cayley)
    n = t.shape[0]
    if not (np.array_equal(t[identity], np.arange(n))
            and np.array_equal(t[:, identity], np.arange(n))):
        return False
    unit = t == identity
    return bool((unit & unit.T).any(axis=1).all()) and associative_all_triples(t)


def right_inverses(cayley, identity) -> np.ndarray:
    """For each a, the first b with a*b == identity, or the identity when
    there is none; b*a == identity is not required."""
    unit = np.asarray(cayley) == identity
    return np.where(unit.any(axis=1), np.argmax(unit, axis=1), identity)


def is_latin_square(cayley) -> bool:
    t = np.asarray(cayley)
    n = t.shape[0]
    full = np.arange(n)
    return all(np.array_equal(np.sort(r), full) for r in np.concatenate([t, t.T]))


def is_action_by_brute_force(group: FiniteGroup, perm) -> bool:
    """Every map a bijection of the points, and the composition law on every
    pair; the identity then acts trivially."""
    perm = np.asarray(perm)
    m = perm.shape[1]
    return (all(np.array_equal(np.sort(r), np.arange(m)) for r in perm)
            and action_law_all_pairs(group, perm))


def action_law_all_pairs(group: FiniteGroup, perm) -> bool:
    """perm[k1*k2] == perm[k1] o perm[k2] for every pair."""
    perm = np.asarray(perm)
    return all(np.array_equal(perm[group.cayley[k1]], perm[k1][perm])
               for k1 in range(group.order))


def rep_law_all_pairs_error(group: FiniteGroup, mats) -> float:
    """Largest Frobenius error of V(k1)V(k2) == V(k1*k2) over every pair."""
    mats = np.asarray(mats, dtype=np.complex128)
    return max(
        float(np.max(np.linalg.norm(mats[k1] @ mats - mats[group.cayley[k1]],
                                    axis=(1, 2))))
        for k1 in range(group.order)
    )


def homomorphism_by_all_pairs(f, src: FiniteGroup, dst: FiniteGroup):
    """f(a*b) == f(a)*f(b) over all pairs: (True, None), or (False, (a, b))
    with the first violating pair in row-major order."""
    f = np.asarray(f, dtype=np.intp)
    lhs = f[src.cayley]
    rhs = dst.cayley[f[:, None], f[None, :]]
    if np.array_equal(lhs, rhs):
        return True, None
    a, b = map(int, np.argwhere(lhs != rhs)[0])
    return False, (a, b)


def roots_of_unity(exponent, modulus) -> np.ndarray:
    """The complex phases exp(2 pi i e / modulus), e = exponent mod modulus."""
    return np.exp(2j * np.pi * np.mod(exponent, modulus) / modulus)


def monomial_law_all_pairs_error(group: FiniteGroup, perm, phase) -> float:
    """Largest error of the product law of a monomial rep on complex phases,
    over every pair: the norm over x of
    phase[k1, perm[k2, x]] * phase[k2, x] - phase[k1*k2, x]."""
    perm, phase = np.asarray(perm), np.asarray(phase)
    return max(
        float(np.max(np.linalg.norm(
            phase[k1][perm] * phase - phase[group.cayley[k1]], axis=1)))
        for k1 in range(group.order)
    )


def monomial_matrices(perm, phase) -> np.ndarray:
    """The dense |G| x d x d stack with V(k) e_x = phase[k, x] e_{perm[k, x]},
    phase broadcast against perm."""
    perm = np.asarray(perm)
    n, d = perm.shape
    mats = np.zeros((n, d, d), dtype=np.complex128)
    mats[np.arange(n)[:, None], perm, np.arange(d)] = phase
    return mats


def natural_action(g: FiniteGroup) -> GroupAction:
    """A permutation group acting on its points by its image tuples."""
    return GroupAction(group=g, perm=np.array(g.elements))


def permutation_matrices(act: GroupAction) -> np.ndarray:
    """The 0/1 permutation matrices of an action, as permutation_rep built
    them before it was monomial."""
    return monomial_matrices(act.perm, 1.0)


def shift_unitary(n: int, c: int = 1) -> np.ndarray:
    """Position shift by c: |x> -> |x + c mod n>, as a dense matrix."""
    S = np.zeros((n, n), dtype=np.complex128)
    S[(np.arange(n) + c) % n, np.arange(n)] = 1.0
    return S


def clock_unitary(n: int, d: int = 1) -> np.ndarray:
    """Momentum shift by d, diagonal in position: |x> -> w^{dx} |x>, as a
    dense matrix."""
    return np.diag(np.exp(2j * np.pi * d * np.arange(n) / n))


def clock_matrices(n: int) -> np.ndarray:
    """clock^k for every k, as clock_rep built them before it was
    monomial."""
    return np.stack([clock_unitary(n, k) for k in range(n)])


def weyl_error_by_dense_products(S, C, n: int, c: int, d: int) -> float:
    """||C^d S^c - w^(cd) S^c C^d||_F, w = exp(2 pi i / n), from the dense
    matrices S = S^c and C = C^d."""
    return float(np.linalg.norm(C @ S - np.exp(2j * np.pi * c * d / n) * S @ C))


def momentum_by_projectors(n: int) -> np.ndarray:
    """P = sum_p p |p><p| over the Fourier columns |p>, a projector sum, as
    momentum_operator built it before it was a circulant."""
    return build_operator(fourier_matrix(n).T, 1.0, np.arange(n, dtype=float)).matrix


def permutation_sign(p) -> int:
    """+1 or -1: the parity of a permutation's image tuple, by cycle count."""
    seen, cycles = set(), 0
    for start in range(len(p)):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = p[x]
    return 1 if (len(p) - cycles) % 2 == 0 else -1


def frame_commutator_on_generators(rep, T) -> float:
    """Largest ||V(s) T - T V(s)||_F over the group's generators s."""
    return max(float(np.linalg.norm(rep.matrix(s) @ T - T @ rep.matrix(s)))
               for s in rep.group.generating_set)


def frame_is_scalar_by_three_tests(states, d: int) -> bool:
    """The frame verdict as three tests, lam = tr T / d for the unweighted
    orbit sum T: ||T - lam I||_F <= 1e-8 * max(1, tr T), lam > 0, and
    max |T / lam - I| <= 1e-9 * d."""
    T = projectors_by_einsum(np.ones(len(states)), states)
    tr = float(np.trace(T).real)
    lam = tr / d
    if float(np.linalg.norm(T - lam * np.eye(d))) > 1e-8 * max(1.0, abs(tr)):
        return False
    if lam <= 0:
        return False
    return float(np.max(np.abs(T / lam - np.eye(d)))) <= 1e-9 * d


def gram_deviation(rows) -> float:
    """max |<s_i|s_j> - delta_ij| over the rows s_i; a basis is
    orthonormal by the max-norm Gram test when this is at most 1e-10."""
    return float(np.max(np.abs(rows.conj() @ rows.T - np.eye(len(rows)))))


def closure_by_products(cayley, identity, gens) -> set:
    """Every product of gens (the identity included), by brute force."""
    closed = {identity}
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            for s in gens:
                c = int(cayley[s][a])
                if c not in closed:
                    closed.add(c)
                    changed = True
    return closed


def orbits_by_bfs(perms, m) -> tuple:
    """Orbits of the rows of an (r, m) permutation array, one breadth-first
    search per unseen point; blocks sorted by smallest point."""
    perms = np.asarray(perms).reshape(-1, m)
    seen = np.zeros(m, dtype=bool)
    blocks = []
    for start in range(m):
        if seen[start]:
            continue
        block = {start}
        frontier = [start]
        seen[start] = True
        while frontier:
            nxt = []
            for x in frontier:
                for y in perms[:, x]:
                    y = int(y)
                    if not seen[y]:
                        seen[y] = True
                        block.add(y)
                        nxt.append(y)
            frontier = nxt
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def conjugation_action(g: FiniteGroup) -> GroupAction:
    """The group acting on itself by k.x = k x k^-1; its orbits are the
    conjugacy classes."""
    t = g.cayley.astype(np.intp)
    return GroupAction(group=g, perm=t[t, g.inverses[:, None]])


def image_table_by_scatter(induced, g: FiniteGroup) -> np.ndarray:
    """The induced image group's table written at every pair of source
    elements: image(a)*image(b) = image(a*b)."""
    k = induced.k_to_image
    m = induced.image_group.order
    table = np.full((m, m), -1, dtype=np.intp)
    table[k[:, None], k[None, :]] = k[g.cayley]
    return table


def subgroup_by_two_sided_closure(g: FiniteGroup, gens) -> tuple:
    """Close the seeds (gens and the identity) under multiplication by a
    seed on either side."""
    seeds = sorted({g.identity} | {int(x) for x in gens})
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for a in frontier:
            for b in seeds:
                for c in (int(g.cayley[a, b]), int(g.cayley[b, a])):
                    if c not in closed:
                        closed.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(closed))


def orbit_verdict_by_search(perms, ids) -> str | None:
    """model_reduce's orbit test on target ids: None when they form one
    orbit, else the reason (closure under every row, then connectivity)."""
    id_set = set(ids)
    for row in perms:
        if {int(row[i]) for i in id_set} != id_set:
            return "not closed"
    seen = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for row in perms:
                y = int(row[x])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return None if seen == id_set else "union of several orbits"


def covariance_distance_by_projection_stack(bundle, U, perm) -> float:
    """|| U^dag A U - sum_j u[perm[j]] P_j ||_F with the k x d x d stack of
    cluster projections P_j built in full."""
    spec = bundle.spectrum
    offsets = np.concatenate([[0], np.cumsum(spec.multiplicities)])
    stack = np.stack([
        spec.vectors[:, a:b] @ spec.vectors[:, a:b].conj().T
        for a, b in zip(offsets, offsets[1:])
    ])
    rhs = np.einsum("j,jkl->kl", spec.eigenvalues[np.asarray(perm)], stack)
    return float(np.linalg.norm(U.conj().T @ bundle.matrix @ U - rhs))


def covariance_by_element_loop(bundle, rep, elements, var, act) -> float:
    """The worst distance of one covariance check per element: its value
    map by value_map_by_point_loop, then conjugation_covariance with its
    matrix. NotInSubgroupError at the first element without a value map."""
    worst = 0.0
    for h in elements:
        g = value_map_by_point_loop(var, act, h)
        if g is None:
            raise NotInSubgroupError(
                f"element {h} does not act through a value permutation"
            )
        worst = max(worst,
                    conjugation_covariance(bundle, rep.matrix(h), g).distance)
    return worst


def permissible_by_class_scan(var, act):
    """Scan the elements in order and, for each, every value class. The
    witness is the first failing element k and the smallest pair (first
    point of a class, first point of that class that k moves off the
    value of the class's first point)."""
    classes = [np.nonzero(var.values == v)[0] for v in range(len(var.value_labels))]
    for k in range(act.group.order):
        moved = var.values[act.perm[k]]
        candidates = []
        for cls in classes:
            vals = moved[cls]
            bad = np.nonzero(vals != vals[0])[0]
            if bad.size:
                candidates.append((int(cls[0]), int(cls[bad[0]])))
        if candidates:
            return False, (k, *min(candidates))
    return True, None


def permissible_by_every_element(var, act):
    """is_permissible read over every element of the group, a block of
    elements at a time, as it was before it read the generators alone:
    (True, None), or (False, (k, p1, p2)) with k the first failing element
    and (p1, p2) the pair that is_permissible names for it."""
    witness = variables._witness(var, act, variables._element_maps(
        var, act, range(act.group.order)))
    return witness is None, witness


def element_maps_over_the_group(var, act) -> np.ndarray:
    """Every element's value map, the rows of _element_maps over the whole
    group, as one table."""
    return np.concatenate([maps for _, maps, _ in variables._element_maps(
        var, act, range(act.group.order))])


def first_points_by_scatter(values) -> np.ndarray:
    """first[v], the smallest point whose value is v, by a minimum
    scatter of the point indices onto their values."""
    first = np.full(int(values.max()) + 1, values.size, dtype=np.intp)
    np.minimum.at(first, values, np.arange(values.size))
    return first


def value_map_by_point_loop(var, act, h):
    """The value permutation of element h, assigned point by point; None
    when a value would be sent to two values or the table is no bijection."""
    moved = var.values[act.perm[h]]
    g = np.full(len(var.value_labels), -1, dtype=np.intp)
    for p in range(var.space_size):
        v = var.values[p]
        if g[v] == -1:
            g[v] = moved[p]
        elif g[v] != moved[p]:
            return None
    if len(set(g.tolist())) != len(var.value_labels):
        return None
    return g


def factor_map_by_point_loop(alpha, beta):
    """(True, f) with alpha = f(beta) pointwise, assigned point by point,
    or (False, None)."""
    f = np.full(len(beta.value_labels), -1, dtype=np.intp)
    for p in range(beta.space_size):
        b, a = beta.values[p], alpha.values[p]
        if f[b] == -1:
            f[b] = a
        elif f[b] != a:
            return False, None
    return True, f


def commutant_by_kronecker_svd(rep, tol=1e-8) -> int:
    """Null-space dimension of X V(s) = V(s) X over the group's generators
    s, as a linear system in the d^2 entries of X, by SVD. The stacked
    system has |S|*d^2 rows and d^2 columns: O(|S| d^6) time and
    O(|S| d^4) memory."""
    d = rep.dim
    eye = np.eye(d)
    blocks = []
    for k in rep.group.generating_set:
        V = rep.matrix(k)
        # row-major vec: vec(XV - VX) = (I (x) V^T - V (x) I) vec(X)
        blocks.append(np.kron(eye, V.T) - np.kron(V, eye))
    if not blocks:
        return d * d
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    thresh = tol * max(1.0, float(s[0]))
    return d * d - int(np.sum(s > thresh))


def generate_group_by_pairs(generators, mul, identity, *, name="group") -> FiniteGroup:
    """Breadth-first closure with one scalar mul call per (element,
    generator), then one per pair for the Cayley table; elements are any
    hashable values."""
    elements = [identity]
    index = {identity: 0}
    gens = []
    for g in generators:
        if g not in index:
            index[g] = len(elements)
            elements.append(g)
            gens.append(g)
    frontier = list(elements)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    n = len(elements)
    cayley = np.empty((n, n), dtype=np.intp)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            cayley[i, j] = index[mul(a, b)]
    inverses = np.empty(n, dtype=np.intp)
    for i in range(n):
        inverses[i] = int(np.nonzero(cayley[i] == 0)[0][0])
    group = FiniteGroup(
        cayley, name=name,
        generators=tuple(index[g] for g in gens), elements=tuple(elements),
    )
    assert group.identity == 0 and np.array_equal(group.inverses, inverses)
    return group


def compose_scalar(p, q):
    """(p o q)(x) = p(q(x)) on image tuples."""
    return tuple(p[i] for i in q)


def quat_mul_scalar(x, y):
    """Hamilton product on doubled integer quaternion coordinates."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    prod = (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    assert all(v % 2 == 0 for v in prod)
    return tuple(v // 2 for v in prod)


def named_group_by_pairs(name: str) -> FiniteGroup:
    """make_named_group(name), built by generate_group_by_pairs from scalar
    multiplications."""
    parts = name.split("x")
    if len(parts) > 1:
        out = named_group_by_pairs(parts[0])
        for part in parts[1:]:
            g1, g2 = out, named_group_by_pairs(part)
            out = generate_group_by_pairs(
                [(a, g2.identity) for a in g1.generating_set]
                + [(g1.identity, b) for b in g2.generating_set],
                lambda x, y, t1=g1.cayley, t2=g2.cayley: (
                    int(t1[x[0], y[0]]), int(t2[x[1], y[1]])),
                (g1.identity, g2.identity), name=f"{g1.name}x{g2.name}")
        return out
    if name == "binary_tetrahedral":
        return generate_group_by_pairs([(0, 2, 0, 0), (1, 1, 1, 1)], quat_mul_scalar,
                                       (2, 0, 0, 0), name=name)
    head, _, tail = name.partition(":")
    n = int(tail)
    if head == "cyclic":
        return generate_group_by_pairs(
            [1] if n > 1 else [], lambda a, b: (a + b) % n, 0, name=name)
    if head == "dihedral":
        return generate_group_by_pairs(
            [(1 % n, 0), (0, 1)],
            lambda x, y: ((x[0] + (y[0] if x[1] == 0 else -y[0])) % n, x[1] ^ y[1]),
            (0, 0), name=name)
    assert head == "symmetric"
    identity = tuple(range(n))
    gens = []
    if n >= 2:
        gens.append((1, 0) + identity[2:])
        if n >= 3:
            gens.append(tuple((i + 1) % n for i in range(n)))
    return generate_group_by_pairs(gens, compose_scalar, identity, name=name)


def assert_same_group(new: FiniteGroup, old: FiniteGroup):
    """Byte-identical tables and identical Python element data."""
    assert new.cayley.dtype == old.cayley.dtype
    assert new.cayley.tobytes() == old.cayley.tobytes()
    assert new.inverses.tobytes() == old.inverses.tobytes()
    # repr tells Python ints from numpy integers
    assert repr(new.elements) == repr(old.elements)
    assert new.generators == old.generators
    assert new.depth == old.depth
    assert new.identity == old.identity
    assert new.name == old.name


def cyclic_by_coordinates(n: int) -> FiniteGroup:
    """cyclic:n by generate_group from integer elements."""
    return generate_group([1] if n > 1 else [], lambda a, b: (a + b) % n, 0,
                          name=f"cyclic:{n}")


def dihedral_by_coordinates(n: int) -> FiniteGroup:
    """dihedral:n by generate_group from (rotation, flip) pairs."""
    def mul(x, y):
        i1, b1 = x[..., 0], x[..., 1]
        i2, b2 = y[..., 0], y[..., 1]
        return np.stack(((i1 + np.where(b1 == 0, i2, -i2)) % n, b1 ^ b2), axis=-1)

    return generate_group([(1 % n, 0), (0, 1)], mul, (0, 0), name=f"dihedral:{n}")


def direct_product_by_coordinates(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """g1 x g2 by generate_group from pairs of factor indices."""
    t1, t2 = g1.cayley, g2.cayley

    def mul(x, y):
        return np.stack((t1[x[..., 0], y[..., 0]], t2[x[..., 1], y[..., 1]]), axis=-1)

    gens = ([(a, g2.identity) for a in g1.generating_set]
            + [(g1.identity, b) for b in g2.generating_set])
    return generate_group(gens, mul, (g1.identity, g2.identity),
                          name=f"{g1.name}x{g2.name}")


def named_group_by_coordinates(name: str) -> FiniteGroup:
    """make_named_group(name) with its cyclic, dihedral and product groups
    built by generate_group from coordinates."""
    out = None
    for part in name.split("x"):
        head, _, tail = part.partition(":")
        if head == "cyclic":
            g = cyclic_by_coordinates(int(tail))
        elif head == "dihedral":
            g = dihedral_by_coordinates(int(tail))
        else:
            g = make_named_group(part)
        out = g if out is None else direct_product_by_coordinates(out, g)
    return out


def rows_by_stacking(states) -> np.ndarray:
    """A state family as rows: an array as given, a list of vectors (of
    any shape) flattened one by one."""
    rows = np.asarray(states, dtype=np.complex128)
    if rows.ndim != 2:
        rows = np.stack([np.ravel(np.asarray(s, dtype=np.complex128))
                         for s in states])
    return rows


def projectors_by_einsum(weights, rows) -> np.ndarray:
    """sum_k w_k |s_k><s_k|, one weight vector or a stack of them."""
    return np.einsum("...k,ki,kj->...ij", weights, rows, rows.conj())


def projector_sum_by_two_temporaries(states, weights) -> np.ndarray:
    """The weighted states times a conjugated copy of the states, the
    expression projector_sum evaluated before it formed one temporary."""
    return (states.T * np.asarray(weights)[..., None, :]) @ states.conj()


def seeded_families(seed) -> list:
    """(states, weights) pairs from one seed: the states C-ordered,
    F-ordered, a strided view and an offset view of larger arrays, with
    weights real or complex, 1-d or stacked, some of them zero."""
    rng = np.random.default_rng(seed)
    n, d = (int(k) for k in rng.integers(1, 40, size=2))

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    forms = [cplx(n, d), np.asfortranarray(cplx(n, d)), cplx(n, 2 * d)[:, ::2],
             cplx(n + 2, d + 3)[1:n + 1, 3:]]
    families = []
    for states in forms:
        for shape in [(n,), (int(rng.integers(1, 4)), n)]:
            for weights in (rng.normal(size=shape), cplx(*shape)):
                weights[rng.random(shape) < 0.2] = 0.0
                families.append((states, weights))
    return families


def labelled_sum_by_einsum(rows, weights, labels) -> np.ndarray:
    """sum_k labels_k w_k |s_k><s_k|, unsymmetrized."""
    return np.einsum("k,k,ki,kj->ij", labels, weights, rows, rows.conj())


def block_projections_by_einsum(rows, blocks) -> np.ndarray:
    return np.stack([np.einsum("ki,kj->ij", rows[list(b)], rows[list(b)].conj())
                     for b in blocks])


def spectral_sum_by_einsum(values, vectors) -> np.ndarray:
    """V diag(values) V^dag for eigenvectors stored as columns."""
    return np.einsum("k,ik,jk->ij", values, vectors, vectors.conj())


def assert_close(got, want):
    """Agreement within 1e-12 * max(1, ||want||) (Frobenius over all axes)."""
    scale = max(1.0, float(np.linalg.norm(want)))
    assert float(np.linalg.norm(got - want)) <= 1e-12 * scale


def direct_sum(*reps) -> UnitaryRep:
    """Block-diagonal sum of representations of one group."""
    g = reps[0].group
    d = sum(r.dim for r in reps)
    mats = np.zeros((g.order, d, d), dtype=np.complex128)
    at = 0
    for r in reps:
        mats[:, at:at + r.dim, at:at + r.dim] = r.matrices
        at += r.dim
    return UnitaryRep(group=g, matrices=mats)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def permutation_sets(draw, max_points=12, max_rows=4):
    """An (r, m) array of random permutations, r = 0 included; the rows
    need not form a group."""
    m = draw(st.integers(1, max_points))
    rows = draw(st.lists(st.permutations(range(m)), max_size=max_rows))
    return np.array(rows, dtype=np.intp).reshape(len(rows), m)


def compose(p, q):
    """(p o q)(x) = p(q(x)) on arrays of image tuples, broadcasting."""
    return np.take_along_axis(p, q, axis=-1)


@st.composite
def permutation_generators(draw, max_degree=5):
    """A degree up to max_degree and 1-3 random permutations of it."""
    m = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
    return m, [tuple(p) for p in gens]


@st.composite
def permutation_groups(draw, max_degree=5):
    """A permutation group on up to max_degree points from 1-3 random
    generators, built breadth-first by generate_group."""
    m, gens = draw(permutation_generators(max_degree))
    return generate_group(gens, compose, tuple(range(m)))


@st.composite
def labelled_actions(draw, max_degree=5, max_labels=4):
    """A random labelling of the points of a random permutation group's
    natural or left-translation action."""
    g = draw(permutation_groups(max_degree))
    if draw(st.booleans()):
        act = natural_action(g)
    else:
        act = left_translation_action(g)
    labels = draw(st.lists(st.integers(0, max_labels - 1),
                           min_size=act.space_size, max_size=act.space_size))
    return variable_from_point_labels(labels), act


# a loop of order 5 that is no group: a Latin square with identity 0 in
# which every element is its own inverse, which no group of order 5 has
LOOP_5 = np.array([[0, 1, 2, 3, 4],
                   [1, 0, 3, 4, 2],
                   [2, 4, 0, 1, 3],
                   [3, 2, 4, 0, 1],
                   [4, 3, 1, 2, 0]])


@st.composite
def tables_with_identity(draw, max_order=5):
    """An order-n table, 2 <= n <= max_order, whose row and column 0 are
    those of an identity: either random, or a group's table (or LOOP_5)
    relabelled by a permutation fixing 0 and then changed in up to two
    cells."""
    n = draw(st.integers(2, max_order))
    if draw(st.booleans()):
        bases = [cyclic_group(n).cayley]
        if n == 4:
            bases.append(make_named_group("cyclic:2xcyclic:2").cayley)
        if n == 5:
            bases.append(LOOP_5)
        base = draw(st.sampled_from(bases))
        sigma = np.array([0] + draw(st.permutations(range(1, n))), dtype=np.intp)
        inv = np.argsort(sigma)
        t = sigma[base[np.ix_(inv, inv)]]
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            t[i, j] = draw(st.integers(0, n - 1))
    else:
        t = np.zeros((n, n), dtype=np.intp)
        t[0], t[:, 0] = np.arange(n), np.arange(n)
        t[1:, 1:] = np.reshape(draw(st.lists(st.integers(0, n - 1),
                                             min_size=(n - 1) ** 2,
                                             max_size=(n - 1) ** 2)),
                               (n - 1, n - 1))
    return t


@st.composite
def group_maps(draw, max_degree=4):
    """(f, src, dst): a map of element indices between random permutation
    groups. f is the induced map k_to_image of a permissible variable, the
    identity map, or a random map; up to two of its images are then
    changed, and src sometimes loses its recorded generators, so that
    every element is one."""
    kind = draw(st.sampled_from(["induced", "identity", "random"]))
    if kind == "induced":
        var, act = draw(st.one_of(labelled_actions(max_degree),
                                  coset_variables(max_degree)))
        assume(is_permissible(var, act)[0])
        induced = induce_group(var, act)
        f, src, dst = induced.k_to_image.copy(), act.group, induced.image_group
    elif kind == "identity":
        src = dst = draw(permutation_groups(max_degree))
        f = np.arange(src.order)
    else:
        src, dst = draw(permutation_groups(max_degree)), draw(permutation_groups(max_degree))
        f = np.array(draw(st.lists(st.integers(0, dst.order - 1),
                                   min_size=src.order, max_size=src.order)))
    for _ in range(draw(st.integers(0, 2))):
        f[draw(st.integers(0, src.order - 1))] = draw(st.integers(0, dst.order - 1))
    if draw(st.booleans()):
        src = _copy(src, generators=())
    return f, src, dst


def _present(rows, form):
    """A family of row states as an array, a list of 1-d vectors, or a
    list of column vectors (which must be flattened and stacked)."""
    if form == "array":
        return rows
    if form == "vectors":
        return list(rows)
    return [r[:, None] for r in rows]


@st.composite
def state_families(draw, max_states=7, max_dim=5):
    """(states, weights): random complex states in one of the three forms,
    with real weights, some zero and some negative, or one scalar weight."""
    n, d = draw(st.integers(1, max_states)), draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    weights = rng.normal(size=n) * draw(st.sampled_from([1.0, 1e3]))
    weights[rng.random(n) < 0.3] = 0.0
    if draw(st.booleans()):
        weights = float(weights[0])
    return _present(rows, draw(st.sampled_from(["array", "vectors", "columns"]))), weights


@st.composite
def resolving_families(draw, max_states=7, max_dim=5):
    """(states, weights): n >= d random complex states in one of the three
    forms with weights in [0.5, 2], whitened by the inverse square root of
    their frame operator S = sum_k w_k |s_k><s_k|, so that they resolve the
    identity."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(d, max_states))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    weights = rng.uniform(0.5, 2.0, n)
    vals, V = np.linalg.eigh(projectors_by_einsum(weights, rows))
    assume(vals[0] > 1e-6 * vals[-1])
    rows = rows @ ((V / np.sqrt(vals)) @ V.conj().T).T
    return _present(rows, draw(st.sampled_from(["array", "vectors", "columns"]))), weights


@st.composite
def covariance_cases(draw, max_degree=5):
    """(var, act, rep, bundle): a random labelling of a random permutation
    group's action, its permutation representation conjugated by a random
    unitary, and an operator whose labels are indexed by the variable's
    values: built from a random family of one state per value, or, matrix
    only, with one eigenvalue cluster per value of random multiplicity."""
    var, act = draw(labelled_actions(max_degree))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, k = act.space_size, len(var.value_labels)
    W = _random_unitary(rng, d)
    rep = UnitaryRep(group=act.group,
                     matrices=W @ permutation_matrices(act) @ W.conj().T)
    if draw(st.booleans()):
        states = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        bundle = _quiet_operator(states, rng.uniform(0.5, 2.0, k),
                                 rng.normal(size=k))
    else:
        mults = 1 + rng.multinomial(d - k, np.full(k, 1.0 / k))
        values = np.arange(k) + rng.uniform(0.0, 0.5, k)
        Q = _random_unitary(rng, d)
        A = (Q * np.repeat(values, mults)) @ Q.conj().T
        bundle = operator_from_matrix((A + A.conj().T) / 2)
        assert list(bundle.spectrum.multiplicities) == list(mults)
    return var, act, rep, bundle


@st.composite
def monomial_cases(draw, max_degree=5):
    """(act, exponent, modulus): a random permutation group's natural,
    left-translation (up to order 24) or trivial action, and phases
    w^exponent, w = exp(2 pi i / modulus), drawn from a character. On the
    natural and left actions every point carries one character chi of the
    group (trivial or the sign), conjugated by a random diagonal unitary c
    of roots of unity: phase[k, x] = chi(k) * c[perm[k, x]] / c[x]. On the
    trivial action each point carries its own character, so
    phase[k, x] = chi_x(k). The modulus is 1 only when every character is
    trivial and c is 1; the sign needs an even modulus."""
    g = draw(permutation_groups(max_degree))
    # the exponent of the sign, over the modulus 2
    odd = np.array([permutation_sign(p) < 0 for p in g.elements], dtype=np.intp)
    # the dense all-pairs oracle grows as |G| * d^3: left translation only
    # up to order 24
    kind = draw(st.sampled_from(["natural", "trivial"]
                                + (["left"] if g.order <= 24 else [])))
    if kind == "trivial":
        d = draw(st.integers(1, max_degree))
        act = GroupAction(group=g, perm=np.tile(np.arange(d), (g.order, 1)))
        signed = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
        modulus = draw(st.sampled_from([2, 4, 6]) if signed.any() else st.just(1))
        return act, np.where(signed, odd[:, None] * (modulus // 2), 0), modulus
    act = (natural_action(g) if kind == "natural"
           else left_translation_action(g))
    signed = draw(st.booleans())
    modulus = draw(st.sampled_from([2, 4, 6, 12] if signed else [1, 3, 5, 8]))
    c = np.array(draw(st.lists(st.integers(0, modulus - 1), min_size=act.space_size,
                               max_size=act.space_size)))
    chi = odd * (modulus // 2) if signed else np.zeros(g.order, dtype=np.intp)
    return act, chi[:, None] + c[act.perm] - c, modulus


@st.composite
def frame_systems(draw, max_dim=10):
    """(rep, act, base, fiducial) of dimension at most max_dim: irreducible
    (the rotation rep of dihedral:n, the spin rep of binary_tetrahedral)
    or reducible (the vertex permutation rep of dihedral:n, the left
    regular rep of a group of order <= max_dim, the rotation rep of
    dihedral:n summed with itself or with the trivial rep). The fiducial
    is random, the first basis vector, or all ones; on the sum of two
    rotation reps also (1, 0, 0, 1), whose frame is scalar."""
    kind = draw(st.sampled_from(["rotation", "spin", "vertex", "regular",
                                 "double", "plus_trivial"]))
    n = draw(st.integers(3, max_dim))
    if kind == "spin":
        g = make_named_group("binary_tetrahedral")
        rep, act, base = (binary_tetrahedral_spin_rep(g),
                          left_translation_action(g), g.identity)
    elif kind == "regular":
        g = make_named_group(draw(st.sampled_from(
            [f"cyclic:{m}" for m in range(1, max_dim + 1)]
            + [f"dihedral:{m}" for m in range(2, max_dim // 2 + 1)])))
        rep, act, base = left_regular_rep(g), left_translation_action(g), g.identity
    else:
        g = make_named_group(f"dihedral:{n}")
        act, base = dihedral_vertex_action(g), 0
        rot = dihedral_rotation_rep(g)
        if kind == "rotation":
            rep = rot
        elif kind == "vertex":
            rep = permutation_rep(act)
        elif kind == "double":
            rep = direct_sum(rot, rot)
        else:
            rep = direct_sum(rot, UnitaryRep(group=g, matrices=np.ones((g.order, 1, 1))))
    d = rep.dim
    choices = ["random", "basis", "ones"] + (["halves"] if kind == "double" else [])
    form = draw(st.sampled_from(choices))
    if form == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        fiducial = rng.normal(size=d) + 1j * rng.normal(size=d)
    else:
        fiducial = {"basis": np.eye(d)[0], "ones": np.ones(d),
                    "halves": np.array([1.0, 0.0, 0.0, 1.0])}[form]
    return rep, act, base, fiducial


@st.composite
def perturbed_bases(draw, max_dim=6):
    """n <= d orthonormal complex vectors in dimension d, each entry moved
    by eps times a standard normal, eps from 0 to 1e-3."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-6, 1e-3]))
    rows = _random_unitary(rng, d)[:n]
    return rows + eps * (rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))


def _random_unitary(rng, d) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Q


def _quiet_operator(states, weights, labels):
    """The bundle build_operator makes, for a family that need not resolve
    the identity: its labelled projector sum, symmetrized, and the family."""
    rows, w = as_state_family(states, weights)
    lab = np.asarray(labels, dtype=float)
    A = labelled_sum_by_einsum(rows, w, lab)
    return OperatorBundle(matrix=(A + A.conj().T) / 2.0, labels=lab,
                          states=rows, weights=w)


def _non_generators(g: FiniteGroup) -> list[int]:
    return [k for k in range(g.order)
            if k != g.identity and k not in g.generators]


def _copy(g: FiniteGroup, **changes) -> FiniteGroup:
    return FiniteGroup(**{"cayley": g.cayley, "generators": g.generators, **changes})


# ---------------------------------------------------------------------------
# agreement on valid inputs


class TestOraclesAgree:
    @ORACLE_SETTINGS
    @given(permutation_groups())
    def test_random_permutation_groups(self, g):
        assert associative_all_triples(g.cayley)
        assert 1 <= g.depth <= max(g.order - 1, 1)
        act = natural_action(g)
        assert action_law_all_pairs(g, act.perm)
        assert rep_law_all_pairs_error(g, permutation_matrices(act)) == 0.0
        assert permutation_rep(act).modulus == 1
        # with no recorded generators every element is one: depth 1
        assert _copy(g, generators=()).depth == 1

    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_relabelled_table_gives_relabelled_identity_and_inverses(self, g, data):
        # element x renamed sigma[x]: the identity need not stay at 0
        sigma = np.array(data.draw(st.permutations(range(g.order))), dtype=np.intp)
        inv = np.argsort(sigma)
        h = FiniteGroup(sigma[g.cayley[np.ix_(inv, inv)]])
        assert h.order == g.order and h.identity == sigma[g.identity]
        assert np.array_equal(h.inverses, sigma[g.inverses[inv]])

    @pytest.mark.parametrize("name", ["dihedral:5", "binary_tetrahedral"])
    def test_named_group_float_reps(self, name):
        g = make_named_group(name)
        assert associative_all_triples(g.cayley)
        if name == "binary_tetrahedral":
            rep = binary_tetrahedral_spin_rep(g)
        else:
            rep = dihedral_rotation_rep(g)
        assert rep_law_all_pairs_error(g, rep.matrices) <= 1e-8 * rep.dim


ORACLE_GROUP_NAMES = (
    "cyclic:1", "cyclic:2", "cyclic:7", "cyclic:66", "cyclic:2000",
    "dihedral:1", "dihedral:2", "dihedral:3", "dihedral:4", "dihedral:24",
    "dihedral:200", "dihedral:500",
    "symmetric:1", "symmetric:2", "symmetric:3", "symmetric:4", "symmetric:5",
    "symmetric:6", "binary_tetrahedral",
    "cyclic:2xcyclic:3", "dihedral:3xcyclic:2", "binary_tetrahedralxcyclic:2",
    "symmetric:3xsymmetric:3xcyclic:2", "cyclic:4xdihedral:5xbinary_tetrahedral",
)


INDEX_LAW_GROUP_NAMES = (
    [f"cyclic:{n}" for n in range(1, 71)]
    + [f"dihedral:{n}" for n in range(1, 41)] + ["dihedral:200"]
    + ["cyclic:2xcyclic:3", "dihedral:3xcyclic:2",
       "cyclic:4xdihedral:5xbinary_tetrahedral", "binary_tetrahedralxcyclic:3",
       "symmetric:3xdihedral:4", "cyclic:1xcyclic:1"]
)


class TestGroupConstructionOracle:
    @pytest.mark.parametrize("name", ORACLE_GROUP_NAMES)
    def test_named_groups_match_per_pair_construction(self, name):
        assert_same_group(make_named_group(name), named_group_by_pairs(name))

    @pytest.mark.parametrize("name", INDEX_LAW_GROUP_NAMES)
    def test_index_law_groups_match_coordinate_construction(self, name):
        assert_same_group(make_named_group(name), named_group_by_coordinates(name))

    def test_product_with_a_factor_whose_identity_is_not_index_0(self):
        odd = FiniteGroup([[1, 0], [0, 1]])
        assert odd.identity == 1
        c3 = cyclic_group(3)
        for g1, g2 in ((odd, c3), (c3, odd), (odd, odd)):
            assert_same_group(direct_product(g1, g2),
                              direct_product_by_coordinates(g1, g2))

    @ORACLE_SETTINGS
    @given(permutation_generators(max_degree=6))
    def test_random_permutation_groups_match(self, case):
        m, gens = case
        identity = tuple(range(m))
        assert_same_group(generate_group(gens, compose, identity),
                          generate_group_by_pairs(gens, compose_scalar, identity))


def depth_by_word_powers(g: FiniteGroup) -> int:
    """The least L for which the identity and the products of at most L
    elements of the generating set S cover the group: the sets S, S*S, ...
    grown on the table, one right multiplication by S per length."""
    S = [int(s) for s in g.generating_set]
    covered = {g.identity, *S}
    power, length = set(S), 1
    while len(covered) < g.order:
        power = {int(g.cayley[x, s]) for x in power for s in S}
        covered |= power
        length += 1
    return length


class TestDepthOracle:
    @pytest.mark.parametrize("name", sorted(CAYLEY_SHA256))
    def test_named_group_depth_is_the_longest_word(self, name):
        g = make_named_group(name)
        assert g.depth == depth_by_word_powers(g)

    @ORACLE_SETTINGS
    @given(permutation_groups(max_degree=6), st.data())
    def test_random_permutation_group_depth_is_the_longest_word(self, g, data):
        assert g.depth == depth_by_word_powers(g)
        # any generating list, the identity and repeats included
        gens = tuple(data.draw(st.lists(st.integers(0, g.order - 1),
                                        min_size=1, max_size=4)))
        assume(closure_by_products(g.cayley, g.identity, gens) == set(range(g.order)))
        h = _copy(g, generators=gens)
        assert h.depth == depth_by_word_powers(h)


# ---------------------------------------------------------------------------
# rejections


class TestRejections:
    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_changed_non_generator_matrix_rejected(self, g, data):
        candidates = _non_generators(g)
        assume(candidates)
        k = data.draw(st.sampled_from(candidates))
        theta = data.draw(st.floats(0.01, 2 * np.pi - 0.01))
        mats = permutation_matrices(natural_action(g))
        mats[k] = mats[k] * np.exp(1j * theta)      # still unitary
        assert rep_law_all_pairs_error(g, mats) > 1e-8 * mats.shape[1]
        with pytest.raises(ValueError, match="product law"):
            UnitaryRep(group=g, matrices=mats)

    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_changed_non_generator_perm_row_rejected(self, g, data):
        candidates = _non_generators(g)
        assume(candidates)
        k = data.draw(st.sampled_from(candidates))
        act = natural_action(g)
        row = data.draw(st.permutations(range(act.space_size)))
        assume(list(row) != act.perm[k].tolist())
        perm = act.perm.copy()
        perm[k] = row
        assert not action_law_all_pairs(g, perm)
        with pytest.raises(ValueError, match="composition law"):
            GroupAction(group=g, perm=perm)

    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_generators_must_generate(self, g, data):
        gens = tuple(data.draw(st.lists(st.integers(0, g.order - 1),
                                        min_size=1, max_size=3)))
        if closure_by_products(g.cayley, g.identity, gens) == set(range(g.order)):
            assert _copy(g, generators=gens).generators == gens
        else:
            with pytest.raises(ValueError, match="reach"):
                _copy(g, generators=gens)

    @ORACLE_SETTINGS
    @given(st.integers(3, 20), st.data())
    def test_intercalate_swap_in_cyclic_table(self, half, data):
        # swapping the intercalate (a,b), (a,b+h), (a+h,b), (a+h,b+h) keeps
        # a Latin square with identity and inverses when a, b, a+b avoid 0, h
        n = 2 * half
        a = data.draw(st.integers(1, n - 1))
        b = data.draw(st.integers(1, n - 1))
        assume(a % half and b % half and (a + b) % half)
        g = cyclic_group(n)
        t = g.cayley.copy()
        a2, b2 = (a + half) % n, (b + half) % n
        rows, cols = [a, a, a2, a2], [b, b2, b, b2]
        t[rows, cols] = t[rows, cols][[1, 0, 3, 2]]
        assert not associative_all_triples(t)
        for gens in ((), (1,), tuple(range(1, n))):
            with pytest.raises(ValueError):
                _copy(g, cayley=t, generators=gens)


    def test_product_outside_generated_set_rejected(self):
        # the closure multiplies by the generator 1 only and stays in
        # {0..3}; the table's products with 3 leave it
        def mul(a, b):
            return np.where(b == 3, 99, (a + b) % 4)

        assert np.array_equal(mul(np.arange(4), np.ones(4, dtype=int)), [1, 2, 3, 0])
        with pytest.raises(ValueError, match="not an element"):
            generate_group([1], mul, 0)

    @pytest.mark.parametrize("law", [
        # 3 + 1 is 4, not a code, in the table of codes times generators
        lambda a, b: a[:, None] + b,
        # the generator table is right; the Cayley table's products with
        # 3 give -1, which an index array would read as the last code
        lambda a, b: np.where(b == 3, -1, (a[:, None] + b) % 4),
    ], ids=["above", "negative"])
    def test_index_law_value_outside_the_codes_rejected(self, law):
        with pytest.raises(ValueError, match="outside the codes 0..3"):
            groups._index_group(4, law, 0, [1], name="bad")

    def test_index_law_generators_that_miss_codes_rejected(self):
        # 2 generates the even codes only
        with pytest.raises(ValueError, match="generators reach 3 of 6 codes"):
            groups._index_group(6, lambda a, b: (a[:, None] + b) % 6, 0, [2],
                                name="bad")

    def test_closed_non_associative_mul_rejected(self):
        # the cyclic:66 table with one intercalate swapped away from column
        # 1, used as a lookup: the closure under 1 still finds 0..65 in
        # order, every product is an element, and the table is a Latin
        # square with identity and inverses, but not associative
        t = cyclic_group(66).cayley.copy()
        rows, cols = [2, 2, 35, 35], [3, 36, 3, 36]
        t[rows, cols] = t[rows, cols][[1, 0, 3, 2]]
        assert not associative_all_triples(t)

        def mul(x, y):
            return t[x[..., 0], y[..., 0]][..., None]

        with pytest.raises(ValueError, match="associativity"):
            generate_group([1], mul, 0)


# ---------------------------------------------------------------------------
# laws implied by the checked ones


def _tables_with_right_inverses(n) -> np.ndarray:
    """Every order-n table whose row and column 0 are an identity's and in
    which every element a has some b with a*b == 0, as a (K, n, n) array."""
    cells = np.array(list(itertools.product(range(n), repeat=(n - 1) ** 2)),
                     dtype=np.intp).reshape(-1, n - 1, n - 1)
    tables = np.empty((len(cells), n, n), dtype=np.intp)
    tables[:, 0], tables[:, :, 0] = np.arange(n), np.arange(n)
    tables[:, 1:, 1:] = cells
    return tables[(tables == 0).any(axis=2).all(axis=1)]


def _group_accepts(t, generators=()) -> bool:
    try:
        g = FiniteGroup(t, generators=generators)
    except ValueError:
        return False
    assert g.identity == 0 and np.array_equal(g.inverses, right_inverses(t, 0))
    return True


def _action_accepts(g, perm) -> bool:
    try:
        GroupAction(group=g, perm=perm)
    except ValueError:
        return False
    return True


@st.composite
def rows_for_group(draw, max_degree=4, max_points=4):
    """A random permutation group and an (order, m) array of maps of m
    points: either random, or those of a valid action (natural, trivial or
    left translation) changed up to twice, each time by setting one entry
    or by swapping two entries of a row (which keeps it a bijection)."""
    g = draw(permutation_groups(max_degree))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["natural", "trivial", "left"]))
        if kind == "natural":
            perm = natural_action(g).perm.copy()
        elif kind == "left":
            perm = g.cayley.copy()
        else:
            m = draw(st.integers(1, max_points))
            perm = np.tile(np.arange(m), (g.order, 1))
        m = perm.shape[1]
        for _ in range(draw(st.integers(0, 2))):
            k, x = draw(st.integers(0, g.order - 1)), draw(st.integers(0, m - 1))
            y = draw(st.integers(0, m - 1))
            if draw(st.booleans()):
                perm[k, x] = y
            else:
                perm[k, [x, y]] = perm[k, [y, x]]
    else:
        m = draw(st.integers(1, max_points))
        perm = np.reshape(draw(st.lists(st.integers(0, m - 1),
                                        min_size=g.order * m,
                                        max_size=g.order * m)),
                          (g.order, m))
    return g, np.asarray(perm, dtype=np.intp)


@st.composite
def coset_variables(draw, max_degree=5):
    """The left cosets xH of a random subgroup H of a random permutation
    group, as a variable on its left translation action: always
    permissible, and the induced action is that on the cosets."""
    g = draw(permutation_groups(max_degree))
    gens = draw(st.lists(st.integers(0, g.order - 1), max_size=2))
    H = list(subgroup_generated(g, gens))
    labels = g.cayley[:, H].min(axis=1).tolist()
    return variable_from_point_labels(labels), left_translation_action(g)


@st.composite
def relisted_generators(draw):
    """A labelled action or coset variable whose group is rebuilt from its
    own table, with a seeded change of its generator tuple: kept,
    shuffled, padded with products of generators, both, or none recorded,
    which makes every element a generator."""
    var, act = draw(st.one_of(labelled_actions(), coset_variables()))
    g = act.group
    gens = list(g.generators)
    form = draw(st.sampled_from(["kept", "shuffled", "padded", "shuffled_padded", "none"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if "padded" in form and gens:
        pairs = rng.choice(gens, size=(int(rng.integers(1, 4)), 2))
        gens += [int(g.cayley[a, b]) for a, b in pairs]
    if "shuffled" in form:
        gens = [gens[i] for i in rng.permutation(len(gens))]
    if form == "none":
        gens = []
    h = FiniteGroup(g.cayley, name=g.name, generators=tuple(gens), elements=g.elements)
    return var, GroupAction(group=h, perm=act.perm)


class TestImpliedLaws:
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_tables_accepted_exactly_when_groups(self, n):
        # every table with an identity row and column and right inverses,
        # under every generator set: neither the rows and columns nor the
        # left inverses are checked, yet only the groups' tables pass
        tables = _tables_with_right_inverses(n)
        generator_sets = [()] + [gens for r in range(1, n)
                                 for gens in itertools.combinations(range(1, n), r)]
        groups = 0
        for t in tables:
            is_group = is_group_by_brute_force(t, 0)
            groups += is_group
            for gens in generator_sets:
                reach = closure_by_products(t, 0, gens or range(n)) == set(range(n))
                assert _group_accepts(t, gens) == (is_group and reach)
            assert is_latin_square(t) or not is_group
        assert groups == 1

    @settings(ORACLE_SETTINGS, max_examples=150)
    @given(tables_with_identity(), st.data())
    def test_random_tables_accepted_exactly_when_groups(self, t, data):
        n = len(t)
        gens = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=3)))
        reach = closure_by_products(t, 0, gens or range(n)) == set(range(n))
        expected = is_group_by_brute_force(t, 0) and reach
        assert _group_accepts(t, gens) == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_row_set_accepted_exactly_when_an_action(self, n):
        # cyclic:n on 3 points, every one of the 27**n choices of maps
        g = cyclic_group(n)
        maps = np.array(list(itertools.product(range(3), repeat=3)), dtype=np.intp)
        actions = 0
        for rows in itertools.product(range(len(maps)), repeat=n):
            perm = maps[list(rows)]
            expected = is_action_by_brute_force(g, perm)
            actions += expected
            assert _action_accepts(g, perm) == expected
        # homomorphisms into S_3: the identity, and for n = 2 the three
        # transpositions, for n = 3 the two 3-cycles
        assert actions == {2: 4, 3: 3}[n]

    @ORACLE_SETTINGS
    @given(rows_for_group())
    def test_random_rows_accepted_exactly_when_an_action(self, case):
        g, perm = case
        assert _action_accepts(g, perm) == is_action_by_brute_force(g, perm)

    @ORACLE_SETTINGS
    @given(st.one_of(labelled_actions(), coset_variables()))
    def test_induced_map_is_a_homomorphism(self, case):
        var, act = case
        assume(is_permissible(var, act)[0])
        g = act.group
        induced = induce_group(var, act)
        assert check_homomorphism(induced.k_to_image, g,
                                  induced.image_group) == (True, None)
        assert g.order == len(induced.kernel) * induced.image_group.order
        images = [int(induced.k_to_image[s]) for s in g.generators]
        assert induced.image_group.generators == tuple(dict.fromkeys(images))
        assert np.array_equal(induced.image_group.cayley,
                              image_table_by_scatter(induced, g))

    @pytest.mark.parametrize("n", [4, 7, 200])
    def test_faithful_variable_image_generated_by_generator_images(self, n):
        # every vertex its own value: the image is the whole group, and
        # Light's test on it runs on the two generator images
        g = make_named_group(f"dihedral:{n}")
        induced = induce_group(variable_from_point_labels(range(n)),
                               dihedral_vertex_action(g))
        assert induced.kernel == (g.identity,)
        assert induced.image_group.order == g.order
        assert induced.image_group.generators == tuple(
            int(induced.k_to_image[s]) for s in g.generators)
        assert check_homomorphism(induced.k_to_image, g,
                                  induced.image_group) == (True, None)
        assert np.array_equal(induced.image_group.cayley,
                              image_table_by_scatter(induced, g))

    @ORACLE_SETTINGS
    @given(st.one_of(labelled_actions(), coset_variables()))
    def test_maximal_permissible_subgroup_is_closed(self, case):
        var, act = case
        H = list(maximal_permissible_subgroup(var, act))
        assert act.group.identity in H
        assert set(act.group.cayley[np.ix_(H, H)].ravel().tolist()) <= set(H)


# ---------------------------------------------------------------------------
# one generator-law routine


def _flip_twisted_table(g: FiniteGroup) -> np.ndarray:
    """The table of dihedral:n with one rotation added to the product of two
    flips: (i, a)(j, b) = (i + (-1)^a j + ab, a ^ b). Identity, right
    inverses and generation survive, and (x*r)*y == x*(r*y) still holds
    for the rotation r; for n >= 3 it fails for the flip."""
    index = {x: k for k, x in enumerate(g.elements)}
    n = g.order // 2
    return np.array([[index[((i + (-j if a else j) + a * b) % n, a ^ b)]
                      for j, b in g.elements] for i, a in g.elements])


class TestGeneratorLaw:
    @settings(ORACLE_SETTINGS, max_examples=150)
    @given(group_maps())
    def test_homomorphism_verdicts_match_all_pairs(self, case):
        f, src, dst = case
        ok, witness = check_homomorphism(f, src, dst)
        assert ok == homomorphism_by_all_pairs(f, src, dst)[0]
        if ok:
            assert witness is None
        else:
            s, k = witness
            assert s in src.generating_set
            assert f[src.cayley[s, k]] != dst.cayley[f[s], f[k]]

    # a fault at the second generator of dihedral:n, the flip, and none at
    # the first, the rotation: the all-pairs oracle sees it, and each law's
    # error names the flip

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_associativity_names_the_flip(self, n):
        g = make_named_group(f"dihedral:{n}")
        t = _flip_twisted_table(g)
        assert not associative_all_triples(t)
        with pytest.raises(ValueError, match=f"associativity fails at generator "
                                              f"{g.generators[1]}$"):
            FiniteGroup(t, generators=g.generators)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_action_law_names_the_flip(self, n):
        # every element acts by its rotation part
        g = make_named_group(f"dihedral:{n}")
        perm = np.array([[(x + i) % n for x in range(n)] for i, _ in g.elements])
        assert not action_law_all_pairs(g, perm)
        with pytest.raises(ValueError, match=f"action composition law fails at "
                                              f"generator {g.generators[1]}$"):
            GroupAction(group=g, perm=perm)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_dense_product_law_names_the_flip(self, n):
        g = make_named_group(f"dihedral:{n}")
        mats = np.stack([np.roll(np.eye(n), i, axis=0) for i, _ in g.elements])
        assert rep_law_all_pairs_error(g, mats) > 1e-8 * n
        with pytest.raises(ValueError, match=f"product law fails at generator "
                                              f"{g.generators[1]} "):
            UnitaryRep(group=g, matrices=mats)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_monomial_product_law_names_the_flip(self, n):
        # the phase i^b of the element (i, b): two flips give -1, not 1
        g = make_named_group(f"dihedral:{n}")
        act = dihedral_vertex_action(g)
        exponent = np.array([[b] * n for _, b in g.elements])
        phase = roots_of_unity(exponent, 4)
        assert rep_law_all_pairs_error(g, monomial_matrices(act.perm, phase)) > 1e-8 * n
        assert monomial_law_all_pairs_error(g, act.perm, phase) > 1e-8 * n
        with pytest.raises(ValueError, match=f"product law fails at generator "
                                              f"{g.generators[1]}$"):
            MonomialRep(action=act, exponent=exponent, modulus=4)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_homomorphism_witness_names_the_flip(self, n):
        # every element to its rotation part
        g = make_named_group(f"dihedral:{n}")
        f = [g.elements.index((i, 0)) for i, _ in g.elements]
        assert not homomorphism_by_all_pairs(f, g, g)[0]
        ok, (s, k) = check_homomorphism(f, g, g)
        assert not ok and s == g.generators[1]
        assert f[g.cayley[s, k]] != g.cayley[f[s], f[k]]


# ---------------------------------------------------------------------------
# one orbit routine


class TestOrbitOracles:
    @ORACLE_SETTINGS
    @given(permutation_sets())
    def test_orbit_partition_matches_search(self, perms):
        m = perms.shape[1]
        blocks = orbit_partition(perms)
        assert blocks == orbits_by_bfs(perms, m)
        assert sorted(x for b in blocks for x in b) == list(range(m))

    def test_no_rows_gives_singletons(self):
        assert orbit_partition(np.empty((0, 4), dtype=np.intp)) == (
            (0,), (1,), (2,), (3,))

    @pytest.mark.parametrize("m", [7, 64, 1000])
    def test_one_long_cycle_in_shuffled_order(self, m):
        # one m-cycle through the points in a random order: one orbit
        order = np.random.default_rng(m).permutation(m)
        row = np.empty(m, dtype=np.intp)
        row[order] = np.roll(order, 1)
        assert orbit_partition(row[None, :]) == (tuple(range(m)),)

    @pytest.mark.parametrize("name", ["cyclic:12", "dihedral:6", "symmetric:4",
                                      "binary_tetrahedral"])
    def test_named_group_actions(self, name):
        g = make_named_group(name)
        for act in (left_translation_action(g),
                    GroupAction(group=g, perm=g.cayley.T[g.inverses])):
            assert orbits(act) == orbits_by_bfs(act.perm, act.space_size)
        if name.startswith("symmetric"):
            act = natural_action(g)
            assert orbits(act) == orbits_by_bfs(act.perm, act.space_size)

    @pytest.mark.parametrize("name", ORACLE_GROUP_NAMES)
    def test_orbits_from_generators_match_all_rows(self, name):
        # orbits() reads the rows of the generators only
        g = make_named_group(name)
        acts = [left_translation_action(g), conjugation_action(g)]
        head = name.partition(":")[0]
        if head == "symmetric" and "x" not in name:
            acts.append(natural_action(g))
        if head == "dihedral" and "x" not in name:
            acts.append(dihedral_vertex_action(g))
        for act in acts:
            assert orbits(act) == orbit_partition(act.perm)

    @ORACLE_SETTINGS
    @given(permutation_groups())
    def test_orbits_from_generators_match_all_rows_random(self, g):
        for act in (natural_action(g), left_translation_action(g),
                    conjugation_action(g)):
            assert orbits(act) == orbit_partition(act.perm)

    @ORACLE_SETTINGS
    @given(permutation_groups(), st.data())
    def test_subgroup_generated_matches_closure(self, g, data):
        gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
        assert subgroup_generated(g, gens) == subgroup_by_two_sided_closure(g, gens)

    @ORACLE_SETTINGS
    @given(permutation_sets(max_points=8))
    def test_eigen_orbit_partition_matches_search(self, perms):
        assume(perms.shape[0] > 0)
        m = perms.shape[1]
        bundle = operator_from_matrix(np.diag(np.arange(m, dtype=float)))
        assert eigen_orbit_partition(bundle, perms) == orbits_by_bfs(perms, m)

    @ORACLE_SETTINGS
    @given(permutation_sets(max_points=8), st.data())
    def test_model_reduce_verdicts_match_search(self, perms, data):
        assume(perms.shape[0] > 0)
        m = perms.shape[1]
        ids = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                 max_size=m, unique=True))
        u = np.arange(m, dtype=float) - 0.5 * m
        expected = orbit_verdict_by_search(perms, ids)
        if expected is None:
            reduced = model_reduce(u, perms, u[ids])
            assert reduced.value_labels == tuple(sorted(u[ids].tolist()))
        else:
            with pytest.raises(NotAnOrbitError, match=expected):
                model_reduce(u, perms, u[ids])


# ---------------------------------------------------------------------------
# one spectral representation


class TestCovarianceOracle:
    @pytest.mark.parametrize("j", [1.0, 1.5, 3.0])
    def test_half_turn_reversal_matches_projection_stack(self, j):
        a = np.array([0.3, -0.5, 0.8])
        a /= np.linalg.norm(a)
        bundle = spin_component_operator(j, a)
        U = spin_rotation(j, perpendicular_unit(a), np.pi)
        reversal = np.arange(bundle.matrix.shape[0] - 1, -1, -1)
        report = conjugation_covariance(bundle, U, reversal)
        oracle = covariance_distance_by_projection_stack(bundle, U, reversal)
        assert report.distance <= 1e-9 * max(1.0, float(np.linalg.norm(bundle.matrix)))
        assert abs(report.distance - oracle) <= 1e-12

    @pytest.mark.parametrize("mults", [(1, 1, 1), (2, 1), (1, 3, 2)])
    def test_degenerate_random_unitaries_match_projection_stack(self, mults):
        d, k = sum(mults), len(mults)
        rng = np.random.default_rng(10 * d + k)
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        A = (Q * np.repeat(np.arange(1.0, k + 1), mults)) @ Q.conj().T
        bundle = operator_from_matrix((A + A.conj().T) / 2)
        assert list(bundle.spectrum.multiplicities) == list(mults)
        W, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for U in (np.eye(d), W):
            for perm in (np.arange(k), rng.permutation(k)):
                report = conjugation_covariance(bundle, U, perm)
                oracle = covariance_distance_by_projection_stack(bundle, U, perm)
                assert abs(report.distance - oracle) <= 1e-12 * max(1.0, oracle)
        # the identity with the identity relabelling is covariant
        report = conjugation_covariance(bundle, np.eye(d), np.arange(k))
        assert report.distance <= 1e-9 * max(1.0, float(np.linalg.norm(bundle.matrix)))


class TestCovarianceOverElementsOracle:
    @ORACLE_SETTINGS
    @given(covariance_cases(), st.data())
    def test_worst_distance_matches_element_loop(self, case, data):
        var, act, rep, bundle = case
        H = maximal_permissible_subgroup(var, act)
        elements = data.draw(st.lists(st.sampled_from(H), min_size=1,
                                      max_size=8))
        report = covariance_check(bundle, rep, elements, var, act)
        oracle = covariance_by_element_loop(bundle, rep, elements, var, act)
        scale = max(1.0, float(np.linalg.norm(bundle.matrix)))
        assert abs(report.distance - oracle) <= 1e-12 * scale
        assert (report.distance <= 1e-9 * scale) == (oracle <= 1e-9 * scale)

    @ORACLE_SETTINGS
    @given(covariance_cases(max_degree=4), st.data())
    def test_same_first_element_rejected(self, case, data):
        var, act, rep, bundle = case
        elements = data.draw(st.lists(st.integers(0, act.group.order - 1),
                                      min_size=1, max_size=8))
        try:
            oracle = covariance_by_element_loop(bundle, rep, elements, var, act)
        except NotInSubgroupError as expected:
            with pytest.raises(NotInSubgroupError) as err:
                covariance_check(bundle, rep, elements, var, act)
            assert str(err.value) == str(expected)
        else:
            report = covariance_check(bundle, rep, elements, var, act)
            scale = max(1.0, float(np.linalg.norm(bundle.matrix)))
            assert abs(report.distance - oracle) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# one value-map table


def element_blocks_of_one(n, size):
    """One element per block, so that every read over all elements is
    assembled across as many blocks as there are elements."""
    return [slice(k, k + 1) for k in range(n)]


BLOCK_SIZES = pytest.mark.parametrize(
    "blocks", [variables.element_blocks, element_blocks_of_one],
    ids=["default_blocks", "one_element_per_block"])


def image_numbering_by_tuples(induced):
    """k_to_image numbered by the tuple of each value map, in order of
    first appearance, as induce_group numbered it before it keyed rows by
    their bytes."""
    rows = [tuple(r) for r in induced.tolist()]
    index = {r: i for i, r in enumerate(dict.fromkeys(rows))}
    return np.array([index[r] for r in rows])


class TestValueMapOracles:
    @BLOCK_SIZES
    @ORACLE_SETTINGS
    @given(labelled_actions())
    def test_verdict_and_witness_match_class_scan(self, blocks, case):
        var, act = case
        expected = permissible_by_class_scan(var, act)
        with mock.patch.object(variables, "element_blocks", blocks):
            verdict = is_permissible(var, act)
            if expected[0]:
                induced = induce_group(var, act).value_action.perm
            else:
                with pytest.raises(NotPermissibleError) as err:
                    induce_group(var, act)
        assert verdict == expected
        if expected[0]:
            for k in range(act.group.order):
                assert np.array_equal(induced[k],
                                      value_map_by_point_loop(var, act, k))
        else:
            assert err.value.witness == expected[1]

    @ORACLE_SETTINGS
    @given(labelled_actions())
    def test_image_numbering_matches_tuples(self, case):
        var, act = case
        assume(is_permissible(var, act)[0])
        induced = induce_group(var, act)
        assert np.array_equal(induced.k_to_image,
                              image_numbering_by_tuples(induced.value_action.perm))

    @ORACLE_SETTINGS
    @given(labelled_actions())
    def test_induced_action_from_its_value_action(self, case):
        # a record built from value maps assigned point by point derives
        # the numbering, kernel and image table that induce_group's does
        var, act = case
        assume(is_permissible(var, act)[0])
        induced = induce_group(var, act)
        direct = InducedAction(value_action=GroupAction(group=act.group, perm=[
            value_map_by_point_loop(var, act, k) for k in range(act.group.order)]))
        assert np.array_equal(direct.k_to_image, induced.k_to_image)
        assert direct.kernel == induced.kernel
        assert np.array_equal(direct.image_group.cayley, induced.image_group.cayley)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_first_points_of_every_labelling(self, m):
        for labels in itertools.product(range(3), repeat=m):
            var = variable_from_point_labels(labels)
            assert np.array_equal(var.first_points,
                                  first_points_by_scatter(var.values))

    @ORACLE_SETTINGS
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=60),
           st.integers(0, 2**32 - 1))
    def test_first_points_of_random_variables(self, labels, seed):
        # ids in label order, then relabelled at random, so that a value's
        # first point need not grow with its id
        var = variable_from_point_labels(labels)
        perm = np.random.default_rng(seed).permutation(len(var.value_labels))
        for v in (var, ConceptualVariable(values=perm[var.values],
                                          value_labels=var.value_labels)):
            assert np.array_equal(v.first_points,
                                  first_points_by_scatter(v.values))

    def test_first_points_of_int32_ids(self):
        # more than 32,768 labels are stored as int32
        rng = np.random.default_rng(7)
        values = rng.permutation(np.concatenate(
            [np.arange(40000), rng.integers(0, 40000, size=20000)]))
        var = ConceptualVariable(values=values, value_labels=tuple(range(40000)))
        assert var.values.dtype == np.int32
        assert np.array_equal(var.first_points,
                              first_points_by_scatter(var.values))

    @ORACLE_SETTINGS
    @given(labelled_actions())
    def test_every_element_value_map(self, case):
        # _element_maps' rows over the whole group against the point loop,
        # one element at a time
        var, act = case
        blocks = list(variables._element_maps(var, act, range(act.group.order)))
        read = np.concatenate([ks for ks, _, _ in blocks])
        assert read.tolist() == list(range(act.group.order))
        for ks, maps, ok in blocks:
            for h, got, single_valued in zip(ks.tolist(), maps, ok):
                expected = value_map_by_point_loop(var, act, h)
                assert single_valued == (expected is not None)
                if single_valued:
                    assert np.array_equal(got, expected)

    @BLOCK_SIZES
    @ORACLE_SETTINGS
    @given(labelled_actions())
    def test_maximal_permissible_subgroup(self, blocks, case):
        var, act = case
        expected = tuple(h for h in range(act.group.order)
                         if value_map_by_point_loop(var, act, h) is not None)
        with mock.patch.object(variables, "element_blocks", blocks):
            assert maximal_permissible_subgroup(var, act) == expected

    @ORACLE_SETTINGS
    @given(labelled_actions(), st.data())
    def test_permissible_under_random_subsets(self, case, data):
        var, act = case
        subset = data.draw(st.lists(st.integers(0, act.group.order - 1),
                                    max_size=6))
        expected = all(value_map_by_point_loop(var, act, k) is not None
                       for k in subset)
        assert is_permissible_under(var, act, subset) == expected

    @ORACLE_SETTINGS
    @given(st.integers(1, 10).flatmap(lambda m: st.tuples(
        st.lists(st.integers(0, 3), min_size=m, max_size=m),
        st.lists(st.integers(0, 3), min_size=m, max_size=m))))
    def test_accessibility_both_directions(self, labellings):
        a, b = (variable_from_point_labels(x) for x in labellings)
        for alpha, beta in ((a, b), (b, a)):
            ok, f = accessibility_leq(alpha, beta)
            expected_ok, expected_f = factor_map_by_point_loop(alpha, beta)
            assert ok == expected_ok
            if ok:
                assert np.array_equal(f, expected_f)
            else:
                assert f is None


class TestPermissibleOnTheGenerators:
    @pytest.mark.parametrize("name", ORACLE_GROUP_NAMES)
    def test_named_groups(self, name):
        # left translation under random labels, the left cosets of the
        # subgroup of each of the first two generators, and the two halves
        # of the elements; the dihedral vertex action under its parity and
        # its half blocks
        g = make_named_group(name)
        rng = np.random.default_rng(ORACLE_GROUP_NAMES.index(name))
        left = left_translation_action(g)
        cases = [(left, rng.integers(0, 3, g.order)), (left, np.arange(g.order) < g.order // 2)]
        cases += [(left, g.cayley[:, list(subgroup_generated(g, [s]))].min(axis=1))
                  for s in g.generating_set[:2]]
        if name.startswith("dihedral:") and "x" not in name:
            n, vertex = g.order // 2, dihedral_vertex_action(g)
            cases += [(vertex, np.arange(n) % 2), (vertex, np.arange(n) < n // 2)]
        for act, labels in cases:
            var = variable_from_point_labels(labels)
            expected = permissible_by_every_element(var, act)
            assert is_permissible(var, act) == expected
            if expected[0]:
                assert np.array_equal(induce_group(var, act).value_action.perm,
                                      element_maps_over_the_group(var, act))
            else:
                with pytest.raises(NotPermissibleError) as err:
                    induce_group(var, act)
                assert err.value.witness == expected[1]

    @settings(ORACLE_SETTINGS, max_examples=150)
    @given(relisted_generators())
    def test_relisted_generators(self, case):
        var, act = case
        g = act.group
        verdict, expected = is_permissible(var, act), permissible_by_every_element(var, act)
        assert verdict[0] == expected[0]
        if g.generating_set in (tuple(range(1, len(g.generators) + 1)), tuple(range(g.order))):
            assert verdict == expected
        if verdict[0]:
            assert np.array_equal(induce_group(var, act).value_action.perm,
                                  element_maps_over_the_group(var, act))
            return
        # the first failing generator, and a pair of points that share a
        # value, the first of them the value's first point, which it
        # separates
        k, p1, p2 = verdict[1]
        assert k == next(s for s in g.generating_set
                         if value_map_by_point_loop(var, act, s) is None)
        moved = var.values[act.perm[k]]
        assert p1 == var.first_points[var.values[p1]] < p2
        assert var.values[p1] == var.values[p2] and moved[p1] != moved[p2]
        with pytest.raises(NotPermissibleError) as err:
            induce_group(var, act)
        assert err.value.witness == verdict[1]


# ---------------------------------------------------------------------------
# irreducibility by the character norm


class TestCommutantOracle:
    @pytest.mark.parametrize("name", ["dihedral:4", "dihedral:5", "binary_tetrahedral"])
    def test_named_group_reps(self, name):
        g = make_named_group(name)
        if name == "binary_tetrahedral":
            rep = binary_tetrahedral_spin_rep(g)
        else:
            rep = dihedral_rotation_rep(g)
        assert is_irreducible(rep) == (True, commutant_by_kronecker_svd(rep)) == (True, 1)

    @pytest.mark.parametrize("name", ["cyclic:3", "dihedral:3", "symmetric:3",
                                      "binary_tetrahedral"])
    def test_left_regular_reps(self, name):
        # the regular representation holds each irrep of dimension d_i
        # d_i times, so its commutant has dimension sum d_i^2 = |G|
        rep = left_regular_rep(make_named_group(name))
        assert is_irreducible(rep)[1] == commutant_by_kronecker_svd(rep) == rep.dim

    @ORACLE_SETTINGS
    @given(permutation_groups())
    def test_random_permutation_reps(self, g):
        acts = [natural_action(g)]
        if g.order <= 24:       # the oracle's system grows as d^4
            acts.append(left_translation_action(g))
        for act in acts:
            rep = permutation_rep(act)
            assert is_irreducible(rep)[1] == commutant_by_kronecker_svd(rep)

    @pytest.mark.parametrize("n", [4, 5])
    def test_reducible_direct_sums(self, n):
        g = make_named_group(f"dihedral:{n}")
        rot = dihedral_rotation_rep(g)
        trivial = UnitaryRep(group=g, matrices=np.ones((g.order, 1, 1)))
        sign = UnitaryRep(group=g, matrices=np.array(
            [[[(-1.0) ** b]] for _, b in g.elements]))
        rng = np.random.default_rng(n)
        for parts, expected in (((trivial, trivial), 4), ((rot, trivial), 2),
                                ((rot, rot), 4),
                                ((rot, sign, trivial), 3),
                                ((rot, rot, trivial, trivial), 8)):
            rep = direct_sum(*parts)
            d = rep.dim
            W, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            mixed = UnitaryRep(group=g, matrices=W @ rep.matrices @ W.conj().T)
            for r in (rep, mixed):
                oracle = commutant_by_kronecker_svd(r)
                assert is_irreducible(r) == (False, oracle) == (False, expected)

    def test_left_regular_rep_of_symmetric_five(self):
        # d = 120: the Kronecker system would be 2 x 14400 x 14400 complex,
        # about 6.6 GB; the character norm reads 120 traces
        rep = left_regular_rep(make_named_group("symmetric:5"))
        assert rep.dim == 120
        assert is_irreducible(rep)[1] == 120

    def test_non_integer_character_norm_raises(self):
        g = make_named_group("dihedral:4")
        rep = dihedral_rotation_rep(g)
        mats = rep.matrices.copy()
        k = next(k for k in range(g.order) if k != g.identity)
        a = 0.3
        mats[k] = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
        object.__setattr__(rep, "matrices", mats)
        with pytest.raises(ValueError, match="not an integer"):
            is_irreducible(rep)


# ---------------------------------------------------------------------------
# monomial representations against their dense stacks


def _both_forms(act, exponent, modulus):
    """The monomial rep and the dense rep of the same matrices."""
    return (MonomialRep(action=act, exponent=exponent, modulus=modulus),
            UnitaryRep(group=act.group, matrices=monomial_matrices(
                act.perm, roots_of_unity(exponent, modulus))))


def _rejections(act, exponent, modulus) -> tuple[str | None, str | None]:
    """The messages with which MonomialRep and the dense UnitaryRep reject
    the exponents, None for a form that accepts them."""
    out = []
    for build in (lambda: MonomialRep(action=act, exponent=exponent, modulus=modulus),
                  lambda: UnitaryRep(group=act.group, matrices=monomial_matrices(
                      act.perm, roots_of_unity(exponent, modulus)))):
        try:
            build()
            out.append(None)
        except ValueError as err:
            out.append(str(err))
    return tuple(out)


class TestMonomialOracle:
    @ORACLE_SETTINGS
    @given(monomial_cases(), st.integers(0, 2**32 - 1))
    def test_characters_orbits_and_conjugates_match(self, case, seed):
        act, exponent, modulus = case
        mono, dense = _both_forms(act, exponent, modulus)
        g, d = act.group, act.space_size
        assert mono.exponent.dtype == np.int16 and not mono.exponent.flags.writeable
        assert rep_law_all_pairs_error(g, dense.matrices) <= 1e-8 * d
        assert_close(mono.characters(), np.trace(dense.matrices, axis1=1, axis2=2))
        assert is_irreducible(mono)[1] == is_irreducible(dense)[1]
        rng = np.random.default_rng(seed)
        f = rng.normal(size=d) + 1j * rng.normal(size=d)
        F = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        assert_close(mono.orbit(f), dense.matrices @ f)
        assert_close(mono.orbit(F), dense.matrices @ F)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ks = rng.integers(0, g.order, size=5)
        assert_close(mono.conjugated(A, ks), dense.conjugated(A, ks))
        for k in range(g.order):
            assert np.array_equal(mono.matrix(k), dense.matrices[k])

    @ORACLE_SETTINGS
    @given(monomial_cases(), st.data())
    def test_complex_law_reaches_the_integer_verdict(self, case, data):
        # the product law on complex phases over every pair, against the
        # exact laws on exponents over generators x all elements, on the
        # drawn rep and with one exponent moved at one element (at the
        # identity, the identity law refuses it)
        act, exponent, modulus = case
        g, d = act.group, act.space_size
        k = data.draw(st.integers(0, g.order - 1))
        x = data.draw(st.integers(0, d - 1))
        bad = exponent.copy()
        bad[k, x] += data.draw(st.integers(1, max(1, modulus - 1)))
        for e in (exponent, bad):
            complex_ok = monomial_law_all_pairs_error(
                g, act.perm, roots_of_unity(e, modulus)) <= 1e-8 * d
            try:
                MonomialRep(action=act, exponent=e, modulus=modulus)
                integer_ok = True
            except ValueError:
                integer_ok = False
            assert integer_ok == complex_ok

    @ORACLE_SETTINGS
    @given(monomial_cases(), st.integers(0, 2**32 - 1), st.data())
    def test_covariance_matches(self, case, seed, data):
        act, exponent, modulus = case
        mono, dense = _both_forms(act, exponent, modulus)
        labels = data.draw(st.lists(st.integers(0, 3), min_size=act.space_size,
                                    max_size=act.space_size))
        var = variable_from_point_labels(labels)
        H = maximal_permissible_subgroup(var, act)
        elements = data.draw(st.lists(st.sampled_from(H), min_size=1, max_size=8))
        rng = np.random.default_rng(seed)
        k, d = len(var.value_labels), act.space_size
        states = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        bundle = _quiet_operator(states, rng.uniform(0.5, 2.0, k), rng.normal(size=k))
        report = covariance_check(bundle, mono, elements, var, act)
        oracle = covariance_by_element_loop(bundle, dense, elements, var, act)
        scale = max(1.0, float(np.linalg.norm(bundle.matrix)))
        assert abs(report.distance - oracle) <= 1e-12 * scale
        dense_distance = covariance_check(bundle, dense, elements, var, act).distance
        assert (report.distance <= 1e-9 * scale) == (dense_distance <= 1e-9 * scale)

    @ORACLE_SETTINGS
    @given(monomial_cases(), st.data())
    def test_same_faults_rejected_with_the_same_message(self, case, data):
        act, exponent, modulus = case
        g, d = act.group, act.space_size
        if modulus == 1:
            # every exponent is 0 mod 1: no phase can be wrong
            return
        x = data.draw(st.integers(0, d - 1))
        shift = data.draw(st.integers(1, modulus - 1))
        # a phase at the identity that is not 1
        bad = exponent.copy()
        bad[g.identity, x] += shift
        assert _rejections(act, bad, modulus) == (
            "identity element must map to the identity matrix",) * 2
        others = [k for k in range(g.order) if k != g.identity]
        if not others:
            return
        # a phase changed at a generator or at any other element: it breaks
        # the product law, unless it is another character's (-1 at a fixed
        # point of an involution, say); the dense form's message ends with
        # the measured error, the exact one's does not
        k = data.draw(st.sampled_from(others))
        bad = exponent.copy()
        bad[k, x] += shift
        mono, dense = _rejections(act, bad, modulus)
        phase = roots_of_unity(bad, modulus)
        if rep_law_all_pairs_error(g, monomial_matrices(act.perm, phase)) > 1e-8 * d:
            assert mono is not None and mono.startswith("representation product law fails")
            assert mono == dense.split(" (error")[0]
        else:
            assert mono is None and dense is None

    @pytest.mark.parametrize("n", [64, 1024])
    def test_clock_law_is_exact_where_the_complex_law_rounds(self, n):
        # the clock's exponents satisfy the law with no remainder; the same
        # law on the complex phases exp(2 pi i k x / n) that the clock held
        # before errs by rounding alone, 1.5e-11 at n = 1024 on generator 1
        crep = clock_rep(cyclic_group(n))
        g, e = crep.group, crep.exponent.astype(np.intp)
        x = np.arange(n)
        assert np.array_equal(e, np.multiply.outer(x, x) % n)
        assert not ((e[1] + e - e[g.cayley[1]]) % n).any()
        phase = np.exp(2j * np.pi * x[:, None] * x / n)
        err = float(np.max(np.linalg.norm(phase[1] * phase - phase[g.cayley[1]], axis=1)))
        assert 0 < err <= 1e-8 * n / (2 * g.depth)
        if n == 1024:
            assert err > 1e-11

    @pytest.mark.parametrize("name", ["cyclic:5", "dihedral:4", "binary_tetrahedral"])
    def test_left_regular_rep_matches_its_dense_stack(self, name):
        g = make_named_group(name)
        rep = left_regular_rep(g)
        mats = permutation_matrices(left_translation_action(g))
        dense = UnitaryRep(group=g, matrices=mats)
        # the dense stack obeys the product law exactly, as the exponents do
        assert rep.modulus == 1
        assert all(np.array_equal(mats[s] @ mats[k], mats[g.cayley[s, k]])
                   for s in g.generators for k in range(g.order))
        assert np.array_equal(rep.characters(), dense.characters())
        stack = np.stack([rep.matrix(k) for k in range(g.order)])
        assert stack.dtype == mats.dtype
        assert np.array_equal(stack, mats)

    def test_left_regular_stack_bytes_are_pinned(self):
        # SHA-256 of the dense stack that MonomialRep.matrix expands
        g = make_named_group("binary_tetrahedral")
        rep = left_regular_rep(g)
        stack = np.stack([rep.matrix(k) for k in range(g.order)])
        assert hashlib.sha256(stack.tobytes()).hexdigest() == (
            "0dba7081ff0a84cbbd6924e93b10f64b25f066f88378feba589663d9c13faa3b")


def _phase_verdicts(n, c, d) -> dict:
    report = run_scenario({"scenario": "phase", "params": {"n": n, "c": c, "d": d}})
    return {ch.name: ch.passed for ch in report.checks}


class TestShiftAndClockOracle:
    @pytest.mark.parametrize("n", [2, 4, 7, 64])
    def test_shift_rep_is_the_permutation_rep_of_the_shifts(self, n):
        mats = np.stack([shift_unitary(n, k) for k in range(n)])
        srep = shift_rep(cyclic_group(n))
        dense = np.stack([srep.matrix(k) for k in range(n)])
        assert dense.dtype == mats.dtype
        assert dense.tobytes() == mats.tobytes()
        assert srep.modulus == 1

    @pytest.mark.parametrize("n", [2, 4, 7, 64, 256])
    def test_clock_matrices_are_the_clock_unitaries(self, n):
        # the exponents are (k x) mod n; a phase read from the n roots
        # differs from exp(2 pi i k x / n) by the rounding of the unreduced
        # angle, which grows with k x: at most 5 n eps was measured, for n
        # up to 1024
        crep = clock_rep(cyclic_group(n))
        x = np.arange(n)
        assert np.array_equal(crep.action.perm, np.broadcast_to(x, (n, n)))
        assert np.array_equal(crep.exponent, np.multiply.outer(x, x) % n)
        assert crep.modulus == n
        stack = np.stack([crep.matrix(k) for k in range(n)])
        assert np.max(np.abs(stack - clock_matrices(n))) <= 8 * n * np.finfo(float).eps

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 64])
    def test_weyl_check_matches_the_dense_route(self, n):
        pairs = {(1, 1), (0, 1), (1, 0), (n - 1, n - 1),
                 (n // 2, n // 3), (n - 1, 0), (2 % n, n - 1), (-1, n + 2)}
        for c, d in sorted(pairs):
            err = weyl_error_by_dense_products(
                shift_unitary(n, c), clock_unitary(n, d), n, c, d)
            assert err <= 1e-12 * n, (c, d)
            assert _phase_verdicts(n, c, d)["paired_translation_unitary"], (c, d)

    @pytest.mark.parametrize("n", [3, 4, 7, 64])
    def test_faulty_tables_reach_the_dense_verdict(self, n, monkeypatch):
        # tables read as the scenario reads a rep (action.perm, exponent,
        # modulus), which its constructor would refuse or which are not the
        # shift and clock: the unit shift an (n-1)-cycle, which fixes the
        # last point; the clock over the modulus 2n, as w^(kx) or as the
        # square root of the clock; the clock doubled
        x = np.arange(n)
        k = x[:, None]
        cycle = [x]
        for _ in range(n - 1):
            cycle.append(np.where(x < n - 1, (cycle[-1] + 1) % (n - 1), n - 1))
        fixed = np.broadcast_to(x, (n, n))
        shifts = {"shift": ((k + x) % n, np.zeros((n, n), dtype=int), 1),
                  "cycle": (np.stack(cycle), np.zeros((n, n), dtype=int), 1)}
        clocks = {"clock": (fixed, k * x, n), "clock over 2n": (fixed, 2 * k * x, 2 * n),
                  "root": (fixed, k * x, 2 * n), "doubled": (fixed, 2 * k * x, n)}
        for (sname, stable), (cname, ctable) in itertools.product(
                shifts.items(), clocks.items()):
            for name, (perm, exponent, modulus) in (("shift_rep", stable),
                                                   ("clock_rep", ctable)):
                monkeypatch.setattr(
                    "symquant.phasespace." + name,
                    lambda g, p=perm, e=exponent, m=modulus: SimpleNamespace(
                        action=SimpleNamespace(perm=p), exponent=e, modulus=m))
            S = monomial_matrices(stable[0], roots_of_unity(stable[1], stable[2]))
            C = monomial_matrices(ctable[0], roots_of_unity(ctable[1], ctable[2]))
            for c, d in ((1, 1), (n // 2, 1), (0, 1), (n - 1, 2 % n)):
                err = weyl_error_by_dense_products(S[c], C[d], n, c, d)
                assert err <= 1e-12 * n or err >= 1e-3
                passed = _phase_verdicts(n, c, d)["paired_translation_unitary"]
                assert passed == (err <= 1e-12 * n), (sname, cname, c, d)


class TestMomentumOracle:
    @pytest.mark.parametrize("n", [*range(2, 65), 1024])
    def test_circulant_is_the_projector_sum(self, n):
        # the dense route's Fourier entries exp(2 pi i a p / n) carry a phase
        # error of order n eps, and each entry sums n terms whose sizes add
        # up to (n - 1)/2, so its error is of order n^2 eps; measured, the
        # largest entry gap is at most 0.62 n^2 eps (n = 49), 2.7e-13 at
        # n = 64 and 6.3e-11 at n = 1024, against a bound of 2 n^2 eps
        gap = np.max(np.abs(momentum_operator(n).matrix - momentum_by_projectors(n)))
        assert gap <= 2 * n * n * np.finfo(float).eps

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 256])
    def test_commutator_norm_as_the_dense_products(self, n):
        # the scenario takes [X, P] entrywise as (x_a - x_b) P[a, b]; the
        # dense route forms X P - P X from the projector-sum P, and the
        # report prints the norm to six digits
        X = np.diag(np.arange(n, dtype=float))
        P = momentum_by_projectors(n)
        want = float(np.linalg.norm(X @ P - P @ X))
        report = run_scenario({"scenario": "phase", "params": {"n": n}})
        (check,) = [c for c in report.checks if c.name == "position_momentum_noncommuting"]
        assert check.passed
        assert check.details == f"commutator_norm = {want:.6g}"


# ---------------------------------------------------------------------------
# tables and operators built at the size they are kept


def vertex_table_by_intp(elements, n: int) -> np.ndarray:
    """(i + x) % n for a rotation (i, 0) and (i - x) % n for a reflection
    (i, 1), through intp tables, as dihedral_vertex_action built them."""
    i, b = np.array(elements, dtype=np.intp).T[:, :, None]
    x = np.arange(n)
    return (i + np.where(b == 0, x, -x)) % n


def clock_exponents_by_outer(n: int) -> np.ndarray:
    """(k x) % n over the whole int32 outer product, as clock_rep and
    MonomialRep built the exponents."""
    x = np.arange(n, dtype=np.int32)
    return np.mod(np.multiply.outer(x, x), n).astype(np.int16)


def circulant_by_index_table(n: int) -> np.ndarray:
    """c[(a - b) % n] through an n x n index table."""
    c = np.fft.ifft(np.arange(n, dtype=float))
    a = np.arange(n)
    return c[(a[:, None] - a) % n]


def fourier_by_outer(n: int) -> np.ndarray:
    """exp(2 pi i outer(x, x) / n) / sqrt(n) over whole n x n arrays."""
    x = np.arange(n)
    return np.exp(2j * np.pi * np.outer(x, x) / n) / np.sqrt(n)


def mub_deviation_by_whole_array(F) -> float:
    return float(np.max(np.abs(np.abs(F) ** 2 - 1.0 / len(F))))


def fourier_conjugate_by_whole_ffts(P, x) -> float:
    """||F^dag P F - diag(x)||_F with both FFTs over the whole matrix."""
    D = np.fft.fft(np.fft.ifft(P, axis=1), axis=0)
    D[np.diag_indices(len(x))] -= x
    return float(np.sqrt(np.vdot(D, D).real))


def assert_kept(table, dtype):
    """A table in its stored form: dtype, read-only, owning its memory."""
    assert table.dtype == dtype
    assert not table.flags.writeable and table.base is None


class TestKeptTablesOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 64, 200])
    def test_vertex_action_is_the_intp_table(self, n):
        g = make_named_group(f"dihedral:{n}")
        perm = dihedral_vertex_action(g).perm
        assert_kept(perm, np.int16)
        assert np.array_equal(perm, vertex_table_by_intp(g.elements, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_natural_action_is_the_intp_table(self, n):
        # GroupAction reads the int64 image tuples into its stored form
        g = make_named_group(f"symmetric:{n}")
        perm = natural_action(g).perm
        assert_kept(perm, np.int16)
        assert np.array_equal(perm, np.array(g.elements, dtype=np.intp))

    def test_vertex_arithmetic_stays_in_int16_at_the_largest_order(self, monkeypatch):
        # dihedral:5000 is the largest dihedral group; i + x and i - x
        # reach 2n - 2 and -(n - 1), inside int16. The extreme rows are
        # computed by the library's own arithmetic, with no group built
        n = MAX_GROUP_ORDER // 2
        assert 2 * n - 2 < 2**15
        elements = tuple((i, b) for b in (0, 1) for i in (0, 1, n // 2, n - 2, n - 1))
        fake = SimpleNamespace(name=f"dihedral:{n}", order=2 * n, elements=elements)
        monkeypatch.setattr("symquant.groups.GroupAction", lambda group, perm: perm)
        perm = dihedral_vertex_action(fake)
        assert perm.dtype == np.int16
        assert np.array_equal(perm, vertex_table_by_intp(elements, n))

    @pytest.mark.parametrize("n", [2, 3, 4, 64, 200])
    def test_clock_exponents_are_the_reduced_outer_product(self, n):
        exponent = clock_rep(cyclic_group(n)).exponent
        assert_kept(exponent, np.int16)
        assert np.array_equal(exponent, clock_exponents_by_outer(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 64, 200])
    def test_momentum_operator_is_the_indexed_circulant(self, n):
        P = momentum_operator(n).matrix
        assert_kept(P, np.complex128)
        assert np.array_equal(P, circulant_by_index_table(n))
        assert P.tobytes() == circulant_by_index_table(n).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 64, 200])
    def test_fourier_matrix_and_its_deviation_over_whole_arrays(self, n):
        F = fourier_matrix(n)
        assert F.dtype == np.complex128
        assert np.array_equal(F, fourier_by_outer(n))
        assert F.tobytes() == fourier_by_outer(n).tobytes()
        assert mub_deviation(F) == mub_deviation_by_whole_array(F)

    @pytest.mark.parametrize("n", [2, 3, 4, 64, 200])
    def test_phase_checks_over_whole_arrays(self, n, monkeypatch):
        x = np.arange(n, dtype=float)
        P = momentum_operator(n).matrix
        s = SimpleNamespace(n=n, x=x, P=P)
        assert scenarios._fourier_conjugate(s)[0] == fourier_conjugate_by_whole_ffts(P, x)
        # the commutator's norm is taken of the same entries, (x_a - x_b) P[a, b]
        seen = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda a: seen.append(a.copy()) or norm(a))
        scenarios._noncommuting(s)
        assert np.array_equal(seen[0], (x[:, None] - x) * P)


# ---------------------------------------------------------------------------
# one projector-sum kernel


class TestProjectorSumOracles:
    @ORACLE_SETTINGS
    @given(state_families())
    def test_kernel_and_family_reader(self, family):
        states, weights = family
        rows, w = as_state_family(states, weights)
        assert np.array_equal(rows, rows_by_stacking(states))
        assert w.shape == (rows.shape[0],)
        want = projectors_by_einsum(np.broadcast_to(weights, w.shape), rows)
        assert_close(projector_sum(rows, w), want)
        dev = np.max(np.abs(want - np.eye(rows.shape[1])))
        assert abs(resolution_deviation(states, weights) - dev) <= 1e-12 * max(1.0, dev)

    @pytest.mark.parametrize("seed", range(25))
    def test_one_temporary_has_the_two_temporary_values(self, seed):
        # the weighted states conjugated in place, times the states, and
        # the product conjugated in place: the same product on the same
        # operand layouts, so the same values; only the signs of exact
        # zeros may differ
        for states, weights in seeded_families(seed):
            want = projector_sum_by_two_temporaries(states, weights)
            assert np.array_equal(projector_sum(states, weights), want)

    @ORACLE_SETTINGS
    @given(state_families(), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_weight_stacks(self, family, m, seed):
        rows, _ = as_state_family(*family)
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(m, rows.shape[0]))
        stack[rng.random(stack.shape) < 0.3] = 0.0
        got = projector_sum(rows, stack)
        assert got.shape == (m,) + 2 * (rows.shape[1],)
        assert_close(got, projectors_by_einsum(stack, rows))
        for z in range(m):
            assert_close(got[z], projectors_by_einsum(stack[z], rows))

    @ORACLE_SETTINGS
    @given(resolving_families(), st.integers(0, 2**32 - 1))
    def test_build_operator(self, family, seed):
        states, weights = family
        rows = rows_by_stacking(states)
        labels = np.random.default_rng(seed).normal(size=rows.shape[0])
        bundle = build_operator(states, weights, labels)
        A = labelled_sum_by_einsum(rows, weights, labels)
        assert_close(bundle.matrix, (A + A.conj().T) / 2.0)

    @ORACLE_SETTINGS
    @given(state_families(), st.integers(0, 2**32 - 1))
    def test_build_operator_refuses_what_misses_the_identity(self, family, seed):
        # a random family misses the identity; resolving_families above
        # gives the families that are accepted
        states, weights = family
        rows = rows_by_stacking(states)
        n, d = rows.shape
        w = np.broadcast_to(weights, (n,))
        dev = float(np.max(np.abs(projectors_by_einsum(w, rows) - np.eye(d))))
        assume(dev > 2e-9 * d)
        labels = np.random.default_rng(seed).normal(size=n)
        with pytest.raises(ValueError, match="misses the identity"):
            build_operator(states, weights, labels)

    @ORACLE_SETTINGS
    @given(state_families(), st.integers(0, 2**32 - 1))
    def test_covariance_distance(self, family, seed):
        states, weights = family
        rng = np.random.default_rng(seed)
        rows = rows_by_stacking(states)
        n, d = rows.shape
        bundle = _quiet_operator(states, weights, rng.normal(size=n))
        U, perm = _random_unitary(rng, d), rng.permutation(n)
        rhs = labelled_sum_by_einsum(rows, np.broadcast_to(weights, (n,)),
                                     bundle.labels[perm])
        oracle = float(np.linalg.norm(U.conj().T @ bundle.matrix @ U - rhs))
        report = conjugation_covariance(bundle, U, perm)
        scale = max(1.0, float(np.linalg.norm(bundle.matrix)))
        assert abs(report.distance - oracle) <= 1e-12 * scale

    @ORACLE_SETTINGS
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_coarse_grain_projections(self, n, k, seed):
        rng = np.random.default_rng(seed)
        rows = _random_unitary(rng, n)
        fine = rng.permutation(n).astype(float)
        got, bundle = coarse_grain(list(rows), fine, lambda u: float(u % k))
        coarse = [float(u % k) for u in fine]
        labels = sorted(set(coarse))
        blocks = tuple(tuple(i for i in range(n) if coarse[i] == c)
                       for c in labels)
        assert got == blocks
        # the coarse operator is each label times its block's projection
        assert_close(bundle.matrix, np.tensordot(
            labels, block_projections_by_einsum(rows, blocks), 1))

    @ORACLE_SETTINGS
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_reconstruct(self, d, seed, degenerate):
        rng = np.random.default_rng(seed)
        Q = _random_unitary(rng, d)
        u = rng.normal(size=d)
        if degenerate:
            u = np.round(u)
        spec = eig_hermitian((Q * u) @ Q.conj().T)
        values = rng.normal(size=spec.n_clusters)
        values[rng.random(values.size) < 0.3] = 0.0
        for vals in (None, values, np.exp(-1j * values)):
            want = spectral_sum_by_einsum(
                np.repeat(spec.eigenvalues if vals is None else vals,
                          spec.multiplicities),
                spec.vectors)
            assert_close(spec.reconstruct(vals), want)

    @ORACLE_SETTINGS
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.floats(-20.0, 20.0))
    def test_expm_antihermitian(self, d, seed, t):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = (G + G.conj().T) / 2.0
        w, V = np.linalg.eigh(H)
        assert_close(expm_antihermitian(H, t),
                     spectral_sum_by_einsum(np.exp(-1j * t * w), V))

    @ORACLE_SETTINGS
    @given(st.sampled_from(["dihedral:3", "dihedral:4", "dihedral:6",
                            "binary_tetrahedral"]),
           st.integers(0, 2**32 - 1))
    def test_frame_operator(self, name, seed):
        g = make_named_group(name)
        if name == "binary_tetrahedral":
            rep, act, base = (binary_tetrahedral_spin_rep(g),
                              left_translation_action(g), g.identity)
        else:
            rep, act, base = dihedral_rotation_rep(g), dihedral_vertex_action(g), 0
        rng = np.random.default_rng(seed)
        cs = make_coherent(rep, act, base, rng.normal(size=2) + 1j * rng.normal(size=2))
        frame = frame_operator(cs)
        assert_close(frame.T, projectors_by_einsum(np.ones(g.order), cs.states))
        scale = max(1.0, float(np.linalg.norm(frame.T)))
        assert frame_commutator_on_generators(rep, frame.T) <= 1e-9 * scale / g.depth

    @ORACLE_SETTINGS
    @given(frame_systems())
    def test_frame_verdict_matches_three_tests(self, system):
        rep, act, base, fiducial = system
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cs = make_coherent(rep, act, base, fiducial)
        try:
            frame_operator(cs)
            scalar = True
        except NotScalarError:
            scalar = False
        assert scalar == frame_is_scalar_by_three_tests(cs.states, rep.dim)

    @ORACLE_SETTINGS
    @given(frame_systems())
    def test_states_are_the_dense_orbit(self, system):
        # dense and monomial reps alike: one matrix product per element
        rep, act, base, fiducial = system
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cs = make_coherent(rep, act, base, fiducial)
        f = cs.fiducial
        assert_close(cs.states, np.stack([rep.matrix(k) @ f for k in range(rep.group.order)]))

    @ORACLE_SETTINGS
    @given(frame_systems())
    def test_frame_verdict_matches_two_sums(self, system):
        # the rule frame_operator applied before it tested its one sum T:
        # the orbit summed again under the weight 1/lam, lam = |G| ||f||^2 / d
        rep, act, base, fiducial = system
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cs = make_coherent(rep, act, base, fiducial)
        d = rep.dim
        lam = rep.group.order * float(np.vdot(cs.fiducial, cs.fiducial).real) / d
        try:
            frame = frame_operator(cs)
        except NotScalarError:
            scalar = False
        else:
            scalar = True
            assert abs(frame.lam - lam) <= 1e-12 * lam
        assert scalar == (resolution_deviation(cs.states, 1.0 / lam) <= 1e-9 * d)

    @pytest.mark.parametrize("kind, fiducial, scalar", [
        ("rotation", (0.3, 0.4j), True),
        ("vertex", (1.0, 0.0, 0.0, 0.0), True),
        ("vertex", (1.0, 1.0, 1.0, 1.0), False),
        ("double", (1.0, 0.0, 0.0, 1.0), True),
        ("double", (1.0, 0.0, 0.0, 0.0), False),
    ])
    def test_frame_verdicts_of_both_kinds(self, kind, fiducial, scalar):
        # reducible reps with a scalar frame, and without one, so that the
        # agreement above is not on one verdict only
        g = make_named_group("dihedral:4")
        act, rot = dihedral_vertex_action(g), dihedral_rotation_rep(g)
        rep = {"rotation": rot, "vertex": permutation_rep(act),
               "double": direct_sum(rot, rot)}[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cs = make_coherent(rep, act, 0, fiducial)
        assert frame_is_scalar_by_three_tests(cs.states, rep.dim) == scalar
        if scalar:
            frame_operator(cs)
        else:
            with pytest.raises(NotScalarError, match=r"deviation .*, rank \d of"):
                frame_operator(cs)

    @ORACLE_SETTINGS
    @given(perturbed_bases())
    def test_coarse_grain_orthonormality_matches_gram_test(self, rows):
        # far from both thresholds: the Gram test's 1e-10 in the max norm,
        # and 1e-9 per vector of ||B^dag B - I||_F for the columns B
        n, d = rows.shape
        gram_dev = gram_deviation(rows)
        frob = float(np.linalg.norm(rows.conj() @ rows.T - np.eye(n)))
        assume(not 1e-12 <= gram_dev <= 1e-8)
        assume(not 1e-11 * n <= frob <= 1e-7 * n)
        try:
            coarse_grain(rows, np.arange(n, dtype=float), lambda u: u)
            orthonormal = True
        except ValueError as exc:
            # a basis of fewer vectors than the dimension is orthonormal but
            # does not resolve the identity, which build_operator refuses
            orthonormal = "misses the identity" in str(exc)
            assert orthonormal or str(exc) == "basis must be orthonormal"
        assert orthonormal == (gram_dev <= 1e-10)

    def test_frame_commutator_catches_weights_not_invariant(self):
        # weights 1, 2, 1, 2 on the vertices of the square, carried to the
        # orbit states: T = diag(4, 8) fails to commute with the rotations
        g = make_named_group("dihedral:4")
        rep, act = dihedral_rotation_rep(g), dihedral_vertex_action(g)
        cs = make_coherent(rep, act, 0, (1.0, 0.0))
        weights = np.array([1.0, 2.0, 1.0, 2.0])[act.perm[:, 0]]
        T = projector_sum(cs.states, weights)
        assert frame_commutator_on_generators(rep, T) > 1.0
        assert frame_commutator_on_generators(rep, frame_operator(cs).T) <= 1e-12


# ---------------------------------------------------------------------------
# spin rotations over finite groups


def spin_half_adjoint(U) -> np.ndarray:
    """R with U^dag J_i U = sum_k R_ik J_k at spin 1/2, where
    Tr(J_i J_k) = delta_ik / 2."""
    J = spin_generators(0.5)
    return np.array([[2.0 * np.trace(U.conj().T @ Ji @ U @ Jk).real for Jk in J]
                     for Ji in J])


def spin_image_by_expm(j, q) -> np.ndarray:
    axis, angle = quaternion_axis_angle(q)
    A = sum(n * J for n, J in zip(axis, spin_generators(j)))
    return scipy.linalg.expm(-1j * angle * A)


class TestSpinGroupOracles:
    def test_spin_half_images_are_the_quaternion_matrices(self):
        g = make_named_group("binary_tetrahedral")
        rep = binary_tetrahedral_spin_rep(g)
        for k, q in enumerate(g.elements):
            U = spin_rotation(0.5, *quaternion_axis_angle(q))
            assert np.max(np.abs(U - rep.matrices[k])) <= 1e-15, q

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 5.0])
    def test_covariance_on_every_element(self, j):
        # R(g) is read off the spin-1/2 quaternion matrix and U(g) comes
        # from scipy's expm, so neither goes through the scenario's route
        g = make_named_group("binary_tetrahedral")
        rep = binary_tetrahedral_spin_rep(g)
        J = spin_generators(j)
        for k, q in enumerate(g.elements):
            R = spin_half_adjoint(rep.matrices[k])
            U = spin_image_by_expm(j, q)
            assert np.allclose(spin_rotation(j, *quaternion_axis_angle(q)), U,
                               rtol=0, atol=1e-12)
            err = np.sqrt(sum(
                np.linalg.norm(U.conj().T @ J[i] @ U
                               - sum(R[i, m] * J[m] for m in range(3))) ** 2
                for i in range(3)))
            assert err <= 1e-9, q

    @ORACLE_SETTINGS
    @given(st.integers(0, 10), st.integers(0, 2**32 - 1))
    def test_spectrum_rotations_match_spin_rotation(self, two_j, seed):
        j = two_j / 2.0
        a = np.random.default_rng(seed).normal(size=3)
        assume(np.linalg.norm(a) > 1e-3)
        a /= np.linalg.norm(a)
        spec = spin_component_operator(j, a).spectrum
        for k in range(16):
            turn = spec.reconstruct(np.exp(-0.25j * np.pi * k * spec.eigenvalues))
            assert_close(turn, spin_rotation(j, a, 2.0 * np.pi * k / 8))


# ---------------------------------------------------------------------------
# spin matrices filled on their three bands


def spin_generators_by_ladder(j) -> tuple:
    """(Jx, Jy, Jz) = ((J+ + J-)/2, (J+ - J-)/2i, diag(m)) from the dense
    raising operator J+ and its adjoint J-."""
    d = int(round(2 * j)) + 1
    m = j - np.arange(d)
    Jz = np.diag(m).astype(np.complex128)
    Jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(np.complex128)
    Jm = Jp.conj().T
    return (Jp + Jm) / 2.0, (Jp - Jm) / 2.0j, Jz


def component_by_dense_sum(j, a) -> np.ndarray:
    Jx, Jy, Jz = spin_generators_by_ladder(j)
    return a[0] * Jx + a[1] * Jy + a[2] * Jz


def commutation_error_by_whole_products(j) -> float:
    Jx, Jy, Jz = spin_generators_by_ladder(j)
    return max(
        float(np.max(np.abs(Jx @ Jy - Jy @ Jx - 1j * Jz))),
        float(np.max(np.abs(Jy @ Jz - Jz @ Jy - 1j * Jx))),
        float(np.max(np.abs(Jz @ Jx - Jx @ Jz - 1j * Jy))),
    )


def generator_turn_error_by_whole_j(j, q) -> float:
    """The Frobenius error of U^dag J U = R J for the rotation named by the
    quaternion q, each residual formed from the stacked triple J by whole
    products and np.tensordot."""
    axis, angle = quaternion_axis_angle(q)
    U, R = spin_rotation(j, axis, angle), rotation_matrix(axis, angle)
    J = np.stack(spin_generators_by_ladder(j))
    return math.hypot(*(
        np.linalg.norm(U.conj().T @ J[i] @ U - np.tensordot(R[i], J, 1))
        for i in range(3)))


# j = 0..50 by halves, and two spins up to MAX_SPIN
SPIN_ORACLE_J = [k / 2 for k in range(101)] + [150, 400]


def spin_directions(seed, count=12) -> list:
    """Seeded unit directions, and the axes, their negatives and the
    all-negative diagonal, whose products with zero entries are -0."""
    rng = np.random.default_rng(seed)
    fixed = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1],
             [-1, -1, -1], [-0.0, 0, 1], [0.6, -0.8, -0.0]]
    dirs = [np.asarray(v, dtype=float) for v in fixed] + list(rng.normal(size=(count, 3)))
    return [v / np.linalg.norm(v) for v in dirs]


class TestSpinBandsOracle:
    @pytest.mark.parametrize("j", [0, 0.5, 1, 1.5, 2, 7.5, 20, 50])
    def test_generators_are_the_ladder_construction(self, j):
        J = spin_generators(j)
        d = int(2 * j) + 1
        assert J.shape == (3, d, d) and J.dtype == np.complex128
        for got, want in zip(J, spin_generators_by_ladder(j)):
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("j", [0, 0.5, 1, 2.5, 3, 10, 24.5, 50])
    def test_component_is_the_sum_of_dense_generators(self, j):
        # byte for byte, the sign of each zero included: the eigensolver's
        # output bits depend on it
        for a in spin_directions(seed=int(2 * j)):
            A, want = component_matrix(j, a), component_by_dense_sum(j, a)
            assert np.array_equal(A, want), a
            assert A.tobytes() == want.tobytes(), a

    @pytest.mark.parametrize("j", SPIN_ORACLE_J)
    def test_spin_checks_over_whole_j(self, j):
        # each residual formed in one buffer, in place, in the order of the
        # whole-matrix expression, from generators and combinations R J
        # filled on their bands one residual at a time: the same norms as
        # whole products of J and tensordot over it, bit for bit
        s = SimpleNamespace(j=j, j_scale=1.0)
        assert scenarios._commutation(s)[0] == commutation_error_by_whole_products(j)
        g = make_named_group("binary_tetrahedral")
        for gen in g.generators:
            q = g.elements[gen]
            assert scenarios._generator_turn_error(j, q) == generator_turn_error_by_whole_j(j, q)

    @pytest.mark.parametrize("j", [0, 0.5, 1, 3.5, 10, 20])
    def test_covariance_check_is_depth_times_the_larger_generator_error(self, j):
        s = SimpleNamespace(j=j, j_scale=1.0)
        g = make_named_group("binary_tetrahedral")
        want = max(generator_turn_error_by_whole_j(j, g.elements[gen]) for gen in g.generators)
        assert scenarios._bt_covariance(s)[0] == g.depth * want

    @pytest.mark.parametrize("j", [0, 0.5, 1, 7.5, 50, 150])
    def test_combinations_have_the_tensordot_values(self, j):
        # sum_k R_ik J_k filled on its bands, for the rows of the binary
        # tetrahedral generators' rotations and of seeded matrices: the
        # values of tensordot over whole J; only the signs of zeros differ
        J, ladder = spin_generators(j), spin._ladder(j)
        g = make_named_group("binary_tetrahedral")
        rows = [rotation_matrix(*quaternion_axis_angle(g.elements[gen]))
                for gen in g.generators]
        rows.append(np.random.default_rng(int(2 * j)).normal(size=(3, 3)))
        for r in np.concatenate(rows):
            assert np.array_equal(spin._combination(ladder, r), np.tensordot(r, J, 1)), r

    @pytest.mark.parametrize("j", [0, 0.5, 1, 2.5, 20, 50, 400])
    def test_component_along_an_axis_is_that_generator(self, j):
        J = spin_generators(j)
        for axis, want in zip(np.eye(3), J):
            assert component_matrix(j, axis).tobytes() == want.tobytes()

    @pytest.mark.parametrize("j", [1, 3.5, 10])
    def test_conjugation_distance_over_whole_arrays(self, j):
        # the distance squared in place equals the norm of U^dag A U minus
        # the relabelled operator over whole arrays
        for a in spin_directions(seed=int(2 * j), count=3):
            bundle = spin_component_operator(j, a)
            U = spin_rotation(j, perpendicular_unit(a), np.pi)
            perm = np.arange(bundle.spectrum.n_clusters)[::-1]
            lhs = U.conj().T @ bundle.matrix @ U
            rhs = bundle.spectrum.reconstruct(bundle.eigenvalues[perm])
            want = float(np.linalg.norm(lhs - rhs, axis=(-2, -1)))
            assert conjugation_covariance(bundle, U, perm).distance == want


# ---------------------------------------------------------------------------
# eigendecomposition: phase fixing and degeneracy clustering


def fix_phases_by_column_loop(V) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real and
    positive, one column at a time."""
    out = V.copy()
    for c in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, c])))
        z = out[i, c]
        if abs(z) > 0:
            out[:, c] *= np.conj(z) / abs(z)
    return out


def clusters_by_greedy_loop(w, gap) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, multiplicities): each ascending eigenvalue joins the
    open cluster when it lies within gap of the cluster's last member, and
    a cluster's eigenvalue is the mean of its members."""
    clusters = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[clusters[-1][-1]] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return (np.array([float(np.mean(w[c])) for c in clusters]),
            np.array([len(c) for c in clusters], dtype=int))


def eig_hermitian_by_loops(A, degeneracy_tol=DEGENERACY_TOL):
    """(eigenvalues, multiplicities, vectors) as eig_hermitian computed them
    with the two loops above, clustering within degeneracy_tol."""
    A = np.asarray(A, dtype=np.complex128)
    w, V = np.linalg.eigh(A)
    gap = degeneracy_tol * max(1.0, float(np.linalg.norm(A)))
    return (*clusters_by_greedy_loop(w, gap), fix_phases_by_column_loop(V))


@st.composite
def planted_spectra(draw, max_dim=10):
    """(A, tol, planned): a Hermitian matrix whose eigenvalues come in
    planted clusters, a clustering tolerance between 1e-12 and 1e-6, and the
    multiplicities clustering must find where the eigenvalues are exact
    (None elsewhere).

    Members of a cluster lie 0, 1/2, 1 or 3/2 gaps apart, the gap being
    tol * max(1, ||A||_F); clusters lie 8 * d gaps apart. With a
    power-of-two tol, no shift and no rotation, the eigenvalues are small
    integer multiples of tol, ||A||_F < 1 and eigh returns the diagonal
    exactly, so a spacing of one gap sits exactly at the threshold. A
    rotation, a shift (which makes ||A||_F > 1) or a decimal tol puts it
    within rounding of the threshold instead, on either side."""
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    power_of_two = draw(st.booleans())
    if power_of_two:
        tol = 2.0 ** -draw(st.integers(20, 39))
    else:
        tol = 10.0 ** draw(st.floats(-12.0, -6.0))
    half_gaps = draw(st.sampled_from([0, 1, 2, 3]))
    shift = draw(st.sampled_from([0.0, 1.0, -37.5]))
    rotated = draw(st.booleans())

    ids = np.sort(rng.integers(0, draw(st.integers(1, d)), size=d))
    rank = np.arange(d) - np.searchsorted(ids, ids)   # place within its cluster
    units = 8 * d * (ids - ids[-1] // 2) + 0.5 * half_gaps * rank
    gap = tol
    for _ in range(3):   # the gap depends on the norm it helps set
        values = shift + units * gap
        gap = tol * max(1.0, float(np.linalg.norm(values)))
    rng.shuffle(values)
    if rotated:
        Q = _random_unitary(rng, d)
        A = (Q * values) @ Q.conj().T
        A = (A + A.conj().T) / 2.0
    else:
        A = np.diag(values).astype(np.complex128)

    planned = None
    if power_of_two and shift == 0.0 and not rotated:
        sizes = np.bincount(ids)
        planned = list(sizes[sizes > 0]) if half_gaps <= 2 else [1] * d
    return A, tol, planned


class TestEigHermitianOracle:
    @settings(ORACLE_SETTINGS, max_examples=300)
    @given(planted_spectra())
    def test_same_bytes_as_the_loops(self, case):
        A, tol, planned = case
        with mock.patch.object(linalg, "DEGENERACY_TOL", tol):
            spec = eig_hermitian(A)
        want = eig_hermitian_by_loops(A, tol)
        for name, expected in zip(("eigenvalues", "multiplicities", "vectors"), want):
            got = getattr(spec, name)
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
            assert got.tobytes() == expected.tobytes(), name
        if planned is not None:
            assert list(spec.multiplicities) == planned

    @pytest.mark.parametrize("n", [4, 64])
    def test_same_bytes_on_the_phase_operators(self, n):
        # the Fourier columns of P have entries of nearly equal magnitude,
        # so the choice of each column's largest entry is a near tie
        for A in (np.diag(np.arange(n, dtype=float)), momentum_operator(n).matrix):
            spec = eig_hermitian(A)
            want = eig_hermitian_by_loops(A)
            for got, expected in zip((spec.eigenvalues, spec.multiplicities,
                                      spec.vectors), want):
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("exponent", [20, 30, 39])
    def test_a_gap_exactly_at_the_threshold_merges(self, exponent):
        tol = 2.0 ** -exponent
        values = tol * np.array([0.0, 1.0, 2.0, 4.0, 4.0, 64.0])
        with mock.patch.object(linalg, "DEGENERACY_TOL", tol):
            spec = eig_hermitian(np.diag(values))
            wider = eig_hermitian(np.diag(values * (1.0 + 2.0 ** -40)))
        assert list(spec.multiplicities) == [3, 2, 1]
        assert list(wider.multiplicities) == [1, 1, 1, 2, 1]
