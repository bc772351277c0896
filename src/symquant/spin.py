"""Angular-momentum matrices, filled on the three bands of the ladder
construction, component operators along a direction, and rotation
unitaries generated by them.

Conventions: hbar = 1, the z generator is diagonal with entries
j, j-1, ..., -j (descending), and a rotation by angle phi about a unit
axis n is exp(-i * phi * n . J). It rotates the generators,
U^dag J_i U = sum_k R_ik J_k with R = rotation_matrix(n, phi).
"""

from __future__ import annotations

import numpy as np

from .linalg import expm_antihermitian
from .quantize import OperatorBundle, operator_from_matrix


# the largest spin accepted: the spin scenario at MAX_SPIN (dimension 801)
# peaks at 58.8 MiB under tracemalloc (6 complex 801 x 801 matrices; 68.6
# MiB on CPython 3.10, which holds a call's argument until it returns), well
# inside a 1 GiB budget
MAX_SPIN = 400.0


class BadSpinError(ValueError):
    pass


def _check_spin(j: float) -> float:
    if not 0 <= j <= MAX_SPIN:
        raise BadSpinError(
            f"spin must lie between 0 and the largest supported spin {MAX_SPIN}, got {j}")
    two_j = 2.0 * j
    if abs(two_j - round(two_j)) > 1e-12:
        raise BadSpinError(f"spin must be a nonnegative half-integer, got {j}")
    return round(two_j) / 2.0


def _ladder(j: float) -> tuple[np.ndarray, np.ndarray]:
    """m = j, j-1, ..., -j, and c/2 for the ladder coefficients
    c = sqrt(j(j+1) - m(m+1)) of J+ on its first superdiagonal, where it
    raises m[i] to m[i] + 1 = m[i-1]."""
    j = _check_spin(j)
    m = j - np.arange(int(round(2 * j)) + 1)
    return m, np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)) / 2.0


def _generator(ladder, i: int, out=None) -> np.ndarray:
    """J_i (i = 0, 1, 2 for x, y, z) filled on its bands, as
    spin_generators states them, from ladder = _ladder(j) into out, a
    zeroed d x d array (by default a new one), which is returned."""
    m, half = ladder
    d = len(m)
    if out is None:
        out = np.zeros((d, d), dtype=np.complex128)
    flat = out.reshape(-1)
    if i == 0:
        flat[1::d + 1] = flat[d::d + 1] = half
    elif i == 1:
        flat[1::d + 1].imag = -half
        flat[d::d + 1].imag = half
    else:
        flat[::d + 1] = m
    return out


def _combination(ladder, a) -> np.ndarray:
    """a . J = a_x Jx + a_y Jy + a_z Jz for a real 3-vector a, filled from
    ladder = _ladder(j) as one d x d array: a_z m on the diagonal and
    (a_x -/+ i a_y) c/2 above/below it.

    Each band, and the zero elsewhere, is combined as a_x Jx + a_y Jy +
    a_z Jz would combine the whole matrices, so every entry has the same
    bits, the sign of each zero included: the eigensolver's output depends
    on it.
    """
    m, half = ladder
    d = len(m)
    # per generator: its diagonal, superdiagonal and subdiagonal (the
    # first d - 1 entries) and, in the last column, the zero elsewhere
    bands = np.zeros((3, 3, d + 1), dtype=np.complex128)
    bands[0, 1:, :d - 1] = half
    bands[1, 1, :d - 1].imag = -half
    bands[1, 2, :d - 1].imag = half
    bands[2, 0, :d] = m
    bands *= a[:, None, None]
    band = bands[0] + bands[1] + bands[2]
    A = np.full((d, d), band[0, d])
    flat = A.reshape(-1)
    flat[::d + 1] = band[0, :d]
    flat[1::d + 1] = band[1, :d - 1]
    flat[d::d + 1] = band[2, :d - 1]
    return A


def spin_generators(j: float) -> np.ndarray:
    """(Jx, Jy, Jz) for spin j as one (3, d, d) complex array, with
    Jz = diag(j, j-1, ..., -j).

    Each is filled on its three bands (_generator): Jz = m on the diagonal,
    Jx = c/2 on both off-diagonals and Jy = -i c/2 above, +i c/2 below,
    where c = sqrt(j(j+1) - m(m+1)) is the ladder coefficient of J+ from m.
    These are (J+ + J-)/2 and (J+ - J-)/2i entry for entry, so the cyclic
    commutation relations [Jx, Jy] = i Jz (and cyclically) hold to
    rounding. They are not checked here: the spin scenario's
    generator_commutation_relations check measures all three.
    """
    ladder = _ladder(j)
    d = len(ladder[0])
    J = np.zeros((3, d, d), dtype=np.complex128)
    for i in range(3):
        _generator(ladder, i, J[i])
    return J


def component_matrix(j: float, direction) -> np.ndarray:
    """The Hermitian matrix of the component along a unit direction, filled
    on its three bands as one d x d array (_combination)."""
    a = np.asarray(direction, dtype=float)
    if a.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("direction must have unit norm")
    return _combination(_ladder(j), a)


def spin_component_operator(j: float, direction) -> OperatorBundle:
    """Operator bundle of the component along a direction.

    Its eigenvalues are the ladder values j, j-1, ..., -j for every unit
    direction; they come out simple, so the operator is maximal. The
    spectrum is not checked here: the spin scenario's
    component_spectrum_ladder_values check measures it.
    """
    A = component_matrix(j, direction)
    return operator_from_matrix(A)


def spin_rotation(j: float, axis, angle: float) -> np.ndarray:
    """exp(-i * angle * axis . J) for a unit axis."""
    return expm_antihermitian(component_matrix(j, axis), angle)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """The 3x3 rotation by angle about a unit axis (Rodrigues' formula)."""
    n = np.asarray(axis, dtype=float)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return (np.cos(angle) * np.eye(3) + np.sin(angle) * cross
            + (1.0 - np.cos(angle)) * np.outer(n, n))


def quaternion_axis_angle(q) -> tuple[np.ndarray, float]:
    """Axis and angle of the spin rotation named by a quaternion (w, x, y, z).

    binary_tetrahedral_spin_rep sends i, j, k to i*sigma_z, i*sigma_y,
    i*sigma_x, so q/|q| = cos(angle/2) - sin(angle/2) (n_z i + n_y j + n_x k)
    is exp(-i * angle * n . J) at spin 1/2. A real q has no axis; z is
    returned with angle 0 or 2*pi.
    """
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    vec = float(np.linalg.norm(q[1:]))
    angle = 2.0 * float(np.arctan2(vec, q[0]))
    axis = -q[:0:-1] / vec if vec > 0 else np.array([0.0, 0.0, 1.0])
    return axis, angle


def perpendicular_unit(a) -> np.ndarray:
    """A deterministic unit vector orthogonal to a unit 3-vector."""
    a = np.asarray(a, dtype=float)
    probe = np.array([1.0, 0.0, 0.0])
    if abs(a @ probe) > 0.9:
        probe = np.array([0.0, 1.0, 0.0])
    b = probe - (a @ probe) * a
    return b / np.linalg.norm(b)
