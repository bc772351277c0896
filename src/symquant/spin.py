"""Angular-momentum matrices in the ladder construction, component
operators along a direction, and rotation unitaries generated by them.

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
# peaks at about 128 MiB under tracemalloc, well inside a 1 GiB budget
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


def spin_generators(j: float):
    """(Jx, Jy, Jz) for spin j, with Jz = diag(j, j-1, ..., -j).

    Built from the ladder operators, so the cyclic commutation relations
    [Jx, Jy] = i Jz (and cyclically) hold to rounding. They are not
    checked here: the spin scenario's generator_commutation_relations
    check measures all three.
    """
    j = _check_spin(j)
    d = int(round(2 * j)) + 1
    m = j - np.arange(d)
    Jz = np.diag(m).astype(np.complex128)
    # raising from m[i] to m[i] + 1 = m[i-1], on the first superdiagonal
    Jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(np.complex128)
    Jm = Jp.conj().T
    Jx = (Jp + Jm) / 2.0
    Jy = (Jp - Jm) / 2.0j
    return Jx, Jy, Jz


def component_matrix(j: float, direction) -> np.ndarray:
    """The Hermitian matrix of the component along a unit direction."""
    a = np.asarray(direction, dtype=float)
    if a.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("direction must have unit norm")
    Jx, Jy, Jz = spin_generators(j)
    return a[0] * Jx + a[1] * Jy + a[2] * Jz


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
