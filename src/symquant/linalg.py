"""Dense complex linear algebra: Hermitian spectra with degeneracy clustering,
unitary one-parameter phases, and the predicates the rest of the package
leans on, each decided here once: unitarity, ||V^dag V - I||_F <= 1e-9*n
for a d x n matrix V (unitarity_errors), and resolution of the identity,
max |sum_k w_k |s_k><s_k| - I| <= 1e-9*d (resolution_deviation).

Every weighted projector sum sum_k w_k |s_k><s_k| in the package (frames,
operators, spectral sums, exp(-itH)) is one kernel, projector_sum, fed by
the one state-family reader, as_state_family. It forms one temporary beside
its result: the weighted states are conjugated in place, multiplied by the
states and the product conjugated in place, which gives the values of
(S^T w) @ conj(S) in the same matrix product on the same operand layouts;
only the signs of exact zeros may differ.

All tolerances are relative to a matrix norm with a floor of 1, so near-zero
matrices fall back to absolute comparisons, and each is a constant of its
function, not an option: eigenvalue clustering uses DEGENERACY_TOL.
Everything is complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import element_blocks

DEGENERACY_TOL = 1e-8


class NotSquareError(ValueError):
    pass


class NotHermitianError(ValueError):
    pass


class ConvergenceFailureError(RuntimeError):
    pass


class DimensionMismatchError(ValueError):
    pass


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite nonempty 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise DimensionMismatchError("matrix must be nonempty")
    # on row blocks, so that the check forms no n x n boolean array
    if not all(np.isfinite(m[b]).all() for b in element_blocks(len(m), m.size)):
        raise ValueError("matrix entries must be finite")
    return m


def as_cvector(a) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array."""
    v = np.asarray(a, dtype=np.complex128).ravel()
    if v.size == 0:
        raise DimensionMismatchError("vector must be nonempty")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_state_family(states, weights) -> tuple[np.ndarray, np.ndarray]:
    """States as the rows of a complex128 array (a list of 1-d vectors is
    stacked) and real weights broadcast to one per state; a non-finite
    entry of either raises ValueError."""
    st = np.asarray(states, dtype=np.complex128)
    if st.ndim != 2:
        st = np.stack([as_cvector(s) for s in states])
    elif not np.all(np.isfinite(st)):
        raise ValueError("state entries must be finite")
    w = np.broadcast_to(np.asarray(weights, dtype=float), (len(st),)).copy()
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return st, w


def projector_sum(states: np.ndarray, weights) -> np.ndarray:
    """sum_k weights[..., k] |s_k><s_k| for states s_k stored as rows;
    weights of shape (..., n) give a stack of d x d matrices."""
    # conj(conj(S^T w) @ S): no conjugated copy of the states is formed. A
    # strided view is copied, as states.conj() copied it, so that the
    # product's operands keep that copy's layout
    if not (states.flags.c_contiguous or states.flags.f_contiguous):
        states = states.copy(order="K")
    X = states.T * np.asarray(weights)[..., None, :]
    np.conjugate(X, out=X)
    out = X @ states
    return np.conjugate(out, out=out)


def resolution_deviation(states, weights) -> float:
    """Max-norm deviation of sum_i w_i |s_i><s_i| from the identity."""
    st, w = as_state_family(states, weights)
    dev = projector_sum(st, w)
    dev.reshape(-1)[::st.shape[1] + 1] -= 1.0
    return max_abs(dev)


def _require_square(A: np.ndarray) -> None:
    if A.shape[0] != A.shape[1]:
        raise NotSquareError(f"matrix is {A.shape[0]}x{A.shape[1]}")


def max_abs(A) -> float:
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0


def _require_hermitian(A: np.ndarray) -> None:
    _require_square(A)
    # max |A - A^dag| and max |A| over row blocks of about 2**14 entries,
    # so that no n x n temporary is formed; each block's (A^dag - A)^T,
    # whose entries have the same moduli, is formed in place in one copy,
    # released before the next block's is made
    dev = scale = 0.0
    for rows in element_blocks(len(A), A.size):
        diff = A[:, rows].copy()
        np.conjugate(diff, out=diff)
        diff -= A[rows].T
        dev = max(dev, max_abs(diff))
        scale = max(scale, max_abs(A[rows]))
        del diff
    if dev > 1e-10 * max(1.0, scale):
        raise NotHermitianError(f"max |A - A^dag| = {dev:.3e}")


def unitarity_errors(stack) -> np.ndarray:
    """||V^dag V - I||_F for each d x n matrix V of a stack (one matrix is a
    stack of one): V is unitary (n = d), or has orthonormal columns, when
    it is at most 1e-9*n. The products run on slices of about 2**14
    entries; a non-finite entry gives NaN, which fails every comparison.
    An empty stack gives no errors; an input of fewer than 2 dimensions, or
    a matrix with no rows or no columns, is refused (DimensionMismatchError)."""
    V = np.asarray(stack, dtype=np.complex128)
    if V.ndim < 2:
        raise DimensionMismatchError(f"expected a stack of matrices, got ndim={V.ndim}")
    if 0 in V.shape[-2:]:
        raise DimensionMismatchError("matrices must be nonempty")
    V = V.reshape((-1,) + V.shape[-2:])
    errors = [np.zeros(0)]
    with np.errstate(invalid="ignore"):
        for m in (V[b] for b in element_blocks(len(V), V.size)):
            # V^dag V - I flattened per matrix, its diagonal every (n+1)th entry
            G = (m.conj().swapaxes(1, 2) @ m).reshape(len(m), -1)
            G[:, ::V.shape[2] + 1] -= 1.0
            x = G.view(np.float64)
            errors.append(np.sqrt(np.einsum("ij,ij->i", x, x)))
    return np.concatenate(errors)


def is_unitary(U) -> bool:
    """True iff U is square and ||U^dag U - I||_F <= 1e-9 * dim."""
    U = as_cmatrix(U)
    return U.shape[0] == U.shape[1] and bool(unitarity_errors(U)[0] <= 1e-9 * len(U))


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigendecomposition of a Hermitian matrix.

    eigenvalues are ascending, one per cluster; vectors holds the
    orthonormal eigenbasis as columns, grouped cluster by cluster, and
    multiplicities[j] columns belong to cluster j, so their cumulative sum
    gives the cluster offsets. The clustering tolerance is DEGENERACY_TOL.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    vectors: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self, values=None) -> np.ndarray:
        """V diag(u) V^dag, each cluster's value repeated by its
        multiplicity; values (one per cluster, real or complex) default to
        the eigenvalues. Values exp(-i*t*u) give exp(-i*t*A). Values of
        shape (..., k) give a stack of matrices."""
        u = self.eigenvalues if values is None else np.asarray(values)
        return projector_sum(self.vectors.T,
                             np.repeat(u, self.multiplicities, axis=-1))


def _fix_phases(V: np.ndarray) -> None:
    # rotate each column, in place, so its largest-magnitude entry z is real
    # and positive; the columns are unit vectors, so z != 0. |z| is taken by
    # hypot, which rounds as the scalar abs does (np.abs of a complex array
    # may differ from it in the last bit)
    z = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    V *= np.conj(z) / np.hypot(z.real, z.imag)


def _eigh(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A as a Hermitian complex matrix with np.linalg.eigh's eigenvalues and
    eigenvectors; a solver failure raises ConvergenceFailureError."""
    A = as_cmatrix(A)
    _require_hermitian(A)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return A, w, V


def eig_hermitian(A) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix with degeneracy merging.

    Eigenvalues closer than DEGENERACY_TOL * max(1, ||A||_F) are clustered
    greedily in ascending order and share one eigenspace: a cluster ends
    where the next ascending eigenvalue lies more than that gap above the
    one before it. A cluster's eigenvalue is the mean of its members.
    """
    A, w, V = _eigh(A)
    _fix_phases(V)

    scale = max(1.0, float(np.linalg.norm(A)))
    gap = DEGENERACY_TOL * scale
    # "not within the gap", so that a NaN gap merges nothing
    starts = np.flatnonzero(np.concatenate(([True], ~(np.diff(w) <= gap))))
    multiplicities = np.diff(starts, append=len(w))
    eigenvalues = w[starts]
    for c in np.flatnonzero(multiplicities > 1):
        eigenvalues[c] = np.mean(w[starts[c]:starts[c] + multiplicities[c]])

    for arr in (eigenvalues, multiplicities, V):
        arr.setflags(write=False)
    spec = SpectralData(eigenvalues, multiplicities, V)

    # merging replaces each raw eigenvalue by its cluster mean, which adds a
    # known, intentional reconstruction error on top of the solver's own
    merge_err = float(np.linalg.norm(w - np.repeat(eigenvalues, multiplicities)))
    # R - A in R's buffer: its entries have the moduli of A - R's
    R = spec.reconstruct()
    R -= A
    recon_err = float(np.linalg.norm(R))
    if recon_err > 1e-9 * scale + merge_err:
        raise ConvergenceFailureError(
            f"spectral reconstruction error {recon_err:.3e} exceeds tolerance"
        )
    return spec


def expm_antihermitian(H, t: float) -> np.ndarray:
    """exp(-i*t*H) for Hermitian H, via eigendecomposition of H.

    The result is unitary to eigensolver accuracy because the phases are
    applied to an exactly orthonormal eigenbasis.
    """
    # H, and _eigh's alias of it, are released before the sum is formed
    w, V = _eigh(H)[1:]
    del H
    return projector_sum(V.T, np.exp(-1j * t * w))

