"""Dense complex linear algebra: Hermitian spectra with degeneracy clustering,
unitary one-parameter phases, and the predicates the rest of the package
leans on.

Every weighted projector sum sum_k w_k |s_k><s_k| in the package (frames,
operators, effects, densities, spectral sums, exp(-itH)) is one kernel,
projector_sum, fed by the one state-family reader, as_state_family.

All tolerances are relative to a matrix norm with a floor of 1, so near-zero
matrices fall back to absolute comparisons. Everything is complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_DEGENERACY_TOL = 1e-8


class NotSquareError(ValueError):
    pass


class NotHermitianError(ValueError):
    pass


class ConvergenceFailureError(RuntimeError):
    pass


class DimensionMismatchError(ValueError):
    pass


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
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
    stacked) and real weights broadcast to one per state."""
    st = np.asarray(states, dtype=np.complex128)
    if st.ndim != 2:
        st = np.stack([as_cvector(s) for s in states])
    return st, np.broadcast_to(np.asarray(weights, dtype=float), (len(st),)).copy()


def projector_sum(states: np.ndarray, weights) -> np.ndarray:
    """sum_k weights[..., k] |s_k><s_k| for states s_k stored as rows;
    weights of shape (..., n) give a stack of d x d matrices."""
    return (states.T * np.asarray(weights)[..., None, :]) @ states.conj()


def _require_square(A: np.ndarray) -> None:
    if A.shape[0] != A.shape[1]:
        raise NotSquareError(f"matrix is {A.shape[0]}x{A.shape[1]}")


def max_abs(A) -> float:
    A = np.asarray(A)
    return float(np.max(np.abs(A))) if A.size else 0.0


def _require_hermitian(A: np.ndarray, tol: float = 1e-10) -> None:
    _require_square(A)
    dev = max_abs(A - A.conj().T)
    if dev > tol * max(1.0, max_abs(A)):
        raise NotHermitianError(f"max |A - A^dag| = {dev:.3e}")


def is_unitary(U, tol: float = 1e-9) -> bool:
    """True iff ||U^dag U - I||_F <= tol * dim."""
    U = as_cmatrix(U)
    if U.shape[0] != U.shape[1]:
        return False
    d = U.shape[0]
    return float(np.linalg.norm(U.conj().T @ U - np.eye(d))) <= tol * d


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigendecomposition of a Hermitian matrix.

    eigenvalues are ascending, one per cluster; vectors holds the
    orthonormal eigenbasis as columns, grouped cluster by cluster, and
    multiplicities[j] columns belong to cluster j, so their cumulative sum
    gives the cluster offsets. The projection onto an eigenspace is built
    on request from its columns. degeneracy_tol records the clustering
    tolerance, since multiplicity structure depends on it.
    """

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    vectors: np.ndarray
    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_clusters(self) -> int:
        return len(self.eigenvalues)

    def projection(self, j: int) -> np.ndarray:
        """Orthogonal projection onto the j-th eigenspace."""
        j = range(self.n_clusters)[j]   # negative j counts from the end
        stop = int(np.sum(self.multiplicities[: j + 1]))
        W = self.vectors[:, stop - int(self.multiplicities[j]):stop]
        return W @ W.conj().T

    def reconstruct(self, values=None) -> np.ndarray:
        """V diag(u) V^dag, each cluster's value repeated by its
        multiplicity; values (one per cluster, real or complex) default to
        the eigenvalues. Values exp(-i*t*u) give exp(-i*t*A). Values of
        shape (..., k) give a stack of matrices."""
        u = self.eigenvalues if values is None else np.asarray(values)
        return projector_sum(self.vectors.T,
                             np.repeat(u, self.multiplicities, axis=-1))

    def expectation(self, v) -> float:
        """Quadratic form <v|A|v> as sum_i u_i |<e_i|v>|^2."""
        v = as_cvector(v)
        weights = np.abs(self.vectors.conj().T @ v) ** 2
        return float(np.repeat(self.eigenvalues, self.multiplicities) @ weights)

    def basis(self) -> np.ndarray:
        """Orthonormal eigenbasis as columns, cluster by cluster."""
        return self.vectors


def _fix_phases(V: np.ndarray) -> np.ndarray:
    # rotate each column so its largest-magnitude entry is real and positive
    out = V.copy()
    for c in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, c])))
        z = out[i, c]
        if abs(z) > 0:
            out[:, c] *= np.conj(z) / abs(z)
    return out


def eig_hermitian(A, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix with degeneracy merging.

    Eigenvalues closer than degeneracy_tol * max(1, ||A||_F) are clustered
    greedily in ascending order and share one eigenspace.
    """
    A = as_cmatrix(A)
    _require_hermitian(A)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    V = _fix_phases(V)

    scale = max(1.0, float(np.linalg.norm(A)))
    gap = degeneracy_tol * scale
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[clusters[-1][-1]] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])

    eigenvalues = np.array([float(np.mean(w[c])) for c in clusters])
    multiplicities = np.array([len(c) for c in clusters], dtype=int)

    for arr in (eigenvalues, multiplicities, V):
        arr.setflags(write=False)
    spec = SpectralData(eigenvalues, multiplicities, V,
                        degeneracy_tol=float(degeneracy_tol))

    # merging replaces each raw eigenvalue by its cluster mean, which adds a
    # known, intentional reconstruction error on top of the solver's own
    merge_err = float(np.linalg.norm(w - np.repeat(eigenvalues, multiplicities)))
    recon_err = float(np.linalg.norm(A - spec.reconstruct()))
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
    H = as_cmatrix(H)
    _require_hermitian(H)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return projector_sum(V.T, np.exp(-1j * t * w))

