"""Dense linear algebra for fixed dimensions 3 and 4.

Self-contained complex Hermitian eigendecomposition (cyclic Jacobi),
determinants, the unitary matrix exponential and the two-qubit partial
transpose.  Everything here is a pure function over
small numpy arrays; no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, NotHermitianError
from .tolerances import DEGEN_GAP, HERM_TOL, JACOBI_SCALE_FLOOR, JACOBI_STOP

# Residual threshold accepted when Gram-Schmidting a degenerate cluster;
# large enough that normalization never amplifies rounding noise.
_GS_RESIDUAL = 0.1
_MAX_SWEEPS = 60


@dataclass
class EigenSystem3:
    """Sorted eigendecomposition of a 3x3 Hermitian matrix.

    ``values`` are real, descending.  ``vectors`` holds the matching
    orthonormal eigenvectors as columns, each gauged so its
    largest-magnitude component is real positive.
    """

    values: np.ndarray
    vectors: np.ndarray


def assert_hermitian(M: np.ndarray, what: str = "matrix") -> None:
    if not np.isfinite(M).all():
        raise NotHermitianError(f"{what} is not Hermitian: it has a non-finite entry")
    dev = float(np.max(np.abs(M - M.conj().T)))
    if dev > HERM_TOL:
        raise NotHermitianError(f"{what} is not Hermitian: max |M - M^dag| = {dev:.3e}")


def _jacobi_hermitian(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix.

    Each rotation zeroes one off-diagonal entry with a unitary plane
    rotation; for n <= 4 this converges quadratically in a handful of
    sweeps.  Returns (unsorted real eigenvalues, eigenvector columns).
    """
    n = M.shape[0]
    A = np.array(M, dtype=complex)
    V = np.eye(n, dtype=complex)
    scale = max(float(np.max(np.abs(A))), JACOBI_SCALE_FLOOR)
    stop = JACOBI_STOP * scale

    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                m = abs(apq)
                off = max(off, m)
                if m <= stop:
                    continue
                phase = apq / m
                tau = (A[q, q].real - A[p, p].real) / (2.0 * m)
                t = np.sign(tau) / (abs(tau) + np.hypot(tau, 1.0)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c * phase
                J = np.eye(n, dtype=complex)
                J[p, p] = c
                J[p, q] = s
                J[q, p] = -np.conj(s)
                J[q, q] = c
                A = J.conj().T @ A @ J
                V = V @ J
        if off <= stop:
            break

    return np.real(np.diag(A)), V


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component real positive."""
    i = int(np.argmax(np.abs(v)))
    pivot = v[i]
    return v / (pivot / abs(pivot))


def _reorthonormalize_cluster(vectors: np.ndarray, idx: list[int]) -> None:
    """Replace a degenerate cluster's columns by a deterministic basis.

    Builds the cluster projector, then Gram-Schmidts its action on the
    standard basis in index order.  Output depends only on the subspace,
    not on the path the sweep took to reach it.
    """
    n = vectors.shape[0]
    P = sum(np.outer(vectors[:, i], vectors[:, i].conj()) for i in idx)
    chosen: list[np.ndarray] = []
    for j in range(n):
        w = P[:, j].copy()
        for u in chosen:
            w -= u * (u.conj() @ w)
        norm = float(np.linalg.norm(w))
        if norm > _GS_RESIDUAL:
            chosen.append(w / norm)
        if len(chosen) == len(idx):
            break
    if len(chosen) != len(idx):
        raise InternalCheckError("degenerate cluster re-orthonormalization failed")
    # one polish pass restores orthonormality to machine precision
    for k, w in enumerate(chosen):
        for u in chosen[:k]:
            w = w - u * (u.conj() @ w)
        chosen[k] = w / np.linalg.norm(w)
    for i, w in zip(idx, chosen):
        vectors[:, i] = w


def eig_hermitian3(M: np.ndarray) -> EigenSystem3:
    """Sorted eigensystem of a 3x3 Hermitian matrix.

    Eigenvalues descend; eigenvectors are orthonormal columns with a
    deterministic phase gauge.  Clusters closer than the degeneracy gap
    are re-orthonormalized so repeated runs agree bit-for-bit.
    """
    M = np.asarray(M, dtype=complex)
    assert_hermitian(M)
    vals, vecs = _jacobi_hermitian(M)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]

    i = 0
    while i < 3:
        j = i + 1
        while j < 3 and vals[j - 1] - vals[j] < DEGEN_GAP:
            j += 1
        if j - i > 1:
            _reorthonormalize_cluster(vecs, list(range(i, j)))
        i = j

    for k in range(3):
        vecs[:, k] = _fix_phase(vecs[:, k])
    return EigenSystem3(values=vals, vectors=vecs)


def eig_sym3(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a real symmetric 3x3 matrix, with real eigenvectors."""
    es = eig_hermitian3(np.asarray(T, dtype=float))
    return es.values, np.real(es.vectors)


def eigvals_hermitian4(M: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a 4x4 Hermitian matrix."""
    M = np.asarray(M, dtype=complex)
    assert_hermitian(M)
    vals, _ = _jacobi_hermitian(M)
    return np.sort(vals)[::-1]


def det3(M: np.ndarray) -> complex:
    """Determinant of a 3x3 matrix by cofactor expansion."""
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def unitary_from_eigensystem(es: EigenSystem3, theta: float) -> np.ndarray:
    """exp(-i * theta * G) from a precomputed eigensystem of G.

    Lets trajectory sampling reuse one decomposition across a theta grid.
    """
    if theta == 0.0:
        return np.eye(3, dtype=complex)
    phases = np.exp(-1j * theta * es.values)
    return (es.vectors * phases) @ es.vectors.conj().T


def partial_transpose(M: np.ndarray) -> np.ndarray:
    """Transpose the second tensor factor of a two-qubit operator.

    Basis order |00>, |01>, |10>, |11>.  Applying it twice returns the
    input exactly.
    """
    M = np.asarray(M)
    return M.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
