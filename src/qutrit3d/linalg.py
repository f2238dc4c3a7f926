"""Dense linear algebra for fixed dimensions 3 and 4.

Self-contained Hermitian eigendecomposition (cyclic Jacobi),
determinants, the unitary matrix exponential and the two-qubit partial
transpose.  Everything here is a pure function over
small numpy arrays or their rows as Python lists; no shared state.

The Hermiticity check and the eigensolver work on Python scalars and
call no BLAS: assert_hermitian converts a matrix to rows once and checks
them in one pass, the kernel solves those rows, each plane rotation
rewrites the two affected rows and columns of A and V in place, and the
sort, the degenerate-cluster Gram-Schmidt and the phase gauge use the
same scalars.  V is co-rotated only when eigenvectors are
wanted: rho's spectrum (positivity, rank) and the partial transpose
test read eigenvalues alone, which never depend on V, so their values
are bit-identical to the full solve's.  Two reasons for the scalars:
  * speed: for n <= 4 the interpreter's per-call cost dominates, so
    building a rotation matrix and two matmuls per rotation costs
    several times more than the scalar update;
  * the same bytes on every CPU: OpenBLAS picks its kernel at run time,
    and kernels differ in summation order and fused multiply-add, so a
    matmul's last bit depends on the machine, while Python float
    arithmetic rounds once per IEEE operation everywhere.
Real input (the correlation tensor T) stays real throughout.  Jacobi,
not a closed form: Cardano-type solvers lose accuracy near double roots
(Kopp, arXiv:physics/0610206), where the positivity verdict lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, NotHermitianError
from .tolerances import DEGEN_GAP, HERM_TOL, JACOBI_SCALE_FLOOR, JACOBI_STOP

# Residual threshold accepted when Gram-Schmidting a degenerate cluster;
# large enough that normalization never amplifies rounding noise.
_GS_RESIDUAL = 0.1
_MAX_SWEEPS = 60
# Largest accepted entry modulus: a 4x4 matrix within it has Frobenius norm <= max/4, so
# no sum, difference or doubling in the solver, the bridge or T = 1 - 2 Re(rho) overflows.
_ENTRY_MAX = np.finfo(float).max / 16.0


@dataclass(frozen=True)
class EigenSystem3:
    """Sorted eigendecomposition of a 3x3 Hermitian matrix.

    ``values`` are real, descending.  ``vectors`` holds the matching
    orthonormal eigenvectors as columns (real for real input), each
    gauged so its first largest-magnitude component is real positive.
    """

    values: np.ndarray
    vectors: np.ndarray


def assert_hermitian(M: np.ndarray, what: str = "matrix") -> list:
    """M's rows as lists of Python numbers, checked in one pass.

    NotHermitianError for a non-finite entry or max |M - M^dag| above
    HERM_TOL, ValueError for an entry above _ENTRY_MAX in modulus.
    """
    rows = np.asarray(M).tolist()
    dev = 0.0
    try:
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if not abs(x) <= _ENTRY_MAX:  # also true for a NaN or infinite entry
                    raise _entry_error(rows, what)
                d = abs(x - rows[j][i].conjugate())
                if d > dev:
                    dev = d
    except OverflowError:  # abs() of a complex whose modulus is above max float
        raise _entry_error(rows, what) from None
    if dev > HERM_TOL:
        raise NotHermitianError(f"{what} is not Hermitian: max |M - M^dag| = {dev:.3e}")
    return rows


def _entry_error(rows: list, what: str) -> Exception:
    """The error of rows with an entry out of bounds: a non-finite one comes first."""
    if all(math.isfinite(x.real) and math.isfinite(x.imag) for row in rows for x in row):
        return ValueError(f"{what} overflows: an entry is above {_ENTRY_MAX:.3g} in modulus")
    return NotHermitianError(f"{what} is not Hermitian: it has a non-finite entry")


def vector_norm(v) -> float:
    """Euclidean norm of a sequence of Python numbers, summed in order, without BLAS."""
    return math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in v))


def _dot3(u, w) -> float:
    """u . w of two 3-sequences of Python floats, summed in index order: no BLAS, no warning."""
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _jacobi_hermitian(rows: list, with_vectors: bool) -> tuple[list, list]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix's checked rows, on a copy.

    Each rotation J zeroes one off-diagonal entry: A <- J^dag A J rewrites
    rows p, q and then columns p, q of A, and V <- V J columns p, q of V.
    A real matrix stays real (the phase apq/|apq| is then +-1).  For
    n <= 4 this converges quadratically in a handful of sweeps.  Returns
    (unsorted real eigenvalues, V as a list of rows, eigenvectors in its
    columns; no rows unless ``with_vectors``); InternalCheckError if
    _MAX_SWEEPS sweeps end with an off-diagonal modulus above the stop.
    A never reads V, so the eigenvalues do not depend on ``with_vectors``.
    """
    n = len(rows)
    A = [row[:] for row in rows]
    V = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if with_vectors else []
    scale = max(max(abs(x) for row in A for x in row), JACOBI_SCALE_FLOOR)
    stop = JACOBI_STOP * scale
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]

    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for p, q in pairs:
            Ap, Aq = A[p], A[q]
            apq = Ap[q]
            m = abs(apq)
            off = max(off, m)
            if m <= stop:
                continue
            tau = (Aq[q].real - Ap[p].real) / (2.0 * m)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0)) if tau != 0 else 1.0
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c * (apq / m)
            sc = s.conjugate()
            for j in range(n):
                apj, aqj = Ap[j], Aq[j]
                Ap[j] = c * apj - s * aqj
                Aq[j] = sc * apj + c * aqj
            for row in (*A, *V):
                aip, aiq = row[p], row[q]
                row[p] = aip * c - aiq * sc
                row[q] = aip * s + aiq * c
            # the rotation annihilates this pair; its computed value is
            # rounding residue, which can sit above the stop for good
            Ap[q] = Aq[p] = 0.0
        if off <= stop:
            break
    else:
        raise InternalCheckError(
            f"Jacobi sweep limit {_MAX_SWEEPS} reached: "
            f"off-diagonal modulus {off:.3e} above {stop:.3e}"
        )

    return [A[i][i].real for i in range(n)], V


def _dot(u: list, w: list):
    """<u|w> = sum conj(u_i) w_i."""
    return sum(x.conjugate() * y for x, y in zip(u, w))


def _fix_phase(v: list) -> list:
    """Make the first largest-magnitude component real positive."""
    pivot = max(v, key=abs)
    gauge = pivot / abs(pivot)
    return [x / gauge for x in v]


def _reorthonormalize_cluster(cols: list, idx: range) -> None:
    """Replace a degenerate cluster's vectors by a deterministic basis.

    Builds the cluster projector, then Gram-Schmidts its action on the
    standard basis in index order.  Output depends only on the subspace,
    not on the path the sweep took to reach it.
    """
    cluster = [cols[i] for i in idx]
    n = len(cols[0])
    chosen: list[list] = []
    for j in range(n):
        w = [sum(v[r] * v[j].conjugate() for v in cluster) for r in range(n)]
        for u in chosen:
            d = _dot(u, w)
            w = [x - y * d for x, y in zip(w, u)]
        norm = vector_norm(w)
        if norm > _GS_RESIDUAL:
            chosen.append([x / norm for x in w])
        if len(chosen) == len(idx):
            break
    if len(chosen) != len(idx):
        raise InternalCheckError("degenerate cluster re-orthonormalization failed")
    # one polish pass restores orthonormality to machine precision
    for k, w in enumerate(chosen):
        for u in chosen[:k]:
            d = _dot(u, w)
            w = [x - y * d for x, y in zip(w, u)]
        norm = vector_norm(w)
        chosen[k] = [x / norm for x in w]
    for i, w in zip(idx, chosen):
        cols[i] = w


def eig_hermitian3(M: np.ndarray) -> EigenSystem3:
    """Sorted eigensystem of a 3x3 Hermitian matrix.

    Eigenvalues descend; eigenvectors are orthonormal columns with a
    deterministic phase gauge.  Clusters closer than the degeneracy gap
    are re-orthonormalized so repeated runs agree bit-for-bit.  Real
    input is solved in real arithmetic and gets real eigenvectors.
    """
    M = np.asarray(M)
    M = np.asarray(M, dtype=float if np.isrealobj(M) else complex)
    vals, V = _jacobi_hermitian(assert_hermitian(M), with_vectors=True)
    order = sorted(range(3), key=lambda k: -vals[k])
    vals = [vals[k] for k in order]
    cols = [[row[k] for row in V] for k in order]

    i = 0
    while i < 3:
        j = i + 1
        while j < 3 and vals[j - 1] - vals[j] < DEGEN_GAP:
            j += 1
        if j - i > 1:
            _reorthonormalize_cluster(cols, range(i, j))
        i = j

    cols = [_fix_phase(v) for v in cols]
    return EigenSystem3(values=np.array(vals), vectors=np.array(list(zip(*cols)), dtype=M.dtype))


def eig_sym3(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a real symmetric 3x3 matrix, with real eigenvectors."""
    es = eig_hermitian3(np.asarray(T, dtype=float))
    return es.values, es.vectors


def _eigvals(rows: list) -> list:
    """Descending eigenvalues of checked Hermitian rows, bit-identical to the full solve's."""
    vals, _ = _jacobi_hermitian(rows, with_vectors=False)
    return sorted(vals, reverse=True)


def eigvals_hermitian4(M: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a 4x4 Hermitian matrix."""
    return np.array(_eigvals(assert_hermitian(np.asarray(M, dtype=complex))))


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
