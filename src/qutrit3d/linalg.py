"""Dense linear algebra for fixed dimensions 3 and 4.

Self-contained Hermitian eigendecomposition (cyclic Jacobi),
determinants and the two-qubit partial transpose.  Everything here is a
pure function, with no shared state.
Rows in, arrays at the edge: the check (_hermitian_rows) and the
solvers (_eigensystem3, _eigvals) take a matrix as rows of Python
numbers and return lists.  The public functions convert numpy input to
rows, check them once and convert the results back to arrays, importing
numpy only when called; the solvers take checked rows and never check
them again, and the package's analysis and its CLI call them directly.

The check and the solvers work on Python scalars and call no BLAS: the
check is one pass over the rows, and one Jacobi kernel per size solves
them.  The 3x3 kernel (rho and T) keeps the nine entries of A, and of V
when eigenvectors are wanted, in local variables through every sweep,
with its three pair rotations written out; the 4x4 kernel (the partial
transpose, values only) rotates each pair's 2x2 core on locals and
streams the two other rows and columns through a fixed plan.  Both do
the floating-point operations of a generic kernel over nested lists, in
its order and on its operand types, so they give its bits; writing them
out removes only the interpreter's indexing and loop cost.  The sort,
the degenerate-cluster Gram-Schmidt and the phase gauge use the same
scalars.  Eigenvalues never depend on V, so rho's spectrum (positivity,
rank) skips it and is bit-identical to the full solve's.  Two reasons
for the scalars:
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
import sys
from dataclasses import dataclass

from .errors import InternalCheckError, NotHermitianError
from .tolerances import DEGEN_GAP, GS_RESIDUAL, HERM_TOL, JACOBI_SCALE_FLOOR, JACOBI_STOP

_MAX_SWEEPS = 60
# Largest accepted entry modulus: a 4x4 matrix within it has Frobenius norm <= max/4, so
# no sum, difference or doubling in the solver, the bridge or T = 1 - 2 Re(rho) overflows.
_ENTRY_MAX = sys.float_info.max / 16.0


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
    """M's rows as lists of Python numbers, checked in one pass (_hermitian_rows)."""
    import numpy as np

    return _hermitian_rows(np.asarray(M).tolist(), what)


def _hermitian_rows(rows: list, what: str = "matrix") -> list:
    """Rows of Python numbers, returned once checked in one pass.

    NotHermitianError for a non-finite entry or max |M - M^dag| above
    HERM_TOL, ValueError for an entry above _ENTRY_MAX in modulus.
    """
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


def _unconverged(off: float, stop: float) -> InternalCheckError:
    return InternalCheckError(
        f"Jacobi sweep limit {_MAX_SWEEPS} reached: "
        f"off-diagonal modulus {off:.3e} above {stop:.3e}"
    )


def _jacobi3(rows: list, with_vectors: bool) -> tuple[list, list]:
    """Cyclic Jacobi diagonalization of a 3x3 Hermitian matrix's checked rows.

    The nine entries of A, and of V when ``with_vectors``, live in local
    variables.  Each rotation J zeroes the pair (p, q) in the order (0, 1),
    (0, 2), (1, 2): A <- J^dag A J rewrites rows p, q and then columns p, q
    of A, and V <- V J columns p, q of V.  A real matrix stays real (the
    phase apq/|apq| is then +-1).  Returns (unsorted real eigenvalues, V as
    a list of rows, eigenvectors in its columns; no rows unless
    ``with_vectors``); InternalCheckError if _MAX_SWEEPS sweeps end with an
    off-diagonal modulus above the stop.  A never reads V, so the
    eigenvalues do not depend on ``with_vectors``.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    v00 = v11 = v22 = 1.0
    v01 = v02 = v10 = v12 = v20 = v21 = 0.0
    hypot, copysign = math.hypot, math.copysign
    stop = JACOBI_STOP * max(abs(a00), abs(a01), abs(a02), abs(a10), abs(a11), abs(a12),
                             abs(a20), abs(a21), abs(a22), JACOBI_SCALE_FLOOR)

    for _ in range(_MAX_SWEEPS):
        off = m = abs(a01)
        if m > stop:
            tau = (a11.real - a00.real) / (2.0 * m)
            t = copysign(1.0, tau) / (abs(tau) + hypot(tau, 1.0)) if tau != 0 else 1.0
            c = 1.0 / hypot(t, 1.0)
            s = t * c * (a01 / m)
            sc = s.conjugate()
            b00, b10 = c * a00 - s * a10, sc * a00 + c * a10
            b01, b11 = c * a01 - s * a11, sc * a01 + c * a11
            a02, a12 = c * a02 - s * a12, sc * a02 + c * a12
            a00, a11 = b00 * c - b01 * sc, b10 * s + b11 * c
            a20, a21 = a20 * c - a21 * sc, a20 * s + a21 * c
            # the rotation annihilates this pair; its computed value is
            # rounding residue, which can sit above the stop for good
            a01 = a10 = 0.0
            if with_vectors:
                v00, v01 = v00 * c - v01 * sc, v00 * s + v01 * c
                v10, v11 = v10 * c - v11 * sc, v10 * s + v11 * c
                v20, v21 = v20 * c - v21 * sc, v20 * s + v21 * c
        m = abs(a02)
        if m > off:
            off = m
        if m > stop:
            tau = (a22.real - a00.real) / (2.0 * m)
            t = copysign(1.0, tau) / (abs(tau) + hypot(tau, 1.0)) if tau != 0 else 1.0
            c = 1.0 / hypot(t, 1.0)
            s = t * c * (a02 / m)
            sc = s.conjugate()
            b00, b20 = c * a00 - s * a20, sc * a00 + c * a20
            b02, b22 = c * a02 - s * a22, sc * a02 + c * a22
            a01, a21 = c * a01 - s * a21, sc * a01 + c * a21
            a00, a22 = b00 * c - b02 * sc, b20 * s + b22 * c
            a10, a12 = a10 * c - a12 * sc, a10 * s + a12 * c
            a02 = a20 = 0.0
            if with_vectors:
                v00, v02 = v00 * c - v02 * sc, v00 * s + v02 * c
                v10, v12 = v10 * c - v12 * sc, v10 * s + v12 * c
                v20, v22 = v20 * c - v22 * sc, v20 * s + v22 * c
        m = abs(a12)
        if m > off:
            off = m
        if m > stop:
            tau = (a22.real - a11.real) / (2.0 * m)
            t = copysign(1.0, tau) / (abs(tau) + hypot(tau, 1.0)) if tau != 0 else 1.0
            c = 1.0 / hypot(t, 1.0)
            s = t * c * (a12 / m)
            sc = s.conjugate()
            b11, b21 = c * a11 - s * a21, sc * a11 + c * a21
            b12, b22 = c * a12 - s * a22, sc * a12 + c * a22
            a10, a20 = c * a10 - s * a20, sc * a10 + c * a20
            a11, a22 = b11 * c - b12 * sc, b21 * s + b22 * c
            a01, a02 = a01 * c - a02 * sc, a01 * s + a02 * c
            a12 = a21 = 0.0
            if with_vectors:
                v01, v02 = v01 * c - v02 * sc, v01 * s + v02 * c
                v11, v12 = v11 * c - v12 * sc, v11 * s + v12 * c
                v21, v22 = v21 * c - v22 * sc, v21 * s + v22 * c
        if off <= stop:
            break
    else:
        raise _unconverged(off, stop)

    V = [[v00, v01, v02], [v10, v11, v12], [v20, v21, v22]] if with_vectors else []
    return [a00.real, a11.real, a22.real], V


# the six pairs (p, q) of a 4x4 sweep in cyclic order, each with the two other indices
_PLAN4 = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))


def _jacobi4(rows: list) -> list:
    """Unsorted eigenvalues of a 4x4 Hermitian matrix's checked rows, by cyclic Jacobi.

    The same rotations as _jacobi3 without V: the 2x2 core (pp, pq, qp,
    qq) of each pair is rotated on locals, and the two other entries of
    rows p, q and of columns p, q are streamed through the pair's plan.
    """
    A = [row[:] for row in rows]
    hypot, copysign = math.hypot, math.copysign
    stop = JACOBI_STOP * max(max(abs(x) for row in A for x in row), JACOBI_SCALE_FLOOR)

    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for p, q, k, l in _PLAN4:
            Ap, Aq = A[p], A[q]
            apq = Ap[q]
            m = abs(apq)
            if m > off:
                off = m
            if m <= stop:
                continue
            app, aqp, aqq = Ap[p], Aq[p], Aq[q]
            tau = (aqq.real - app.real) / (2.0 * m)
            t = copysign(1.0, tau) / (abs(tau) + hypot(tau, 1.0)) if tau != 0 else 1.0
            c = 1.0 / hypot(t, 1.0)
            s = t * c * (apq / m)
            sc = s.conjugate()
            bpp, bqp = c * app - s * aqp, sc * app + c * aqp
            bpq, bqq = c * apq - s * aqq, sc * apq + c * aqq
            Ak, Al = A[k], A[l]
            apk, aqk, apl, aql = Ap[k], Aq[k], Ap[l], Aq[l]
            akp, akq, alp, alq = Ak[p], Ak[q], Al[p], Al[q]
            Ap[k], Aq[k] = c * apk - s * aqk, sc * apk + c * aqk
            Ap[l], Aq[l] = c * apl - s * aql, sc * apl + c * aql
            Ap[p], Aq[q] = bpp * c - bpq * sc, bqp * s + bqq * c
            Ap[q] = Aq[p] = 0.0
            Ak[p], Ak[q] = akp * c - akq * sc, akp * s + akq * c
            Al[p], Al[q] = alp * c - alq * sc, alp * s + alq * c
        if off <= stop:
            break
    else:
        raise _unconverged(off, stop)

    return [A[0][0].real, A[1][1].real, A[2][2].real, A[3][3].real]


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
        if norm > GS_RESIDUAL:
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


def _eigensystem3(rows: list) -> tuple[list, list]:
    """Sorted eigensystem of a 3x3 Hermitian matrix's checked rows of Python numbers.

    Returns (descending eigenvalues, V as a list of rows with the
    eigenvectors in its columns).  Clusters closer than the degeneracy gap
    are re-orthonormalized so repeated runs agree bit-for-bit, and each
    vector is gauged so its first largest-magnitude component is real
    positive.  Real rows are solved in real arithmetic and get real
    eigenvectors.
    """
    vals, V = _jacobi3(rows, with_vectors=True)
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
    return vals, [list(row) for row in zip(*cols)]


def eig_hermitian3(M: np.ndarray) -> EigenSystem3:
    """Sorted EigenSystem3 of a 3x3 Hermitian matrix, checked once and solved by _eigensystem3.

    Real input is solved in real arithmetic and gets real eigenvectors;
    any other shape is a ValueError.
    """
    import numpy as np

    return _eig3(M, float if np.isrealobj(M) else complex)


def eig_sym3(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a real symmetric 3x3 matrix, with real eigenvectors."""
    es = _eig3(T, float)
    return es.values, es.vectors


def _eig3(M: np.ndarray, dtype: type) -> EigenSystem3:
    """The EigenSystem3 of M as a float or complex array, checked and solved on its rows."""
    import numpy as np

    M = np.asarray(M, dtype=dtype)
    if M.shape != (3, 3):
        raise ValueError(f"Hermitian matrix must be 3x3, got {M.shape}")
    vals, V = _eigensystem3(_hermitian_rows(M.tolist()))
    return EigenSystem3(values=np.array(vals), vectors=np.array(V, dtype=dtype))


def _eigvals(rows: list) -> list:
    """Descending eigenvalues of checked 3x3 or 4x4 Hermitian rows; 3x3 ones equal the full solve's."""
    vals = _jacobi3(rows, with_vectors=False)[0] if len(rows) == 3 else _jacobi4(rows)
    return sorted(vals, reverse=True)


def eigvals_hermitian4(M: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a 4x4 Hermitian matrix; any other shape is a ValueError."""
    import numpy as np

    M = np.asarray(M, dtype=complex)
    if M.shape != (4, 4):
        raise ValueError(f"Hermitian matrix must be 4x4, got {M.shape}")
    return np.array(_eigvals(_hermitian_rows(M.tolist())))


def det3(M: np.ndarray) -> complex:
    """Determinant of a 3x3 matrix by cofactor expansion."""
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def partial_transpose(M: np.ndarray) -> np.ndarray:
    """Transpose the second tensor factor of a 4x4 two-qubit operator (_partial_transpose).

    Basis order |00>, |01>, |10>, |11>.  Keeps M's dtype; applying it
    twice returns the input exactly.  Any other shape is a ValueError.
    """
    import numpy as np

    M = np.asarray(M)
    if M.shape != (4, 4):
        raise ValueError(f"two-qubit operator must be 4x4, got {M.shape}")
    return np.array(_partial_transpose(M.tolist()), dtype=M.dtype)


def _partial_transpose(rows: list) -> list:
    """The partial transpose of a 4x4 matrix's rows: entry (2a + b, 2c + d) is M[2a + d][2c + b]."""
    return [[rows[i - i % 2 + j % 2][j - j % 2 + i % 2] for j in range(4)] for i in range(4)]
