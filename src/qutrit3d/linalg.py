"""Dense linear algebra for fixed dimensions 3 and 4.

Self-contained Hermitian eigendecomposition (cyclic Jacobi),
determinants and the two-qubit partial transpose.  Everything here is a
pure function, with no shared state.
Rows in, arrays at the edge, for the whole package: an argument comes
in through _rows, which checks its exact shape and returns nested lists
of Python numbers, and a result goes out through _array (numpy.asarray).
Both import numpy when called; elsewhere only the samplers' draws and
the spin1 expectation reference do.  The check (_hermitian_rows) and the
solvers (_eigensystem3, _eigvals) take a matrix as rows and return
lists; the solvers never check their rows again, and the package's
analysis and its CLI call them directly.

The check, the solvers and the certificate work on Python scalars, call
no BLAS and are written out on local variables.  One Jacobi kernel per
size solves; all else reads a 4x4 in one layout, its 3x3 leading block
plus row 3 (and column 3 where both triangles are read), so a 4x4 only
adds those entries to the 3x3's expressions: the check, _verdict's entry
scan and skew, the certificate's LDL^dag (_ldl) and the Rayleigh
quotient (_witness) that refutes at its first non-positive pivot.  The
3x3 Jacobi kernel (rho and T) keeps the nine entries of A, and of V when
eigenvectors are wanted, in local variables through every sweep, with
its three pair rotations written out; the 4x4 kernel (the partial
transpose, values only) rotates each pair's 2x2 core on locals and
streams the two other rows and columns through a fixed plan.  Each
kernel does the floating-point operations of a generic loop over nested
lists, in its order and on its operand types, so it gives its bits
(frozen copies of the loops in the tests check that); writing them out
removes only the interpreter's indexing and loop cost.  The sort and the
phase gauge are written out for three columns too; only a degenerate
cluster's Gram-Schmidt loops over lists.  Eigenvalues never depend on V,
so rho's spectrum and a state's T skip it, bit-identical to the full
solve's.  Two reasons for the scalars:
  * speed: for n <= 4 the interpreter's per-call cost dominates, so
    building a rotation matrix and two matmuls per rotation costs
    several times more than the scalar update;
  * the same bytes on every CPU: OpenBLAS picks its kernel at run time,
    and kernels differ in summation order and fused multiply-add, so a
    matmul's last bit depends on the machine, while Python float
    arithmetic rounds once per IEEE operation everywhere.  libm is the
    exception: evolve and the OBJ mesh call its sin and cos, and glibc
    picks an FMA or a non-FMA variant from the CPU, which can move a
    last bit.
Real input (the correlation tensor T) stays real throughout.  Jacobi,
not a closed form: Cardano-type solvers lose accuracy near double roots
(Kopp, arXiv:physics/0610206), where the positivity verdict lives.

Positivity, lambda_min >= -RANK_TOL, and a state's rank, the count of
eigenvalues above RANK_TOL, are decided in one function, _verdict, for a
state's check, the analysis and the PPT test.  It proves the Jacobi's
answers without a solve: a shifted LDL^dag certifies positivity (Rump,
BIT 46 (2006)) and, by its inertia at two shifts, the rank; a Rayleigh
quotient from its first non-positive pivot certifies the opposite.  In
its band (an eigenvalue within CERT_MARGIN of a threshold, widened by the
rows' skew, or an entry above 1) one values-only Jacobi decides.  The
Jacobi stays the definition: no output byte depends on which answered,
and every reader of values solves.
"""

from __future__ import annotations

import math
import sys

from .errors import InternalCheckError, NotHermitianError
from .tolerances import (
    CERT_GAMMA, CERT_MARGIN, CERT_SKEW, DEGEN_GAP, GS_RESIDUAL, HERM_TOL, JACOBI_SCALE_FLOOR,
    JACOBI_STOP, RANK_TOL,
)

_MAX_SWEEPS = 60
# Largest accepted entry modulus: a 4x4 matrix within it has Frobenius norm <= max/4, so
# no sum, difference or doubling in the solver, the bridge or T = 1 - 2 Re(rho) overflows.
_ENTRY_MAX = sys.float_info.max / 16.0


class _Record:
    """Fields named by __slots__ (_eigenvalues: eigenvalues), set by an explicit __init__."""

    __slots__ = ()

    def _frozen(self, name, *value):  # a frozen record's __setattr__ and __delattr__
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in (s.lstrip("_") for s in self.__slots__)}

    def __eq__(self, other):  # field by field, in order; no hash
        return self._fields() == other._fields() if other.__class__ is self.__class__ \
            else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild it through __init__
        return type(self), tuple(self._fields().values())


class EigenSystem3(_Record):
    """Sorted eigendecomposition of a 3x3 Hermitian matrix.

    ``values`` are real, descending.  ``vectors`` holds the matching
    orthonormal eigenvectors as columns (real for real input), each
    gauged so its first largest-magnitude component is real positive.
    """

    __slots__ = ("values", "vectors")
    __setattr__ = __delattr__ = _Record._frozen

    def __init__(self, values: np.ndarray, vectors: np.ndarray):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)


def _rows(x, shape: tuple, what: str, error: type = ValueError, dtype=complex) -> list:
    """x as nested lists of Python numbers of dtype (None keeps x's); error unless x has shape."""
    import numpy as np

    x = np.asarray(x, dtype=dtype)
    if x.shape != shape:
        size = "x".join(map(str, shape)) if len(shape) > 1 else f"of length {shape[0]}"
        raise error(f"{what} must be {size}, got {x.shape}")
    return x.tolist()


def _array(x, dtype=None):
    """numpy.asarray(x, dtype): the one way a result leaves the package."""
    import numpy as np

    return np.asarray(x, dtype=dtype)


def _hermitian_rows(rows: list, what: str, bound: float = _ENTRY_MAX) -> list:
    """3x3 or 4x4 rows of Python numbers, returned once checked: a 4x4 as 3x3 block + row 3.

    NotHermitianError for a non-finite entry or max |M - M^dag| above
    HERM_TOL, ValueError for an entry above _ENTRY_MAX in modulus
    (_entry_error), then for one above ``bound`` (a density matrix's is
    half of it, for T = 1 - 2 Re(rho)).  The moduli's max, the entries'
    sum and the deviation are read on the 3x3 block, then on a 4x4's row
    and column 3.  max() is exact but drops a NaN that is not its first
    argument, so the sum, read for nothing else, tests for one.  The
    deviation is read on the diagonal and one triangle: |a_ij - conj a_ji|
    and |a_ji - conj a_ij| are the same float, and |a_ii - conj a_ii| is |2 Im a_ii|.
    """
    dev = None
    try:
        four = len(rows) == 4
        if four:
            (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), \
                (a30, a31, a32, a33) = rows
        else:
            (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
        top = max(abs(a00), abs(a01), abs(a02), abs(a10), abs(a11), abs(a12), abs(a20),
                  abs(a21), abs(a22))
        total = a00 + a01 + a02 + a10 + a11 + a12 + a20 + a21 + a22
        if four:
            top = max(top, abs(a03), abs(a13), abs(a23), abs(a30), abs(a31), abs(a32), abs(a33))
            total = total + a03 + a13 + a23 + a30 + a31 + a32 + a33
        if top <= _ENTRY_MAX and total == total:  # false for a NaN or infinite entry
            dev = max(abs(2.0 * a00.imag), abs(2.0 * a11.imag), abs(2.0 * a22.imag),
                      abs(a01 - a10.conjugate()), abs(a02 - a20.conjugate()),
                      abs(a12 - a21.conjugate()))
            if four:
                dev = max(dev, abs(2.0 * a33.imag), abs(a03 - a30.conjugate()),
                          abs(a13 - a31.conjugate()), abs(a23 - a32.conjugate()))
    except OverflowError:  # abs() of a complex whose modulus is above max float
        pass
    if dev is None:
        raise _entry_error(rows, what)
    if dev > HERM_TOL:
        raise NotHermitianError(f"{what} is not Hermitian: max |M - M^dag| = {dev:.3e}")
    if top > bound:
        raise ValueError(f"{what} overflows: an entry is above {bound:.3g} in modulus")
    return rows


def _entry_error(rows: list, what: str) -> Exception:
    """The error of rows with an entry out of bounds: a non-finite one comes first."""
    if all(math.isfinite(x.real) and math.isfinite(x.imag) for row in rows for x in row):
        return ValueError(f"{what} overflows: an entry is above {_ENTRY_MAX:.3g} in modulus")
    return NotHermitianError(f"{what} is not Hermitian: it has a non-finite entry")


def _sum(terms):
    """0.0 + t0 + t1 + ..., left to right: the builtin sum of CPython <= 3.11 on every CPython.

    A -0.0 term still gives +0.0, and complex terms a complex sum; 3.12
    made the builtin sum of floats compensated, which moves a last bit.
    """
    total = 0.0
    for t in terms:
        total += t
    return total


def vector_norm(v) -> float:
    """Euclidean norm of a sequence of Python numbers, summed in order, without BLAS."""
    return math.sqrt(_sum(x.real * x.real + x.imag * x.imag for x in v))


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
    """<u|w> = sum conj(u_i) w_i, summed in order (_sum)."""
    return _sum(x.conjugate() * y for x, y in zip(u, w))


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
        w = [_sum(v[r] * v[j].conjugate() for v in cluster) for r in range(n)]
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
    eigenvectors.  The sort is a stable insertion sort on strict >, which
    orders ties as sorted() does, and the gaps are read as a scan of the
    sorted values would read them.
    """
    (l0, l1, l2), ((v00, v01, v02), (v10, v11, v12), (v20, v21, v22)) = _jacobi3(rows, True)
    c0, c1, c2 = (v00, v10, v20), (v01, v11, v21), (v02, v12, v22)
    if l1 > l0:
        l0, l1, c0, c1 = l1, l0, c1, c0
    if l2 > l1:
        l1, l2, c1, c2 = l2, l1, c2, c1
        if l1 > l0:
            l0, l1, c0, c1 = l1, l0, c1, c0
    near01, near12 = l0 - l1 < DEGEN_GAP, l1 - l2 < DEGEN_GAP
    if near01 or near12:
        cols = [c0, c1, c2]
        _reorthonormalize_cluster(cols, range(0 if near01 else 1, 3 if near12 else 2))
        c0, c1, c2 = cols
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = _gauge(*c0), _gauge(*c1), _gauge(*c2)
    return [l0, l1, l2], [[x0, x1, x2], [y0, y1, y2], [z0, z1, z2]]


def _gauge(x, y, z) -> tuple:
    """(x, y, z) over the phase of its first largest-modulus component, made real positive."""
    pivot = y if abs(y) > abs(x) else x
    pivot = z if abs(z) > abs(pivot) else pivot
    g = pivot / abs(pivot)
    return x / g, y / g, z / g


def eig_hermitian3(M: np.ndarray) -> EigenSystem3:
    """Sorted EigenSystem3 of a 3x3 Hermitian matrix, checked once and solved by _eigensystem3.

    Real input is solved in real arithmetic and gets real eigenvectors;
    any other shape is a ValueError.
    """
    return _eig3(M, complex if _array(M).dtype.kind == "c" else float)


def eig_sym3(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a real symmetric 3x3 matrix, with real eigenvectors."""
    es = _eig3(T, float)
    return es.values, es.vectors


def _eig3(M: np.ndarray, dtype: type) -> EigenSystem3:
    """The EigenSystem3 of M as a float or complex array, checked and solved on its rows."""
    what = "Hermitian matrix"
    vals, V = _eigensystem3(_hermitian_rows(_rows(M, (3, 3), what, dtype=dtype), what))
    return EigenSystem3(values=_array(vals), vectors=_array(V, dtype))


def _eigvals(rows: list) -> list:
    """Descending eigenvalues of checked 3x3 or 4x4 Hermitian rows; 3x3 as _eigensystem3 sorts."""
    if len(rows) == 4:
        return sorted(_jacobi4(rows), reverse=True)
    l0, l1, l2 = _jacobi3(rows, False)[0]
    if l1 > l0:
        l0, l1 = l1, l0
    if l2 > l1:
        l1, l2 = l2, l1
        if l1 > l0:
            l0, l1 = l1, l0
    return [l0, l1, l2]


def _verdict(rows: list, ranked: bool = False) -> tuple:
    """(positive, rank, values) of checked 3x3 or 4x4 rows: the package's one verdict.

    By the Jacobi's descending eigenvalues ``values``: positive when the
    smallest is at least -RANK_TOL; ``rank`` (``ranked`` 3x3 rows of a
    state, else None) counts those above RANK_TOL.  values is None exactly
    where the certificate proves the answer; the Jacobi decides the rest.
    It proves nothing for an entry above 1 in modulus; below that the
    Jacobi's error stays under half the margin m = CERT_MARGIN + CERT_SKEW
    ||A - A^dag||_F, which also covers the gap between both triangles, read
    by the Jacobi, and H, the Hermitian matrix of the lower one, read here.

    Each pass factors P = H - shift 1 as LDL^dag without pivoting (_ldl).
    Positivity, at shift -RANK_TOL + m: positive pivots with CERT_GAMMA
    sum_k d_k |l_k|^2 below m / 2 prove lambda_min > -RANK_TOL + m / 2,
    since P + dP = LDL^dag with ||dP|| within that sum; at the first pivot
    d_k <= 0, _witness tries to prove lambda_min < -RANK_TOL - m.  The
    rank, at RANK_TOL +- m: past negative pivots P + dP has as many
    eigenvalues above 0 as positive pivots (Sylvester), ||dP|| within
    CERT_GAMMA sum_k |d_k| |l_k|^2 (Higham, ASNA 2nd ed., Thm 9.3); below
    m / 2 at both shifts, equal counts leave none within m / 2 of RANK_TOL.
    Three positive pivots at RANK_TOL + m prove rank 3 and positivity in
    one pass; else positivity is proven, then the second count.
    """
    four = len(rows) == 4
    if four:
        (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), \
            (a30, a31, a32, a33) = rows
    else:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    top = max(abs(a00), abs(a01), abs(a02), abs(a10), abs(a11), abs(a12), abs(a20), abs(a21),
              abs(a22))
    if four:
        top = max(top, abs(a03), abs(a13), abs(a23), abs(a30), abs(a31), abs(a32), abs(a33))
    if top <= 1.0:
        y0, y1, y2 = a00.imag, a11.imag, a22.imag
        z10, z20, z21 = a10 - a01.conjugate(), a20 - a02.conjugate(), a21 - a12.conjugate()
        skew = (4.0 * y0 * y0 + 4.0 * y1 * y1
                + 2.0 * (z10.real * z10.real + z10.imag * z10.imag) + 4.0 * y2 * y2
                + 2.0 * (z20.real * z20.real + z20.imag * z20.imag)
                + 2.0 * (z21.real * z21.real + z21.imag * z21.imag))
        if four:
            y3 = a33.imag
            z30, z31, z32 = a30 - a03.conjugate(), a31 - a13.conjugate(), a32 - a23.conjugate()
            skew = (skew + 4.0 * y3 * y3 + 2.0 * (z30.real * z30.real + z30.imag * z30.imag)
                    + 2.0 * (z31.real * z31.real + z31.imag * z31.imag)
                    + 2.0 * (z32.real * z32.real + z32.imag * z32.imag))
        margin = CERT_MARGIN + CERT_SKEW * math.sqrt(skew)
        high = _ldl(rows, RANK_TOL + margin, margin, None) if ranked else None
        if high == 3:
            return True, 3, None
        positive = _ldl(rows, -RANK_TOL + margin, margin, -RANK_TOL - margin)
        if positive is False or positive and not ranked:
            return positive, None, None
        if positive and high is not None and _ldl(rows, RANK_TOL - margin, margin, None) == high:
            return True, high, None
    values = _eigvals(rows)
    positive = values[-1] >= -RANK_TOL
    if not (ranked and positive):
        return positive, None, values
    return True, (values[0] > RANK_TOL) + (values[1] > RANK_TOL) + (values[2] > RANK_TOL), values


def _ldl(rows: list, shift: float, margin: float, low: float | None):
    """One pass of _verdict, H - shift 1 = LDL^dag: positivity's (ceiling ``low``) or a count's.

    One kernel on locals serves 3x3 rows and a 4x4's leading block, with
    row 3 added for 4x4; it does the generic row loop's operations in its
    order (tests/test_certified.py keeps that loop, and _witness's, as
    frozen oracles), but for the exact ones left out, as no term is -0.0:
    a leading 0.0 added, row 0's empty sub.
    """
    count, four = low is None, len(rows) == 4
    if four:
        (a00, _, _, _), (a10, a11, _, _), (a20, a21, a22, _), (a30, a31, a32, a33) = rows
    else:
        (a00, _, _), (a10, a11, _), (a20, a21, a22) = rows
    # a non-positive pivot stops the factorization, a negative one only a verdict's
    d0 = a00.real - shift
    if not d0 > 0.0 and not (count and d0 < 0.0):  # also for a NaN pivot
        return None if count else _witness(rows, [[]], low)
    l10 = a10 / d0
    n10 = l10.real * l10.real + l10.imag * l10.imag
    sub = d0 * n10
    d1 = a11.real - shift - sub
    if not d1 > 0.0 and not (count and d1 < 0.0):
        return None if count else _witness(rows, [[], [l10]], low)
    bound = d0 + (d1 + sub)
    l20 = a20 / d0
    l21 = (a21 - l20 * d0 * l10.conjugate()) / d1
    n20 = l20.real * l20.real + l20.imag * l20.imag
    n21 = l21.real * l21.real + l21.imag * l21.imag
    sub = d0 * n20 + d1 * n21
    d2 = a22.real - shift - sub
    if not d2 > 0.0 and not (count and d2 < 0.0):
        return None if count else _witness(rows, [[], [l10], [l20, l21]], low)
    bound += d2 + sub
    if four:
        l30 = a30 / d0
        l31 = (a31 - l30 * d0 * l10.conjugate()) / d1
        l32 = (a32 - l30 * d0 * l20.conjugate() - l31 * d1 * l21.conjugate()) / d2
        n30 = l30.real * l30.real + l30.imag * l30.imag
        n31 = l31.real * l31.real + l31.imag * l31.imag
        n32 = l32.real * l32.real + l32.imag * l32.imag
        sub = d0 * n30 + d1 * n31 + d2 * n32
        d3 = a33.real - shift - sub
        if not d3 > 0.0 and not (count and d3 < 0.0):
            return None if count else _witness(
                rows, [[], [l10], [l20, l21], [l30, l31, l32]], low)
        bound += d3 + sub
    if not count:
        return True if CERT_GAMMA * bound < margin / 2.0 else None
    bound = abs(d0) * (1.0 + n10 + n20) + abs(d1) * (1.0 + n21) + abs(d2) + (
        abs(d0) * n30 + abs(d1) * n31 + abs(d2) * n32 + abs(d3) if four else 0.0)
    if not CERT_GAMMA * bound < margin / 2.0:
        return None
    return (d0 > 0.0) + (d1 > 0.0) + (d2 > 0.0) + (four and d3 > 0.0)


def _witness(rows: list, L: list, ceiling: float) -> bool | None:
    """False when a Rayleigh quotient of H provably lies below ceiling, else None.

    L holds rows 0..k of the unit lower factor, below its diagonal, and x
    solves L^dag x = e_k on the leading block, so x^dag P x = d_k <= 0.
    r = x^dag H x / x^dag x, summed on the lower triangle, bounds
    lambda_min from above; its rounding is within CERT_GAMMA |x|^T |H| |x|
    / x^dag x, at most CERT_GAMMA (k + 1) for entries of modulus <= 1.
    Written out on locals for k = 0..3, it does all of the generic loop's
    operations (the tests' frozen oracle) in its order and on its operand
    types, the float x_k = 1.0 too, so num and xx keep the loop's bits.
    """
    k = len(L) - 1
    x0 = x1 = x2 = x3 = 1.0  # x_k; back substitution gives x_k-1 .. x_0
    if k == 1:
        _, (l10,) = L
        x0 = 0.0 - l10.conjugate() * x1
    elif k == 2:
        _, (l10,), (l20, l21) = L
        x1 = 0.0 - l21.conjugate() * x2
        x0 = 0.0 - l10.conjugate() * x1 - l20.conjugate() * x2
    elif k == 3:
        _, (l10,), (l20, l21), (l30, l31, l32) = L
        x2 = 0.0 - l32.conjugate() * x3
        x1 = 0.0 - l21.conjugate() * x2 - l31.conjugate() * x3
        x0 = 0.0 - l10.conjugate() * x1 - l20.conjugate() * x2 - l30.conjugate() * x3
    # row i adds H_ii |x_i|^2 + 2 Re(conj(x_i) y_i), y_i = sum_j<i H_ij x_j, to num
    r, w = rows[0], x0.real * x0.real + x0.imag * x0.imag
    num, xx = 0.0 + (r[0].real * w + 2.0 * (x0.conjugate() * 0.0).real), 0.0 + w
    if k:
        r, w = rows[1], x1.real * x1.real + x1.imag * x1.imag
        num += r[1].real * w + 2.0 * (x1.conjugate() * (0.0 + r[0] * x0)).real
        xx += w
    if k > 1:
        r, w = rows[2], x2.real * x2.real + x2.imag * x2.imag
        num += r[2].real * w + 2.0 * (x2.conjugate() * (0.0 + r[0] * x0 + r[1] * x1)).real
        xx += w
    if k > 2:
        r, w = rows[3], x3.real * x3.real + x3.imag * x3.imag
        num += r[3].real * w + 2.0 * (
            x3.conjugate() * (0.0 + r[0] * x0 + r[1] * x1 + r[2] * x2)).real
        xx += w
    if not (k + 1) * xx < math.inf:  # no product above overflowed
        return None
    return False if num / xx + CERT_GAMMA * (k + 1) < ceiling else None


def eigvals_hermitian4(M: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a 4x4 Hermitian matrix; any other shape is a ValueError."""
    what = "Hermitian matrix"
    return _array(_eigvals(_hermitian_rows(_rows(M, (4, 4), what), what)))


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
    dtype = _array(M).dtype
    return _array(_partial_transpose(_rows(M, (4, 4), "two-qubit operator", dtype=dtype)), dtype)


def _partial_transpose(rows: list) -> list:
    """The partial transpose of a 4x4 matrix's rows: entry (2a + b, 2c + d) is M[2a + d][2c + b]."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = rows
    return [
        [m00, m10, m02, m12],
        [m01, m11, m03, m13],
        [m20, m30, m22, m32],
        [m21, m31, m23, m33],
    ]
