"""Spin-1 operator algebra and the symmetric two-qubit bridge.

The spin matrices (S_j)_{kl} = -i eps_{jkl} generate the parametrization
operationally: a_j = <S_j>, omega_j = 1 - <S_j^2>, q_j = <A_j> with
A_j = S_k S_l + S_l S_k.

A qutrit is also the triplet (symmetric) sector of two qubits, so the
bridge is one constant basis B = sqrt(2) [t_x t_y t_z psi_-] with
t_j = (s_j x 1)|psi_->, the magic basis of Hill and Wootters.
to_two_qubit returns rho4 = W h W^dag with W = B[:, :3] / sqrt(2) and
h = (rho + rho^dag)/2; from_two_qubit reads (1/2) B^dag rho4 B, whose
3x3 block is the qutrit state and whose singlet row decides whether
rho4 is symmetric.  The image also carries the partial transpose
separability test.  B's entries are 0, +-1 or +-i, so every entry of
either sandwich is a signed sum of real and imaginary parts of h:
both are written out as such sums on Python floats, in a fixed order,
and only the sums and the final complex halving round.

Rows in, arrays at the edge: every matrix comes in through linalg._rows
and every result goes out through linalg._array.  _to_two_qubit and the
PPT test take a state's checked rows (state._as_rows), _from_two_qubit
checks the two-qubit rows it is handed, once.  Only the expectation
reference (expectations) computes with numpy, and imports it.
"""

from __future__ import annotations

from .errors import InvalidStateError, NotSymmetricError, TraceError
from .linalg import _Record, _array, _hermitian_rows, _partial_transpose, _rows, _verdict
from .state import StateParams, _as_rows, _state_rows, assert_density
from .tolerances import HERM_TOL, TRACE_TOL

# eps_jkl, the Levi-Civita symbol: S_j = -i eps_j
_EPS = (
    ((0, 0, 0), (0, 0, 1), (0, -1, 0)),
    ((0, 0, -1), (0, 0, 0), (1, 0, 0)),
    ((0, 1, 0), (-1, 0, 0), (0, 0, 0)),
)
# S_j^2 = diag(1 - delta_jk), and A_j = S_k S_l + S_l S_k = -(E_kl + E_lk) for (j, k, l) cyclic
_S2 = (
    ((0, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 0)),
)
_A = (
    ((0, 0, 0), (0, 0, -1), (0, -1, 0)),
    ((0, 0, -1), (0, 0, 0), (-1, 0, 0)),
    ((0, -1, 0), (-1, 0, 0), (0, 0, 0)),
)

class Spin1Set(_Record):
    """The spin matrices, their squares and the symmetrized products, as rows or arrays."""

    __slots__ = ("S", "S2", "A")
    __setattr__ = __delattr__ = _Record._frozen

    def __init__(self, S: tuple, S2: tuple, A: tuple):
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "S2", S2)
        object.__setattr__(self, "A", A)


def _spin_rows() -> Spin1Set:
    """(S_j, S_j^2, A_j): the exact tables as tuples of rows of Python complex.

    S_j's entries are 0 - i eps_jkl, so its zeros carry an imaginary -0.0,
    as -1j * eps computes them.
    """
    S = tuple(tuple(tuple(complex(0.0, -float(x)) for x in row) for row in e) for e in _EPS)
    S2, A = (tuple(tuple(tuple(map(complex, row)) for row in M) for M in t) for t in (_S2, _A))
    return Spin1Set(S=S, S2=S2, A=A)


def spin_set() -> Spin1Set:
    """(S_j, S_j^2, A_j) as complex arrays of the exact tables (_spin_rows)."""
    r = _spin_rows()
    return Spin1Set(*(tuple(map(_array, ops)) for ops in (r.S, r.S2, r.A)))


def expectations(rho: np.ndarray) -> StateParams:
    """Recover (a, q, omega, T) purely from operator expectation values."""
    import numpy as np

    rho = np.asarray(rho, dtype=complex)
    assert_density(rho)
    ops = spin_set()
    a = np.array([np.trace(rho @ Sj).real for Sj in ops.S])
    omega = np.array([1.0 - np.trace(rho @ S2j).real for S2j in ops.S2])
    q = np.array([np.trace(rho @ Aj).real for Aj in ops.A])
    T = np.diag(1.0 - 2.0 * omega)
    T[1, 2] = T[2, 1] = q[0]
    T[0, 2] = T[2, 0] = q[1]
    T[0, 1] = T[1, 0] = q[2]
    return StateParams(a=a, q=q, omega=omega, T=T)


def to_two_qubit(rho: np.ndarray) -> np.ndarray:
    """Embed a qutrit state into the symmetric two-qubit sector: W h W^dag (_to_two_qubit).

    This equals (1/4) [1x1 + sum_j a_j (s_j x 1 + 1 x s_j)
                       + sum_jk T_jk s_j x s_k].
    The image has the same spectrum plus one extra zero, and zero overlap
    with the singlet.
    """
    return _array(_to_two_qubit(_as_rows(rho)))


def _to_two_qubit(rows: list) -> list:
    """to_two_qubit of a qutrit state's checked rows; NotPositiveError unless they are a state.

    W h W^dag = (1/2) X h X^dag with X = sqrt(2) W, whose rows are
    (-1, i, 0), (0, 0, 1), (0, 0, 1) and (1, i, 0), written out.  Entry
    (p, q) of the upper triangle sums c conj(d) h_jk over the nonzero
    c = X_pj, then d = X_qk, the order of a generic loop.  Each c conj(d)
    is +-1 or +-i, so each term is +-Re h_jk or +-Im h_jk, picked exactly,
    and h is formed on one triangle: h_kj = conj(h_jk) but for the sign
    of a zero.  A sum that starts at +0.0 is never -0.0, so the sign of a
    zero term cannot matter, and the zero Im h_jj are left out.  The
    halving stays a complex product: its real part's zero sign can
    depend on the imaginary sum.
    """
    _state_rows(rows)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    r00, r11 = 0.5 * (a00.real + a00.real), 0.5 * (a11.real + a11.real)
    r22 = 0.5 * (a22.real + a22.real)
    r01, i01 = 0.5 * (a01.real + a10.real), 0.5 * (a01.imag - a10.imag)
    r02, i02 = 0.5 * (a02.real + a20.real), 0.5 * (a02.imag - a20.imag)
    r12, i12 = 0.5 * (a12.real + a21.real), 0.5 * (a12.imag - a21.imag)
    z01 = 0.5 * complex(0.0 - r02 - i12, 0.0 - i02 + r12)  # rows 1 and 2 of X are equal
    z11 = 0.5 * complex(0.0 + r22, 0.0)
    z13 = 0.5 * complex(0.0 + r02 - i12, 0.0 - i02 - r12)
    return _hermitian4(
        0.5 * complex(0.0 + r00 - i01 - i01 + r11, 0.0 + r01 - r01), z01, z01,
        0.5 * complex(0.0 - r00 - i01 + i01 + r11, 0.0 + r01 + r01),
        z11, z11, z13, z11, z13,
        0.5 * complex(0.0 + r00 + i01 + i01 + r11, 0.0 - r01 + r01),
    )


def _b_sandwich(rows: list) -> list:
    """M = (1/2) B^dag h B of a 4x4 matrix's rows, h their Hermitian part.

    Written out as _to_two_qubit's sandwich is, over the nonzero entries
    of the rows of B^dag: (-1, 0, 0, 1), (-i, 0, 0, -i), (0, 1, 1, 0) and
    (0, 1, -1, 0).
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    r00, r11 = 0.5 * (a00.real + a00.real), 0.5 * (a11.real + a11.real)
    r22, r33 = 0.5 * (a22.real + a22.real), 0.5 * (a33.real + a33.real)
    r01, i01 = 0.5 * (a01.real + a10.real), 0.5 * (a01.imag - a10.imag)
    r02, i02 = 0.5 * (a02.real + a20.real), 0.5 * (a02.imag - a20.imag)
    r03, i03 = 0.5 * (a03.real + a30.real), 0.5 * (a03.imag - a30.imag)
    r12, i12 = 0.5 * (a12.real + a21.real), 0.5 * (a12.imag - a21.imag)
    r13, i13 = 0.5 * (a13.real + a31.real), 0.5 * (a13.imag - a31.imag)
    r23, i23 = 0.5 * (a23.real + a32.real), 0.5 * (a23.imag - a32.imag)
    return _hermitian4(
        0.5 * complex(0.0 + r00 - r03 - r03 + r33, 0.0 - i03 + i03),
        0.5 * complex(0.0 + i03 + i03, 0.0 - r00 - r03 + r03 + r33),
        0.5 * complex(0.0 - r01 - r02 + r13 + r23, 0.0 - i01 - i02 - i13 - i23),
        0.5 * complex(0.0 - r01 + r02 + r13 - r23, 0.0 - i01 + i02 - i13 + i23),
        0.5 * complex(0.0 + r00 + r03 + r03 + r33, 0.0 + i03 - i03),
        0.5 * complex(0.0 + i01 + i02 - i13 - i23, 0.0 - r01 - r02 - r13 - r23),
        0.5 * complex(0.0 + i01 - i02 - i13 + i23, 0.0 - r01 + r02 - r13 + r23),
        0.5 * complex(0.0 + r11 + r12 + r12 + r22, 0.0 + i12 - i12),
        0.5 * complex(0.0 + r11 - r12 + r12 - r22, 0.0 - i12 - i12),
        0.5 * complex(0.0 + r11 - r12 - r12 + r22, 0.0 - i12 + i12),
    )


def _hermitian4(z00, z01, z02, z03, z11, z12, z13, z22, z23, z33) -> list:
    """The rows of the Hermitian 4x4 matrix with upper triangle z_pq and a real diagonal.

    z_qp = complex(z_pq.real, 0.0 - z_pq.imag), so no imaginary part is -0.0.
    """
    return [
        [complex(z00.real), z01, z02, z03],
        [complex(z01.real, 0.0 - z01.imag), complex(z11.real), z12, z13],
        [complex(z02.real, 0.0 - z02.imag), complex(z12.real, 0.0 - z12.imag),
         complex(z22.real), z23],
        [complex(z03.real, 0.0 - z03.imag), complex(z13.real, 0.0 - z13.imag),
         complex(z23.real, 0.0 - z23.imag), complex(z33.real)],
    ]


def singlet_overlap(rho4: np.ndarray) -> float:
    """<psi_- | rho4 | psi_->, exactly zero on the symmetric sector.

    InvalidStateError unless rho4 is 4x4, NotHermitianError unless it is
    finite and Hermitian, as from_two_qubit checks it.
    """
    rows = _rows(rho4, (4, 4), "two-qubit state", InvalidStateError)
    rows = _hermitian_rows(rows, what="two-qubit state")
    return _b_sandwich(rows)[3][3].real


def from_two_qubit(rho4: np.ndarray) -> np.ndarray:
    """Project a symmetric two-qubit state back to the qutrit picture (_from_two_qubit).

    InvalidStateError unless rho4 is 4x4.
    """
    return _array(_from_two_qubit(_rows(rho4, (4, 4), "two-qubit state", InvalidStateError)))


def _from_two_qubit(rows: list) -> list:
    """The 3x3 block of M = (1/2) B^dag rho4 B, of a 4x4 matrix's rows of Python complex.

    Checks, in order: NotHermitianError when rho4 is not Hermitian,
    ValueError when an entry is too large; then M's singlet column, read as
    three locals, raises NotSymmetricError when the two local Bloch vectors
    differ (reason "bloch_mismatch"; 4 max|Re <t_j|rho4|psi_->| = max|a1 - a2|),
    the correlation matrix is asymmetric (reason "tensor_asymmetry";
    4 max|Im <t_j|rho4|psi_->| = max|T - T^T|) or the state leaks onto the
    singlet (reason "singlet_overlap"); last, TraceError when the block's
    trace is not 1.
    """
    M = _b_sandwich(_hermitian_rows(rows, what="two-qubit state"))
    m03, m13, m23 = M[0][3], M[1][3], M[2][3]
    mismatch = 4.0 * max(abs(m03.real), abs(m13.real), abs(m23.real))
    if mismatch > HERM_TOL:
        raise NotSymmetricError("bloch_mismatch", f"local Bloch vectors differ by {mismatch:.3e}")
    asymmetry = 4.0 * max(abs(m03.imag), abs(m13.imag), abs(m23.imag))
    if asymmetry > HERM_TOL:
        raise NotSymmetricError(
            "tensor_asymmetry", f"correlation matrix asymmetry {asymmetry:.3e}"
        )
    overlap = M[3][3].real
    if abs(overlap) > HERM_TOL:
        raise NotSymmetricError(
            "singlet_overlap", f"singlet weight {overlap:.3e} exceeds tolerance"
        )
    tr = M[0][0].real + M[1][1].real + M[2][2].real
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"two-qubit triplet trace = {tr:.15g}, expected 1")
    return [row[:3] for row in M[:3]]


def ppt_separable(rho: np.ndarray) -> bool:
    """Positive partial transpose test in the two-qubit picture.

    For two qubits PPT is necessary and sufficient, so this decides
    separability of the symmetric image exactly.  The verdict is a
    state's, linalg._verdict of the partial transpose: lambda_min >=
    -RANK_TOL as the Jacobi finds it, proven without the solve where it can be.
    """
    return _verdict(_partial_transpose(_to_two_qubit(_as_rows(rho))))[0]
