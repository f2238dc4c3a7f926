"""Spin-1 operator algebra and the symmetric two-qubit bridge.

The spin matrices (S_j)_{kl} = -i eps_{jkl} generate the parametrization
operationally: a_j = <S_j>, omega_j = 1 - <S_j^2>, q_j = <A_j> with
A_j = S_k S_l + S_l S_k.

A qutrit is also the triplet (symmetric) sector of two qubits, so the
bridge is one constant basis B = sqrt(2) [t_x t_y t_z psi_-] with
t_j = (s_j x 1)|psi_->, the magic basis of Hill and Wootters.  B's
entries are 0, +-1 or +-i: the bridge runs on Python scalars, its
products are exact and only its sums round.  to_two_qubit returns
rho4 = W h W^dag with W = B[:, :3] / sqrt(2) and h = (rho + rho^dag)/2;
from_two_qubit reads (1/2) B^dag rho4 B, whose 3x3 block is the qutrit
state and whose singlet row decides whether rho4 is symmetric.  The
image also carries the partial transpose separability test.

Rows in, arrays at the edge: every matrix comes in through linalg._rows
and every result goes out through linalg._array.  _to_two_qubit and the
PPT test take a state's checked rows (state._as_rows), _from_two_qubit
checks the two-qubit rows it is handed, once.  Only the expectation
reference (expectations) computes with numpy, and imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidStateError, NotSymmetricError, TraceError
from .linalg import _array, _eigvals, _hermitian_rows, _partial_transpose, _rows
from .state import StateParams, _as_rows, _state_rows, assert_density
from .tolerances import HERM_TOL, RANK_TOL, TRACE_TOL

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

# B = sqrt(2) [t_x t_y t_z psi_-], rows |00>, |01>, |10>, |11>
_B = ((-1, 1j, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1), (1, 1j, 0, 0))
# the nonzero entries of the rows of sqrt(2) W = B[:, :3] and of B^dag
_TRIPLET_ROWS = tuple(tuple((j, c) for j, c in enumerate(row[:3]) if c) for row in _B)
_B_DAG_ROWS = tuple(
    tuple((p, row[j].conjugate()) for p, row in enumerate(_B) if row[j]) for j in range(4)
)


@dataclass(frozen=True)
class Spin1Set:
    """The spin matrices, their squares and the symmetrized products, as rows or arrays."""

    S: tuple[np.ndarray, np.ndarray, np.ndarray]
    S2: tuple[np.ndarray, np.ndarray, np.ndarray]
    A: tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _half_sandwich(rows, A: list) -> list:
    """(1/2) X H X^dag as nested lists of Python complex, H the Hermitian part of A.

    ``rows`` holds the nonzero (column, entry) pairs of each row of X,
    whose entries are +-1 or +-i, so every product is exact and only the
    sums round; A is given as rows of Python complex.  One triangle is summed and mirrored: the result is
    exactly Hermitian, with a real diagonal and no -0.0 imaginary part.
    """
    H = [[0.5 * (x + y.conjugate()) for x, y in zip(row, col)] for row, col in zip(A, zip(*A))]
    n = len(rows)
    out = [[0j] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            z = 0.5 * sum(c * H[j][k] * d.conjugate() for j, c in rows[p] for k, d in rows[q])
            out[p][q], out[q][p] = z, complex(z.real, 0.0 - z.imag)
        out[p][p] = complex(out[p][p].real)
    return out


def to_two_qubit(rho: np.ndarray) -> np.ndarray:
    """Embed a qutrit state into the symmetric two-qubit sector: W h W^dag (_to_two_qubit).

    This equals (1/4) [1x1 + sum_j a_j (s_j x 1 + 1 x s_j)
                       + sum_jk T_jk s_j x s_k].
    The image has the same spectrum plus one extra zero, and zero overlap
    with the singlet.
    """
    return _array(_to_two_qubit(_as_rows(rho)))


def _to_two_qubit(rows: list) -> list:
    """to_two_qubit of a qutrit state's checked rows; NotPositiveError unless they are a state."""
    return _half_sandwich(_TRIPLET_ROWS, _state_rows(rows))


def singlet_overlap(rho4: np.ndarray) -> float:
    """<psi_- | rho4 | psi_->, exactly zero on the symmetric sector.

    InvalidStateError unless rho4 is 4x4, NotHermitianError unless it is
    finite and Hermitian, as from_two_qubit checks it.
    """
    rows = _rows(rho4, (4, 4), "two-qubit state", InvalidStateError)
    rows = _hermitian_rows(rows, what="two-qubit state")
    return _half_sandwich(_B_DAG_ROWS[3:], rows)[0][0].real


def from_two_qubit(rho4: np.ndarray) -> np.ndarray:
    """Project a symmetric two-qubit state back to the qutrit picture (_from_two_qubit).

    InvalidStateError unless rho4 is 4x4.
    """
    return _array(_from_two_qubit(_rows(rho4, (4, 4), "two-qubit state", InvalidStateError)))


def _from_two_qubit(rows: list) -> list:
    """The 3x3 block of M = (1/2) B^dag rho4 B, of a 4x4 matrix's rows of Python complex.

    Checks, in order: NotHermitianError when rho4 is not Hermitian,
    ValueError when an entry is too large; then M's singlet row raises
    NotSymmetricError when the two local Bloch vectors differ (reason
    "bloch_mismatch"; 4 max|Re <t_j|rho4|psi_->| = max|a1 - a2|), the
    correlation matrix is asymmetric (reason "tensor_asymmetry";
    4 max|Im <t_j|rho4|psi_->| = max|T - T^T|) or the state leaks onto the
    singlet (reason "singlet_overlap"); last, TraceError when the block's
    trace is not 1.
    """
    M = _half_sandwich(_B_DAG_ROWS, _hermitian_rows(rows, what="two-qubit state"))
    mismatch = 4.0 * max(abs(M[j][3].real) for j in range(3))
    if mismatch > HERM_TOL:
        raise NotSymmetricError("bloch_mismatch", f"local Bloch vectors differ by {mismatch:.3e}")
    asymmetry = 4.0 * max(abs(M[j][3].imag) for j in range(3))
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
    separability of the symmetric image exactly.
    """
    vals = _eigvals(_partial_transpose(_to_two_qubit(_as_rows(rho))))
    return vals[-1] >= -RANK_TOL
