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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NotSymmetricError, TraceError
from .linalg import assert_hermitian, eigvals_hermitian4, partial_transpose
from .state import StateParams, assert_density, check_state
from .tolerances import HERM_TOL, RANK_TOL, TRACE_TOL

_EPS = np.zeros((3, 3, 3))
for _j, _k, _l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_j, _k, _l] = 1.0
    _EPS[_j, _l, _k] = -1.0

# B = sqrt(2) [t_x t_y t_z psi_-], rows |00>, |01>, |10>, |11>
_B = ((-1, 1j, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1), (1, 1j, 0, 0))
# the nonzero entries of the rows of sqrt(2) W = B[:, :3] and of B^dag
_TRIPLET_ROWS = tuple(tuple((j, c) for j, c in enumerate(row[:3]) if c) for row in _B)
_B_DAG_ROWS = tuple(
    tuple((p, row[j].conjugate()) for p, row in enumerate(_B) if row[j]) for j in range(4)
)


@dataclass(frozen=True)
class Spin1Set:
    """The spin matrices, their squares and the symmetrized products."""

    S: tuple[np.ndarray, np.ndarray, np.ndarray]
    S2: tuple[np.ndarray, np.ndarray, np.ndarray]
    A: tuple[np.ndarray, np.ndarray, np.ndarray]


def spin_set() -> Spin1Set:
    """Build (S_j, S_j^2, A_j) with exact 0 / +-1 / +-i entries."""
    S = tuple(-1j * _EPS[j] for j in range(3))
    S2 = tuple(Sj @ Sj for Sj in S)
    A = tuple(
        S[k] @ S[l] + S[l] @ S[k]
        for k, l in ((1, 2), (2, 0), (0, 1))
    )
    return Spin1Set(S=S, S2=S2, A=A)


def expectations(rho: np.ndarray) -> StateParams:
    """Recover (a, q, omega, T) purely from operator expectation values."""
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


def _half_sandwich(rows, A) -> list:
    """(1/2) X H X^dag as nested lists of Python complex, H the Hermitian part of A.

    ``rows`` holds the nonzero (column, entry) pairs of each row of X.
    The entries are +-1 or +-i, so every product is exact and only the
    sums round.  One triangle is summed and mirrored: the result is
    exactly Hermitian, with a real diagonal and no -0.0 imaginary part.
    """
    A = np.asarray(A, dtype=complex).tolist()
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
    """Embed a qutrit state into the symmetric two-qubit sector: W h W^dag.

    This equals (1/4) [1x1 + sum_j a_j (s_j x 1 + 1 x s_j)
                       + sum_jk T_jk s_j x s_k].
    The image has the same spectrum plus one extra zero, and zero overlap
    with the singlet.
    """
    return np.array(_half_sandwich(_TRIPLET_ROWS, check_state(rho)))


def singlet_overlap(rho4: np.ndarray) -> float:
    """<psi_- | rho4 | psi_->, exactly zero on the symmetric sector."""
    return _half_sandwich(_B_DAG_ROWS[3:], rho4)[0][0].real


def from_two_qubit(rho4: np.ndarray) -> np.ndarray:
    """Project a symmetric two-qubit state back to the qutrit picture.

    Returns the 3x3 block of M = (1/2) B^dag rho4 B.  Checks, in order:
    NotHermitianError when rho4 is not Hermitian, ValueError when an entry
    is too large; then M's singlet row raises NotSymmetricError when the two
    local Bloch vectors differ (reason "bloch_mismatch";
    4 max|Re <t_j|rho4|psi_->| = max|a1 - a2|), the correlation matrix is
    asymmetric (reason "tensor_asymmetry"; 4 max|Im <t_j|rho4|psi_->| =
    max|T - T^T|) or the state leaks onto the singlet (reason
    "singlet_overlap"); last, TraceError when the block's trace is not 1.
    """
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got {rho4.shape}")
    assert_hermitian(rho4, what="two-qubit state")
    M = _half_sandwich(_B_DAG_ROWS, rho4)
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
    return np.array([row[:3] for row in M[:3]])


def ppt_separable(rho: np.ndarray) -> bool:
    """Positive partial transpose test in the two-qubit picture.

    For two qubits PPT is necessary and sufficient, so this decides
    separability of the symmetric image exactly.
    """
    rho4 = to_two_qubit(rho)
    vals = eigvals_hermitian4(partial_transpose(rho4))
    return bool(vals[-1] >= -RANK_TOL)
