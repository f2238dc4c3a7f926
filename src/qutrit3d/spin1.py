"""Spin-1 operator algebra and the symmetric two-qubit bridge.

The spin matrices (S_j)_{kl} = -i eps_{jkl} generate the parametrization
operationally: a_j = <S_j>, omega_j = 1 - <S_j^2>, q_j = <A_j> with
A_j = S_k S_l + S_l S_k.  A qutrit is also the symmetric sector of two
qubits; the bridge maps between both pictures and enables the partial
transpose separability test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NotSymmetricError, TraceError
from .linalg import assert_hermitian, eigvals_hermitian4, partial_transpose
from .state import (
    StateParams, _params, assert_density, check_state, compose, params_from_bloch_tensor
)
from .tolerances import HERM_TOL, RANK_TOL, TWO_QUBIT_TRACE_TOL

_EPS = np.zeros((3, 3, 3))
for _j, _k, _l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_j, _k, _l] = 1.0
    _EPS[_j, _l, _k] = -1.0

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


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


def to_two_qubit(rho: np.ndarray) -> np.ndarray:
    """Embed a qutrit state into the symmetric two-qubit sector.

    rho4 = (1/4) [1x1 + sum_j a_j (s_j x 1 + 1 x s_j)
                  + sum_jk T_jk s_j x s_k]
    The image has the same spectrum plus one extra zero, and zero overlap
    with the singlet.
    """
    rho = check_state(rho)
    # <S_j> as in expectations; 2 Im(rho_lk) differs in the last bit off exact Hermiticity
    a = np.array([np.trace(rho @ Sj).real for Sj in spin_set().S])
    T = _params(rho).T
    eye2 = np.eye(2, dtype=complex)
    out = np.kron(eye2, eye2).astype(complex)
    for j in range(3):
        out += a[j] * (np.kron(PAULI[j], eye2) + np.kron(eye2, PAULI[j]))
        for k in range(3):
            out += T[j, k] * np.kron(PAULI[j], PAULI[k])
    return out / 4.0


def singlet_overlap(rho4: np.ndarray) -> float:
    """<psi_- | rho4 | psi_->, exactly zero on the symmetric sector."""
    rho4 = np.asarray(rho4, dtype=complex)
    return float(np.real(_SINGLET.conj() @ rho4 @ _SINGLET))


def from_two_qubit(rho4: np.ndarray) -> np.ndarray:
    """Project a symmetric two-qubit state back to the qutrit picture.

    Raises NotHermitianError or TraceError when rho4 is not Hermitian or
    not of trace one, and NotSymmetricError when the two local Bloch vectors differ
    (reason "bloch_mismatch"), the correlation matrix is asymmetric
    (reason "tensor_asymmetry") or the state leaks onto the singlet
    (reason "singlet_overlap").
    """
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got {rho4.shape}")
    assert_hermitian(rho4, what="two-qubit state")
    tr = complex(np.trace(rho4))
    if abs(tr - 1.0) > TWO_QUBIT_TRACE_TOL:
        raise TraceError(f"two-qubit trace = {tr.real:.15g}, expected 1")
    eye2 = np.eye(2, dtype=complex)
    a1 = np.array([np.trace(rho4 @ np.kron(PAULI[j], eye2)).real for j in range(3)])
    a2 = np.array([np.trace(rho4 @ np.kron(eye2, PAULI[j])).real for j in range(3)])
    if float(np.max(np.abs(a1 - a2))) > HERM_TOL:
        raise NotSymmetricError(
            "bloch_mismatch",
            f"local Bloch vectors differ by {np.max(np.abs(a1 - a2)):.3e}",
        )
    T = np.empty((3, 3))
    for j in range(3):
        for k in range(3):
            T[j, k] = np.trace(rho4 @ np.kron(PAULI[j], PAULI[k])).real
    if float(np.max(np.abs(T - T.T))) > HERM_TOL:
        raise NotSymmetricError(
            "tensor_asymmetry",
            f"correlation matrix asymmetry {np.max(np.abs(T - T.T)):.3e}",
        )
    overlap = singlet_overlap(rho4)
    if abs(overlap) > HERM_TOL:
        raise NotSymmetricError(
            "singlet_overlap", f"singlet weight {overlap:.3e} exceeds tolerance"
        )
    T = (T + T.T) / 2.0
    return compose(params_from_bloch_tensor((a1 + a2) / 2.0, T))


def ppt_separable(rho: np.ndarray) -> bool:
    """Positive partial transpose test in the two-qubit picture.

    For two qubits PPT is necessary and sufficient, so this decides
    separability of the symmetric image exactly.
    """
    rho4 = to_two_qubit(rho)
    vals = eigvals_hermitian4(partial_transpose(rho4))
    return bool(vals[-1] >= -RANK_TOL)
