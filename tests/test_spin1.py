"""Spin-1 algebra and two-qubit bridge tests.

The algebraic identities hold exactly in floating point because every
operator entry is 0 or +-1 or +-i; those are checked with array_equal.
Bridge properties are checked against numpy eigensolvers, and the bridge
itself against the Pauli-operator formulas it replaces: the Kronecker
sum for the image, the Pauli traces for the way back.
"""

import numpy as np
import pytest

from qutrit3d.errors import InvalidStateError, NotSymmetricError
from qutrit3d.spin1 import (
    expectations,
    from_two_qubit,
    ppt_separable,
    singlet_overlap,
    spin_set,
    to_two_qubit,
)
from qutrit3d.state import compose, decompose, params_from_bloch_tensor, random_density

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
EYE2 = np.eye(2)


def kron_image(rho):
    """(1/4) [1x1 + sum_j a_j (s_j x 1 + 1 x s_j) + sum_jk T_jk s_j x s_k]."""
    p = decompose(rho)
    out = np.kron(EYE2, EYE2).astype(complex)
    for j in range(3):
        out += p.a[j] * (np.kron(PAULI[j], EYE2) + np.kron(EYE2, PAULI[j]))
        for k in range(3):
            out += p.T[j, k] * np.kron(PAULI[j], PAULI[k])
    return out / 4.0


def pauli_traces(rho4):
    """The two local Bloch vectors and the correlation matrix, tr(rho4 s x s')."""
    def tr(A, B):
        return np.trace(rho4 @ np.kron(A, B)).real

    a1 = np.array([tr(s, EYE2) for s in PAULI])
    a2 = np.array([tr(EYE2, s) for s in PAULI])
    return a1, a2, np.array([[tr(s, t) for t in PAULI] for s in PAULI])


def trace_preimage(rho4):
    a1, a2, T = pauli_traces(rho4)
    return compose(params_from_bloch_tensor((a1 + a2) / 2.0, T))


def test_spin_matrices_entries():
    S = spin_set().S
    assert np.array_equal(S[0], np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]))
    assert np.array_equal(S[1], np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]]))
    assert np.array_equal(S[2], np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]))


def test_spin_tables_are_the_products_bit_for_bit():
    """The constant tables give the arrays that -1j * eps and its matmuls gave, signed zeros included."""
    eps = np.zeros((3, 3, 3))
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[j, k, l] = 1.0
        eps[j, l, k] = -1.0
    S = tuple(-1j * eps[j] for j in range(3))
    S2 = tuple(Sj @ Sj for Sj in S)
    A = tuple(S[k] @ S[l] + S[l] @ S[k] for k, l in ((1, 2), (2, 0), (0, 1)))
    ops = spin_set()
    for got, want in zip((*ops.S, *ops.S2, *ops.A), (*S, *S2, *A)):
        assert got.dtype == want.dtype and got.flags.writeable
        assert got.tobytes() == want.tobytes()


def test_spin_squares_and_completeness():
    ops = spin_set()
    assert np.array_equal(ops.S2[0], np.diag([0.0, 1.0, 1.0]).astype(complex))
    assert np.array_equal(ops.S2[1], np.diag([1.0, 0.0, 1.0]).astype(complex))
    assert np.array_equal(ops.S2[2], np.diag([1.0, 1.0, 0.0]).astype(complex))
    assert np.array_equal(sum(ops.S2), 2.0 * np.eye(3).astype(complex))


def test_commutation_relations():
    S = spin_set().S
    eps = np.zeros((3, 3, 3))
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[j, k, l] = 1.0
        eps[j, l, k] = -1.0
    for j in range(3):
        for k in range(3):
            comm = S[j] @ S[k] - S[k] @ S[j]
            expected = 1j * sum(eps[j, k, l] * S[l] for l in range(3))
            assert np.array_equal(comm, expected)


def test_anticommutators():
    A = spin_set().A
    assert np.array_equal(A[0], np.array([[0, 0, 0], [0, 0, -1], [0, -1, 0]]).astype(complex))
    assert np.array_equal(A[1], np.array([[0, 0, -1], [0, 0, 0], [-1, 0, 0]]).astype(complex))
    assert np.array_equal(A[2], np.array([[0, -1, 0], [-1, 0, 0], [0, 0, 0]]).astype(complex))


def test_anticommutator_twist_identity():
    # A_j = S_{j+}^2 - S_{j-}^2 with S_{j +-} = (S_k +- S_l)/sqrt(2)
    S = spin_set().S
    A = spin_set().A
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        plus = (S[k] + S[l]) / np.sqrt(2.0)
        minus = (S[k] - S[l]) / np.sqrt(2.0)
        assert np.max(np.abs(A[j] - (plus @ plus - minus @ minus))) < 1e-12


def test_expectations_match_decompose():
    rng = np.random.default_rng(211)
    for _ in range(300):
        rho = random_density(rank=3, rng=rng)
        via_ops = expectations(rho)
        via_entries = decompose(rho)
        assert np.max(np.abs(via_ops.a - via_entries.a)) < 1e-12
        assert np.max(np.abs(via_ops.q - via_entries.q)) < 1e-12
        assert np.max(np.abs(via_ops.omega - via_entries.omega)) < 1e-12
        assert np.max(np.abs(via_ops.T - via_entries.T)) < 1e-12


def test_bridge_of_maximally_mixed_is_projector():
    rho4 = to_two_qubit(np.eye(3) / 3.0)
    p_sym = np.eye(4) - np.outer(SINGLET, SINGLET)
    assert np.max(np.abs(rho4 - p_sym / 3.0)) < 1e-14


def test_bridge_spectrum_and_singlet():
    rng = np.random.default_rng(223)
    for _ in range(200):
        rho = random_density(rank=int(rng.integers(1, 4)), rng=rng)
        rho4 = to_two_qubit(rho)
        assert np.max(np.abs(rho4 - kron_image(rho))) <= 1e-15
        assert np.array_equal(rho4, rho4.conj().T)
        assert abs(np.trace(rho4).real - 1.0) < 1e-12
        assert singlet_overlap(rho4) == 0.0
        got = np.sort(np.linalg.eigvalsh(rho4))
        want = np.sort(np.concatenate([np.linalg.eigvalsh(rho), [0.0]]))
        assert np.max(np.abs(got - want)) < 1e-10


def test_bridge_round_trip():
    rng = np.random.default_rng(227)
    for _ in range(200):
        rho = random_density(rank=int(rng.integers(1, 4)), rng=rng)
        rho4 = to_two_qubit(rho)
        back = from_two_qubit(rho4)
        assert np.max(np.abs(back - trace_preimage(rho4))) <= 1e-15
        assert np.array_equal(back, back.conj().T)
        assert np.max(np.abs(back - rho)) < 1e-13


def test_to_two_qubit_rejects_invalid():
    with pytest.raises(InvalidStateError):
        to_two_qubit(np.diag([1.2, 0.1, -0.3]).astype(complex))


def test_from_two_qubit_rejects_asymmetric():
    # each perturbation moves its own Pauli-trace difference by 2 * 0.05,
    # and the error message reports that difference
    rho4 = to_two_qubit(random_density(rank=3, rng=np.random.default_rng(229)))
    for j, (k, l) in enumerate(((1, 2), (2, 0), (0, 1))):
        swap = np.kron(PAULI[j], EYE2) - np.kron(EYE2, PAULI[j])
        twist = np.kron(PAULI[k], PAULI[l]) - np.kron(PAULI[l], PAULI[k])
        for reason, direction in (("bloch_mismatch", swap), ("tensor_asymmetry", twist)):
            bad = rho4 + 0.05 * direction / 4.0
            with pytest.raises(NotSymmetricError) as info:
                from_two_qubit(bad)
            assert info.value.reason == reason, (j, reason)
            a1, a2, T = pauli_traces(bad)
            want = np.max(np.abs(a1 - a2) if reason == "bloch_mismatch" else np.abs(T - T.T))
            assert abs(float(str(info.value).split()[-1]) - want) <= 1e-15, (j, reason)

    bad = 0.9 * rho4 + 0.1 * np.outer(SINGLET, SINGLET)
    with pytest.raises(NotSymmetricError) as info:
        from_two_qubit(bad)
    assert info.value.reason == "singlet_overlap"
    assert abs(singlet_overlap(bad) - (SINGLET @ bad @ SINGLET).real) <= 1e-15


def test_ppt_separable_known_cases():
    assert ppt_separable(np.eye(3) / 3.0)
    # a pure qutrit state maps to an entangled two-qubit pure state
    assert not ppt_separable(np.diag([1.0, 0.0, 0.0]).astype(complex))
