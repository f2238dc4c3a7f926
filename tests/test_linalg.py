"""Linear algebra kernel tests against independent references.

Eigen routines are checked against numpy's LAPACK-backed solvers, the
matrix exponential exp(-i theta G) = unitary_from_eigensystem(eig(G), theta)
against a raw Taylor series, determinants against
numpy, and the partial transpose against hand-built tensor products.
"""

import numpy as np
import pytest

from qutrit3d.errors import NotHermitianError
from qutrit3d.linalg import (
    assert_hermitian,
    det3,
    eig_hermitian3,
    eig_sym3,
    eigvals_hermitian4,
    partial_transpose,
    unitary_from_eigensystem,
)


def random_hermitian(rng, n=3, scale=1.0):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (X + X.conj().T) / 2.0


def exp_i(G, theta):
    return unitary_from_eigensystem(eig_hermitian3(G), theta)


def taylor_exp(A, terms=60):
    """exp(A) summed term by term, the dumbest possible oracle."""
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ A / n
        out = out + term
    return out


def test_eig_matches_lapack_on_random_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(500):
        M = random_hermitian(rng)
        es = eig_hermitian3(M)
        ref = np.linalg.eigvalsh(M)[::-1]
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(es.values - ref)) < 1e-12 * scale
        assert es.values[0] >= es.values[1] >= es.values[2]
        residual = M @ es.vectors - es.vectors * es.values
        assert np.max(np.abs(residual)) < 1e-10
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_eig_phase_gauge():
    rng = np.random.default_rng(11)
    for _ in range(200):
        es = eig_hermitian3(random_hermitian(rng))
        for k in range(3):
            v = es.vectors[:, k]
            pivot = v[np.argmax(np.abs(v))]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0


def test_eig_bitwise_deterministic():
    rng = np.random.default_rng(13)
    M = random_hermitian(rng)
    a = eig_hermitian3(M)
    b = eig_hermitian3(M)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eig_fully_degenerate():
    es = eig_hermitian3(np.eye(3) / 3.0)
    assert np.allclose(es.values, 1.0 / 3.0, atol=1e-15)
    assert np.max(np.abs(es.vectors - np.eye(3))) < 1e-14


def test_eig_degenerate_pair_diagonal():
    es = eig_hermitian3(np.diag([0.5, 0.5, 0.0]).astype(complex))
    assert np.allclose(es.values, [0.5, 0.5, 0.0], atol=1e-15)
    assert np.max(np.abs(es.vectors - np.eye(3))) < 1e-14


def test_eig_degenerate_pair_rotated():
    rng = np.random.default_rng(17)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        M = Q @ np.diag([0.4, 0.4, 0.2]) @ Q.conj().T
        M = (M + M.conj().T) / 2.0
        es = eig_hermitian3(M)
        assert np.allclose(es.values, [0.4, 0.4, 0.2], atol=1e-10)
        residual = M @ es.vectors - es.vectors * es.values
        assert np.max(np.abs(residual)) < 1e-10
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        # determinism on the degenerate subspace
        again = eig_hermitian3(M)
        assert np.array_equal(es.vectors, again.vectors)


def test_eig_sym3_returns_real_vectors():
    rng = np.random.default_rng(19)
    for _ in range(200):
        X = rng.standard_normal((3, 3))
        T = (X + X.T) / 2.0
        vals, vecs = eig_sym3(T)
        assert vecs.dtype.kind == "f"
        residual = T @ vecs - vecs * vals
        assert np.max(np.abs(residual)) < 1e-10


def test_eigvals_hermitian4_matches_lapack():
    rng = np.random.default_rng(23)
    for _ in range(300):
        M = random_hermitian(rng, n=4)
        vals = eigvals_hermitian4(M)
        ref = np.linalg.eigvalsh(M)[::-1]
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(vals - ref)) < 1e-12 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_assert_hermitian_rejects_nonfinite(value):
    M = np.eye(3, dtype=complex) / 3.0
    M[1, 1] = value
    with pytest.raises(NotHermitianError):
        assert_hermitian(M)
    with pytest.raises(NotHermitianError):
        eig_hermitian3(M)


def test_det3_matches_numpy():
    rng = np.random.default_rng(29)
    for _ in range(300):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ref = np.linalg.det(M)
        assert abs(det3(M) - ref) < 1e-12 * max(1.0, abs(ref))


def test_exp_theta_zero_is_identity():
    rng = np.random.default_rng(37)
    G = random_hermitian(rng)
    U = exp_i(G, 0.0)
    assert np.max(np.abs(U - np.eye(3))) < 1e-14


def test_exp_matches_taylor_series():
    rng = np.random.default_rng(41)
    for _ in range(100):
        G = random_hermitian(rng)
        for theta in (0.3, -1.1, 2.5):
            U = exp_i(G, theta)
            ref = taylor_exp(-1j * theta * G)
            assert np.max(np.abs(U - ref)) < 1e-12
            assert np.max(np.abs(U @ U.conj().T - np.eye(3))) < 1e-12


def test_exp_spin_z_closed_form():
    # (S_z)_{kl} = -i eps_{zkl}
    Sz = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    U = exp_i(Sz, 2 * np.pi)
    assert np.max(np.abs(U - np.eye(3))) < 1e-12
    U = exp_i(Sz, np.pi)
    assert np.max(np.abs(U - np.diag([-1.0, -1.0, 1.0]))) < 1e-12


def test_unitary_from_eigensystem_matches_direct():
    rng = np.random.default_rng(43)
    G = random_hermitian(rng)
    es = eig_hermitian3(G)
    for theta in np.linspace(-3.0, 3.0, 13):
        A = exp_i(G, float(theta))
        B = unitary_from_eigensystem(es, float(theta))
        assert np.max(np.abs(A - B)) < 1e-14


def test_partial_transpose_involution_and_products():
    rng = np.random.default_rng(47)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(partial_transpose(partial_transpose(M)), M)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.max(np.abs(partial_transpose(np.kron(A, B)) - np.kron(A, B.T))) < 1e-15


def test_partial_transpose_singlet():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    pt = partial_transpose(rho)
    assert abs(np.trace(pt) - 1.0) < 1e-15
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-15
    vals = eigvals_hermitian4(pt)
    assert abs(vals[-1] + 0.5) < 1e-12
