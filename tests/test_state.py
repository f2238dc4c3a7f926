"""State parametrization tests.

Positivity reference is numpy's eigvalsh; geometry reference values are
worked out by hand from the diagonal-tensor form of the state.
"""

import numpy as np
import pytest

from qutrit3d.errors import InconsistentParamsError, MetricUndefinedError, TraceError
from qutrit3d.linalg import det3
from qutrit3d.state import (
    FULL_3D,
    POINT,
    SEGMENT_ENDPOINT,
    SEGMENT_INTERIOR,
    SURFACE_3D,
    analyse,
    classify_rank,
    compose,
    decompose,
    gamma_norm,
    metric_tensor,
    params_from_bloch_tensor,
    random_density,
    semi_axes,
    validate,
)


def random_trace_one_hermitian(rng, spread=1.0):
    """Hermitian, trace one, but arbitrary spectrum: not always a state."""
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = spread * (X + X.conj().T) / 2.0
    return H + (1.0 - np.trace(H).real) / 3.0 * np.eye(3)


def test_decompose_known_pure_state():
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p = decompose(rho)
    assert np.allclose(p.T, np.diag([-1.0, 1.0, 1.0]), atol=1e-15)
    assert np.allclose(p.omega, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(p.a, 0.0, atol=1e-15)
    assert np.allclose(p.q, 0.0, atol=1e-15)


def test_scalar_params_are_the_numpy_expressions_bit_for_bit():
    """(a, q, omega, T) and Gamma on Python floats equal the numpy formulas they replace.

    Zero entries included: eye(3) - 2 Re(rho) gives +0.0 off the diagonal
    where rho has a zero, and -0.0 would reach the JSON report.
    """
    rng = np.random.default_rng(71)
    diagonal = [np.diag([0.5, 0.3, 0.2]), np.eye(3) / 3.0, np.diag([1.0, 0.0, 0.0])]
    for rho in [*diagonal, *(random_density(i % 3 + 1, rng) for i in range(60))]:
        rho = np.asarray(rho, dtype=complex)
        T = np.eye(3) - 2.0 * rho.real
        T = (T + T.T) / 2.0
        p = decompose(rho)
        assert p.T.tobytes() == T.tobytes()
        a = 2.0 * np.array([rho[2, 1].imag, rho[0, 2].imag, rho[1, 0].imag])
        assert p.a.tobytes() == a.tobytes()
        assert p.q.tobytes() == np.array([T[1, 2], T[0, 2], T[0, 1]]).tobytes()
        assert p.omega.tobytes() == ((1.0 - np.diag(T)) / 2.0).tobytes()
        m = metric_tensor(p.T)
        if m.defined:
            one_minus = np.eye(3) - T
            assert m.gamma.tobytes() == (one_minus / det3(one_minus.tolist())).tobytes()


def test_decompose_theta_family():
    # (cos t, i sin t, 0) has a = (0, 0, sin 2t), T = diag(-cos 2t, cos 2t, 1)
    for t in (0.2, np.pi / 6, 1.1):
        psi = np.array([np.cos(t), 1j * np.sin(t), 0.0])
        p = decompose(np.outer(psi, psi.conj()))
        assert np.allclose(p.a, [0.0, 0.0, np.sin(2 * t)], atol=1e-15)
        assert np.allclose(
            p.T, np.diag([-np.cos(2 * t), np.cos(2 * t), 1.0]), atol=1e-15
        )


def test_compose_layout():
    # diagonal 1/3 everywhere plus a z Bloch component puts -i a_z / 2 at [0][1]
    p = params_from_bloch_tensor([0.0, 0.0, 2.0 / 3.0], np.eye(3) / 3.0)
    rho = compose(p)
    expected = np.array(
        [
            [1 / 3, -1j / 3, 0],
            [1j / 3, 1 / 3, 0],
            [0, 0, 1 / 3],
        ]
    )
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_roundtrip_random():
    rng = np.random.default_rng(101)
    for _ in range(500):
        rho = random_density(rank=3, rng=rng)
        back = compose(decompose(rho))
        assert np.max(np.abs(back - rho)) < 1e-14


def test_roundtrip_from_params():
    rng = np.random.default_rng(103)
    for _ in range(200):
        rho = random_density(rank=int(rng.integers(1, 4)), rng=rng)
        p = decompose(rho)
        p2 = decompose(compose(p))
        assert np.max(np.abs(p2.a - p.a)) < 1e-14
        assert np.max(np.abs(p2.T - p.T)) < 1e-14


def test_compose_rejects_inconsistent_params():
    p = params_from_bloch_tensor([0.0, 0.0, 0.5], np.eye(3) / 3.0)
    p.omega = p.omega + np.array([0.1, -0.1, 0.0])
    with pytest.raises(InconsistentParamsError):
        compose(p)
    asym = params_from_bloch_tensor([0.0, 0.0, 0.0], np.eye(3) / 3.0)
    asym.T = asym.T.copy()
    asym.T[0, 1] = 0.2
    with pytest.raises(InconsistentParamsError):
        compose(asym)
    # a non-finite entry of any field: compose used to return a NaN matrix,
    # which validate then called a non-Hermitian density matrix
    for name in ("a", "q", "omega", "T"):
        for bad in (np.nan, np.inf, -np.inf):
            p = params_from_bloch_tensor([0.0, 0.0, 0.5], np.eye(3) / 3.0)
            value = getattr(p, name).copy()
            value.flat[1] = bad
            setattr(p, name, value)
            for fn in (compose, validate):
                with pytest.raises(InconsistentParamsError, match=f"^{name} has a non-finite entry$"):
                    fn(p)


def test_compose_rejects_bad_trace():
    p = params_from_bloch_tensor([0.0, 0.0, 0.0], np.eye(3) / 2.0)
    with pytest.raises(InconsistentParamsError):
        compose(p)


def test_decompose_rejects_bad_trace():
    with pytest.raises(TraceError):
        decompose(np.eye(3))


def test_validate_agrees_with_spectrum():
    rng = np.random.default_rng(107)
    disagreements = 0
    for _ in range(2000):
        H = random_trace_one_hermitian(rng, spread=0.5)
        verdict = validate(decompose(H)).overall
        oracle = np.linalg.eigvalsh(H)[0] >= -1e-9
        disagreements += verdict != oracle
    assert disagreements == 0


def test_validate_equality_boundary():
    # |a| = 2/3 with tensor 1/3: determinant minor is exactly zero
    p = params_from_bloch_tensor([0.0, 0.0, 2.0 / 3.0], np.eye(3) / 3.0)
    rep = validate(p)
    assert rep.overall
    p = params_from_bloch_tensor([0.0, 0.0, 2.0 / 3.0 + 1e-6], np.eye(3) / 3.0)
    assert not validate(p).overall


def test_metric_tensor_values():
    m = metric_tensor(np.eye(3) / 3.0)
    assert m.defined
    assert np.allclose(m.gamma, 2.25 * np.eye(3), atol=1e-14)
    m = metric_tensor(np.diag([-1.0, 1.0, 1.0]))
    assert not m.defined
    assert m.gamma is None


def test_gamma_norm_values():
    T = np.eye(3) / 3.0
    assert abs(gamma_norm([0.0, 0.0, 2.0 / 3.0], T) - 1.0) < 1e-14
    assert abs(gamma_norm([0.0, 0.0, 1.0 / 3.0], T) - 0.25) < 1e-14
    with pytest.raises(MetricUndefinedError):
        gamma_norm([0.0, 0.0, 0.0], np.diag([-1.0, 1.0, 1.0]))


def test_gamma_norm_is_validity_when_metric_defined():
    rng = np.random.default_rng(109)
    for _ in range(500):
        rho = random_density(rank=3, rng=rng)
        p = decompose(rho)
        assert gamma_norm(p.a, p.T) <= 1.0 + 1e-9
    # outside the ellipsoid: scale the Bloch vector past the boundary
    p = params_from_bloch_tensor([0.0, 0.0, 0.7], np.eye(3) / 3.0)
    assert gamma_norm(p.a, p.T) > 1.0
    assert not validate(p).overall


def test_semi_axes_values():
    assert np.allclose(semi_axes([1.0, 1.0, -1.0]), 0.0, atol=1e-15)
    assert np.allclose(semi_axes([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-15)
    # maximally mixed: all eigenvalues 1/3, all axes 2/3
    assert np.allclose(semi_axes([1 / 3, 1 / 3, 1 / 3]), 2 / 3, atol=1e-15)
    # clamping: slightly super-unit eigenvalue must not produce nan
    eps = semi_axes([1.0 + 1e-12, 1.0 - 1e-12, -1.0])
    assert np.all(np.isfinite(eps))


def test_classify_rank_cases():
    assert classify_rank(np.eye(3) / 3.0).case == FULL_3D
    assert classify_rank(np.diag([1.0, 0.0, 0.0]).astype(complex)).case == POINT
    assert classify_rank(np.diag([0.5, 0.5, 0.0]).astype(complex)).case == SEGMENT_INTERIOR

    t = np.pi / 6
    psi = np.array([np.cos(t), 1j * np.sin(t), 0.0])
    rep = classify_rank(np.outer(psi, psi.conj()))
    assert rep.rank == 1
    assert rep.case == SEGMENT_ENDPOINT

    rng = np.random.default_rng(113)
    for _ in range(100):
        rep = classify_rank(random_density(rank=3, rng=rng))
        assert rep.rank == 3 and rep.case == FULL_3D
        rep = classify_rank(random_density(rank=2, rng=rng))
        assert rep.rank == 2 and rep.case in (SURFACE_3D, SEGMENT_INTERIOR)
        rep = classify_rank(random_density(rank=1, rng=rng))
        assert rep.rank == 1 and rep.case in (SEGMENT_ENDPOINT, POINT)


def test_classify_rank_surface():
    # generic rank-2 states keep all three axes alive
    rng = np.random.default_rng(127)
    cases = {classify_rank(random_density(rank=2, rng=rng)).case for _ in range(50)}
    assert cases == {SURFACE_3D}


def test_random_density_rank_and_reproducibility():
    rng = np.random.default_rng(131)
    for rank in (1, 2, 3):
        for _ in range(50):
            rho = random_density(rank=rank, rng=rng)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
            vals = np.linalg.eigvalsh(rho)
            assert np.sum(vals > 1e-9) == rank
            assert vals[0] >= -1e-12
    a = random_density(rank=3, rng=12345)
    b = random_density(rank=3, rng=12345)
    assert np.array_equal(a, b)


def test_is_valid_density():
    assert analyse(np.eye(3) / 3.0).validity.overall
    assert not analyse(np.diag([1.1, 0.1, -0.2]).astype(complex)).validity.overall
    with pytest.raises(TraceError):
        analyse(np.eye(3))


# near-pure state whose -2.6e-6 eigenvalue hides below the minor-value
# slack: the 2x2 and determinant minors scale like products of the two
# small roots, so every minor sits inside -1e-9 while the spectrum is
# clearly negative.  The overall verdict must follow the spectrum.
_BAND_RE = [
    [0.3057079249615239, -0.19787706930587737, 0.2615779954230184],
    [-0.19787706930587737, 0.4665614830363064, -0.2056947091470476],
    [0.2615779954230184, -0.2056947091470476, 0.22773059200216988],
]
_BAND_IM = [
    [0.0, 0.3216715807507223, -0.03457242062812014],
    [-0.3216715807507223, 0.0, -0.25286694546537736],
    [0.03457242062812014, 0.25286694546537736, 0.0],
]


def band_case_density():
    M = np.array(_BAND_RE) + 1j * np.array(_BAND_IM)
    M = (M + M.conj().T) / 2.0
    return M / np.trace(M).real


def test_validate_overall_follows_spectrum_not_minor_slack():
    M = band_case_density()
    assert np.linalg.eigvalsh(M)[0] < -1e-6
    v = validate(decompose(M))
    assert v.c1_ok and v.c2_ok and v.c3_ok
    assert not v.overall
