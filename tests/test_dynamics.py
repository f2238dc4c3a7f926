"""Dynamics tests.

Conservation laws are checked against numpy spectra and determinants;
rotation covariance is pinned by direct conjugation followed by
parameter extraction.
"""

import numpy as np
import pytest

from qutrit3d.dynamics import (
    Generator,
    canonical_generators,
    custom,
    evolve,
    generator_label,
    generator_matrix,
    one_axis_twist,
    rotation,
    trajectory,
    two_axis_counter,
)
from qutrit3d.errors import InvalidStateError, NotHermitianError
from qutrit3d.purestates import pseudo_qubit
from qutrit3d.state import decompose, gamma_norm, random_density


def test_generator_matrices():
    Sz = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    assert np.array_equal(generator_matrix(rotation("z")), Sz)
    assert np.array_equal(
        generator_matrix(one_axis_twist("y")), np.diag([1.0, 0.0, 1.0]).astype(complex)
    )
    Ay = np.array([[0, 0, -1], [0, 0, 0], [-1, 0, 0]]).astype(complex)
    assert np.array_equal(generator_matrix(two_axis_counter("y")), Ay)
    H = np.array([[1.0, 2.0j, 0.0], [-2.0j, 0.5, 0.0], [0.0, 0.0, -1.0]])
    assert np.array_equal(generator_matrix(custom(H)), H)


def test_counter_generator_is_twist_difference():
    S = {"x": 0, "y": 1, "z": 2}
    spin = [generator_matrix(rotation(ax)) for ax in ("x", "y", "z")]
    for j, k, l in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
        plus = (spin[S[k]] + spin[S[l]]) / np.sqrt(2.0)
        minus = (spin[S[k]] - spin[S[l]]) / np.sqrt(2.0)
        A = generator_matrix(two_axis_counter(j))
        assert np.max(np.abs(A - (plus @ plus - minus @ minus))) < 1e-12


def test_custom_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        custom(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_generator_labels():
    labels = [generator_label(g) for g in canonical_generators()]
    assert labels == [
        "rot:x",
        "rot:y",
        "rot:z",
        "twist:x",
        "twist:y",
        "twist:z",
        "counter:x",
        "counter:y",
        "counter:z",
    ]
    assert generator_label(custom(np.eye(3))) == "custom"


def test_evolve_theta_zero_and_commuting():
    rng = np.random.default_rng(501)
    rho = random_density(rank=3, rng=rng)
    assert np.max(np.abs(evolve(rho, rotation("x"), 0.0) - rho)) < 1e-14
    mixed = np.eye(3) / 3.0
    assert np.max(np.abs(evolve(mixed, rotation("z"), 1.3) - mixed)) < 1e-14


def test_evolve_rejects_invalid():
    with pytest.raises(InvalidStateError):
        evolve(np.diag([1.2, 0.1, -0.3]).astype(complex), rotation("x"), 0.5)


def test_rotation_covariance():
    # exp(-i theta S_z) rotates the Bloch vector by +theta about z
    rho = pseudo_qubit([0.4, 0.0, 0.0])
    out = decompose(evolve(rho, rotation("z"), np.pi / 2))
    assert np.max(np.abs(out.a - np.array([0.0, 0.4, 0.0]))) < 1e-12

    theta = 0.7
    R = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    rng = np.random.default_rng(503)
    rho = random_density(rank=3, rng=rng)
    p = decompose(rho)
    out = decompose(evolve(rho, rotation("z"), theta))
    assert np.max(np.abs(out.a - R @ p.a)) < 1e-12
    assert np.max(np.abs(out.T - R @ p.T @ R.T)) < 1e-12


def test_conservation_laws():
    rng = np.random.default_rng(509)
    gens = canonical_generators()
    for _ in range(100):
        rho = random_density(rank=3, rng=rng)
        p = decompose(rho)
        norm0 = gamma_norm(p.a, p.T)
        spec0 = np.linalg.eigvalsh(rho)
        det0 = np.linalg.det(rho).real
        g = gens[int(rng.integers(0, 9))]
        theta = float(rng.uniform(0.0, 2 * np.pi))
        out = evolve(rho, g, theta)
        assert np.max(np.abs(np.linalg.eigvalsh(out) - spec0)) < 1e-10
        assert abs(np.linalg.det(out).real - det0) < 1e-10
        if g.kind == "rotation":
            q = decompose(out)
            assert abs(gamma_norm(q.a, q.T) - norm0) < 1e-9


def test_twisting_does_not_conserve_metric_norm():
    # counterexample: exp(-i (pi/2) S_z^2) maps this state to a real matrix,
    # so its Bloch vector (hence the metric norm) collapses to zero while
    # the determinant stays fixed
    rho = pseudo_qubit([0.4, 0.0, 0.0])
    p = decompose(rho)
    assert abs(gamma_norm(p.a, p.T) - 0.36) < 1e-12
    out = evolve(rho, one_axis_twist("z"), np.pi / 2)
    q = decompose(out)
    assert np.max(np.abs(out.imag)) < 1e-12
    assert abs(gamma_norm(q.a, q.T)) < 1e-12
    assert abs(np.linalg.det(out).real - np.linalg.det(rho).real) < 1e-14
    # the determinant identity that explains the collapse:
    # det rho = det(Re rho) * (1 - gamma_norm)
    for state in (rho, out):
        pp = decompose(state)
        lhs = np.linalg.det(state).real
        rhs = np.linalg.det(state.real) * (1.0 - gamma_norm(pp.a, pp.T))
        assert abs(lhs - rhs) < 1e-14


def test_trajectory_grid_and_endpoints():
    rho = pseudo_qubit([0.2, 0.1, 0.3])
    traj = trajectory(rho, rotation("y"), 0.0, 2)
    assert np.array_equal(traj.thetas, [0.0, 0.0])
    assert np.max(np.abs(traj.states[0] - traj.states[1])) < 1e-15

    traj = trajectory(rho, rotation("y"), 2 * np.pi, 5)
    assert np.allclose(traj.thetas, np.linspace(0, 2 * np.pi, 5), atol=1e-15)
    assert np.max(np.abs(traj.states[0] - rho)) < 1e-14
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-10
    assert traj.scenes is None


def test_trajectory_scenes_and_twist_deformation():
    rho = pseudo_qubit([0.3, 0.2, 0.1])
    traj = trajectory(rho, one_axis_twist("y"), 1.4, 8, with_scenes=True)
    assert traj.scenes is not None and len(traj.scenes) == len(traj.states) == 8
    first = np.sort(traj.scenes[0].semi_axes)
    moved = np.sort(traj.scenes[4].semi_axes)
    assert np.max(np.abs(moved - first)) > 1e-3
    det0 = np.linalg.det(traj.states[0]).real
    for s in traj.states:
        assert abs(np.linalg.det(s).real - det0) < 1e-10


def test_trajectory_rotation_preserves_axes():
    rng = np.random.default_rng(521)
    rho = random_density(rank=3, rng=rng)
    traj = trajectory(rho, rotation("x"), 2 * np.pi, 9, with_scenes=True)
    base = np.sort(traj.scenes[0].semi_axes)
    for s in traj.scenes[1:]:
        assert np.max(np.abs(np.sort(s.semi_axes) - base)) < 1e-9


def test_trajectory_needs_two_samples():
    with pytest.raises(ValueError):
        trajectory(np.eye(3) / 3.0, rotation("x"), 1.0, 1)


def test_phase_overflow_raises_value_error():
    # theta * max|eigenvalue| = 2e308 is not a float: no NaN state, no warning
    g = custom(np.diag([2.0, 0.0, -2.0]))
    rho = np.eye(3) / 3.0
    with pytest.raises(ValueError, match="not finite"):
        evolve(rho, g, 1e308)
    with pytest.raises(ValueError, match="not finite"):
        trajectory(rho, g, 1e308, 2)
    assert np.allclose(evolve(rho, g, 1e307), rho, atol=1e-15)
