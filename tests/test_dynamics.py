"""Dynamics tests.

Conservation laws are checked against numpy spectra and determinants;
rotation covariance is pinned by direct conjugation followed by
parameter extraction.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from qutrit3d import geometry
from qutrit3d.dynamics import (
    _grid,
    _trajectory,
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
from qutrit3d.geometry import _scene, scene_to_dict
from qutrit3d.purestates import pseudo_qubit
from qutrit3d.spin1 import _spin_rows, spin_set
from qutrit3d.state import (
    _as_rows, _density_rows, _record, decompose, gamma_norm, random_density,
)


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


def test_canonical_generators_are_shared_values():
    for make in (rotation, one_axis_twist, two_axis_counter):
        for axis in ("x", "y", "z"):
            assert make(axis) is make(axis)
    with pytest.raises(ValueError, match="axis must be x, y or z"):
        rotation("w")
    # a generator is a frozen record of tuples: nothing in it can be written
    for g in canonical_generators() + [custom(np.diag([1.0, 0.0, -1.0]))]:
        with pytest.raises(TypeError):
            g.matrix[0] = (0j, 0j, 0j)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.matrix = ()
        M = generator_matrix(g)
        assert M.dtype == complex and M.flags.writeable
        assert M.tolist() == [list(row) for row in g.matrix]
        M[0, 0] = 7.0
        assert generator_matrix(g)[0, 0] == g.matrix[0][0] != 7.0
    # the spin matrices' arrays are their exact tables, S_j's imaginary -0.0 zeros included
    arrays, rows = spin_set(), _spin_rows()
    for name in ("S", "S2", "A"):
        for M, table in zip(getattr(arrays, name), getattr(rows, name)):
            assert M.dtype == complex
            assert [repr(x) for x in M.ravel().tolist()] == [repr(x) for r in table for x in r]


def test_custom_copies_its_matrix():
    # the generator holds its own solved copy: a later write to the
    # caller's array reaches neither its matrix nor its evolution
    H = np.array([[1.0, 2.0j, 0.0], [-2.0j, 0.5, 0.0], [0.0, 0.0, -1.0]])
    rho = random_density(rank=3, rng=np.random.default_rng(523))
    g = custom(H)
    before = (generator_matrix(g), evolve(rho, g, 0.7))
    H[0, 0] = 5.0
    assert np.array_equal(generator_matrix(g), before[0])
    assert np.array_equal(evolve(rho, g, 0.7), before[1])
    with pytest.raises(ValueError, match="3x3"):
        custom(np.eye(4))


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

    # the grid is np.linspace's bit for bit, signed zeros and subnormal ends included
    tiny = 5e-324
    for theta in (2 * np.pi, 1.0, -3.7, 0.0, -0.0, tiny, -tiny, 1e-320, 1e308, sys.float_info.max):
        for n in (2, 3, 7, 100, 65537):
            with np.errstate(over="ignore"):  # (n - 1) * step may round above max float
                expected = np.linspace(0.0, theta, n)
            assert np.array(_grid(theta, n)).tobytes() == expected.tobytes(), (theta, n)
            if n <= 7:
                got = trajectory(rho, rotation("y"), theta, n).thetas
                assert got.tobytes() == expected.tobytes(), (theta, n)

    traj = trajectory(rho, rotation("y"), 2 * np.pi, 5)
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
    # the grid is checked before the state's positivity
    with pytest.raises(ValueError, match="at least 2 samples"):
        trajectory(np.diag([1.2, 0.1, -0.3]), rotation("x"), 1.0, 1)


def test_trajectory_takes_at_most_100000_samples():
    with pytest.raises(ValueError, match="at most 100000 samples, got 100001"):
        _grid(1.0, 100001)
    with pytest.raises(ValueError, match="at most 100000 samples, got 100001"):
        trajectory(np.eye(3) / 3.0, rotation("x"), 1.0, 100001)


def test_phase_overflow_raises_value_error():
    # theta * max|eigenvalue| = 2e308 is not a float: no NaN state, no warning
    g = custom(np.diag([2.0, 0.0, -2.0]))
    rho = np.eye(3) / 3.0
    with pytest.raises(ValueError, match="not finite"):
        evolve(rho, g, 1e308)
    with pytest.raises(ValueError, match="not finite"):
        trajectory(rho, g, 1e308, 2)
    assert np.allclose(evolve(rho, g, 1e307), rho, atol=1e-15)


def _eigh_evolution(rho, G, theta):
    """exp(-i theta G) rho exp(i theta G) with the unitary built from LAPACK's eigh."""
    w, Q = np.linalg.eigh(G)
    U = (Q * np.exp(-1j * theta * w)) @ Q.conj().T
    return U @ rho @ U.conj().T


def test_trajectory_against_an_eigh_oracle():
    # every sample of full-rank, rank-2 and pure states under the nine
    # generators and a seeded custom one, against an independent solver
    rng = np.random.default_rng(541)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = (X + X.conj().T) / 2.0
    gens = canonical_generators() + [custom(H / np.linalg.norm(H, 2))]
    for rank in (3, 2, 1):
        for _ in range(4):
            rho = random_density(rank=rank, rng=rng)
            for g in gens:
                theta_max = float(rng.uniform(0.5, 2.0 * np.pi))
                traj = trajectory(rho, g, theta_max, 7)
                assert np.array_equal(traj.states[0], rho)
                for theta, state in zip(traj.thetas, traj.states):
                    ref = _eigh_evolution(rho, generator_matrix(g), theta)
                    assert np.max(np.abs(state - ref)) < 1e-14, (rank, generator_label(g))
                    M = state.tolist()
                    for j in range(3):
                        assert M[j][j].imag == 0.0
                        for k in range(j + 1, 3):
                            assert M[k][j] == M[j][k].conjugate()


def test_scenes_reuse_rho0_spectrum_byte_for_byte():
    # each scene of a trajectory, built with rho0's spectrum, is the scene of
    # its sample solved on its own: nine generators and a custom one, ranks
    # 1-3, three grids, and no sample whose own rank differs from rho0's
    rng = np.random.default_rng(2020)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gens = canonical_generators() + [custom((X + X.conj().T) / 2.0)]
    grids = [_grid(1.3, 7), _grid(2.0 * math.pi, 5), _grid(float(rng.uniform(0.5, 20.0)), 4)]
    for rank in (1, 2, 3):
        for _ in range(2):
            rows = _as_rows(random_density(rank=rank, rng=rng))
            assert _record(rows).rank.rank == rank
            for g in gens:
                for grid in grids:
                    t = _trajectory(rows, g, grid, True)
                    for sample, scene in zip(t.states, t.scenes):
                        assert _record(sample).rank.rank == rank, generator_label(g)
                        assert scene_to_dict(scene) == scene_to_dict(_scene(sample))


def _eigenbasis_state(seed: int, values: tuple) -> list:
    """Rows of sum_k values_k |v_k><v_k|, v a seeded Gram-Schmidt basis, on Python complex."""
    rng = np.random.default_rng(seed)
    basis = []
    for _ in range(3):
        v = list(map(complex, rng.standard_normal(3).tolist(), rng.standard_normal(3).tolist()))
        for u in basis:
            d = sum(x * y.conjugate() for x, y in zip(v, u))
            v = [x - d * y for x, y in zip(v, u)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        basis.append([x / norm for x in v])
    return _density_rows([
        [sum(w * v[i] * v[j].conjugate() for w, v in zip(values, basis)) for j in range(3)]
        for i in range(3)
    ])


@pytest.mark.parametrize("seed, values", [
    (6, (0.6, 0.4 - 1e-9, 1e-9)),  # lambda_min at RANK_TOL: rank 2 or 3 per sample
    (3, (0.6, 0.4 + 1e-9, -1e-9)),  # lambda_min at -RANK_TOL: positive or not per sample
])
def test_rank_and_case_are_rho0s_along_a_flickering_orbit(monkeypatch, seed, values):
    rows = _eigenbasis_state(seed, values)
    g = one_axis_twist("x")
    t = _trajectory(rows, g, _grid(1.3, 7), False)
    own = {(r.rank.rank, r.rank.case) if r.rank else None for r in map(_record, t.states)}
    assert len(own) > 1  # solved on its own, a sample's rank crosses RANK_TOL by rounding
    records = []

    def record(*args):
        records.append(_record(*args))
        return records[-1]

    monkeypatch.setattr(geometry, "_record", record)
    t = _trajectory(rows, g, _grid(1.3, 7), True)
    r0 = _record(rows).rank
    assert len(t.scenes) == len(records) == 7
    assert {(r.rank.rank, r.rank.case) for r in records} == {(r0.rank, r0.case)}
