"""Unitary spin-1 dynamics.

Nine canonical generators — rotations S_j, one-axis twistings S_j^2 and
two-axis countertwistings A_j = S_k S_l + S_l S_k — plus arbitrary
Hermitian generators.  Evolution is rho' = U rho U^dag with
U = exp(-i theta G); it always preserves the spectrum and determinant.
Rotations act as rigid SO(3) maps (a -> Ra, T -> R T R^t), so they also
preserve the semi-axes and the metric norm a.Gamma.a; twistings deform
the ellipsoid and trade Bloch-vector length against tensor shape, so the
metric norm is NOT conserved by them (det rho = det(Re rho) (1 - a.Gamma.a),
and only the left-hand side is a unitary invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EllipsoidScene, build_scene
from .linalg import EigenSystem3, assert_hermitian, eig_hermitian3, unitary_from_eigensystem
from .spin1 import spin_set
from .state import check_state

ROTATION = "rotation"
ONE_AXIS_TWIST = "one_axis_twist"
TWO_AXIS_COUNTER = "two_axis_counter"
CUSTOM = "custom"

_AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class Generator:
    """A named dynamics generator; matrix is set for custom kind only."""

    kind: str
    axis: str | None = None
    matrix: np.ndarray | None = None


@dataclass
class Trajectory:
    thetas: np.ndarray
    states: list[np.ndarray]
    scenes: list[EllipsoidScene] | None = None


def _check_axis(axis: str) -> str:
    if axis not in _AXES:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    return axis


def rotation(axis: str) -> Generator:
    return Generator(kind=ROTATION, axis=_check_axis(axis))


def one_axis_twist(axis: str) -> Generator:
    return Generator(kind=ONE_AXIS_TWIST, axis=_check_axis(axis))


def two_axis_counter(axis: str) -> Generator:
    return Generator(kind=TWO_AXIS_COUNTER, axis=_check_axis(axis))


def custom(H: np.ndarray) -> Generator:
    H = np.asarray(H, dtype=complex)
    assert_hermitian(H, what="custom generator")
    return Generator(kind=CUSTOM, matrix=H)


def canonical_generators() -> list[Generator]:
    """The nine named generators: three kinds times three axes."""
    out = []
    for make in (rotation, one_axis_twist, two_axis_counter):
        for axis in ("x", "y", "z"):
            out.append(make(axis))
    return out


def generator_label(g: Generator) -> str:
    if g.kind == CUSTOM:
        return "custom"
    short = {ROTATION: "rot", ONE_AXIS_TWIST: "twist", TWO_AXIS_COUNTER: "counter"}
    return f"{short[g.kind]}:{g.axis}"


def generator_matrix(g: Generator) -> np.ndarray:
    """Hermitian matrix of a generator: S_j, S_j^2 or A_j, or the custom H."""
    if g.kind == CUSTOM:
        if g.matrix is None:
            raise ValueError("custom generator carries no matrix")
        return np.array(g.matrix, dtype=complex)
    ops = spin_set()
    j = _AXES[g.axis]
    if g.kind == ROTATION:
        return np.array(ops.S[j])
    if g.kind == ONE_AXIS_TWIST:
        return np.array(ops.S2[j])
    if g.kind == TWO_AXIS_COUNTER:
        return np.array(ops.A[j])
    raise ValueError(f"unknown generator kind {g.kind!r}")


def _evolved(rho: np.ndarray, es: EigenSystem3, theta: float) -> np.ndarray:
    """U rho U^dag with U = exp(-i theta G), es the eigensystem of G."""
    # Python floats: an overflowing phase raises here instead of warning in numpy
    if not math.isfinite(theta * max(abs(float(es.values[0])), abs(float(es.values[-1])))):
        raise ValueError(f"theta = {theta:g}: theta * max|eigenvalue of G| is not finite")
    U = unitary_from_eigensystem(es, theta)
    out = U @ rho @ U.conj().T
    return (out + out.conj().T) / 2.0


def evolve(rho: np.ndarray, g: Generator, theta: float) -> np.ndarray:
    """rho' = U rho U^dag with U = exp(-i theta G)."""
    rho = check_state(rho)
    return _evolved(rho, eig_hermitian3(generator_matrix(g)), float(theta))


def trajectory(
    rho0: np.ndarray,
    g: Generator,
    theta_max: float,
    n: int,
    with_scenes: bool = False,
) -> Trajectory:
    """Evolve rho0 over a uniform theta grid on [0, theta_max].

    Every sample is computed directly from rho0 (one exact exponential
    per grid point, no compounded stepping), reusing a single
    eigendecomposition of the generator.
    """
    if n < 2:
        raise ValueError(f"trajectory needs at least 2 samples, got {n}")
    rho0 = check_state(rho0)
    es = eig_hermitian3(generator_matrix(g))
    thetas = np.linspace(0.0, float(theta_max), n)
    states = [_evolved(rho0, es, float(theta)) for theta in thetas]
    scenes = [build_scene(s) for s in states] if with_scenes else None
    return Trajectory(thetas=thetas, states=states, scenes=scenes)
