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
from types import MappingProxyType

import numpy as np

from .geometry import EllipsoidScene, build_scene
from .linalg import EigenSystem3, assert_hermitian, eig_hermitian3, unitary_from_eigensystem
from .spin1 import spin_set
from .state import check_state

_SHORT = {"rotation": "rot", "one_axis_twist": "twist", "two_axis_counter": "counter"}


@dataclass(frozen=True, eq=False)
class Generator:
    """A generator's kind, axis, Hermitian matrix and eigensystem: solved once, shared, read-only."""

    kind: str
    axis: str | None
    matrix: np.ndarray
    eigensystem: EigenSystem3


@dataclass
class Trajectory:
    thetas: np.ndarray
    states: list[np.ndarray]
    scenes: list[EllipsoidScene] | None = None


def _solved(kind: str, axis: str | None, H: np.ndarray) -> Generator:
    es = eig_hermitian3(H)
    for a in (H, es.values, es.vectors):
        a.flags.writeable = False
    return Generator(kind=kind, axis=axis, matrix=H, eigensystem=es)


_OPS = spin_set()
# label -> generator for the nine canonical generators, "rot:x" ... "counter:z"
GENERATORS = MappingProxyType({
    f"{_SHORT[kind]}:{axis}": _solved(kind, axis, mats[j])
    for kind, mats in zip(_SHORT, (_OPS.S, _OPS.S2, _OPS.A))
    for j, axis in enumerate("xyz")
})


def _canonical(short: str, axis: str) -> Generator:
    g = GENERATORS.get(f"{short}:{axis}")
    if g is None:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    return g


def rotation(axis: str) -> Generator:
    return _canonical("rot", axis)


def one_axis_twist(axis: str) -> Generator:
    return _canonical("twist", axis)


def two_axis_counter(axis: str) -> Generator:
    return _canonical("counter", axis)


def custom(H: np.ndarray) -> Generator:
    """A Hermitian 3x3 generator, copied so later writes to H cannot reach it."""
    H = np.array(H, dtype=complex)
    if H.shape != (3, 3):
        raise ValueError(f"custom generator must be 3x3, got {H.shape}")
    assert_hermitian(H, what="custom generator")
    return _solved("custom", None, H)


def canonical_generators() -> list[Generator]:
    """The nine named generators: three kinds times three axes."""
    return list(GENERATORS.values())


def generator_label(g: Generator) -> str:
    return "custom" if g.kind == "custom" else f"{_SHORT[g.kind]}:{g.axis}"


def generator_matrix(g: Generator) -> np.ndarray:
    """Hermitian matrix of a generator (S_j, S_j^2, A_j or the custom H), a writable copy."""
    return np.array(g.matrix)


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
    return _evolved(rho, g.eigensystem, float(theta))


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
    eigendecomposition of the generator, solved when it was built.
    """
    if n < 2:
        raise ValueError(f"trajectory needs at least 2 samples, got {n}")
    rho0 = check_state(rho0)
    thetas = np.linspace(0.0, float(theta_max), n)
    states = [_evolved(rho0, g.eigensystem, float(theta)) for theta in thetas]
    scenes = [build_scene(s) for s in states] if with_scenes else None
    return Trajectory(thetas=thetas, states=states, scenes=scenes)
