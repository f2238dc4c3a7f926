"""Pure-state geometry.

A normalized qutrit vector splits as psi = r + i k with real vectors r
and k once the global phase is fixed; the Bloch vector is then the cross
product a = 2 r x k, and orthogonality of two states becomes a pair of
real dot-product conditions.  The module also provides the four mutually
unbiased bases and the pseudo-qubit family (correlation tensor pinned to
identity/3, Bloch ball of radius 2/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalizedError, OutOfBallError
from .linalg import vector_norm
from .state import PSEUDO_TENSOR, _bundle, _compose
from .tolerances import BALL_TOL, GAUGE_EPS, NORM_TOL, ORTHO_TOL

_BALL_RADIUS_SQ = 4.0 / 9.0  # pseudo-qubit Bloch ball, |a|^2 <= 4/9


@dataclass
class PureState:
    """Gauge-fixed amplitudes with their real and imaginary parts.

    The first component of modulus above the gauge threshold is made
    real positive; physical outputs (Bloch vector, orthogonality) do not
    depend on that choice.
    """

    amp: np.ndarray
    r: np.ndarray
    k: np.ndarray


@dataclass
class MubFamily:
    """Four mutually unbiased bases, three states each."""

    bases: tuple[tuple[PureState, PureState, PureState], ...]


def rik_decompose(amp: np.ndarray) -> PureState:
    """Normalize-check, fix the global phase, split into r + i k."""
    amp = np.asarray(amp, dtype=complex).reshape(3)
    n = vector_norm(amp.tolist())
    if abs(n - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"|psi| = {n:.12g}, expected 1")
    amp = amp / n
    idx = -1
    for i, c in enumerate(amp):
        if abs(c) > GAUGE_EPS:
            idx = i
            break
    if idx >= 0:
        pivot = complex(amp[idx])
        amp = amp * (pivot.conjugate() / abs(pivot))
        # the pivot component is real positive by construction; drop the
        # rounding residue so the gauge is exact
        amp[idx] = abs(amp[idx])
    return PureState(amp=amp, r=amp.real.copy(), k=amp.imag.copy())


def bloch_from_pure(p: PureState) -> np.ndarray:
    """Bloch vector a = 2 r x k; vanishes for real states."""
    return 2.0 * np.cross(p.r, p.k)


def density_from_pure(p: PureState) -> np.ndarray:
    """Rank-one projector |psi><psi|."""
    return np.outer(p.amp, p.amp.conj())


def orthogonal(p: PureState, q: PureState) -> bool:
    """True iff r.r' = -k.k' and r.k' = r'.k, jointly within ORTHO_TOL.

    The two conditions are the real and imaginary parts of <psi|psi'>,
    so their modulus is tested, as for a vanishing inner product.
    """
    re = float(p.r @ q.r + p.k @ q.k)
    im = float(p.r @ q.k - p.k @ q.r)
    return math.hypot(re, im) <= ORTHO_TOL


def reference_state(theta: float) -> PureState:
    """(cos t, i sin t, 0): Bloch vector (0, 0, sin 2t)."""
    return rik_decompose(np.array([np.cos(theta), 1j * np.sin(theta), 0.0]))


def orthogonal_state(theta: float, phi: float, chi: float) -> PureState:
    """The general state orthogonal to reference_state(theta)."""
    return rik_decompose(
        np.array(
            [
                np.sin(theta) * np.cos(phi),
                -1j * np.cos(theta) * np.cos(phi),
                np.exp(1j * chi) * np.sin(phi),
            ]
        )
    )


def orthogonal_bloch_family(theta: float, phi: float, chi: float) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors of the reference state and its orthogonal partner.

    Closed form of the partner vector:
        a' = 2 (cos phi sin phi cos theta cos chi,
                -cos phi sin phi sin theta sin chi,
                -cos^2 phi cos theta sin theta)
    so a . a' = -4 cos^2 phi cos^2 theta sin^2 theta is never positive.
    """
    a = bloch_from_pure(reference_state(theta))
    a_prime = bloch_from_pure(orthogonal_state(theta, phi, chi))
    return a, a_prime


def mub_bases() -> MubFamily:
    """The four qutrit mutually unbiased bases.

    Built from the cube root of unity eta = exp(2 pi i / 3); every
    cross-basis overlap has modulus 1/sqrt(3).  Global phases follow the
    PureState gauge (leading non-zero component real positive).
    """
    eta = np.exp(2j * np.pi / 3.0)
    c = eta.conjugate()
    s = 1.0 / np.sqrt(3.0)
    raw = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((s, s, s), (s, s * eta, s * c), (s, s * c, s * eta)),
        ((s * eta, s, s), (s, s * eta, s), (s, s, s * eta)),
        ((s * c, s, s), (s, s * c, s), (s, s, s * c)),
    )
    bases = tuple(
        tuple(rik_decompose(np.array(v, dtype=complex)) for v in basis) for basis in raw
    )
    return MubFamily(bases=bases)


def _check_in_ball(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float).reshape(3)
    aa = float(a @ a)
    if aa > _BALL_RADIUS_SQ + BALL_TOL:
        raise OutOfBallError(f"{name}: a.a = {aa:.12g} exceeds 4/9")
    return a


def pseudo_qubit(a: np.ndarray) -> np.ndarray:
    """Density matrix with correlation tensor identity/3 and Bloch vector a.

    The admissible vectors fill a ball of radius 2/3; on its surface the
    spectrum is (2/3, 1/3, 0), at the center the state is maximally mixed.
    """
    a = _check_in_ball(a, "pseudo_qubit")
    return np.array(_compose(_bundle(a.tolist(), PSEUDO_TENSOR)))


def pseudo_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Tr(rho_a rho_b) = 1/3 + a.b/2 for two pseudo-qubit states."""
    a = _check_in_ball(a, "pseudo_overlap a")
    b = _check_in_ball(b, "pseudo_overlap b")
    return 1.0 / 3.0 + float(a @ b) / 2.0


def haar_pure(rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Haar-random pure amplitudes (normalized complex Gaussian)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return psi / np.linalg.norm(psi)
