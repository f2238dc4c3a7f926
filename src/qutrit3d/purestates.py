"""Pure-state geometry.

A normalized qutrit vector splits as psi = r + i k with real vectors r
and k once the global phase is fixed; the Bloch vector is then the cross
product a = 2 r x k, and orthogonality of two states becomes a pair of
real dot-product conditions.  The module also provides the four mutually
unbiased bases and the pseudo-qubit family (correlation tensor pinned to
identity/3, Bloch ball of radius 2/3).  The core and the Haar sampler compute
on Python complex.  Amplitudes and pseudo-qubit vectors come in through
linalg._rows, of exactly three entries, and the public functions return
their lists through linalg._array (_pure_arrays for a PureState).
"""

from __future__ import annotations

import cmath
import math

from .errors import NotNormalizedError, OutOfBallError
from .linalg import _Record, _array, _dot3, _rows, vector_norm
from .state import PSEUDO_TENSOR, _bundle, _compose, _haar, _projector
from .tolerances import BALL_TOL, GAUGE_EPS, NORM_TOL, ORTHO_TOL

_BALL_RADIUS_SQ = 4.0 / 9.0  # pseudo-qubit Bloch ball, |a|^2 <= 4/9


class PureState(_Record):
    """Gauge-fixed amplitudes with their real and imaginary parts.

    The first component of modulus above the gauge threshold is made
    real positive; physical outputs (Bloch vector, orthogonality) do not
    depend on that choice.
    """

    __slots__ = ("amp", "r", "k")

    def __init__(self, amp: np.ndarray, r: np.ndarray, k: np.ndarray):
        self.amp, self.r, self.k = amp, r, k


class MubFamily(_Record):
    """Four mutually unbiased bases, three states each."""

    __slots__ = ("bases",)

    def __init__(self, bases: tuple[tuple[PureState, PureState, PureState], ...]):
        self.bases = bases


def _pure(amp: list) -> PureState:
    """rik_decompose of three Python complex amplitudes, as lists."""
    n = vector_norm(amp)
    if abs(n - 1.0) > NORM_TOL:
        raise NotNormalizedError(f"|psi| = {n:.12g}, expected 1")
    scale = 1.0 / n  # numpy divides a complex by a real as a product with the reciprocal
    amp = [x * scale for x in amp]
    for i, pivot in enumerate(amp):
        if abs(pivot) > GAUGE_EPS:
            gauge = pivot.conjugate() / abs(pivot)
            amp = [x * gauge for x in amp]
            # the pivot component is real positive by construction; drop the
            # rounding residue so the gauge is exact
            amp[i] = complex(abs(amp[i]))
            break
    return PureState(amp=amp, r=[x.real for x in amp], k=[x.imag for x in amp])


def _pure_arrays(p: PureState) -> PureState:
    """A PureState of lists, as _pure builds it, converted to numpy arrays in place."""
    p.amp, p.r, p.k = _array(p.amp), _array(p.r), _array(p.k)
    return p


def rik_decompose(amp: np.ndarray) -> PureState:
    """Normalize-check, fix the global phase, split into r + i k (_pure), as arrays."""
    return _pure_arrays(_pure(_rows(amp, (3,), "amplitudes")))


def _bloch(p: PureState) -> list:
    """a = 2 r x k of either form of PureState, in the operations of 2.0 * np.cross."""
    (r0, r1, r2), (k0, k1, k2) = p.r, p.k
    return [2.0 * (r1 * k2 - r2 * k1), 2.0 * (r2 * k0 - r0 * k2), 2.0 * (r0 * k1 - r1 * k0)]


def bloch_from_pure(p: PureState) -> np.ndarray:
    """Bloch vector a = 2 r x k (_bloch); vanishes for real states."""
    return _array(_bloch(p))


def density_from_pure(p: PureState) -> np.ndarray:
    """Rank-one projector |psi><psi| (_projector), as an array."""
    return _array(_projector(_rows(p.amp, (3,), "amplitudes", dtype=None)))


def orthogonal(p: PureState, q: PureState) -> bool:
    """True iff r.r' = -k.k' and r.k' = r'.k, jointly within ORTHO_TOL.

    The two conditions are the real and imaginary parts of <psi|psi'>,
    so their modulus is tested, as for a vanishing inner product.  Reads
    either form of PureState.
    """
    re = _dot3(p.r, q.r) + _dot3(p.k, q.k)
    im = _dot3(p.r, q.k) - _dot3(p.k, q.r)
    return math.hypot(re, im) <= ORTHO_TOL


def _reference(theta: float) -> PureState:
    """(cos t, i sin t, 0) as lists: Bloch vector (0, 0, sin 2t)."""
    return _pure([complex(math.cos(theta)), 1j * math.sin(theta), 0j])


def _orthogonal(theta: float, phi: float, chi: float) -> PureState:
    """The general state orthogonal to _reference(theta), as lists."""
    return _pure([complex(math.sin(theta) * math.cos(phi)), -1j * math.cos(theta) * math.cos(phi),
                  cmath.exp(1j * chi) * math.sin(phi)])


def reference_state(theta: float) -> PureState:
    """(cos t, i sin t, 0) (_reference), as arrays."""
    return _pure_arrays(_reference(theta))


def orthogonal_state(theta: float, phi: float, chi: float) -> PureState:
    """The general state orthogonal to reference_state(theta) (_orthogonal), as arrays."""
    return _pure_arrays(_orthogonal(theta, phi, chi))


def orthogonal_bloch_family(theta: float, phi: float, chi: float) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors of the reference state and its orthogonal partner.

    Closed form of the partner vector:
        a' = 2 (cos phi sin phi cos theta cos chi,
                -cos phi sin phi sin theta sin chi,
                -cos^2 phi cos theta sin theta)
    so a . a' = -4 cos^2 phi cos^2 theta sin^2 theta is never positive.
    """
    return _array(_bloch(_reference(theta))), _array(_bloch(_orthogonal(theta, phi, chi)))


def _mub() -> tuple:
    """The four unbiased bases of mub_bases, as PureStates of lists."""
    eta = cmath.exp(2j * math.pi / 3.0)
    c = eta.conjugate()
    s = 1.0 / math.sqrt(3.0)
    raw = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((s, s, s), (s, s * eta, s * c), (s, s * c, s * eta)),
        ((s * eta, s, s), (s, s * eta, s), (s, s, s * eta)),
        ((s * c, s, s), (s, s * c, s), (s, s, s * c)),
    )
    return tuple(tuple(_pure([complex(x) for x in v]) for v in basis) for basis in raw)


def mub_bases() -> MubFamily:
    """The qutrit mutually unbiased bases (_mub), as arrays.

    Built from the cube root of unity eta = exp(2 pi i / 3); every
    cross-basis overlap has modulus 1/sqrt(3).  Global phases follow the
    PureState gauge (leading non-zero component real positive).
    """
    return MubFamily(bases=tuple(tuple(map(_pure_arrays, basis)) for basis in _mub()))


def _check_in_ball(a: np.ndarray, name: str) -> list:
    a = _rows(a, (3,), f"{name}: the Bloch vector", dtype=float)
    aa = _dot3(a, a)
    if not aa <= _BALL_RADIUS_SQ + BALL_TOL:  # so also for a non-finite a: NaN compares false
        raise OutOfBallError(f"{name}: a.a = {aa:.12g} is not within 4/9")
    return a


def pseudo_qubit(a: np.ndarray) -> np.ndarray:
    """Density matrix with correlation tensor identity/3 and Bloch vector a.

    The admissible vectors fill a ball of radius 2/3; on its surface the
    spectrum is (2/3, 1/3, 0), at the center the state is maximally mixed.
    """
    a = _check_in_ball(a, "pseudo_qubit")
    return _array(_compose(_bundle(a, PSEUDO_TENSOR)))


def pseudo_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Tr(rho_a rho_b) = 1/3 + a.b/2 for two pseudo-qubit states."""
    a = _check_in_ball(a, "pseudo_overlap a")
    b = _check_in_ball(b, "pseudo_overlap b")
    return 1.0 / 3.0 + _dot3(a, b) / 2.0


def haar_pure(rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Haar-random pure amplitudes (normalized complex Gaussian, _haar)."""
    import numpy as np

    return _array(_haar(np.random.default_rng(rng)))  # a Generator is returned as it is
