"""Core qutrit parametrization.

Maps a 3x3 density matrix to and from the (Bloch vector a, off-diagonal
correlations q, diagonal weights omega, correlation tensor T) picture
and derives the metric tensor.  analyse() reads everything else from two
spectra: rho's (positivity, rank) and T's (frame, semi-axes,
principal-minor diagnostics, geometry case).

Conventions (fixed wire format):
  T = 1 - 2 Re(rho)
  a_x = 2 Im(rho[2][1]),  a_y = 2 Im(rho[0][2]),  a_z = 2 Im(rho[1][0])
  omega_j = (1 - T_jj) / 2,   q_j = T_kl  (j != k != l)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentParamsError,
    InternalCheckError,
    MetricUndefinedError,
    NotPositiveError,
    TraceError,
)
from .linalg import _ENTRY_MAX, _eigvals, assert_hermitian, det3, eig_sym3
from .tolerances import RANK_TOL, SEGMENT_SLACK, SING_TOL, TRACE_TOL

# Rank/geometry taxonomy labels.
FULL_3D = "Full3D"
SURFACE_3D = "Surface3D"
SEGMENT_INTERIOR = "SegmentInterior"
SEGMENT_ENDPOINT = "SegmentEndpoint"
POINT = "Point"


@dataclass
class StateParams:
    """Bloch vector, off-diagonal correlations, diagonal weights, full tensor."""

    a: np.ndarray
    q: np.ndarray
    omega: np.ndarray
    T: np.ndarray


@dataclass
class ValidityReport:
    c1_ok: bool  # diagonal weights in [0, 1]
    c2_ok: bool  # 2x2 principal minors non-negative
    c3_ok: bool  # determinant non-negative
    overall: bool


@dataclass
class MetricTensor:
    gamma: np.ndarray | None
    defined: bool


@dataclass
class RankReport:
    rank: int
    case: str
    eigenvalues: np.ndarray


def assert_density(rho: np.ndarray) -> None:
    """Check shape, Hermiticity, entry size and unit trace; positivity is separate.

    Entries stay within half the solver's bound, so T = 1 - 2 Re(rho) stays within it.
    """
    rho = np.asarray(rho)
    if rho.shape != (3, 3):
        raise TraceError(f"density matrix must be 3x3, got {rho.shape}")
    assert_hermitian(rho, what="density matrix")
    bound = _ENTRY_MAX / 2.0
    if np.abs(rho).max() > bound:
        raise ValueError(f"density matrix overflows: an entry is above {bound:.3g} in modulus")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"density matrix trace = {tr.real:.15g}, expected 1")


def decompose(rho: np.ndarray) -> StateParams:
    """Extract (a, q, omega, T) from a Hermitian trace-one matrix."""
    rho = np.asarray(rho, dtype=complex)
    assert_density(rho)
    return _params(rho)


def _params(rho: np.ndarray) -> StateParams:
    """(a, q, omega, T) of a checked complex density matrix, T = 1 - 2 Re(rho)."""
    a = 2.0 * np.array([rho[2, 1].imag, rho[0, 2].imag, rho[1, 0].imag])
    return params_from_bloch_tensor(a, np.eye(3) - 2.0 * rho.real)


def _cross_matrix(a: np.ndarray) -> np.ndarray:
    """E[j][k] = sum_l eps_jkl a_l, the Levi-Civita contraction of a."""
    ax, ay, az = a
    return np.array([[0.0, az, -ay], [-az, 0.0, ax], [ay, -ax, 0.0]])


def compose(p: StateParams) -> np.ndarray:
    """Rebuild the density matrix: rho = ((1 - T) - i E(a)) / 2."""
    T = np.asarray(p.T, dtype=float)
    a = np.asarray(p.a, dtype=float)
    if np.max(np.abs(T - T.T)) > TRACE_TOL:
        raise InconsistentParamsError("correlation tensor is not symmetric")
    if abs(np.trace(T) - 1.0) > TRACE_TOL:
        raise InconsistentParamsError(f"trace(T) = {np.trace(T):.15g}, expected 1")
    omega_from_T = (1.0 - np.diag(T)) / 2.0
    if np.max(np.abs(np.asarray(p.omega) - omega_from_T)) > TRACE_TOL:
        raise InconsistentParamsError("omega does not match (1 - T_jj)/2")
    q_from_T = np.array([T[1, 2], T[0, 2], T[0, 1]])
    if np.max(np.abs(np.asarray(p.q) - q_from_T)) > TRACE_TOL:
        raise InconsistentParamsError("q does not match the off-diagonals of T")
    return ((np.eye(3) - T) - 1j * _cross_matrix(a)) / 2.0


def params_from_bloch_tensor(a: np.ndarray, T: np.ndarray) -> StateParams:
    """Bundle (a, T) into StateParams, deriving omega and q from T."""
    T = np.asarray(T, dtype=float)
    T = (T + T.T) / 2.0
    return StateParams(
        a=np.asarray(a, dtype=float),
        q=np.array([T[1, 2], T[0, 2], T[0, 1]]),
        omega=(1.0 - np.diag(T)) / 2.0,
        T=T,
    )


def validate(p: StateParams) -> ValidityReport:
    """Positivity verdict and minor diagnostics of a parameter bundle."""
    return analyse(compose(p)).validity


def _one_minus(T: np.ndarray) -> tuple[np.ndarray, float]:
    """1 - T and its determinant, on Python floats; ValueError when the determinant overflows."""
    one_minus = np.eye(3) - np.asarray(T, dtype=float)
    d = det3(one_minus.tolist())
    if not math.isfinite(d):
        raise ValueError("det(1 - T) overflows")
    return one_minus, d


def metric_tensor(T: np.ndarray) -> MetricTensor:
    """Gamma = (1 - T) / det(1 - T), undefined when the determinant vanishes."""
    one_minus, d = _one_minus(T)
    if d > SING_TOL:
        return MetricTensor(gamma=one_minus / d, defined=True)
    return MetricTensor(gamma=None, defined=False)


def _dot3(u, w) -> float:
    """u . w of two 3-sequences of Python floats, summed in index order: no BLAS, no warning."""
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def gamma_norm(a: np.ndarray, T: np.ndarray) -> float:
    """a . Gamma . a, the metric norm of the Bloch vector, on Python floats in a fixed order."""
    one_minus, d = _one_minus(T)
    if d <= SING_TOL:
        raise MetricUndefinedError(f"det(1 - T) = {d:.3e} is not above {SING_TOL:g}")
    a = [float(x) for x in a]
    g = _dot3([_dot3(a, col) for col in zip(*one_minus.tolist())], a) / d
    if not math.isfinite(g):
        raise ValueError("the metric norm a . Gamma . a overflows")
    return g


def semi_axes(tensor_eigenvalues: np.ndarray) -> np.ndarray:
    """Ellipsoid semi-axes eps_j = sqrt((1-lambda_k)(1-lambda_l)), descending input."""
    l0, l1, l2 = (1.0 - float(x) for x in tensor_eigenvalues)
    return np.array([math.sqrt(max(p, 0.0)) for p in (l1 * l2, l0 * l2, l0 * l1)])


def _spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """rho as a checked complex density matrix, its descending eigenvalues, its positivity.

    The package's one positivity verdict: rho is positive semidefinite
    when its smallest eigenvalue is at least -RANK_TOL.  Only values are
    read, so the solve computes no eigenvectors.
    """
    rho = np.asarray(rho, dtype=complex)
    assert_density(rho)
    values = _eigvals(rho)
    return rho, values, bool(values[-1] >= -RANK_TOL)


def check_state(rho: np.ndarray) -> np.ndarray:
    """rho as a complex density matrix; NotPositiveError unless it is a state."""
    rho, values, positive = _spectrum(rho)
    if not positive:
        raise _not_positive(values)
    return rho


def _not_positive(eigenvalues: np.ndarray) -> NotPositiveError:
    return NotPositiveError(f"not positive: min eigenvalue {eigenvalues[-1]:.3e} < -{RANK_TOL:g}")


@dataclass(frozen=True)
class Analysis:
    """Everything reported about one Hermitian trace-one matrix.

    ``eigenvalues`` are rho's, ``tensor_eigenvalues`` and the matching
    real eigenvector columns ``frame`` are T's, all descending;
    ``semi_axes`` are the ellipsoid's.  ``rank`` is None when rho is not
    positive semidefinite.
    """

    params: StateParams
    eigenvalues: np.ndarray
    tensor_eigenvalues: np.ndarray
    frame: np.ndarray
    semi_axes: np.ndarray
    validity: ValidityReport
    rank: RankReport | None


def _validity(
    tvals: np.ndarray, frame: np.ndarray, a: np.ndarray, positive: bool
) -> ValidityReport:
    """The positivity verdict with principal-minor diagnostics in T's eigenbasis.

    In the eigenbasis the matrix takes the diagonal-tensor form, so the
    three minor levels reduce to
        c1:  0 <= omega_j <= 1
        c2:  4 omega_j omega_k >= a_l^2
        c3:  4 omega_x omega_y omega_z >= sum_j omega_j a_j^2
    with eigenbasis weights and Bloch components.  The determinant form
    never divides, so boundary states (where the metric tensor is
    singular) are handled without special cases.

    The three flags carry a fixed slack on the minor *values*, which near
    a double root of the spectrum is a much looser cut than the same
    slack on the eigenvalues (minors scale like products of small roots).
    The overall verdict therefore is the spectrum's, so it agrees with
    min-eigenvalue >= -RANK_TOL exactly; the flags localize which
    condition a clear violation breaks.
    """
    om = [(1.0 - float(t)) / 2.0 for t in tvals]
    at = [_dot3(a.tolist(), col) for col in zip(*frame.tolist())]
    c1 = all(-RANK_TOL <= w <= 1.0 + RANK_TOL for w in om)
    minors = [4.0 * om[k] * om[l] - at[j] * at[j] for j, k, l in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    c2 = not any(m < -RANK_TOL for m in minors)
    c3 = 4.0 * om[0] * om[1] * om[2] - _dot3(om, [x * x for x in at]) >= -RANK_TOL
    return ValidityReport(c1_ok=c1, c2_ok=c2, c3_ok=c3, overall=positive)


def analyse(rho: np.ndarray) -> Analysis:
    """Analyse a Hermitian trace-one matrix: one values-only spectrum of rho, one eigensolve of T.

    Positivity and rank come from rho's spectrum; the frame, semi-axes,
    minor diagnostics and geometry case from T's.  A matrix that is not
    positive is reported, not raised; InternalCheckError means the
    geometry case failed its own consistency checks.
    """
    rho, values, positive = _spectrum(rho)
    p = _params(rho)
    tvals, frame = eig_sym3(p.T)
    eps = semi_axes(tvals)
    rank = None
    if positive:
        n = int(np.sum(values > RANK_TOL))
        rank = RankReport(rank=n, case=_rank_case(n, tvals, eps, p.a), eigenvalues=values)
    return Analysis(
        params=p,
        eigenvalues=values,
        tensor_eigenvalues=tvals,
        frame=frame,
        semi_axes=eps,
        validity=_validity(tvals, frame, p.a, positive),
        rank=rank,
    )


def _rank_case(rank: int, tvals: np.ndarray, eps: np.ndarray, a: np.ndarray) -> str:
    """Geometry case of a positive state from its rank and T's spectrum.

    Full-rank states live strictly inside a 3D ellipsoid, rank-2 states
    sit on its surface or strictly inside a line segment, pure states are
    a segment endpoint or (when real, up to phase) a single point at the
    origin.  The semi-axes are eps_j = 2 sqrt(mu_k mu_l) with mu = (1 -
    lambda)/2 the eigenvalues of Re(rho), so which axes are alive is the
    rank of Re(rho), read against the same RANK_TOL as the rank of rho.
    """
    if rank == 3:
        return FULL_3D
    mu = (1.0 - tvals) / 2.0  # ascending
    if rank == 2 and mu[0] > RANK_TOL:
        return SURFACE_3D
    if rank == 1 and mu[1] <= RANK_TOL:
        return POINT
    if abs(tvals[1] + tvals[2]) >= SEGMENT_SLACK:
        raise InternalCheckError("segment requires lambda_v = -lambda_w")
    a_len = float(np.linalg.norm(a))
    if rank == 2:
        if a_len >= eps[0] + SEGMENT_SLACK:
            raise InternalCheckError("segment-interior Bloch vector exceeds eps_u")
        return SEGMENT_INTERIOR
    if abs(a_len - eps[0]) >= SEGMENT_SLACK:
        raise InternalCheckError("pure segment state requires |a| = eps_u")
    return SEGMENT_ENDPOINT


def classify_rank(rho: np.ndarray) -> RankReport:
    """Rank and geometry case of a valid state; NotPositiveError otherwise."""
    an = analyse(rho)
    if an.rank is None:
        raise _not_positive(an.eigenvalues)
    return an.rank


def random_density(rank: int = 3, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Seeded sampler: Dirichlet-weighted mixture of Haar-random pure states.

    The number of mixture components equals the requested rank, which the
    output achieves with probability one.
    """
    if rank not in (1, 2, 3):
        raise ValueError(f"rank must be 1, 2 or 3, got {rank}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rho = np.zeros((3, 3), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        rho += w * np.outer(psi, psi.conj())
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real
