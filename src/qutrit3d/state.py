"""Core qutrit parametrization.

Maps a 3x3 density matrix to and from the (Bloch vector a, off-diagonal
correlations q, diagonal weights omega, correlation tensor T) picture
and derives the metric tensor.  analyse() reads everything else from
rho's positivity and rank (linalg._verdict, which rarely solves rho) and
T's spectrum (frame, semi-axes, principal-minor diagnostics, geometry case:
decided and self-checked by _rank_case, its scene named by RANK_CASE_TO_SCENE).

Rows in, arrays at the edge.  Every argument comes in through
linalg._rows, which checks its shape, and a state's matrix is checked
once (_density_rows), where it enters: at the public array edge
(_as_rows) or in the CLI's parse.  The scalar core (_record, _state_rows)
takes checked rows, never checks them again and computes the Analysis,
of lists, in Python floats from them and T's spectrum (a state's T's
frame and minors only when read).  Each float
operation rounds once, as numpy's elementwise operations do, so the bits
are the same, and no BLAS is called; the sampler takes only its draws
from numpy.  The public functions return their records through
linalg._array (_state_params for a StateParams).

Conventions (fixed wire format):
  T = 1 - 2 Re(rho)
  a_x = 2 Im(rho[2][1]),  a_y = 2 Im(rho[0][2]),  a_z = 2 Im(rho[1][0])
  omega_j = (1 - T_jj) / 2,   q_j = T_kl  (j != k != l)
"""

from __future__ import annotations

import math

from .errors import (
    InconsistentParamsError,
    InternalCheckError,
    MetricUndefinedError,
    NotPositiveError,
    TraceError,
)
from .linalg import (
    _ENTRY_MAX, _Record, _array, _eigensystem3, _eigvals, _hermitian_rows, _rows, _sum, _verdict,
    det3, vector_norm,
)
from .tolerances import RANK_TOL, SEGMENT_SLACK, SING_TOL, TRACE_TOL

# Rank/geometry taxonomy labels, and the scene case each one draws.
FULL_3D = "Full3D"
SURFACE_3D = "Surface3D"
SEGMENT_INTERIOR = "SegmentInterior"
SEGMENT_ENDPOINT = "SegmentEndpoint"
POINT = "Point"
CASE_THREE_D, CASE_SEGMENT, CASE_POINT = "three_d", "segment", "point"
RANK_CASE_TO_SCENE = {
    FULL_3D: CASE_THREE_D, SURFACE_3D: CASE_THREE_D, SEGMENT_INTERIOR: CASE_SEGMENT,
    SEGMENT_ENDPOINT: CASE_SEGMENT, POINT: CASE_POINT}

# the pseudo-qubit tensor identity/3, entry for entry as np.eye(3) / 3.0
PSEUDO_TENSOR = ((1.0 / 3.0, 0.0, 0.0), (0.0, 1.0 / 3.0, 0.0), (0.0, 0.0, 1.0 / 3.0))


class StateParams(_Record):
    """Bloch vector, off-diagonal correlations, diagonal weights, full tensor."""

    __slots__ = ("a", "q", "omega", "T")

    def __init__(self, a: np.ndarray, q: np.ndarray, omega: np.ndarray, T: np.ndarray):
        self.a, self.q, self.omega, self.T = a, q, omega, T


class ValidityReport(_Record):
    __slots__ = ("c1_ok", "c2_ok", "c3_ok", "overall")  # c1: weights in [0, 1]; c2, c3: minors

    def __init__(self, c1_ok: bool, c2_ok: bool, c3_ok: bool, overall: bool):
        self.c1_ok, self.c2_ok, self.c3_ok, self.overall = c1_ok, c2_ok, c3_ok, overall


class MetricTensor(_Record):
    __slots__ = ("gamma", "defined")

    def __init__(self, gamma: np.ndarray | None, defined: bool):
        self.gamma, self.defined = gamma, defined


def _lazy(slot: str) -> property:
    """A frozen record's field in ``slot``: a function there is called with the record on read."""
    def read(self):  # the function holds no reference to the record, so no cycle forms
        value = getattr(self, slot)
        if callable(value):
            value = value(self)
            object.__setattr__(self, slot, value)
        return value
    return property(read)


class RankReport(_Record):
    """rho's rank, geometry case and eigenvalues (_lazy)."""

    __slots__ = ("rank", "case", "_eigenvalues")
    __setattr__ = __delattr__ = _Record._frozen
    eigenvalues = _lazy("_eigenvalues")

    def __init__(self, rank: int, case: str, eigenvalues):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "_eigenvalues", eigenvalues)


def _as_rows(rho: np.ndarray) -> list:
    """rho's rows of Python complex, checked (_density_rows); TraceError unless it is 3x3."""
    return _density_rows(_rows(rho, (3, 3), "density matrix", TraceError))


def assert_density(rho: np.ndarray) -> None:
    """Check shape, Hermiticity, entry size and unit trace; positivity is separate.

    Entries stay within half the solver's bound, so T = 1 - 2 Re(rho) stays within it.
    """
    _as_rows(rho)


def _density_rows(rows: list) -> list:
    """assert_density's checks on 3x3 rows, returned; _hermitian_rows takes the half entry bound."""
    rows = _hermitian_rows(rows, "density matrix", _ENTRY_MAX / 2.0)
    tr = rows[0][0] + rows[1][1] + rows[2][2]
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"density matrix trace = {tr.real:.15g}, expected 1")
    return rows


def decompose(rho: np.ndarray) -> StateParams:
    """Extract (a, q, omega, T) from a Hermitian trace-one matrix."""
    return _state_params(_params(_as_rows(rho)))


def _state_params(p: StateParams) -> StateParams:
    """StateParams of lists converted to arrays."""
    return StateParams(_array(p.a), _array(p.q), _array(p.omega), _array(p.T))


def _identity_minus(M) -> list:
    """1 - M on 3x3 rows of Python floats.

    Off the diagonal 0.0 - x, as eye(3) - M computes it: -x would turn a zero entry into -0.0.
    """
    (a, b, c), (d, e, f), (g, h, i) = M
    return [[1.0 - a, 0.0 - b, 0.0 - c], [0.0 - d, 1.0 - e, 0.0 - f], [0.0 - g, 0.0 - h, 1.0 - i]]


def _params(rows: list) -> StateParams:
    """StateParams of lists of a checked density matrix's rows: _bundle(a, 1 - 2 Re(rho))."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
    return _bundle([2.0 * a21.imag, 2.0 * a02.imag, 2.0 * a10.imag], [
        [1.0 - 2.0 * a00.real, 0.0 - 2.0 * a01.real, 0.0 - 2.0 * a02.real],
        [0.0 - 2.0 * a10.real, 1.0 - 2.0 * a11.real, 0.0 - 2.0 * a12.real],
        [0.0 - 2.0 * a20.real, 0.0 - 2.0 * a21.real, 1.0 - 2.0 * a22.real]])


def compose(p: StateParams) -> np.ndarray:
    """Rebuild the density matrix: rho = ((1 - T) - i E(a)) / 2, as _compose computes it."""
    return _array(_compose(_param_lists(p)))


def _param_lists(p: StateParams) -> StateParams:
    """A StateParams of arrays or sequences as one of lists; ValueError for a wrong shape."""
    a, T = _rows(p.a, (3,), "a", dtype=float), _rows(p.T, (3, 3), "T", dtype=float)
    q, omega = _rows(p.q, (3,), "q", dtype=None), _rows(p.omega, (3,), "omega", dtype=None)
    return StateParams(a, q, omega, T)


def _compose(p: StateParams) -> list:
    """rho's rows of a StateParams of lists: ((1 - T) - i E(a)) / 2, entry by entry.

    E[j][k] = sum_l eps_jkl a_l is the Levi-Civita contraction of a.  Each
    entry takes the operations of the numpy expression
    ((eye(3) - T) - 1j * E) / 2.0 in its order, signed zeros included.
    InconsistentParamsError for a non-finite entry or parameters that disagree.
    """
    a, q, omega, T = p.a, p.q, p.omega, p.T
    for name, xs in (("a", a), ("q", q), ("omega", omega), ("T", [x for row in T for x in row])):
        if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in xs):
            raise InconsistentParamsError(f"{name} has a non-finite entry")
    if max(abs(x - y) for row, col in zip(T, zip(*T)) for x, y in zip(row, col)) > TRACE_TOL:
        raise InconsistentParamsError("correlation tensor is not symmetric")
    tr = T[0][0] + T[1][1] + T[2][2]
    if abs(tr - 1.0) > TRACE_TOL:
        raise InconsistentParamsError(f"trace(T) = {tr:.15g}, expected 1")
    if max(abs(w - (1.0 - T[j][j]) / 2.0) for j, w in enumerate(omega)) > TRACE_TOL:
        raise InconsistentParamsError("omega does not match (1 - T_jj)/2")
    if max(abs(x - y) for x, y in zip(q, (T[1][2], T[0][2], T[0][1]))) > TRACE_TOL:
        raise InconsistentParamsError("q does not match the off-diagonals of T")
    ax, ay, az = a
    E = ((0.0, az, -ay), (-az, 0.0, ax), (ay, -ax, 0.0))
    return [
        [(x - 1j * e) / 2.0 for x, e in zip(row, erow)] for row, erow in zip(_identity_minus(T), E)
    ]


def params_from_bloch_tensor(a: np.ndarray, T: np.ndarray) -> StateParams:
    """Bundle (a, T) into StateParams, deriving omega and q from T."""
    a, T = _rows(a, (3,), "a", dtype=float), _rows(T, (3, 3), "T", dtype=float)
    return _state_params(_bundle(a, T))


def _bundle(a: list, T: list) -> StateParams:
    """StateParams of lists of a Bloch vector and a tensor's rows; T becomes (T + T^t)/2."""
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = T
    d0, d1, d2 = (t00 + t00) / 2.0, (t11 + t11) / 2.0, (t22 + t22) / 2.0
    q0, q1, q2 = (t12 + t21) / 2.0, (t02 + t20) / 2.0, (t01 + t10) / 2.0
    return StateParams(a, [q0, q1, q2], [(1.0 - d0) / 2.0, (1.0 - d1) / 2.0, (1.0 - d2) / 2.0],
                       [[d0, q2, q1], [q2, d1, q0], [q1, q0, d2]])


def validate(p: StateParams) -> ValidityReport:
    """Positivity verdict and minor diagnostics of a parameter bundle (_record of its rho)."""
    return _record(_density_rows(_compose(_param_lists(p))), None, True).validity


def _metric(T: list) -> list | None:
    """Gamma = (1 - T) / det(1 - T) of T's rows, None if det <= SING_TOL, ValueError on overflow."""
    one_minus = _identity_minus(T)
    d = det3(one_minus)
    if not math.isfinite(d):
        raise ValueError("det(1 - T) overflows")
    return [[x / d for x in row] for row in one_minus] if d > SING_TOL else None


def metric_tensor(T: np.ndarray) -> MetricTensor:
    """Gamma = (1 - T) / det(1 - T), undefined when the determinant vanishes."""
    gamma = _metric(_rows(T, (3, 3), "T", dtype=float))
    return MetricTensor(None if gamma is None else _array(gamma), gamma is not None)


def gamma_norm(a: np.ndarray, T: np.ndarray) -> float:
    """a . Gamma . a, the metric norm of the Bloch vector (_gamma_norm)."""
    return _gamma_norm(_rows(a, (3,), "a", dtype=float), _rows(T, (3, 3), "T", dtype=float))


def _gamma_norm(a: list, T: list) -> float:
    """a . Gamma . a of a Bloch vector and T's rows, on Python floats in a fixed order.

    M = _identity_minus(T) and d = det3(M), as _metric takes them; w_j =
    a . M[:, j] and (w . a) / d, each summed in index order.  ValueError
    when d overflows, MetricUndefinedError when d <= SING_TOL, then
    ValueError when the norm overflows.
    """
    M = _identity_minus(T)
    d = det3(M)
    if not math.isfinite(d):
        raise ValueError("det(1 - T) overflows")
    if d <= SING_TOL:
        raise MetricUndefinedError(f"det(1 - T) = {d:.3e} is not above {SING_TOL:g}")
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    a0, a1, a2 = a
    g = ((a0 * m00 + a1 * m10 + a2 * m20) * a0 + (a0 * m01 + a1 * m11 + a2 * m21) * a1
         + (a0 * m02 + a1 * m12 + a2 * m22) * a2) / d
    if not math.isfinite(g):
        raise ValueError("the metric norm a . Gamma . a overflows")
    return g


def semi_axes(tensor_eigenvalues: np.ndarray) -> np.ndarray:
    """Ellipsoid semi-axes eps_j = sqrt((1-lambda_k)(1-lambda_l)), descending input."""
    return _array(_semi_axes(_rows(tensor_eigenvalues, (3,), "tensor eigenvalues", dtype=float)))


def _semi_axes(tensor_eigenvalues: list) -> list:
    """semi_axes of three Python floats, as a list."""
    x0, x1, x2 = tensor_eigenvalues
    l0, l1, l2 = 1.0 - x0, 1.0 - x1, 1.0 - x2
    p0, p1, p2 = l1 * l2, l0 * l2, l0 * l1  # one below 0.0 becomes 0.0; -0.0 and NaN pass
    return [math.sqrt(0.0 if p0 < 0.0 else p0), math.sqrt(0.0 if p1 < 0.0 else p1),
            math.sqrt(0.0 if p2 < 0.0 else p2)]


def _state_rows(rows: list, ranked: bool = False) -> tuple:
    """_verdict of checked rows, returned when it finds them positive; else NotPositiveError.

    The one gate that turns a failed verdict into the "not positive" error.
    """
    verdict = _verdict(rows, ranked)
    if not verdict[0]:
        values = verdict[2] or _eigvals(rows)
        raise NotPositiveError(f"not positive: min eigenvalue {values[-1]:.3e} < -{RANK_TOL:g}")
    return verdict


def check_state(rho: np.ndarray) -> np.ndarray:
    """rho as a complex density matrix; NotPositiveError unless it is a state."""
    _state_rows(_as_rows(rho))
    return _array(rho, complex)


class Analysis(_Record):
    """Everything reported about one Hermitian trace-one matrix.

    ``eigenvalues`` are rho's, ``tensor_eigenvalues`` and the matching
    real eigenvector columns ``frame`` are T's, all descending;
    ``semi_axes`` are the ellipsoid's.  ``rank`` is None when rho is not
    positive semidefinite.  The scalar core (_record) fills it with lists
    of Python floats, matrices as lists of rows; analyse() returns it with
    numpy arrays, its rank sharing the array ``eigenvalues``.  The
    eigenvalues, frame and validity may be solved when first read (_lazy).
    """

    __slots__ = ("params", "_eigenvalues", "tensor_eigenvalues", "_frame", "semi_axes",
                 "_validity", "rank")
    __setattr__ = __delattr__ = _Record._frozen
    eigenvalues, frame, validity = RankReport.eigenvalues, _lazy("_frame"), _lazy("_validity")

    def __init__(self, params, eigenvalues, tensor_eigenvalues, frame, semi_axes, validity, rank):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_eigenvalues", eigenvalues)
        object.__setattr__(self, "tensor_eigenvalues", tensor_eigenvalues)
        object.__setattr__(self, "_frame", frame)
        object.__setattr__(self, "semi_axes", semi_axes)
        object.__setattr__(self, "_validity", validity)
        object.__setattr__(self, "rank", rank)

    def _frame_of(self) -> list:
        """T's frame, solved with its values (the record's, bit for bit)."""
        return _eigensystem3(self.params.T)[1]

    def _validity_of(self) -> ValidityReport:
        """The record's _validity: positive when rho has a rank."""
        return _validity(self.tensor_eigenvalues, self.frame, self.params.a, self.rank is not None)


def _validity(tvals: list, frame: list, a: list, positive: bool) -> ValidityReport:
    """The positivity verdict with principal-minor diagnostics in T's eigenbasis.

    In the eigenbasis the matrix takes the diagonal-tensor form, so the
    three minor levels reduce to
        c1:  0 <= omega_j <= 1
        c2:  4 omega_j omega_k >= a_l^2
        c3:  4 omega_x omega_y omega_z >= sum_j omega_j a_j^2
    with eigenbasis weights and Bloch components.  The determinant form
    never divides, so boundary states (where the metric tensor is
    singular) are handled without special cases.  It is computed on
    locals: omega_j, a . u_j in index order, and c3's sum as
    (omega_x a_x^2 + omega_y a_y^2) + omega_z a_z^2.

    The three flags carry a fixed slack on the minor *values*, which near
    a double root of the spectrum is a much looser cut than the same
    slack on the eigenvalues (minors scale like products of small roots).
    The overall verdict therefore is the spectrum's, so it agrees with
    min-eigenvalue >= -RANK_TOL exactly; the flags localize which
    condition a clear violation breaks.
    """
    t0, t1, t2 = tvals
    o0, o1, o2 = (1.0 - t0) / 2.0, (1.0 - t1) / 2.0, (1.0 - t2) / 2.0
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = frame
    a0, a1, a2 = a
    b0, b1, b2 = a0 * f00 + a1 * f10 + a2 * f20, a0 * f01 + a1 * f11 + a2 * f21, \
        a0 * f02 + a1 * f12 + a2 * f22
    lo, hi = -RANK_TOL, 1.0 + RANK_TOL
    c1 = lo <= o0 <= hi and lo <= o1 <= hi and lo <= o2 <= hi
    c2 = not (4.0 * o1 * o2 - b0 * b0 < lo or 4.0 * o0 * o2 - b1 * b1 < lo
              or 4.0 * o0 * o1 - b2 * b2 < lo)
    c3 = 4.0 * o0 * o1 * o2 - (o0 * (b0 * b0) + o1 * (b1 * b1) + o2 * (b2 * b2)) >= lo
    return ValidityReport(c1_ok=c1, c2_ok=c2, c3_ok=c3, overall=positive)


def analyse(rho: np.ndarray) -> Analysis:
    """Analyse a Hermitian trace-one matrix (_record), its record converted to arrays."""
    r = _record(_as_rows(rho), None, True)
    values = _array(r.eigenvalues)
    rank = None if r.rank is None else RankReport(r.rank.rank, r.rank.case, values)
    arrays = map(_array, (r.tensor_eigenvalues, r.frame, r.semi_axes))
    return Analysis(_state_params(r.params), values, *arrays, r.validity, rank)


def _record(rows: list, verdict: tuple | None = None, framed: bool = False) -> Analysis:
    """Analyse rho's checked rows: its ranked linalg._verdict and one eigensolve of T.

    Positivity and rank come from rho's _verdict, or from ``verdict``, that
    of a unitarily equivalent state (a trajectory's rho0), which skips
    rho's; the frame, semi-axes, minor diagnostics and geometry case from
    T's, which _params builds exactly symmetric, so it is not checked
    again.  A state's T is solved for its values (the full solve's bits)
    and its frame when read, unless ``framed``.  rho's eigenvalues are the
    verdict's, else solved when read, and the validity is derived when
    read.  A matrix that is not positive is reported, not raised (its T
    solved in full); InternalCheckError means the geometry case failed its
    own consistency checks.
    """
    positive, n, values = _verdict(rows, True) if verdict is None else verdict
    p = _params(rows)
    tvals, frame = (_eigvals(p.T), Analysis._frame_of) if positive and not framed else \
        _eigensystem3(p.T)
    eps = _semi_axes(tvals)
    values = (lambda _: _eigvals(rows)) if values is None else values
    rank = None if n is None else RankReport(n, _rank_case(n, tvals, eps[0], p.a), values)
    return Analysis(p, values, tvals, frame, eps, Analysis._validity_of, rank)


def _rank_case(rank: int, tvals: list, eps_u: float, a: list) -> str:
    """Geometry case of a positive state from its rank and T's spectrum.

    Full-rank states live strictly inside a 3D ellipsoid, rank-2 states
    sit on its surface or strictly inside a line segment, pure states are
    a segment endpoint or (when real, up to phase) a single point at the
    origin.  The semi-axes are eps_j = 2 sqrt(mu_k mu_l) with mu = (1 -
    lambda)/2 the eigenvalues of Re(rho), so which axes are alive is the
    rank of Re(rho), read against the same RANK_TOL as the rank of rho.
    Each degenerate case checks a against SEGMENT_SLACK (InternalCheckError).
    """
    if rank == 3:
        return FULL_3D
    mu = [(1.0 - t) / 2.0 for t in tvals]  # ascending
    if rank == 2 and mu[0] > RANK_TOL:
        return SURFACE_3D
    a_len = vector_norm(a)
    if rank == 1 and mu[1] <= RANK_TOL:
        if a_len >= SEGMENT_SLACK:
            raise InternalCheckError("point case requires a vanishing Bloch vector")
        return POINT
    if abs(tvals[1] + tvals[2]) >= SEGMENT_SLACK:
        raise InternalCheckError("segment requires lambda_v = -lambda_w")
    if rank == 2:
        if a_len >= eps_u + SEGMENT_SLACK:
            raise InternalCheckError("segment-interior Bloch vector exceeds eps_u")
        return SEGMENT_INTERIOR
    if abs(a_len - eps_u) >= SEGMENT_SLACK:
        raise InternalCheckError("pure segment state requires |a| = eps_u")
    return SEGMENT_ENDPOINT


def classify_rank(rho: np.ndarray) -> RankReport:
    """Rank and geometry case of a valid state (_record); NotPositiveError otherwise."""
    rows = _as_rows(rho)
    an = _record(rows, _state_rows(rows, True))
    return RankReport(an.rank.rank, an.rank.case, _array(an.eigenvalues))


def _projector(amp: list) -> list:
    """|psi><psi| as rows of Python complex: entry (i, j) is amp_i conj(amp_j)."""
    return [[x * y.conjugate() for y in amp] for x in amp]


def _haar(rng: np.random.Generator) -> list:
    """Haar-random amplitudes: two standard_normal(3) draws as Python complex, normalised."""
    psi = list(map(complex, rng.standard_normal(3).tolist(), rng.standard_normal(3).tolist()))
    scale = 1.0 / vector_norm(psi)  # as numpy divides a complex by a real
    return [x * scale for x in psi]


def _random_rows(rank: int, rng: np.random.Generator | int | None) -> list:
    """random_density's rows: sum w |psi><psi|, exactly Hermitian, times 1 / its trace."""
    import numpy as np

    rng = np.random.default_rng(rng)  # a Generator is returned as it is
    terms = [(w, _projector(_haar(rng))) for w in rng.dirichlet([1.0] * rank).tolist()]
    rho = [[_sum(w * P[i][j] for w, P in terms) for j in range(3)] for i in range(3)]
    scale = 1.0 / (rho[0][0].real + rho[1][1].real + rho[2][2].real)
    return [[x * scale for x in row] for row in rho]


def random_density(rank: int = 3, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Seeded sampler: Dirichlet-weighted mixture of Haar-random pure states (_random_rows).

    The number of mixture components equals the requested rank, which the
    output achieves with probability one.
    """
    if rank not in (1, 2, 3):
        raise ValueError(f"rank must be 1, 2 or 3, got {rank}")
    return _array(_random_rows(rank, rng))
