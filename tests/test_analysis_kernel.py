"""The written-out analysis core gives the list code's bits, answers and errors.

linalg._eigensystem3 sorts and gauges T's three eigenvector columns on
local variables, and state._bundle, _validity, _semi_axes, _record and
cli.report_text read their three or nine entries into locals once;
state._params hands _bundle a and the rows of 1 - 2 Re(rho), and
_gamma_norm and _metric read 1 - T and det(1 - T) from _identity_minus
and det3.  Each must do the floating-point operations of the list code
it replaced, in the same order: that code is kept below verbatim as the
oracle (_fix_phase, _identity_minus, _bundle, _one_minus and _dot3 with
it).  Results are compared by repr, so -0.0 for 0.0, a complex for a
float or a reordered column counts as a difference, and where the oracle
raises the change must raise the same type and message.  The families
aim at the branches written out: ties of eigenvalues (the sort's order)
and of column moduli (the gauge's pivot), gaps on either side of
DEGEN_GAP and exactly at it, triple clusters, signed zeros, complex
generator rows, a c3 sum whose last bit decides its flag, products of
1 - lambda that are -0.0 or negative, and det(1 - T) at, just above and
just below SING_TOL or overflowing.
"""

import copy
import itertools
import math
import pickle
from dataclasses import field, fields, make_dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from qutrit3d import cli, dynamics, geometry, linalg, purestates, spin1, state
from qutrit3d.dynamics import Generator, Trajectory
from qutrit3d.errors import MetricUndefinedError
from qutrit3d.geometry import EllipsoidScene, Ray
from qutrit3d.linalg import EigenSystem3, _eigensystem3, _jacobi3, det3
from qutrit3d.purestates import MubFamily, PureState
from qutrit3d.spin1 import Spin1Set
from qutrit3d.state import (
    Analysis, MetricTensor, RankReport, StateParams, ValidityReport, _as_rows,
)
from qutrit3d.tolerances import DEGEN_GAP, RANK_TOL, SING_TOL
from test_analysis import _perfbench_inputs


# --- the oracle: the list code, verbatim ------------------------------------


def _dot3(u, w) -> float:
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _fix_phase(v: list) -> list:
    """Make the first largest-magnitude component real positive."""
    pivot = max(v, key=abs)
    gauge = pivot / abs(pivot)
    return [x / gauge for x in v]


def _old_eigensystem3(rows: list) -> tuple[list, list]:
    vals, V = linalg._jacobi3(rows, with_vectors=True)
    order = sorted(range(3), key=lambda k: -vals[k])
    vals = [vals[k] for k in order]
    cols = [[row[k] for row in V] for k in order]

    i = 0
    while i < 3:
        j = i + 1
        while j < 3 and vals[j - 1] - vals[j] < DEGEN_GAP:
            j += 1
        if j - i > 1:
            linalg._reorthonormalize_cluster(cols, range(i, j))
        i = j

    cols = [_fix_phase(v) for v in cols]
    return vals, [list(row) for row in zip(*cols)]


def _identity_minus(M) -> list:
    (a, b, c), (d, e, f), (g, h, i) = M
    return [[1.0 - a, 0.0 - b, 0.0 - c], [0.0 - d, 1.0 - e, 0.0 - f], [0.0 - g, 0.0 - h, 1.0 - i]]


def _bundle(a: list, T: list) -> StateParams:
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = T
    d = [(t00 + t00) / 2.0, (t11 + t11) / 2.0, (t22 + t22) / 2.0]
    q = [(t12 + t21) / 2.0, (t02 + t20) / 2.0, (t01 + t10) / 2.0]
    omega = [(1.0 - t) / 2.0 for t in d]
    return StateParams(a, q, omega, [[d[0], q[2], q[1]], [q[2], d[1], q[0]], [q[1], q[0], d[2]]])


def _old_params(rows: list) -> StateParams:
    a = [2.0 * rows[2][1].imag, 2.0 * rows[0][2].imag, 2.0 * rows[1][0].imag]
    return _bundle(a, _identity_minus([[2.0 * x.real for x in row] for row in rows]))


def _one_minus(T: list) -> tuple[list, float]:
    one_minus = _identity_minus(T)
    d = det3(one_minus)
    if not math.isfinite(d):
        raise ValueError("det(1 - T) overflows")
    return one_minus, d


def _old_metric(T: list) -> list | None:
    one_minus, d = _one_minus(T)
    return [[x / d for x in row] for row in one_minus] if d > SING_TOL else None


def _old_gamma_norm(a: list, T: list) -> float:
    one_minus, d = _one_minus(T)
    if d <= SING_TOL:
        raise MetricUndefinedError(f"det(1 - T) = {d:.3e} is not above {SING_TOL:g}")
    g = _dot3([_dot3(a, col) for col in zip(*one_minus)], a) / d
    if not math.isfinite(g):
        raise ValueError("the metric norm a . Gamma . a overflows")
    return g


def _old_semi_axes(tensor_eigenvalues: list) -> list:
    l0, l1, l2 = (1.0 - x for x in tensor_eigenvalues)
    return [math.sqrt(max(p, 0.0)) for p in (l1 * l2, l0 * l2, l0 * l1)]


def _old_validity(tvals: list, frame: list, a: list, positive: bool) -> ValidityReport:
    om = [(1.0 - t) / 2.0 for t in tvals]
    at = [_dot3(a, col) for col in zip(*frame)]
    c1 = all(-RANK_TOL <= w <= 1.0 + RANK_TOL for w in om)
    minors = [4.0 * om[k] * om[l] - at[j] * at[j] for j, k, l in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    c2 = not any(m < -RANK_TOL for m in minors)
    c3 = 4.0 * om[0] * om[1] * om[2] - _dot3(om, [x * x for x in at]) >= -RANK_TOL
    return ValidityReport(c1_ok=c1, c2_ok=c2, c3_ok=c3, overall=positive)


def _old_record(rows: list, spectrum: tuple | None = None) -> Analysis:
    if spectrum is None:  # the parent's state._spectrum, inlined
        values = linalg._eigvals(rows)
        spectrum = values, values[-1] >= -RANK_TOL
    values, positive = spectrum
    p = _old_params(rows)
    tvals, frame = _old_eigensystem3(p.T)
    eps = _old_semi_axes(tvals)
    rank = None
    if positive:
        n = sum(v > RANK_TOL for v in values)
        rank = RankReport(n, state._rank_case(n, tvals, eps[0], p.a), values)
    validity = _old_validity(tvals, frame, p.a, positive)
    return Analysis(p, values, tvals, frame, eps, validity, rank)


def _old_vec(v: list) -> str:
    return " ".join(cli._fmt(x) for x in v)


def _vector_lines(r) -> list:
    """The five vector lines of record r's report, each vector as _old_vec prints it."""
    vectors = (r.params.a, r.params.q, r.params.omega, r.tensor_eigenvalues, r.semi_axes)
    names = ("a", "q", "omega", "tensor eigenvalues", "semi-axes")
    return [f"{name}: {_old_vec(v)}" for name, v in zip(names, vectors)]


# --- comparison ----------------------------------------------------------------


def _outcome(fn, *args):
    """("ok", repr of the result) or ("raised", exception type, message).

    A default object repr fails: it prints only an address, which the next
    object can reuse once the first is freed, so two records would compare
    equal unread.
    """
    try:
        result = repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("raised", type(exc), str(exc))
    assert " object at 0x" not in result, result
    return ("ok", result)


def _same(new, old, *args) -> None:
    got, want = _outcome(new, *args), _outcome(old, *args)
    assert got == want, args


# --- families ------------------------------------------------------------------


def _rotation(rng) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    return Q * np.sign(np.diag(R))


def _symmetric(M) -> list:
    M = np.asarray(M, dtype=float)
    return ((M + M.T) / 2.0).tolist()


def _density_rows() -> dict:
    """Checked density rows, by family: states, near-states and non-positive matrices."""
    rng = np.random.default_rng(2525)
    inputs = _perfbench_inputs()
    perfbench = [inputs.matrix(item) for seed in range(1, 6)
                 for item in inputs.analyze_inputs(seed)]
    real_pure = []
    for v in [rng.standard_normal(3) for _ in range(12)] + [
        np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0]),
        np.array([0.0, 1.0, -1.0]),
    ]:
        v = v / np.linalg.norm(v)
        real_pure.append(np.outer(v, v).astype(complex))
    signed = []
    for diag in ((0.5, 0.25, 0.25), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5), (1.0, -0.0, 0.0),
                 (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), (0.0, 0.5, 0.5)):
        for k in range(8):
            z = [complex(-0.0 if k & 1 else 0.0, -0.0 if k & 2 else 0.0) for _ in range(3)]
            if k & 4:
                z = [w.conjugate() for w in z]
            d0, d1, d2 = map(complex, diag)
            signed.append([[d0, z[0], z[1]], [z[0].conjugate(), d1, z[2]],
                           [z[1].conjugate(), z[2].conjugate(), d2]])
    # a real 2x2 block [[x, y], [y, x]]: the Jacobi rotates it by exactly 45 degrees, so
    # two components of its eigenvectors tie in modulus; with and without a Bloch vector
    ties = []
    for x, y, b in ((0.4, 0.1, 0.0), (0.25, -0.2, 0.0), (0.3, 0.3, 0.0), (0.4, 0.1, 0.05),
                    (0.35, -0.05, 0.02), (0.5, 0.5, 0.0)):
        ties.append([[x, complex(y, b), 0.0], [complex(y, -b), x, 0.0], [0.0, 0.0, 1.0 - 2.0 * x]])
    # det(1 - T) = 8 det(Re rho) within 10x of SING_TOL, on both sides of it
    singular = []
    for k in (-10.0, -2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 1.01, 2.0, 10.0):
        R = _rotation(rng)
        re = R @ np.diag([0.5, 0.5 - k * SING_TOL / 2.0, k * SING_TOL / 2.0]) @ R.T
        singular.append(re + 1j * 1e-6 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0] * 3]))
    # an eigenvalue of rho exactly at RANK_TOL, not counted in the rank
    at_rank_tol = [np.diag(p).astype(complex) for p in itertools.permutations(
        (0.6, 0.4 - RANK_TOL, RANK_TOL))]
    nonpositive = []
    for _ in range(12):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = np.eye(3) / 3.0 + 0.3 * (A + A.conj().T)
        nonpositive.append(M / np.trace(M).real)
    families = {
        "perfbench analyze, seeds 1-5": perfbench,
        "real pure": real_pure,
        "maximally mixed": [np.eye(3, dtype=complex) / 3.0],
        "signed zeros": signed,
        "modulus ties": ties,
        "det(1 - T) near SING_TOL": singular,
        "non-positive": nonpositive,
        "eigenvalue at RANK_TOL": at_rank_tol,
    }
    return {name: [state._as_rows(rho) for rho in rhos] for name, rhos in families.items()}


def _exact_gap_rows() -> list:
    """Real symmetric rows whose Jacobi gaps include one of exactly DEGEN_GAP.

    A block [[a, b], [b, a]] of entries near DEGEN_GAP is rotated once;
    its values l_hi > l_lo lie in [G, 2G), G = DEGEN_GAP, so z = l_lo - G
    and, when it is exact, z = l_hi + G are floats, and the gap to z is
    exactly G.  The block's own gap, about 2b, is below or above G.
    """
    found = []
    for a, b in ((1.5, 0.25), (1.4, 0.45), (1.5, 0.3), (1.45, 0.55), (1.3, 0.2), (1.6, -0.35)):
        a, b = a * DEGEN_GAP, b * DEGEN_GAP
        hi, lo = sorted(_jacobi3([[a, b, 0.0], [b, a, 0.0], [0.0, 0.0, 0.0]], False)[0][:2],
                        reverse=True)
        below = lo - DEGEN_GAP
        assert lo - below == DEGEN_GAP
        found.append([[a, b, 0.0], [b, a, 0.0], [0.0, 0.0, below]])
        found.append([[below, 0.0, 0.0], [0.0, a, b], [0.0, b, a]])
        above = hi + DEGEN_GAP
        if Fraction(above) == Fraction(hi) + Fraction(DEGEN_GAP):
            assert above - hi == DEGEN_GAP
            found.append([[above, 0.0, 0.0], [0.0, a, b], [0.0, b, a]])
            found.append([[a, 0.0, b], [0.0, above, 0.0], [b, 0.0, a]])
    return found


def _eigensystem_rows() -> dict:
    """Checked 3x3 rows for _eigensystem3, by family, beyond the T of the density families."""
    rng = np.random.default_rng(2526)
    gaps = []
    for f1 in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 10.0):
        for f2 in (0.5, 1.01, 2.0, 10.0):
            lam = [0.3, 0.3 - f1 * DEGEN_GAP, 0.3 - (f1 + f2) * DEGEN_GAP]
            R = _rotation(rng)
            gaps.append(_symmetric(R @ np.diag(rng.permutation(lam)) @ R.T))
            gaps.append(np.diag(rng.permutation(lam)).tolist())
    # c 1 + a few ulps: a triple cluster whose Jacobi values often tie exactly
    scalar = []
    for _ in range(60):
        c = rng.uniform(-1.0, 1.0)
        S = rng.standard_normal((3, 3))
        scalar.append(_symmetric(c * np.eye(3) + c * 2.0**-52 * (S + S.T)))
    # exact ties in diagonal rows, in every order, signed zeros among them: a tie's two
    # values keep their order, which shows in the sign of a zero
    ties = ((0.2, 0.2, 0.5), (0.2, 0.5, 0.5), (0.0, -0.0, 1.0), (0.0, -0.0, -1.0),
            (-0.0, 0.0, -0.0), (1.0, 1.0, -1.0))
    diagonal = [np.diag(p).tolist() for v in ties for p in itertools.permutations(v)]
    complex_ties = [[[0.3, 0.2j, 0.0], [-0.2j, 0.3, 0.0], [0.0, 0.0, 0.4]],
                    [[0.1, 0.0, -0.5j], [0.0, 0.2, 0.0], [0.5j, 0.0, 0.1]],
                    [[0.3, 0.2 + 0.2j, 0.0], [0.2 - 0.2j, 0.3, 0.0], [0.0, 0.0, 0.4]]]
    generators = [list(map(list, g.matrix)) for g in dynamics.canonical_generators()]
    for _ in range(12):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        generators.append(((A + A.conj().T) / 2.0).tolist())
    return {
        "gaps 0.5-10x DEGEN_GAP": gaps,
        "gap exactly DEGEN_GAP": _exact_gap_rows(),
        "near-scalar triple clusters": scalar,
        "diagonal ties": diagonal,
        "complex modulus ties": complex_ties,
        "generators": generators,
    }


DENSITY = _density_rows()
EIGEN = _eigensystem_rows()


def _bundle_inputs(rows: list) -> list:
    """(a, T) that no rho gives, for state._bundle, which params_from_bloch_tensor, pseudo and
    pseudo_qubit reach directly.

    T is not symmetric; then negated and with its zeros' signs flipped;
    then scaled so its largest diagonal entry is 1e308 in modulus, where
    t + t overflows, as may an off-diagonal pair's sum.
    """
    a = [x.imag for x in rows[1]]
    T = [[x.real + 3.0 * x.imag + 0.25 * (j - i) for j, x in enumerate(row)]
         for i, row in enumerate(rows)]
    scale = 1e308 / max(abs(T[0][0]), abs(T[1][1]), abs(T[2][2]))
    huge = [[x * scale for x in row] for row in T]
    return [(a, T), ([-x for x in a], [[-x for x in row] for row in T]), (a, huge),
            (a, [[-0.0 if x == 0.0 else x for x in row] for row in T])]


# --- the tests -----------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(DENSITY))
def test_record_and_metric_are_the_list_codes(family):
    for rows in DENSITY[family]:
        _same(state._params, _old_params, rows)
        inputs = _bundle_inputs(rows)
        for a, T in inputs:
            _same(state._bundle, _bundle, a, T)
        assert math.inf in map(abs, state._bundle(*inputs[2]).omega)
        _same(state._record, _old_record, rows)
        # the lazy record, its frame and validity unread, and the framed one equal the oracle
        if _outcome(_old_record, rows)[0] == "ok":
            old = _old_record(rows)
            assert state._record(rows) == old and not state._record(rows) != old
            assert state._record(rows, None, True) == old
        p = _old_params(rows)
        _same(state._gamma_norm, _old_gamma_norm, p.a, p.T)
        _same(state._metric, _old_metric, p.T)
        r = _old_record(rows)
        assert cli.report_text((r, None)).splitlines()[:5] == _vector_lines(r)


@pytest.mark.parametrize("family", sorted(EIGEN))
def test_eigensystem_is_the_list_codes(family):
    for rows in EIGEN[family]:
        _same(_eigensystem3, _old_eigensystem3, rows)


def test_values_only_solve_is_the_full_solves_values():
    """linalg._eigvals(T) is _eigensystem3(T)[0], bit for bit, signed zeros and tie order included.

    A never reads V, and sorted(reverse=True) keeps ties in their order as
    the strict > insertion sort does.  The rows: T of perfbench's analyze
    inputs of seeds 1-5, of real pure, diagonal and maximally mixed states
    (exact double and triple roots) and of +-0.0 entries; gaps within and
    at DEGEN_GAP, near-scalar clusters, exact diagonal ties and generators.
    """
    rows = [_old_params(r).T for family in DENSITY.values() for r in family]
    rows += [r for family in EIGEN.values() for r in family]
    tied = 0
    for T in rows:
        values = linalg._eigvals(T)
        assert repr(values) == repr(_eigensystem3(T)[0]), T
        tied += len(set(values)) < 3
    assert tied >= 20


def test_families_reach_the_written_out_branches():
    """Ties of values and of column moduli, and gaps exactly at DEGEN_GAP, are in the families."""
    value_ties = modulus_ties = exact_gaps = 0
    for rows in [r for family in EIGEN.values() for r in family] + [
        _old_params(r).T for family in DENSITY.values() for r in family
    ]:
        vals, V = _jacobi3(rows, True)
        value_ties += len(set(vals)) < 3
        moduli = [sorted(map(abs, col), reverse=True) for col in zip(*V)]
        modulus_ties += any(m[0] == m[1] for m in moduli)
        s = sorted(vals, reverse=True)
        exact_gaps += DEGEN_GAP in (s[0] - s[1], s[1] - s[2])
    assert value_ties >= 20 and modulus_ties >= 20 and exact_gaps >= 12


def test_semi_axes_are_the_list_codes():
    """Products of 1 - lambda that are negative, -0.0 or NaN, and every family's spectrum."""
    crafted = [[1.5, 1.0, -1.5], [1.0, 1.0, -1.0], [1.25, 0.5, -0.75], [2.0, 1.0, -2.0],
               [1.0 + 2.0**-52, 1.0, -1.0 - 2.0**-52], [math.nan, 0.5, 0.5], [0.5, math.nan, 0.0],
               [math.inf, 0.0, 0.0], [1.0 / 3.0] * 3, [-0.0, -0.0, 1.0]]
    assert any(math.copysign(1.0, x) < 0.0 and x == 0.0 for x in state._semi_axes(crafted[0]))
    spectra = [_old_eigensystem3(_old_params(r).T)[0] for f in DENSITY.values() for r in f]
    for tvals in crafted + spectra:
        _same(state._semi_axes, _old_semi_axes, tvals)


def _c3_edges() -> list:
    """(tvals, identity frame, a) whose c3 flag a reordered sum or product would flip.

    In the identity frame a . u_j is a_j, so omega_j and the Bloch
    components are set exactly; b_2 is stepped ulp by ulp around the root
    of 4 omega_0 omega_1 omega_2 - sum_j omega_j b_j^2 = -RANK_TOL.
    """
    rng = np.random.default_rng(2527)
    frame = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    orders = (  # s_j = b_j^2; the last multiplies omega_j b_j first, then by b_j
        lambda o, s, b: o[0] * s[0] + (o[1] * s[1] + o[2] * s[2]),
        lambda o, s, b: (o[0] * s[0] + o[2] * s[2]) + o[1] * s[1],
        lambda o, s, b: o[2] * s[2] + o[1] * s[1] + o[0] * s[0],
        lambda o, s, b: o[0] * b[0] * b[0] + o[1] * b[1] * b[1] + o[2] * b[2] * b[2],
    )
    found, flipped, wanted = [], set(), set(range(len(orders)))
    for _ in range(2000):
        if flipped == wanted and len(found) >= 12:
            return found
        tvals = sorted(rng.uniform(-0.6, 0.9, 3).tolist(), reverse=True)
        o = [(1.0 - t) / 2.0 for t in tvals]
        b0, b1 = rng.uniform(-0.3, 0.3, 2).tolist()
        rest = 4.0 * o[0] * o[1] * o[2] + RANK_TOL - o[0] * b0 * b0 - o[1] * b1 * b1
        if rest <= 0.0:
            continue
        b2 = math.sqrt(rest / o[2])
        for _ in range(64):
            b2 = math.nextafter(b2, -math.inf)
        for _ in range(128):
            b2 = math.nextafter(b2, math.inf)
            s = [b0 * b0, b1 * b1, b2 * b2]
            p = 4.0 * o[0] * o[1] * o[2]
            want = p - _dot3(o, s) >= -RANK_TOL
            flips = {k for k, f in enumerate(orders)
                     if (p - f(o, s, [b0, b1, b2]) >= -RANK_TOL) != want}
            if flips - flipped or (flips and len(found) < 12):
                flipped |= flips
                found.append((tvals, frame, [b0, b1, b2]))
    raise AssertionError(f"no c3 edge flipped by {wanted - flipped}")


def test_validity_is_the_list_codes():
    """Every family's (tvals, frame, a), and c3 edges where the summation order decides."""
    cases = _c3_edges()
    for family in DENSITY.values():
        for rows in family:
            p = _old_params(rows)
            cases.append((*_old_eigensystem3(p.T), p.a))
    for tvals, frame, a in cases:
        for positive in (True, False):
            _same(state._validity, _old_validity, tvals, frame, a, positive)


def _det_edges() -> list:
    """(a, T) with det(1 - T) exactly SING_TOL and one ulp either side, overflowing or NaN.

    1 - T = [[0, 1, 0], [0, 0, 1], [s, 0, 0]] has det s, computed exactly.
    """
    out = []
    a = [0.3, -0.2, 0.1]
    for s in (SING_TOL, math.nextafter(SING_TOL, 0.0), math.nextafter(SING_TOL, 1.0),
              10.0 * SING_TOL, -SING_TOL, 0.0):
        T = [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-s, 0.0, 1.0]]
        out.append((a, T))
    assert det3(_identity_minus(out[0][1])) == SING_TOL
    big = 1e300
    out += [
        (a, [[big, 0.0, 0.0], [0.0, big, 0.0], [0.0, 0.0, big]]),  # det(1 - T) overflows
        (a, [[math.nan, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        ([1e200, 1e200, 1e200], [[0.0] * 3, [0.0] * 3, [0.0] * 3]),  # the norm overflows
        ([1e200, 0.0, 0.0], [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-2.0 * SING_TOL, 0.0, 1.0]]),
        ([-0.0, 0.0, -0.0], [[0.5, -0.0, 0.0], [-0.0, 0.25, 0.0], [0.0, 0.0, 0.25]]),
    ]
    return out


def test_gamma_norm_errors_are_the_list_codes():
    for a, T in _det_edges():
        _same(state._gamma_norm, _old_gamma_norm, a, T)
        _same(state._metric, _old_metric, T)
    raised = {_outcome(_old_gamma_norm, a, T)[1] for a, T in _det_edges()}
    assert {ValueError, MetricUndefinedError} <= raised


def test_vec_is_the_list_codes():
    """report_text's one %-format of x + 0.0 prints each value as _fmt did: zeros, %g, rounding."""
    rng = np.random.default_rng(2929)
    seeded = (rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200)).tolist()
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e-4, 9.99999999999e-5, 1e12, 1e16,
             -1e12, 0.9999999999995, 0.99999999999949, 1.0000000000005, 999999999999.5]
    for v in ([0.0, -0.0, 1e-300], [math.nan, math.inf, -math.inf], [1.0 / 3.0, -2.5e-13, 1e300],
              (0.1, 0.2, 0.3), np.array([1e-12, -1e-12, 0.5]), [1, 2, 3], [0, -7, 10**15],
              *(edges[k:k + 3] for k in range(len(edges) - 2)),
              *(seeded[k:k + 3] for k in range(0, 198, 3))):
        record = SimpleNamespace(params=SimpleNamespace(a=v, q=v, omega=v), tensor_eigenvalues=v,
                                 semi_axes=v, rank=None, validity=ValidityReport(*[False] * 4))
        assert cli.report_text((record, None)).splitlines()[:5] == _vector_lines(record), v


# the records as the dataclasses they were: RankReport plain, Analysis frozen with slots
_OldRankReport = make_dataclass("RankReport", ["rank", "case", "eigenvalues"])
_OldAnalysis = make_dataclass(
    "Analysis", ["params", "eigenvalues", "tensor_eigenvalues", "frame", "semi_axes", "validity",
                 "rank"], frozen=True, slots=True)
# every record and its oracle: the other eleven with their old decorators' flags
_OLD = {
    Analysis: _OldAnalysis,
    RankReport: _OldRankReport,
    StateParams: make_dataclass("StateParams", ["a", "q", "omega", "T"]),
    ValidityReport: make_dataclass("ValidityReport", ["c1_ok", "c2_ok", "c3_ok", "overall"]),
    MetricTensor: make_dataclass("MetricTensor", ["gamma", "defined"]),
    EigenSystem3: make_dataclass("EigenSystem3", ["values", "vectors"], frozen=True),
    Ray: make_dataclass("Ray", ["dir", "style", "label"]),
    EllipsoidScene: make_dataclass(
        "EllipsoidScene",
        ["case", "semi_axes", "frame", "bloch", ("rays", list, field(default_factory=list))]),
    Generator: make_dataclass("Generator", ["kind", "axis", "matrix", "frame"], frozen=True,
                              eq=False),
    Trajectory: make_dataclass("Trajectory", ["thetas", "states", ("scenes", list, None)]),
    PureState: make_dataclass("PureState", ["amp", "r", "k"]),
    MubFamily: make_dataclass("MubFamily", ["bases"]),
    Spin1Set: make_dataclass("Spin1Set", ["S", "S2", "A"], frozen=True),
}
# RankReport has been frozen since it left its dataclass, unlike its oracle
_FROZEN = {Analysis, RankReport, EigenSystem3, Generator, Spin1Set}


def _records() -> list:
    """Records of every type, of lists from the scalar core and of arrays from the public API."""
    records = [spin1._spin_rows(), spin1.spin_set(), purestates.mub_bases(),
               purestates._pure([0.6j, 0.8 + 0j, 0j]), purestates.rik_decompose([0.6, 0.0, 0.8j])]
    for family in ("perfbench analyze, seeds 1-5", "real pure", "maximally mixed"):
        for rows in DENSITY[family][::9]:
            an = state._record(rows)
            records += [an, an.params, an.validity, state.analyse(np.array(rows)),
                        EigenSystem3(*_eigensystem3(an.params.T))]
            if an.rank is not None:
                scene = geometry._scene(rows)
                records += [an.rank, scene, *scene.rays, geometry.build_scene(np.array(rows))]
    rho, H = np.array(DENSITY["perfbench analyze, seeds 1-5"][0]), np.diag([1.0, 0.0, -1.0])
    for g in (dynamics.rotation("y"), dynamics.custom(H)):
        records += [g, dynamics._trajectory(_as_rows(rho), g, [0.0, 0.5], True),
                    dynamics.trajectory(rho, g, 1.0, 3), dynamics.trajectory(rho, g, 1.0, 2, True)]
    records += [state.decompose(rho), linalg.eig_hermitian3(rho), state.metric_tensor(H),
                state.metric_tensor(np.eye(3) / 3.0)]
    return records


def _check_record(record) -> None:
    """One record against its oracle: fields, copies, repr, ==, hash, keywords and frozenness."""
    cls, old = type(record), _OLD[type(record)]
    names = [f.name for f in fields(old)]
    assert issubclass(cls, linalg._Record) and {"__slots__", "__init__"} <= set(vars(cls))
    assert [name.lstrip("_") for name in cls.__slots__] == names
    assert not hasattr(record, "__dict__")
    # copied and pickled as the dataclasses were, before a lazy field is read
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and repr(clone) == repr(record)
    values = [getattr(record, name) for name in names]
    twin, other = old(*values), object()
    assert repr(record) == repr(twin)
    # built by keyword; == and != as the oracle's, on the same fields and on a changed last one
    rebuilt = cls(**dict(zip(names, values)))
    assert repr(rebuilt) == repr(record)
    for new_other, old_other in ((rebuilt, old(*values)),
                                 (cls(*values[:-1], other), old(*values[:-1], other))):
        assert _outcome(lambda: record == new_other) == _outcome(lambda: twin == old_other)
        assert _outcome(lambda: record != new_other) == _outcome(lambda: twin != old_other)
    assert record.__eq__(other) is NotImplemented and record != twin and twin != record
    if cls is Generator:  # a value compared and hashed by identity
        assert hash(record) == object.__hash__(record) and record == record
    else:
        with pytest.raises(TypeError):
            hash(record)
    old_frozen = _outcome(setattr, twin, names[0], None)[0] == "raised"
    assert (cls in _FROZEN) == old_frozen or cls is RankReport
    for name in names:
        if cls in _FROZEN:
            for change in (lambda: setattr(record, name, None), lambda: delattr(record, name)):
                with pytest.raises(AttributeError):
                    change()
        else:
            clone = copy.copy(record)
            setattr(clone, name, other)
            assert getattr(clone, name) is other and getattr(record, name) is not other


def test_records_print_and_compare_as_the_dataclasses():
    """Every record prints, compares, copies and freezes as the dataclass it was."""
    for family in DENSITY.values():
        for rows in family[::7]:
            an, values = state._record(rows), linalg._eigvals(rows)
            rank = an.rank and _OldRankReport(an.rank.rank, an.rank.case, values)
            old = _OldAnalysis(an.params, values, an.tensor_eigenvalues, an.frame, an.semi_axes,
                               an.validity, rank)
            assert repr(an) == repr(old)
            assert an == state._record(rows) and not an != state._record(rows)
    report = RankReport(1, "Point", [1.0, 0.0, 0.0])
    assert report == RankReport(1, "Point", [1.0, 0.0, 0.0])
    assert report != RankReport(1, "Point", [1.0, 0.0, 1e-300])
    assert report != _OldRankReport(1, "Point", [1.0, 0.0, 0.0]) and report != (1, "Point")
    an = state._record(DENSITY["maximally mixed"][0])
    assert an != an.rank and an.__eq__(object()) is NotImplemented
    # a lazy eigenvalues field, solved by the copies, the pickle and the reads
    assert callable(an._eigenvalues) and callable(an.rank._eigenvalues)
    # a state's frame and validity are lazy too: copied and pickled before either is read,
    # each equals the record, and neither can be assigned
    for rows in DENSITY["perfbench analyze, seeds 1-5"][:30]:
        lazy = state._record(rows)
        assert callable(lazy._validity) and callable(lazy._frame) == (lazy.rank is not None)
        for clone in (copy.copy(lazy), copy.deepcopy(lazy), pickle.loads(pickle.dumps(lazy))):
            assert clone == lazy and repr(clone) == repr(lazy)
            assert clone == state._record(rows, None, True)
        for name in ("frame", "validity", "_frame", "_validity"):
            with pytest.raises(AttributeError):
                setattr(state._record(rows), name, None)
    records = [an, report, *_records()]
    assert {type(record) for record in records} == set(_OLD)
    for record in records:
        _check_record(record)
    # the two defaults: a fresh empty list of rays, and no scenes
    v = [0.0, 0.0, 0.0]
    scenes = EllipsoidScene("point", v, v, v), EllipsoidScene(case="point", semi_axes=v, frame=v,
                                                               bloch=v)
    assert scenes[0].rays == scenes[1].rays == [] and scenes[0].rays is not scenes[1].rays
    assert repr(scenes[0]) == repr(_OLD[EllipsoidScene]("point", v, v, v))
    assert repr(Trajectory([0.0], [])) == repr(_OLD[Trajectory]([0.0], []))
    # the mutable records convert to arrays in place
    scene = geometry._scene(DENSITY["real pure"][0])
    assert geometry._scene_arrays(scene) is scene and isinstance(scene.frame, np.ndarray)
    assert scene.rays and all(isinstance(ray.dir, np.ndarray) for ray in scene.rays)
    pure = purestates._pure([1.0 + 0j, 0j, 0j])
    assert purestates._pure_arrays(pure) is pure and isinstance(pure.amp, np.ndarray)
