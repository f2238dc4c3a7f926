"""The proven verdicts of linalg._at_least, against the Jacobi and against exact arithmetic.

_at_least(rows, floor) answers True or False only where it can prove what
the Jacobi decides for lambda_min >= floor, and None elsewhere, where the
callers run the Jacobi.  The agreement test compares every answer with
_eigvals(rows)[-1] >= -RANK_TOL on seeded families: the perfbench input
kinds for rho and for its partial transpose, spectra moved to within
10^-13 .. 10^-6 of the threshold on either side, rows Hermitian only to
within HERM_TOL, and zero rows, singular leading blocks and entries
above 1.  The exact test decides lambda_min >= -RANK_TOL of exactly
Hermitian rows with integers alone, from the signs of the coefficients of
the characteristic polynomial of A + RANK_TOL 1; in _at_least's band,
where state._verdict falls back to the Jacobi, it checks that fallback
too, away from a stated margin.  With count, _at_least proves the number
of eigenvalues above floor from the pivots' inertia at two shifts: it is
checked against the Jacobi's count on the same families, against the
exact count above RANK_TOL (Descartes' rule of signs on the same
integers) on seeded states of every rank, near the threshold and with
near-double roots, and for its share of None on the perfbench states.
The kernels, one per
size on local variables, must answer as the generic row loop they
replaced, kept below verbatim as a frozen oracle, and hand _witness the
same factor L and ceiling, on every family and on the perfbench inputs.

The metric norm a . Gamma . a of state._gamma_norm is checked the same
way, in Fractions of the a and T the code computes: on dyadic rho, where
they describe rho exactly, the paper's identity det rho = det(Re rho)
(1 - a . Gamma . a) holds exactly, and on those and on rotated states
with det(1 - T) within 10x of SING_TOL on both sides, _gamma_norm raises
exactly when the exact det(1 - T) <= SING_TOL, wherever the two are
further apart than det3's rounding bound, and its float is within the
bound of its rounding of the exact norm.
"""

import functools
import importlib.util
import itertools
import math
import os
from fractions import Fraction
from itertools import chain

import numpy as np

from qutrit3d import linalg, state
from qutrit3d.errors import MetricUndefinedError
from qutrit3d.linalg import _at_least, _eigvals, _partial_transpose
from qutrit3d.spin1 import _to_two_qubit
from qutrit3d.tolerances import CERT_GAMMA, CERT_MARGIN, CERT_SKEW, HERM_TOL, RANK_TOL, SING_TOL

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- the oracle: the generic certificate loop over nested lists, verbatim ----------


def _old_at_least(rows: list, floor: float) -> bool | None:
    if max(map(abs, chain.from_iterable(rows))) > 1.0:
        return None
    skew = 0.0
    for i, row in enumerate(rows):
        y = row[i].imag
        skew += 4.0 * y * y
        for j in range(i):
            z = row[j] - rows[j][i].conjugate()
            skew += 2.0 * (z.real * z.real + z.imag * z.imag)
    margin = CERT_MARGIN + CERT_SKEW * math.sqrt(skew)
    shift = floor + margin
    L, d, bound = [], [], 0.0
    for i, row in enumerate(rows):
        Li, sub = [], 0.0
        L.append(Li)
        for j in range(i):
            z, Lj = row[j], L[j]
            for k in range(j):
                z -= Li[k] * d[k] * Lj[k].conjugate()
            z /= d[j]
            Li.append(z)
            sub += d[j] * (z.real * z.real + z.imag * z.imag)
        t = row[i].real - shift - sub
        if not t > 0.0:  # also for a NaN pivot
            return linalg._witness(rows, L, floor - margin)
        d.append(t)
        bound += t + sub
    return True if CERT_GAMMA * bound < margin / 2.0 else None


def _perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded input kinds (numpy only), as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jacobi(rows) -> bool:
    return _eigvals(rows)[-1] >= -RANK_TOL


def _hermitian(M) -> list:
    """Rows of M's upper triangle mirrored, with a real diagonal: exactly Hermitian."""
    n = len(M)
    rows = [[complex(M[i][j]) if i < j else 0j for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = complex(M[i][i].real)
        for j in range(i):
            rows[i][j] = rows[j][i].conjugate()
    return rows


def _unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def _near_threshold(rng, n, lo=-13.0, hi=-6.0):
    """Q diag(lam) Q^dag with lam_min = -RANK_TOL +- 10^U(lo, hi), trace one, as an array."""
    lam = rng.dirichlet(np.ones(n - 1)).tolist()
    lam.append(-RANK_TOL + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo, hi))
    lam[0] -= lam[-1]
    Q = _unitary(rng, n)
    return (Q * lam) @ Q.conj().T


def _skewed(rng, M):
    """M with each upper entry moved by up to HERM_TOL / 2: Hermitian only within HERM_TOL."""
    M = np.array(M, dtype=complex)
    n = len(M)
    for i in range(n):
        M[i, i] += 1j * rng.uniform(-0.2, 0.2) * HERM_TOL
        for j in range(i + 1, n):
            M[i, j] += complex(*rng.uniform(-0.35, 0.35, 2)) * HERM_TOL
    return M.tolist()


def _image(rows) -> list:
    """The partial transpose of a state's two-qubit image, as the bridge builds it."""
    return _partial_transpose(_to_two_qubit(rows))


def _perfbench_rows(seeds) -> list:
    """rho and, where rho is a state, its partial transpose for every perfbench state input."""
    inputs = _perfbench_inputs()
    found = []
    for seed in seeds:
        for item in inputs.analyze_inputs(seed) + inputs.bridge_inputs(seed):
            rho = inputs.matrix(item).tolist()
            found.append(rho)
            if _jacobi(rho):
                found.append(_image(rho))
            else:  # the bridge refuses it, so its image comes from numpy
                image = inputs.two_qubit_image(np.array(rho))
                found.append(inputs.partial_transpose(image).tolist())
    return found


@functools.cache
def _families() -> dict:
    """Seeded rows of 3x3 and 4x4 matrices, by family: built once, read and never written."""
    rng = np.random.default_rng(2323)
    near = [_near_threshold(rng, 3 + i % 2) for i in range(1200)]
    # half of them within the skew's reach of the threshold, where the widening decides
    skewed = [_skewed(rng, _near_threshold(rng, 3 + i % 2, -13.0, -9.5 if i % 4 < 2 else -6.0))
              for i in range(1200)]
    states = [_hermitian(_near_threshold(rng, 3, -9.0, -6.0)) for _ in range(200)]
    images = [_image(rho) for rho in states if _jacobi(rho)]
    edge = [[[0j] * n for _ in range(n)] for n in (3, 4)]
    for i in range(120):
        n = 3 + i % 2
        M = np.array(_near_threshold(rng, n, -13.0, -7.0))
        # a singular leading block: a zero first row and column, or a rank-one leading 2x2
        if i % 3 == 0:
            M[0, :] = M[:, 0] = 0.0
        elif i % 3 == 1:
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            M[:2, :2] = 0.5 * np.outer(v, v.conj()) / np.vdot(v, v).real
        edge.append(_hermitian(M))
    return {
        "near": [_hermitian(M) for M in near],
        "near, both triangles": [M.tolist() for M in near],
        "skewed": skewed,
        "images": images,
        "edge": edge,
    }


def test_at_least_agrees_with_the_jacobi():
    found = {name: [] for name in ("disagree", "band answered")}
    for name, family in _families().items():
        for rows in family:
            verdict = _at_least(rows, -RANK_TOL)
            if verdict is not None and verdict != _jacobi(rows):
                found["disagree"].append((name, rows))
            # the band where the Jacobi's own rounding could decide: never answered
            lam = np.linalg.eigvalsh(np.array(rows))[0]
            if abs(lam + RANK_TOL) <= CERT_MARGIN / 4.0 and verdict is not None:
                found["band answered"].append((name, rows))
    assert found == {"disagree": [], "band answered": []}


def test_count_agrees_with_the_jacobi():
    """A proven count of eigenvalues above floor is the Jacobi's, 3x3 and 4x4, at both floors.

    None where an eigenvalue is within CERT_MARGIN / 4 of floor, for a
    zero pivot, and for an entry above 1.
    """
    found = []
    for name, family in _families().items():
        for rows in family[::2]:
            values, lam = _eigvals(rows), np.linalg.eigvalsh(np.array(rows))
            for floor in (-RANK_TOL, RANK_TOL):
                count = _at_least(rows, floor, True)
                if count is not None and count != sum(v > floor for v in values):
                    found.append((name, floor, rows))
                if count is not None and min(abs(lam - floor)) <= CERT_MARGIN / 4.0:
                    found.append(("band answered", floor, rows))
    assert found == []
    shift = RANK_TOL + CERT_MARGIN  # exactly Hermitian rows have no skew
    zero_pivot = [[shift, 0.1, 0.0], [0.1, 0.5, 0.0], [0.0, 0.0, 0.5 - shift]]
    assert zero_pivot[0][0] - shift == 0.0 and _at_least(zero_pivot, RANK_TOL, True) is None
    at_threshold = np.diag([0.6, 0.4 - RANK_TOL, RANK_TOL]).tolist()
    assert _at_least(at_threshold, RANK_TOL, True) is None
    assert _at_least((2.0 * np.array(at_threshold)).tolist(), -RANK_TOL, True) is None
    assert _at_least(np.diag([0.6, 0.4, 0.0]).tolist(), RANK_TOL, True) == 2


def test_kernels_answer_as_the_frozen_loop(monkeypatch):
    """The same answer, and the same L and ceiling handed to _witness, at both floors.

    The rows are every family, 3x3 and 4x4, and the perfbench analyze and
    bridge inputs of seeds 1-5 with their partial transposes.
    """
    handed = []
    witness = linalg._witness

    def recorded(rows, L, ceiling):
        handed.append(repr((L, ceiling)))
        return witness(rows, L, ceiling)

    monkeypatch.setattr(linalg, "_witness", recorded)
    rows = [r for family in _families().values() for r in family]
    rows += _perfbench_rows(seeds=(1, 2, 3, 4, 5))
    assert {len(r) for r in rows} == {3, 4}
    found = []
    for r in rows:
        for floor in (-RANK_TOL, RANK_TOL):
            handed.clear()
            old = _old_at_least(r, floor), handed[:]
            handed.clear()
            new = _at_least(r, floor), handed[:]
            if new != old:
                found.append((r, floor, old, new))
    assert found == []


def _largest(rows) -> float:
    return max(abs(x) for row in rows for x in row)


def test_at_least_decides_the_perfbench_inputs():
    """At most 1% undecided among the inputs within the scale guard, which are nearly all.

    Only analyze's renormalised non-positive states have entries above 1.
    """
    rows = _perfbench_rows(seeds=(1, 2))
    verdicts = [_at_least(r, -RANK_TOL) for r in rows]
    assert [v for v, r in zip(verdicts, rows) if v is not None and v != _jacobi(r)] == []
    within = [v for v, r in zip(verdicts, rows) if _largest(r) <= 1.0]
    assert len(within) >= 0.95 * len(rows)
    assert within.count(None) <= len(within) // 100, (within.count(None), len(within))
    # both answers occur: the states are proven, most partial transposes refuted
    assert within.count(True) > 0 and within.count(False) > 0


def test_count_decides_the_perfbench_states():
    """A proven rank for all but at most 1% of the perfbench analyze inputs that are states."""
    inputs = _perfbench_inputs()
    counts = []
    for seed in (1, 2, 3):
        for item in inputs.analyze_inputs(seed):
            rows = inputs.matrix(item).tolist()
            values = _eigvals(rows)
            if values[-1] >= -RANK_TOL:
                counts.append(_at_least(rows, RANK_TOL, True))
                assert counts[-1] in (None, sum(v > RANK_TOL for v in values)), rows
    assert len(counts) == 210 and counts.count(None) <= len(counts) // 100, counts.count(None)
    assert {1, 2, 3} <= set(counts)


def test_at_least_leaves_entries_above_one_to_the_jacobi():
    rng = np.random.default_rng(7)
    for n in (3, 4):
        Q = _unitary(rng, n)
        M = (Q * rng.uniform(0.1, 1.0, n)) @ Q.conj().T
        for largest in (1.0 + 2.0**-40, 2.0, 1e3):
            rows = _hermitian(largest / _largest(M) * M)
            assert _largest(rows) > 1.0 and _at_least(rows, -RANK_TOL) is None


# --- exact verdicts: every float is a dyadic rational, so a common power of two makes the
# entries Gaussian integers, and integer arithmetic decides the sign of every coefficient


def _gaussian_integers(rows, shift: float) -> list:
    """2^p (rows + shift 1) as rows of (re, im) integer pairs, one p for all entries."""
    ratios = [[(x.real.as_integer_ratio(), x.imag.as_integer_ratio()) for x in row] for row in rows]
    s = shift.as_integer_ratio()
    den = max([s[1]] + [d for row in ratios for pair in row for _, d in pair])
    scaled = [[tuple(n * (den // d) for n, d in pair) for pair in row] for row in ratios]
    for i, row in enumerate(scaled):
        row[i] = (row[i][0] + s[0] * (den // s[1]), row[i][1])
    return scaled


def _det(M) -> tuple:
    """The determinant of a matrix of Gaussian integers (re, im), by the Leibniz formula."""
    n = len(M)
    total_re = total_im = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        re, im = 1, 0
        for i, j in enumerate(perm):
            a, b = M[i][j]
            re, im = re * a - im * b, re * b + im * a
        sign = -1 if inversions % 2 else 1
        total_re, total_im = total_re + sign * re, total_im + sign * im
    return total_re, total_im


def _exact_verdict(rows, shift: float = RANK_TOL) -> bool:
    """lambda_min >= -shift of exactly Hermitian rows, exactly.

    H = A + shift 1 has a real-rooted characteristic polynomial whose
    coefficients are +-e_k, the sums of its principal k-minors, so all its
    eigenvalues are >= 0 exactly when every e_k is >= 0 (Descartes' rule
    of signs).
    """
    return all(e_k >= 0 for e_k in _minor_sums(rows, shift))


def _minor_sums(rows, shift: float) -> list:
    """e_1 .. e_n of 2^p (rows + shift 1), exactly: the sums of its principal k-minors."""
    H = _gaussian_integers(rows, shift)
    n = len(H)
    sums = []
    for k in range(1, n + 1):
        e_k = 0
        for idx in itertools.combinations(range(n), k):
            re, im = _det([[H[i][j] for j in idx] for i in idx])
            assert im == 0  # a principal minor of a Hermitian matrix is real
            e_k += re
        sums.append(e_k)
    return sums


def _exact_rank(rows, threshold: float = RANK_TOL) -> int:
    """The number of eigenvalues of exactly Hermitian rows above threshold, exactly.

    H = A - threshold 1 has the real-rooted characteristic polynomial
    x^n - e_1 x^(n-1) + e_2 x^(n-2) - ..., so Descartes' rule of signs,
    exact for real roots, counts its roots above 0 as the sign changes of
    (1, -e_1, e_2, -e_3, ...), zeros left out.
    """
    signs = [1] + [e_k if k % 2 == 0 else -e_k
                   for k, e_k in enumerate(_minor_sums(rows, -threshold), 1) if e_k != 0]
    return sum((a > 0) != (b > 0) for a, b in zip(signs, signs[1:]))


def test_exact_oracle_decides_known_spectra():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        Q = _unitary(rng, n)
        for low, want in ((-2.0 * RANK_TOL, False), (-0.5 * RANK_TOL, True), (0.0, True)):
            lam = [0.6, 0.4 - low] + [0.0] * (n - 3) + [low]
            assert _exact_verdict(_hermitian((Q * lam) @ Q.conj().T)) == want


def test_exact_rank_counts_known_spectra():
    """Diagonal rows hold their eigenvalues exactly: one at RANK_TOL is not above it."""
    above = math.nextafter(RANK_TOL, 1.0)
    for lam, want in (((0.5, 0.5, 0.0), 2), ((0.5, 0.5 - RANK_TOL, RANK_TOL), 2),
                      ((0.5, 0.5 - above, above), 3), ((1.0, 0.0, -0.0), 1), ((0.0, 0.0, 0.0), 0),
                      ((-0.5, 1.0, 0.5), 2), ((1.0 / 3.0,) * 3, 3)):
        assert _exact_rank(_hermitian(np.diag(lam))) == want, lam
    rng = np.random.default_rng(12)
    for n in (3, 4):
        Q = _unitary(rng, n)
        lam = [0.6, 0.4 - (n - 2.99) * 10.0 * RANK_TOL] + [10.0 * RANK_TOL] * (n - 3) + [
            0.1 * RANK_TOL]
        assert _exact_rank(_hermitian((Q * lam) @ Q.conj().T)) == n - 1


def test_at_least_agrees_with_the_exact_verdict():
    rng = np.random.default_rng(4242)
    rows = [_hermitian(_near_threshold(rng, 3 + i % 2, -11.5, -7.0)) for i in range(240)]
    rows += [r for r in _perfbench_rows(seeds=(3,))[:160:4] if r == _hermitian(r)]
    answered = 0
    for r in rows:
        verdict = _at_least(r, -RANK_TOL)
        if verdict is not None:
            answered += 1
            assert verdict == _exact_verdict(r), r
    assert answered >= len(rows) // 2


_BAND_DELTA = 1e-15


def test_positive_matches_the_exact_verdict_in_the_band():
    """state._verdict where _at_least answers None: the Jacobi's verdict, against exact arithmetic.

    Exactly Hermitian 3x3 and 4x4 rows with lambda_min within 10^-13 ..
    10^-10 of -RANK_TOL, on either side, and a second family within
    10^-16 .. 10^-10.  Wherever the exact verdicts at -RANK_TOL -+ delta,
    delta = 1e-15, agree, lambda_min is more than delta from the
    threshold and _verdict must give that verdict.  Of the band cases,
    the first family has none inside the margin (150 decided) and the
    second about one in five (21 of 108 with the seed below), which are
    only counted.
    """
    rng = np.random.default_rng(2626)
    inside, decided = {}, {}
    for lo, count in ((-13.0, 240), (-16.0, 120)):
        inside[lo] = decided[lo] = 0
        for i in range(count):
            rows = _hermitian(_near_threshold(rng, 3 + i % 2, lo, -10.0))
            if _at_least(rows, -RANK_TOL) is not None:
                continue
            verdict = _exact_verdict(rows, RANK_TOL - _BAND_DELTA)
            if verdict != _exact_verdict(rows, RANK_TOL + _BAND_DELTA):
                inside[lo] += 1
                continue
            assert state._verdict(rows)[0] == verdict, rows
            decided[lo] += 1
    assert inside[-13.0] == 0 and decided[-13.0] >= 120, (inside, decided)
    assert 0 < inside[-16.0] < decided[-16.0], (inside, decided)


_RANK_DELTA = 1e-15


def _rank_families() -> dict:
    """Seeded exactly Hermitian 3x3 states whose rank is read against RANK_TOL, by family.

    Q diag(lam) Q^dag for a seeded unitary Q, s = RANK_TOL 10^U(-1, 1)
    (within 10x of RANK_TOL on either side) and e = 10^U(-16, -11).
    """
    rng = np.random.default_rng(2727)

    def rotated(lam):
        Q = _unitary(rng, 3)
        return _hermitian((Q * lam) @ Q.conj().T)

    def small():
        return RANK_TOL * 10.0 ** rng.uniform(-1.0, 1.0)

    every_rank = [rotated(rng.dirichlet(np.ones(r)).tolist() + [0.0] * (3 - r))
                  for r in (1, 2, 3) for _ in range(15)]
    near = []
    for _ in range(30):
        s1, s2 = small(), small()
        near += [rotated([0.6, 0.4 - s1, s1]), rotated([1.0 - s1 - s2, s1, s2])]
    real_pure = []
    for _ in range(20):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        real_pure.append(_hermitian(np.outer(v, v)))
    # where the proof cannot reach: one eigenvalue at RANK_TOL -+ 10^U(-16, -11)
    at = [rotated([0.6, 0.4 - t, t]) for t in (
        RANK_TOL + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -11.0) for _ in range(40))]
    double = []
    for _ in range(15):
        s, e = small(), 10.0 ** rng.uniform(-16.0, -11.0)
        double += [rotated([1.0 - 2.0 * s - e, s, s + e]),
                   rotated([(1.0 - s) / 2.0 + e, (1.0 - s) / 2.0 - e, s]),
                   rotated([0.5 + e, 0.5 - e, 0.0])]
    return {"every rank": every_rank, "within 10x of RANK_TOL": near, "at RANK_TOL": at,
            "real pure": real_pure, "near-double roots": double,
            "1/3": [_hermitian(np.eye(3) / 3.0)]}


def test_rank_matches_the_exact_count():
    """A proven rank count, and state._verdict's rank, against the exact count above RANK_TOL.

    Wherever the exact counts above RANK_TOL -+ delta, delta = 1e-15,
    agree, no eigenvalue is within delta of the threshold and both must
    give that count; inside the margin a proof is impossible (its own
    margin is above 1e-11), so the count must be None there.  With the
    seed below every count is proven but in the family at RANK_TOL, where
    the Jacobi decides and 4 of the 40 cases fall inside the margin.
    """
    families = _rank_families()
    inside, proven = {}, {}
    for name, family in families.items():
        inside[name] = proven[name] = 0
        for rows in family:
            count = _at_least(rows, RANK_TOL, True)
            want = _exact_rank(rows, RANK_TOL - _RANK_DELTA)
            if want != _exact_rank(rows, RANK_TOL + _RANK_DELTA):
                inside[name] += 1
                assert count is None, rows
                continue
            assert state._verdict(rows, True)[:2] == (True, want), rows
            if count is not None:
                assert count == want, rows
                proven[name] += 1
    assert inside == {name: 4 if name == "at RANK_TOL" else 0 for name in families}, inside
    assert all(proven[name] == len(f) for name, f in families.items() if name != "at RANK_TOL")



def test_ranked_call_answers_as_the_count_and_the_verdict():
    """_at_least(rows, RANK_TOL, ranked=True) is the two calls state._verdict made before.

    They were the count at RANK_TOL, and unless it was 3 the verdict at
    -RANK_TOL, the rank kept only where that was True; one call now runs the
    entry scan and the skew once.  The rows: every 3x3 row of the families,
    the perfbench inputs of seeds 1-5 and the exact-rank families.
    """
    rows = [r for family in _families().values() for r in family if len(r) == 3]
    rows += [r for r in _perfbench_rows(seeds=(1, 2, 3, 4, 5)) if len(r) == 3]
    rows += [r for family in _rank_families().values() for r in family]
    answers = set()
    for r in rows:
        count = _at_least(r, RANK_TOL, True)
        verdict = True if count == 3 else _at_least(r, -RANK_TOL)
        want = (verdict, count if verdict else None)
        assert repr(_at_least(r, RANK_TOL, ranked=True)) == repr(want), r
        answers.add(want)
    assert {(True, 1), (True, 2), (True, 3), (True, None), (False, None), (None, None)} <= answers


def test_one_certificate_call_per_verdict(monkeypatch):
    """state._verdict calls _at_least once, ranked or not, on states of every rank and non-states."""
    calls = []
    original = state._at_least
    monkeypatch.setattr(state, "_at_least", lambda *a, **k: calls.append(1) or original(*a, **k))
    for family in _rank_families().values():
        for rows in family[:10] + [np.diag([0.8, 0.8, -0.6]).astype(complex).tolist()]:
            for ranked in (True, False):
                calls.clear()
                state._verdict(rows, ranked)
                assert len(calls) == 1

# --- the metric norm a . Gamma . a against exact arithmetic ---------------------------
# Gamma = (1 - T) / det(1 - T).  Everything below is exact, in Fractions of the floats the
# code computes (its a and T); u = 2^-53.  With M = 1 - T, P = sum over the six Leibniz
# products of |M_0i M_1j M_2k| and N = sum_ij |a_i M_ij a_j|, det3's five roundings per
# product keep |fl(det M) - det M| <= 8u P, and the norm's six per term and its division
# keep |fl(a.Gamma.a) - a.Gamma.a| <= 16u (N + P |a.Gamma.a|) / |det M| while 8u P is far
# below |det M|.

_U = Fraction(1, 2**53)


def _pairs(rows) -> list:
    """Rows of Python numbers as rows of exact (re, im) Fraction pairs."""
    return [[(Fraction(x.real), Fraction(x.imag)) for x in row] for row in rows]


def _dyadic_rho(rng, near: bool) -> list:
    """A seeded Hermitian trace-one 3x3 of dyadic entries, as rows of Python complex.

    Generic ones have entries k / 2^8 and imaginary parts k / 2^10.  Near
    ones have Re rho = [[1/4, 1/4 - e, 0], [1/4 - e, 1/4, 0], [0, 0, 1/2]] up to
    a permutation, e = j 2^-38, so det(1 - T) = 2e - 4e^2 is within 10x of
    SING_TOL on both sides of it (or its negative, for e < 0).
    """
    if near:
        e = int(rng.integers(2, 140)) * 2.0**-38 * (-1.0 if rng.random() < 0.1 else 1.0)
        re = np.array([[0.25, 0.25 - e, 0.0], [0.25 - e, 0.25, 0.0], [0.0, 0.0, 0.5]])
        p = rng.permutation(3)
        re = re[p][:, p]
    else:
        d0, d1 = rng.integers(0, 128, 2) / 2.0**8
        off = rng.integers(-64, 65, 3) / 2.0**8
        re = np.array([[d0, off[0], off[1]], [off[0], d1, off[2]], [off[1], off[2], 1.0 - d0 - d1]])
    im = rng.integers(-32, 33, 3) / 2.0**10
    im = np.array([[0.0, im[0], im[1]], [-im[0], 0.0, im[2]], [-im[1], -im[2], 0.0]])
    return (re + 1j * im).tolist()


def _rotated_near_singular(rng, k: float) -> list:
    """rho with Re rho = R diag(1/2, 1/2 - k SING_TOL/2, k SING_TOL/2) R^T, and a Bloch vector."""
    Q, Rr = np.linalg.qr(rng.standard_normal((3, 3)))
    R = Q * np.sign(np.diag(Rr))
    re = R @ np.diag([0.5, 0.5 - k * SING_TOL / 2.0, k * SING_TOL / 2.0]) @ R.T
    rho = re + 1j * 1e-6 * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return ((rho + rho.conj().T) / 2.0).tolist()


def _metric_cases() -> tuple[list, list]:
    rng = np.random.default_rng(2525)
    dyadic = [_dyadic_rho(rng, near=i % 2 == 1) for i in range(160)]
    ks = (-10.0, -1.0, 0.1, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 10.0)
    rotated = [_rotated_near_singular(rng, k) for k in ks for _ in range(4)]
    return dyadic, rotated


def test_metric_identity_holds_exactly_on_the_codes_a_and_t():
    """det rho = det(Re rho) (1 - a.Gamma.a), i.e. 8 det rho = det M - a^T M a, M = 1 - T.

    On dyadic rho every operation of _params is exact, so the code's a and
    T describe rho exactly, and the identity holds in Fractions.
    """
    dyadic, _ = _metric_cases()
    for rows in dyadic:
        p = state._params(state._density_rows(rows))
        M = [[(Fraction(i == j) - Fraction(t), Fraction(0)) for j, t in enumerate(row)]
             for i, row in enumerate(p.T)]
        a = [Fraction(x) for x in p.a]
        det_m = _det(M)[0]
        aMa = sum(a[i] * M[i][j][0] * a[j] for i in range(3) for j in range(3))
        det_rho = _det(_pairs(rows))
        assert det_rho == ((det_m - aMa) / 8, 0), rows


def test_gamma_norm_against_the_exact_metric_norm():
    """It raises exactly when det(1 - T) <= SING_TOL outside 8u P, and its float is within bound."""
    dyadic, rotated = _metric_cases()
    s = Fraction(SING_TOL)
    inside = raised = computed = 0
    for rows in dyadic + rotated:
        p = state._params(state._density_rows(rows))
        M = [[Fraction(i == j) - Fraction(t) for j, t in enumerate(row)]
             for i, row in enumerate(p.T)]
        a = [Fraction(x) for x in p.a]
        products = [(-1 if sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3)) % 2
                     else 1) * M[0][perm[0]] * M[1][perm[1]] * M[2][perm[2]]
                    for perm in itertools.permutations(range(3))]
        d, P = sum(products), sum(map(abs, products))
        n = sum(a[i] * M[i][j] * a[j] for i in range(3) for j in range(3))
        N = sum(abs(a[i] * M[i][j] * a[j]) for i in range(3) for j in range(3))
        try:
            g = state._gamma_norm(p.a, p.T)
        except MetricUndefinedError:
            g = None
        if abs(d - s) <= 8 * _U * P:
            inside += 1
            continue
        assert (g is None) == (d <= s), (rows, float(d))
        if g is None:
            raised += 1
            continue
        computed += 1
        exact = n / d
        assert abs(Fraction(g) - exact) <= 16 * _U * (N + P * abs(exact)) / abs(d), rows
    assert inside <= 6 and raised >= 20 and computed >= 100, (inside, raised, computed)
