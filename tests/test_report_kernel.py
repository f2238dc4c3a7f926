"""analyze's report on locals gives the bytes and answers of the code it replaced.

cli.report_text formats its six head lines in one %-pass, state._rank_case
reads mu_min, mu_mid and |a| on locals, and linalg._eigvals sorts three
values with _eigensystem3's strict > insertion sort.  The code each one
replaced is kept below verbatim as the oracle: text is compared byte for
byte, and numbers, geometry cases and raises by repr (_same).  The
families: perfbench's analyze inputs of seeds 1-5 and test_analysis_kernel's
density families, test_analysis.BOUNDARY_FAMILIES, non-positive reports
reaching each first_violation line, rank-1 and rank-2 point, segment and
surface arguments with each of _rank_case's raises and |a| on its
thresholds, and value triples with ties and signed zeros in every order.
"""

import itertools
import math

import numpy as np

from qutrit3d import cli, linalg, state
from qutrit3d.errors import InternalCheckError
from qutrit3d.geometry import RANK_CASE_TO_SCENE
from qutrit3d.state import (
    FULL_3D, POINT, SEGMENT_ENDPOINT, SEGMENT_INTERIOR, SURFACE_3D, _as_rows,
)
from qutrit3d.tolerances import RANK_TOL, SEGMENT_SLACK
from test_analysis import BOUNDARY_FAMILIES
from test_analysis_kernel import DENSITY, _same
from test_state import band_case_density


# --- the oracle: the code replaced, verbatim --------------------------------------


def _vec(v: list) -> str:
    x, y, z = v
    return "%.12g %.12g %.12g" % (x + 0.0, y + 0.0, z + 0.0)  # _fmt's


def _frozen_report_text(report):
    an, gamma = report
    lines = [
        f"a: {_vec(an.params.a)}",
        f"q: {_vec(an.params.q)}",
        f"omega: {_vec(an.params.omega)}",
        f"tensor eigenvalues: {_vec(an.tensor_eigenvalues)}",
        f"semi-axes: {_vec(an.semi_axes)}",
        f"gamma-norm: {'degenerate' if gamma is None else cli._fmt(gamma)}",
    ]
    if an.rank is not None:  # a state: its validity is ok, and its minors are not read
        lines += ["validity: ok", f"rank: {an.rank.rank}", f"case: {an.rank.case}",
                  f"scene: {RANK_CASE_TO_SCENE[an.rank.case]}"]
    else:
        lines += [f"validity: violated: {cli.first_violation(an.validity)}", "rank: n/a",
                  "case: n/a", "scene: n/a"]
    return "\n".join(lines) + "\n"


def _sum(terms):
    total = 0.0
    for t in terms:
        total += t
    return total


def vector_norm(v) -> float:
    return math.sqrt(_sum(x.real * x.real + x.imag * x.imag for x in v))


def _frozen_rank_case(rank: int, tvals: list, eps_u: float, a: list) -> str:
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


def _frozen_eigvals(rows: list) -> list:
    vals = linalg._jacobi3(rows, with_vectors=False)[0] if len(rows) == 3 else linalg._jacobi4(rows)
    return sorted(vals, reverse=True)


# --- families ------------------------------------------------------------------------


def _boundary_rows() -> list:
    rows = []
    for k, family in enumerate(sorted(BOUNDARY_FAMILIES)):
        rng = np.random.default_rng([20261022, k])
        rows += [_as_rows(BOUNDARY_FAMILIES[family][0](rng)) for _ in range(40)]
    return rows


def _violating_rows() -> list:
    """Non-positive matrices whose first violation is c1, c2, c3 and the spectrum's."""
    c1 = np.diag([1.2, -0.1, -0.1])
    c2 = np.array([[0.5, 0.6, 0.0], [0.6, 0.5, 0.0], [0.0, 0.0, 0.0]])
    c3 = np.full((3, 3), -0.2) + np.diag([1.0 / 3.0 + 0.2] * 3)
    rng = np.random.default_rng(3838)
    noisy = []
    for _ in range(30):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = np.eye(3) / 3.0 + 0.4 * (A + A.conj().T)
        noisy.append(M / np.trace(M).real)
    return [_as_rows(M) for M in (c1, c2, c3, band_case_density(), *noisy)]


BOUNDARY = _boundary_rows()
VIOLATING = _violating_rows()
REPORTED = [rows for family in DENSITY.values() for rows in family] + BOUNDARY + VIOLATING


def _rank_case_args() -> list:
    """(rank, tvals, eps_u, a) of rank 1 and 2: the records' own, and each case and raise."""
    args = []
    for rows in REPORTED:
        an = state._record(rows)
        if an.rank is not None and an.rank.rank < 3:
            args.append((an.rank.rank, an.tensor_eigenvalues, an.semi_axes[0], an.params.a))
    rng = np.random.default_rng(2026)
    s, below = SEGMENT_SLACK, math.nextafter(SEGMENT_SLACK, 0.0)
    at_rank_tol = 1.0 - 2.0 * RANK_TOL
    for rank, tvals in itertools.product((1, 2), (
            [1.0, 1.0, -1.0], [1.0, at_rank_tol, -1.0], [at_rank_tol, 1.0 - 4.0 * RANK_TOL, -0.5],
            [1.0, 0.0, 0.0], [1.0, s, 0.0], [1.0, below, -0.0], [1.0, 0.5, -0.5 + s],
            [0.5, 0.25, -0.75], [1.0 - 1e-3, 0.0, 0.0])):
        for eps_u in (0.0, below, s, 0.25, 1.0):
            for length in (0.0, below, s, 2.0 * s, eps_u, eps_u + s, eps_u + below, 1.0):
                a = rng.standard_normal(3)
                args.append((rank, tvals, eps_u, (length * a / np.linalg.norm(a)).tolist()))
            args.append((rank, tvals, eps_u, [-0.0, 0.0, -0.0]))
            args.append((rank, tvals, eps_u, [5e-324, -5e-324, 0.0]))
    return args


RANK_CASE_ARGS = _rank_case_args()


# --- the tests -----------------------------------------------------------------------


def test_report_text_is_the_frozen_copys():
    """The one-pass report prints the frozen copy's bytes on every record and a.Gamma.a."""
    lines = set()
    for rows in REPORTED:
        an, gamma = cli._report(rows)
        for report in ((an, gamma), (an, None), (an, -0.0), (an, 1e300)):
            assert cli.report_text(report) == _frozen_report_text(report), rows
        lines.add(cli.report_text((an, gamma)).splitlines()[6])
    assert {"validity: ok"} | {f"validity: violated: {t}" for t in (
        cli._C1_TEXT, cli._C2_TEXT, cli._C3_TEXT, cli._SPECTRUM_TEXT)} <= lines


def test_analyze_output_is_the_frozen_kernels(monkeypatch):
    """build_report then report_text print the same bytes with the three frozen copies in place."""
    new = [cli.report_text(cli._report(rows)) for rows in REPORTED]
    monkeypatch.setattr(state, "_rank_case", _frozen_rank_case)
    for module in (state, linalg, cli):
        monkeypatch.setattr(module, "_eigvals", _frozen_eigvals)
    old = [_frozen_report_text(cli._report(rows)) for rows in REPORTED]
    assert new == old


def test_rank_case_is_the_frozen_copys():
    """Each geometry case and each raise, on the records' arguments and on the thresholds."""
    seen = set()
    for args in RANK_CASE_ARGS:
        _same(state._rank_case, _frozen_rank_case, *args)
        try:
            seen.add(_frozen_rank_case(*args))
        except InternalCheckError as exc:
            seen.add(str(exc))
    assert seen == {POINT, SEGMENT_ENDPOINT, SEGMENT_INTERIOR, SURFACE_3D,
                    "point case requires a vanishing Bloch vector",
                    "segment requires lambda_v = -lambda_w",
                    "segment-interior Bloch vector exceeds eps_u",
                    "pure segment state requires |a| = eps_u"}


def test_bloch_length_is_vector_norms():
    """|a| read at SEGMENT_SLACK decides as vector_norm's: both sums of three floats, bit for bit."""
    rng = np.random.default_rng(4447)
    raised = 0
    for _ in range(4000):
        a = rng.standard_normal(3)
        a = (SEGMENT_SLACK * a / np.linalg.norm(a)).tolist()
        args = (2, [1.0, 0.0, 0.0], 0.0, a)
        _same(state._rank_case, _frozen_rank_case, *args)
        raised += vector_norm(a) >= SEGMENT_SLACK
    assert 0 < raised < 4000


def test_three_values_sort_as_sorted(monkeypatch):
    """Every ordered triple of ties and signed zeros comes out as sorted(reverse=True)'s."""
    for triple in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=3):
        monkeypatch.setattr(linalg, "_jacobi3", lambda rows, with_vectors, t=triple: (list(t), []))
        assert repr(linalg._eigvals([[0.0] * 3] * 3)) == repr(sorted(triple, reverse=True)), triple


def test_eigvals_are_the_frozen_copys():
    """3x3 rows of the families, diagonal ties with signed zeros, and the unchanged 4x4 path."""
    rows = [state._params(r).T for r in REPORTED] + list(REPORTED)
    for diag in itertools.product((0.0, -0.0, 0.25), repeat=3):
        rows.append([[diag[0], 0.0, 0.0], [0.0, diag[1], 0.0], [0.0, 0.0, diag[2]]])
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rows.append((A + A.conj().T).tolist())
    for r in rows:
        _same(linalg._eigvals, _frozen_eigvals, r)
