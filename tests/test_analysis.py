"""One analysis per state: the record, its consumers and its cost.

Every verdict the package reports about a state (validity, rank, case,
scene, the CLI report) reads one record built from one spectrum of rho
and one of T; these tests pin that the consumers agree with the record,
that the record costs exactly one values-only spectrum of rho and one
eigensolve of T, and that a state on the positivity threshold gets one
consistent verdict end to end.
"""

import gc
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import qutrit3d
from qutrit3d import cli, dynamics, geometry, linalg, spin1, state
from qutrit3d.errors import InternalCheckError, NotPositiveError
from qutrit3d.geometry import RANK_CASE_TO_SCENE, build_scene
from qutrit3d.purestates import pseudo_qubit
from qutrit3d.state import (
    POINT,
    SEGMENT_ENDPOINT,
    SEGMENT_INTERIOR,
    SURFACE_3D,
    analyse,
    check_state,
    classify_rank,
    compose,
    decompose,
    random_density,
    validate,
)
from qutrit3d.tolerances import RANK_TOL, SEGMENT_SLACK

MODULES = (linalg, state, geometry, dynamics, spin1, cli, qutrit3d)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def threshold_density():
    """Rank-2 state pushed to eigenvalue -1e-9, plus an in-tolerance skew.

    The skew (3e-11 i on one off-diagonal, inside HERM_TOL) makes rho and
    compose(decompose(rho)) differ, so two positivity verdicts on the two
    matrices used to disagree here.
    """
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    rho = (R @ np.diag([0.6, 0.4 + 1e-9, -1e-9]) @ R.T).astype(complex)
    rho[1, 2] += 3e-11j
    return rho


def _noisy(rho, rng):
    """rho plus Hermitian noise of size 1e-10, renormalized to trace one."""
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = rho + 1e-10 * (X + X.conj().T) / 2.0
    return M / np.trace(M).real


def _pure(psi):
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def _rank2_with_null(n, rng):
    """A rank-2 state whose null vector is the unit vector n."""
    X = np.column_stack([n, rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))])
    Q, _ = np.linalg.qr(X)
    w = rng.uniform(0.05, 0.95)
    return w * _pure(Q[:, 1]) + (1.0 - w) * _pure(Q[:, 2])


def _complex_pure_noise(rng):
    return _noisy(_pure(rng.standard_normal(3) + 1j * rng.standard_normal(3)), rng)


def _real_pure_noise(rng):
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return _noisy(_pure(phase * rng.standard_normal(3)), rng)


def _segment_noise(rng):
    n = rng.standard_normal(3)
    return _noisy(_rank2_with_null(n / np.linalg.norm(n), rng), rng)


def _near_segment(rng):
    # the null vector is off a real axis by delta, so mu_min ~ delta^2
    # straddles RANK_TOL
    delta = 10.0 ** rng.uniform(-6.0, -3.0)
    n = rng.standard_normal(3) + 1j * delta * rng.standard_normal(3)
    return _rank2_with_null(n / np.linalg.norm(n), rng)


def _rotated(rng, *columns):
    """The columns in the frame of a seeded random rotation R."""
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return [R @ np.asarray(c) for c in columns]


def _at_rank_tol(rng):
    """RANK_TOL (1 + delta), |delta| <= 3e-7: within T's rounding of the Point threshold."""
    return RANK_TOL * (1.0 + rng.uniform(-3e-7, 3e-7))


def _point_threshold(rng):
    # psi = R(sqrt(1 - k) e_x + i sqrt(k) e_y): mu = (0, k, 1 - k), |a| = 2 sqrt(k (1 - k))
    k = _at_rank_tol(rng)
    (psi,) = _rotated(rng, [np.sqrt(1.0 - k), 1j * np.sqrt(k), 0.0])
    return np.outer(psi, psi.conj())


def _shift(rng):
    """s just inside RANK_TOL: rho - s 1 keeps lambda_min >= -RANK_TOL."""
    return RANK_TOL * (1.0 - rng.uniform(1e-3, 2e-3))


def _shifted_point_threshold(rng):
    # (1 + 3 s)|psi><psi| - s 1 with its mu_1 at RANK_TOL: |a| near 2 sqrt(2 RANK_TOL)
    s = _shift(rng)
    c = 1.0 + 3.0 * s
    k = (_at_rank_tol(rng) + s) / c
    (psi,) = _rotated(rng, [np.sqrt(1.0 - k), 1j * np.sqrt(k), 0.0])
    return c * np.outer(psi, psi.conj()) - s * np.eye(3)


def _shifted_segment_off_axis(rng):
    # p|phi><phi| + q|e_y><e_y| - s 1, phi = sqrt(1 - k) e_x + i sqrt(k) e_z: u = e_z, a along e_y
    s, q = _shift(rng), 0.3
    p = 1.0 - q + 3.0 * s
    k = (_shift(rng) + s) / p
    phi, ey = _rotated(rng, [np.sqrt(1.0 - k), 0.0, 1j * np.sqrt(k)], [0.0, 1.0, 0.0])
    return p * np.outer(phi, phi.conj()) + q * np.outer(ey, ey) - s * np.eye(3)


def _real_endpoint_threshold(rng):
    # R diag(1 - k + s, k, -s) R^T: rho's solve and T's round k to either side of RANK_TOL
    s, k = _shift(rng), _at_rank_tol(rng)
    x, y, z = _rotated(rng, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    rho = (1.0 - k + s) * np.outer(x, x) + k * np.outer(y, y) - s * np.outer(z, z)
    return rho.astype(complex)


# family: (sampler, its ranks, its cases)
BOUNDARY_FAMILIES = {
    "complex_pure_noise": (_complex_pure_noise, {1}, {SEGMENT_ENDPOINT}),
    "real_pure_noise": (_real_pure_noise, {1}, {POINT}),
    "segment_noise": (_segment_noise, {2}, {SEGMENT_INTERIOR}),
    "near_segment": (_near_segment, {2}, {SURFACE_3D, SEGMENT_INTERIOR}),
    "point_threshold": (_point_threshold, {1}, {POINT, SEGMENT_ENDPOINT}),
    "shifted_point_threshold": (_shifted_point_threshold, {1}, {POINT, SEGMENT_ENDPOINT}),
    "shifted_segment_off_axis": (_shifted_segment_off_axis, {2}, {SEGMENT_INTERIOR}),
    "real_endpoint_threshold": (
        _real_endpoint_threshold, {1, 2}, {POINT, SEGMENT_ENDPOINT, SEGMENT_INTERIOR}),
}


@pytest.mark.parametrize("family", sorted(BOUNDARY_FAMILIES))
def test_boundary_families_get_one_case(family, tmp_path, capsys):
    """States within RANK_TOL of a degenerate geometry get a case, not exit 3.

    The live axes are the rank of Re(rho), read at the same RANK_TOL as
    the rank of rho, so noise far below it cannot leave a pure state
    with live axes that the segment or point checks then reject.
    """
    make, ranks, cases = BOUNDARY_FAMILIES[family]
    rng = np.random.default_rng([20260814, sorted(BOUNDARY_FAMILIES).index(family)])
    seen = set()
    for i in range(300):
        rho = make(rng)
        an, _ = cli.build_report(rho)
        assert an.rank is not None and an.rank.rank in ranks
        assert an.rank.case in cases
        seen.add(an.rank.case)
        assert build_scene(rho).case == RANK_CASE_TO_SCENE[an.rank.case]
        if i < 3:
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps({"re": rho.real.tolist(), "im": rho.imag.tolist()}))
            capsys.readouterr()
            assert cli.main(["analyze", str(path)]) == 0
            scene_line = capsys.readouterr().out.splitlines()[-1]
            assert cli.main(["scene", str(path)]) == 0
            scene_case = json.loads(capsys.readouterr().out)["case"]
            assert scene_line == f"scene: {scene_case}"
    assert seen == cases


@pytest.mark.parametrize(
    "family", ["point_threshold", "shifted_point_threshold", "shifted_segment_off_axis"])
def test_threshold_families_get_scene_trajectories(family):
    """Scene trajectories of states at a degenerate case's threshold pass every self-check.

    A rotation keeps Re(rho)'s spectrum, so its samples keep the family's
    scenes; a twist moves it, and its samples only have to get a scene.
    """
    make, _, cases = BOUNDARY_FAMILIES[family]
    rng = np.random.default_rng([20261020, sorted(BOUNDARY_FAMILIES).index(family)])
    scenes = {RANK_CASE_TO_SCENE[case] for case in cases}
    for _ in range(20):
        rho = make(rng)
        traj = dynamics.trajectory(rho, dynamics.rotation("x"), 3.0, 6, with_scenes=True)
        assert {scene.case for scene in traj.scenes} <= scenes
        traj = dynamics.trajectory(rho, dynamics.one_axis_twist("z"), 3.0, 6, with_scenes=True)
        assert len(traj.scenes) == 6


def test_the_record_runs_the_point_check():
    """The point case's check is _rank_case's, so analyze and scene run it alike."""
    tvals = [1.0, 1.0, -1.0]  # mu = (0, 0, 1)
    assert state._rank_case(1, tvals, 0.0, [0.5 * SEGMENT_SLACK, 0.0, 0.0]) == POINT
    with pytest.raises(InternalCheckError, match="point case requires a vanishing Bloch vector"):
        state._rank_case(1, tvals, 0.0, [SEGMENT_SLACK, 0.0, 0.0])


BELOW_SLACK = math.nextafter(SEGMENT_SLACK, 0.0)


def test_segment_check_raises_at_exactly_segment_slack():
    """|lambda_v + lambda_w| = SEGMENT_SLACK raises; one ulp below, the pure state is an endpoint.

    mu = (0, (1 - SEGMENT_SLACK) / 2, 1 / 2) at rank 1: not the point case.
    """
    origin = [0.0, 0.0, 0.0]
    with pytest.raises(InternalCheckError, match="segment requires lambda_v = -lambda_w"):
        state._rank_case(1, [1.0, SEGMENT_SLACK, 0.0], 0.0, origin)
    assert state._rank_case(1, [1.0, BELOW_SLACK, 0.0], 0.0, origin) == SEGMENT_ENDPOINT


@pytest.mark.parametrize("eps_u", [0.0, 0.25])
def test_segment_interior_check_raises_at_exactly_eps_u_plus_slack(eps_u):
    """|a| = eps_u + SEGMENT_SLACK raises for a rank-2 segment state; one ulp below is interior."""
    bound = eps_u + SEGMENT_SLACK
    for length in (bound, math.nextafter(bound, 0.0)):
        assert math.sqrt(length * length) == length  # |(length, 0, 0)| is length itself
    with pytest.raises(InternalCheckError, match="segment-interior Bloch vector exceeds eps_u"):
        state._rank_case(2, [1.0, 0.0, 0.0], eps_u, [0.0, bound, 0.0])
    below = math.nextafter(bound, 0.0)
    assert state._rank_case(2, [1.0, 0.0, 0.0], eps_u, [0.0, below, 0.0]) == SEGMENT_INTERIOR


def test_endpoint_check_raises_at_exactly_segment_slack_either_side():
    """||a| - eps_u| = SEGMENT_SLACK raises with |a| above eps_u or below it; one ulp less passes."""
    tvals = [1.0, 0.0, 0.0]  # mu = (0, 1/2, 1/2): a segment, not the point case
    for eps_u, a in ((0.0, [0.0, 0.0, SEGMENT_SLACK]), (SEGMENT_SLACK, [0.0, 0.0, 0.0])):
        with pytest.raises(InternalCheckError, match="pure segment state requires"):
            state._rank_case(1, tvals, eps_u, a)
    assert state._rank_case(1, tvals, 0.0, [0.0, 0.0, BELOW_SLACK]) == SEGMENT_ENDPOINT
    assert state._rank_case(1, tvals, BELOW_SLACK, [0.0, 0.0, 0.0]) == SEGMENT_ENDPOINT


def test_scene_segment_check_raises_at_exactly_segment_slack(monkeypatch):
    """_scene's |a - (a.u) u| = SEGMENT_SLACK raises; one ulp below, the segment scene is built.

    A stand-in _record hands _scene a segment with u = e_x and a = (1/2, s, 0):
    a - (a.u) u is (0, s, 0) exactly, and its norm sqrt(s * s) is s itself.
    """
    a = [0.5, SEGMENT_SLACK, 0.0]
    frame = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    record = SimpleNamespace(rank=SimpleNamespace(case=SEGMENT_ENDPOINT),
                             params=SimpleNamespace(a=a), frame=frame, semi_axes=[1.0, 0.0, 0.0])
    monkeypatch.setattr(geometry, "_record", lambda rows, verdict, framed: record)
    for s in (SEGMENT_SLACK, BELOW_SLACK):
        assert math.sqrt(s * s) == s
    with pytest.raises(InternalCheckError, match="segment Bloch vector is not parallel"):
        geometry._scene([], (True, 1, None))
    a[1] = BELOW_SLACK
    assert geometry._scene([], (True, 1, None)).case == geometry.CASE_SEGMENT


def test_mu_never_lands_on_rank_tol():
    """mu = (1 - t) / 2 equals RANK_TOL only if 1 - t = 2 RANK_TOL, which no double t gives.

    Near 1, 1 - t is exact (Sterbenz) and a multiple of t's ulp 2^-53; 2
    RANK_TOL is not one.  So the mu tests' > and <= against RANK_TOL never
    meet equality, and flipping them is an equivalent mutant.
    """
    t = 1.0 - 2.0 * RANK_TOL
    assert math.fmod(2.0 * RANK_TOL, 2.0**-53) != 0.0
    assert {(1.0 - u) / 2.0 for u in (math.nextafter(t, 0.0), t, math.nextafter(t, 2.0))} \
        .isdisjoint({RANK_TOL})


def _count_calls(monkeypatch, name):
    """Count calls of linalg.<name> made anywhere in the package, keeping their arguments."""
    calls = []
    original = getattr(linalg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_consumers_read_the_record():
    rng = np.random.default_rng(601)
    for _ in range(150):
        rho = random_density(rank=int(rng.integers(1, 4)), rng=rng)
        an = analyse(rho)
        assert an.validity.overall
        assert np.allclose(an.eigenvalues, np.linalg.eigvalsh(rho)[::-1], atol=1e-12)
        rank = classify_rank(rho)
        assert (rank.rank, rank.case) == (an.rank.rank, an.rank.case)
        scene = build_scene(rho)
        assert scene.case == RANK_CASE_TO_SCENE[an.rank.case]
        assert np.array_equal(scene.semi_axes, an.semi_axes)
        assert np.array_equal(scene.frame, an.frame)
        assert np.array_equal(scene.bloch, an.params.a)


def test_validate_reports_the_validity_of_compose():
    rng = np.random.default_rng(607)
    for _ in range(300):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = 0.5 * (X + X.conj().T) / 2.0
        H = H + (1.0 - np.trace(H).real) / 3.0 * np.eye(3)
        p = decompose(H)
        assert validate(p) == analyse(compose(p)).validity
        an = analyse(H)
        assert an.validity.overall == (np.linalg.eigvalsh(H)[0] >= -1e-9)
        assert (an.rank is None) == (not an.validity.overall)


def test_not_positive_is_reported_by_analyse_and_raised_by_the_rest():
    rho = np.diag([1.2, 0.1, -0.3]).astype(complex)
    an = analyse(rho)
    assert not an.validity.overall and an.rank is None
    with pytest.raises(NotPositiveError):
        classify_rank(rho)
    with pytest.raises(NotPositiveError):
        check_state(rho)


def test_threshold_state_gets_one_verdict(tmp_path):
    rho = threshold_density()
    an = analyse(rho)
    assert an.validity.overall == (an.rank is not None)

    path = tmp_path / "threshold.json"
    path.write_text(json.dumps({"re": rho.real.tolist(), "im": rho.imag.tolist()}))
    env = dict(os.environ)
    env.pop("QUTRIT_SEED", None)
    res = subprocess.run(
        [sys.executable, "-m", "qutrit3d", "analyze", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.stderr == ""
    lines = res.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "a", "q", "omega", "tensor eigenvalues", "semi-axes", "gamma-norm",
        "validity", "rank", "case", "scene",
    ]
    valid = lines[6] == "validity: ok"
    assert res.returncode == (0 if valid else 2)
    assert (lines[7] == "rank: n/a") == (not valid)


def band_density():
    """A non-diagonal state with lambda_min = -RANK_TOL + 1e-13: inside the certificate's band."""
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    lam = RANK_TOL - 1e-13
    return (R @ np.diag([0.6, 0.4 + lam, -lam]) @ R.T).astype(complex)


def _rho_solves(calls: list) -> int:
    """How many counted linalg._eigvals calls solved rho or a 4x4 (complex rows), not T (floats)."""
    return sum(isinstance(args[0][0][0], complex) for args in calls)


def test_eigensolve_counts(monkeypatch):
    """Full eigensolves (linalg._eigensystem3) and values-only spectra (linalg._eigvals) per call.

    Counted as (full solves, values-only solves of T, values-only solves
    of rho or a 4x4).  rho's positivity and rank read eigenvalues only; a
    state's T is solved for its values unless its frame is read (scenes,
    analyse, validate, the JSON report), a non-state's T in full, and the
    generators need their eigenvectors.  eig_hermitian3 converts one
    _eigensystem3.  linalg._verdict proves the positivity, PPT and rank
    verdicts without a solve, except in its band, where it calls _eigvals
    once; rho's values are solved where they are read: classify_rank,
    analyse, the JSON report.  No path solves T twice.
    """
    full = _count_calls(monkeypatch, "_eigensystem3")
    values = _count_calls(monkeypatch, "_eigvals")
    rng = np.random.default_rng(613)
    valid = random_density(rank=3, rng=rng)
    invalid = np.diag([0.8, 0.8, -0.6]).astype(complex)

    def count(fn, *args, **kwargs):
        full.clear()
        values.clear()
        fn(*args, **kwargs)
        rho = _rho_solves(values)
        return len(full), len(values) - rho, rho

    def text(rho):
        return cli.report_text(cli.build_report(rho))

    def json_report(rho):
        return cli.report_dict(cli._report(state._as_rows(rho), True))

    assert count(text, valid) == (0, 1, 0)
    assert count(text, invalid) == (1, 0, 0)
    assert count(json_report, valid) == (1, 0, 1)
    assert count(json_report, invalid) == (1, 0, 0)
    assert count(build_scene, valid) == (1, 0, 0)
    assert count(validate, decompose(valid)) == (1, 0, 0)
    assert count(validate, decompose(invalid)) == (1, 0, 0)
    assert count(classify_rank, valid) == (0, 1, 1)
    assert count(analyse, valid) == (1, 0, 1)
    # random prints rho's verdict's rank and builds no record
    assert count(cli.main, ["random", "--rank", "2", "--seed", "5"]) == (0, 0, 0)
    # the frame of a text report's record is solved when it is first read, once
    an, _ = cli.build_report(valid)
    assert count(lambda: (an.validity, an.frame, an.validity)) == (1, 0, 0)
    # a generator is solved once, when it is built: the canonical ones at import
    n = 10
    assert count(dynamics.rotation, "x") == (0, 0, 0)
    assert count(dynamics.custom, np.diag([1.0, 0.0, -1.0])) == (1, 0, 0)
    g = dynamics.one_axis_twist("x")
    assert count(dynamics.trajectory, valid, g, 1.0, n, with_scenes=True) == (n, 0, 0)
    assert count(dynamics.trajectory, valid, g, 1.0, n) == (0, 0, 0)
    assert count(dynamics.evolve, valid, g, 1.0) == (0, 0, 0)
    assert count(spin1.to_two_qubit, valid) == (0, 0, 0)
    # rho's verdict and the partial transpose's, both proven
    assert count(spin1.ppt_separable, valid) == (0, 0, 0)
    # in the band the verdict falls back to one values-only spectrum
    band = band_density()
    assert linalg._verdict(state._as_rows(band))[2] is not None
    for fn, args in ((check_state, ()), (spin1.to_two_qubit, ()), (dynamics.evolve, (g, 1.0)),
                     (dynamics.trajectory, (g, 1.0, n))):
        assert count(fn, band, *args) == (0, 0, 1), fn.__name__
    assert count(text, band) == (0, 1, 1)
    assert count(json_report, band) == (1, 0, 1)
    assert count(dynamics.trajectory, band, g, 1.0, n, with_scenes=True) == (n, 0, 1)


def test_validity_is_derived_only_where_it_is_read(monkeypatch):
    """state._validity runs for the JSON report, validate and a non-state's text report, once.

    A scene, a scene trajectory's samples and a state's text report never read it.
    """
    calls = []
    original = state._validity
    monkeypatch.setattr(state, "_validity", lambda *args: calls.append(1) or original(*args))
    valid = random_density(rank=2, rng=np.random.default_rng(619))
    invalid = np.diag([0.8, 0.8, -0.6]).astype(complex)
    g = dynamics.one_axis_twist("z")

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert count(build_scene, valid) == 0
    assert count(dynamics.trajectory, valid, g, 1.0, 10, True) == 0
    assert count(lambda rho: cli.report_text(cli.build_report(rho)), valid) == 0
    assert count(lambda rho: cli.report_text(cli.build_report(rho)), invalid) == 1
    for rho in (valid, invalid):
        assert count(lambda: cli.report_dict(cli._report(state._as_rows(rho), True))) == 1
        assert count(validate, decompose(rho)) == 1


def test_records_free_without_the_collector():
    """A record's lazy fields hold functions of the record, never the record: no cycle forms."""
    rows = state._as_rows(random_density(rank=3, rng=np.random.default_rng(631)))
    gc.collect()
    for framed, read in itertools.product((False, True), repeat=2):
        an = state._record(rows, None, framed)
        if read:
            assert an.eigenvalues and an.frame and an.validity.overall and an.rank.eigenvalues
        del an
    assert gc.collect() == 0


def _perfbench_inputs():
    """perfbench/inputs.py, the benchmark's seeded input kinds (numpy only), as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_text_outputs_solve_rho_only_in_the_band(monkeypatch, capsys):
    """Text analyze, scene, pseudo and validate call linalg._eigvals on rho only inside the band.

    The band holds the inputs whose positivity or, for a state, rank
    linalg._verdict leaves unproven: none of the canonical files and
    pseudo-qubit states, and of perfbench's 100 analyze inputs of seed 1
    only the renormalised non-positive states with an entry above 1, each
    solved once by the report and once by validate.
    """
    values = _count_calls(monkeypatch, "_eigvals")
    files = [os.path.join(ROOT, "tests", "data", f"{name}.json")
             for name in ("mixed", "ket0", "pseudo_boundary")]
    runs = [[command, path] for command in ("analyze", "scene") for path in files]
    runs += [["pseudo"], ["pseudo", "--az", "0.5"], ["pseudo", "--ax", str(2.0 / 3.0)],
             ["pseudo", "--ay", "0.7"]]
    for argv in runs:
        values.clear()
        cli.main(argv)
        assert _rho_solves(values) == 0, argv
    capsys.readouterr()
    band = 0
    for item in _perfbench_inputs().analyze_inputs(1):
        rho = np.array(item["re"]) + 1j * np.array(item["im"])
        rows = state._as_rows(rho)
        unproven = linalg._verdict(rows, True)[2] is not None
        values.clear()
        cli.report_text(cli.build_report(rho))
        validate(decompose(rho))
        assert _rho_solves(values) == 2 * unproven, item["kind"]
        band += unproven
        assert not unproven or item["kind"] == "nonpositive" and max(map(abs, rho.flat)) > 1.0
    assert 0 < band < 10, band


def test_verdict_fallbacks_are_counted(monkeypatch):
    """The two paths of linalg._verdict that test_eigensolve_counts does not take.

    Pseudo-qubit states a = (a_x, 0, 0) leave PPT near a . a = 1/3: with
    a_x = sqrt(1/3) + k 1e-9 the partial transpose's lambda_min crosses
    -RANK_TOL between k = 2.305 and 2.31, and for k in 2.29 .. 2.33 it lies
    in the certificate's band.  There ppt_separable is the Jacobi's
    verdict, both ways, for one values-only solve; the neighbours outside
    the band are proven.  rho itself is proven a state, so it costs none.
    A proven non-state is refused with the Jacobi's eigenvalue, for one
    values-only solve.
    """
    full = _count_calls(monkeypatch, "_eigensystem3")
    values = _count_calls(monkeypatch, "_eigvals")

    def count(fn, *args):
        full.clear()
        values.clear()
        try:
            return fn(*args), (len(full), len(values))
        except NotPositiveError as exc:
            return str(exc), (len(full), len(values))

    verdicts = {}
    for k in (2.2, 2.28, 2.3, 2.305, 2.31, 2.32, 2.34, 2.4):
        rho = pseudo_qubit(np.array([np.sqrt(1.0 / 3.0) + k * 1e-9, 0.0, 0.0]))
        rows = state._as_rows(rho)
        pt = linalg._partial_transpose(spin1._to_two_qubit(rows))
        assert linalg._verdict(rows) == (True, None, None)
        band = linalg._verdict(pt)[2] is not None
        assert band == (2.29 < k < 2.33), k
        verdict, cost = count(spin1.ppt_separable, rho)
        assert verdict == (linalg._eigvals(pt)[-1] >= -RANK_TOL), k
        assert cost == ((0, 1) if band else (0, 0)), k
        verdicts[k] = verdict
    assert verdicts == {k: k < 2.31 for k in verdicts}

    invalid = np.diag([0.8, 0.8, -0.6]).astype(complex)
    assert linalg._verdict(state._as_rows(invalid)) == (False, None, None)
    message = "not positive: min eigenvalue -6.000e-01 < -1e-09"
    assert count(check_state, invalid) == (message, (0, 1))
    assert count(spin1.to_two_qubit, invalid) == (message, (0, 1))


def test_hermiticity_check_counts(monkeypatch):
    """rho is checked once, where it enters; T and the bridge's images are not checked again."""
    checks = _count_calls(monkeypatch, "_hermitian_rows")
    valid = random_density(rank=3, rng=np.random.default_rng(613))
    invalid = np.diag([0.8, 0.8, -0.6]).astype(complex)
    calls = [(fn, valid) for fn in (build_scene, classify_rank, spin1.to_two_qubit,
                                    spin1.ppt_separable)]
    for rho in (valid, invalid):
        calls += [(cli.build_report, rho), (analyse, rho), (validate, decompose(rho))]
    for fn, arg in calls:
        checks.clear()
        fn(arg)
        assert len(checks) == 1, fn.__name__


def test_matrix_files_are_checked_once(monkeypatch, tmp_path, capsys):
    """A state, amplitude, two-qubit or generator file is checked once, where it enters.

    The parse checks a state or amplitude file, and pseudo its composed
    state; from_two_qubit and custom() check theirs.  A failed
    Hermiticity or trace check is still a parse failure of the named file
    (exit 1), and an asymmetric two-qubit state is still invalid (exit 2).
    """
    checks = _count_calls(monkeypatch, "_hermitian_rows")
    data = os.path.join(os.path.dirname(__file__), "data")
    amplitudes = tmp_path / "amplitudes.json"
    amplitudes.write_text(json.dumps({"amplitudes": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]}))
    for path in (os.path.join(data, "mixed.json"), str(amplitudes)):
        for argv in (["analyze", path], ["scene", path], ["bridge", path, "--direction", "to2q"]):
            checks.clear()
            assert cli.main(argv) == 0, argv
            assert len(checks) == 1, argv
    checks.clear()
    assert cli.main(["pseudo", "--ax", "0.5"]) == 0
    assert len(checks) == 1
    capsys.readouterr()

    rho4 = spin1.to_two_qubit(random_density(rank=3, rng=np.random.default_rng(617)))
    skew = rho4.copy()
    skew[0, 1] += 1e-6
    asym = rho4 + 0.05 * np.diag([1.0, 0.0, -1.0, 0.0]) / 4.0
    cases = (("good", rho4, 0), ("trace", 1.25 * rho4, 1), ("skew", skew, 1), ("asym", asym, 2))
    for name, M, code in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"re": M.real.tolist(), "im": M.imag.tolist()}))
        checks.clear()
        assert cli.main(["bridge", str(path), "--direction", "from2q"]) == code, name
        out, err = capsys.readouterr()
        assert len(checks) == 1, name
        if code == 1:
            assert out == "" and err.startswith(f"error: {path}: two-qubit "), name

    # one check of the state file, where it is parsed, and one of the generator
    # file, in custom(), which solves the rows it checked
    gen = tmp_path / "gen.json"
    zeros = np.zeros((3, 3)).tolist()
    gen.write_text(json.dumps({"re": np.diag([1.0, 0.0, -1.0]).tolist(), "im": zeros}))
    mixed = os.path.join(data, "mixed.json")
    checks.clear()
    argv = ["evolve", mixed, "--generator", f"custom:{gen}", "--theta", "1", "--steps", "2"]
    assert cli.main(argv) == 0
    assert len(checks) == 2
    gen.write_text(json.dumps({"re": [[0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3], "im": zeros}))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {gen}: custom generator is not Hermitian")

