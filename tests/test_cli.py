"""End-to-end tests for the command-line interface.

Golden-file comparisons are byte-level; everything else checks the
documented exit-code contract and output invariants.  run_cli calls
cli.main in this process; run_child starts `python -m qutrit3d`, and only
the tests of what a process adds (the entry point, -O, interpreter exit)
use it.
"""

import ast
import contextlib
import glob
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from qutrit3d import cli, linalg, purestates, spin1, state
from qutrit3d.errors import InternalCheckError
from qutrit3d.tolerances import HERM_TOL, NORM_TOL, ORTHO_TOL, TRACE_TOL

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src", "qutrit3d")
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")

CANONICAL = ("mixed", "ket0", "pseudo_boundary")


def _child_env(env_extra):
    """os.environ without QUTRIT_SEED, then env_extra."""
    env = {k: v for k, v in os.environ.items() if k != "QUTRIT_SEED"}
    return {**env, **(env_extra or {})}


def run_child(*args, env_extra=None, flags=(), stdout=subprocess.PIPE):
    """`python *flags -m qutrit3d *args` in a child process, as subprocess.run returns it."""
    return subprocess.run([sys.executable, *flags, "-m", "qutrit3d", *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=_child_env(env_extra))


def run_cli(*args, env_extra=None, flags=()):
    """What run_child returns; in this process, through cli.main, when no flag is given.

    os.environ is the child's for the call and restored after, stdout and
    stderr are captured, every warning is raised, and argparse's SystemExit
    gives the exit code.
    """
    if flags:
        return run_child(*args, env_extra=env_extra, flags=flags)
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, _child_env(env_extra), clear=True),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    argv = [sys.executable, "-m", "qutrit3d", *args]
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def data_path(name):
    return os.path.join(DATA, name + ".json")


def read_golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


def canonical_density_json(text):
    """Round every float to 12 significant digits and re-serialize.

    Absorbs the one-ulp wobble that a decompose/compose round trip can
    introduce, so byte comparison tests the structure and the values.
    """
    obj = json.loads(text)
    rounded = {
        key: [[float(format(x, ".12g")) for x in row] for row in obj[key]]
        for key in ("re", "im")
    }
    return json.dumps(rounded, indent=2) + "\n"


def test_analyze_golden_bytes():
    for name in CANONICAL:
        res = run_cli("analyze", data_path(name))
        assert res.returncode == 0, res.stderr
        assert res.stdout == read_golden(f"analyze_{name}.txt"), name


def test_scene_golden_bytes():
    for name in CANONICAL:
        res = run_cli("scene", data_path(name))
        assert res.returncode == 0, res.stderr
        assert res.stdout == read_golden(f"scene_{name}.json"), name


def test_evolve_scenes_golden_bytes():
    # a twisting orbit of the maximally mixed state, scenes included
    argv = ("--generator", "twist:x", "--theta", "1.3", "--steps", "7", "--scenes")
    res = run_cli("evolve", data_path("mixed"), *argv)
    assert res.returncode == 0, res.stderr
    assert res.stdout == read_golden("evolve_scenes_mixed.json")


def test_mub_golden_bytes():
    for basis in (1, 2, 3, 4):
        res = run_cli("mub", "--basis", str(basis), "--vector", "1")
        assert res.returncode == 0, res.stderr
        assert res.stdout == read_golden(f"mub_b{basis}_v1.txt"), basis


def test_outputs_deterministic_across_runs():
    commands = [
        ("analyze", data_path("pseudo_boundary")),
        ("scene", data_path("mixed"), "--format", "obj", "--lat", "5", "--lon", "9"),
        ("mub", "--basis", "3", "--vector", "2"),
        ("random", "--rank", "3", "--seed", "11"),
        (
            "evolve",
            data_path("pseudo_boundary"),
            "--generator",
            "twist:x",
            "--theta",
            "1.3",
            "--steps",
            "7",
            "--scenes",
        ),
    ]
    for cmd in commands:
        first = run_cli(*cmd)
        second = run_cli(*cmd)
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout == second.stdout, cmd


def test_analyze_json_matches_in_memory_report():
    for name in CANONICAL:
        res = run_cli("analyze", data_path(name), "--json")
        assert res.returncode == 0, res.stderr
        parsed = json.loads(res.stdout)
        rho = cli.load_state_file(data_path(name))
        expected = cli.report_dict(cli.build_report(rho))
        assert parsed == expected, name


def test_analyze_accepts_amplitudes_file(tmp_path):
    path = tmp_path / "pure.json"
    path.write_text(
        json.dumps(
            {"amplitudes": [[0.7071067811865476, 0.0], [0.0, 0.7071067811865476], [0.0, 0.0]]}
        )
    )
    res = run_cli("analyze", str(path))
    assert res.returncode == 0, res.stderr
    assert "rank: 1" in res.stdout
    assert "validity: ok" in res.stdout


def test_parse_errors_exit_1(tmp_path):
    bad_cell = tmp_path / "bad.json"
    bad_cell.write_text(
        '{"re": [[1, 0, 0], [0, "x", 0], [0, 0, 0]],'
        ' "im": [[0,0,0],[0,0,0],[0,0,0]]}'
    )
    res = run_cli("analyze", str(bad_cell))
    assert res.returncode == 1
    assert '"re"[1][1]' in res.stderr

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert run_cli("analyze", str(not_json)).returncode == 1

    assert run_cli("analyze", str(tmp_path / "missing.json")).returncode == 1

    not_herm = tmp_path / "skew.json"
    not_herm.write_text(
        '{"re": [[0.5, 0.3, 0], [0, 0.5, 0], [0, 0, 0]],'
        ' "im": [[0,0,0],[0,0,0],[0,0,0]]}'
    )
    res = run_cli("analyze", str(not_herm))
    assert res.returncode == 1
    assert "Hermitian" in res.stderr

    unnormalized = tmp_path / "long.json"
    unnormalized.write_text('{"amplitudes": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}')
    assert run_cli("analyze", str(unnormalized)).returncode == 1

    # a decoder that recurses too deep, bytes that are not UTF-8 and an
    # integer past the int-from-string digit limit all name the file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    huge_int = tmp_path / "huge.json"
    huge_int.write_text('{"re": ' + "1" * 5000 + "}")
    for path in (deep, not_utf8, huge_int):
        res = run_cli("analyze", str(path))
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ") and str(path) in res.stderr, res.stderr
        assert "Traceback" not in res.stderr


def test_invalid_state_exit_2_names_condition(tmp_path):
    not_psd = tmp_path / "neg.json"
    not_psd.write_text(
        '{"re": [[0.8, 0, 0], [0, 0.8, 0], [0, 0, -0.6]],'
        ' "im": [[0,0,0],[0,0,0],[0,0,0]]}'
    )
    res = run_cli("analyze", str(not_psd))
    assert res.returncode == 2
    assert "validity: violated: diagonal weight outside [0, 1] (c1)" in res.stdout
    assert "rank: n/a" in res.stdout


def test_invalid_state_spectrum_fallback_naming(tmp_path):
    from test_state import band_case_density

    M = band_case_density()
    path = tmp_path / "band.json"
    path.write_text(json.dumps({"re": M.real.tolist(), "im": M.imag.tolist()}))
    res = run_cli("analyze", str(path))
    assert res.returncode == 2
    assert (
        "validity: violated: negative eigenvalue with all minors inside "
        "tolerance (spectrum)" in res.stdout
    )


def test_mub_out_of_range_exit_1():
    for argv, flag in ((("5", "1"), "--basis"), (("0", "1"), "--basis"), (("2", "4"), "--vector")):
        res = run_cli("mub", "--basis", argv[0], "--vector", argv[1])
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"qutrit3d mub: error: argument {flag}: invalid choice: ")


def test_mub_reports_cross_overlap():
    res = run_cli("mub", "--basis", "2", "--vector", "2")
    assert res.returncode == 0
    assert "cross-basis overlap modulus: 0.57735026919" in res.stdout


def test_pseudo_boundary_and_out_of_ball():
    boundary = run_cli("pseudo", "--az", "0.6666666666666666")
    assert boundary.returncode == 0, boundary.stderr
    assert "rank: 2" in boundary.stdout
    assert "gamma-norm: 1" in boundary.stdout

    inside = run_cli("pseudo", "--ax", "0.2", "--ay", "0.1")
    assert inside.returncode == 0
    assert "rank: 3" in inside.stdout

    outside = run_cli("pseudo", "--az", "0.6667")
    assert outside.returncode == 2
    assert "validity: violated: 2x2 principal minor negative (c2)" in outside.stdout


def test_scene_obj_output(tmp_path):
    out = tmp_path / "scene.obj"
    res = run_cli(
        "scene",
        data_path("mixed"),
        "--format",
        "obj",
        "--lat",
        "4",
        "--lon",
        "8",
        "--out",
        str(out),
    )
    assert res.returncode == 0, res.stderr
    text = out.read_text()
    vertices = [l for l in text.splitlines() if l.startswith("v ")]
    faces = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(vertices) == 4 * 8 + 2
    assert len(faces) == 2 * 8 + 3 * 8

    degenerate = run_cli(
        "scene", data_path("ket0"), "--format", "obj", "--surface-only"
    )
    assert degenerate.returncode == 2

    # a mesh outside 4 <= lat <= 1024, 8 <= lon <= 2048 is one exit-1 message
    for flag, value in (("--lat", "2"), ("--lat", "1025"), ("--lon", "2049")):
        res = run_cli("scene", data_path("mixed"), "--format", "obj", flag, value)
        assert res.returncode == 1, (flag, value)
        assert res.stderr.startswith("error: mesh needs 4 <= lat <= 1024, 8 <= lon <= 2048, got ")
        assert len(res.stderr.splitlines()) == 1


def test_evolve_mixed_state_is_fixed_point():
    res = run_cli(
        "evolve",
        data_path("mixed"),
        "--generator",
        "rot:z",
        "--theta",
        "6.2832",
        "--steps",
        "3",
    )
    assert res.returncode == 0, res.stderr
    records = json.loads(res.stdout)
    assert len(records) == 3
    assert [r["theta"] for r in records] == [0.0, 3.1416, 6.2832]
    base = np.array(records[0]["state"]["re"]) + 1j * np.array(records[0]["state"]["im"])
    assert records[0]["state"]["re"][0][0] == 0.3333333333333333
    for record in records[1:]:
        state = np.array(record["state"]["re"]) + 1j * np.array(record["state"]["im"])
        assert np.max(np.abs(state - base)) < 1e-14


def test_evolve_with_scenes_and_custom_generator(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(
        json.dumps(
            {
                "re": [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
                "im": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            }
        )
    )
    res = run_cli(
        "evolve",
        data_path("pseudo_boundary"),
        "--generator",
        f"custom:{gen}",
        "--theta",
        "0.9",
        "--steps",
        "4",
        "--scenes",
    )
    assert res.returncode == 0, res.stderr
    records = json.loads(res.stdout)
    assert len(records) == 4
    for record in records:
        assert set(record) == {"theta", "state", "scene"}
        assert record["scene"]["version"] == 1

    skew = tmp_path / "skew.json"
    skew.write_text(
        json.dumps(
            {
                "re": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                "im": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            }
        )
    )
    assert run_cli(
        "evolve", data_path("mixed"), "--generator", f"custom:{skew}", "--theta", "1"
    ).returncode == 1

    assert run_cli(
        "evolve", data_path("mixed"), "--generator", "spin:q", "--theta", "1"
    ).returncode == 1


def test_evolve_steps_above_the_bound_exit_1():
    argv = ["evolve", data_path("mixed"), "--generator", "rot:x", "--theta", "1"]
    code, out, err = _main(*argv, "--steps", "100001")
    assert (code, out) == (1, "")
    assert err == "error: trajectory takes at most 100000 samples, got 100001\n"


def test_evolve_phase_overflow_exits_1(tmp_path):
    # theta * max|eigenvalue of G| = 2e308 overflows: the mixed state used
    # to print NaN records and exit 0, the pure one to end in a traceback
    gen = tmp_path / "H.json"
    gen.write_text(json.dumps({"re": np.diag([2.0, 0.0, -2.0]).tolist(),
                               "im": np.zeros((3, 3)).tolist()}))
    for name, extra in (("mixed", ()), ("ket0", ("--scenes",))):
        res = run_cli("evolve", data_path(name), "--generator", f"custom:{gen}",
                      "--theta", "1e308", "--steps", "2", *extra)
        assert res.returncode == 1, (name, res.stderr)
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
        assert "Warning" not in res.stderr
        assert "nan" not in (res.stdout + res.stderr).lower()


def test_bridge_round_trip_bytes(tmp_path):
    for name in CANONICAL:
        to2q = run_cli("bridge", data_path(name), "--direction", "to2q")
        assert to2q.returncode == 0, to2q.stderr
        mid = tmp_path / f"{name}_2q.json"
        mid.write_text(to2q.stdout)
        back = run_cli("bridge", str(mid), "--direction", "from2q")
        assert back.returncode == 0, back.stderr

        with open(data_path(name), "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        rho = np.array(obj["re"]) + 1j * np.array(obj["im"])
        original = json.dumps(cli.density_payload(rho), indent=2) + "\n"
        assert canonical_density_json(back.stdout) == canonical_density_json(original), name


def test_bridge_rejects_asymmetric_two_qubit(tmp_path):
    rho = np.eye(4) / 4.0
    pert = np.zeros((4, 4))
    pert[0, 0] = 0.05
    pert[3, 3] = -0.05
    sz_i = np.diag([1.0, 1.0, -1.0, -1.0])
    i_sz = np.diag([1.0, -1.0, 1.0, -1.0])
    rho = rho + 0.05 * (sz_i - i_sz) / 4.0
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}))
    res = run_cli("bridge", str(path), "--direction", "from2q")
    assert res.returncode == 2
    assert "bloch" in res.stderr


def test_from2q_exits_cleanly_near_its_tolerances(tmp_path):
    # the symmetry checks come before the trace of the returned block,
    # so a file inside the Hermiticity and singlet tolerances but off
    # trace one exits 1, and an exit-0 output is a state analyze accepts
    rho4 = spin1.to_two_qubit(state.random_density(rank=3, rng=5))
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    singlet = np.outer(singlet, singlet)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    cases = (
        ("scaled", rho4 * (1.0 + 5e-11), 1),
        ("leaky", (1.0 - 2e-11) * rho4 + 2e-11 * singlet, 1),
        ("huge", rho4 + 1e308 * np.kron(sx, sx), 1),
        ("scaled_ok", rho4 * (1.0 + 5e-13), 0),
        ("leaky_ok", (1.0 - 5e-13) * rho4 + 5e-13 * singlet, 0),
    )
    for name, M, code in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"re": M.real.tolist(), "im": M.imag.tolist()}))
        out = tmp_path / f"{name}_3.json"
        res = run_cli("bridge", str(path), "--direction", "from2q", "--out", str(out))
        assert res.returncode == code, (name, res.stderr)
        if code == 0:
            assert run_cli("analyze", str(out)).returncode == 0, name
            continue
        assert "Traceback" not in res.stderr and "nan" not in res.stderr.lower(), name
        assert len(res.stderr.splitlines()) == 1, name
        assert res.stderr.startswith(f"error: {path}: two-qubit "), (name, res.stderr)


def test_ortho_agreeing_verdicts(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    s = 0.7071067811865476
    a.write_text(json.dumps({"amplitudes": [[s, 0.0], [0.0, s], [0.0, 0.0]]}))
    b.write_text(json.dumps({"amplitudes": [[s, 0.0], [0.0, -s], [0.0, 0.0]]}))
    c.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))

    res = run_cli("ortho", str(a), str(b))
    assert res.returncode == 0, res.stderr
    assert "inner-product verdict: orthogonal" in res.stdout
    assert "rk-condition verdict: orthogonal" in res.stdout

    res = run_cli("ortho", str(a), str(c))
    assert res.returncode == 0
    assert "inner-product verdict: not orthogonal" in res.stdout
    assert "rk-condition verdict: not orthogonal" in res.stdout


def test_ortho_disagreement_exits_3(tmp_path, monkeypatch, capsys):
    # <a|b> is exactly 0, so the inner product says orthogonal; forcing
    # the r/k criterion to disagree must make the real command exit 3
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    s = 0.7071067811865476
    a.write_text(json.dumps({"amplitudes": [[s, 0.0], [0.0, s], [0.0, 0.0]]}))
    b.write_text(json.dumps({"amplitudes": [[s, 0.0], [0.0, -s], [0.0, 0.0]]}))
    monkeypatch.setattr(purestates, "orthogonal", lambda p, q: False)
    code = cli.main(["ortho", str(a), str(b)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out.splitlines() == [
        "inner-product modulus: 0",
        "inner-product verdict: orthogonal",
        "rk-condition verdict: not orthogonal",
    ]
    assert err == "error: orthogonality criteria disagree\n"


def test_ortho_tests_the_modulus_of_the_overlap(tmp_path):
    # each of Re and Im of <a|b> is 0.9e-10, inside 1e-10, but the
    # modulus is 1.27e-10: both criteria must say "not orthogonal"
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    s = 0.7071067811865476
    x = 0.9e-10 * np.sqrt(2.0)
    y = -x
    z = np.sqrt(1.0 - x * x - y * y)
    a.write_text(json.dumps({"amplitudes": [[s, 0.0], [0.0, s], [0.0, 0.0]]}))
    b.write_text(json.dumps({"amplitudes": [[x, 0.0], [y, 0.0], [z, 0.0]]}))
    res = run_cli("ortho", str(a), str(b))
    assert res.returncode == 0, res.stderr
    assert "inner-product verdict: not orthogonal" in res.stdout
    assert "rk-condition verdict: not orthogonal" in res.stdout


# the two roundings of |<a|b>| of these files lie 2.2e-17 apart, one on each side of
# ORTHO_TOL: _dot's above it, purestates.orthogonal's below
STRADDLING_PAIR = (
    [[-0.5053130683420448, 0.7259303922355961], [-0.3845243942507319, -0.09328910154497962],
     [0.16025390088045777, -0.18825671197345403]],
    [[-0.014816408666589315, -0.1751792175251659], [0.20895641415768454, -0.0391144547756559],
     [0.10274876678292345, -0.9556896374430608]],
)


def test_ortho_verdicts_within_rounding_of_the_tolerance_exit_0(tmp_path):
    """Two roundings of one modulus that straddle ORTHO_TOL print their verdicts and exit 0."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"amplitudes": STRADDLING_PAIR[0]}))
    b.write_text(json.dumps({"amplitudes": STRADDLING_PAIR[1]}))
    res = run_cli("ortho", str(a), str(b))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines() == [
        "inner-product modulus: 1.00000009027e-10",
        "inner-product verdict: not orthogonal",
        "rk-condition verdict: orthogonal",
    ]


def test_ortho_family_at_the_tolerance_never_exits_3(tmp_path, capsys):
    """Seeded pairs with |<a|b>| = ORTHO_TOL up to rounding: some straddle it, none exits 3."""
    rng = np.random.default_rng(4051)
    straddling = 0
    for k in range(200):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v -= np.vdot(u, v) * u
        v /= np.linalg.norm(v)
        w = np.sqrt(1.0 - ORTHO_TOL**2) * v + ORTHO_TOL * np.exp(2j * np.pi * rng.random()) * u
        paths = []
        for name, psi in (("a", u), ("b", w)):
            path = tmp_path / f"{name}{k}.json"
            path.write_text(json.dumps({"amplitudes": [[x.real, x.imag] for x in psi.tolist()]}))
            paths.append(str(path))
        assert cli.main(["ortho", *paths]) == 0, paths
        out, err = capsys.readouterr()
        verdicts = [line.rsplit(": ", 1)[1] for line in out.splitlines()[1:]]
        straddling += verdicts[0] != verdicts[1]
        assert err == ""
    assert straddling >= 1


def test_random_seeding_and_rank():
    first = run_cli("random", "--rank", "2", "--seed", "5")
    second = run_cli("random", "--rank", "2", "--seed", "5")
    different = run_cli("random", "--rank", "2", "--seed", "6")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout != different.stdout
    assert first.stdout.rstrip().splitlines()[-1] == "rank: 2"

    via_env = run_cli("random", "--rank", "2", env_extra={"QUTRIT_SEED": "5"})
    assert via_env.stdout == first.stdout

    # explicit --seed wins over the environment default
    explicit = run_cli("random", "--rank", "2", "--seed", "6", env_extra={"QUTRIT_SEED": "5"})
    assert explicit.stdout == different.stdout

    # the printed rank is the printed matrix's
    for rank, seed in itertools.product((1, 2, 3), (1, 2)):
        res = run_cli("random", "--rank", str(rank), "--seed", str(seed))
        payload, printed = res.stdout.rsplit("}\n", 1)
        obj = json.loads(payload + "}")
        rho = np.array(obj["re"]) + 1j * np.array(obj["im"])
        assert printed == f"rank: {state.classify_rank(rho).rank}\n" == f"rank: {rank}\n"

    # a seed that is not a non-negative integer is a parse failure naming its source
    for argv, env, where in (
        (["--seed", "-1"], None, "argument --seed: "),
        (["--seed", "1.5"], None, "argument --seed: "),
        ([], {"QUTRIT_SEED": "abc"}, "error: QUTRIT_SEED: "),
        ([], {"QUTRIT_SEED": "-2"}, "error: QUTRIT_SEED: "),
    ):
        res = run_cli("random", *argv, env_extra=env)
        assert res.returncode == 1, (argv, env, res.stderr)
        assert res.stdout == ""
        assert where in res.stderr and "Traceback" not in res.stderr, res.stderr


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.txt"
    res = run_cli("analyze", data_path("mixed"), "--out", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    assert out.read_text() == read_golden("analyze_mixed.txt")


def test_out_flag_failures(tmp_path):
    """A file that cannot be written is one exit-1 line; a failed command leaves --out as it was."""
    res = run_cli("analyze", data_path("mixed"), "--out", str(tmp_path))
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith(f"error: cannot write {tmp_path}: ")
    assert len(res.stderr.splitlines()) == 1
    out = tmp_path / "report.txt"
    out.write_text("kept")
    res = run_cli("analyze", str(tmp_path / "missing.json"), "--out", str(out))
    assert res.returncode == 1 and res.stderr.startswith("error: cannot read ")
    assert out.read_text() == "kept"


def test_help_documents_exit_codes():
    res = run_cli("--help")
    assert res.returncode == 0
    flat = " ".join(res.stdout.split())
    assert "exit codes: 0 success" in flat
    assert "1 I/O or parse failure" in flat
    assert "2 invalid state" in flat
    assert "3 internal inconsistency" in flat
    assert "exp(-i theta G)" in flat


def _grid_payload(n, value, where=(0, 0)):
    re = np.eye(n) / n
    payload = {"re": re.tolist(), "im": np.zeros((n, n)).tolist()}
    payload["re"][where[0]][where[1]] = value
    return payload


# (file name, file payload or None, argv with {f} for the file); every
# non-finite number, and every file of the wrong shape, must be rejected as a
# parse failure of that file, exit 1
NONFINITE_CASES = {
    "state_nan": ("s.json", _grid_payload(3, float("nan")), ["analyze", "{f}"]),
    "state_inf_off_diagonal": (
        "s.json",
        _grid_payload(3, float("inf"), (0, 1)),
        ["scene", "{f}"],
    ),
    "amplitude_inf": (
        "s.json",
        {"amplitudes": [[float("inf"), 0.0], [0.0, 0.0], [0.0, 0.0]]},
        ["analyze", "{f}"],
    ),
    "amplitude_huge_int": (
        "s.json",
        {"amplitudes": [[10**400, 0], [0, 0], [0, 0]]},
        ["analyze", "{f}"],
    ),
    "two_qubit_nan": (
        "q.json",
        _grid_payload(4, float("nan")),
        ["bridge", "{f}", "--direction", "from2q"],
    ),
    "generator_inf": (
        "g.json",
        _grid_payload(3, float("-inf"), (2, 2)),
        ["evolve", os.path.join(DATA, "mixed.json"), "--generator", "custom:{f}", "--theta", "1"],
    ),
    "state_wrong_shape": ("s.json", _grid_payload(2, 0.5), ["analyze", "{f}"]),
    "amplitudes_wrong_shape": (
        "s.json",
        {"amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        ["ortho", "{f}", "{f}"],
    ),
    "two_qubit_wrong_shape": (
        "q.json",
        _grid_payload(3, 1.0 / 3.0),
        ["bridge", "{f}", "--direction", "from2q"],
    ),
    "generator_wrong_shape": (
        "g.json",
        _grid_payload(4, 0.25),
        ["evolve", os.path.join(DATA, "mixed.json"), "--generator", "custom:{f}", "--theta", "1"],
    ),
    "pseudo_flag_nan": (None, None, ["pseudo", "--ax", "nan"]),
    "pseudo_flag_inf": (None, None, ["pseudo", "--az=-inf"]),
    "theta_flag_inf": (
        None,
        None,
        ["evolve", os.path.join(DATA, "mixed.json"), "--generator", "rot:z", "--theta", "inf"],
    ),
}


@pytest.mark.parametrize("case", sorted(NONFINITE_CASES))
def test_nonfinite_input_exits_1(tmp_path, case):
    name, payload, argv = NONFINITE_CASES[case]
    if name is not None:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        argv = [a.replace("{f}", str(path)) for a in argv]
    res = run_cli(*argv)
    assert res.returncode == 1, (res.stdout, res.stderr)
    assert res.stdout == ""
    assert "error: " in res.stderr and "Traceback" not in res.stderr
    if name is not None:  # the message names the file it rejects
        assert res.stderr.startswith(f"error: {path}: "), res.stderr


def test_unconverged_eigensolve_exits_3(monkeypatch, capsys, tmp_path):
    # rho's solve: pseudo_boundary has imaginary off-diagonals, so its first sweep rotates
    # and one sweep cannot confirm convergence; only --json reads rho's eigenvalues, text
    # analyze proves its rank without them and solves T, which is diagonal, in one sweep.
    # T's solve: a state with real off-diagonals in every pair
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    real = tmp_path / "real.json"
    real.write_text(json.dumps({"re": [[0.5, 0.1, 0.05], [0.1, 0.3, 0.02], [0.05, 0.02, 0.2]],
                                "im": [[0.0] * 3] * 3}))
    for argv in (["analyze", data_path("pseudo_boundary"), "--json"], ["analyze", str(real)]):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 3, argv
        assert out == ""
        assert err.startswith("error: Jacobi sweep limit 1 reached")
        assert "Traceback" not in err
    assert cli.main(["analyze", data_path("pseudo_boundary")]) == 0


def test_point_threshold_state_gets_its_scene(tmp_path, capsys):
    """A valid pure state classed Point with |a| near 2 sqrt(RANK_TOL) is drawn, not exit 3.

    Its computed mu_1 is at most RANK_TOL while |a| is above 2 sqrt(RANK_TOL):
    only a slack with room for T's rounding of mu lets every command agree.
    """
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"amplitudes": [
        [0.6796323626121934, 2.8204779810951697e-06],
        [-0.7334526130941735, 2.0938040383733084e-06],
        [0.012129098709163998, -3.142707301469538e-05]]}))
    assert cli.main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a: 4.60497457373e-05 4.27861314776e-05 6.98340786171e-06",
        "q: 0.017792238417 -0.0164866558469 0.996956264591",
        "omega: 0.461900148318 0.537952735659 0.000147116023158",
        "tensor eigenvalues: 1 0.999999998 -0.999999998",
        "semi-axes: 6.32455487666e-05 0 0",
        "gamma-norm: degenerate",
        "validity: ok",
        "rank: 1",
        "case: Point",
        "scene: point",
    ]
    assert cli.main(["scene", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == "point"
    for generator in ("rot:x", "twist:z"):
        argv = ["evolve", str(path), "--generator", generator, "--theta", "3", "--steps", "50"]
        assert cli.main(argv + ["--scenes"]) == 0, generator
        assert len(json.loads(capsys.readouterr().out)) == 50


def test_internal_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a complex pure state is a segment endpoint, checked for |a| = eps_u;
    # halving eps_u breaks that check
    path = tmp_path / "endpoint.json"
    s = 0.7071067811865476
    path.write_text(json.dumps({"amplitudes": [[s, 0.0], [0.0, s], [0.0, 0.0]]}))
    monkeypatch.setattr(state, "_semi_axes", lambda lam: [0.5, 0.0, 0.0])
    rho = cli.load_state_file(str(path))
    with pytest.raises(InternalCheckError):
        state.analyse(rho)
    code = cli.main(["analyze", str(path)])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_no_assert_statements_in_src():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_literal_tolerances_outside_the_table():
    """No small float literal, and no module-level name bound to a bare float literal.

    A module-level float is a threshold whatever its size, so it belongs in
    tolerances.py; names bound to expressions or ints are not thresholds.
    """
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "tolerances.py":
            continue
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < node.value < 1e-3
        ]
        found += [
            f"{os.path.basename(path)}:{node.lineno} module-level {node.value.value!r}"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, float)
        ]
    assert found == []


# the only function of the package that may call BLAS: the expectations of
# the spin matrices, the reference route of the parameters
BLAS_EXEMPT = {"expectations"}
BLAS_ATTRIBUTES = {"linalg", "dot", "outer", "kron", "einsum", "trace", "cross"}
LINTED = ("state.py", "linalg.py", "geometry.py", "spin1.py", "dynamics.py", "purestates.py",
          "cli.py")


def _calls_blas(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
        and node.attr in BLAS_ATTRIBUTES
    )


def test_no_blas_on_the_analysis_and_bridge_path():
    """No @ and no np.linalg, dot, outer, kron, einsum, trace or cross but in BLAS_EXEMPT.

    These call BLAS or sum in an order of numpy's choosing, so their last
    bit can depend on the CPU's kernel; the analysis, the bridge, the
    trajectories, the OBJ mesh, the pure states, the samplers and the CLI
    run on Python scalars instead.
    """
    found, exempt_seen = [], set()
    for name in LINTED:
        with open(os.path.join(SRC, name), "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in BLAS_EXEMPT:
                exempt_seen.add(node.name)
                exempt.update(id(n) for n in ast.walk(node))
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in exempt and _calls_blas(node)
        ]
    assert found == []
    assert exempt_seen == BLAS_EXEMPT


# the only functions of the package that import numpy: the array edge (linalg._rows
# in, linalg._array out), the draws of the two samplers and the expectation reference
NUMPY_EDGE = {"_rows", "_array", "_random_rows", "haar_pure", "expectations"}


def _is_numpy_import(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_numpy_enters_only_at_the_edge():
    """No function of the LINTED modules imports numpy but those in NUMPY_EDGE.

    An argument becomes rows, and rows become an array, in one place each,
    so every vector, tensor and matrix argument gets the same shape check.
    """
    found, seen = [], set()
    for name in LINTED:
        with open(os.path.join(SRC, name), "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        edge = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in NUMPY_EDGE:
                seen.add(node.name)
                edge.update(id(n) for n in ast.walk(node))
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in edge and _is_numpy_import(node)
        ]
    assert found == []
    assert seen == NUMPY_EDGE


# the public functions of the LINTED modules that take or return numpy arrays:
# each converts and checks its input once, so the scalar core calls their row
# functions instead
ARRAY_EDGE = {
    "analyse", "assert_density", "check_state", "classify_rank", "compose", "decompose",
    "gamma_norm", "metric_tensor", "params_from_bloch_tensor", "random_density", "semi_axes",
    "validate", "eig_hermitian3", "eig_sym3", "eigvals_hermitian4", "partial_transpose",
    "build_scene", "expectations", "from_two_qubit", "ppt_separable", "singlet_overlap",
    "spin_set", "to_two_qubit", "custom", "evolve", "generator_matrix", "trajectory",
    "rik_decompose", "bloch_from_pure", "density_from_pure", "orthogonal_bloch_family",
    "mub_bases", "pseudo_qubit", "pseudo_overlap", "haar_pure", "reference_state",
    "orthogonal_state", "build_report",
}
# the reference route: a, q and omega as expectation values of the spin matrices
ARRAY_EDGE_EXEMPT = {"expectations"}
# the conversions between rows and arrays: linalg._rows in, linalg._array out, and
# the record converters; geometry._floats reads a scene field of either form, so
# a function that reads a scene through it is no edge
CONVERTERS = {"_array", "_rows", "_state_params", "_scene_arrays", "_pure_arrays"}
EITHER_FORM = {"_floats"}


def _functions():
    """(module, function) for every top-level function of the LINTED modules."""
    for name in LINTED:
        with open(os.path.join(SRC, name), "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        yield from ((name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef))


def _array_edges(functions) -> set:
    """The public functions that import numpy or refer, by name, to a converter.

    A private function that refers to a converter, or to such a private
    function, counts as one; functions of one name are taken together.
    """
    refers, numpy = {}, set()
    for _, fn in functions:
        names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        refers.setdefault(fn.name, set()).update(names)
        if any(_is_numpy_import(n) for n in ast.walk(fn)):
            numpy.add(fn.name)
    converting, grown = set(CONVERTERS), True
    while grown:
        more = {
            f for f, names in refers.items()
            if f.startswith("_") and f not in EITHER_FORM and names & converting
        }
        grown = not more <= converting
        converting |= more
    return {
        f for f, names in refers.items()
        if not f.startswith("_") and (f in numpy or names & converting)
    }


def test_no_array_edge_inside_the_package():
    """No function of the LINTED modules, the CLI included, calls an array edge.

    A matrix is converted to rows and checked once, where it enters; a
    call back into the array edge would convert and check it again.  The
    array edges are derived from the source, and ARRAY_EDGE names them.
    """
    functions = list(_functions())
    assert _array_edges(functions) == ARRAY_EDGE
    found = [
        f"{name}:{node.lineno} {fn.name} calls {callee}"
        for name, fn in functions
        if fn.name not in ARRAY_EDGE_EXEMPT
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and (callee := getattr(node.func, "id", getattr(node.func, "attr", None))) in ARRAY_EDGE
    ]
    assert found == []


# the one JSON renderer and the one writer: each cmd_* returns its code and text, main
# writes the text through _emit and prints the one error line; geometry.export_scene_json
# is a library function
OUTPUT_CALLS = {
    "dumps": {"cli.py:_dump", "geometry.py:export_scene_json"},
    "print": {"cli.py:_emit", "cli.py:main"},
    "_emit": {"cli.py:main"},
}


def test_output_leaves_through_one_renderer_and_one_writer():
    """json.dumps, print and _emit are called only where OUTPUT_CALLS allows; one --out flag.

    No cmd_* calls any of them: each returns its exit code and text to main.
    """
    found, out_flags, commands = [], 0, set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for stmt in tree.body:
            where = f"{name}:{getattr(stmt, 'name', '')}"
            if where.startswith("cli.py:cmd_"):
                commands.add(where)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in OUTPUT_CALLS and where not in OUTPUT_CALLS[callee]:
                    found.append(f"{name}:{node.lineno} {callee}")
                if callee == "add_argument" and any(
                    isinstance(a, ast.Constant) and a.value == "--out" for a in node.args
                ):
                    out_flags += 1
    assert found == []
    assert out_flags == 1
    assert len(commands) == 8 and not commands & set().union(*OUTPUT_CALLS.values())


# the functions of the package that still call the builtin sum: none.  CPython 3.12
# made a float sum compensated, so a float sum's last bit depends on the interpreter.
# Float and complex sums go through linalg._sum, in a fixed order, and _record adds
# its rank's three bools as written
SUM_CALLERS = set()


def test_builtin_sum_only_where_it_is_left():
    """sum( only in SUM_CALLERS, and math.fsum and statistics nowhere in the package."""
    callers, found = set(), []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
                    callers.add(f"{name}:{getattr(stmt, 'name', node.lineno)}")
                names = {getattr(node, a, None) for a in ("attr", "id")} | _imported_names(node)
                if names & {"fsum", "statistics"}:
                    found.append(f"{name}:{node.lineno}")
    assert found == []
    assert callers == SUM_CALLERS


# the functions of the package that call linalg._ldl, the LDL^dag certificate kernel: the
# one positivity and rank verdict, linalg._verdict, which a state's check, the PPT test and
# the analysis all read
AT_LEAST_CALLERS = {"linalg.py:_verdict"}


def test_at_least_only_where_the_verdict_is():
    """_ldl( called only in AT_LEAST_CALLERS, as a name or an attribute."""
    callers = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path, "r", encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and "_ldl" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(f"{name}:{getattr(stmt, 'name', node.lineno)}")
    assert callers == AT_LEAST_CALLERS


def _defaulted(fn, method: bool) -> list:
    """(name, position or None) of fn's parameters with a default; a method's self is not counted."""
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args]
    found = [(n, i - method) for i, n in enumerate(names) if i >= len(names) - len(args.defaults)]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]


def test_every_default_of_a_private_function_is_set_somewhere():
    """Each parameter with a default of a private function is set by a call in the package.

    A call sets it by keyword, by passing more positional arguments than
    its position, or through *args or **kwargs.  A default no call sets is
    dead code: a mode that nothing runs.
    """
    trees = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "r", encoding="utf-8") as fh:
            trees.append((os.path.basename(path), ast.parse(fh.read(), filename=path)))
    calls = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    dead = []
    for name, tree in trees:
        methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") \
                    or fn.name.startswith("__"):
                continue
            for param, i in _defaulted(fn, fn in methods):
                if not any(any(isinstance(a, ast.Starred) for a in call.args)
                           or i is not None and i < len(call.args)
                           or any(k.arg in (param, None) for k in call.keywords)
                           for call in calls.get(fn.name, ())):
                    dead.append(f"{name}:{fn.name}({param})")
    assert dead == []


# a private name as the source mentions it: "_" and a letter, not inside a word; a "'" or
# "|" before it marks a subscript of a formula (mu'_k, ||A||_F), not a name
PRIVATE_NAME = re.compile(r"(?<![\w'|])_[A-Za-z]\w*")


def test_every_private_name_mentioned_is_defined():
    """Each _name in src/, in code, docstrings and comments alike, is defined in src/.

    Functions, classes (nested and methods included), module-level names
    and __slots__ entries count as defined.  A docstring that cites a
    function a later change removed points the reader at nothing.
    """
    defined, sources = set(), {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, "r", encoding="utf-8") as fh:
            sources[os.path.basename(path)] = text = fh.read()
        tree = ast.parse(text, filename=path)
        defined.update(node.name for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                defined.update(n.id for t in stmt.targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.Assign) and any(
                            getattr(t, "id", None) == "__slots__" for t in item.targets):
                        defined.update(ast.literal_eval(item.value))
    stale = [f"{name}:{i} {m.group()}" for name, text in sources.items()
             for i, line in enumerate(text.splitlines(), 1)
             for m in PRIVATE_NAME.finditer(line) if m.group() not in defined]
    assert stale == []


def _imported_names(node) -> set:
    """The modules an import statement names, and the names it imports from them."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        return {(node.module or "").split(".")[0]} | {alias.name for alias in node.names}
    return set()


def test_analyze_golden_bytes_under_optimize():
    for name in CANONICAL:
        res = run_cli("analyze", data_path(name), flags=("-O",))
        assert res.returncode == 0, res.stderr
        assert res.stdout == read_golden(f"analyze_{name}.txt"), name


def test_module_entry_point_exits_0_1_2_without_a_traceback():
    """One `python -m qutrit3d` child per exit code: a fresh interpreter, its exit, its streams."""
    runs = (
        (("analyze", data_path("mixed")), 0, read_golden("analyze_mixed.txt"), ""),
        (("analyze", data_path("missing")), 1, "", "error: cannot read "),
        (("scene", data_path("ket0"), "--format", "obj", "--surface-only"), 2, "", "error: "),
    )
    for argv, code, out, err in runs:
        res = run_child(*argv)
        assert (res.returncode, res.stdout) == (code, out), (argv, res.stderr)
        assert res.stderr.startswith(err) and len(res.stderr.splitlines()) == (code != 0), argv
        assert "Traceback" not in res.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_failed_write_to_stdout_exits_1_with_one_error_line(unbuffered, monkeypatch):
    """stdout on a full device, block-buffered or not: one error line, exit 1, no exit-time flush error."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else None
    evolve = ("evolve", data_path("mixed"), "--generator", "rot:x", "--theta", "1")
    for argv in (("analyze", data_path("mixed")), evolve, (*evolve, "--steps", "2000")):
        with open("/dev/full", "w", encoding="utf-8") as full:
            res = run_child(*argv, env_extra=env, stdout=full)
        assert res.returncode == 1, (argv, res.stderr)
        assert res.stderr.startswith("error: cannot write stdout: "), res.stderr
        assert len(res.stderr.splitlines()) == 1, res.stderr


def _main(*argv):
    """run_cli's (exit code, stdout, stderr) of argv, whose paths may be Path objects."""
    res = run_cli(*map(str, argv))
    return res.returncode, res.stdout, res.stderr


NONFINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _diag_third_file(path, re12=0.0, im12=0.0):
    """Diagonal 1/3 with rho_12 = re12 + i im12 and its Hermitian mirror."""
    real, imag = np.eye(3) / 3.0, np.zeros((3, 3))
    real[0, 1] = real[1, 0] = re12
    imag[0, 1], imag[1, 0] = im12, -im12
    path.write_text(json.dumps({"re": real.tolist(), "im": imag.tolist()}))
    return path


def test_overflowing_report_exits_with_one_message(tmp_path):
    # a finite, Hermitian, trace-one file whose metric norm or det(1 - T)
    # overflows ends with one error line: no inf, Infinity, "degenerate"
    # or numpy overflow warning
    files = [
        _diag_third_file(tmp_path / "im155.json", im12=1e155),
        _diag_third_file(tmp_path / "re155.json", re12=1e155),
        _diag_third_file(tmp_path / "re300.json", re12=1e300),
    ]
    runs = [("analyze", f) for f in files] + [("analyze", "--json", f) for f in files]
    for argv in runs + [("pseudo", "--ax", "1e155")]:
        code, out, err = _main(*argv)
        assert code == 1, (argv, out, err)
        assert not NONFINITE_TOKEN.search(out), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "overflows" in err
    # a Bloch vector whose density matrix overflows is named by its flags
    code, out, err = _main("pseudo", "--ay", "1e308")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: --ax/--ay/--az: density matrix overflows"), err
    # scene, evolve and bridge reject them with one not-positive line
    for path, power in zip(files, ("155", "155", "300")):
        line = f"error: not positive: min eigenvalue -1.000e+{power} < -1e-09\n"
        for argv in (("scene", path), ("bridge", path, "--direction", "to2q"),
                     ("evolve", path, "--generator", "rot:x", "--theta", "1", "--steps", "3")):
            assert _main(*argv) == (2, "", line), argv

    # an entry that T = 1 - 2 Re(rho) would double past the solver's entry
    # bound is rejected where the file is read, and the message names it
    big = _diag_third_file(tmp_path / "re8e306.json", re12=8e306)
    for argv in (("analyze", big), ("analyze", "--json", big), ("scene", big),
                 ("bridge", big, "--direction", "to2q")):
        code, out, err = _main(*argv)
        assert (code, out) == (1, ""), argv
        assert len(err.splitlines()) == 1, argv
        assert err.startswith(f"error: {big}: density matrix overflows"), (argv, err)

    # controls below the overflow keep their output and exit 2
    code, out, err = _main("analyze", _diag_third_file(tmp_path / "im110.json", im12=1e110))
    assert (code, err) == (2, "")
    assert out == (
        "a: 0 0 -2e+110\nq: 0 0 0\n"
        "omega: 0.333333333333 0.333333333333 0.333333333333\n"
        "tensor eigenvalues: 0.333333333333 0.333333333333 0.333333333333\n"
        "semi-axes: 0.666666666667 0.666666666667 0.666666666667\n"
        "gamma-norm: 9e+220\nvalidity: violated: 2x2 principal minor negative (c2)\n"
        "rank: n/a\ncase: n/a\nscene: n/a\n"
    )
    code, out, err = _main("pseudo", "--ax", "1e100")
    assert (code, err) == (2, "")
    assert "a: 1e+100 0 0\n" in out and "gamma-norm: 2.25e+200\n" in out


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _fuzz_payloads(rng):
    """About 300 mutations of valid state, amplitude, two-qubit and generator files, as JSON text."""
    rho = [state.random_density(rank=r, rng=rng) for r in (1, 2, 3)]
    bases = {
        "state": [cli.density_payload(r) for r in rho],
        "two_qubit": [cli.density_payload(spin1.to_two_qubit(r)) for r in rho],
        "generator": [
            cli.density_payload((X + X.conj().T) / 2.0)
            for X in (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
        ],
        "amplitudes": [
            cli.amplitudes_payload(psi / linalg.vector_norm(psi.tolist()))
            for psi in (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3))
        ],
    }
    odd_values = ("1", None, True, [1.0], {"x": 1.0}, [], 10**400, -(10**400), 10**300)
    literals = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999", str(10**400))

    def huge():
        # three bands, so the top of the float range, where 2 rho and the
        # solver's sums would overflow, is drawn as often as the rest
        lo, hi = ((100.0, 300.0), (300.0, 307.0), (307.0, 308.25))[int(rng.integers(3))]
        return float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(lo, hi)

    def cells(obj):
        if "amplitudes" in obj:
            return obj["amplitudes"], len(obj["amplitudes"]), 2
        key = str(rng.choice(["re", "im"]))
        return obj[key], len(obj[key]), len(obj[key])

    def mutate(kind, obj):
        obj = json.loads(json.dumps(obj))
        grid, rows, cols = cells(obj)
        i, j = int(rng.integers(rows)), int(rng.integers(cols))
        op = int(rng.integers(9))
        if op == 0:  # a cell of the wrong type
            grid[i][j] = odd_values[int(rng.integers(len(odd_values)))]
        elif op == 1:  # the wrong shape
            choice = int(rng.integers(4))
            if choice == 0:
                grid.pop(i)
            elif choice == 1:
                grid[i].pop(j)
            elif choice == 2:
                grid.append(list(grid[i]))
            else:
                grid[i].append(0.0)
        elif op == 2:  # a wrong top level or a missing key
            obj = [obj, {}, "state", {"re": obj.get("re")}, {"amplitudes": 3}][int(rng.integers(5))]
        elif op == 3:  # a non-finite or huge literal
            grid[i][j] = "@"
            return json.dumps(obj).replace('"@"', literals[int(rng.integers(len(literals)))])
        elif op in (4, 5) and kind != "amplitudes":  # a huge Hermitian off-diagonal pair
            k = (i + 1 + int(rng.integers(rows - 1))) % rows
            x = huge()
            if op == 4:
                obj["re"][i][k] += x
                obj["re"][k][i] += x
            else:
                obj["im"][i][k] += x
                obj["im"][k][i] -= x
        elif op in (4, 5):  # a huge amplitude
            grid[i][j] = huge()
        elif op == 6:  # just inside or outside the Hermiticity or normalisation tolerance
            scale = float(rng.choice([0.5, 0.99, 1.01, 2.0]))
            if kind == "amplitudes":
                grid[i][j] += scale * NORM_TOL
            else:
                obj["im"][i][(i + 1) % rows] += scale * HERM_TOL
        elif op == 7 and kind != "amplitudes":  # just inside or outside the trace tolerance
            obj["re"][i][i] += float(rng.choice([0.5, 0.99, 1.01, 2.0, -2.0])) * TRACE_TOL
        else:  # a spectrum with a negative eigenvalue, trace kept
            if kind == "amplitudes":
                grid[i][j] = -grid[i][j]
            else:
                d = float(rng.uniform(0.05, 3.0))
                obj["re"][i][i] += d
                obj["re"][(i + 1) % rows][(i + 1) % rows] -= d
        return json.dumps(obj)

    for kind, objs in bases.items():
        for obj in objs:
            yield kind, json.dumps(obj)
            for _ in range(24):
                yield kind, mutate(kind, obj)


def test_cli_fuzz_of_input_files(tmp_path):
    """Mutated input files end in exit 0, 1 or 2 with finite output and no escaping exception."""
    mixed = data_path("mixed")
    commands = {
        "state": (
            ["analyze", "{f}"],
            ["analyze", "--json", "{f}"],
            ["scene", "{f}"],
            ["scene", "{f}", "--format", "obj", "--lat", "4", "--lon", "8"],
            ["bridge", "{f}", "--direction", "to2q"],
            ["evolve", "{f}", "--generator", "rot:x", "--theta", "0.7", "--steps", "3"],
        ),
        "two_qubit": (["bridge", "{f}", "--direction", "from2q"], ["analyze", "{f}"]),
        "generator": (
            ["evolve", mixed, "--generator", "custom:{f}", "--theta", "0.7", "--steps", "3"],
            ["analyze", "--json", "{f}"],
        ),
    }
    commands["amplitudes"] = commands["state"]
    json_out = {"--json", "to2q", "from2q", "evolve"}
    rng = np.random.default_rng(20261019)
    codes = []
    for n, (kind, text) in enumerate(_fuzz_payloads(rng)):
        path = tmp_path / f"fuzz{n}.json"
        path.write_text(text)
        runs = commands[kind]
        for argv in (runs[n % len(runs)], runs[(n + 3) % len(runs)]):
            argv = [a.replace("{f}", str(path)) for a in argv]
            try:
                code, out, err = _main(*argv)
            except Exception as exc:  # name the input that let it escape
                pytest.fail(f"{argv} on {text!r} raised {exc!r}")
            assert code in (0, 1, 2), (argv, text, err)
            assert not NONFINITE_TOKEN.search(out), (argv, text)
            if code == 0 and (json_out & set(argv) or argv[0] == "scene" and "obj" not in argv):
                json.loads(out, parse_constant=_reject_constant)
            codes.append(code)
    assert len(codes) >= 500 and {0, 1, 2} <= set(codes)
