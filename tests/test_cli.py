"""End-to-end tests for the command-line interface.

Golden-file comparisons are byte-level; everything else checks the
documented exit-code contract and output invariants via subprocesses.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qutrit3d import cli, state
from qutrit3d.errors import InternalCheckError

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src", "qutrit3d")
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")

CANONICAL = ("mixed", "ket0", "pseudo_boundary")


def run_cli(*args, env_extra=None, flags=()):
    env = dict(os.environ)
    env.pop("QUTRIT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *flags, "-m", "qutrit3d", *args],
        capture_output=True,
        text=True,
        env=env,
    )


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
    assert run_cli("mub", "--basis", "5", "--vector", "1").returncode == 1
    assert run_cli("mub", "--basis", "0", "--vector", "1").returncode == 1
    assert run_cli("mub", "--basis", "2", "--vector", "4").returncode == 1


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

    coarse = run_cli("scene", data_path("mixed"), "--format", "obj", "--lat", "2")
    assert coarse.returncode == 1


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
    monkeypatch.setattr(cli, "orthogonal", lambda p, q: False)
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

    for rank in (1, 2, 3):
        res = run_cli("random", "--rank", str(rank), "--seed", "1")
        assert res.stdout.rstrip().splitlines()[-1] == f"rank: {rank}"


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.txt"
    res = run_cli("analyze", data_path("mixed"), "--out", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    assert out.read_text() == read_golden("analyze_mixed.txt")


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
# non-finite number must be rejected as a parse failure, exit 1
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


def test_internal_check_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a complex pure state is a segment endpoint, checked for |a| = eps_u;
    # halving eps_u breaks that check
    path = tmp_path / "endpoint.json"
    s = 0.7071067811865476
    path.write_text(json.dumps({"amplitudes": [[s, 0.0], [0.0, s], [0.0, 0.0]]}))
    monkeypatch.setattr(state, "semi_axes", lambda lam: np.array([0.5, 0.0, 0.0]))
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
    assert found == []


def test_analyze_golden_bytes_under_optimize():
    for name in CANONICAL:
        res = run_cli("analyze", data_path(name), flags=("-O",))
        assert res.returncode == 0, res.stderr
        assert res.stdout == read_golden(f"analyze_{name}.txt"), name
