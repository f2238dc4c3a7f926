"""The numpy-free CLI prints the same bytes under every CPython >= 3.10 that can be found.

pyproject.toml declares requires-python >= 3.10, and the interpreter's
own arithmetic can move a last bit: CPython 3.12 made the builtin sum of
floats compensated.  Every float sum on the output path is written out
in a fixed order (linalg._sum), so the bytes must not depend on the
interpreter.  The tests write seeded density, amplitude and two-qubit
files, then run ``python -m qutrit3d`` on them under each other CPython
found on PATH or under $PYENV_ROOT/versions, in one child per
interpreter, and require the exit codes, stdout and stderr of this
interpreter's child: ``bridge`` in both directions, and ``analyze``
(text and --json, of amplitude and density files), ``mub``, ``ortho``,
``scene --format obj`` and ``evolve --scenes``.  The amplitude files include seeds whose parse
printed other bytes under 3.12 while vector_norm called the builtin
sum.  The children need no numpy: none of these commands imports it.
The verdict (linalg._verdict), which no CLI command runs on a partial
transpose, rests on CPython's complex-by-float arithmetic, so a child
under each interpreter also returns its full answers on seeded rows: the
certificate's, and the Jacobi fallback's eigenvalues in its band.
"""

import functools
import glob
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qutrit3d.linalg import _partial_transpose, _verdict
from qutrit3d.spin1 import _to_two_qubit, to_two_qubit
from qutrit3d.state import random_density
from qutrit3d.tolerances import RANK_TOL

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# runs each argv of the JSON file argv[1] as `python -m qutrit3d` does, in this process,
# and prints [exit code, stdout, stderr] per call
DRIVER = """
import contextlib, io, json, runpy, sys
results = []
for argv in json.load(open(sys.argv[1], encoding="utf-8")):
    sys.argv = ["qutrit3d", *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("qutrit3d", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""
# prints the _verdict answers, unranked and for 3x3 ranked, for the [re, im] rows of the
# JSON file argv[1], without numpy
VERDICTS = """
import json, sys
from qutrit3d.linalg import _verdict
rows = [[[complex(*x) for x in row] for row in M] for M in json.load(open(sys.argv[1]))]
print(json.dumps([[_verdict(M, r) for r in ((False, True) if len(M) == 3 else (False,))]
                  for M in rows]))
"""
PROBE = (
    "import os, sys; "
    "print(sys.implementation.name, *sys.version_info[:2], os.path.realpath(sys.executable))"
)
NAME = re.compile(r"python3(\.\d+)?$")


def _candidates() -> list:
    """python3 and python3.N on PATH, then $PYENV_ROOT/versions/*/bin/python3, one per real path.

    pyenv's shims are skipped: each runs one of the interpreters under
    versions/, which are probed directly.
    """
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    shims = os.path.realpath(os.path.join(root, "shims"))
    found = []
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isdir(folder) and os.path.realpath(folder) != shims:
            found += sorted(os.path.join(folder, f) for f in os.listdir(folder) if NAME.match(f))
    found += sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3")))
    unique = {}
    for path in found:
        unique.setdefault(os.path.realpath(path), path)
    return list(unique.values())


@functools.lru_cache(maxsize=None)
def _other_cpythons() -> dict:
    """{real path: "3.N"} of every CPython >= 3.10 that runs, this one left out.

    Each candidate is probed with -c, and one that fails to run is dropped.
    """
    seen, found = {os.path.realpath(sys.executable)}, {}
    for path in _candidates():
        try:
            res = subprocess.run([path, "-c", PROBE], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = res.stdout.split(maxsplit=3)
        if res.returncode != 0 or len(fields) != 4 or fields[0] != "cpython":
            continue
        major, minor, real = int(fields[1]), int(fields[2]), fields[3].strip()
        if (major, minor) >= (3, 10) and real not in seen:
            seen.add(real)
            found[real] = f"{major}.{minor}"
    return found


def _write(path: str, M) -> str:
    M = np.asarray(M, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"re": M.real.tolist(), "im": M.imag.tolist()}, fh)
    return path


def _write_pure(path: str, psi) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"amplitudes": [[z.real, z.imag] for z in np.asarray(psi).tolist()]}, fh)
    return path


def _haar(seed: int):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return psi / np.linalg.norm(psi)


def _densities(tmp) -> list:
    """(path, analyze's exit code) of 20 seeded density files written to tmp.

    Ranks 1-3, real pure states (a double eigenvalue 1 of T), 1/3 1 (a
    triple one) and non-positive matrices, which analyze reports with exit 2.
    """
    rng = np.random.default_rng(2525)
    found = [(random_density(1 + i % 3, 500 + i), 0) for i in range(15)]
    for v in ([1.0, 2.0, -2.0], rng.standard_normal(3)):
        v = np.asarray(v) / np.linalg.norm(v)
        found.append((np.outer(v, v), 0))
    found.append((np.eye(3) / 3.0, 0))
    for low in (-0.1, -1e-6):
        Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        M = (Q * [0.7, 0.3 - low, low]) @ Q.conj().T
        found.append(((M + M.conj().T) / 2.0, 2))
    return [(_write(os.path.join(tmp, f"density{i}.json"), M), code)
            for i, (M, code) in enumerate(found)]


def _cli_calls(tmp) -> list:
    """(argv, exit code) of the numpy-free commands over seeded files written to tmp.

    Amplitude seeds 0-29 include 21, 23 and 27, whose analyze output moved
    under 3.12 while vector_norm summed with the builtin sum.  The density
    files reach the validity minors and the metric norm of states of every
    rank and of non-positive matrices.
    """
    amps = [_write_pure(os.path.join(tmp, f"amp{s}.json"), _haar(s)) for s in range(30)]
    basis = [_write_pure(os.path.join(tmp, f"e{k}.json"), np.eye(3)[k]) for k in range(3)]
    states = [_write(os.path.join(tmp, f"state{i}.json"), random_density(1 + i % 3, 77 + i))
              for i in range(3)]
    data = [os.path.join(HERE, "data", f"{name}.json") for name in ("mixed", "ket0",
                                                                    "pseudo_boundary")]
    calls = [(["analyze", path, *flag], 0) for path in amps + data for flag in ([], ["--json"])]
    calls += [(["analyze", path, *flag], code) for path, code in _densities(tmp)
              for flag in ([], ["--json"])]
    calls += [(["mub", "--basis", str(b), "--vector", str(v)], 0)
              for b in range(1, 5) for v in range(1, 4)]
    calls += [(["ortho", amps[i], amps[i + 1]], 0) for i in range(0, 10, 2)]
    calls += [(["ortho", basis[0], basis[1]], 0), (["ortho", basis[2], amps[0]], 0)]
    calls += [(["scene", path, "--format", "obj"], 0) for path in amps[:8] + states + data]
    evolve = ["--theta", "1.3", "--steps", "4", "--scenes"]
    calls += [(["evolve", path, "--generator", gen, *evolve], 0)
              for path in states + amps[20:28:2] for gen in ("twist:x", "counter:y", "rot:z")]
    return calls


def _bridge_calls(tmp) -> list:
    """(argv, exit code) of bridge over seeded state files and two-qubit files written to tmp."""
    states = [random_density(1 + i % 3, 2026 + i) for i in range(6)]
    # signed zeros and subnormal coherences, whose halving underflows
    third, z, w = 1.0 / 3.0, complex(-5e-324, 1e-323), complex(-0.0, -5e-324)
    states.append([[third, z, -0.0], [z.conjugate(), third, w], [-0.0, w.conjugate(), third]])
    calls = [(["bridge", os.path.join(HERE, "data", "mixed.json"), "--direction", "to2q"], 0)]
    for i, rho in enumerate(states):
        rho4 = to_two_qubit(rho)
        leaky = rho4 + 1e-6 * np.outer([0, 1, -1, 0], [0, 1, -1, 0])  # singlet weight
        calls += [
            (["bridge", _write(os.path.join(tmp, f"rho{i}.json"), rho), "--direction", "to2q"], 0),
            (["bridge", _write(os.path.join(tmp, f"rho4_{i}.json"), rho4), "--direction",
              "from2q"], 0),
            (["bridge", _write(os.path.join(tmp, f"leak{i}.json"), leaky), "--direction",
              "from2q"], 2),
        ]
    return calls


def _certificate_rows() -> list:
    """Seeded 3x3 and 4x4 rows around lambda_min = -RANK_TOL, and bridge partial transposes.

    The near ones are Q diag(lam) Q^dag with lam_min = -RANK_TOL +- 10^U(-13, -6),
    in both triangles, half of them moved off Hermitian by up to 10^-11 per entry.
    """
    rng = np.random.default_rng(2424)
    found = []
    for i in range(240):
        n = 3 + i % 2
        lam = rng.dirichlet(np.ones(n - 1)).tolist()
        lam.append(-RANK_TOL + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13.0, -6.0))
        lam[0] -= lam[-1]
        Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        M = (Q * lam) @ Q.conj().T
        if i % 4 >= 2:
            M = M + 1e-11 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        found.append(M.tolist())
    for i in range(60):
        rho = random_density(1 + i % 3, 3000 + i).tolist()
        found += [rho, _partial_transpose(_to_two_qubit(rho))]
    return found


def _run(python: str, manifest: str, script: str = DRIVER) -> list:
    env = {k: v for k, v in os.environ.items() if k not in ("QUTRIT_SEED", "PYTHONHOME")}
    env["PYTHONPATH"] = SRC
    res = subprocess.run(
        [python, "-c", script, manifest], capture_output=True, text=True, env=env, timeout=300
    )
    assert res.returncode == 0, (python, res.stderr)
    return json.loads(res.stdout)


def _same_under_every_cpython(tmp_path, calls: list) -> None:
    """Each other CPython's child prints this one's exit codes, stdout and stderr for calls."""
    others = _other_cpythons()
    if not others:
        pytest.skip("no other CPython >= 3.10 found on PATH or under $PYENV_ROOT/versions")
    manifest = str(tmp_path / "calls.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump([argv for argv, _ in calls], fh)
    want = _run(sys.executable, manifest)
    assert [code for code, _, _ in want] == [code for _, code in calls]
    for python, version in sorted(others.items()):
        got = _run(python, manifest)
        for (argv, _), w, g in zip(calls, want, got):
            assert g == w, (version, python, argv)


def test_numpy_free_cli_bytes_under_every_cpython(tmp_path):
    _same_under_every_cpython(tmp_path, _cli_calls(str(tmp_path)))


def test_bridge_bytes_under_every_cpython(tmp_path):
    _same_under_every_cpython(tmp_path, _bridge_calls(str(tmp_path)))


def test_certificate_verdicts_under_every_cpython(tmp_path):
    """Each other CPython's numpy-free child gives this one's _verdict answers, values and all."""
    others = _other_cpythons()
    if not others:
        pytest.skip("no other CPython >= 3.10 found on PATH or under $PYENV_ROOT/versions")
    rows = _certificate_rows()
    path = str(tmp_path / "rows.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[[[x.real, x.imag] for x in row] for row in M] for M in rows], fh)
    want = json.loads(json.dumps(
        [[_verdict(M, r) for r in ((False, True) if len(M) == 3 else (False,))] for M in rows]))
    # proven and Jacobi-decided verdicts, both ways, and proven ranks
    kinds = {(positive, rank, values is None) for answers in want
             for positive, rank, values in answers}
    assert {(True, None, True), (False, None, True), (True, None, False), (False, None, False),
            (True, 1, True), (True, 2, True), (True, 3, True)} <= kinds, kinds
    assert _run(sys.executable, path, VERDICTS) == want
    for python, version in sorted(others.items()):
        assert _run(python, path, VERDICTS) == want, (version, python)
