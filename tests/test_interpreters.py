"""The bridge prints the same bytes under every CPython >= 3.10 that can be found.

pyproject.toml declares requires-python >= 3.10, and the interpreter's
own arithmetic can move a last bit: CPython 3.12 made the builtin sum of
floats compensated.  The bridge runs on Python scalars with its sums
written out, so its bytes must not depend on the interpreter.  This
test writes seeded density files and two-qubit files, then runs
``python -m qutrit3d bridge`` on them in both directions under each
other CPython found on PATH or under $PYENV_ROOT/versions, in one child
per interpreter, and requires the exit codes, stdout and stderr of this
interpreter's child.  The children need no numpy: the bridge imports
none.  Amplitude files are not among the inputs: their parse goes
through linalg.vector_norm, a builtin float sum that still differs on
3.12 and later.
"""

import glob
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qutrit3d.spin1 import to_two_qubit
from qutrit3d.state import random_density

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


def _calls(tmp) -> list:
    """bridge argv lists over seeded state files and two-qubit files written to tmp."""
    states = [random_density(1 + i % 3, 2026 + i) for i in range(6)]
    # signed zeros and subnormal coherences, whose halving underflows
    third, z, w = 1.0 / 3.0, complex(-5e-324, 1e-323), complex(-0.0, -5e-324)
    states.append([[third, z, -0.0], [z.conjugate(), third, w], [-0.0, w.conjugate(), third]])
    calls = [["bridge", os.path.join(HERE, "data", "mixed.json"), "--direction", "to2q"]]
    for i, rho in enumerate(states):
        rho4 = to_two_qubit(rho)
        leaky = rho4 + 1e-6 * np.outer([0, 1, -1, 0], [0, 1, -1, 0])  # singlet weight
        calls += [
            ["bridge", _write(os.path.join(tmp, f"rho{i}.json"), rho), "--direction", "to2q"],
            ["bridge", _write(os.path.join(tmp, f"rho4_{i}.json"), rho4), "--direction", "from2q"],
            ["bridge", _write(os.path.join(tmp, f"leak{i}.json"), leaky), "--direction", "from2q"],
        ]
    return calls


def _run(python: str, manifest: str) -> list:
    env = {k: v for k, v in os.environ.items() if k not in ("QUTRIT_SEED", "PYTHONHOME")}
    env["PYTHONPATH"] = SRC
    res = subprocess.run(
        [python, "-c", DRIVER, manifest], capture_output=True, text=True, env=env, timeout=300
    )
    assert res.returncode == 0, (python, res.stderr)
    return json.loads(res.stdout)


def test_bridge_bytes_under_every_cpython(tmp_path):
    others = _other_cpythons()
    if not others:
        pytest.skip("no other CPython >= 3.10 found on PATH or under $PYENV_ROOT/versions")
    manifest = str(tmp_path / "calls.json")
    calls = _calls(str(tmp_path))
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(calls, fh)
    want = _run(sys.executable, manifest)
    assert [code for code, _, _ in want] == [0] + [0, 0, 2] * (len(calls) // 3)
    for python, version in sorted(others.items()):
        got = _run(python, manifest)
        for argv, w, g in zip(calls, want, got):
            assert g == w, (version, python, argv)
