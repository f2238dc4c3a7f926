"""Every command runs on Python scalars, and every command but random never imports numpy.

analyze (text and JSON, of density and amplitude files, including their
parse failures and the exit-2 report of a matrix that is not positive),
scene as JSON and as an OBJ mesh, bridge in both directions, pseudo,
mub, ortho and evolve (with a canonical or a custom generator, with
scenes, and on its exit-1 errors) read the library's scalar records, so
numpy must not be in sys.modules when they exit, under python -O as
well.  random takes its draws from numpy's generator and loads it: it is
the control that the probe sees an import.  A lint keeps numpy out of the module level of
the modules on that path, and another keeps the modules of single commands out of cli's,
and geometry out of dynamics': only scene and evolve --scenes load geometry.  The records
are plain classes: no command loads dataclasses, and no numpy-free command loads inspect
(numpy imports it).
"""

import ast
import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "qutrit3d")

# the modules that the numpy-free commands import
SCALAR_MODULES = (
    "__init__", "errors", "tolerances", "linalg", "state", "geometry", "spin1", "dynamics",
    "purestates", "cli",
)


def _payload(M):
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The state files of the commands, written once."""
    from qutrit3d.spin1 import to_two_qubit
    from qutrit3d.state import random_density

    tmp = tmp_path_factory.mktemp("states")
    rng = np.random.default_rng(1101)
    valid = random_density(3, rng)
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 0.025
    nonfinite = _payload(valid)
    nonfinite["re"][0][0] = float("nan")
    payloads = {
        "valid": _payload(valid),
        "two_qubit": _payload(to_two_qubit(valid)),
        "nonhermitian": _payload(valid + skew),
        "badtrace": _payload(1.25 * valid),
        "nonpsd": _payload(np.diag([0.8, 0.8, -0.6]).astype(complex)),
        "nonfinite": nonfinite,
        "pure_a": {"amplitudes": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]},
        "pure_b": {"amplitudes": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
        "pure_unnormalised": {"amplitudes": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.1]]},
        "generator": _payload(np.array([[1.0, 0.5j, 0.0], [-0.5j, 0.0, 0.25], [0.0, 0.25, -1.0]])),
        "big_generator": _payload(np.diag([2.0, 0.0, -2.0])),
    }
    out = {}
    for name, payload in payloads.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(payload))
        out[name] = str(path)
    return out


# (argv with {name} for a file, exit code)
NUMPY_FREE = {
    "analyze_text": (["analyze", "{valid}"], 0),
    "analyze_json": (["analyze", "{valid}", "--json"], 0),
    "scene_json": (["scene", "{valid}"], 0),
    "bridge_to2q": (["bridge", "{valid}", "--direction", "to2q"], 0),
    "bridge_from2q": (["bridge", "{two_qubit}", "--direction", "from2q"], 0),
    "pseudo": (["pseudo", "--ax", "0.3", "--ay", "-0.0", "--az", "-0.2"], 0),
    "nonhermitian": (["analyze", "{nonhermitian}"], 1),
    "badtrace": (["analyze", "{badtrace}"], 1),
    "nonpsd": (["analyze", "{nonpsd}"], 2),
    "nonfinite": (["analyze", "{nonfinite}"], 1),
    "evolve": (["evolve", "{valid}", "--generator", "twist:x", "--theta", "1", "--steps", "3"], 0),
    "evolve_scenes": (
        ["evolve", "{valid}", "--generator", "rot:y", "--theta", "1", "--steps", "3", "--scenes"],
        0,
    ),
    "evolve_custom": (
        ["evolve", "{valid}", "--generator", "custom:{generator}", "--theta", "1", "--steps", "3"],
        0,
    ),
    "evolve_one_step": (
        ["evolve", "{valid}", "--generator", "rot:x", "--theta", "1", "--steps", "1"], 1
    ),
    # theta * max|eigenvalue| = 2e308 is not a finite float
    "evolve_overflow": (
        ["evolve", "{valid}", "--generator", "custom:{big_generator}", "--theta", "1e308"], 1
    ),
    "mub": (["mub", "--basis", "2", "--vector", "1"], 0),
    "ortho": (["ortho", "{pure_a}", "{pure_b}"], 0),
    "scene_obj": (["scene", "{valid}", "--format", "obj"], 0),
    "amplitudes": (["analyze", "{pure_a}"], 0),
    "amplitudes_unnormalised": (["analyze", "{pure_unnormalised}"], 1),
}
WITH_NUMPY = {
    "random": (["random", "--seed", "3"], 0),
}


# runs ARGV as python -m runs a module, and prints the modules loaded when the process exits
_PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: print("MODULES " + json.dumps(sorted(sys.modules)), file=sys.stderr))
module, sys.argv = sys.argv[1], sys.argv[1:]
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""


def _imports(flags, module, argv, files, path=None):
    """(exit code, stderr, modules loaded at exit) of ``python -m module argv`` in a child.

    One child per (flags, module, formatted argv, path), cached: the
    commands that several tests ask about run once.
    """
    return _child(tuple(flags), module, tuple(a.format(**files) for a in argv), path)


@functools.cache
def _child(flags, module, argv, path):
    env = dict(os.environ)
    env.pop("QUTRIT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [path, os.path.dirname(SRC), env.get("PYTHONPATH")])
    )
    res = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE, module, *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    err, _, loaded = res.stderr.rpartition("MODULES ")
    return res.returncode, err, frozenset(json.loads(loaded))


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_scalar_commands_do_not_import_numpy(case, flags, files):
    argv, code = NUMPY_FREE[case]
    got, err, names = _imports(flags, "qutrit3d", argv, files)
    assert got == code, err
    assert "Traceback" not in err
    assert "qutrit3d.cli" in names
    assert not {"numpy", "dataclasses", "inspect"} & names


@pytest.mark.parametrize("case", sorted(WITH_NUMPY))
def test_numpy_commands_import_it(case, files):
    argv, code = WITH_NUMPY[case]
    got, err, names = _imports((), "qutrit3d", argv, files)
    assert got == code, err
    assert "numpy" in names and "dataclasses" not in names


def test_only_bridge_loads_spin1(files):
    """analyze never compiles the spin-1 module; bridge, its one command, does."""
    for case, loaded in (("analyze_text", False), ("bridge_to2q", True)):
        argv, code = NUMPY_FREE[case]
        got, err, names = _imports((), "qutrit3d", argv, files)
        assert got == code, err
        assert ("qutrit3d.spin1" in names) == loaded, case


def test_only_scene_commands_load_geometry(files):
    """The report's scene case is state's: only scene and evolve --scenes load geometry."""
    commands = {**NUMPY_FREE, **WITH_NUMPY}
    for case in ("analyze_text", "analyze_json", "pseudo", "mub", "ortho", "bridge_to2q",
                 "random", "evolve", "scene_json", "evolve_scenes"):
        argv, code = commands[case]
        got, err, names = _imports((), "qutrit3d", argv, files)
        assert got == code, err
        assert ("qutrit3d.geometry" in names) == (case in ("scene_json", "evolve_scenes")), case


def test_cli_scene_to_dict_is_geometrys():
    """cli.scene_to_dict resolves to geometry's on first read; other missing names raise."""
    from qutrit3d import cli, geometry

    assert cli.scene_to_dict is geometry.scene_to_dict
    with pytest.raises(AttributeError, match="no attribute 'export_scene_obj'"):
        cli.export_scene_obj


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_package_import_loads_no_numpy(flags, files, tmp_path):
    # a module that imports the package and resolves one quick-start name
    (tmp_path / "uses_qutrit3d.py").write_text("import qutrit3d\nqutrit3d.analyse\n")
    code, err, names = _imports(flags, "uses_qutrit3d", [], files, path=str(tmp_path))
    assert code == 0, err
    assert "qutrit3d.state" in names
    assert not {"numpy", "qutrit3d.dynamics", "qutrit3d.purestates"} & names


def _module_level_imports(tree):
    """Names imported by statements that run when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # ".geometry" for from .geometry import x
            base = "." * node.level + (node.module or "")
            yield from [base] if node.module else (base + alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def _module_level(name: str) -> set:
    with open(os.path.join(SRC, name), "r", encoding="utf-8") as fh:
        return set(_module_level_imports(ast.parse(fh.read(), filename=name)))


def test_no_module_level_numpy_import():
    found = [
        f"{name}.py: {imported}"
        for name in SCALAR_MODULES
        for imported in _module_level(f"{name}.py")
        if imported in ("numpy", "dataclasses") or imported.startswith("numpy.")
    ]
    assert found == []


def test_cli_imports_command_modules_in_their_commands():
    """cli loads geometry, dynamics, spin1 and purestates inside the commands that run them,
    and dynamics loads geometry inside the functions that draw scenes."""
    imported = _module_level("cli.py")
    assert imported & {".geometry", ".dynamics", ".spin1", ".purestates"} == set()
    assert ".state" in imported  # the lint reads relative imports
    imported = _module_level("dynamics.py")
    assert ".geometry" not in imported and ".state" in imported
