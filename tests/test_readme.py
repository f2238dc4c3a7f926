"""The README's library quick start runs, and it names the whole top level.

The top-level package exports exactly the names the quick start imports;
everything else is imported from its own module, so the README and the
public API cannot drift apart.
"""

import ast
import os
import re
import subprocess
import sys
import types

import qutrit3d

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_start() -> str:
    with open(os.path.join(ROOT, "README.md"), "r", encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-W", "error", "-c", quick_start()],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    # the values the block's comments promise
    assert res.stdout.splitlines()[:2] == ["True", "Full3D"]


def test_top_level_names_are_the_quick_start_imports():
    """The names resolve lazily (PEP 562), so __all__ and dir() list them, not vars()."""
    imported = set()
    for node in ast.walk(ast.parse(quick_start())):
        if isinstance(node, ast.ImportFrom) and node.module == "qutrit3d":
            imported.update(alias.name for alias in node.names)
    assert set(qutrit3d.__all__) == imported
    public = {
        name
        for name in dir(qutrit3d)
        if not name.startswith("_") and not isinstance(getattr(qutrit3d, name), types.ModuleType)
    }
    assert public == imported
    for name in imported:
        value = getattr(qutrit3d, name)
        assert vars(sys.modules[value.__module__])[name] is value, name
