"""The one way the tests run the CLI: in this process through cli.main, or as a child.

run_cli calls cli.main in process unless an interpreter flag is given;
run_child starts `python -m qutrit3d`, for the tests of what a process
adds: the entry point, -O, a fresh sys.modules and interpreter exit.
Both return what subprocess.run returns.
"""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from unittest import mock

from qutrit3d import cli


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
