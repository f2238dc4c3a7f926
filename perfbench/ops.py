"""One operation per workload, calling the package through module attributes.

Calls go through ``module.function`` lookups at call time, never through
names bound at import, so the tracer's rebinding sees the benchmark's own
calls into each layer as well as the nested ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from inputs import matrix, payload
from qutrit3d import cli, dynamics, spin1

# json.dumps of the evolve records; the tracer swaps in a traced copy.
render = json.dumps


def prepare(workload: str, item: dict):
    """Turn one generated input into the arguments of its operation."""
    if workload in ("analyze", "bridge"):
        return matrix(item)
    if workload == "evolve":
        custom = matrix(item["matrix"]) if item["generator"] == "custom" else None
        return (matrix(item), item["generator"], custom, item["theta"], item["n"], item["scenes"])
    return item["argv"]


def analyze(rho: np.ndarray) -> str:
    """What ``analyze`` prints: build_report then report_text."""
    return cli.report_text(cli.build_report(rho))


def _generator(label: str, custom):
    if label == "custom":
        return dynamics.custom(custom)
    kind, axis = label.split(":")
    make = {"rot": dynamics.rotation, "twist": dynamics.one_axis_twist,
            "counter": dynamics.two_axis_counter}[kind]
    return make(axis)


def evolve(args) -> str:
    """A trajectory request serialised into the records ``evolve`` prints."""
    rho, label, custom, theta, n, scenes = args
    traj = dynamics.trajectory(rho, _generator(label, custom), theta, n, with_scenes=scenes)
    records = []
    for i, t in enumerate(traj.thetas):
        record = {"theta": float(t), "state": cli.density_payload(traj.states[i])}
        if traj.scenes is not None:
            record["scene"] = cli.scene_to_dict(traj.scenes[i])
        records.append(record)
    return render(records, indent=2) + "\n"


def bridge(rho: np.ndarray):
    rho4 = spin1.to_two_qubit(rho)
    ppt = spin1.ppt_separable(rho)
    return rho4, ppt, spin1.from_two_qubit(rho4)


def bridge_text(result) -> str:
    rho4, ppt, rho3 = result
    return json.dumps({"rho4": payload(rho4), "ppt": ppt, "rho3": payload(rho3)})


def cli_inprocess(argv: list[str], cwd: str) -> dict:
    """cli.main in this process, output captured; used to warm up."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def output_text(workload: str, result) -> str:
    return bridge_text(result) if workload == "bridge" else result
