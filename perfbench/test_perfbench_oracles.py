"""The oracles accept the program's outputs and reject corrupted ones."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import ops  # noqa: E402


def _nudge(text: str, line_prefix: str) -> str:
    """Add 1e-6 to the first number on the named line of a text report."""
    line = next(ln for ln in text.splitlines() if ln.startswith(line_prefix))
    first = line.split()[len(line_prefix.split())]
    return text.replace(line, line.replace(first, format(float(first) + 1e-6, ".12g"), 1), 1)


@pytest.fixture(scope="module")
def analyze_cases():
    return inputs.analyze_inputs(seed=5)


def test_analyze_outputs_pass_and_corruptions_fail(analyze_cases):
    kinds = {item["kind"] for item in analyze_cases}
    assert kinds == {k for k, _ in inputs.ANALYZE_MIX}
    for item in analyze_cases:
        rho = inputs.matrix(item)
        text = ops.analyze(rho)
        assert oracles.check_report_text(rho, text) == [], item["kind"]
        for prefix in ("a:", "tensor eigenvalues:", "semi-axes:"):
            assert oracles.check_report_text(rho, _nudge(text, prefix)), (item["kind"], prefix)
        flipped = (text.replace("validity: ok", "validity: violated: x")
                   if "validity: ok" in text else text.replace("rank: n/a", "rank: 3"))
        assert oracles.check_report_text(rho, flipped)


def test_bridge_round_trip_and_corruption():
    for item in inputs.bridge_inputs(seed=6):
        rho = inputs.matrix(item)
        text = ops.bridge_text(ops.bridge(rho))
        assert oracles.check_bridge(rho, text) == [], item["kind"]
        out = json.loads(text)
        out["rho3"]["re"][0][0] += 1e-9
        assert oracles.check_bridge(rho, json.dumps(out))
        out = json.loads(text)
        out["ppt"] = not out["ppt"]
        assert oracles.check_bridge(rho, json.dumps(out))


def test_trajectory_oracle_rejects_a_wrong_state():
    requests = inputs.evolve_inputs(seed=7)
    plain = next(r for r in requests if not r["scenes"] and r["generator"] == "custom")
    scenes = next(r for r in requests if r["scenes"])
    for req in (plain, scenes):
        text = ops.evolve(ops.prepare("evolve", req))
        assert oracles.check_trajectory(req, text) == []
    records = json.loads(text)
    records[-1]["state"]["im"][0][1] += 1e-8
    assert oracles.check_trajectory(scenes, json.dumps(records))
    records = json.loads(text)
    records[0]["scene"]["semi_axes"][0] *= 1.001
    assert oracles.check_trajectory(scenes, json.dumps(records))


def test_cli_oracle_checks_exit_code_traceback_nan_and_golden(tmp_path):
    calls = inputs.cli_inputs(seed=8, workdir=str(tmp_path), repo_root=ROOT)
    golden_call = next(c for c in calls if c["kind"] == "mub_golden")
    name = golden_call["check"]["golden"]
    with open(os.path.join(ROOT, "tests", "golden", name), "r", encoding="utf-8") as fh:
        goldens = {name: fh.read()}
    good = {"code": 0, "stdout": goldens[name], "stderr": ""}
    assert oracles.check_cli(golden_call, good, goldens) == []
    assert oracles.check_cli(golden_call, {**good, "code": 2}, goldens)
    assert oracles.check_cli(golden_call, {**good, "stderr": "Traceback (most recent"}, goldens)
    assert oracles.check_cli(golden_call, {**good, "stdout": good["stdout"] + " "}, goldens)
    assert oracles.check_cli(golden_call, {**good, "stdout": "a: nan 0 0\n"}, goldens)

    assert all(c["kind"] not in inputs.KNOWN_DEFECTS for c in calls)
    nonfinite = next(c for c in inputs.known_defect_calls() if c["kind"] == "nonfinite")
    assert os.path.exists(tmp_path / nonfinite["argv"][1])
    accepted = {"code": 1, "stdout": "", "stderr": "error: non-finite entry\n"}
    assert oracles.check_cli(nonfinite, accepted, {}) == []
    today = {"code": 2, "stdout": "a: nan nan nan\nvalidity: violated: determinant minor\n",
             "stderr": ""}
    assert oracles.check_cli(nonfinite, today, {})


def test_nan_check_is_a_whole_word():
    assert oracles.NAN_WORD.search("validity: violated: determinant minor negative (c3)") is None
    assert oracles.NAN_WORD.search('[NaN, 0.0]')


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = inputs.analyze_inputs(seed=9)
    b = inputs.analyze_inputs(seed=9)
    c = inputs.analyze_inputs(seed=10)
    assert a == b and a != c
    assert sorted(x["kind"] for x in a) == sorted(x["kind"] for x in c)
    assert np.isfinite(inputs.matrix(a[0])).all()
