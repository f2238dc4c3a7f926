"""Output checks that do not use the package.

Every expected value is recomputed with numpy (LAPACK ``eigvalsh`` /
``eigh``, ``det``, ``kron``) from the formulas of the representation.
Each check returns a list of problems; an empty list means the output
is correct.  Tolerances are fixed here and sit far from the margins the
input generator keeps around every decision threshold.
"""

from __future__ import annotations

import json
import re

import numpy as np

from inputs import SINGLET, bloch, matrix, ppt_min_eig, tensor, two_qubit_image

RANK_TOL = 1e-9  # the package's documented positivity / rank threshold
AXIS_TOL = 1e-7  # documented live-axis threshold
SING_TOL = 1e-10  # documented det(1 - T) threshold of the metric tensor
NUM_TOL = 1e-9  # printed numbers (12 significant digits)
AXIS_NUM_TOL = 1e-7  # semi-axes lose half their digits near a vanished axis
MAT_TOL = 1e-10  # matrices produced by the package

VIOLATIONS = {
    "c1": "diagonal weight outside [0, 1] (c1)",
    "c2": "2x2 principal minor negative (c2)",
    "c3": "determinant minor negative (c3)",
    "spectrum": "negative eigenvalue with all minors inside tolerance (spectrum)",
}
SCENE_OF_CASE = {
    "Full3D": "three_d",
    "Surface3D": "three_d",
    "SegmentInterior": "segment",
    "SegmentEndpoint": "segment",
    "Point": "point",
}
RAYS_OF_SCENE = {"three_d": 0, "segment": 2, "point": 3}
NAN_WORD = re.compile(r"\bnan\b", re.IGNORECASE)


# ---------------------------------------------------------------------------
# expected values


def closed_form_axes(lam: np.ndarray) -> np.ndarray:
    """eps_j = sqrt((1 - lambda_k)(1 - lambda_l)) for descending lambda."""
    out = np.empty(3)
    for j in range(3):
        k, l = [i for i in range(3) if i != j]
        out[j] = np.sqrt(max((1.0 - lam[k]) * (1.0 - lam[l]), 0.0))
    return out


def expected_report(rho: np.ndarray) -> dict:
    T = tensor(rho)
    lam = np.linalg.eigvalsh(T)[::-1]
    a = bloch(rho)
    axes = closed_form_axes(lam)
    d = float(np.linalg.det(np.eye(3) - T))
    spec = np.linalg.eigvalsh(rho)
    valid = bool(spec[0] >= -RANK_TOL)
    exp = {
        "a": a,
        "q": np.array([T[1, 2], T[0, 2], T[0, 1]]),
        "omega": (1.0 - np.diag(T)) / 2.0,
        "T": T,
        "lam": lam,
        "axes": axes,
        "gamma": float(a @ (np.eye(3) - T) @ a) / d if d > SING_TOL else None,
        "metric": (np.eye(3) - T) / d if d > SING_TOL else None,
        "valid": valid,
        "spectrum": spec[::-1],
    }
    if valid:
        rank = int(np.sum(spec > RANK_TOL))
        alive = int(np.sum(axes > AXIS_TOL))
        if rank == 3:
            case = "Full3D"
        elif rank == 2:
            case = "Surface3D" if alive == 3 else "SegmentInterior"
        else:
            case = "Point" if alive == 0 else "SegmentEndpoint"
        exp.update(rank=rank, case=case, scene=SCENE_OF_CASE[case])
    else:
        exp["violation"] = first_violation(T, a)
    return exp


def first_violation(T: np.ndarray, a: np.ndarray) -> str | None:
    """The first clearly broken minor condition, in T's eigenbasis.

    Returns None when a condition lies too close to its slack for the
    verdict to be decided independently of rounding.
    """
    vals, vecs = np.linalg.eigh(T)
    om = (1.0 - vals) / 2.0
    at = vecs.T @ a
    c2 = min(4.0 * om[k] * om[l] - at[j] ** 2 for j, k, l in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
    margins = (
        ("c1", min(float(om.min()), float(1.0 - om.max()))),
        ("c2", float(c2)),
        ("c3", float(4.0 * om[0] * om[1] * om[2] - np.dot(om, at**2))),
    )
    for name, value in margins:
        if value < -10.0 * RANK_TOL:
            return name
        if value < -0.1 * RANK_TOL:
            return None
    return "spectrum"


def generator_matrix(label: str, custom=None) -> np.ndarray:
    """S_j = -i eps_jkl, S_j^2, or A_j = S_k S_l + S_l S_k; or a custom matrix."""
    if label == "custom":
        return matrix(custom)
    eps = np.zeros((3, 3, 3))
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[j, k, l], eps[j, l, k] = 1.0, -1.0
    S = [-1j * eps[j] for j in range(3)]
    kind, axis = label.split(":")
    j = "xyz".index(axis)
    if kind == "rot":
        return S[j]
    if kind == "twist":
        return S[j] @ S[j]
    k, l = ((1, 2), (2, 0), (0, 1))[j]
    return S[k] @ S[l] + S[l] @ S[k]


# ---------------------------------------------------------------------------
# comparisons


def _close(name: str, got, want, tol: float, problems: list[str]) -> None:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape} != {want.shape}")
    elif not np.all(np.isfinite(got)):
        problems.append(f"{name}: non-finite value")
    elif np.max(np.abs(got - want), initial=0.0) > tol * max(1.0, float(np.max(np.abs(want)))):
        problems.append(f"{name}: {got.real.tolist()} differs from {want.real.tolist()}")


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split()]


def check_report_text(rho: np.ndarray, text: str) -> list[str]:
    """The text report that ``analyze`` prints for rho."""
    exp = expected_report(rho)
    problems: list[str] = []
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            return [f"malformed report line {line!r}"]
        fields[key] = value
    expected_keys = ["a", "q", "omega", "tensor eigenvalues", "semi-axes", "gamma-norm",
                     "validity", "rank", "case", "scene"]
    if list(fields) != expected_keys:
        return [f"report keys {list(fields)} != {expected_keys}"]
    try:
        _close("a", _floats(fields["a"]), exp["a"], NUM_TOL, problems)
        _close("q", _floats(fields["q"]), exp["q"], NUM_TOL, problems)
        _close("omega", _floats(fields["omega"]), exp["omega"], NUM_TOL, problems)
        _close("tensor eigenvalues", _floats(fields["tensor eigenvalues"]), exp["lam"],
               NUM_TOL, problems)
        _close("semi-axes", _floats(fields["semi-axes"]), exp["axes"], AXIS_NUM_TOL, problems)
        if exp["gamma"] is None:
            if fields["gamma-norm"] != "degenerate":
                problems.append(f"gamma-norm {fields['gamma-norm']} != degenerate")
        else:
            _close("gamma-norm", [float(fields["gamma-norm"])], [exp["gamma"]], 1e-6, problems)
    except ValueError as exc:
        return [f"unparsable number: {exc}"]
    if exp["valid"]:
        if fields["validity"] != "ok":
            problems.append(f"validity {fields['validity']!r} for a valid state")
        for key, want in (("rank", str(exp["rank"])), ("case", exp["case"]),
                          ("scene", exp["scene"])):
            if fields[key] != want:
                problems.append(f"{key} {fields[key]!r} != {want!r}")
    else:
        reason = fields["validity"].removeprefix("violated: ")
        want = exp["violation"]
        if reason not in VIOLATIONS.values():
            problems.append(f"validity {fields['validity']!r} for an invalid state")
        elif want is not None and reason != VIOLATIONS[want]:
            problems.append(f"violation {reason!r} != {VIOLATIONS[want]!r}")
        for key in ("rank", "case", "scene"):
            if fields[key] != "n/a":
                problems.append(f"{key} {fields[key]!r} != 'n/a' for an invalid state")
    return problems


def check_report_json(rho: np.ndarray, text: str) -> list[str]:
    """The report that ``analyze --json`` prints for rho."""
    exp = expected_report(rho)
    problems: list[str] = []
    try:
        r = json.loads(text)
        p = r["params"]
        _close("a", p["a"], exp["a"], NUM_TOL, problems)
        _close("q", p["q"], exp["q"], NUM_TOL, problems)
        _close("omega", p["omega"], exp["omega"], NUM_TOL, problems)
        _close("tensor", p["tensor"], exp["T"], NUM_TOL, problems)
        _close("tensor_eigenvalues", r["tensor_eigenvalues"], exp["lam"], NUM_TOL, problems)
        _close("semi_axes", r["semi_axes"], exp["axes"], AXIS_NUM_TOL, problems)
        if exp["gamma"] is None:
            if r["gamma_norm"] is not None or r["metric"] != "degenerate":
                problems.append("metric should be degenerate")
        else:
            _close("gamma_norm", [r["gamma_norm"]], [exp["gamma"]], 1e-6, problems)
            _close("metric", r["metric"], exp["metric"], 1e-6, problems)
        if r["validity"]["overall"] != exp["valid"]:
            problems.append(f"overall {r['validity']['overall']} != {exp['valid']}")
        if exp["valid"]:
            rank = r["rank"]
            if (rank["rank"], rank["case"], r["scene_case"]) != (
                exp["rank"], exp["case"], exp["scene"]
            ):
                problems.append(f"rank/case/scene {rank['rank']}/{rank['case']}/"
                                f"{r['scene_case']} != {exp['rank']}/{exp['case']}/{exp['scene']}")
            _close("rank eigenvalues", rank["eigenvalues"], exp["spectrum"], NUM_TOL, problems)
        elif r["rank"] is not None or r["scene_case"] is not None:
            problems.append("invalid state must have no rank and no scene")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed JSON report: {exc!r}"]
    return problems


def check_scene(rho: np.ndarray, s: dict) -> list[str]:
    """A scene payload (schema version 1) for a valid state rho."""
    exp = expected_report(rho)
    problems: list[str] = []
    try:
        if s["version"] != 1 or s["case"] != exp["scene"]:
            problems.append(f"scene version/case {s['version']}/{s['case']} != 1/{exp['scene']}")
        _close("scene semi_axes", s["semi_axes"], exp["axes"], AXIS_NUM_TOL, problems)
        _close("scene bloch", s["bloch"], exp["a"], MAT_TOL, problems)
        F = np.array(s["frame"], dtype=float)
        _close("frame orthonormal", F.T @ F, np.eye(3), 1e-9, problems)
        if exp["scene"] == "three_d":
            _close("frame eigenvectors", exp["T"] @ F, F * exp["lam"], 1e-8, problems)
        if len(s["rays"]) != RAYS_OF_SCENE[exp["scene"]]:
            problems.append(f"{len(s['rays'])} rays for a {exp['scene']} scene")
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed scene: {exc!r}"]
    return problems


def check_scene_obj(rho: np.ndarray, text: str, lat: int, lon: int) -> list[str]:
    exp = expected_report(rho)
    lines = text.splitlines()
    problems: list[str] = []
    head = [ln for ln in lines if ln.startswith("# semi-axes: ")]
    if len(head) != 1:
        return ["missing semi-axes comment"]
    _close("obj semi-axes", _floats(head[0][len("# semi-axes: "):]), exp["axes"],
           AXIS_NUM_TOL, problems)
    if f"# case: {exp['scene']}" not in lines:
        problems.append(f"obj case is not {exp['scene']}")
    verts = sum(ln.startswith("v ") for ln in lines)
    faces = sum(ln.startswith("f ") for ln in lines)
    if exp["scene"] == "three_d" and (verts < lat * lon + 2 or faces != (lat + 1) * lon):
        problems.append(f"mesh has {verts} vertices and {faces} faces")
    return problems


def check_trajectory(req: dict, text: str) -> list[str]:
    """The records ``evolve`` prints, against exp(-i theta G) from numpy eigh."""
    rho0 = matrix(req)
    G = generator_matrix(req["generator"], req.get("matrix"))
    w, V = np.linalg.eigh(G)
    thetas = np.linspace(0.0, float(req["theta"]), int(req["n"]))
    spec0 = np.linalg.eigvalsh(rho0)
    problems: list[str] = []
    try:
        records = json.loads(text)
        if len(records) != len(thetas):
            return [f"{len(records)} records, expected {len(thetas)}"]
        for i, (rec, theta) in enumerate(zip(records, thetas)):
            if abs(rec["theta"] - theta) > 1e-15 * max(1.0, abs(theta)):
                problems.append(f"record {i}: theta {rec['theta']} != {theta}")
            U = (V * np.exp(-1j * theta * w)) @ V.conj().T
            rho = matrix(rec["state"])
            _close(f"record {i} state", rho, U @ rho0 @ U.conj().T, MAT_TOL, problems)
            _close(f"record {i} spectrum", np.linalg.eigvalsh(rho), spec0, MAT_TOL, problems)
            if req["scenes"]:
                problems += [f"record {i}: {p}" for p in check_scene(rho, rec["scene"])]
            elif "scene" in rec:
                problems.append(f"record {i} carries a scene that was not asked for")
            if problems:
                break
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed trajectory: {exc!r}"]
    return problems


def check_bridge(rho: np.ndarray, text: str) -> list[str]:
    """to_two_qubit, ppt_separable and from_two_qubit outputs for rho."""
    problems: list[str] = []
    try:
        out = json.loads(text)
        rho4 = matrix(out["rho4"])
        problems += check_two_qubit(rho, rho4)
        want_ppt = ppt_min_eig(rho) >= -RANK_TOL
        if out["ppt"] is not want_ppt:
            problems.append(f"ppt {out['ppt']} != {want_ppt}")
        _close("round trip", matrix(out["rho3"]), rho, 1e-12, problems)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed bridge output: {exc!r}"]
    return problems


def check_two_qubit(rho: np.ndarray, rho4: np.ndarray) -> list[str]:
    problems: list[str] = []
    _close("two-qubit image", rho4, two_qubit_image(rho), 1e-12, problems)
    overlap = float(np.real(SINGLET.conj() @ rho4 @ SINGLET))
    if abs(overlap) > 1e-12:
        problems.append(f"singlet overlap {overlap:.3e}")
    spec = np.sort(np.concatenate([[0.0], np.linalg.eigvalsh(rho)]))
    _close("two-qubit spectrum", np.linalg.eigvalsh(rho4), spec, 1e-12, problems)
    return problems


# ---------------------------------------------------------------------------
# cli


def _split_json_prefix(stdout: str) -> tuple[dict, str]:
    """An indented JSON object followed by text, as mub/pseudo/random print."""
    end = stdout.index("\n}\n") + 3
    return json.loads(stdout[:end]), stdout[end:]


def _pseudo_density(a) -> np.ndarray:
    ax, ay, az = a
    E = np.array([[0.0, az, -ay], [-az, 0.0, ax], [ay, -ax, 0.0]])
    return ((np.eye(3) - np.eye(3) / 3.0) - 1j * E) / 2.0


def check_cli(call: dict, result: dict, goldens: dict[str, str]) -> list[str]:
    """One CLI invocation: exit code, no traceback, no nan, then its output."""
    out, err, code = result["stdout"], result["stderr"], result["code"]
    problems: list[str] = []
    if code != call["expect"]:
        problems.append(f"exit code {code} != {call['expect']}")
    if "Traceback" in err:
        problems.append("traceback on stderr")
    if NAN_WORD.search(out):
        problems.append("nan on stdout")
    if problems:
        return problems
    kind, check = call["kind"], call["check"]
    try:
        if "golden" in check:
            if out != goldens[check["golden"]]:
                problems.append(f"stdout differs from golden {check['golden']}")
        elif kind in ("analyze_text", "nonpsd"):
            problems += check_report_text(matrix(check["rho"]), out)
        elif kind == "analyze_json":
            problems += check_report_json(matrix(check["rho"]), out)
        elif kind == "scene_json":
            problems += check_scene(matrix(check["rho"]), json.loads(out))
        elif kind == "scene_obj":
            problems += check_scene_obj(matrix(check["rho"]), out, check["lat"], check["lon"])
        elif kind == "evolve_scenes":
            req = {**check["rho"], "generator": check["generator"], "theta": check["theta"],
                   "n": check["n"], "scenes": True}
            problems += check_trajectory(req, out)
        elif kind == "bridge_to2q":
            problems += check_two_qubit(matrix(check["rho"]), matrix(json.loads(out)))
        elif kind == "bridge_from2q":
            _close("from2q", matrix(json.loads(out)), matrix(check["rho"]), 1e-12, problems)
        elif kind == "pseudo":
            density, report = _split_json_prefix(out)
            want = _pseudo_density(check["a"])
            _close("pseudo density", matrix(density), want, 1e-12, problems)
            problems += check_report_text(want, report)
        elif kind == "ortho":
            a = np.array([complex(*p) for p in check["a"]])
            b = np.array([complex(*p) for p in check["b"]])
            modulus = abs(complex(a.conj() @ b))
            verdict = "orthogonal" if modulus < 1e-10 else "not orthogonal"
            want = [f"inner-product modulus: {format(modulus, '.12g')}",
                    f"inner-product verdict: {verdict}", f"rk-condition verdict: {verdict}"]
            lines = out.splitlines()
            if lines[1:] != want[1:] or abs(float(lines[0].split(": ")[1]) - modulus) > NUM_TOL:
                problems.append(f"ortho output {lines} != {want}")
        elif kind == "random":
            density, tail = _split_json_prefix(out)
            rho = matrix(density)
            spec = np.linalg.eigvalsh(rho)
            rank = int(call["argv"][call["argv"].index("--rank") + 1])
            _close("random hermitian", rho, rho.conj().T, 1e-15, problems)
            if abs(np.trace(rho).real - 1.0) > 1e-12 or spec[0] < -RANK_TOL:
                problems.append("random density is not a state")
            if tail != f"rank: {rank}\n" or int(np.sum(spec > RANK_TOL)) != rank:
                problems.append(f"random rank line {tail!r}, requested {rank}")
        elif kind in ("nonhermitian", "badtrace", "nonfinite"):
            if out or not err.startswith("error: "):
                problems.append("rejected input must print only an error message")
        else:
            problems.append(f"no oracle for cli kind {kind!r}")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unparsable output: {exc!r}")
    return problems
