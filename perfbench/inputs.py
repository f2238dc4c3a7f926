"""Seeded workload inputs, built with numpy alone.

Each workload is a fixed mix of input kinds.  A round holds every kind
in its exact proportion and the order within the round is shuffled by
the seed, so two seeds differ only in the values, never in the amount
of each kind of work.  Candidates that sit within a margin of one of the
package's decision thresholds (rank, live axis, defined metric,
positivity, PPT) are redrawn, so every expected answer is unambiguous.
"""

from __future__ import annotations

import json
import os

import numpy as np

# (kind, count per block); a round is BLOCKS[workload] blocks of the mix.
ANALYZE_MIX = (
    ("rank1", 3),
    ("real_pure", 1),
    ("rank2", 4),
    ("rank3", 4),
    ("near_valid", 2),
    ("near_invalid", 2),
    ("nonpositive", 4),
)
VALID_KINDS = ("rank1", "real_pure", "rank2", "rank3", "near_valid")
BRIDGE_MIX = tuple((k, n) for k, n in ANALYZE_MIX if k in VALID_KINDS)
GENERATORS = tuple(f"{k}:{a}" for k in ("rot", "twist", "counter") for a in "xyz") + ("custom",)
EVOLVE_SAMPLES = 6
EVOLVE_SCENE_EVERY = 4  # one request in four asks for scenes
CLI_EVOLVE_STEPS = 5
CANONICAL = ("mixed", "ket0", "pseudo_boundary")
# Rounds are kept short so that every input repeats often: its fastest repeat
# is its latency sample (metrics.best_of_repeats).
BLOCKS = {"analyze": 5, "bridge": 5, "evolve": 3, "cli": 1}

# The warm-up operation of the set-up probe and of the worker is of a fixed
# kind, so set-up does the same work whatever the seed.
WARMUP_KIND = {"analyze": "rank3", "bridge": "rank3", "evolve": "rot:z", "cli": "analyze_text"}

_SEED_MASK = (1 << 64) - 1  # seeds of any sign map onto numpy's unsigned entropy

# CLI inputs whose expected outcome the program is known not to meet today,
# with the defect and how it shows: exit code and stdout pattern.  They are
# not in the timed round, where every operation must succeed; run.py runs
# each once per cli run, untimed, and prints whether the defect is still
# there (see README.md).
KNOWN_DEFECTS = {
    "nonfinite": ("non-finite state file prints nan and exits 2 instead of exit 1",
                  2, r"\bnan\b"),
}


# ---------------------------------------------------------------------------
# states


def haar_pure(rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return psi / np.linalg.norm(psi)


def _mixture(rng: np.random.Generator, rank: int, floor: float) -> np.ndarray:
    while True:
        w = rng.dirichlet(np.ones(rank))
        if w.min() >= floor:
            break
    rho = sum(wi * np.outer(p, p.conj()) for wi, p in zip(w, (haar_pure(rng) for _ in w)))
    return _normalise(rho)


def _normalise(M: np.ndarray) -> np.ndarray:
    M = (M + M.conj().T) / 2.0
    return M / np.trace(M).real


def random_hermitian(rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return (A + A.conj().T) / 2.0


def _draw_state(kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "rank1":
        psi = haar_pure(rng)
        return np.outer(psi, psi.conj())
    if kind == "real_pure":
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        return np.outer(v, v).astype(complex)
    if kind == "rank2":
        return _mixture(rng, 2, 0.05)
    if kind == "rank3":
        return _mixture(rng, 3, 0.02)
    if kind in ("near_valid", "near_invalid"):
        # a rank-2 state pushed off the boundary along its null vector
        base = _mixture(rng, 2, 0.05)
        null = np.linalg.eigh(base)[1][:, 0]
        delta = 10.0 ** rng.uniform(-7.0, -5.0)
        if kind == "near_invalid":
            delta = -delta
        return _normalise(base + delta * np.outer(null, null.conj()))
    if kind == "nonpositive":
        # criterion-1 style: a state plus a Hermitian perturbation, renormalised
        scale = 10.0 ** rng.uniform(-3.0, 0.0)
        rank = int(rng.integers(1, 4))
        return _normalise(_mixture(rng, rank, 0.05) + scale * random_hermitian(rng))
    raise ValueError(f"unknown state kind {kind!r}")


def _clear_of(x: float, lo: float, hi: float) -> bool:
    """True when |x| is below lo or above hi, i.e. not near a threshold."""
    return abs(x) < lo or abs(x) > hi


def unambiguous(rho: np.ndarray, kind: str) -> bool:
    """No verdict of the package sits close to its threshold for this state."""
    spec = np.linalg.eigvalsh(rho)
    if kind in ("near_invalid", "nonpositive"):
        if spec[0] > -1e-7:
            return False
    elif not all(_clear_of(x, 1e-12, 1e-7) for x in spec) or spec[0] < -1e-12:
        return False
    T = tensor(rho)
    lam = np.linalg.eigvalsh(T)[::-1]
    for j in range(3):
        k, l = [i for i in range(3) if i != j]
        eps = np.sqrt(max((1.0 - lam[k]) * (1.0 - lam[l]), 0.0))
        if not _clear_of(eps, 3e-8, 1e-5):
            return False
    if not _clear_of(np.linalg.det(np.eye(3) - T), 1e-12, 1e-8):
        return False
    if spec[0] >= -1e-12 and not _clear_of(ppt_min_eig(rho), 1e-12, 1e-7):
        return False
    return True


def state(kind: str, rng: np.random.Generator) -> np.ndarray:
    while True:
        rho = _draw_state(kind, rng)
        if unambiguous(rho, kind):
            return rho


# ---------------------------------------------------------------------------
# two-qubit picture, used by inputs and oracles alike

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def bloch(rho: np.ndarray) -> np.ndarray:
    """a_x = 2 Im rho_32, a_y = 2 Im rho_13, a_z = 2 Im rho_21 (0-based below)."""
    return 2.0 * np.array([rho[2, 1].imag, rho[0, 2].imag, rho[1, 0].imag])


def tensor(rho: np.ndarray) -> np.ndarray:
    """The correlation tensor T = 1 - 2 Re(rho)."""
    return np.eye(3) - 2.0 * rho.real


def two_qubit_image(rho: np.ndarray) -> np.ndarray:
    """(1/4)[1 + sum a_j (s_j x 1 + 1 x s_j) + sum T_jk s_j x s_k]."""
    a = bloch(rho)
    T = tensor(rho)
    eye2 = np.eye(2)
    out = np.eye(4, dtype=complex)
    for j in range(3):
        out += a[j] * (np.kron(PAULI[j], eye2) + np.kron(eye2, PAULI[j]))
        for k in range(3):
            out += T[j, k] * np.kron(PAULI[j], PAULI[k])
    return out / 4.0


def partial_transpose(M: np.ndarray) -> np.ndarray:
    return np.einsum("ijkl->ilkj", M.reshape(2, 2, 2, 2)).reshape(4, 4)


def ppt_min_eig(rho: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(two_qubit_image(rho)))[0])


# ---------------------------------------------------------------------------
# workloads


def _round_kinds(mix, blocks: int, rng: np.random.Generator) -> list[str]:
    kinds = [k for k, n in mix for _ in range(n * blocks)]
    order = rng.permutation(len(kinds))
    return [kinds[i] for i in order]


def payload(M: np.ndarray) -> dict:
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def matrix(obj: dict) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _state_inputs(seed: int, stream: int, mix, blocks: int) -> list[dict]:
    rng = np.random.default_rng([seed & _SEED_MASK, stream])
    return [{"kind": k, **payload(state(k, rng))} for k in _round_kinds(mix, blocks, rng)]


def analyze_inputs(seed: int) -> list[dict]:
    return _state_inputs(seed, 1, ANALYZE_MIX, BLOCKS["analyze"])


def bridge_inputs(seed: int) -> list[dict]:
    return _state_inputs(seed, 2, BRIDGE_MIX, BLOCKS["bridge"])


def custom_generator(rng: np.random.Generator) -> np.ndarray:
    H = random_hermitian(rng)
    return H / np.linalg.norm(H, 2)


def evolve_inputs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed & _SEED_MASK, 3])
    requests = []
    for label in [g for _ in range(BLOCKS["evolve"]) for g in GENERATORS]:
        for i in range(EVOLVE_SCENE_EVERY):
            while True:
                rho = _mixture(rng, 3, 0.02)
                if np.linalg.eigvalsh(rho)[0] >= 1e-3:
                    break
            req = {
                "kind": label + ("+scenes" if i == 0 else ""),
                "generator": label,
                "theta": float(rng.uniform(0.5, 2.0 * np.pi)),
                "n": EVOLVE_SAMPLES,
                "scenes": i == 0,
                **payload(rho),
            }
            if label == "custom":
                req["matrix"] = payload(custom_generator(rng))
            requests.append(req)
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


# ---------------------------------------------------------------------------
# cli


def _write_json(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
    return name


def cli_inputs(seed: int, workdir: str, repo_root: str) -> list[dict]:
    """One round of CLI invocations; state files are written into workdir.

    Arguments name files relative to workdir, which is the invocation's
    working directory, so messages and outputs do not depend on where the
    checkout lives.
    """
    rng = np.random.default_rng([seed & _SEED_MASK, 4])
    for name in CANONICAL:
        with open(os.path.join(repo_root, "tests", "data", name + ".json"), "rb") as fh:
            data = fh.read()
        with open(os.path.join(workdir, name + ".json"), "wb") as fh:
            fh.write(data)

    valid = state(str(rng.choice(["rank2", "rank3"])), rng)
    full = _mixture(rng, 3, 0.05)
    bridged = state(str(rng.choice(list(VALID_KINDS))), rng)
    invalid = state("nonpositive", rng)
    f_valid = _write_json(workdir, "valid.json", payload(valid))
    f_full = _write_json(workdir, "full.json", payload(full))
    f_bridge3 = _write_json(workdir, "bridge3.json", payload(bridged))
    f_bridge4 = _write_json(workdir, "bridge4.json", payload(two_qubit_image(bridged)))
    f_invalid = _write_json(workdir, "nonpsd.json", payload(invalid))

    skew = random_hermitian(rng)
    skew[0, 1] += 0.25
    f_nonherm = _write_json(workdir, "nonhermitian.json", payload(_normalise(valid) + skew * 0.1))
    f_trace = _write_json(workdir, "badtrace.json", payload(valid * 1.25))
    nonfinite = payload(valid)
    nonfinite["re"][0][0] = float("nan")
    _write_json(workdir, "nonfinite.json", nonfinite)  # see known_defect_calls

    a, b = haar_pure(rng), haar_pure(rng)
    if rng.random() < 0.5:
        b = b - (a.conj() @ b) * a  # an orthogonal pair half of the time
        b /= np.linalg.norm(b)
    f_a = _write_json(workdir, "pure_a.json", {"amplitudes": [[x.real, x.imag] for x in a]})
    f_b = _write_json(workdir, "pure_b.json", {"amplitudes": [[x.real, x.imag] for x in b]})

    canon = CANONICAL[int(rng.integers(len(CANONICAL)))]
    canon_scene = CANONICAL[int(rng.integers(len(CANONICAL)))]
    basis = int(rng.integers(1, 5))
    direction = rng.normal(size=3)
    ball = direction / np.linalg.norm(direction) * float(rng.uniform(0.0, 0.6))
    gen = GENERATORS[int(rng.integers(len(GENERATORS) - 1))]
    theta = float(rng.uniform(0.5, 6.0))

    calls = [
        ("analyze_text", ["analyze", f_valid], 0, {"rho": payload(valid)}),
        ("analyze_json", ["analyze", f_valid, "--json"], 0, {"rho": payload(valid)}),
        ("analyze_golden", ["analyze", canon + ".json"], 0, {"golden": f"analyze_{canon}.txt"}),
        ("scene_json", ["scene", f_valid], 0, {"rho": payload(valid)}),
        ("scene_golden", ["scene", canon_scene + ".json"], 0,
         {"golden": f"scene_{canon_scene}.json"}),
        ("scene_obj", ["scene", f_full, "--format", "obj", "--lat", "6", "--lon", "10"], 0,
         {"rho": payload(full), "lat": 6, "lon": 10}),
        ("evolve_scenes",
         ["evolve", f_full, "--generator", gen, "--theta", repr(theta),
          "--steps", str(CLI_EVOLVE_STEPS), "--scenes"], 0,
         {"rho": payload(full), "generator": gen, "theta": theta, "n": CLI_EVOLVE_STEPS}),
        ("bridge_to2q", ["bridge", f_bridge3, "--direction", "to2q"], 0,
         {"rho": payload(bridged)}),
        ("bridge_from2q", ["bridge", f_bridge4, "--direction", "from2q"], 0,
         {"rho": payload(bridged)}),
        ("mub_golden", ["mub", "--basis", str(basis), "--vector", "1"], 0,
         {"golden": f"mub_b{basis}_v1.txt"}),
        ("pseudo", ["pseudo", "--ax", repr(float(ball[0])), "--ay", repr(float(ball[1])),
                    "--az", repr(float(ball[2]))], 0, {"a": ball.tolist()}),
        ("ortho", ["ortho", f_a, f_b], 0,
         {"a": [[x.real, x.imag] for x in a], "b": [[x.real, x.imag] for x in b]}),
        ("random", ["random", "--rank", str(int(rng.integers(1, 4))),
                    "--seed", str(int(rng.integers(1 << 30)))], 0, {}),
        ("nonhermitian", ["analyze", f_nonherm], 1, {}),
        ("badtrace", ["analyze", f_trace], 1, {}),
        ("nonpsd", ["analyze", f_invalid], 2, {"rho": payload(invalid)}),
    ]
    out = [{"kind": k, "argv": argv, "expect": code, "check": check}
           for k, argv, code, check in calls]
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def known_defect_calls() -> list[dict]:
    """The KNOWN_DEFECTS invocations, on files cli_inputs wrote."""
    return [{"kind": "nonfinite", "argv": ["analyze", "nonfinite.json"], "expect": 1, "check": {}}]


def warmup(workload: str, items: list[dict]) -> dict:
    return next(item for item in items if item["kind"] == WARMUP_KIND[workload])


def generate(workload: str, seed: int, workdir: str, repo_root: str) -> list[dict]:
    if workload == "analyze":
        return analyze_inputs(seed)
    if workload == "bridge":
        return bridge_inputs(seed)
    if workload == "evolve":
        return evolve_inputs(seed)
    if workload == "cli":
        return cli_inputs(seed, workdir, repo_root)
    raise ValueError(f"unknown workload {workload!r}")
