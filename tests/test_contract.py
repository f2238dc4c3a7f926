"""The CLI contract as a seeded property test, in process through test_cli.run_cli.

Finite input exits 0, 1 or 2.  stderr is empty or exactly one `error:`
line, and an exit-1 line names the file when the command read one.
stdout (or the --out file) holds no nan or inf, and a second run prints
the same bytes.  The inputs are seeded families at the package's
thresholds: near double roots of Re rho, near the maximally mixed state,
lambda_min at -RANK_TOL, tiny, subnormal and signed-zero entries, the
Point and segment thresholds of the geometry case, near-degenerate custom
generators, the pseudo-qubit ball's edge, perturbed two-qubit images,
amplitudes near 1e-155 and pairs at ORTHO_TOL, over every command and flag.
"""

import json

import numpy as np
import pytest

from qutrit3d import spin1
from qutrit3d.tolerances import ORTHO_TOL, RANK_TOL
from test_analysis import BOUNDARY_FAMILIES
from test_cli import NONFINITE_TOKEN, STRADDLING_PAIR, run_cli

GENERATORS = [f"{kind}:{axis}" for kind in ("rot", "twist", "counter") for axis in "xyz"]


def _unitary(rng):
    return np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]


def _rotation(rng):
    return np.linalg.qr(rng.standard_normal((3, 3)))[0]


def _near_double_root(rng):
    """Re rho = R diag(p, p + gap, 1 - 2p - gap) R^T, gap in 1e-17..1e-6, real or complex."""
    p, gap = rng.uniform(0.05, 0.45), 10.0 ** rng.uniform(-17.0, -6.0)
    R = _rotation(rng)
    rho = (R * [p, p + gap, 1.0 - 2.0 * p - gap]) @ R.T
    if rng.random() < 0.5:
        X = rng.standard_normal((3, 3))
        rho = rho + 1j * 0.1 * min(p, 1.0 - 2.0 * p) * (X - X.T) / np.abs(X - X.T).max()
    return rho.astype(complex)


def _near_mixed(rng):
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = (X + X.conj().T) / 2.0
    return np.eye(3) / 3.0 + 10.0 ** rng.uniform(-14.0, -3.0) * (H - np.trace(H) / 3.0 * np.eye(3))


def _rank2_equal_weights(rng):
    U = _unitary(rng) if rng.random() < 0.5 else _rotation(rng).astype(complex)
    return (U * [0.5, 0.5, 0.0]) @ U.conj().T


def _lambda_min_at_rank_tol(rng):
    """Spectrum (w, 1 - w + r, -r) with r within 1e-6, relative, of RANK_TOL."""
    r, w = RANK_TOL * (1.0 + rng.uniform(-1e-6, 1e-6)), rng.uniform(0.1, 0.9)
    U = _unitary(rng)
    return (U * [w, 1.0 - w + r, -r]) @ U.conj().T


def _tiny_off_diagonals(rng):
    p = rng.dirichlet(np.ones(3))
    X = 10.0 ** rng.uniform(-300.0, -12.0, (3, 3)) * np.exp(2j * np.pi * rng.random((3, 3)))
    return np.diag(p).astype(complex) + np.triu(X, 1) + np.triu(X, 1).conj().T


def _subnormal_and_signed_zero(rng):
    p = [0.5, 0.5, 0.0] if rng.random() < 0.5 else [1.0, 0.0, 0.0]
    rho = np.diag(p).astype(complex)
    i, j = sorted(rng.choice(3, 2, replace=False))
    z = complex(5e-324 * rng.choice([-1.0, 1.0]), -0.0)
    rho[i, j], rho[j, i] = z, z.conjugate()
    rho[2, 2] = complex(-0.0, -0.0)
    return rho


STATE_FAMILIES = {
    "near_double_root": _near_double_root,
    "near_mixed": _near_mixed,
    "rank2_equal_weights": _rank2_equal_weights,
    "lambda_min_at_rank_tol": _lambda_min_at_rank_tol,
    "tiny_off_diagonals": _tiny_off_diagonals,
    "subnormal_and_signed_zero": _subnormal_and_signed_zero,
    # the Point and segment cases at their thresholds, where the self-checks once failed
    **{name: BOUNDARY_FAMILIES[name][0] for name in (
        "point_threshold", "shifted_point_threshold", "shifted_segment_off_axis",
        "real_endpoint_threshold")},
}


def _state_commands(rng, f, o):
    """Every command and flag that reads one state file f; o is an --out path."""
    g = GENERATORS[int(rng.integers(len(GENERATORS)))]
    theta = repr(float(rng.choice([0.7, -3.0, 1e3, 1e6])))
    return [
        ["analyze", f],
        ["analyze", "--json", f, "--out", o],
        ["scene", f],
        ["scene", f, "--format", "obj", "--lat", "4", "--lon", "8"],
        ["scene", f, "--format", "obj", "--lat", "4", "--lon", "8", "--surface-only"],
        ["bridge", f, "--direction", "to2q"],
        ["evolve", f, "--generator", g, "--theta", theta, "--steps", "3"],
        ["evolve", f, "--generator", g, "--theta", theta, "--steps", "3", "--scenes"],
    ]


def _write(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _density(path, M) -> str:
    return _write(path, {"re": np.real(M).tolist(), "im": np.imag(M).tolist()})


def _amplitudes(path, psi) -> str:
    return _write(path, {"amplitudes": [[c.real, c.imag] for c in np.asarray(psi).tolist()]})


def _check(argv, out_file, env=None):
    """Run argv twice: the contract on the first run, the same bytes on the second; --out is stdout."""
    runs = []
    for _ in range(2):
        if out_file.exists():
            out_file.unlink()
        res = run_cli(*argv, env_extra=env)
        out = res.stdout
        if str(out_file) in argv and out_file.exists():
            out += out_file.read_text()
        runs.append((res.returncode, out, res.stderr))
    code, out, err = runs[0]
    assert code in (0, 1, 2), (argv, err)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (argv, err)
    files = [a.split(":", 1)[-1] for a in argv if a.endswith(".json")]
    if code == 1 and files:
        assert any(f in err for f in files), (argv, err)
    assert not NONFINITE_TOKEN.search(out), argv
    assert runs[1] == runs[0], argv
    return code


@pytest.mark.parametrize("family", sorted(STATE_FAMILIES))
def test_state_families_keep_the_contract(family, tmp_path):
    rng = np.random.default_rng([20261021, sorted(STATE_FAMILIES).index(family)])
    out = tmp_path / "out.txt"
    for i in range(4):
        f = _density(tmp_path / f"{i}.json", STATE_FAMILIES[family](rng))
        for argv in _state_commands(rng, f, str(out)):
            _check(argv, out)


def test_custom_generators_with_near_degenerate_spectra(tmp_path):
    """G = U diag(l, l + gap, m) U^dag, gap 1e-17..1e-6, |theta| <= 1e3, with and without scenes."""
    rng = np.random.default_rng(202610211)
    out = tmp_path / "out.txt"
    states = [_density(tmp_path / f"s{i}.json", STATE_FAMILIES[name](rng))
              for i, name in enumerate(("near_mixed", "point_threshold", "rank2_equal_weights"))]
    for i in range(8):
        lam, mu = rng.uniform(-3.0, 3.0, 2)
        U = _unitary(rng)
        G = (U * [lam, lam + 10.0 ** rng.uniform(-17.0, -6.0), mu]) @ U.conj().T
        g = _density(tmp_path / f"g{i}.json", G)
        theta = repr(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)))
        argv = ["evolve", states[i % 3], "--generator", f"custom:{g}", "--theta", theta,
                "--steps", str(2 + i % 3)] + ["--scenes"] * (i % 2)
        _check(argv + ["--out", str(out)] * (i % 3 == 0), out)


def test_pseudo_at_the_edge_of_the_ball(tmp_path):
    """|a| = 2/3 (1 +- eps): exit 0 inside, 2 outside, never 3."""
    rng = np.random.default_rng(202610212)
    out = tmp_path / "out.txt"
    codes = set()
    for i in range(16):
        n = rng.standard_normal(3)
        eps = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -4.0)
        a = (2.0 / 3.0) * (1.0 + eps) * n / np.linalg.norm(n)
        ax, ay, az = (repr(x) for x in a.tolist())
        argv = ["pseudo", "--ax", ax, "--ay", ay, "--az", az]
        codes.add(_check(argv + ["--out", str(out)] * (i % 4 == 0), out))
    assert codes == {0, 2}


def test_from2q_of_perturbed_symmetric_states(tmp_path):
    rng = np.random.default_rng(202610213)
    out = tmp_path / "out.txt"
    for i in range(12):
        rho4 = spin1.to_two_qubit(STATE_FAMILIES["near_double_root"](rng))
        X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho4 = rho4 + 10.0 ** rng.uniform(-16.0, -9.0) * (X + X.conj().T)
        argv = ["bridge", _density(tmp_path / f"{i}.json", rho4), "--direction", "from2q"]
        _check(argv + ["--out", str(out)] * (i % 2), out)


def test_amplitudes_near_1e_155_and_pairs_at_ortho_tol(tmp_path):
    """Tiny components, and ortho on pairs with |<a|b>| at ORTHO_TOL: some verdicts straddle it."""
    rng = np.random.default_rng(202610214)
    out = tmp_path / "out.txt"
    for i in range(4):
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        psi[1:] = 10.0 ** rng.uniform(-156.0, -154.0, 2) * np.exp(2j * np.pi * rng.random(2))
        f = _amplitudes(tmp_path / f"tiny{i}.json", np.roll(psi, i))
        for argv in _state_commands(rng, f, str(out))[::2] + [["ortho", f, f]]:
            _check(argv, out)
    pairs = [tuple(np.array([complex(*c) for c in psi]) for psi in STRADDLING_PAIR)]
    for _ in range(40):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v -= np.vdot(u, v) * u
        v /= np.linalg.norm(v)
        t = ORTHO_TOL * (1.0 + rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -6.0))
        pairs.append((u, np.sqrt(1.0 - t * t) * v + t * np.exp(2j * np.pi * rng.random()) * u))
    for i, (u, w) in enumerate(pairs):
        a, b = _amplitudes(tmp_path / f"a{i}.json", u), _amplitudes(tmp_path / f"b{i}.json", w)
        _check(["ortho", a, b], out)


def test_mub_and_random_over_their_flags(tmp_path):
    out = tmp_path / "out.txt"
    for basis in range(1, 5):
        for vector in range(1, 4):
            argv = ["mub", "--basis", str(basis), "--vector", str(vector)]
            _check(argv + ["--out", str(out)] * (vector == 3), out)
    for rank in (1, 2, 3):
        for seed in (0, 7, 2**63):
            _check(["random", "--rank", str(rank), "--seed", str(seed)], out)
        _check(["random", "--rank", str(rank), "--out", str(out)], out,
               env={"QUTRIT_SEED": str(rank)})
