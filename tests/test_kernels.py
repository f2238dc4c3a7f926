"""The eigensolver, the bridge, the analysis report and the goldens do not depend on the BLAS kernel.

OpenBLAS built with DYNAMIC_ARCH picks its compute kernel at run time
from the CPU, and OPENBLAS_CORETYPE overrides that choice.  Kernels sum
in their own order, with or without fused multiply-add, so a result that
goes through a matmul or a BLAS norm can change in the last bit from one
CPU to the next.  This test runs this file as a child process under each
kernel the host can execute.  Every child must give the same digest of
eig_hermitian3, eig_sym3 and eigvals_hermitian4 outputs, of the bridge
(to_two_qubit, from_two_qubit, ppt_separable, singlet_overlap), of rho's
eigenvalues, the metric norm gamma_norm and the validity flags of the
analysis report, of the report's text (report_text) and JSON
(report_dict), of the scene's JSON (scene_to_dict), of trajectories
(dynamics.trajectory, with and without scenes), of the samplers
(random_density, haar_pure) and of `bridge` and `evolve` CLI outputs
(both directions; with and without --scenes), and the ten golden CLI
outputs byte for byte.  rho's spectrum, the positivity checks of
to_two_qubit and the partial transpose test run the solver's values-only
path, so the digest covers it beside the full path; the report and the
scene cover the scalar analysis from the input check to the serialised
output.

The child builds its inputs without BLAS (elementwise numpy, outer
products, the mutually unbiased bases), so only the library can make the
digests differ between kernels.  Those inputs do go through numpy's SIMD
loops, whose complex multiply fuses operations at some levels and not at
others, so they can differ between SIMD levels.

numpy picks its SIMD loops at run time too, and NPY_DISABLE_CPU_FEATURES
holds it to a lower level.  A second test runs every command (the ten
golden commands, all twelve mub states, random of every rank on a few
seeds, ortho on seeded pairs, analyze --json of seeded amplitude files
and scene --format obj of seeded densities) in a child per SIMD level,
X86_V4 down to the X86_V2 baseline, and in one child under the Prescott
kernel.  The parent writes the inputs as JSON, so no child's numpy
touches them; random's only input from numpy is its generator's draws.
Every child must print the same bytes.

Run directly, ``python tests/test_kernels.py`` prints the kernel child's
JSON, and ``python tests/test_kernels.py MANIFEST`` runs the CLI calls
that MANIFEST lists and prints their digest and SIMD features.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")

# OpenBLAS core type -> the /proc/cpuinfo flags its kernels need
# (pni is how Linux names SSE3)
CORETYPE_FLAGS = {
    "Prescott": {"pni"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
}

CANONICAL = ("mixed", "ket0", "pseudo_boundary")

# golden file -> the CLI arguments that print it
GOLDEN_COMMANDS = {
    **{
        f"{cmd}_{name}.{ext}": [cmd, os.path.join(DATA, f"{name}.json")]
        for name in CANONICAL
        for cmd, ext in (("analyze", "txt"), ("scene", "json"))
    },
    **{f"mub_b{b}_v1.txt": ["mub", "--basis", str(b), "--vector", "1"] for b in (1, 2, 3, 4)},
}


def _hermitian(rng, n):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X + X.conj().T) / 2.0


def _density(rng, n, rank):
    rho = sum(
        np.outer(psi, psi.conj())
        for psi in (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(rank))
    )
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def _digest() -> str:
    from qutrit3d.cli import build_report, report_dict, report_text
    from qutrit3d.dynamics import canonical_generators, custom, trajectory
    from qutrit3d.geometry import build_scene, scene_to_dict
    from qutrit3d.linalg import eig_hermitian3, eig_sym3, eigvals_hermitian4, partial_transpose
    from qutrit3d.purestates import density_from_pure, haar_pure, mub_bases
    from qutrit3d.spin1 import from_two_qubit, ppt_separable, singlet_overlap, to_two_qubit
    from qutrit3d.state import random_density

    rng = np.random.default_rng(20261018)
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())

    for i in range(150):
        es = eig_hermitian3(_hermitian(rng, 3))
        add(es.values, es.vectors)
        rho = _density(rng, 3, i % 3 + 1)
        es = eig_hermitian3(rho)
        add(es.values, es.vectors)
        add(*eig_sym3(np.eye(3) - 2.0 * rho.real))
        rho4 = to_two_qubit(rho)
        add(rho4, from_two_qubit(rho4), ppt_separable(rho))
        an, gamma = build_report(rho)
        add(an.eigenvalues, np.nan if gamma is None else gamma)
        add(*(getattr(an.validity, f) for f in ("c1_ok", "c2_ok", "c3_ok", "overall")))
        for text in (
            report_text((an, gamma)),
            json.dumps(report_dict((an, gamma))),
            json.dumps(scene_to_dict(build_scene(rho))),
        ):
            h.update(text.encode())
        # a double root in a random frame, split by a gap around DEGEN_GAP
        v, u = rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal(3)
        gap = 10.0 ** rng.uniform(-12.0, -6.0)
        es = eig_hermitian3(np.outer(v, v.conj()) + gap * np.outer(u, u))
        add(es.values, es.vectors)
        add(eigvals_hermitian4(_hermitian(rng, 4)))
        # a two-qubit density off the symmetric sector
        rho4 = _density(rng, 4, i % 4 + 1)
        add(eigvals_hermitian4(partial_transpose(rho4)), singlet_overlap(rho4))
    # the samplers: numpy's draws, normalised, summed and divided on Python scalars
    for seed in range(30):
        add(random_density(seed % 3 + 1, seed), haar_pure(seed))
    # T of the unbiased-basis states: a double root in a frame off the axes
    for basis in mub_bases().bases:
        for p in basis:
            add(*eig_sym3(np.eye(3) - 2.0 * density_from_pure(p).real))
    # trajectories of every rank under the nine generators and a custom one
    H = _hermitian(rng, 3)
    gens = canonical_generators() + [custom(H)]
    for i in range(30):
        traj = trajectory(_density(rng, 3, i % 3 + 1), gens[i % 10], 1.3, 6, with_scenes=i % 2 == 0)
        add(traj.thetas, *traj.states)
        for s in traj.scenes or ():
            h.update(json.dumps(scene_to_dict(s)).encode())
    with tempfile.TemporaryDirectory() as tmp:
        gen = os.path.join(tmp, "generator.json")
        with open(gen, "w", encoding="utf-8") as fh:
            json.dump({"re": H.real.tolist(), "im": H.imag.tolist()}, fh)
        for name in CANONICAL:
            argv = ["bridge", os.path.join(DATA, f"{name}.json"), "--direction", "to2q"]
            code, to2q = _run(argv)
            path = os.path.join(tmp, f"{name}_2q.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(to2q)
            back = _run(["bridge", path, "--direction", "from2q"])
            h.update(json.dumps([code, to2q, *back]).encode())
            for flag in ("twist:x", "counter:y", f"custom:{gen}"):
                argv = ["evolve", os.path.join(DATA, f"{name}.json"), "--generator", flag,
                        "--theta", "1.3", "--steps", "50"]
                for extra in ([], ["--scenes"]):
                    h.update(json.dumps(_run(argv + extra)).encode())
    return h.hexdigest()


def _run(argv: list) -> tuple:
    """The exit code and stdout of the CLI, run in process."""
    from qutrit3d import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _golden_outputs() -> dict:
    return {name: _run(argv) for name, argv in GOLDEN_COMMANDS.items()}


def _openblas_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "").lower() and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


def _host_coretypes() -> list:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            flags = set()
            for line in fh:
                if line.startswith("flags"):
                    flags |= set(line.split(":", 1)[1].split())
    except OSError:
        return []
    return [core for core, need in CORETYPE_FLAGS.items() if need <= flags]


def test_same_bytes_under_every_openblas_kernel():
    if not _openblas_dynamic_arch():
        pytest.skip("numpy does not report OpenBLAS built with DYNAMIC_ARCH")
    cores = _host_coretypes()
    if len(cores) < 2:
        pytest.skip(f"the host runs fewer than two of {sorted(CORETYPE_FLAGS)}")
    results, loaded = {}, {}
    for core in cores:
        env = dict(os.environ)
        env.pop("QUTRIT_SEED", None)
        env.update(OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert res.returncode == 0, (core, res.stderr)
        results[core] = json.loads(res.stdout)
        loaded[core] = [line for line in res.stderr.splitlines() if line.startswith("Core:")]

    # OpenBLAS names the kernel it loaded: each override took effect
    assert len({tuple(v) for v in loaded.values()}) == len(cores), loaded
    digests = {core: r["digest"] for core, r in results.items()}
    assert len(set(digests.values())) == 1, digests
    for name in GOLDEN_COMMANDS:
        with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
            golden = fh.read()
        for core, r in results.items():
            code, out = r["golden"][name]
            assert code == 0, (core, name)
            assert out == golden, (core, name)


# highest SIMD level left -> the NPY_DISABLE_CPU_FEATURES that holds numpy to it
SIMD_LEVELS = {
    "X86_V4": "",
    "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR",
    "X86_V2": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
}


def _simd_found() -> list:
    """The SIMD targets numpy dispatches to in this process, as np.show_runtime() lists them."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


def _cli_outputs(manifest: str) -> dict:
    """The digest of the exit codes and stdout of the CLI calls listed in manifest."""
    with open(manifest, "r", encoding="utf-8") as fh:
        calls = json.load(fh)
    outputs = {name: _run(argv) for name, argv in calls}
    return {
        "found": _simd_found(),
        "digest": hashlib.sha256(json.dumps(outputs).encode()).hexdigest(),
        "failed": [name for name, (code, _) in outputs.items() if code != 0],
        "golden": {name: outputs[name] for name in GOLDEN_COMMANDS},
    }


def _cli_calls(tmp) -> list:
    """(name, argv) of every command, on seeded inputs written to tmp as JSON."""
    from qutrit3d.state import random_density

    rng = np.random.default_rng(20261019)
    calls = list(GOLDEN_COMMANDS.items())
    calls += [(f"mub_{b}_{v}", ["mub", "--basis", str(b), "--vector", str(v)])
              for b in (1, 2, 3, 4) for v in (1, 2, 3)]
    calls += [(f"random_{r}_{s}", ["random", "--rank", str(r), "--seed", str(s)])
              for r in (1, 2, 3) for s in range(4)]

    def write(name, obj):
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    for i in range(8):
        psi, chi = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
        if i % 2 == 0:  # an orthogonal pair half of the time
            chi -= np.sum(psi.conj() * chi) * psi
        chi /= np.sqrt(np.sum(np.abs(chi) ** 2))
        a, b = (write(f"{name}{i}", {"amplitudes": [[x.real, x.imag] for x in v]})
                for name, v in (("a", psi), ("b", chi)))
        rho = random_density(i % 3 + 1, rng)
        state = write(f"rho{i}", {"re": rho.real.tolist(), "im": rho.imag.tolist()})
        calls += [
            (f"ortho_{i}", ["ortho", a, b]),
            (f"amplitudes_{i}", ["analyze", a, "--json"]),
            (f"obj_{i}", ["scene", state, "--format", "obj", "--lat", str(4 + i), "--lon", "9"]),
        ]
    return calls


def _child(env_update: dict, manifest: str) -> tuple:
    """(parsed stdout, stderr) of this file run on manifest with env_update in its environment."""
    env = dict(os.environ)
    for name in ("QUTRIT_SEED", "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES",
                 "OPENBLAS_CORETYPE"):
        env.pop(name, None)
    env.update(env_update)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), manifest],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert res.returncode == 0, (env_update, res.stderr)
    return json.loads(res.stdout), res.stderr


def test_same_cli_bytes_under_every_simd_level_and_kernel(tmp_path):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the SIMD levels held here are x86-64 ones")
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__

    levels = set(__cpu_baseline__) | set(__cpu_dispatch__)
    if not {"X86_V2", "X86_V3", "X86_V4"} <= levels:
        pytest.skip(f"numpy does not name the x86-64 levels: {sorted(levels)}")
    manifest = str(tmp_path / "calls.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(_cli_calls(str(tmp_path)), fh)

    results, cores = {}, set()
    for level, disabled in SIMD_LEVELS.items():
        out, err = _child({"NPY_DISABLE_CPU_FEATURES": disabled, "OPENBLAS_VERBOSE": "2"}, manifest)
        left_on = set(disabled.split()) & set(out["found"])
        if left_on:
            pytest.skip(f"NPY_DISABLE_CPU_FEATURES left {sorted(left_on)} on")
        results[level] = out
        cores.update(line for line in err.splitlines() if line.startswith("Core:"))
    if _openblas_dynamic_arch() and "Prescott" in _host_coretypes():
        out, err = _child({"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_VERBOSE": "2"}, manifest)
        # OpenBLAS names the kernel it loaded: the override took effect
        if not {line for line in err.splitlines() if line.startswith("Core:")} - cores:
            pytest.skip("OPENBLAS_CORETYPE=Prescott loaded the default kernel")
        results["Prescott"] = out

    # the held levels run fewer SIMD targets than the full one, where the host has them
    assert not set(results["X86_V2"]["found"]) & {"X86_V3", "X86_V4"}
    digests = {name: r["digest"] for name, r in results.items()}
    assert len(set(digests.values())) == 1, digests
    for name, r in results.items():
        assert r["failed"] == [], (name, r["failed"])
    for golden in GOLDEN_COMMANDS:
        with open(os.path.join(GOLDEN, golden), "r", encoding="utf-8") as fh:
            want = fh.read()
        for name, r in results.items():
            assert r["golden"][golden] == [0, want], (name, golden)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(_cli_outputs(sys.argv[1])))
    else:
        print(json.dumps({"digest": _digest(), "golden": _golden_outputs()}))
