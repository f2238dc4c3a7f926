"""Command-line front end.

Subcommands analyze, scene, mub, pseudo, evolve, bridge, ortho and
random wrap the library operations over simple JSON files.

Exit codes: 0 success; 1 I/O or parse failure (including non-finite
numbers and files that are not Hermitian / trace-one / normalized); 2
structurally well-formed but invalid state (not positive semidefinite,
out of the admissible ball, or a degenerate-scene export request); 3
internal inconsistency (a library self-check failed; not an assert, so
it also holds under python -O).

Sign convention: evolution uses U = exp(-i theta G).

analyze, scene (JSON), bridge, pseudo and evolve run on Python scalars:
a state file is parsed straight to rows and checked once, there, and the
report, scene, trajectory and payloads read the library's records
(Analysis, EllipsoidScene, Trajectory) as the scalar core fills them,
with lists.  The first four never import numpy; evolve imports it with
dynamics, for its generators' arrays and the np.linspace grid.  random,
mub, ortho, scene --format obj and amplitude files compute with numpy
and import it, and purestates, when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .errors import (
    DegenerateMeshError,
    InternalCheckError,
    InvalidStateError,
    MetricUndefinedError,
    NotHermitianError,
    NotNormalizedError,
    NotSymmetricError,
    OutOfBallError,
    QutritError,
    TraceError,
)
from .geometry import (
    RANK_CASE_TO_SCENE,
    _scene,
    export_scene_json,
    export_scene_obj,
    scene_to_dict,
)
from .spin1 import _from_two_qubit, _to_two_qubit
from .state import (
    PSEUDO_TENSOR,
    Analysis,
    ValidityReport,
    _as_rows,
    _bundle,
    _compose,
    _density_rows,
    _gamma_norm,
    _metric,
    _record,
    _state_rows,
    classify_rank,
    random_density,
)
from .tolerances import MUB_TOL, ORTHO_TOL

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


class CliIOError(QutritError):
    """File, JSON or structural parse failure (exit code 1)."""


def _fmt(x: float) -> str:
    s = format(float(x), ".12g")
    return "0" if s == "-0" else s


def _vec(v: list) -> str:
    return " ".join(_fmt(x) for x in v)


def _float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliIOError(f"{where} is not a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise CliIOError(f"{where} is not a finite number")
    return x


def _finite_float(text: str) -> float:
    """argparse type of the numeric flags: a finite float."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _grid(obj, key: str, n: int) -> list:
    rows = obj.get(key)
    if not isinstance(rows, list) or len(rows) != n:
        raise CliIOError(f'"{key}" must be a {n}x{n} array')
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise CliIOError(f'"{key}" row {i} must have {n} entries')
        out.append([_float(cell, f'"{key}"[{i}][{j}]') for j, cell in enumerate(row)])
    return out


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliIOError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8 and int-size errors are ValueErrors
        raise CliIOError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliIOError(f"{path}: top-level JSON value must be an object")
    return obj


def _matrix_from_obj(obj: dict, n: int) -> list:
    """The n x n matrix of a {"re": .., "im": ..} object as rows of Python complex re + 1j * im."""
    re, im = _grid(obj, "re", n), _grid(obj, "im", n)
    return [[x + 1j * y for x, y in zip(rrow, irow)] for rrow, irow in zip(re, im)]


def _pure_from_obj(obj: dict, path: str):
    """The PureState of an {"amplitudes": ..} object."""
    import numpy as np

    from .purestates import rik_decompose

    amps = obj["amplitudes"]
    if not isinstance(amps, list) or len(amps) != 3:
        raise CliIOError('"amplitudes" must hold 3 [re, im] pairs')
    psi = np.zeros(3, dtype=complex)
    for i, pair in enumerate(amps):
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliIOError(f'"amplitudes"[{i}] must be an [re, im] pair')
        psi[i] = _float(pair[0], f'"amplitudes"[{i}][0]') + 1j * _float(
            pair[1], f'"amplitudes"[{i}][1]'
        )
    try:
        return rik_decompose(psi)
    except NotNormalizedError as exc:
        raise CliIOError(f"{path}: {exc}") from exc


def _checked(path: str, check, M):
    """check(M); its Hermiticity, trace or entry-size error is a parse failure of path."""
    try:
        return check(M)
    except (NotHermitianError, TraceError, ValueError) as exc:
        raise CliIOError(f"{path}: {exc}") from exc


def load_state_file(path: str) -> list:
    """Parse a state file into a Hermitian trace-one 3x3 matrix, as rows of Python complex.

    Accepts {"re": .., "im": ..} densities or {"amplitudes": ..} pure
    states; Hermiticity / trace / normalization failures count as parse
    failures because they violate the file-format invariants.
    """
    obj = _read_json(path)
    if "amplitudes" in obj:
        from .purestates import density_from_pure

        return _checked(path, _density_rows, density_from_pure(_pure_from_obj(obj, path)).tolist())
    if "re" in obj or "im" in obj:
        return _checked(path, _density_rows, _matrix_from_obj(obj, 3))
    raise CliIOError(f'{path}: expected "re"/"im" or "amplitudes" keys')


def density_payload(rho) -> dict:
    """The {"re", "im"} payload of a matrix: an array, or rows of Python complex."""
    if isinstance(rho, list):
        return {
            "re": [[x.real for x in row] for row in rho],
            "im": [[x.imag for x in row] for row in rho],
        }
    return {"re": rho.real.tolist(), "im": rho.imag.tolist()}


def amplitudes_payload(psi) -> dict:
    return {"amplitudes": [[float(c.real), float(c.imag)] for c in psi]}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliIOError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# report assembly


_C1_TEXT = "diagonal weight outside [0, 1] (c1)"
_C2_TEXT = "2x2 principal minor negative (c2)"
_C3_TEXT = "determinant minor negative (c3)"
_SPECTRUM_TEXT = "negative eigenvalue with all minors inside tolerance (spectrum)"


def first_violation(v: ValidityReport) -> str | None:
    if v.overall:
        return None
    if not v.c1_ok:
        return _C1_TEXT
    if not v.c2_ok:
        return _C2_TEXT
    if not v.c3_ok:
        return _C3_TEXT
    return _SPECTRUM_TEXT


def build_report(rho: np.ndarray) -> tuple[Analysis, float | None]:
    """The analysis record of a 3x3 matrix and its metric norm (_report)."""
    return _report(_as_rows(rho))


def _report(rows: list) -> tuple[Analysis, float | None]:
    """The analysis record of rho's checked rows and a.Gamma.a (None where Gamma is undefined)."""
    an = _record(rows)
    try:
        gamma = _gamma_norm(an.params.a, an.params.T)
    except MetricUndefinedError:
        gamma = None
    return an, gamma


def report_text(report: tuple[Analysis, float | None]) -> str:
    an, gamma = report
    lines = [
        f"a: {_vec(an.params.a)}",
        f"q: {_vec(an.params.q)}",
        f"omega: {_vec(an.params.omega)}",
        f"tensor eigenvalues: {_vec(an.tensor_eigenvalues)}",
        f"semi-axes: {_vec(an.semi_axes)}",
        f"gamma-norm: {'degenerate' if gamma is None else _fmt(gamma)}",
    ]
    bad = first_violation(an.validity)
    lines.append("validity: ok" if bad is None else f"validity: violated: {bad}")
    if an.rank is not None:
        lines.append(f"rank: {an.rank.rank}")
        lines.append(f"case: {an.rank.case}")
        lines.append(f"scene: {RANK_CASE_TO_SCENE[an.rank.case]}")
    else:
        lines.append("rank: n/a")
        lines.append("case: n/a")
        lines.append("scene: n/a")
    return "\n".join(lines) + "\n"


def report_dict(report: tuple[Analysis, float | None]) -> dict:
    an, gamma = report
    metric = _metric(an.params.T)
    return {
        "params": {
            "a": an.params.a,
            "q": an.params.q,
            "omega": an.params.omega,
            "tensor": an.params.T,
        },
        "validity": {
            "c1_ok": an.validity.c1_ok,
            "c2_ok": an.validity.c2_ok,
            "c3_ok": an.validity.c3_ok,
            "overall": an.validity.overall,
        },
        "tensor_eigenvalues": an.tensor_eigenvalues,
        "semi_axes": an.semi_axes,
        "gamma_norm": gamma,
        "metric": "degenerate" if metric is None else metric,
        "rank": None
        if an.rank is None
        else {
            "rank": an.rank.rank,
            "case": an.rank.case,
            "eigenvalues": an.eigenvalues,
        },
        "scene_case": None if an.rank is None else RANK_CASE_TO_SCENE[an.rank.case],
    }


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> int:
    report = _report(load_state_file(args.path))
    text = (
        json.dumps(report_dict(report), indent=2) + "\n"
        if args.json
        else report_text(report)
    )
    _emit(text, args.out)
    return EXIT_OK if report[0].validity.overall else EXIT_INVALID


def cmd_scene(args) -> int:
    scene = _scene(load_state_file(args.path))
    if args.format == "json":
        _emit(export_scene_json(scene) + "\n", args.out)
    else:
        _emit(
            export_scene_obj(scene, lat=args.lat, lon=args.lon, surface_only=args.surface_only),
            args.out,
        )
    return EXIT_OK


def cmd_mub(args) -> int:
    if args.basis not in (1, 2, 3, 4):
        raise CliIOError(f"--basis must be 1..4, got {args.basis}")
    if args.vector not in (1, 2, 3):
        raise CliIOError(f"--vector must be 1..3, got {args.vector}")
    from .purestates import density_from_pure, mub_bases

    fam = mub_bases()
    state = fam.bases[args.basis - 1][args.vector - 1]
    cross = []
    for b, basis in enumerate(fam.bases):
        if b == args.basis - 1:
            continue
        for other in basis:
            cross.append(abs(complex(state.amp.conj() @ other.amp)))
    if max(cross) - min(cross) > MUB_TOL:
        raise InternalCheckError("cross-basis overlaps are not uniform")
    report = build_report(density_from_pure(state))
    out = json.dumps(amplitudes_payload(state.amp), indent=2) + "\n"
    out += f"cross-basis overlap modulus: {_fmt(sum(cross) / len(cross))}\n"
    out += report_text(report)
    _emit(out, args.out)
    return EXIT_OK


def cmd_pseudo(args) -> int:
    # build the tensor-=identity/3 state for any requested vector and let
    # the validity report say whether it is admissible, mirroring analyze
    rho = _density_rows(_compose(_bundle([args.ax, args.ay, args.az], PSEUDO_TENSOR)))
    report = _report(rho)
    out = json.dumps(density_payload(rho), indent=2) + "\n"
    out += report_text(report)
    _emit(out, args.out)
    return EXIT_OK if report[0].validity.overall else EXIT_INVALID


def _generator_from_flag(flag: str):
    from .dynamics import GENERATORS, custom

    if flag.startswith("custom:"):
        path = flag.split(":", 1)[1]
        return _checked(path, custom, _matrix_from_obj(_read_json(path), 3))
    if flag not in GENERATORS:
        raise CliIOError(
            f"unknown generator {flag!r}; use rot|twist|counter:x|y|z or custom:<path>"
        )
    return GENERATORS[flag]


def cmd_evolve(args) -> int:
    from .dynamics import _grid, _trajectory

    rho = load_state_file(args.path)
    g = _generator_from_flag(args.generator)
    thetas = _grid(args.theta, args.steps).tolist()
    traj = _trajectory(_state_rows(rho), g, thetas, args.scenes)
    records = [{"theta": t, "state": density_payload(s)} for t, s in zip(thetas, traj.states)]
    if traj.scenes is not None:
        for record, scene in zip(records, traj.scenes):
            record["scene"] = scene_to_dict(scene)
    _emit(json.dumps(records, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_bridge(args) -> int:
    if args.direction == "to2q":
        rho3 = load_state_file(args.path)
        rho4 = _to_two_qubit(rho3)
        _emit(json.dumps(density_payload(rho4), indent=2) + "\n", args.out)
    else:
        rho4 = _matrix_from_obj(_read_json(args.path), 4)
        rho3 = _checked(args.path, _from_two_qubit, rho4)
        _emit(json.dumps(density_payload(rho3), indent=2) + "\n", args.out)
    return EXIT_OK


def _load_pure(path: str):
    obj = _read_json(path)
    if "amplitudes" not in obj:
        raise CliIOError(f'{path}: pure-state file needs an "amplitudes" key')
    return _pure_from_obj(obj, path)


def cmd_ortho(args) -> int:
    from .purestates import orthogonal

    p = _load_pure(args.path_a)
    q = _load_pure(args.path_b)
    overlap = abs(complex(p.amp.conj() @ q.amp))
    inner_verdict = overlap <= ORTHO_TOL
    rk_verdict = orthogonal(p, q)
    print(f"inner-product modulus: {_fmt(overlap)}")
    print(f"inner-product verdict: {'orthogonal' if inner_verdict else 'not orthogonal'}")
    print(f"rk-condition verdict: {'orthogonal' if rk_verdict else 'not orthogonal'}")
    if inner_verdict != rk_verdict:
        raise InternalCheckError("orthogonality criteria disagree")
    return EXIT_OK


def cmd_random(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("QUTRIT_SEED")
        seed = int(env) if env else 0
    rho = random_density(rank=args.rank, rng=seed)
    out = json.dumps(density_payload(rho), indent=2) + "\n"
    out += f"rank: {classify_rank(rho).rank}\n"
    _emit(out, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the parse exit code."""

    def error(self, message):
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="qutrit3d",
        description="Three-dimensional qutrit representation toolkit.",
        epilog=(
            "exit codes: 0 success, 1 I/O or parse failure, 2 invalid state, "
            "3 internal inconsistency. Evolution convention: U = exp(-i theta G)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report state parameters, validity, rank and case")
    p.add_argument("path", help="state JSON file (re/im density or amplitudes)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scene", help="export the ellipsoid scene")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "obj"), default="json")
    p.add_argument("--lat", type=int, default=12, help="mesh rings (obj)")
    p.add_argument("--lon", type=int, default=24, help="mesh columns (obj)")
    p.add_argument(
        "--surface-only",
        action="store_true",
        help="mesh only; fails for degenerate scenes",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("mub", help="emit a mutually unbiased basis state")
    p.add_argument("--basis", type=int, required=True, help="basis index 1..4")
    p.add_argument("--vector", type=int, required=True, help="vector index 1..3")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mub)

    p = sub.add_parser("pseudo", help="emit a pseudo-qubit state (tensor = identity/3)")
    p.add_argument("--ax", type=_finite_float, default=0.0)
    p.add_argument("--ay", type=_finite_float, default=0.0)
    p.add_argument("--az", type=_finite_float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("evolve", help="sample a unitary trajectory (U = exp(-i theta G))")
    p.add_argument("path")
    p.add_argument(
        "--generator",
        required=True,
        help="rot:x|y|z, twist:x|y|z, counter:x|y|z or custom:<hermitian-json>",
    )
    p.add_argument(
        "--theta", type=_finite_float, required=True, help="grid end point (radians)"
    )
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--scenes", action="store_true", help="attach a scene per sample")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("bridge", help="map to/from the symmetric two-qubit picture")
    p.add_argument("path")
    p.add_argument("--direction", choices=("to2q", "from2q"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("ortho", help="compare two orthogonality criteria on pure states")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_ortho)

    p = sub.add_parser("random", help="sample a random density matrix")
    p.add_argument("--rank", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--seed", type=int, default=None, help="defaults to QUTRIT_SEED or 0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InvalidStateError, OutOfBallError, NotSymmetricError, DegenerateMeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
