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

Every command runs on Python scalars: a state or amplitude file is
parsed straight to rows and checked once, there, and the report, scene,
OBJ mesh, trajectory, unbiased bases, samples and payloads read the
library's records as the scalar core fills them, with lists: plain
__slots__ classes on linalg._Record, which compare and print as before
but which fields(), asdict() and replace() refuse, with no __dict__
for vars().  Only random imports numpy, for its generator's draws, and only
scene and evolve --scenes load geometry (the report's scene case is state's).
Output leaves one way: each cmd_* returns its exit code and its text
(_dump renders every JSON payload), and main writes the text once,
--help's too, through _emit, to stdout or --out, then prints the one
error line; a failed write to either exits 1.  Every exit-1 and exit-2
error line about a file names it.
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
    QutritError,
    TraceError,
)
from .linalg import _dot, _eigvals, _sum, _verdict
from .state import (
    PSEUDO_TENSOR,
    RANK_CASE_TO_SCENE,
    Analysis,
    ValidityReport,
    _as_rows,
    _bundle,
    _compose,
    _density_rows,
    _gamma_norm,
    _metric,
    _projector,
    _random_rows,
    _record,
)
from .tolerances import MUB_TOL, ORTHO_SLACK, ORTHO_TOL

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def __getattr__(name: str):  # PEP 562: cli.scene_to_dict, which perfbench reads, is geometry's
    if name != "scene_to_dict":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .geometry import scene_to_dict
    globals()[name] = scene_to_dict
    return scene_to_dict


class CliIOError(QutritError):
    """File, JSON or structural parse failure (exit code 1)."""


def _fmt(x: float) -> str:
    return "%.12g" % (x + 0.0)  # -0.0 + 0.0 is 0.0: no "-0"


def _vec(v: list) -> str:
    x, y, z = v
    return "%.12g %.12g %.12g" % (x + 0.0, y + 0.0, z + 0.0)  # _fmt's


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


def _seed(text: str) -> int:
    """argparse type of --seed, and the form of QUTRIT_SEED: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return seed


def _number_grid(obj, path: str, key: str, n: int) -> list:
    rows = obj.get(key)
    if not isinstance(rows, list) or len(rows) != n:
        raise CliIOError(f'{path}: "{key}" must be a {n}x{n} array')
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise CliIOError(f'{path}: "{key}" row {i} must have {n} entries')
        out.append([_float(cell, f'{path}: "{key}"[{i}][{j}]') for j, cell in enumerate(row)])
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


def _matrix_from_obj(obj: dict, path: str, n: int) -> list:
    """path's n x n {"re": .., "im": ..} matrix as rows of Python complex re + 1j * im."""
    re, im = _number_grid(obj, path, "re", n), _number_grid(obj, path, "im", n)
    return [[x + 1j * y for x, y in zip(rrow, irow)] for rrow, irow in zip(re, im)]


def _pure_from_obj(obj: dict, path: str):
    """The PureState, of lists, of path's {"amplitudes": ..} object."""
    from .purestates import _pure

    amps = obj["amplitudes"]
    if not isinstance(amps, list) or len(amps) != 3:
        raise CliIOError(f'{path}: "amplitudes" must hold 3 [re, im] pairs')
    psi = []
    for i, pair in enumerate(amps):
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliIOError(f'{path}: "amplitudes"[{i}] must be an [re, im] pair')
        re = _float(pair[0], f'{path}: "amplitudes"[{i}][0]')
        psi.append(re + 1j * _float(pair[1], f'{path}: "amplitudes"[{i}][1]'))
    return _checked(path, _pure, psi)


def _checked(path: str, check, M):
    """check(M); its Hermiticity, trace, norm or entry-size error is a parse failure of path."""
    try:
        return check(M)
    except (NotHermitianError, NotNormalizedError, TraceError, ValueError) as exc:
        raise CliIOError(f"{path}: {exc}") from exc


def load_state_file(path: str) -> list:
    """Parse a state file into a Hermitian trace-one 3x3 matrix, as rows of Python complex.

    Accepts {"re": .., "im": ..} densities or {"amplitudes": ..} pure
    states; Hermiticity / trace / normalization failures count as parse
    failures because they violate the file-format invariants.
    """
    obj = _read_json(path)
    if "amplitudes" in obj:
        return _checked(path, _density_rows, _projector(_pure_from_obj(obj, path).amp))
    if "re" in obj or "im" in obj:
        return _checked(path, _density_rows, _matrix_from_obj(obj, path, 3))
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


def _dump(obj) -> str:
    """The CLI's JSON of obj: two-space indent and one trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out: str | None) -> str | None:
    """Write text as it is to stdout, flushed, or to the file out; the message of a failed write."""
    try:
        if out is None:
            print(text, end="", flush=True)  # a failed write fails here, not at interpreter exit
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:  # drop the bytes stdout still holds: the exit-time flush has none to fail on
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return f"cannot write {'stdout' if out is None else out}: {exc}"


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


def _report(rows: list, framed: bool = False) -> tuple[Analysis, float | None]:
    """The _record of rho's checked rows (``framed`` for report_dict) and a.Gamma.a or None."""
    an = _record(rows, None, framed)
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
    if an.rank is not None:  # a state: its validity is ok, and its minors are not read
        lines += ["validity: ok", f"rank: {an.rank.rank}", f"case: {an.rank.case}",
                  f"scene: {RANK_CASE_TO_SCENE[an.rank.case]}"]
    else:
        lines += [f"validity: violated: {first_violation(an.validity)}", "rank: n/a",
                  "case: n/a", "scene: n/a"]
    return "\n".join(lines) + "\n"


def report_dict(report: tuple[Analysis, float | None]) -> dict:
    an, gamma = report
    return {
        "params": {
            "a": an.params.a,
            "q": an.params.q,
            "omega": an.params.omega,
            "tensor": an.params.T,
        },
        "validity": an.validity._fields(),  # c1_ok, c2_ok, c3_ok, overall
        "tensor_eigenvalues": an.tensor_eigenvalues,
        "semi_axes": an.semi_axes,
        "gamma_norm": gamma,
        "metric": "degenerate" if gamma is None else _metric(an.params.T),  # gamma's det verdict
        "rank": None if an.rank is None else {
            "rank": an.rank.rank, "case": an.rank.case, "eigenvalues": an.eigenvalues},
        "scene_case": None if an.rank is None else RANK_CASE_TO_SCENE[an.rank.case],
    }


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args) -> tuple[int, str]:
    report = _report(load_state_file(args.path), args.json)
    text = _dump(report_dict(report)) if args.json else report_text(report)
    return EXIT_OK if report[0].rank is not None else EXIT_INVALID, text


def cmd_scene(args) -> tuple[int, str]:
    from .geometry import _scene, export_scene_obj, scene_to_dict

    scene = _scene(load_state_file(args.path))
    if args.format == "json":
        text = _dump(scene_to_dict(scene))
    else:
        text = export_scene_obj(scene, lat=args.lat, lon=args.lon, surface_only=args.surface_only)
    return EXIT_OK, text


def cmd_mub(args) -> tuple[int, str]:
    from .purestates import _mub

    bases = list(_mub())
    state = bases.pop(args.basis - 1)[args.vector - 1]
    cross = [abs(_dot(state.amp, q.amp)) for basis in bases for q in basis]
    if max(cross) - min(cross) > MUB_TOL:
        raise InternalCheckError("cross-basis overlaps are not uniform")
    report = _report(_density_rows(_projector(state.amp)))
    out = _dump(amplitudes_payload(state.amp))
    out += f"cross-basis overlap modulus: {_fmt(_sum(cross) / len(cross))}\n"
    return EXIT_OK, out + report_text(report)


def cmd_pseudo(args) -> tuple[int, str]:
    # build the tensor-=identity/3 state for any requested vector and let
    # the validity report say whether it is admissible, mirroring analyze
    rows = _compose(_bundle([args.ax, args.ay, args.az], PSEUDO_TENSOR))
    rho = _checked("--ax/--ay/--az", _density_rows, rows)
    report = _report(rho)
    text = _dump(density_payload(rho)) + report_text(report)
    return EXIT_OK if report[0].rank is not None else EXIT_INVALID, text


def _generator_from_flag(flag: str):
    from .dynamics import GENERATORS, _solved

    if flag.startswith("custom:"):
        path = flag.split(":", 1)[1]
        return _checked(path, _solved, _matrix_from_obj(_read_json(path), path, 3))
    if flag not in GENERATORS:
        raise CliIOError(
            f"unknown generator {flag!r}; use rot|twist|counter:x|y|z or custom:<path>"
        )
    return GENERATORS[flag]


def cmd_evolve(args) -> tuple[int, str]:
    from .dynamics import _grid, _trajectory

    rho = load_state_file(args.path)
    g = _generator_from_flag(args.generator)
    thetas = _grid(args.theta, args.steps)
    traj = _trajectory(rho, g, thetas, args.scenes)
    records = [{"theta": t, "state": density_payload(s)} for t, s in zip(thetas, traj.states)]
    if traj.scenes is not None:
        from .geometry import scene_to_dict
        for record, scene in zip(records, traj.scenes):
            record["scene"] = scene_to_dict(scene)
    return EXIT_OK, _dump(records)


def cmd_bridge(args) -> tuple[int, str]:
    from .spin1 import _from_two_qubit, _to_two_qubit

    if args.direction == "to2q":
        rho = _to_two_qubit(load_state_file(args.path))
    else:
        rho4 = _matrix_from_obj(_read_json(args.path), args.path, 4)
        rho = _checked(args.path, _from_two_qubit, rho4)
    return EXIT_OK, _dump(density_payload(rho))


def _load_pure(path: str):
    obj = _read_json(path)
    if "amplitudes" not in obj:
        raise CliIOError(f'{path}: pure-state file needs an "amplitudes" key')
    return _pure_from_obj(obj, path)


def cmd_ortho(args) -> tuple[int, str]:
    from . import purestates

    p = _load_pure(args.path_a)
    q = _load_pure(args.path_b)
    overlap = abs(_dot(p.amp, q.amp))
    inner_verdict = overlap <= ORTHO_TOL
    rk_verdict = purestates.orthogonal(p, q)
    text = f"inner-product modulus: {_fmt(overlap)}\n"
    for name, ok in (("inner-product", inner_verdict), ("rk-condition", rk_verdict)):
        text += f"{name} verdict: {'orthogonal' if ok else 'not orthogonal'}\n"
    # two roundings of one modulus: within ORTHO_SLACK of ORTHO_TOL each verdict stands
    if inner_verdict != rk_verdict and abs(overlap - ORTHO_TOL) > ORTHO_SLACK:
        raise InternalCheckError("orthogonality criteria disagree", text)
    return EXIT_OK, text


def cmd_random(args) -> tuple[int, str]:
    seed = args.seed
    if seed is None:
        env = os.environ.get("QUTRIT_SEED")
        try:
            seed = _seed(env) if env else 0
        except argparse.ArgumentTypeError as exc:
            raise CliIOError(f"QUTRIT_SEED: {exc}") from None
    rho = _density_rows(_random_rows(args.rank, seed))
    positive, rank, values = _verdict(rho, True)
    if not positive:  # a mixture of projectors is positive
        values = values or _eigvals(rho)
        raise InternalCheckError(f"sampled state is not positive: {values[-1]:.3e}")
    return EXIT_OK, _dump(density_payload(rho)) + f"rank: {rank}\n"


# ---------------------------------------------------------------------------
# parser and dispatch


class _Help(Exception):
    """-h or --help: the help text, which main writes as a command's."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the parse exit code and hands main its help."""

    def error(self, message):
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        raise _Help(self.format_help())


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
    # every command but ortho takes the one --out flag
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output to a file")
    with_out = functools.partial(sub.add_parser, parents=[out])

    p = with_out("analyze", help="report state parameters, validity, rank and case")
    p.add_argument("path", help="state JSON file (re/im density or amplitudes)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_analyze)

    p = with_out("scene", help="export the ellipsoid scene")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "obj"), default="json")
    p.add_argument("--lat", type=int, default=12, help="mesh rings (obj), 4..1024")
    p.add_argument("--lon", type=int, default=24, help="mesh columns (obj), 8..2048")
    p.add_argument(
        "--surface-only",
        action="store_true",
        help="mesh only; fails for degenerate scenes",
    )
    p.set_defaults(func=cmd_scene)

    p = with_out("mub", help="emit a mutually unbiased basis state")
    p.add_argument("--basis", type=int, choices=(1, 2, 3, 4), required=True, help="basis index")
    p.add_argument("--vector", type=int, choices=(1, 2, 3), required=True, help="vector index")
    p.set_defaults(func=cmd_mub)

    p = with_out("pseudo", help="emit a pseudo-qubit state (tensor = identity/3)")
    p.add_argument("--ax", type=_finite_float, default=0.0)
    p.add_argument("--ay", type=_finite_float, default=0.0)
    p.add_argument("--az", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_pseudo)

    p = with_out("evolve", help="sample a unitary trajectory (U = exp(-i theta G))")
    p.add_argument("path")
    p.add_argument(
        "--generator",
        required=True,
        help="rot:x|y|z, twist:x|y|z, counter:x|y|z or custom:<hermitian-json>",
    )
    p.add_argument(
        "--theta", type=_finite_float, required=True, help="grid end point (radians)"
    )
    p.add_argument("--steps", type=int, default=50, help="grid samples, 2..100000")
    p.add_argument("--scenes", action="store_true", help="attach a scene per sample")
    p.set_defaults(func=cmd_evolve)

    p = with_out("bridge", help="map to/from the symmetric two-qubit picture")
    p.add_argument("path")
    p.add_argument("--direction", choices=("to2q", "from2q"), required=True)
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("ortho", help="compare two orthogonality criteria on pure states")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_ortho, out=None)

    p = with_out("random", help="sample a random density matrix")
    p.add_argument("--rank", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--seed", type=_seed, default=None, help="defaults to QUTRIT_SEED or 0")
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    text, error, out = "", None, None
    try:
        args = make_parser().parse_args(argv)
        out = args.out
        code, text = args.func(args)
    except _Help as exc:
        code, text = EXIT_OK, exc.args[0]
    except (CliIOError, ValueError) as exc:
        code, error = EXIT_IO, exc
    except (InvalidStateError, NotSymmetricError, DegenerateMeshError) as exc:  # about args.path
        code, error = EXIT_INVALID, f"{args.path}: {exc}"
    except InternalCheckError as exc:  # ortho's second argument: the lines it prints before failing
        code, error, text = EXIT_INTERNAL, exc.args[0], "".join(exc.args[1:])
    failed = text and _emit(text, out)  # a failed command leaves --out as it was
    if failed:
        code, error = EXIT_IO, failed
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code
