"""qutrit3d benchmark: four workloads, end-to-end metrics and a layer trace.

    python3 perfbench/run.py --workload analyze|evolve|bridge|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else.  Inputs come from the seed alone.  One client
runs a closed loop in a fresh worker process for S seconds; every
output is checked by an oracle that does not use the package.  The last
line of stdout is one JSON object: with ``--trace 0`` it carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run plus the overhead of tracing against an untraced run; each of the two
gets half of the S seconds.  The lines before it describe the machine,
the mix, the reference kernel's level, the digest of the outputs and the
failure fraction.  See perfbench/README.md.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy loads, here
# and (through the environment) in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analyze", "evolve", "bridge", "cli")
REQUIRED = ("src/qutrit3d/__init__.py", "src/qutrit3d/cli.py", "tests/golden", "tests/data")
WORK = os.path.join(ROOT, ".perfbench_work")
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("QUTRIT_SEED", None)
    return env


def machine() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "load": "one client, closed loop, single-threaded; CLI subprocesses one at a time",
    }


# ---------------------------------------------------------------------------
# child processes


def run_worker(workload: str, workdir: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, workdir,
           repr(seconds), str(trace)]
    subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    with open(os.path.join(workdir, f"result-{trace}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_ms() -> float:
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "import", ROOT]
    runs = [float(subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, text=True,
                                 capture_output=True, timeout=CHILD_TIMEOUT_S).stdout)
            for _ in range(PROBE_REPEATS)]
    return statistics.median(runs)


def floor_ms() -> float:
    """Wall time of a fresh interpreter that imports numpy: the CLI's floor."""
    from worker import floor_ns

    return statistics.median(floor_ns() for _ in range(PROBE_REPEATS)) / 1e6


# ---------------------------------------------------------------------------
# correctness


def read_goldens() -> dict[str, str]:
    gdir = os.path.join(ROOT, "tests", "golden")
    out = {}
    for name in sorted(os.listdir(gdir)):
        with open(os.path.join(gdir, name), "r", encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def position_problems(workload: str, items: list[dict], outputs: list[str]) -> list[list[str]]:
    """Oracle problems for each position of the first round."""
    import oracles
    from inputs import matrix

    goldens = read_goldens() if workload == "cli" else {}
    problems = []
    for item, text in zip(items, outputs):
        if text.startswith("raised "):
            problems.append([text])
        elif workload == "analyze":
            problems.append(oracles.check_report_text(matrix(item), text))
        elif workload == "evolve":
            problems.append(oracles.check_trajectory(item, text))
        elif workload == "bridge":
            problems.append(oracles.check_bridge(matrix(item), text))
        else:
            problems.append(oracles.check_cli(item, json.loads(text), goldens))
    return problems


def output_digest(outputs: list[str]) -> str:
    h = hashlib.sha256()
    for text in outputs:
        data = text.encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


class Verdict:
    """Failed operations and correctness of one worker result."""

    def __init__(self, workload: str, items: list[dict], result: dict) -> None:
        n = len(items)
        if len(result["outputs"]) != n:
            raise RuntimeError("worker did not finish the first round")
        self.problems = position_problems(workload, items, result["outputs"])
        self.digest = output_digest(result["outputs"])
        bad = set(result["raised"]) | set(result["mismatch"])
        self.attempted = result["ops"]
        self.failed = sum(1 for i, k in enumerate(result["input"])
                          if i in bad or self.problems[k])
        self.mismatch = len(result["mismatch"])

    def report(self, label: str, items: list[dict]) -> None:
        print(f"{label}: attempted {self.attempted}, failed {self.failed} "
              f"(failed_frac {self.failed / self.attempted:.6g} fraction), "
              f"repeat mismatches {self.mismatch}")
        failing = [pos for pos, p in enumerate(self.problems) if p]
        for pos in failing[:5]:
            print(f"{label}: FAILED {items[pos]['kind']} #{pos}: {self.problems[pos][:3]}")


def known_defects(workdir: str) -> bool:
    """Run each known-defect CLI input once, untimed, and say what it did.

    False when one fails otherwise than by its known defect.
    """
    import re

    import oracles
    from inputs import KNOWN_DEFECTS, known_defect_calls

    ok = True
    for call in known_defect_calls():
        res = subprocess.run([sys.executable, "-m", "qutrit3d", *call["argv"]], cwd=workdir,
                             env=child_env(), capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        result = {"code": res.returncode, "stdout": res.stdout, "stderr": res.stderr}
        what, code, pattern = KNOWN_DEFECTS[call["kind"]]
        problems = oracles.check_cli(call, result, {})
        if not problems:
            verdict = "fixed: the input is now handled as expected"
        elif (res.returncode == code and re.search(pattern, res.stdout)
              and "Traceback" not in res.stderr):
            verdict = "still present"
        else:
            verdict = f"FAILS IN ANOTHER WAY: {problems[:3]}"
            ok = False
        print(f"known defect {call['kind']} ({what}), run once outside the timed round: "
              + verdict)
    return ok


# ---------------------------------------------------------------------------
# traced run


def span_stats(workdir: str):
    import tracer
    from metrics import SpanStats

    stats = SpanStats()
    sdir = os.path.join(workdir, "spans")
    # one file for an in-process run, or cli-<k>.json per invocation, in order
    files = sorted(os.listdir(sdir), key=lambda f: int(f[4:-5]) if f.startswith("cli-") else 0)
    for name in files:
        names, spans = tracer.load_spans(os.path.join(sdir, name))
        stats.add(names, spans, tracer.self_times(spans))
    return stats


def per_kind_counts(stats, items: list[dict], ran: list[int]) -> None:
    """Exact eigensolver and bridge counts per input kind, as measured."""
    by_kind: dict[str, dict[str, set]] = {}
    watched = ("linalg.eig_hermitian3", "linalg.eigvals_hermitian4", "spin1.to_two_qubit")
    for i, calls in enumerate(stats.op_calls):
        kind = items[ran[i]]["kind"]
        seen = by_kind.setdefault(kind, {w: set() for w in watched})
        for w in watched:
            seen[w].add(calls.get(w, 0))
    used = [w for w in watched if any(max(seen[w]) for seen in by_kind.values())]
    for kind in sorted(by_kind):
        parts = []
        for w in used:
            lo, hi = min(by_kind[kind][w]), max(by_kind[kind][w])
            parts.append(f"{w} {lo}" if lo == hi else f"{w} {lo}..{hi}")
        print(f"trace counts per op, kind {kind}: " + (", ".join(parts) or "none"))


# ---------------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, float]) -> None:
    from metrics import UNITS

    for name, value in metrics.items():
        print(f"{name}: {value!r} {UNITS[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a qutrit3d checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import inputs
    import metrics
    import reference

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        print("machine: " + json.dumps(machine(), sort_keys=True))
        items = inputs.generate(args.workload, args.seed, workdir, ROOT)
        with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump(items, fh)
        with open(os.path.join(workdir, "warmup.json"), "w", encoding="utf-8") as fh:
            json.dump(inputs.warmup(args.workload, items), fh)
        mix: dict[str, int] = {}
        for item in items:
            mix[item["kind"]] = mix.get(item["kind"], 0) + 1
        print(f"workload: {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}; round of {len(items)} inputs: "
              + ", ".join(f"{k}={v}" for k, v in sorted(mix.items())))

        if args.trace == 0:
            result = run_worker(args.workload, workdir, args.seconds, 0)
            verdict = Verdict(args.workload, items, result)
            verdict.report("untraced", items)
            print(f"digest: sha256:{verdict.digest}")
            correct = verdict.failed == 0
            if args.workload == "cli":
                correct = known_defects(workdir) and correct
            n = len(items)
            pct = metrics.TAIL[args.workload]
            samples = metrics.samples(args.workload, result, n)
            _, beyond = metrics.tail(samples, pct)
            if args.workload not in metrics.IN_PROCESS:
                print(f"latency samples: all {len(samples)} operations")
            else:
                print(f"latency samples: each of the {n} inputs' fastest of at least "
                      f"{result['ops'] // n} repeats; over all operations: "
                      f"{result['ops'] / (sum(result['latency_ns']) / 1e9)!r} ops/s, median "
                      f"{statistics.median(result['latency_ns']) / 1e6!r} ms")
            print(f"latency_tail_ms is p{pct:g} of the {len(samples)} samples, {beyond} beyond it"
                  + ("" if beyond >= metrics.TAIL_BEYOND else
                     f" (fewer than {metrics.TAIL_BEYOND}: run longer)"))
            print(f"failed_frac: {verdict.failed / verdict.attempted!r} fraction")
            setup_s, how = reference.setup_at_fixed_level(result)
            print(f"set-up: {how}")
            scaled, how = reference.at_fixed_level(args.workload, result, n, samples)
            measured = metrics.end_to_end(args.workload, samples, setup_s, result)
            print(f"latency samples at the fixed level: {how}; as measured: "
                  + ", ".join(f"{k} {measured[k]!r}"
                              for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")))
            emit(correct, verdict.attempted, verdict.failed,
                 metrics.end_to_end(args.workload, scaled, setup_s, result))
            return 0

        # the untraced and the traced run share the time, so a traced run
        # takes as long as an untraced one
        plain = run_worker(args.workload, workdir, args.seconds / 2, 0)
        traced = run_worker(args.workload, workdir, args.seconds / 2, 1)
        verdicts = [Verdict(args.workload, items, r) for r in (plain, traced)]
        for label, v in zip(("untraced", "traced"), verdicts):
            v.report(label, items)
        same = verdicts[0].digest == verdicts[1].digest
        print(f"digest: sha256:{verdicts[0].digest} (traced run "
              f"{'identical' if same else 'DIFFERENT'})")
        correct = same and not any(v.failed for v in verdicts)
        if args.workload == "cli":
            correct = known_defects(workdir) and correct
        stats = span_stats(workdir)
        if stats.ops != traced["ops"]:
            raise RuntimeError(f"{stats.ops} op spans for {traced['ops']} traced operations")
        per_kind_counts(stats, items, traced["input"])
        rate = [r["ops"] / sum(r["latency_ns"]) for r in (plain, traced)]
        layer = stats.layer_metrics(import_ms(), floor_ms(), 1.0 - rate[1] / rate[0])
        emit(correct, sum(v.attempted for v in verdicts), sum(v.failed for v in verdicts),
             layer)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
