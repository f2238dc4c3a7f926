"""Timed closed loop for one workload, in a fresh process.

One client: each operation starts when the previous one has finished.
The loop walks the seeded round of inputs, in order the first time and
in a fixed shuffled order in each later round, until the time is up.  It
always finishes the first round so that its outputs (kept for the
oracles and the digest) are complete.  Outputs of later rounds are
hashed and compared with the first round's.

In the in-process workloads a burst of the reference kernel
(reference.py) is timed after every operation, outside its latency.  The
cli worker times a fresh interpreter that imports numpy (floor_ns)
after every other invocation instead: it sleeps while each child runs,
and a CPU that has just woken runs the burst 1.5-2x slower whether the
machine is quiet or not.  Nor does it import numpy, so that its
children's peak memory is their own.
An untraced run also starts a set-up probe (probe.py), followed by a
floor_ns probe, about every SETUP_EVERY_S seconds between operations, so
that set-up is sampled across the whole run, as the operations are.

Usage (run.py starts it):
    python3 worker.py ROOT WORKLOAD WORKDIR SECONDS TRACE
The result is written to WORKDIR/result-TRACE.json.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_EVERY_S = 3.0


def import_package(root: str):
    """Import qutrit3d from ROOT/src and refuse any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qutrit3d

    if not os.path.abspath(qutrit3d.__file__).startswith(src + os.sep):
        raise SystemExit(f"qutrit3d imported from {qutrit3d.__file__}, not from {src}")
    return qutrit3d


def cli_process(argv: list[str], cwd: str, shim: list[str] | None = None) -> dict:
    """One ``python -m qutrit3d`` invocation, or the traced shim when given."""
    cmd = [sys.executable, *(shim or ["-m", "qutrit3d"]), *argv]
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)
    return {"code": res.returncode, "stdout": res.stdout, "stderr": res.stderr}


def setup_probe(root: str, workload: str, workdir: str) -> float:
    """Seconds from spawning a fresh interpreter to its first finished operation."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "setup", root, workload, workdir]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return t1 - t0


def floor_ns() -> int:
    """Wall time of a fresh interpreter that imports numpy and nothing of the
    package: the reference for the times of process starts."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter_ns() - t0


def peak_rss_kb() -> int:
    """This process's own peak resident set.  ru_maxrss would also count the
    parent's, which Linux carries over when a spawned process execs."""
    with open("/proc/self/status", "r", encoding="utf-8") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def make_op(workload: str, workdir: str, tracer, root: str):
    """(prepare, op, to_text) for the workload; traced when a tracer is given."""
    if workload == "cli":
        counter = itertools.count()

        def op(argv):
            if tracer is None:
                return cli_process(argv, workdir)
            spans = os.path.join(workdir, "spans", f"cli-{next(counter)}.json")
            return cli_process(argv, workdir, [os.path.join(HERE, "cli_shim.py"), spans])

        return (lambda item: item["argv"]), op, (lambda r: json.dumps(r, sort_keys=True))

    qutrit3d = import_package(root)
    import ops

    if tracer is not None:
        import tracer as tracing

        tracing.install(tracer, qutrit3d)
        ops.render = tracer.wrap("cli.json.dumps", ops.render)
    fn = {"analyze": ops.analyze, "evolve": ops.evolve, "bridge": ops.bridge}[workload]
    if tracer is not None:
        fn = tracer.wrap("op", fn)
    return (lambda item: ops.prepare(workload, item)), fn, (
        lambda r: ops.output_text(workload, r)
    )


def main(argv: list[str]) -> int:
    root, workload, workdir, seconds, trace = argv
    seconds = float(seconds)
    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        os.makedirs(os.path.join(workdir, "spans"), exist_ok=True)
    with open(os.path.join(workdir, "inputs.json"), "r", encoding="utf-8") as fh:
        items = json.load(fh)
    with open(os.path.join(workdir, "warmup.json"), "r", encoding="utf-8") as fh:
        warmup = json.load(fh)
    prepare, op, to_text = make_op(workload, workdir, tracer, root)
    args = [prepare(item) for item in items]
    n = len(args)

    # warm-up, untimed and not recorded
    warm_spans = len(tracer.spans) if tracer is not None else 0
    op(prepare(warmup))
    if tracer is not None:
        del tracer.spans[warm_spans:]
        if workload == "cli":
            os.remove(os.path.join(workdir, "spans", "cli-0.json"))

    latency: list[int] = []
    ran: list[int] = []  # the input each operation ran
    outputs: list[str] = []
    hashes: list[bytes] = []
    raised: list[int] = []
    mismatch: list[int] = []
    clock = time.perf_counter_ns
    burst, burst_every = None, 1
    if workload != "cli":
        import reference

        burst = reference.burst_ns
    if workload == "cli":
        # after every other invocation, so that a run holds enough of them
        burst, burst_every = floor_ns, 2
    bursts: list[int] = []
    setup_s: list[float] = []
    floors: list[int] = []
    if tracer is None:
        setup_probe(root, workload, workdir)  # bytecode and file cache, not timed
    every = int(SETUP_EVERY_S * 1e9)
    start = clock()
    deadline = start + int(seconds * 1e9)
    next_probe = start
    # The first round runs the inputs in their order, later rounds in an
    # order of their own, the same in every run.  A slowdown that recurs at
    # the same point of every round, such as a garbage collection that the
    # round's allocations line up with, then meets a different input each
    # time instead of every repeat of the same few.
    shuffle = random.Random(0).shuffle
    order = list(range(n))
    i = 0
    while i < n or clock() < deadline:
        if i % n == 0 and i:
            shuffle(order)
        pos = order[i % n]
        if tracer is None and clock() >= next_probe:
            setup_s.append(setup_probe(root, workload, workdir))
            floors.append(floor_ns())
            next_probe = clock() + every
        t0 = clock()
        try:
            result = op(args[pos])
        except Exception as exc:  # a failed operation is recorded, not fatal
            result = None
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
        latency.append(t1 - t0)
        ran.append(pos)
        if burst is not None and i % burst_every == 0:
            bursts.append(burst())
        if result is None:
            raised.append(i)
            text = error
        else:
            text = to_text(result)
        digest = hashlib.sha256(text.encode()).digest()
        if i < n:
            outputs.append(text)
            hashes.append(digest)
        elif digest != hashes[pos]:
            mismatch.append(i)
        i += 1

    if tracer is not None and workload != "cli":
        tracer.dump(os.path.join(workdir, "spans", "inproc.json"))
    result = {
        "ops": i,
        "latency_ns": latency,
        "input": ran,
        "outputs": outputs,
        "raised": raised,
        "mismatch": mismatch,
        "reference_ns": bursts,
        "setup_s": setup_s,
        "floor_ns": floors,
        "rss_kb": peak_rss_kb(),
        "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(os.path.join(workdir, f"result-{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
