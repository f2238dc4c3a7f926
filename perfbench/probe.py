"""Fresh-interpreter probes for set-up and import time.

    python3 probe.py setup ROOT WORKLOAD WORKDIR
        imports qutrit3d, runs one warm-up operation on WORKDIR/warmup.json
        and prints "ready"; the caller times it from process start.
    python3 probe.py import ROOT
        prints the milliseconds a fresh ``import qutrit3d.cli`` takes once
        numpy is already loaded, i.e. the package's own import cost.
"""

import json
import os
import sys
import time


def setup(root: str, workload: str, workdir: str) -> None:
    from worker import import_package

    import_package(root)
    import ops

    with open(os.path.join(workdir, "warmup.json"), "r", encoding="utf-8") as fh:
        item = json.load(fh)
    if workload == "cli":
        ops.cli_inprocess(item["argv"], workdir)
    else:
        fn = {"analyze": ops.analyze, "evolve": ops.evolve, "bridge": ops.bridge}[workload]
        fn(ops.prepare(workload, item))
    print("ready", flush=True)


def import_ms(root: str) -> None:
    import numpy  # noqa: F401  (the floor is measured separately)

    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import qutrit3d.cli  # noqa: F401

    print(repr((time.perf_counter() - t0) * 1e3), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:5])
    else:
        import_ms(sys.argv[2])
