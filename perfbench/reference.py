"""A fixed reference kernel that tells how fast the machine runs right now.

A burst is the same kind of work the package does, small numpy calls
from Python (a 3x3 ``eigvalsh``, a product and a trace, REPS times), done
without the package, so no change to ``qutrit3d`` moves it.  It lasts a
few hundred microseconds, like the shorter operations, so it slips into a
quiet moment no more easily than they do.  The worker times one burst
after every operation.  The run's *level* is the median over the inputs
of each input's fastest burst: the estimator that best_of_repeats applies
to the operations, applied to the reference.

The host's tenants slow it down in phases that last from seconds to
minutes, by up to 1.7 times.  Over runs of one program the operations'
fastest repeats scale with the level, so the in-process time metrics are
reported at a fixed level, QUIET_US: divided by the run's slowdown,
level / QUIET_US.  On the 2-vCPU host of README.md, over 15 stretches of
10 s of `bridge` whose level moved between 265 and 440 us, that took the
spread of ops_per_s from 38% to 4% (distance between quartiles over the
median).

    python3 perfbench/reference.py     # the fastest burst on this machine
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from metrics import IN_PROCESS, best_of_repeats

# The level the in-process time metrics are reported at: about the fastest
# burst on the 2-vCPU host the bounds were set on (Intel Xeon, CPython 3.11,
# numpy 2.4, one BLAS thread).  It is a fixed unit: changing it rescales
# every reported time, so it stays the same from one version to the next.
QUIET_US = 250.0
# The same for process starts: the wall time of a fresh interpreter that
# imports numpy (worker.floor_ns) is reported at FLOOR_MS.  Each cli
# invocation is scaled by the floor probes around it (at_fixed_level), and
# every workload's setup_s by the median of its run's (setup_at_fixed_level).
FLOOR_MS = 150.0
REPS = 20
WARM = 5
_A = np.array([[2.0, 1.0 - 0.5j, 0.25j], [1.0 + 0.5j, -1.0, 0.5], [-0.25j, 0.5, 0.5]])


def _step() -> float:
    return float(np.trace(_A @ _A).real + np.linalg.eigvalsh(_A)[0])


def burst_ns() -> int:
    """REPS timed steps, after WARM untimed ones that refill the caches an
    operation, or for cli its child process, left cold.  The collector is
    off, so objects the program keeps alive do not slow the burst."""
    enabled = gc.isenabled()
    gc.disable()
    for _ in range(WARM):
        _step()
    t0 = time.perf_counter_ns()
    for _ in range(REPS):
        _step()
    t1 = time.perf_counter_ns()
    if enabled:
        gc.enable()
    return t1 - t0


def setup_at_fixed_level(result: dict) -> tuple[float, str]:
    """The median set-up probe at FLOOR_MS, and how it was scaled.

    Each set-up probe is followed by a floor probe; the median of the set-up
    times is divided by the median of the floor times / FLOOR_MS.
    """
    setup = statistics.median(result["setup_s"])
    floor_ms = statistics.median(result["floor_ns"]) / 1e6
    return setup * FLOOR_MS / floor_ms, (
        f"median of {len(result['setup_s'])} set-up probes {setup!r} s as measured, "
        f"median fresh numpy interpreter {floor_ms!r} ms (FLOOR_MS {FLOOR_MS:g})")


def at_fixed_level(workload: str, result: dict, n: int,
                   samples_ns: list[int]) -> tuple[list[float], str]:
    """The latency samples at the fixed level, and how they were scaled.

    In process, every sample is divided by the run's slowdown, level_us /
    QUIET_US.  For cli, where a floor probe followed every other invocation,
    each invocation is divided by the median of the (up to) three floor
    probes around it / FLOOR_MS, since a phase of the machine can begin or
    end within a run.
    """
    if workload in IN_PROCESS:
        level = level_us(result["reference_ns"], result["input"], n)
        return [x * QUIET_US / level for x in samples_ns], (
            f"reference level {level!r} us, slowdown {level / QUIET_US!r} (QUIET_US {QUIET_US:g})")
    floors = result["reference_ns"]
    local = [statistics.median(floors[max(0, i // 2 - 1):i // 2 + 2]) / 1e6
             for i in range(len(samples_ns))]
    return [x * FLOOR_MS / ms for x, ms in zip(samples_ns, local)], (
        f"each invocation against the fresh numpy interpreters around it, median "
        f"{statistics.median(floors) / 1e6!r} ms (FLOOR_MS {FLOOR_MS:g})")


def level_us(bursts_ns: list[int], ran: list[int], n: int) -> float:
    """Median over the n inputs of each one's fastest burst; burst i followed op i,
    which ran input ran[i]."""
    return statistics.median(best_of_repeats(bursts_ns, ran, n)) / 1e3


if __name__ == "__main__":
    bursts = [burst_ns() for _ in range(2000)]
    print(f"fastest burst {min(bursts) / 1e3:.1f} us (QUIET_US {QUIET_US:g})")
