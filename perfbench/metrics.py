"""Metric names, units and how each one is computed.

BENCHMARK.json lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

import math
import statistics

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics from the traced run.  Span names are "<module>.<function>";
# a group sums the self time of several spans.
GROUPS = {
    "geometry.export": ("geometry.scene_to_dict", "geometry.export_scene_json",
                        "geometry.export_scene_obj"),
    "cli.render": ("cli.report_text", "cli.report_dict", "cli.json.dumps"),
}
PER_LAYER = (
    ("linalg.eig_hermitian3.calls_per_op", "count", "lower"),
    ("linalg.eig_hermitian3.self_us_per_call", "us", "lower"),
    ("linalg.eigvals_hermitian4.calls_per_op", "count", "lower"),
    ("linalg.eigvals_hermitian4.self_us_per_call", "us", "lower"),
    ("state.validate.self_us_per_call", "us", "lower"),
    ("state.classify_rank.self_us_per_call", "us", "lower"),
    ("state.decompose.calls_per_op", "count", "lower"),
    ("geometry.build_scene.calls_per_op", "count", "lower"),
    ("geometry.build_scene.self_us_per_call", "us", "lower"),
    ("geometry.export.self_ms_per_op", "ms", "lower"),
    ("dynamics.trajectory.self_ms_per_op", "ms", "lower"),
    ("spin1.to_two_qubit.calls_per_op", "count", "lower"),
    ("spin1.self_ms_per_op", "ms", "lower"),
    ("cli.build_report.self_us_per_call", "us", "lower"),
    ("cli.render.self_ms_per_op", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.floor_ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
# The workloads that call the package in the worker; cli starts a child
# process per operation.  In these a latency sample is one input's fastest
# repeat (best_of_repeats).  A cli input repeats only about three times in
# a run, too few for a fastest repeat, so the cli samples are every
# invocation.  All time metrics are divided by the run's slowdown against
# a reference (reference.py).
IN_PROCESS = ("analyze", "evolve", "bridge")
# The tail is the highest percentile of the ladder 50, 75, 90, 95, 99, 99.9
# with at least ten samples beyond it, fixed per workload so that a faster or
# slower program is compared at the same percentile.
TAIL = {"analyze": 90.0, "evolve": 90.0, "bridge": 75.0, "cli": 75.0}
TAIL_BEYOND = 10


def tail(samples_ns: list[int], percentile: float) -> tuple[float, int]:
    """(value in ns, samples beyond it) at the given percentile, nearest rank."""
    xs = sorted(samples_ns)
    k = min(len(xs) - 1, max(0, math.ceil(percentile / 100.0 * len(xs)) - 1))
    return float(xs[k]), len(xs) - 1 - k


def best_of_repeats(values: list[int], ran: list[int], n: int) -> list[int]:
    """Each of the n inputs' fastest value over its repeats; op i ran input ran[i].

    Repeats of one input do the same work, so the spread between them is
    time lost to other tenants of the machine, which comes in phases of
    seconds that no run length averages away.
    """
    best: list = [None] * n
    for value, k in zip(values, ran):
        if best[k] is None or value < best[k]:
            best[k] = value
    return best


def samples(workload: str, result: dict, n: int) -> list[int]:
    """The run's latency samples as measured, in ns."""
    lat = result["latency_ns"]
    return best_of_repeats(lat, result["input"], n) if workload in IN_PROCESS else lat


def end_to_end(workload: str, samples_ns: list[float], setup_s: float,
               result: dict) -> dict[str, float]:
    """The END_TO_END metrics from the latency samples and the set-up time."""
    tail_ns, _ = tail(samples_ns, TAIL[workload])
    return {
        "ops_per_s": len(samples_ns) / (sum(samples_ns) / 1e9),
        "latency_p50_ms": statistics.median(samples_ns) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": result["rss_kb" if workload in IN_PROCESS else "children_rss_kb"] / 1024.0,
    }


class SpanStats:
    """Call counts and self time per span name, over one or more span files."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.op_calls: list[dict[str, int]] = []  # per op: calls per span name

    def add(self, names: list[str], spans: list[list[int]], self_ns: list[int]) -> None:
        op_of = [-1] * len(spans)
        for i, span in enumerate(spans):
            name = names[span[0]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + self_ns[i]
            if name == "op":
                op_of[i] = len(self.op_calls)
                self.op_calls.append({})
            elif span[3] >= 0:
                op_of[i] = op_of[span[3]]
                if op_of[i] >= 0:
                    per = self.op_calls[op_of[i]]
                    per[name] = per.get(name, 0) + 1

    @property
    def ops(self) -> int:
        return len(self.op_calls)

    def group_self_ns(self, names) -> int:
        return sum(self.self_ns.get(n, 0) for n in names)

    def per_call_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_ns.get(name, 0) / calls / 1e3 if calls else 0.0

    def per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / self.ops

    def layer_metrics(self, import_ms: float, floor_ms: float,
                      overhead_frac: float) -> dict[str, float]:
        """The PER_LAYER metrics; the last three are measured outside the spans."""
        spin1 = [n for n in self.calls if n.startswith("spin1.")]

        def per_op_ms(names) -> float:
            return self.group_self_ns(names) / self.ops / 1e6

        return {
            "linalg.eig_hermitian3.calls_per_op": self.per_op("linalg.eig_hermitian3"),
            "linalg.eig_hermitian3.self_us_per_call": self.per_call_us("linalg.eig_hermitian3"),
            "linalg.eigvals_hermitian4.calls_per_op": self.per_op("linalg.eigvals_hermitian4"),
            "linalg.eigvals_hermitian4.self_us_per_call":
                self.per_call_us("linalg.eigvals_hermitian4"),
            "state.validate.self_us_per_call": self.per_call_us("state.validate"),
            "state.classify_rank.self_us_per_call": self.per_call_us("state.classify_rank"),
            "state.decompose.calls_per_op": self.per_op("state.decompose"),
            "geometry.build_scene.calls_per_op": self.per_op("geometry.build_scene"),
            "geometry.build_scene.self_us_per_call": self.per_call_us("geometry.build_scene"),
            "geometry.export.self_ms_per_op": per_op_ms(GROUPS["geometry.export"]),
            "dynamics.trajectory.self_ms_per_op": per_op_ms(["dynamics.trajectory"]),
            "spin1.to_two_qubit.calls_per_op": self.per_op("spin1.to_two_qubit"),
            "spin1.self_ms_per_op": per_op_ms(spin1),
            "cli.build_report.self_us_per_call": self.per_call_us("cli.build_report"),
            "cli.render.self_ms_per_op": per_op_ms(GROUPS["cli.render"]),
            "cli.import_ms": import_ms,
            "cli.floor_ms": floor_ms,
            "trace.overhead_frac": overhead_frac,
        }
