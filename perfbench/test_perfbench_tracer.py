"""The outside-in tracer, on a small package built for the test.

The counts asserted here are those of the synthetic package, not of
qutrit3d, so that a change to the library's call structure never breaks
the benchmark's own tests; the traced run prints qutrit3d's counts.
"""

import importlib
import os
import sys
import textwrap

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
from metrics import SpanStats  # noqa: E402

PACKAGE = {
    "__init__.py": "from .a import f\n",
    "a.py": """
        def g(x):
            return 2 * x

        def f(x):
            return g(x) + 1

        def _private(x):
            return g(x)
    """,
    "b.py": """
        from .a import _private, f, g

        def h():
            return f(1) + g(2) + _private(3)
    """,
    "__main__.py": "raise RuntimeError('importing __main__ runs the CLI')\n",
}


@pytest.fixture
def pkg(tmp_path):
    root = tmp_path / "tracedpkg"
    root.mkdir()
    for name, body in PACKAGE.items():
        (root / name).write_text(textwrap.dedent(body))
    sys.path.insert(0, str(tmp_path))
    try:
        yield importlib.import_module("tracedpkg")
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m.split(".")[0] == "tracedpkg"]:
            del sys.modules[name]


def test_install_rebinds_every_name_and_sees_nested_calls(pkg):
    t = tracing.Tracer()
    rebound = tracing.install(t, pkg)
    # f is bound in the package, in a and in b; g in a and b; h in b
    assert rebound == {"a.f": 3, "a.g": 2, "b.h": 1}
    assert "tracedpkg.__main__" not in sys.modules

    import tracedpkg.b

    assert tracedpkg.b.h() == 3 + 4 + 6
    names = [t.names[s[0]] for s in t.spans]
    # h -> f -> g (nested call through a's namespace), h -> g, h -> _private -> g
    assert names == ["b.h", "a.f", "a.g", "a.g", "a.g"]
    parents = [s[3] for s in t.spans]
    assert parents == [-1, 0, 1, 0, 0]
    assert all(s[1] <= s[2] for s in t.spans)


def test_install_twice_does_not_double_wrap(pkg):
    t = tracing.Tracer()
    tracing.install(t, pkg)
    assert tracing.install(t, pkg) == {}
    pkg.f(1)
    assert [t.names[s[0]] for s in t.spans] == ["a.f", "a.g"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        [0, 0, 100, -1],  # op
        [1, 10, 60, 0],  # child of op
        [2, 20, 50, 1],  # grandchild
        [2, 70, 90, 0],  # second child of op
    ]
    assert tracing.self_times(spans) == [100 - 50 - 20, 50 - 30, 30, 20]


def test_span_stats_counts_per_op_and_groups():
    names = ["op", "linalg.eig_hermitian3", "state.validate", "cli.report_text"]
    spans = [
        [0, 0, 1000, -1],
        [2, 0, 600, 0],
        [1, 0, 300, 1],
        [1, 300, 500, 1],
        [3, 600, 700, 0],
        [0, 1000, 1500, -1],
        [1, 1000, 1400, 5],
    ]
    stats = SpanStats()
    stats.add(names, spans, tracing.self_times(spans))
    assert stats.ops == 2
    assert stats.op_calls == [
        {"state.validate": 1, "linalg.eig_hermitian3": 2, "cli.report_text": 1},
        {"linalg.eig_hermitian3": 1},
    ]
    m = stats.layer_metrics(import_ms=1.0, floor_ms=2.0, overhead_frac=0.0)
    assert m["linalg.eig_hermitian3.calls_per_op"] == 1.5
    assert m["linalg.eig_hermitian3.self_us_per_call"] == pytest.approx(0.3)
    assert m["state.validate.self_us_per_call"] == pytest.approx(0.1)
    assert m["cli.render.self_ms_per_op"] == pytest.approx(50e-6)
    assert m["linalg.eigvals_hermitian4.self_us_per_call"] == 0.0


def test_dump_and_load_round_trip(tmp_path):
    t = tracing.Tracer()
    double = t.wrap("x.double", lambda v: 2 * v)
    assert double(4) == 8
    path = tmp_path / "spans.json"
    t.dump(str(path))
    names, spans = tracing.load_spans(str(path))
    assert names == ["x.double"] and len(spans) == 1 and spans[0][3] == -1
