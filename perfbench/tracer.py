"""Outside-in tracer for the qutrit3d package.

Every public function of every ``qutrit3d`` module is wrapped once, and
every module-namespace name that refers to it (found by object identity,
so re-exports and ``from .x import f`` bindings are included) is rebound
to the wrapper.  Nested calls inside the package therefore go through the
wrappers too.  Nothing under ``src/`` is edited; an untraced run simply
never calls :func:`install`.

Spans are kept in memory as ``[name_id, start_ns, end_ns, parent_index]``
and written out once, when the run ends.  Self time is derived from them
afterwards: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
import types

# Importing qutrit3d.__main__ runs the CLI, so it is never imported here.
SKIP_MODULES = ("__main__",)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped_by_tracer__ = True
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def package_modules(package) -> list[types.ModuleType]:
    """The package itself plus every submodule except the ones in SKIP_MODULES."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name in SKIP_MODULES:
            continue
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def install(tracer: Tracer, package) -> dict[str, int]:
    """Wrap the public functions of ``package`` and rebind every name for them.

    Returns how many namespace bindings were rebound per span name, so a
    caller can check that re-exports were found.
    """
    modules = package_modules(package)
    wrappers: dict[int, tuple] = {}  # id(function) -> (function, wrapper, span name)
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if (
                name.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or getattr(obj, "__wrapped_by_tracer__", False)
            ):
                continue
            span_name = f"{short}.{name}"
            wrappers[id(obj)] = (obj, tracer.wrap(span_name, obj), span_name)
    rebound: dict[str, int] = {}
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                rebound[hit[2]] = rebound.get(hit[2], 0) + 1
    return rebound


def wrap_json_dumps(tracer: Tracer, module, name: str) -> None:
    """Give ``module`` a private ``json`` whose ``dumps`` records spans called ``name``."""
    proxy = types.SimpleNamespace(**vars(module.json))
    proxy.dumps = tracer.wrap(name, module.json.dumps)
    module.json = proxy


def load_spans(path: str) -> tuple[list[str], list[list[int]]]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return data["names"], data["spans"]


def self_times(spans: list[list[int]]) -> list[int]:
    """Per-span self time in ns: duration minus the direct children's durations."""
    own = [s[2] - s[1] for s in spans]
    out = list(own)
    for s, dur in zip(spans, own):
        if s[3] >= 0:
            out[s[3]] -= dur
    return out
