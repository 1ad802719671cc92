"""Span tracing of the kgsig layers from outside the package.

`install_tracer` replaces every public function and method of the kgsig
layer modules by a wrapper, in each kgsig module that binds it (so
`kgsig.cli.spacetime_gram` and `kgsig.signature.spacetime_gram` are both
traced), and `Tracer.restore` puts the originals back. Each wrapper call
records one span `(span_id, name, start, end, parent_id, iteration)` in
memory; `layer_times` turns a span list into per-layer call counts, total
and self times. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = (
    "cli",
    "config",
    "lattice",
    "dynamics",
    "symplectic",
    "random_fields",
    "massfamily",
    "signature",
    "state",
    "minkowski",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Holds the span list, the open-span stack and the installed patches."""

    def __init__(self, iteration: int = 0) -> None:
        self.iteration = iteration
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.arg_ids: dict[str, dict[int, object]] = {}
        self._stack: list[int] = [-1]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func, track_first_arg: bool = False):
        """Wrapper of `func` that records a span named `name` per call.

        With `track_first_arg`, the identity of the first argument is kept
        (with a reference, so ids are never reused) to count distinct inputs.
        """
        seen = self.arg_ids.setdefault(name, {}) if track_first_arg else None
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            if seen is not None and args:
                seen.setdefault(id(args[0]), args[0])
            stack.append(span_id)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.iteration))

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_tracer(tracer: Tracer, track_first_arg: tuple[str, ...] = ()) -> None:
    """Wrap the public functions and methods of every kgsig layer module.

    A function gets one wrapper, named after its defining layer, which is
    bound in every layer module that imports it; public methods of classes
    defined in a layer are wrapped on the class.
    """
    modules = {layer: importlib.import_module(f"kgsig.{layer}") for layer in LAYERS}
    wrappers: dict[object, object] = {}

    def wrapper_for(func, name):
        if func not in wrappers:
            wrappers[func] = tracer.wrap(name, func, name in track_first_arg)
        return wrappers[func]

    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if not inspect.isclass(value) or value.__module__ != module.__name__:
                continue
            for meth, func in list(vars(value).items()):
                if not meth.startswith("_") and isinstance(func, types.FunctionType):
                    name = f"{layer}.{value.__name__}.{meth}"
                    tracer.patch(value, meth, wrapper_for(func, name))
    for module in modules.values():
        for attr, func in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(func, types.FunctionType):
                continue
            home = func.__module__.rpartition(".")[2]
            if func.__module__ == f"kgsig.{home}" and home in modules:
                tracer.patch(module, attr, wrapper_for(func, f"{home}.{func.__name__}"))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per-layer `calls`, `total_s` and `self_s` from a list of spans.

    A span's self time is its duration minus the part of its interval that
    its child spans cover. A layer's total time sums its outermost spans
    only (those with no ancestor in the same layer), so recursion and calls
    within one layer are not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for span_id, name, start, end, parent, _ in spans:
        layer = layer_of(name)
        row = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children.get(span_id, []), start, end)
        ancestor = by_id.get(parent)
        while ancestor is not None and layer_of(ancestor[1]) != layer:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            row["total_s"] += end - start
    return out
