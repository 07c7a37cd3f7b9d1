"""Per-layer spans recorded from outside the scrollcalc package.

`Tracer.install` replaces every public function of the layer modules,
in every scrollcalc namespace that refers to it, with a wrapper that
opens a span.  A span carries its name, start, end and parent; when it
closes, its self time (duration minus the time covered by its child
spans) is added to its layer and its duration to its parent.  Spans are
folded into these totals as they close rather than kept, so a traced run
needs no memory per call.

Work done inside `Tracer.oracle()` is not traced: the wrappers pass
straight through, and the section's wall time is kept apart as oracle
time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("p1", "cohomology", "extensions", "regularity", "splitting", "bundlespec", "cli")
PACKAGE = "scrollcalc"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_ns")

    def __init__(self, name: str, layer: str, start: int, parent: "Span | None"):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


def _count_degrees(t: "Tracer", span: Span, args, result) -> None:
    t.counts["p1.degrees_materialised"] += result.rank


def _count_bytes(t: "Tracer", span: Span, args, result) -> None:
    t.counts["bundlespec.bytes_parsed"] += len(args[0].encode())


def _count_node(t: "Tracer", span: Span, args, result) -> None:
    t.counts["extensions.forced"] += result.forced
    if span.parent is not None and span.parent.layer == "splitting":
        t.counts["splitting.probe_evals"] += 1


def _count_window_probe(t: "Tracer", span: Span, args, result) -> None:
    if span.parent is not None and span.parent.name == "regularity.reg":
        t.counts["regularity.window_probes"] += 1


def _count_twists(t: "Tracer", span: Span, args, result) -> None:
    t.counts["splitting.twists_scanned"] += len(result)


_OBSERVERS = {
    "p1.sym_decompose": _count_degrees,
    "bundlespec.parse_bundle_spec": _count_bytes,
    "extensions.extension_cohomology": _count_node,
    "regularity.is_pp_regular": _count_window_probe,
    "splitting.violating_twists": _count_twists,
}


class Tracer:
    def __init__(self):
        self.current: Span | None = None
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.oracle_ns = 0
        self.suspended = False
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, time.perf_counter_ns(), self.current)
        self.current = span
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self.current = span.parent
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns
        self.self_ns[span.layer] += span.self_ns
        self.calls[span.name] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, e.g. one query."""
        span = self._open(name, "bench")
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def oracle(self):
        """Run oracle checks untraced and count their time apart."""
        start = time.perf_counter_ns()
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False
            self.oracle_ns += time.perf_counter_ns() - start

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, span, args, result)
                return result
            finally:
                self._close(span)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
