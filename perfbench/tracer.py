"""Span recorder that wraps the program's public functions from outside.

``install`` replaces every public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span and
operation id.  The replacement is made in every module of the package that
holds the function, so names imported elsewhere (``sweep.blowup_tower``,
``ringlab.is_stable``) are traced too.  Generator functions get one span per
resume, because their work happens while they are iterated.  Spans stay in
memory until ``dump`` writes them out; ``self_times`` turns them into
per-name self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "stablerings"
LAYERS = ("numsg", "relideal", "ringlab", "sweep", "quadalg", "idealization", "cli")
# extra methods traced under a short name: (module, class, method, span name)
METHODS = (("idealization", "TruncatedSeries", "__mul__", "idealization.series_mul"),)
# the only spans of the "outer" level: run_sweep and its per-semigroup task
OUTER = ("sweep.run_sweep", "sweep.analyze_semigroup")


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []  # [name index, start, end, parent, op]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn, observe=None):
        """A stand-in for ``fn`` that records a span around each call."""
        key = self._index(name)
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.op]
                    spans.append(span)
                    stack.append(idx)
                    span[1] = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[2] = clock()
                        stack.pop()
                    yield item

            traced = traced_gen
        else:

            def traced_call(*args, **kwargs):
                calls[name] += 1
                idx = len(spans)
                span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.op]
                spans.append(span)
                stack.append(idx)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if observe is not None:
                    observe(self.counts, result)
                return result

            traced = traced_call
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "calls": dict(self.calls),
                    "counts": dict(self.counts),
                },
                fh,
            )


def _count_ideals(counts: Counter, report) -> None:
    counts["relideal.normalized_ideals"] += report.ideal_count


def _count_verdict(counts: Counter, verdict) -> None:
    counts["idealization.verdicts"] += 1
    counts["idealization.conclusive"] += verdict.stable is not None


# results read at the boundary where the work happens
OBSERVERS = {
    "ringlab.stable_ring_report": _count_ideals,
    "idealization.is_stable_ideal": _count_verdict,
}


def install(level: str) -> Recorder:
    """Wrap the public functions of every layer (``all``) or only OUTER."""
    rec = Recorder()
    replacements = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if level == "all" or name in OUTER:
                replacements[id(fn)] = rec.wrap(name, fn, OBSERVERS.get(name))
    modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in replacements and inspect.isfunction(value):
                setattr(mod, attr, replacements[id(value)])
    if level == "all":
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            setattr(cls, meth, rec.wrap(name, getattr(cls, meth)))
    return rec


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_times(trace: dict) -> dict[str, float]:
    """Summed self time per span name: duration minus the children's durations.

    Spans come from one thread and nest strictly, so the children of a span
    cover disjoint parts of its interval.
    """
    spans = trace["spans"]
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    names = trace["names"]
    for (key, *_), t in zip(spans, own):
        out[names[key]] = out.get(names[key], 0.0) + t
    return out


def durations(trace: dict, name: str) -> list[float]:
    """Inclusive durations of every span with the given name."""
    key = trace["names"].index(name) if name in trace["names"] else -1
    return [end - start for k, start, end, _, _ in trace["spans"] if k == key]
