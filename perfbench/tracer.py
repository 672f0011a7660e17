"""Spans around fedcond's public functions, from outside the package.

A `Tracer` wraps a function so every call records a span (name, start, end,
parent span). Spans stay in memory; `summarize` turns them into call counts
and self times once the run is over. A function is patched at every module
binding that refers to it, not only at its definition, because fedcond
modules import each other's functions by name (`federation` calls its own
`loss_and_grad` binding, `experiment` its own `run_strategy`).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Tracer:
    """Records one span per call of each wrapped function.

    `spans` holds `[name, start, end, parent_index]` lists in call order;
    `work` sums a per-call quantity (samples, floating-point operations) that
    a wrapper computes from the call's arguments.
    """

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    work: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def wrap(self, fn, name: str, work=None):
        spans, stack, clock, totals = self.spans, self._stack, self.clock, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                totals[name] = totals.get(name, 0) + work(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


@dataclass
class SpanSummary:
    calls: dict[str, int]
    self_s: dict[str, float]
    root_s: float  # summed duration of the spans that have no parent span


def summarize(spans) -> SpanSummary:
    """Call counts and self times per span name.

    A span's self time is its duration minus the durations of its direct
    children. Spans of one thread never overlap their siblings, so that is
    exactly the part of the interval the children cover.
    """
    covered = [0.0] * len(spans)
    root_s = 0.0
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
        else:
            root_s += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child
    return SpanSummary(calls, self_s, root_s)


def _fedcond_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "fedcond" or key.startswith("fedcond."))]


class Patches:
    """Replaces attributes and puts the originals back on `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement, label: str):
        """Point every module-level binding of `original` in the loaded
        fedcond modules at `replacement`; `sites[label]` lists them."""
        sites = []
        for module in _fedcond_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    sites.append(f"{module.__name__}.{attr}")
        if not sites:
            raise LookupError(f"no binding of {label} found in fedcond")
        self.sites[label] = sites

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
