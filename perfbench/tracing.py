"""Spans around energysched's public layer functions, recorded from outside.

Every call site inside ``src/energysched`` reaches these functions through a
module attribute (``lp.build_lp``, ``simplex.solve``, ...), so replacing the
attribute with a timing wrapper records each call without editing the
program.  Spans stay in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

#: module of ``energysched`` -> the public functions wrapped in it
LAYERS = {
    "instance": ("generate", "load", "validate"),
    "timegrid": ("build_grid",),
    "lp": ("build_lp", "solve_lp", "lp_dump"),
    "simplex": ("solve",),
    "rounding": ("saias", "saias_t"),
    "evaluate": ("cost",),
    "oracle": ("brute_force",),
    "pipeline": ("run",),
    "cli": ("main",),
}

#: counts read off a call's return value at the span boundary
_COUNTS = {"simplex.solve": lambda result: {"iterations": result.iterations}}


@dataclass
class Span:
    id: int
    name: str                # "<module>.<function>"
    parent: int | None       # id of the enclosing span
    instance: int | None     # loop position of the instance; None during set-up
    start: float
    end: float = 0.0
    error: str | None = None  # exception type name when the call raised
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that wraps every function in ``LAYERS`` while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance: int | None = None
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"energysched.{module_name}")
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{module_name}.{name}", original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                name=name,
                parent=self._stack[-1] if self._stack else None,
                instance=self.instance,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name in _COUNTS:
                span.counts = _COUNTS[name](result)
            return result

        return traced


@dataclass(frozen=True)
class Totals:
    """Per-name sums over a set of spans."""

    seconds: dict
    self_seconds: dict       # duration minus the time covered by child spans
    calls: Counter
    errors: Counter          # (name, exception type) -> count
    counts: Counter          # summed ``Span.counts`` values, keyed "<name>.<count>"


def totals(spans: list[Span]) -> Totals:
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    seconds, self_seconds = defaultdict(float), defaultdict(float)
    calls, errors, counts = Counter(), Counter(), Counter()
    for span in spans:
        seconds[span.name] += span.seconds
        self_seconds[span.name] += span.seconds - covered[span.id]
        calls[span.name] += 1
        if span.error:
            errors[(span.name, span.error)] += 1
        for key, value in (span.counts or {}).items():
            counts[f"{span.name}.{key}"] += value
    return Totals(seconds, self_seconds, calls, errors, counts)
