"""In-memory span recorder for the traced benchmark run (stdlib only).

A span has a name, a start, an end and a parent. The first dotted part of
the name is the layer it belongs to (``adt``, ``prediction``, ``costs``,
``search``, ``sampling``, ``cli``, or ``bench`` for the harness itself).
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter

_OFF = nullcontext()


class NullRecorder:
    """Recorder used for end-to-end runs: every span is a shared no-op."""

    enabled = False

    def span(self, name: str):
        return _OFF


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        parent = rec._stack[-1] if rec._stack else -1
        self.idx = len(rec.spans)
        rec.spans.append([self.name, perf_counter(), 0.0, parent])
        rec._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.idx][2] = perf_counter()
        rec._stack.pop()
        return False


class Recorder:
    """Collects nested spans as [name, start, end, parent index] rows."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)


def write_jsonl(recorders: list[Recorder], path) -> None:
    """One JSON line per span; `batch` numbers the recorders and `parent`
    indexes spans within the same batch."""
    with open(path, "w", encoding="utf-8") as fh:
        for batch, rec in enumerate(recorders):
            for name, start, end, parent in rec.spans:
                fh.write(json.dumps({"batch": batch, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Spans come from one thread, so children never overlap each other."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def durations(spans: list[list], name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


class TracedCost:
    """Stands in for a ``CostFunction`` handed to the optimizer and records
    one ``costs.eval`` span per evaluation. ``optimize`` only reads these
    attributes and calls the object."""

    def __init__(self, cost, rec: Recorder):
        self._cost = cost
        self._rec = rec
        self.label = cost.label
        self.universe = cost.universe
        self.targets = cost.targets
        self.pinned = cost.pinned

    def __call__(self, size, probs):
        with self._rec.span("costs.eval"):
            return self._cost(size, probs)
