"""Spans recorded from outside the program, at opdyn's module boundaries.

``install`` replaces public opdyn functions, wherever a module holds them
as attributes, and ``matrix_at`` on the schedule classes, with wrappers that
open a span around the call. A span records its name, start, end and the
span that was open when it started (its parent). Spans stay in memory, in
flat arrays, until the run ends; ``Tracer.segment`` starts a new segment
(set-up, then one per pass) so that each pass can be summed on its own.

Counts are recorded at the same boundaries, from the wrapped call's
arguments and result, into the current segment. ``opdyn.rng`` has no
boundary that can be crossed from outside: its cost shows inside
``graph.random_matrix``, ``graph.matrix_at`` and
``scenario.initial_opinions``.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import Counter, defaultdict

import opdyn
from opdyn import analysis, cli, dynamics, graph, scenario

MODULES = (opdyn, graph, dynamics, analysis, scenario, cli)
SCHEDULE_CLASSES = (graph.StaticSchedule, graph.PeriodicSchedule, graph.RandomSchedule)


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.segments: list[tuple[str, int, Counter]] = []
        self.segment("set-up")

    def segment(self, label: str) -> None:
        self.segments.append((label, len(self.start), Counter()))

    @property
    def counts(self) -> Counter:
        return self.segments[-1][2]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a span; returns its index."""
        self.name.append(self._intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def _begin(self, name_id: int) -> int:
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        idx = len(self.start) - 1
        self._open.append(idx)
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        idx = self._begin(self._intern(name))
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn, count=None):
        name_id = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return traced

    def totals(self, k: int) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name over segment ``k``.

        Self time is a span's duration minus the durations of its children.
        """
        lo = self.segments[k][1]
        hi = self.segments[k + 1][1] if k + 1 < len(self.segments) else len(self.start)
        spans = range(lo, hi)
        child_time = defaultdict(float)
        for i in spans:
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i in spans:
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            inclusive[name] += d
            own[name] += d - child_time[i]
        return dict(inclusive), dict(own)


# ---------------------------------------------------------------------------
# Counters taken at the wrapped boundaries
# ---------------------------------------------------------------------------

def _count_calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _count_simulate(counts, args, kwargs, record):
    counts["dynamics.runs"] += 1
    counts["dynamics.steps"] += record.steps
    if record.stop_reason in ("consensus", "target"):
        counts["dynamics.converged_runs"] += 1
    if record.states is not None:
        counts["dynamics.states_bytes"] = max(counts["dynamics.states_bytes"],
                                              record.states.shape[0] * record.n * 8)


def _count_csv(counts, args, kwargs, result):
    record, path = args[0], args[1]
    counts["dynamics.csv_rows"] += record.states.shape[0]
    counts["dynamics.csv_bytes"] += os.path.getsize(path)


# Span name, owning module, attribute, counter.
FUNCTIONS = (
    ("scenario.load", scenario, "load_scenario", None),
    ("scenario.initial_opinions", scenario, "initial_opinions", None),
    ("scenario.build_schedule", scenario, "build_schedule", None),
    ("scenario.rjsc", scenario, "schedule_rjsc_status", None),
    ("scenario.write_summary", scenario, "write_summary", None),
    ("graph.random_matrix", graph, "random_strongly_connected_matrix",
     _count_calls("graph.random_matrix_calls")),
    ("graph.connectivity", graph, "verify_repeated_joint_connectivity", None),
    ("dynamics.simulate", dynamics, "simulate", _count_simulate),
    ("dynamics.write_csv", dynamics, "write_trajectory_csv", _count_csv),
    ("analysis.check_lemmas", analysis, "check_lemmas", None),
    ("analysis.estimate_rate", analysis, "estimate_rate", None),
    ("analysis.classify", analysis, "classify_limit", None),
    ("analysis.stationary", analysis, "stationary_weights", None),
)


def install(tracer: Tracer):
    """Wrap every traced boundary; returns a function that undoes it."""
    undo = []
    for name, owner, attr, count in FUNCTIONS:
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, count)
        for module in MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, value))
                    setattr(module, key, traced)
    count = _count_calls("graph.matrix_at_calls")
    for cls in SCHEDULE_CLASSES:
        original = cls.__dict__["matrix_at"]
        undo.append((cls, "matrix_at", original))
        setattr(cls, "matrix_at", tracer.wrap("graph.matrix_at", original, count))

    def uninstall():
        for target, key, value in reversed(undo):
            setattr(target, key, value)
    return uninstall
