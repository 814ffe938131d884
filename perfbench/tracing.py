"""Spans and work counts recorded around the benchmark's calls into helikin.

A span is one call from the benchmark into a public helikin function:
(id, parent id, name, start ns, end ns, failed). Every call span's parent
is the root span of the op (or probe) that made it, so the spans of one op
share that root's id. Spans stay in memory and are written out once, after
the run. A call span has no children, so its self time is its duration;
a root span's self time is the benchmark's own glue between calls.

Work counts are derived from each call's inputs and outputs (for example
the number of points a forward-kinematics call returned) and are reported
as *computed*: the package does not count them itself.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace


def plain(calls: dict) -> SimpleNamespace:
    """The functions in ``calls`` unwrapped, for untimed-overhead use."""
    return SimpleNamespace(**{_attr(name): fn for name, (fn, _) in calls.items()})


def _attr(name: str) -> str:
    return name.rsplit(".", 1)[1]


class Tracer:
    """Records spans for wrapped calls and the roots that enclose them."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int, bool]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._next_id = 0
        self._parent: int | None = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def bind(self, calls: dict) -> SimpleNamespace:
        """Wrap each ``name: (fn, counter)``; ``counter(args, out)`` gives work counts."""
        return SimpleNamespace(
            **{_attr(name): self._wrap(name, fn, counter) for name, (fn, counter) in calls.items()}
        )

    def _wrap(self, name, fn, counter):
        spans, counts = self.spans, self.counts

        def traced(*args, **kwargs):
            span_id = self._new_id()
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, self._parent, name, start, perf_counter_ns(), True))
                raise
            spans.append((span_id, self._parent, name, start, perf_counter_ns(), False))
            if counter is not None:
                for key, value in counter(args, out).items():
                    counts[name, key] += value
            return out

        return traced

    @contextmanager
    def root(self, name: str):
        """Root span for one op or probe; wrapped calls inside become its children."""
        span_id = self._new_id()
        self._parent = span_id
        start = perf_counter_ns()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._parent = None
            self.spans.append((span_id, None, name, start, perf_counter_ns(), failed))

    def roots(self, name: str) -> dict[int, int]:
        """Duration in ns of every root span called ``name``, by span id."""
        return {s[0]: s[4] - s[3] for s in self.spans if s[1] is None and s[2] == name}

    def calls_under(self, root_name: str) -> dict[str, dict]:
        """Per function: calls, failed and busy ns of the spans under ``root_name`` roots."""
        roots = self.roots(root_name)
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "failed": 0, "busy_ns": 0})
        for _, parent, name, start, end, failed in self.spans:
            if parent in roots:
                row = table[name]
                row["calls"] += 1
                row["failed"] += failed
                row["busy_ns"] += end - start
        return dict(table)

    def durations(self, name: str) -> list[int]:
        """Duration in ns of every call span called ``name``."""
        return [s[4] - s[3] for s in self.spans if s[2] == name and s[1] is not None]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "parent", "name", "start_ns", "end_ns", "failed"])
            writer.writerows(self.spans)
