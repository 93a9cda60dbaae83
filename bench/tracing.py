"""In-memory spans recorded around calls into the library.

A span has a name, a start and an end, the span that contains it, and
the query it belongs to.  Spans stay in memory until the run ends and
are then written out as JSON lines.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self.query: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "query": self.query,
               "parent": self._open[-1] if self._open else None,
               "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times_ns(self) -> list[int]:
        """Self time of every span, indexed like ``spans``."""
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s, own in zip(self.spans, self.self_times_ns()):
                f.write(json.dumps(dict(s, self_ns=own)) + "\n")
