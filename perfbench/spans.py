"""In-memory spans for the traced run.

A span records a name, its start and end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and the operation it belongs
to.  Spans stay in memory until the run ends; ``write`` saves them as JSON.
With tracing off, ``NullTracer`` hands out one shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class NullTracer:
    op_id = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self):
        # rows: [span_id, name, start, end, parent_id, op_id]
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        row = [sid, name, time.perf_counter(), 0.0, parent, self.op_id]
        self.rows.append(row)
        self._stack.append(sid)
        try:
            yield
        finally:
            row[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.

        Children of one span never overlap (the benchmark is single-threaded),
        so the covered time is the sum of their durations.
        """
        child = [0.0] * len(self.rows)
        for _, _, start, end, parent, _ in self.rows:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[sid] for sid, _, start, end, _, _ in self.rows]

    def self_by_name(self, scale: list[float]) -> dict[str, float]:
        """Total self time per span name, each span scaled by ``scale[op_id]``."""
        out: dict[str, float] = defaultdict(float)
        for row, st in zip(self.rows, self.self_times()):
            out[row[1]] += st * scale[row[5]]
        return dict(out)

    def write(self, path) -> None:
        selfs = self.self_times()
        spans = [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
             "op": op, "self": st}
            for (sid, name, start, end, parent, op), st in zip(self.rows, selfs)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)
