"""In-memory spans and the self-time arithmetic over them.

A span has a name, a start, an end, a parent span and a request id.
Spans are appended to flat arrays while a run is traced and written out
when it ends.  Everything runs on one thread, so a span's children never
overlap one another and the time they cover is the sum of their
durations.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request: list[object] = []
        self.current_request: object = None
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        self._open.append(len(self.names))
        self.names.append(name)
        self.parent.append(self._open[-2] if len(self._open) > 1 else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self.start.append(self.clock())

    def finish(self) -> None:
        self.end[self._open.pop()] = self.clock()

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, span count) per span name.

        Self time is a span's duration minus the durations of its
        direct children.
        """
        child_time = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, name in enumerate(self.names):
            self_s[name] += self.end[i] - self.start[i] - child_time[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def top_level_seconds(self) -> float:
        """Time covered by spans without a parent."""
        return sum(
            self.end[i] - self.start[i] for i, p in enumerate(self.parent) if p < 0
        )

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,request\n")
            t0 = self.start[0] if self.names else 0.0
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                    f"{self.parent[i]},{self.request[i]}\n"
                )


class _NoSpans:
    """Stands in for a Tracer in untraced passes."""

    current_request: object = None

    def begin(self, name: str) -> None:
        pass

    def finish(self) -> None:
        pass


NO_SPANS = _NoSpans()
