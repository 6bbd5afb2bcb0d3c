"""Spans around the benchmark's calls into the program's layers.

A span is (id, name, start, end, parent): ``parent`` is the id of the
span that was open when this one started. Spans are kept in memory and
written out once, when the run ends. With tracing off, ``span`` only
runs the body, so the untraced run pays one context manager per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name`` recorded after index ``since``."""
        return sum(s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
