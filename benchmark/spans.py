"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start and end (perf_counter
seconds) and the index of the span that was open around it. Spans stay in
memory until the run ends and are then written out as one JSON file.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def has(self, name: str) -> bool:
        return any(s["name"] == name for s in self.spans)

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: Path, info: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"info": info, "counts": self.counts, "spans": self.spans}
        path.write_text(json.dumps(payload, indent=0) + "\n", encoding="utf-8")
