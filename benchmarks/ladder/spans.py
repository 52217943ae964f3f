"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions; nothing inside ``repro`` is instrumented.  They
stay in memory until the run ends and are then written out once.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Collects ``{id, name, start, end, parent, workload}`` spans."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict]:
        """Time the enclosed block; the enclosing open span is its parent."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Dict[int, float]:
        """Each span's duration minus the part its child spans cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def dump(self, path: Path, extra: Optional[Dict] = None) -> None:
        own = self.self_seconds()
        spans = [{**s, "self_s": own[s["id"]]} for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**(extra or {}), "spans": spans}, indent=1))


def duration(span: Dict) -> float:
    return span["end"] - span["start"]
