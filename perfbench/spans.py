"""In-memory spans recorded by the benchmark around its calls into greenlite.

A span is [name, start, end, parent, image]: wall-clock seconds from
time.perf_counter, the index of the enclosing span (-1 at top level) and the
id of the image it served (None for set-up and evaluation work). Spans stay in
memory while the workload runs and are written out once at the end.

A span's self time is its duration minus the part its child spans cover.
Children of one span run one after another, so that part is the sum of their
durations.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    """Records spans; `NullTracer` is the untraced stand-in with the same calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, image: int | None = None):
        parent = self._stack[-1] if self._stack else -1
        if image is None and parent >= 0:
            image = self.spans[parent][4]
        rec = [name, time.perf_counter(), 0.0, parent, image]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def layer_hook(self, layers, name_of):
        """A `greenlite.forward(..., hook=)` callback that records one child
        span per layer of the enclosing span: the interval between two hook
        calls goes to the layer that just ran."""
        parent = self._stack[-1]
        image = self.spans[parent][4]
        prev = [time.perf_counter()]

        def hook(idx, _out) -> None:
            now = time.perf_counter()
            self.spans.append([name_of(layers[idx].kind), prev[0], now, parent, image])
            prev[0] = now

        return hook

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_image_self(self) -> dict[int, dict[str, float]]:
        """image id -> span name -> summed self time (s) of that image's spans."""
        out: dict[int, dict[str, float]] = {}
        for rec, own in zip(self.spans, self.self_times()):
            if rec[4] is not None:
                names = out.setdefault(rec[4], {})
                names[rec[0]] = names.get(rec[0], 0.0) + own
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        """Median duration of the spans with this name, 0 when there are none."""
        d = self.durations(name)
        return statistics.median(d) * 1e3 if d else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, image in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "image": image}) + "\n")


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str, image: int | None = None):
        return self._null

    def layer_hook(self, layers, name_of):
        return None
