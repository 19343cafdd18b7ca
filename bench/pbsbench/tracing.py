"""In-memory span tracer that wraps pbsgame's functions from outside the package.

Each wrapped call is either *recorded* as its own span (name, start, end, the
span that caused it, self time) or *aggregated*: below a recorded span, calls
are summed per name as ``[calls, total_ns, self_ns]`` on the nearest recorded
ancestor, so a traced run of thousands of rounds stays small. Self time is a
span's duration minus the time its wrapped children cover. The tracer's own
bookkeeping is charged to neither the call nor its parent's self time.

Wrapping replaces a module or class attribute, so it only sees calls that look
the name up at call time, which is how pbsgame calls its layers.

The tracer's per-call cost is calibrated on a no-op when it is created: the
part that falls inside a call's own interval is subtracted from its duration,
and the part its caller pays outside that interval is charged to the call, not
to the caller's self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from pathlib import Path
from typing import Callable

ROOT_SPAN = "bench.root"


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "child_ns", "calls", "counts")

    def __init__(self, name, span_id=None, parent_id=None, recorded=False):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.child_ns = 0
        # only recorded frames own aggregates and counters
        self.calls = {} if recorded else None
        self.counts = {} if recorded else None


Observer = Callable[[dict, tuple, object], None]


class Tracer:
    """Collects spans while its patches are installed; ``restore`` undoes them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._next_id = 1
        self._root = _Frame(ROOT_SPAN, span_id=0, recorded=True)
        self._stack = [self._root]
        self._patches: list[tuple[object, str, object]] = []
        self._floor_ns = 0
        self._hidden_ns = 0
        self._calibrate()
        self._started_ns = time.perf_counter_ns()

    def _calibrate(self, calls: int = 2000, repeats: int = 7) -> None:
        probe = types.SimpleNamespace(noop=lambda: None)
        raw = probe.noop
        self.wrap(probe, "noop", "calibration")
        wrapped = probe.noop
        root, now = self._root, time.perf_counter_ns
        floors, hidden = [], []
        for _ in range(repeats):
            started = now()
            for _ in range(calls):
                raw()
            plain = (now() - started) / calls
            traced_ns = root.calls.get("calibration", [0, 0, 0])[1]
            footprint = root.child_ns
            started = now()
            for _ in range(calls):
                wrapped()
            seen_by_caller = (now() - started) / calls
            inside = (root.calls["calibration"][1] - traced_ns) / calls
            footprint = (root.child_ns - footprint) / calls
            floors.append(inside - plain)
            hidden.append(seen_by_caller - footprint)
        self.restore()
        root.calls.clear()
        root.child_ns = 0
        self._floor_ns = max(0, int(statistics.median(floors)))
        self._hidden_ns = max(0, int(statistics.median(hidden)))

    def wrap(self, owner, attr: str, name: str, record: bool = False, observe: Observer | None = None):
        """Replace ``owner.attr`` by a traced wrapper.

        ``observe(counts, args, result)`` runs after a successful call, outside
        the timed interval, and adds counters to the nearest recorded span.
        """
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(original, name, record, observe))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _nearest_recorded(self) -> _Frame:
        for frame in reversed(self._stack):
            if frame.calls is not None:
                return frame
        raise AssertionError("the root frame is always recorded")

    def _wrapper(self, fn, name, record, observe):
        stack = self._stack
        now = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = now()
            if record:
                frame = _Frame(name, tracer._next_id, tracer._nearest_recorded().span_id, True)
                tracer._next_id += 1
            else:
                frame = _Frame(name)
            stack.append(frame)
            ok = False
            result = None
            start = now()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = now()
                stack.pop()
                tracer._close(frame, start, end, observe if ok else None, args, result)
                stack[-1].child_ns += now() - entered + tracer._hidden_ns

        return traced

    def _close(self, frame, start, end, observe, args, result) -> None:
        owner = frame if frame.calls is not None else self._nearest_recorded()
        if observe is not None:
            observe(owner.counts, args, result)
        duration = max(0, end - start - self._floor_ns)
        self_ns = duration - frame.child_ns
        if frame.calls is not None:
            self.spans.append(
                {
                    "id": frame.span_id,
                    "name": frame.name,
                    "parent": frame.parent_id,
                    "start_ns": start,
                    "end_ns": end,
                    "self_ns": self_ns,
                    "calls": frame.calls,
                    "counts": frame.counts,
                }
            )
            return
        agg = owner.calls.get(frame.name)
        if agg is None:
            owner.calls[frame.name] = [1, duration, self_ns]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_ns

    def finish(self) -> list[dict]:
        """Restore the patches and close the root span; returns every span."""
        self.restore()
        root = self._root
        end = time.perf_counter_ns()
        self.spans.append(
            {
                "id": 0,
                "name": ROOT_SPAN,
                "parent": None,
                "start_ns": self._started_ns,
                "end_ns": end,
                "self_ns": end - self._started_ns - root.child_ns,
                "calls": root.calls,
                "counts": root.counts,
            }
        )
        return self.spans


def add_count(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def max_count(counts: dict, key: str, value) -> None:
    counts[key] = max(counts.get(key, value), value)


def write_spans(spans: list[dict], path: Path) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
