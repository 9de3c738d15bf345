"""In-memory spans for the traced benchmark run.

A :class:`Recorder` keeps one span per wrapped call: its name, start,
end, the span that was open when it started (its parent) and the
run id every span of one traced run shares.  Spans stay in memory and
are written out once, as a Chrome trace, when the run ends.

Self time is a span's duration minus the part of that interval its
direct children cover (children are merged as intervals, so siblings
that overlap are not subtracted twice).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float            #: seconds, ``time.perf_counter`` clock
    end: float
    parent: int | None      #: span_id of the enclosing span, or None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records nested spans on one thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        span = Span(
            span_id=len(self.spans), name=name,
            start=time.perf_counter(), end=float("nan"),
            parent=self._open[-1] if self._open else None,
            run_id=self.run_id,
        )
        self.spans.append(span)
        self._open.append(span.span_id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped != span.span_id:
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` timed as a span called ``name``.

        ``on_call(args, kwargs, result)`` runs after the span closes,
        so counting work costs no span time.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the union of its direct children,
    each child clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent is None or span.parent not in by_id:
            continue
        parent = by_id[span.parent]
        start, end = max(span.start, parent.start), min(span.end, parent.end)
        if end > start:
            children.setdefault(span.parent, []).append((start, end))
    return {
        span.span_id: span.duration - _covered(children.get(span.span_id, []))
        for span in spans
    }


def descendants(spans: list[Span], root: Span) -> list[Span]:
    """Every span below ``root`` (not ``root`` itself)."""
    below = {root.span_id}
    found = []
    for span in spans:  # parents are recorded before their children
        if span.parent in below:
            below.add(span.span_id)
            found.append(span)
    return found


def outermost(spans: list[Span], prefix: str) -> list[Span]:
    """Spans named ``prefix*`` with no ancestor named ``prefix*``."""
    by_id = {span.span_id: span for span in spans}
    found = []
    for span in spans:
        if not span.name.startswith(prefix):
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name.startswith(prefix):
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            found.append(span)
    return found


def chrome_trace(spans: list[Span]) -> dict:
    """The spans as Chrome trace-event JSON (``B``/``E`` pairs).

    Timestamps are microseconds from the first span's start; every
    event carries the run id, and ``B`` events their span and parent
    ids, in ``args``.
    """
    if not spans:
        return {"traceEvents": []}
    origin = min(span.start for span in spans)
    marks = []
    for span in spans:
        # (time, closes-first, order) keeps B/E nesting at equal stamps.
        marks.append((span.start, 1, span.span_id, "B", span))
        marks.append((span.end, 0, -span.span_id, "E", span))
    events = []
    for stamp, _, _, phase, span in sorted(marks, key=lambda m: m[:3]):
        args = {"run_id": span.run_id}
        if phase == "B":
            args.update(span_id=span.span_id, parent=span.parent)
        events.append({
            "ph": phase, "name": span.name, "ts": (stamp - origin) * 1e6,
            "pid": "perfbench", "tid": "main", "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
