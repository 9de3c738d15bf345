"""Process-local metrics registry: counters, gauges, histograms.

One :class:`Metrics` instance is a named bag of three instrument
kinds, all behind a single lock:

* **counters** — monotonically increasing integers (``counter``);
* **gauges** — last-write-wins floats (``gauge``);
* **histograms** — fixed-bucket distributions (``observe`` /
  ``time``), stored as upper-edge -> count maps so two snapshots
  taken with different bucket layouts still merge by key union, plus
  the observed ``min``/``max``.

``snapshot()`` renders the registry as a plain JSON-native dict and
``merge(snapshot)`` folds such a dict back in — counters and bucket
counts sum, histogram extremes take the min/max, gauges overwrite —
which is how worker-side registries travel home inside grid/net result
envelopes.  Both operations are
associative and order-insensitive for counters and histograms, so
at-least-once delivery and arbitrary completion order cannot skew
the totals.

The module also owns the *active* registry every instrumentation
point reads through :func:`active`.  It defaults to
:data:`NULL_METRICS`, whose every method is a no-op and whose
``enabled`` flag lets hot paths skip even argument construction::

    m = active()
    if m.enabled:
        m.counter("engine.compiled.passes")

Telemetry is execution-only by design: nothing in this module feeds
config fingerprints, result payloads, or random streams.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

#: Default histogram upper edges, in seconds — spans engine calls
#: (sub-millisecond) to whole circuits (minutes).  The overflow bucket
#: is keyed ``"inf"``.
DEFAULT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

_INF = "inf"

#: Quantiles estimated in every histogram snapshot.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def estimate_quantiles(buckets: dict, qs=QUANTILES, low=None,
                       high=None) -> dict:
    """Upper-edge interpolated quantile estimates for a bucket map.

    ``buckets`` is the snapshot shape: ``{edge_key: count}`` with the
    overflow keyed ``"inf"``.  Each quantile is linearly interpolated
    inside the bucket its rank falls in, between the previous finite
    edge (0.0 below the first) and the bucket's upper edge.  Ranks
    landing in the overflow bucket report the largest finite edge —
    a deliberate lower bound, since the overflow has no upper edge.
    ``low``/``high``, the observed extremes when known, clamp every
    estimate into the observed range.  Returns ``{}`` for empty or
    unparseable bucket maps.
    """
    edges: list[tuple[float, int]] = []
    overflow = 0
    try:
        for key, count in buckets.items():
            n = int(count)
            if n <= 0:
                continue
            if key == _INF:
                overflow += n
            else:
                edges.append((float(key), n))
    except (TypeError, ValueError, AttributeError):
        return {}
    edges.sort()
    total = sum(n for _, n in edges) + overflow
    if not total:
        return {}
    top_edge = edges[-1][0] if edges else 0.0
    out = {}
    for label, q in qs:
        rank = q * total
        lower = 0.0
        seen = 0
        value = top_edge
        for edge, n in edges:
            if rank <= seen + n:
                fraction = (rank - seen) / n
                value = lower + (edge - lower) * fraction
                break
            seen += n
            lower = edge
        if high is not None:
            value = min(value, high)
        if low is not None:
            value = max(value, low)
        out[label] = value
    return out


class Metrics:
    """A thread-safe named-instrument registry."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        #: name -> {"count": int, "sum": float, "min": float | None,
        #: "max": float | None, "unbounded": bool, "buckets": {edge: int}}
        #: — ``unbounded`` once merged observations came without extremes.
        self._histograms: dict[str, dict] = {}

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str, value: int = 1) -> None:
        """Add ``value`` (default 1) to the counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(value)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Record ``value`` into the fixed-bucket histogram ``name``."""
        value = float(value)
        key = _INF
        for edge in buckets:
            if value <= edge:
                key = _edge_key(edge)
                break
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = _empty_histogram()
                self._histograms[name] = hist
            hist["count"] += 1
            hist["sum"] += value
            if not hist["unbounded"]:
                hist["min"] = _lowest(hist["min"], value)
                hist["max"] = _highest(hist["max"], value)
            hist["buckets"][key] = hist["buckets"].get(key, 0) + 1

    @contextmanager
    def time(self, name: str):
        """Context manager observing the block's wall time into ``name``."""
        started = time.monotonic()
        try:
            yield
        finally:
            self.observe(name, time.monotonic() - started)

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as a plain JSON-native dict.

        Each histogram additionally carries ``"quantiles"`` — p50/p95/
        p99 estimates interpolated from the bucket edges and clamped to
        the observed ``min``/``max``.  They are derived data:
        :meth:`merge` ignores them and recomputes from the summed
        buckets, so quantiles never skew across workers.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "count": hist["count"],
                        "sum": hist["sum"],
                        "min": hist["min"],
                        "max": hist["max"],
                        "buckets": dict(hist["buckets"]),
                        "quantiles": estimate_quantiles(
                            hist["buckets"], low=hist["min"],
                            high=hist["max"],
                        ),
                    }
                    for name, hist in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters and histogram buckets sum (key union); histogram
        ``min``/``max`` merge by min/max, and become unknown (``None``)
        once observations without them are folded in; gauges
        overwrite; derived ``"quantiles"`` entries are ignored (they
        are recomputed at the next snapshot).  Tolerates partial
        snapshots (missing sections) and skips individually corrupt
        entries — a worker envelope mangled in transit must never
        take the parent registry down, so every unparseable value is
        dropped and counted under ``metrics.merge_skipped``.
        """
        if not isinstance(snapshot, dict):
            return
        counters = snapshot.get("counters")
        gauges = snapshot.get("gauges")
        histograms = snapshot.get("histograms")
        skipped = 0
        with self._lock:
            for name, value in (
                counters.items() if isinstance(counters, dict) else ()
            ):
                try:
                    self._counters[name] = (
                        self._counters.get(name, 0) + int(value)
                    )
                except (TypeError, ValueError):
                    skipped += 1
            for name, value in (
                gauges.items() if isinstance(gauges, dict) else ()
            ):
                try:
                    self._gauges[name] = float(value)
                except (TypeError, ValueError):
                    skipped += 1
            for name, incoming in (
                histograms.items() if isinstance(histograms, dict) else ()
            ):
                if not isinstance(incoming, dict):
                    skipped += 1
                    continue
                merged = self._histograms.get(name)
                fresh = merged is None
                if fresh:
                    merged = _empty_histogram()
                try:
                    count = int(incoming.get("count") or 0)
                    total = float(incoming.get("sum") or 0.0)
                    low = _extreme(incoming.get("min"))
                    high = _extreme(incoming.get("max"))
                    buckets = incoming.get("buckets") or {}
                    deltas = {
                        key: int(n) for key, n in buckets.items()
                    } if isinstance(buckets, dict) else {}
                except (TypeError, ValueError):
                    skipped += 1
                    continue
                merged["count"] += count
                merged["sum"] += total
                if count and (low is None or high is None):
                    # Observations of unknown range: so are the totals.
                    merged.update(unbounded=True, min=None, max=None)
                elif not merged["unbounded"]:
                    merged["min"] = _lowest(merged["min"], low)
                    merged["max"] = _highest(merged["max"], high)
                for key, n in deltas.items():
                    merged["buckets"][key] = (
                        merged["buckets"].get(key, 0) + n
                    )
                if fresh:
                    self._histograms[name] = merged
            if skipped:
                self._counters["metrics.merge_skipped"] = (
                    self._counters.get("metrics.merge_skipped", 0) + skipped
                )

    def is_empty(self) -> bool:
        with self._lock:
            return not (self._counters or self._gauges or self._histograms)


def _empty_histogram() -> dict:
    return {
        "count": 0, "sum": 0.0, "min": None, "max": None,
        "unbounded": False, "buckets": {},
    }


def _extreme(value) -> float | None:
    """A snapshot's ``min``/``max`` entry: absent stays ``None``."""
    return None if value is None else float(value)


def _lowest(current: float | None, value: float | None) -> float | None:
    if current is None:
        return value
    return current if value is None else min(current, value)


def _highest(current: float | None, value: float | None) -> float | None:
    if current is None:
        return value
    return current if value is None else max(current, value)


def _edge_key(edge: float) -> str:
    """Stable JSON-key rendering of a bucket's upper edge."""
    text = repr(float(edge))
    return text[:-2] if text.endswith(".0") else text


class NullMetrics(Metrics):
    """The disabled registry: every method is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_timer = _NullTimer()

    def counter(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name, value, buckets=DEFAULT_BUCKETS) -> None:
        pass

    def time(self, name: str):
        return self._null_timer

    def merge(self, snapshot: dict) -> None:
        pass


class _NullTimer:
    """A reusable no-op context manager (no per-call allocation)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


#: The shared disabled registry; :func:`active` returns it by default.
NULL_METRICS = NullMetrics()

_active: Metrics = NULL_METRICS
_active_lock = threading.Lock()


def active() -> Metrics:
    """The registry instrumentation points write to (never ``None``)."""
    return _active


def enabled() -> bool:
    """Whether a real (non-null) registry is installed."""
    return _active.enabled


def enable(registry: Metrics | None = None) -> Metrics:
    """Install ``registry`` (default: a fresh one) as the active one."""
    global _active
    with _active_lock:
        _active = registry if registry is not None else Metrics()
        return _active


def disable() -> Metrics:
    """Restore the null registry; returns the one that was active."""
    global _active
    with _active_lock:
        previous = _active
        _active = NULL_METRICS
        return previous


@contextmanager
def collecting(registry: Metrics | None = None):
    """Scope a registry as active; restores the previous one on exit.

    The worker-side shape: ``with collecting() as m: ...;
    envelope["metrics"] = m.snapshot()``.
    """
    global _active
    with _active_lock:
        previous = _active
        _active = registry if registry is not None else Metrics()
        current = _active
    try:
        yield current
    finally:
        with _active_lock:
            _active = previous
