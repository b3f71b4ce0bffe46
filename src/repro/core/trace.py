"""Request-scoped tracing and process-wide metrics (the observability layer).

Hyper-Q sits invisibly on the wire while rewriting every request — which
makes it exactly the kind of system you cannot debug or tune blind. This
module gives every wire request a **trace**: a tree of spans covering the
pipeline of Figure 3 (protocol decode → parse → bind → transform → serialize
→ cache lookup → admission wait → ODBC execute → convert → wire encode),
each span carrying its duration, byte/row counts, and outcome. Rewrite rules
that fire appear as child spans of ``transform`` with before/after XTRA
digests; emulator child statements, retries, and failovers appear as child
spans of ``execution`` via context propagation.

Alongside traces, a :class:`MetricsRegistry` holds process-wide counters,
gauges, and mergeable log-linear histograms (p50/p95/p99) — the single home
for the ad-hoc counters that used to live in :mod:`repro.core.timing` and
:mod:`repro.core.tracker`.

Sinks (owned by :class:`TraceHub`, one per engine, typically one per
process):

* a bounded in-memory **ring buffer** of finished traces, queryable over the
  wire via ``SHOW HYPERQ TRACE <id>`` / ``SHOW HYPERQ TRACES``;
* an optional structured **JSONL trace log** (one trace per line);
* a **slow-query log** gated on per-workload-class latency thresholds;
* a **text metrics dump** via ``SHOW HYPERQ METRICS`` and the CLI.

Context propagation uses a :mod:`contextvars` variable holding the active
span. Worker threads (the workload manager's pool) start with an empty
context; callers hand the active span across explicitly with
:func:`activate`. When no trace is active every instrumentation point
degrades to a cheap no-op, which is what keeps the warm-cache hot path
within the ~5% overhead budget (the perf ledger's
``bench.trace_overhead_share``).
"""

from __future__ import annotations

import contextvars
import enum
import json
import math
import threading
import time
import weakref
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: The active span for the current thread/context (None = not tracing).
_ACTIVE: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "hyperq_active_span", default=None)


# -- spans and traces ----------------------------------------------------------------


class Span:
    """One timed operation inside a trace.

    Spans form a tree through ``parent_id``; intervals are perf-counter
    offsets (seconds) relative to the trace's start, so children can be
    checked to nest within their parent without wall-clock skew.

    A span refers to its trace weakly: the trace owns its spans, so a
    finished trace that leaves its hub's ring is freed at once instead of
    waiting, as a span/trace cycle, for a full garbage-collector pass.
    """

    __slots__ = ("_trace", "span_id", "parent_id", "name", "start", "end",
                 "attrs", "events", "outcome", "__weakref__")

    def __init__(self, trace: "Trace", span_id: int, parent_id: Optional[int],
                 name: str, start: float):
        self._trace = weakref.ref(trace)
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: dict[str, object] = {}
        self.events: list[tuple[str, dict]] = []
        self.outcome = "ok"

    @property
    def trace(self) -> Optional["Trace"]:
        """The owning trace; None once nothing holds it any more (it has
        finished, so no span may be added to it anyway)."""
        return self._trace()

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def annotate(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def event(self, name: str, **attrs: object) -> None:
        """Attach a point-in-time event (fault injected, retry, failover...)."""
        self.events.append((name, attrs))

    def finish(self, outcome: Optional[str] = None) -> None:
        trace = self._trace()
        if self.end is None and trace is not None:
            self.end = trace.clock()
        if outcome is not None:
            self.outcome = outcome

    def to_dict(self) -> dict:
        out: dict[str, object] = {
            "id": self.span_id,
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "outcome": self.outcome,
        }
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.events:
            out["events"] = [{"name": name, **attrs}
                             for name, attrs in self.events]
        return out


class Trace:
    """One request's span tree, identified by a hub-scoped integer id."""

    def __init__(self, trace_id: int, name: str, sql: str = ""):
        self.trace_id = trace_id
        self.name = name
        self.sql = sql
        self.wall_started = time.time()
        self._t0 = time.perf_counter()
        self._next_span = 0
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.done = False
        self.root = self.new_span(name, parent=None)
        if sql:
            self.root.annotate("sql", sql[:200])

    def clock(self) -> float:
        return time.perf_counter() - self._t0

    def new_span(self, name: str, parent: Optional[Span],
                 start: Optional[float] = None) -> Optional[Span]:
        """Allocate a span; returns None once the trace has finished (a
        timed-out straggler must not mutate an already-recorded trace)."""
        with self._lock:
            if self.done and self.spans:
                return None
            span = Span(self, self._next_span,
                        parent.span_id if parent is not None else None,
                        name, self.clock() if start is None else start)
            self._next_span += 1
            self.spans.append(span)
        return span

    def finish(self, outcome: str = "ok") -> None:
        """End the trace: the root closes and every still-open span is
        clamped to the root's end, so children always nest within parents
        even when a consumer abandoned a lazy stream mid-pull."""
        with self._lock:
            if self.done:
                return
            self.done = True
            root = self.spans[0]
            if root.end is None:
                root.end = self.clock()
                root.outcome = outcome
            for span in self.spans[1:]:
                if span.end is None:
                    span.end = root.end
                    span.outcome = "unfinished"
                elif span.end > root.end:
                    span.end = root.end

    @property
    def duration(self) -> float:
        return self.spans[0].duration

    # -- views ------------------------------------------------------------------

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def walk(self) -> Iterator[tuple[int, Span]]:
        """Pre-order (depth, span) traversal of the tree."""
        by_parent: dict[Optional[int], list[Span]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent_id, []).append(span)

        def visit(span: Span, depth: int):
            yield depth, span
            for child in by_parent.get(span.span_id, ()):
                yield from visit(child, depth + 1)

        yield from visit(self.spans[0], 0)

    def stage_names(self) -> list[str]:
        """Span names in pre-order, the ``stages`` half of a trace summary."""
        return [span.name for __, span in self.walk()]

    def fired_rules(self) -> list[str]:
        """Names of rewrite-rule spans, in firing order."""
        return [span.name.split(":", 1)[1] for span in self.spans
                if span.name.startswith("rule:")]

    def summary(self) -> dict:
        """The deterministic projection checked into the golden corpus:
        stage list and fired-rule names — no durations, no ids."""
        return {"stages": self.stage_names(), "rules": self.fired_rules()}

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "sql": self.sql[:500],
            "wall_started": round(self.wall_started, 3),
            "duration": round(self.duration, 6),
            "outcome": self.spans[0].outcome,
            "spans": [span.to_dict() for span in self.spans],
        }


# -- context propagation -------------------------------------------------------------


def current_span() -> Optional[Span]:
    return _ACTIVE.get()


def current_trace() -> Optional[Trace]:
    span = _ACTIVE.get()
    return span.trace if span is not None else None


# ``activate`` and ``span`` wrap most layers of every request, several times
# over, so they are slotted classes rather than generator context managers
# (which cost a generator plus a wrapper object per use).


class activate:
    """Adopt *span* as the active span — the explicit hand-off for work
    executing on another thread (workload pool workers, stragglers)."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Optional[Span]):
        self._span = span

    def __enter__(self) -> Optional[Span]:
        self._token = _ACTIVE.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.reset(self._token)


class span:
    """Open a child span of the active span for the duration of the block.

    No-op (``as`` binds None) when no trace is active or the trace has
    already finished (a late straggler), so instrumentation points cost one
    context-var read on untraced paths. Exceptions mark the span's outcome
    ``error:<Type>`` and propagate.
    """

    __slots__ = ("_name", "_attrs", "_child", "_token")

    def __init__(self, name: str, **attrs: object):
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Optional[Span]:
        child = self._child = _new_child(self._name)
        if child is not None:
            if self._attrs:
                child.attrs.update(self._attrs)
            self._token = _ACTIVE.set(child)
        return child

    def __exit__(self, exc_type, exc, traceback) -> None:
        child = self._child
        if child is None:
            return
        try:
            child.finish(None if exc_type is None
                         else f"error:{exc_type.__name__}")
        finally:
            _ACTIVE.reset(self._token)


def _new_child(name: str, start: Optional[float] = None) -> Optional[Span]:
    """A new child of the active span, or None when nothing is traced or
    the trace has finished (or is already gone)."""
    parent = _ACTIVE.get()
    trace = parent._trace() if parent is not None else None
    return trace.new_span(name, parent, start) if trace is not None else None


def begin_span(name: str, **attrs: object) -> Optional[Span]:
    """Open a child span that an explicit :meth:`Span.finish` will close —
    for intervals that end on a different thread (queue wait) or inside a
    lazy generator (result conversion)."""
    child = _new_child(name)
    if child is not None and attrs:
        child.attrs.update(attrs)
    return child


def add_event(name: str, **attrs: object) -> None:
    """Attach an event to the active span (fault injections, resilience
    actions); silently dropped when not tracing."""
    active = _ACTIVE.get()
    if active is not None:
        active.event(name, **attrs)


def add_span(name: str, start: float, end: float, **attrs: object) -> None:
    """Record an already-measured child interval under the active span
    (per-rule transform spans are timed at pass granularity)."""
    child = _new_child(name, start)
    if child is None:
        return
    if attrs:
        child.attrs.update(attrs)
    child.end = end


# -- XTRA digests --------------------------------------------------------------------


def xtra_digest(node: object) -> str:
    """A short structural digest of an XTRA statement (or any node tree).

    Walks type names and public fields recursively — stable across runs and
    processes (no object ids), cheap enough to compute once per transform
    pass. Used by rule spans to prove what a rewrite actually changed.
    """
    crc = 0

    def feed(text: str) -> None:
        nonlocal crc
        crc = zlib.crc32(text.encode("utf-8"), crc)

    seen: set[int] = set()

    def walk(obj: object, depth: int) -> None:
        if depth > 64:
            feed("...")
            return
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            feed(repr(obj))
            return
        if isinstance(obj, enum.Enum):
            feed(f"{type(obj).__name__}.{obj.name}")
            return
        if isinstance(obj, (list, tuple)):
            feed("[")
            for item in obj:
                walk(item, depth + 1)
                feed(",")
            feed("]")
            return
        if isinstance(obj, dict):
            feed("{")
            for key in sorted(obj, key=repr):
                feed(repr(key) + ":")
                walk(obj[key], depth + 1)
                feed(",")
            feed("}")
            return
        if isinstance(obj, (set, frozenset)):
            feed("{" + ",".join(sorted(repr(i) for i in obj)) + "}")
            return
        if id(obj) in seen:  # defensive: XTRA is a tree, but never recurse
            feed("<cycle>")
            return
        seen.add(id(obj))
        feed(type(obj).__name__ + "(")
        fields = getattr(obj, "__dict__", None)
        if fields is None:
            slots = getattr(type(obj), "__slots__", ())
            fields = {name: getattr(obj, name, None) for name in slots}
        for key in sorted(fields):
            if key.startswith("_"):
                continue
            value = fields[key]
            if callable(value):
                continue
            feed(key + "=")
            walk(value, depth + 1)
            feed(",")
        feed(")")
        seen.discard(id(obj))

    walk(node, 0)
    return f"{crc & 0xFFFFFFFF:08x}"


# -- metrics -------------------------------------------------------------------------


class Counter:
    """A monotonically non-decreasing counter (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (thread-safe)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A mergeable log-linear histogram (HDR-style).

    Each power-of-two range is divided into :data:`SUBBUCKETS` linear
    buckets, so any recorded value lands in a bucket whose upper/lower bound
    ratio is at most ``1 + 1/SUBBUCKETS`` — the relative error bound on
    every quantile estimate. Two histograms merge by adding bucket counts,
    which makes merging associative and commutative (the property suite
    checks both), so per-thread or per-replica histograms can be combined
    without losing quantile fidelity.
    """

    SUBBUCKETS = 16

    __slots__ = ("name", "_lock", "_counts", "_zero", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name: str = ""):
        self.name = name
        self._lock = threading.Lock()
        self._counts: dict[int, int] = {}
        self._zero = 0  # values <= 0 (durations can round down to 0.0)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @classmethod
    def _index(cls, value: float) -> int:
        mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
        sub = int((mantissa - 0.5) * 2 * cls.SUBBUCKETS)
        if sub >= cls.SUBBUCKETS:  # guard m == 1.0 float edge
            sub = cls.SUBBUCKETS - 1
        return exponent * cls.SUBBUCKETS + sub

    @classmethod
    def bucket_bounds(cls, index: int) -> tuple[float, float]:
        exponent, sub = divmod(index, cls.SUBBUCKETS)
        base = math.ldexp(1.0, exponent - 1)  # 2**(e-1)
        lower = base * (1 + sub / cls.SUBBUCKETS)
        upper = base * (1 + (sub + 1) / cls.SUBBUCKETS)
        return lower, upper

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value <= 0.0:
                self._zero += 1
                return
            index = self._index(value)
            self._counts[index] = self._counts.get(index, 0) + 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile: the upper bound of the bucket holding the
        rank-⌈q·n⌉ smallest value, so for a true quantile value ``t > 0``
        the estimate lies in ``[t, t * (1 + 1/SUBBUCKETS)]``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self._count))
            if rank <= self._zero:
                return 0.0
            seen = self._zero
            for index in sorted(self._counts):
                seen += self._counts[index]
                if seen >= rank:
                    return self.bucket_bounds(index)[1]
            return self._max  # unreachable unless counts raced a snapshot

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram (in place); bucket layouts are
        identical by construction, so this is pure count addition."""
        with other._lock:
            counts = dict(other._counts)
            zero, count = other._zero, other._count
            total, lo, hi = other._sum, other._min, other._max
        with self._lock:
            for index, n in counts.items():
                self._counts[index] = self._counts.get(index, 0) + n
            self._zero += zero
            self._count += count
            self._sum += total
            self._min = min(self._min, lo)
            self._max = max(self._max, hi)
        return self

    def merged(self, other: "Histogram") -> "Histogram":
        """A new histogram holding both inputs' observations."""
        out = Histogram(self.name)
        out.merge(self)
        out.merge(other)
        return out

    def state(self) -> tuple:
        """Comparable full state (the merge property tests diff these).

        Every field is exact under merge reordering except the running
        float sum, which callers must compare with a tolerance.
        """
        with self._lock:
            return (tuple(sorted(self._counts.items())), self._zero,
                    self._count, self._sum, self._min, self._max)

    def state_dict(self) -> dict:
        """Portable full state for cross-process aggregation (the gateway
        ships these between workers). JSON/pickle-safe: bucket counts as
        pairs, empty min/max as None."""
        with self._lock:
            return {
                "counts": sorted(self._counts.items()),
                "zero": self._zero,
                "count": self._count,
                "sum": self._sum,
                "min": None if self._count == 0 else self._min,
                "max": None if self._count == 0 else self._max,
            }

    def merge_state_dict(self, state: dict) -> "Histogram":
        """Fold a :meth:`state_dict` into this histogram — the cross-process
        counterpart of :meth:`merge`, same bucket-addition algebra."""
        with self._lock:
            for index, n in state["counts"]:
                self._counts[index] = self._counts.get(index, 0) + n
            self._zero += state["zero"]
            self._count += state["count"]
            self._sum += state["sum"]
            if state["min"] is not None and state["min"] < self._min:
                self._min = state["min"]
            if state["max"] is not None and state["max"] > self._max:
                self._max = state["max"]
        return self

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Process-wide named metrics: counters, gauges, histograms.

    Get-or-create accessors are thread-safe and idempotent, so any layer can
    grab its instrument by name without coordination. One registry is shared
    per engine (and therefore per server process); tests build their own for
    isolation.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name)
            return metric

    def snapshot(self) -> dict:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in counters.items()},
            "gauges": {n: g.value for n, g in gauges.items()},
            "histograms": {n: h.snapshot() for n, h in histograms.items()},
        }

    # -- cross-process aggregation (the gateway's fleet-wide view) ---------------

    def dump_state(self) -> dict:
        """Full portable state: counters and gauges by value, histograms as
        mergeable bucket states. One gateway worker's contribution to the
        fleet-wide ``SHOW HYPERQ METRICS``."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in counters.items()},
            "gauges": {n: g.value for n, g in gauges.items()},
            "histograms": {n: h.state_dict() for n, h in histograms.items()},
        }

    def merge_state(self, state: dict) -> "MetricsRegistry":
        """Fold one :meth:`dump_state` into this registry: counters and
        gauges add, histograms merge by bucket addition — associative and
        commutative, so fleet aggregation order never changes the answer."""
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).add(value)
        for name, hist_state in state.get("histograms", {}).items():
            self.histogram(name).merge_state_dict(hist_state)
        return self

    def render_text(self) -> str:
        """The ``SHOW HYPERQ METRICS`` / CLI dump: one metric per line,
        sorted, exposition-format-ish."""
        snap = self.snapshot()
        lines: list[str] = []
        for name in sorted(snap["counters"]):
            lines.append(f"counter {name} {snap['counters'][name]}")
        for name in sorted(snap["gauges"]):
            lines.append(f"gauge {name} {snap['gauges'][name]:g}")
        for name in sorted(snap["histograms"]):
            h = snap["histograms"][name]
            lines.append(
                f"histogram {name} count={h['count']} sum={h['sum']:.6f} "
                f"mean={h['mean']:.6f} p50={h['p50']:.6f} "
                f"p95={h['p95']:.6f} p99={h['p99']:.6f}")
        return "\n".join(lines)


def aggregate_metrics(states: list[dict]) -> MetricsRegistry:
    """Merge per-worker :meth:`MetricsRegistry.dump_state` snapshots into
    one fleet-wide registry."""
    fleet = MetricsRegistry()
    for state in states:
        fleet.merge_state(state)
    return fleet


# -- the hub -------------------------------------------------------------------------


#: Default latency thresholds (seconds) for the slow-query log, keyed by
#: workload class; ``None``-classed requests use ``"default"``.
DEFAULT_SLOW_THRESHOLDS = {
    "interactive": 0.5,
    "reporting": 5.0,
    "etl": 60.0,
    "admin": 5.0,
    "default": 1.0,
}

#: Live hubs (weak), so the test harness can dump every ring buffer when a
#: test fails without threading a handle through each fixture.
_LIVE_HUBS: "weakref.WeakSet[TraceHub]" = weakref.WeakSet()


def live_hubs() -> list["TraceHub"]:
    return list(_LIVE_HUBS)


class TraceHub:
    """Per-engine trace collection point plus its metric registry and sinks."""

    def __init__(self, enabled: bool = True, ring_size: int = 256,
                 trace_log: Optional[str] = None,
                 slow_query_log: Optional[str] = None,
                 slow_thresholds: Optional[dict[str, float]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 id_offset: int = 0, id_stride: int = 1):
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slow_thresholds = dict(DEFAULT_SLOW_THRESHOLDS)
        if slow_thresholds:
            self.slow_thresholds.update(slow_thresholds)
        self._lock = threading.Lock()
        self._ring: "OrderedDict[int, Trace]" = OrderedDict()
        self._ring_size = ring_size
        #: Gateway workers interleave trace-id sequences (worker *i* of *N*
        #: uses offset ``i``, stride ``N``) so every trace id is unique
        #: fleet-wide and ``SHOW HYPERQ TRACE <id>`` can locate its worker.
        if id_stride < 1:
            raise ValueError("id_stride must be >= 1")
        self._next_id = id_offset
        self._id_stride = id_stride
        self._trace_log = trace_log
        self._slow_log = slow_query_log
        #: In-memory slow-query records (kept even without a log file, so
        #: tests and the admin command can read them back).
        self.slow_queries: list[dict] = []
        _LIVE_HUBS.add(self)

    # -- trace lifecycle ---------------------------------------------------------

    def start_trace(self, name: str, sql: str = "") -> Trace:
        with self._lock:
            self._next_id += self._id_stride
            trace = Trace(self._next_id, name, sql)
        return trace

    @contextmanager
    def request(self, name: str, sql: str = ""):
        """Trace one request end to end on the current thread.

        Yields None (and traces nothing) when the hub is disabled or a
        trace is already active — the engine nests under the wire server's
        trace instead of starting its own.
        """
        if not self.enabled or _ACTIVE.get() is not None:
            yield None
            return
        trace = self.start_trace(name, sql)
        token = _ACTIVE.set(trace.root)
        try:
            yield trace
        except BaseException as error:
            self.finish_trace(trace, f"error:{type(error).__name__}")
            raise
        else:
            self.finish_trace(trace)
        finally:
            _ACTIVE.reset(token)

    def finish_trace(self, trace: Trace, outcome: str = "ok",
                     wl_class: Optional[str] = None) -> None:
        trace.finish(outcome)
        self.metrics.counter("hyperq_requests_total").inc()
        if outcome != "ok":
            self.metrics.counter("hyperq_request_errors_total").inc()
        self.metrics.histogram("hyperq_request_seconds").observe(
            trace.duration)
        record: Optional[dict] = None
        threshold = self.slow_thresholds.get(
            wl_class or "default", self.slow_thresholds["default"])
        if trace.duration >= threshold:
            self.metrics.counter("hyperq_slow_queries_total").inc()
            record = {
                "trace_id": trace.trace_id,
                "wl_class": wl_class or "default",
                "threshold": threshold,
                "duration": round(trace.duration, 6),
                "sql": trace.sql[:500],
            }
        with self._lock:
            self._ring[trace.trace_id] = trace
            while len(self._ring) > self._ring_size:
                self._ring.popitem(last=False)
            if record is not None:
                self.slow_queries.append(record)
        if record is not None and self._slow_log:
            self._append_line(self._slow_log, json.dumps(
                record, sort_keys=True))
        if self._trace_log:
            self._append_line(self._trace_log, json.dumps(
                trace.to_dict(), sort_keys=True))

    def _append_line(self, path: str, line: str) -> None:
        with self._lock:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")

    # -- inspection --------------------------------------------------------------

    def get_trace(self, trace_id: int) -> Optional[Trace]:
        with self._lock:
            return self._ring.get(trace_id)

    def trace_ids(self) -> list[int]:
        with self._lock:
            return list(self._ring)

    def last_trace(self) -> Optional[Trace]:
        with self._lock:
            if not self._ring:
                return None
            return next(reversed(self._ring.values()))

    def dump_jsonl(self) -> str:
        """The ring buffer as JSONL — uploaded as a CI artifact when an
        integration/resilience test fails."""
        with self._lock:
            traces = list(self._ring.values())
        return "\n".join(json.dumps(t.to_dict(), sort_keys=True)
                         for t in traces)

    def render_metrics(self) -> str:
        return self.metrics.render_text()


def render_trace(trace: Trace) -> list[str]:
    """Human-readable span-tree lines (the ``SHOW HYPERQ TRACE`` payload)."""
    lines = [f"trace {trace.trace_id} [{trace.spans[0].outcome}] "
             f"{trace.duration * 1e3:.3f}ms :: {trace.sql[:120]}"]
    for depth, node in trace.walk():
        attrs = " ".join(f"{key}={value}" for key, value
                         in sorted(node.attrs.items()))
        line = (f"{'  ' * depth}{node.name} {node.duration * 1e3:.3f}ms"
                f" [{node.outcome}]")
        if attrs:
            line += f" {attrs}"
        lines.append(line)
        for name, detail in node.events:
            event_attrs = " ".join(f"{key}={value}" for key, value
                                   in sorted(detail.items()))
            lines.append(f"{'  ' * (depth + 1)}! {name}"
                         + (f" {event_attrs}" if event_attrs else ""))
    return lines


def assert_span_tree(trace: Trace) -> None:
    """Structural invariants every finished trace must satisfy (shared by
    the integration suites): exactly one root, every child points at a real
    parent, children nest within their parent's interval."""
    roots = [span for span in trace.spans if span.parent_id is None]
    if len(roots) != 1:
        raise AssertionError(
            f"trace {trace.trace_id} has {len(roots)} root spans")
    by_id = {span.span_id: span for span in trace.spans}
    for node in trace.spans:
        if node.end is None:
            raise AssertionError(
                f"span {node.name} in trace {trace.trace_id} never finished")
        if node.parent_id is None:
            continue
        parent = by_id.get(node.parent_id)
        if parent is None:
            raise AssertionError(
                f"span {node.name} has unknown parent {node.parent_id}")
        if node.start < parent.start - 1e-9 or node.end > parent.end + 1e-9:
            raise AssertionError(
                f"span {node.name} [{node.start:.6f}, {node.end:.6f}] "
                f"escapes parent {parent.name} "
                f"[{parent.start:.6f}, {parent.end:.6f}]")
