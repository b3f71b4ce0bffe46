"""Per-request timing breakdown (the instrumentation behind Figure 9).

The paper reports three components of end-to-end response time:

* *query translation* — parse + bind + transform + serialize inside Hyper-Q,
* *execution* — time spent in the target database,
* *result transformation* — checking each backend row batch and encoding
  it into the source binary format.

The reproduction adds a fourth, *cache lookup* — fingerprinting plus
translation-cache probe/insert time — so memoized requests keep the Figure 9
instrumentation honest: a cache hit reports near-zero translation time but
still accounts for the lookup work it did.

The workload manager adds *queue wait*: time a request spent in its class's
admission queue before a worker picked it up. It accumulates into ``total``
and ``overhead`` — queueing is proxy-imposed latency the application would
not see against the original warehouse.

The streaming result pipeline adds *first row*: the latency from request
start until the first converted chunk is available to the wire. It is a
point-in-time mark, not an accumulating stage — it overlaps translation and
execution — so it is reported separately and never folded into ``total``.

Where the time comes from: :class:`request` opens the request scope, a
context variable holding the request's :class:`RequestTiming`, and records
it into the engine's :class:`TimingLog` once, when the request completes.
Every instrumented site is one :class:`site` block; the :data:`SITES` table
says which stage it charges and which trace span (if any) it opens, so the
Figure 9 stage and the span of one code interval come from one block.
Statements an emulator or a macro issues run inside the calling request's
scope and charge it. A lazy result stream outlives its scope: it takes the
request's accumulator once, when it is built (:func:`charger`), and its
per-batch timers add to it directly.

:class:`TimingLog` keeps running sums across a workload run (constant size,
however long the engine lives). A request's stage time that lands after it
was recorded — result conversion runs as the client pulls the stream — still
reaches the sums, because a recorded timing forwards later increments to its
log. A log constructed with a
:class:`~repro.core.trace.MetricsRegistry` additionally feeds per-stage
latency histograms (``hyperq_stage_seconds_<stage>``) and the request
counter on every record, so the Figure 9 instrumentation and the
observability layer read from one stream.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import trace as trace_mod

#: Stage names accepted by :meth:`RequestTiming.measure`.
STAGES = ("translation", "execution", "result_conversion", "cache_lookup",
          "dependency_extract", "queue_wait")

#: Every instrumented site: the stage its time is charged to (None: no
#: stage) and the trace span it opens (None: a bare timer). ``queue_wait``
#: is charged by the workload manager after the request returns.
SITES = {
    # site:               (stage,                span)
    "parse":              ("translation",        "parse"),
    "bind":               ("translation",        "bind"),
    # Parses and binds with no span of their own: script statements, macro
    # and procedure body statements, the ANSI frontend's script lowering.
    "frontend":           ("translation",        None),
    "transform":          ("translation",        "transform"),
    "serialize":          ("translation",        "serialize"),
    "cache_lookup":       ("cache_lookup",       "cache_lookup"),
    "cache_insert":       ("cache_lookup",       None),
    "dependency_extract": ("dependency_extract", "dependency_extract"),
    # Extraction for the data-epoch bump of a script statement, which had
    # none extracted before it ran: traced, charged to no stage.
    "write_deps":         (None,                 "dependency_extract"),
    "result_cache":       ("dependency_extract", "result_cache"),
    "execute":            ("execution",          None),
    # Per-batch timers of a lazy result stream (see :func:`charger`).
    "fetch":              ("execution",          None),
    "convert":            ("result_conversion",  None),
}

#: The current request's timing (None outside a request scope).
_CURRENT: contextvars.ContextVar[Optional["RequestTiming"]] = \
    contextvars.ContextVar("hyperq_request_timing", default=None)


class _StageSums:
    """Totals over the :data:`STAGES` attributes, summed in table order."""

    @property
    def total(self) -> float:
        return sum(getattr(self, stage) for stage in STAGES)

    @property
    def overhead(self) -> float:
        """Hyper-Q's share (everything but execution)."""
        return sum(getattr(self, stage) for stage in STAGES
                   if stage != "execution")

    @property
    def overhead_fraction(self) -> float:
        """Hyper-Q overhead as a fraction of end-to-end time (Figure 9)."""
        total = self.total
        return self.overhead / total if total else 0.0


@dataclass
class RequestTiming(_StageSums):
    """Wall-clock seconds spent in each pipeline stage for one request."""

    translation: float = 0.0
    execution: float = 0.0
    result_conversion: float = 0.0
    cache_lookup: float = 0.0
    #: Dependency extraction over the bound plan plus result-cache
    #: bookkeeping (0.0 when the semantic layers are disabled).
    dependency_extract: float = 0.0
    #: Time spent queued in the workload manager before execution began
    #: (0.0 when no workload manager is configured).
    queue_wait: float = 0.0
    #: Latency from request start to the first converted chunk (0.0 until
    #: :meth:`mark_first_row` fires; excluded from :attr:`total`).
    first_row: float = 0.0
    started: float = field(default_factory=time.perf_counter, repr=False,
                           compare=False)
    #: The log this timing was recorded into, if any.
    _log: Optional["TimingLog"] = field(default=None, init=False, repr=False,
                                        compare=False)

    @contextmanager
    def measure(self, stage: str):
        """Accumulate elapsed time into one of the stage buckets."""
        if stage not in STAGES:
            raise ValueError(f"unknown timing stage {stage!r}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(stage, time.perf_counter() - start)

    def add(self, stage: str, seconds: float) -> None:
        """Accumulate *seconds* into *stage* (and into the log, if this
        timing was already recorded)."""
        setattr(self, stage, getattr(self, stage) + seconds)
        if self._log is not None:
            self._log.add(stage, seconds)

    def mark_first_row(self) -> None:
        """Record time-to-first-row once; later calls are no-ops."""
        if not self.first_row:
            self.first_row = time.perf_counter() - self.started
            if self._log is not None:
                self._log.add_first_row(self.first_row)


class TimingLog(_StageSums):
    """Running per-stage sums across many requests (Figure 9 series).

    *metrics*, an optional :class:`~repro.core.trace.MetricsRegistry`, is
    mirrored into on every :meth:`record` (typed loosely to keep this
    module import-light).
    """

    def __init__(self, metrics: Optional[object] = None):
        self.metrics = metrics
        #: Requests recorded.
        self.count = 0
        for stage in STAGES:  # one running sum per stage
            setattr(self, stage, 0.0)
        self._first_row_sum = 0.0
        self._first_row_count = 0
        self._lock = threading.Lock()

    def add(self, stage: str, seconds: float) -> None:
        """Add stage time that a recorded request spent after recording."""
        with self._lock:
            setattr(self, stage, getattr(self, stage) + seconds)

    def add_first_row(self, seconds: float) -> None:
        with self._lock:
            self._first_row_sum += seconds
            self._first_row_count += 1

    def record(self, timing: RequestTiming) -> None:
        with self._lock:
            self.count += 1
            for stage in STAGES:
                setattr(self, stage,
                        getattr(self, stage) + getattr(timing, stage))
        if timing.first_row:
            self.add_first_row(timing.first_row)
        timing._log = self
        registry = self.metrics
        if registry is None:
            return
        registry.counter("hyperq_timed_requests_total").inc()
        for stage in STAGES:
            value = getattr(timing, stage)
            if value > 0.0:
                registry.histogram(
                    f"hyperq_stage_seconds_{stage}").observe(value)
        registry.histogram("hyperq_pipeline_seconds").observe(timing.total)
        if timing.first_row:
            registry.histogram("hyperq_first_row_seconds").observe(
                timing.first_row)

    @property
    def mean_first_row(self) -> float:
        """Mean time-to-first-row across requests that produced rows."""
        if not self._first_row_count:
            return 0.0
        return self._first_row_sum / self._first_row_count

    def breakdown(self) -> dict[str, float]:
        """Fractions of end-to-end time per stage (sums to 1.0)."""
        total = self.total
        if not total:
            return {stage: 0.0 for stage in STAGES}
        return {stage: getattr(self, stage) / total for stage in STAGES}


def current() -> Optional[RequestTiming]:
    """The timing of the request whose scope is open, or None."""
    return _CURRENT.get()


class request:
    """The request scope: a fresh :class:`RequestTiming` is the current one
    for the block and is recorded into ``engine.timing_log`` when the block
    completes (a request that raises is not recorded). Scopes nest: an inner
    scope is a request of its own, and the outer one is current again after
    it. :meth:`discard` drops the record — a script's batched INSERT is
    accounted with the statement its batch runs as."""

    __slots__ = ("_engine", "_token", "_timing")

    def __init__(self, engine):
        self._engine = engine

    def __enter__(self) -> "request":
        self._timing = RequestTiming()
        self._token = _CURRENT.set(self._timing)
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        _CURRENT.reset(self._token)
        if exc_type is None and self._engine is not None:
            self._engine.timing_log.record(self._timing)

    def discard(self) -> None:
        self._engine = None


class site:
    """Time one instrumented site: charge its :data:`SITES` stage on the
    current request and open its trace span, if it has one (``as`` binds
    the span, or None). Outside a request scope only the span is kept."""

    __slots__ = ("_stage", "_span", "_timing", "_start")

    def __init__(self, name: str):
        stage, span = SITES[name]
        self._stage = stage
        self._span = None if span is None else trace_mod.span(span)

    def __enter__(self) -> Optional[trace_mod.Span]:
        self._timing = None if self._stage is None else _CURRENT.get()
        self._start = time.perf_counter()
        return None if self._span is None else self._span.__enter__()

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self._span is not None:
            self._span.__exit__(exc_type, exc, traceback)
        if self._timing is not None:
            self._timing.add(self._stage, time.perf_counter() - self._start)


def charger(name: str) -> Callable[[float], None]:
    """The current request's accumulator for site *name*'s stage, taken
    once: a lazy stream's per-batch timers run after the scope has closed,
    often on another thread, and pay no lookup per batch. Outside a request
    scope the seconds go to a timing nobody reads."""
    timing = _CURRENT.get() or RequestTiming()
    return functools.partial(timing.add, SITES[name][0])
