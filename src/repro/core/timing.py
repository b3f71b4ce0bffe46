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

:class:`RequestTiming` collects these for one request; :class:`TimingLog`
keeps running sums across a workload run (constant size, however long the
engine lives). A request's stage time that lands after it was recorded —
result conversion runs as the client pulls the stream — still reaches the
sums, because a recorded timing forwards later increments to its log. A
log constructed with a
:class:`~repro.core.trace.MetricsRegistry` additionally feeds per-stage
latency histograms (``hyperq_stage_seconds_<stage>``) and the request
counter on every record, so the Figure 9 instrumentation and the
observability layer read from one stream.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

#: Stage names accepted by :meth:`RequestTiming.measure`.
STAGES = ("translation", "execution", "result_conversion", "cache_lookup",
          "dependency_extract", "queue_wait")


@dataclass
class RequestTiming:
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

    @property
    def total(self) -> float:
        return (self.translation + self.execution + self.result_conversion
                + self.cache_lookup + self.dependency_extract
                + self.queue_wait)

    @property
    def overhead(self) -> float:
        """Hyper-Q's share of the request (everything but execution)."""
        return (self.translation + self.result_conversion + self.cache_lookup
                + self.dependency_extract + self.queue_wait)

    @property
    def overhead_fraction(self) -> float:
        return self.overhead / self.total if self.total else 0.0

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


class TimingLog:
    """Running per-stage sums across many requests (Figure 9 series).

    *metrics*, an optional :class:`~repro.core.trace.MetricsRegistry`, is
    mirrored into on every :meth:`record` (typed loosely to keep this
    module import-light).
    """

    def __init__(self, metrics: Optional[object] = None):
        self.metrics = metrics
        #: Requests recorded.
        self.count = 0
        self.translation = 0.0
        self.execution = 0.0
        self.result_conversion = 0.0
        self.cache_lookup = 0.0
        self.dependency_extract = 0.0
        self.queue_wait = 0.0
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

    @property
    def total(self) -> float:
        return (self.translation + self.execution + self.result_conversion
                + self.cache_lookup + self.dependency_extract
                + self.queue_wait)

    def breakdown(self) -> dict[str, float]:
        """Fractions of end-to-end time per stage (sums to 1.0)."""
        total = self.total
        if not total:
            return {stage: 0.0 for stage in STAGES}
        return {stage: getattr(self, stage) / total for stage in STAGES}

    @property
    def overhead_fraction(self) -> float:
        """Hyper-Q overhead as a fraction of end-to-end time (Figure 9)."""
        total = self.total
        if not total:
            return 0.0
        return (self.translation + self.result_conversion + self.cache_lookup
                + self.dependency_extract + self.queue_wait) / total
