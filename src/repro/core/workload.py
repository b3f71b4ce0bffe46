"""Workload management: classification, admission control, fair scheduling.

Hyper-Q sits on the wire in front of the warehouse and absorbs the *entire*
concurrent traffic of unmodified legacy applications — BI dashboards, ETL
batches, ad-hoc analyst sessions — through one proxy (Section 7.3's stress
shape). Teradata shops expect TASM-style workload management to survive that
mix, and interactive OLAP front-ends make it worse: tools in the Sigma
Worksheet mold emit bursts of machine-written queries per user gesture. A
thread per connection is not a load plan. This module is the load path:

* :class:`QueryClassifier` assigns each request a **workload class**
  (``interactive`` / ``reporting`` / ``etl`` / ``admin``) from rules over
  the bound XTRA tree and session attributes — statement kind, table
  fan-in, aggregation/windowing, estimated scan rows, cache-hit status —
  with an explicit ``SET SESSION WORKLOAD = <class>`` override.
* :class:`WorkloadManager` is the **admission controller**: per-class
  concurrency slots, token-bucket rate limits, bounded queues that shed
  load with a graceful error ("workload queue full, retry after") when they
  saturate, and **deadline propagation** — a request that waited too long
  in the queue is rejected *before* execution, never after.
* A **deficit-round-robin scheduler** (:class:`DeficitRoundRobin`; FIFO
  within a class, weighted shares across classes) drives a bounded worker
  pool, replacing thread-per-request execution in the wire server. A
  request submitted from *inside* an admitted request (an emulator-issued
  child statement) runs inline on the owning worker — priority
  inheritance — so a multi-statement emulation can never deadlock behind
  its own class limit.
* **Runtime feedback**: per-class admitted/queued/shed/deadline-missed
  counters and queue-wait / run-time histograms (:class:`WorkloadStats`,
  surfaced through :class:`~repro.core.tracker.FeatureTracker` and the
  ``queue_wait`` timing stage), plus dynamic reclassification that demotes
  sessions whose queries repeatedly overrun their class's run-time ceiling.

Everything scheduling-related is clock-injectable, and the fault plane has
an ``admission`` site (:data:`~repro.core.faults.ADMISSION_REJECT` forces a
shed; :data:`~repro.core.faults.SLOW_RESULT` adds *synthetic* queue age) so
the resilience battery can script queue-full and deadline storms
deterministically.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.errors import WorkloadDeadlineError, WorkloadShedError
from repro.core import faults as flt
from repro.core import trace as trace_mod
from repro.core.budget import BatchBudget
from repro.xtra import relational as r
from repro.xtra.visitor import walk_rel

# -- class taxonomy ------------------------------------------------------------------

INTERACTIVE = "interactive"
REPORTING = "reporting"
ETL = "etl"
ADMIN = "admin"

#: The four workload classes, in scheduling-priority order.
WORKLOAD_CLASSES = (INTERACTIVE, REPORTING, ETL, ADMIN)

#: Demotion ladder for sessions that overrun their class's run-time ceiling:
#: interactive -> reporting -> etl (admin and etl never demote).
_DEMOTION_LADDER = (INTERACTIVE, REPORTING, ETL)

#: Hyper-Q observability verbs (``SHOW HYPERQ ...``) — not source-dialect
#: SQL, so the feature extractor can't see them; classified ``admin`` by
#: text probe and exempt from tenant QPS buckets.
_OBSERVABILITY_RE = re.compile(r"\s*SHOW\s+HYPERQ\b", re.IGNORECASE)


@dataclass(frozen=True)
class WorkloadClassConfig:
    """Per-class policy knobs (the TASM band for one class).

    ``weight`` is the deficit-round-robin share; ``max_concurrency`` bounds
    simultaneously *running* requests of the class (0 = only the pool
    bounds); ``queue_depth`` bounds *waiting* requests before the class
    sheds; ``deadline`` (seconds, 0 = none) is the longest a request may
    wait in the queue before it is rejected instead of run; ``rate`` /
    ``burst`` form a token bucket (``rate`` = 0 disables rate limiting);
    ``runtime_ceiling`` (0 = none) is the run time past which a request
    counts as an overrun for session demotion; ``batch_rows`` /
    ``max_memory_bytes`` (0 = inherit) override the engine's
    :class:`~repro.core.budget.BatchBudget` for requests of this class.
    """

    name: str
    weight: float = 1.0
    max_concurrency: int = 0
    queue_depth: int = 64
    deadline: float = 0.0
    rate: float = 0.0
    burst: int = 8
    runtime_ceiling: float = 0.0
    batch_rows: int = 0
    max_memory_bytes: int = 0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("workload class weight must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")

    @property
    def retry_after(self) -> float:
        """Client back-off hint attached to shed replies."""
        if self.rate > 0:
            return max(0.1, 1.0 / self.rate)
        return 0.5


def _default_classes() -> dict[str, WorkloadClassConfig]:
    return {
        INTERACTIVE: WorkloadClassConfig(
            INTERACTIVE, weight=4.0, queue_depth=256, deadline=5.0,
            runtime_ceiling=1.0),
        REPORTING: WorkloadClassConfig(
            REPORTING, weight=2.0, queue_depth=128, deadline=30.0,
            runtime_ceiling=30.0),
        ETL: WorkloadClassConfig(
            ETL, weight=1.0, queue_depth=64, deadline=300.0),
        ADMIN: WorkloadClassConfig(ADMIN, weight=1.0, queue_depth=64),
    }


@dataclass
class WorkloadConfig:
    """Whole-manager configuration: class table plus classifier thresholds.

    ``workers`` sizes the shared executor pool. A query counts as
    ``reporting`` at ``reporting_scan_rows`` estimated scanned rows (or at
    ``reporting_fan_in`` base tables, or any aggregation/windowing) and as
    ``etl`` at ``etl_scan_rows``. ``demote_after`` consecutive run-time
    overruns demote a session one rung down the class ladder.
    """

    classes: dict[str, WorkloadClassConfig] = field(
        default_factory=_default_classes)
    workers: int = 4
    demote_after: int = 3
    reporting_scan_rows: int = 10_000
    etl_scan_rows: int = 100_000
    reporting_fan_in: int = 3

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workload manager needs at least one worker")
        for name in WORKLOAD_CLASSES:
            self.classes.setdefault(name, _default_classes()[name])

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadConfig":
        """Build a config from a plain dict (the ``HQ_WORKLOAD_CONFIG``
        JSON shape)::

            {"workers": 8, "etl_scan_rows": 50000,
             "classes": {"etl": {"weight": 1, "max_concurrency": 2},
                         "interactive": {"deadline": 2.0}}}

        Per-class keys override the defaults; unknown class names are
        rejected eagerly (a typo here would silently misroute a workload).
        """
        data = dict(data)
        class_overrides = data.pop("classes", {})
        classes = _default_classes()
        for name, overrides in class_overrides.items():
            key = name.lower()
            if key not in classes:
                raise ValueError(f"unknown workload class {name!r}")
            classes[key] = replace(classes[key], **overrides)
        known = {"workers", "demote_after", "reporting_scan_rows",
                 "etl_scan_rows", "reporting_fan_in"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown workload config keys {sorted(unknown)}")
        return cls(classes=classes, **data)

    @classmethod
    def from_env(cls, env: Optional[dict] = None) -> "WorkloadConfig":
        """Config from ``HQ_WORKLOAD_CONFIG``: inline JSON, or ``@path``
        (also a bare path) to a JSON file; unset/empty means defaults."""
        value = (env if env is not None else os.environ).get(
            "HQ_WORKLOAD_CONFIG", "").strip()
        if not value:
            return cls()
        if value.startswith("@"):
            value = value[1:]
        if not value.lstrip().startswith("{"):
            with open(value, "r", encoding="utf-8") as handle:
                value = handle.read()
        return cls.from_dict(json.loads(value))

    def per_worker(self, fleet_size: int) -> "WorkloadConfig":
        """This config's share for one of *fleet_size* gateway workers.

        The gateway runs one workload manager per worker process; fleet-wide
        admission limits only hold if each worker enforces ``1/fleet_size``
        of every capacity. Bounded capacities split by ceiling division
        (never below 1, so a small class still admits *something* on every
        shard); token-bucket rates split exactly; ``0`` sentinels (meaning
        "unbounded" / "disabled") stay 0. Classifier thresholds are
        per-query properties and pass through unchanged.
        """
        if fleet_size <= 1:
            return self
        def ceil_share(value: int) -> int:
            return -(-value // fleet_size) if value > 0 else value
        classes = {
            name: replace(
                cfg,
                max_concurrency=ceil_share(cfg.max_concurrency),
                queue_depth=max(1, ceil_share(cfg.queue_depth)),
                rate=cfg.rate / fleet_size if cfg.rate > 0 else 0.0,
                burst=max(1, ceil_share(cfg.burst)),
            )
            for name, cfg in self.classes.items()
        }
        return replace(self, classes=classes,
                       workers=max(1, ceil_share(self.workers)))


# -- classification ------------------------------------------------------------------


@dataclass(frozen=True)
class QueryFeatures:
    """Classification inputs extracted from one bound statement."""

    kind: str                  # "query" | "dml" | "ddl" | "admin" | "unknown"
    fan_in: int = 0            # base tables + CTE references scanned
    has_aggregation: bool = False
    has_window: bool = False
    scan_rows: int = 0         # estimated rows scanned (shadow-catalog stats)
    tables: tuple = ()         # dependency base tables (when extractable)
    constant_filters: int = 0  # constant equality predicates found


#: Statements answered from mid-tier state or mutating the catalog: cheap,
#: rare, and latency-insensitive — the ``admin`` class.
_ADMIN_STATEMENTS = (
    r.NoOp, r.SetSessionParam, r.Transaction, r.HelpCommand, r.ShowCommand,
    r.CreateTable, r.DropTable, r.CreateView, r.DropView, r.CreateMacro,
    r.DropMacro, r.CreateProcedure, r.DropProcedure,
)

#: Statements that mutate data (possibly many rows, possibly via a stored
#: body that contains DML): the ``etl`` class by default.
_DML_STATEMENTS = (r.Insert, r.Update, r.Delete, r.Merge, r.ExecMacro,
                   r.CallProcedure)


#: Assumed selectivity of one constant equality predicate when refining
#: the scan estimate (each ``col = <const>`` divides by this, capped at
#: :data:`_MAX_FILTER_REFINEMENTS` predicates).
_FILTER_SELECTIVITY = 10
_MAX_FILTER_REFINEMENTS = 2


def extract_features(bound: r.Statement,
                     row_estimator: Optional[Callable[[str], int]] = None,
                     catalog=None) -> QueryFeatures:
    """Pull the classifier's inputs out of one bound XTRA statement.

    *row_estimator* maps a table name to its estimated row count (the
    engine wires it to the shadow-catalog statistics); missing estimates
    count as zero rather than failing classification.

    With a *catalog*, the scan estimate comes from the semantic dependency
    extractor instead of a per-``Get`` walk: view references resolve
    through their stored base-table closure (a view scan is priced at its
    base tables, not zero), and each constant equality predicate the
    extractor found divides the estimate by an assumed selectivity — a
    dashboard's ``WHERE region = 'EMEA'`` point-lookup no longer
    classifies like a full reporting scan.
    """
    if isinstance(bound, _ADMIN_STATEMENTS):
        return QueryFeatures(kind="admin")
    if isinstance(bound, _DML_STATEMENTS):
        return QueryFeatures(kind="dml")
    if not isinstance(bound, r.Query):
        return QueryFeatures(kind="unknown")
    fan_in = 0
    has_aggregation = False
    has_window = False
    scan_rows = 0
    for node in walk_rel(bound.plan):
        if isinstance(node, r.Get):
            fan_in += 1
            if row_estimator is not None:
                try:
                    scan_rows += max(0, int(row_estimator(node.table.name)))
                except Exception:
                    pass
        elif isinstance(node, r.CTERef):
            fan_in += 1
        elif isinstance(node, r.Aggregate):
            has_aggregation = True
        elif isinstance(node, r.Window):
            has_window = True
    tables: tuple = ()
    constant_filters = 0
    if catalog is not None:
        deps = None
        try:
            from repro.core import deps as deps_mod

            deps = deps_mod.extract(bound, catalog)
        except Exception:
            deps = None
        if deps is not None and not deps.wildcard:
            tables = deps.tables
            constant_filters = len(deps.constants)
            if row_estimator is not None:
                refined = 0
                for name in deps.tables:
                    try:
                        refined += max(0, int(row_estimator(name)))
                    except Exception:
                        pass
                refined //= _FILTER_SELECTIVITY ** min(
                    constant_filters, _MAX_FILTER_REFINEMENTS)
                scan_rows = refined
    return QueryFeatures(kind="query", fan_in=fan_in,
                         has_aggregation=has_aggregation,
                         has_window=has_window, scan_rows=scan_rows,
                         tables=tables, constant_filters=constant_filters)


@dataclass(frozen=True)
class WorkloadDecision:
    """One request's class assignment plus how it was reached."""

    wl_class: str
    reason: str
    demoted_from: Optional[str] = None
    budget: Optional[BatchBudget] = None


class QueryClassifier:
    """Rule-based class assignment over :class:`QueryFeatures`.

    Rules, in order: an explicit ``SET SESSION WORKLOAD = <class>``
    override wins; catalog/DDL/help statements are ``admin``; DML is
    ``etl``; queries scanning past the ETL threshold are ``etl``; queries
    with aggregation, windowing, wide fan-in, or a reporting-scale scan are
    ``reporting`` — unless the translation is already cached *and* the scan
    is small, the signature of a machine-generated dashboard burst, which
    stays ``interactive``; everything else is ``interactive``.
    """

    def __init__(self, config: WorkloadConfig):
        self.config = config

    def classify(self, features: Optional[QueryFeatures],
                 session_params: Optional[dict] = None,
                 cache_hit: bool = False) -> WorkloadDecision:
        override = None
        if session_params:
            override = session_params.get("WORKLOAD")
        if isinstance(override, str) and override.lower() in self.config.classes:
            return WorkloadDecision(override.lower(), "session override")
        if features is None:
            # Unparseable requests fail fast in translation; classify them
            # interactive so the error reaches the client promptly.
            return WorkloadDecision(INTERACTIVE, "unclassifiable")
        if features.kind == "admin":
            return WorkloadDecision(ADMIN, "catalog/admin statement")
        if features.kind == "dml":
            return WorkloadDecision(ETL, "data-mutating statement")
        if features.kind != "query":
            return WorkloadDecision(INTERACTIVE, "unknown statement kind")
        if features.scan_rows >= self.config.etl_scan_rows:
            return WorkloadDecision(
                ETL, f"scan estimate {features.scan_rows} rows")
        big_scan = features.scan_rows >= self.config.reporting_scan_rows
        shaped = (features.has_aggregation or features.has_window
                  or features.fan_in >= self.config.reporting_fan_in)
        if big_scan:
            return WorkloadDecision(
                REPORTING, f"scan estimate {features.scan_rows} rows")
        if shaped:
            if cache_hit:
                # A memoized translation of a small-scan shaped query is a
                # repeated dashboard gesture: latency-sensitive, cheap.
                return WorkloadDecision(INTERACTIVE, "cached dashboard query")
            return WorkloadDecision(REPORTING, "aggregation/fan-in shape")
        return WorkloadDecision(INTERACTIVE, "point query")


def demote_class(wl_class: str, levels: int) -> str:
    """Apply *levels* rungs of the demotion ladder to *wl_class*."""
    if levels <= 0 or wl_class not in _DEMOTION_LADDER:
        return wl_class
    index = _DEMOTION_LADDER.index(wl_class)
    return _DEMOTION_LADDER[min(index + levels, len(_DEMOTION_LADDER) - 1)]


# -- token bucket --------------------------------------------------------------------


class TokenBucket:
    """Classic token bucket against an injectable monotonic clock.

    ``rate`` <= 0 disables rate limiting (always admits). Not thread-safe
    on its own; the manager serializes access under its scheduler lock.
    """

    def __init__(self, rate: float, burst: int,
                 clock: Callable[[], float] = time.monotonic):
        self.rate = rate
        self.capacity = max(1, burst)
        self._clock = clock
        self._tokens = float(self.capacity)
        self._last = clock()

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(float(self.capacity),
                               self._tokens + (now - self._last) * self.rate)
            self._last = now

    def peek(self, now: Optional[float] = None) -> bool:
        """Would :meth:`take` succeed right now?"""
        if self.rate <= 0:
            return True
        self._refill(self._clock() if now is None else now)
        return self._tokens >= 1.0

    def take(self, now: Optional[float] = None) -> bool:
        """Consume one token if available."""
        if self.rate <= 0:
            return True
        self._refill(self._clock() if now is None else now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


# -- deficit round robin -------------------------------------------------------------


class DeficitRoundRobin:
    """Weighted-fair dispatch across per-class FIFO queues.

    Pure data structure — no threads, no clock — so the scheduling
    discipline is property-testable in isolation. Each :meth:`next` call
    visits classes round-robin; a visited class with backlog accrues a
    deficit quantum proportional to its weight and serves one item per
    whole unit of deficit. Shares therefore converge to the weight ratios,
    and any backlogged class with positive weight is served within
    ``ceil(max_weight / weight)`` full rotations — starvation-free by
    construction.
    """

    def __init__(self, weights: dict[str, float]):
        if not weights:
            raise ValueError("at least one class is required")
        if any(w <= 0 for w in weights.values()):
            raise ValueError("class weights must be positive")
        self._order = list(weights)
        max_weight = max(weights.values())
        #: per-visit deficit quantum, normalized so the heaviest class
        #: accrues exactly one service per rotation.
        self._quantum = {c: w / max_weight for c, w in weights.items()}
        min_quantum = min(self._quantum.values())
        #: visits that guarantee either a serve or a provably empty pass.
        self._max_scan = len(self._order) * (math.ceil(1.0 / min_quantum) + 1)
        self._queues: dict[str, deque] = {c: deque() for c in self._order}
        self._deficit = {c: 0.0 for c in self._order}
        self._cursor = 0

    def enqueue(self, wl_class: str, item) -> None:
        self._queues[wl_class].append(item)

    def pending(self, wl_class: str) -> int:
        return len(self._queues[wl_class])

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def sweep(self, predicate) -> list:
        """Remove and return every queued item matching *predicate*,
        preserving FIFO order among the survivors (deadline expiry and
        caller-side cancellation both funnel through here)."""
        removed = []
        for queue in self._queues.values():
            if not queue:
                continue
            kept = [item for item in queue
                    if not (predicate(item) and (removed.append(item) or True))]
            if len(kept) != len(queue):
                queue.clear()
                queue.extend(kept)
        return removed

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._order)

    def next(self, eligible: Optional[Callable[[str], bool]] = None):
        """Pop the next ``(class, item)`` to run, or None if nothing is
        both backlogged and eligible. Ineligible classes (at their
        concurrency cap, out of tokens) are skipped without accruing
        deficit, so they do not burst when they become eligible again."""
        for __ in range(self._max_scan):
            wl_class = self._order[self._cursor]
            queue = self._queues[wl_class]
            if not queue:
                # An idle class must not bank credit against the future.
                self._deficit[wl_class] = 0.0
                self._advance()
                continue
            if eligible is not None and not eligible(wl_class):
                self._advance()
                continue
            if self._deficit[wl_class] < 1.0:
                self._deficit[wl_class] += self._quantum[wl_class]
            if self._deficit[wl_class] >= 1.0:
                self._deficit[wl_class] -= 1.0
                item = queue.popleft()
                self._advance()
                return wl_class, item
            self._advance()
        return None


# -- stats ---------------------------------------------------------------------------

#: Histogram bucket upper bounds, seconds (last bucket is unbounded).
HISTOGRAM_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class LatencyHistogram:
    """Fixed-bucket latency histogram (queue-wait / run-time feedback)."""

    def __init__(self):
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        index = 0
        for index, bound in enumerate(HISTOGRAM_BOUNDS):
            if seconds <= bound:
                break
        else:
            index = len(HISTOGRAM_BOUNDS)
        self.buckets[index] += 1
        self.count += 1
        self.total += seconds
        self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {"buckets": list(self.buckets), "count": self.count,
                "mean": self.mean, "max": self.max}


class WorkloadStats:
    """Thread-safe per-class counters + histograms (the Figure-8-style
    operational companion for the load path)."""

    EVENTS = ("admitted", "queued", "shed", "deadline_missed", "demoted",
              "inherited")

    def __init__(self, classes: tuple[str, ...] = WORKLOAD_CLASSES):
        self._lock = threading.Lock()
        self._counts = {c: {e: 0 for e in self.EVENTS} for c in classes}
        self._queue_wait = {c: LatencyHistogram() for c in classes}
        self._run_time = {c: LatencyHistogram() for c in classes}

    def count(self, wl_class: str, event: str) -> None:
        with self._lock:
            self._counts[wl_class][event] += 1

    def observe_wait(self, wl_class: str, seconds: float) -> None:
        with self._lock:
            self._queue_wait[wl_class].observe(seconds)

    def observe_run(self, wl_class: str, seconds: float) -> None:
        with self._lock:
            self._run_time[wl_class].observe(seconds)

    def get(self, wl_class: str, event: str) -> int:
        with self._lock:
            return self._counts[wl_class][event]

    def total(self, event: str) -> int:
        with self._lock:
            return sum(c[event] for c in self._counts.values())

    def snapshot(self) -> dict:
        with self._lock:
            return {
                wl_class: {
                    **dict(self._counts[wl_class]),
                    "queue_wait": self._queue_wait[wl_class].snapshot(),
                    "run_time": self._run_time[wl_class].snapshot(),
                }
                for wl_class in self._counts
            }


# -- the manager ---------------------------------------------------------------------


class _WorkRequest:
    """One admitted-or-waiting request inside the manager."""

    __slots__ = ("wl_class", "fn", "future", "session_uid", "enqueued",
                 "deadline_at", "synthetic_wait", "decision", "tenant")

    def __init__(self, decision: WorkloadDecision, fn, session_uid: int,
                 enqueued: float, deadline_at: Optional[float],
                 synthetic_wait: float, tenant: Optional[str] = None):
        self.decision = decision
        self.wl_class = decision.wl_class
        self.fn = fn
        self.future: Future = Future()
        self.session_uid = session_uid
        self.enqueued = enqueued
        self.deadline_at = deadline_at
        self.synthetic_wait = synthetic_wait
        self.tenant = tenant


@dataclass
class WorkloadTicket:
    """Handle returned by :meth:`WorkloadManager.submit`."""

    future: Future
    request: Optional[_WorkRequest] = None  # None when run inline (nested)
    decision: Optional[WorkloadDecision] = None


#: How long a worker sleeps while requests are queued but ineligible
#: (token refill / concurrency-slot granularity).
_BLOCKED_POLL_INTERVAL = 0.005

#: Bounded memo of sql text -> base classification decision.
_DECISION_MEMO_ENTRIES = 2048


class WorkloadManager:
    """The admission controller + fair scheduler fronting one engine (or a
    scaled fleet). Construct once, share across every connection.

    With a :class:`~repro.core.tenancy.TenantRegistry` attached, the
    deficit-round-robin scheduler runs over (tenant, class) queues with
    product weights — tenant share × class share — and admission enforces
    the tenant's quotas (queue depth, QPS bucket at submit; concurrency
    slots at dispatch) *before* any per-class policy. Without one, the
    scheduler is per-class exactly as in PR 4.
    """

    def __init__(self, config: Optional[WorkloadConfig] = None,
                 tracker=None, faults=None,
                 clock: Callable[[], float] = time.monotonic,
                 tenancy=None):
        self.config = config if config is not None else WorkloadConfig()
        self.classifier = QueryClassifier(self.config)
        self.tracker = tracker
        self.faults = faults
        self.tenancy = tenancy
        self._clock = clock
        self.stats = WorkloadStats(tuple(self.config.classes))
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        class_weights = {name: cfg.weight
                         for name, cfg in self.config.classes.items()}
        if tenancy is not None:
            self._drr = DeficitRoundRobin(
                tenancy.scheduler_weights(class_weights))
        else:
            self._drr = DeficitRoundRobin(class_weights)
        self._buckets = {name: TokenBucket(cfg.rate, cfg.burst, clock)
                         for name, cfg in self.config.classes.items()}
        self._running = {name: 0 for name in self.config.classes}
        self._demotions: dict[int, int] = {}
        self._overruns: dict[int, int] = {}
        self._decisions: "OrderedDict[tuple, WorkloadDecision]" = OrderedDict()
        self._active = threading.local()
        self._stopped = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"hyperq-wm-{index}",
                             daemon=True)
            for index in range(self.config.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- classification ----------------------------------------------------------

    def decide(self, session, sql: str) -> WorkloadDecision:
        """Classify one request for *session*: session override, memoized
        rule classification, then the session's demotion level."""
        if _OBSERVABILITY_RE.match(sql):
            # Hyper-Q's own SHOW HYPERQ verbs are admin work no matter
            # what the session pinned or how far it demoted: a tenant at
            # its QPS budget must still be able to observe its own sheds.
            return self._attach_budget(
                session, WorkloadDecision(ADMIN, "hyperq observability"))
        params = getattr(session, "session_params", None)
        override = params.get("WORKLOAD") if params else None
        if isinstance(override, str) and override.lower() in self.config.classes:
            decision = WorkloadDecision(override.lower(), "session override")
        else:
            decision = self._base_decision(session, sql)
            decision = self._apply_demotion(session, decision)
        return self._attach_budget(session, decision)

    def _base_decision(self, session, sql: str) -> WorkloadDecision:
        # Scan estimates move with the catalog, so memoized classifications
        # are keyed on the shadow-catalog version as well as the text.
        version = getattr(getattr(session, "engine", None), "shadow", None)
        key = (sql, version.version if version is not None else 0)
        with self._lock:
            memoized = self._decisions.get(key)
            if memoized is not None:
                self._decisions.move_to_end(key)
                return memoized
        features, cache_hit = session.workload_features(sql)
        params = getattr(session, "session_params", None)
        decision = self.classifier.classify(features, params, cache_hit)
        # Cache-hit status changes as the translation cache warms, so only
        # decisions that come out the same either way may be memoized — a
        # shaped small-scan query must re-classify per request or the
        # "cached dashboard query stays interactive" rule could never fire
        # after its first (cache-miss) classification was memoized.
        if decision == self.classifier.classify(features, params,
                                                not cache_hit):
            with self._lock:
                self._decisions[key] = decision
                while len(self._decisions) > _DECISION_MEMO_ENTRIES:
                    self._decisions.popitem(last=False)
        return decision

    def _apply_demotion(self, session,
                        decision: WorkloadDecision) -> WorkloadDecision:
        uid = _session_uid(session)
        with self._lock:
            level = self._demotions.get(uid, 0)
        if not level:
            return decision
        demoted = demote_class(decision.wl_class, level)
        if demoted == decision.wl_class:
            return decision
        return replace(decision, wl_class=demoted,
                       demoted_from=decision.wl_class,
                       reason=f"{decision.reason}; session demoted "
                              f"{level} level(s) after repeated overruns")

    def _attach_budget(self, session,
                       decision: WorkloadDecision) -> WorkloadDecision:
        cfg = self.config.classes[decision.wl_class]
        if not cfg.batch_rows and not cfg.max_memory_bytes:
            return decision
        base = getattr(getattr(session, "engine", None), "batch_budget", None)
        if base is None:
            base = BatchBudget()
        return replace(decision, budget=base.with_overrides(
            batch_rows=cfg.batch_rows,
            max_memory_bytes=cfg.max_memory_bytes))

    def demotion_level(self, session) -> int:
        with self._lock:
            return self._demotions.get(_session_uid(session), 0)

    # -- admission ---------------------------------------------------------------

    def submit(self, session, sql: str, fn: Callable[[], object],
               decision: Optional[WorkloadDecision] = None) -> WorkloadTicket:
        """Admit (or shed) one request; returns a ticket whose future
        resolves to ``fn()``'s outcome.

        Raises :class:`~repro.errors.WorkloadShedError` when the class
        queue is saturated (or an ``admission`` fault forces a shed) and
        :class:`~repro.errors.WorkloadDeadlineError` when injected queue
        age already exceeds the class deadline — both *before* any work
        runs, so the caller can reply gracefully and keep the session.
        """
        if decision is None:
            decision = self.decide(session, sql)
        wl_class = decision.wl_class
        cfg = self.config.classes[wl_class]
        # Priority inheritance: a request submitted from inside an admitted
        # request (an emulator-issued child statement) runs inline on the
        # owning worker — waiting in its own class queue could deadlock the
        # emulation behind its own concurrency limit.
        if getattr(self._active, "depth", 0) > 0:
            return self._run_inline(decision, fn, _session_uid(session))
        tenant = None
        if self.tenancy is not None:
            params = getattr(session, "session_params", None)
            tenant = self.tenancy.resolve((params or {}).get("TENANT"))
            # Tenant quotas gate *before* any per-class policy: a tenant at
            # its queue-depth or QPS budget sheds with QUOTA_EXCEEDED (and
            # a retry-after hint) no matter how empty its class queue is.
            self.tenancy.admit(tenant, wl_class, sql)
        synthetic_wait = 0.0
        if self.faults is not None:
            fault = self.faults.draw("admission", op=sql)
            if fault is not None:
                if fault.kind == flt.ADMISSION_REJECT:
                    self._shed(decision, cfg, "injected")
                elif fault.kind == flt.SLOW_RESULT:
                    # Synthetic queue age: the deterministic stand-in for a
                    # request that sat in a saturated queue.
                    synthetic_wait = fault.delay
        now = self._clock()
        deadline_at = None
        if cfg.deadline > 0:
            deadline_at = now + cfg.deadline - synthetic_wait
            if deadline_at <= now:
                self._deadline_missed(decision, cfg, synthetic_wait,
                                      injected=True)
        request = _WorkRequest(decision, fn, _session_uid(session), now,
                               deadline_at, synthetic_wait, tenant)
        key = wl_class if tenant is None else (tenant, wl_class)
        with self._cond:
            if self._class_pending(wl_class) >= cfg.queue_depth:
                pass_lock = True
            else:
                pass_lock = False
                self._drr.enqueue(key, request)
                if tenant is not None:
                    self.tenancy.note_queued(tenant)
                self._cond.notify()
        if pass_lock:
            self._shed(decision, cfg, "queue-full")
        self.stats.count(wl_class, "queued")
        self._note(wl_class, "queued")
        return WorkloadTicket(request.future, request, decision)

    def wait(self, ticket: WorkloadTicket,
             timeout: Optional[float] = None) -> object:
        """Block for a ticket's outcome, enforcing the queue deadline from
        the caller side: a request still *queued* when its deadline lapses
        is cancelled and rejected with a clean error; a request already
        *running* is allowed to finish (*timeout*, when given, bounds that
        final wait — on expiry :class:`concurrent.futures.TimeoutError`
        propagates for the caller's straggler handling)."""
        request = ticket.request
        if request is None:
            return ticket.future.result()
        first_window = None
        if request.deadline_at is not None:
            first_window = (max(0.0, request.deadline_at - self._clock())
                            + _BLOCKED_POLL_INTERVAL)
        if timeout is not None:
            first_window = timeout if first_window is None \
                else min(first_window, timeout)
        if first_window is None:
            return ticket.future.result()
        try:
            return ticket.future.result(timeout=first_window)
        except FutureTimeoutError:
            with self._cond:
                removed = self._drr.sweep(lambda rq: rq is request)
                self._unqueue_removed(removed)
            if removed:
                now = self._clock()
                if request.deadline_at is not None \
                        and now >= request.deadline_at - 1e-9:
                    self._deadline_missed(
                        request.decision,
                        self.config.classes[request.wl_class],
                        now - request.enqueued + request.synthetic_wait)
                # The caller's own timeout lapsed while the request was
                # still queued: cancelled cleanly — nothing ran, nothing
                # straggles (the cancelled future tells the caller so).
                request.future.cancel()
                raise
            # Already running: let it finish within the caller's remaining
            # budget (unbounded when only the class deadline was in play —
            # deadlines govern queue time, not run time).
            if timeout is not None:
                spent = self._clock() - request.enqueued
                return ticket.future.result(
                    timeout=max(0.0, timeout - spent))
            return ticket.future.result()

    def run(self, session, sql: str, fn: Optional[Callable[[], object]] = None,
            decision: Optional[WorkloadDecision] = None) -> object:
        """Classify + admit + schedule + wait: the one-call entry point."""
        if fn is None:
            fn = lambda: session.execute(sql)  # noqa: E731
        ticket = self.submit(session, sql, fn, decision)
        return self.wait(ticket)

    def close(self) -> None:
        """Stop the worker pool; queued requests are abandoned."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=2)

    def snapshot(self) -> dict:
        """Per-class stats snapshot (counters + histograms)."""
        return self.stats.snapshot()

    # -- tenancy plumbing --------------------------------------------------------

    def _class_pending(self, wl_class: str) -> int:
        """Waiting requests of one class (summed across tenant queues)."""
        if self.tenancy is None:
            return self._drr.pending(wl_class)
        return sum(self._drr.pending((tenant, wl_class))
                   for tenant in self.tenancy.tenant_names)

    def _unqueue_removed(self, removed) -> None:
        """Keep the registry's queued gauges honest for requests swept out
        of the scheduler (deadline expiry, caller-side cancellation)."""
        if self.tenancy is None:
            return
        for request in removed:
            if request.tenant is not None:
                self.tenancy.note_unqueued(request.tenant)

    # -- shedding / deadlines ----------------------------------------------------

    def _shed(self, decision: WorkloadDecision, cfg: WorkloadClassConfig,
              reason: str) -> None:
        self.stats.count(decision.wl_class, "shed")
        self._note(decision.wl_class, "shed")
        if self.faults is not None:
            self.faults.record("shed", reason=reason,  # also traces the event
                               **{"class": decision.wl_class})
        else:
            trace_mod.add_event("shed", reason=reason,
                                wl_class=decision.wl_class)
        raise WorkloadShedError(
            f"workload queue full for class '{decision.wl_class}' "
            f"({reason}), retry after {cfg.retry_after:g}s")

    def _deadline_missed(self, decision: WorkloadDecision,
                         cfg: WorkloadClassConfig, waited: float,
                         injected: bool = False) -> None:
        self.stats.count(decision.wl_class, "deadline_missed")
        self._note(decision.wl_class, "deadline_missed")
        # Only *injected* misses enter the fault log: real queue waits are
        # wall-clock-dependent, and the log must stay byte-reproducible.
        if injected and self.faults is not None:
            self.faults.record("deadline_missed",  # also traces the event
                               **{"class": decision.wl_class})
        else:
            trace_mod.add_event("deadline_missed",
                                wl_class=decision.wl_class)
        raise WorkloadDeadlineError(
            f"workload deadline exceeded for class '{decision.wl_class}' "
            f"after {waited:.3f}s queued (limit {cfg.deadline:g}s); "
            f"request rejected before execution")

    def _reject_expired(self, request: _WorkRequest, now: float) -> None:
        waited = now - request.enqueued + request.synthetic_wait
        try:
            self._deadline_missed(request.decision,
                                  self.config.classes[request.wl_class],
                                  waited,
                                  injected=request.synthetic_wait > 0)
        except WorkloadDeadlineError as error:
            if not request.future.done():
                request.future.set_exception(error)

    # -- the executor pool -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                item = None
                while not self._stopped:
                    item = self._next_locked()
                    if item is not None:
                        break
                    # Sleep indefinitely when idle; poll at token-refill
                    # granularity when backlogged but ineligible.
                    self._cond.wait(_BLOCKED_POLL_INTERVAL
                                    if len(self._drr) else None)
                if item is None:
                    return
                __, request = item
                wl_class = request.wl_class
                self._running[wl_class] += 1
            try:
                self._execute(request)
            finally:
                if request.tenant is not None and self.tenancy is not None:
                    self.tenancy.note_finish(request.tenant)
                with self._cond:
                    self._running[wl_class] -= 1
                    self._cond.notify_all()

    def _next_locked(self):
        now = self._clock()
        # Expired waiters are rejected during dispatch — before execution —
        # regardless of whether their class is currently eligible.
        expired = self._drr.sweep(
            lambda rq: rq.deadline_at is not None
            and now >= rq.deadline_at)
        self._unqueue_removed(expired)
        for request in expired:
            self._reject_expired(request, now)

        def eligible(key) -> bool:
            tenant, wl_class = (key if isinstance(key, tuple)
                                else (None, key))
            cfg = self.config.classes[wl_class]
            if cfg.max_concurrency \
                    and self._running[wl_class] >= cfg.max_concurrency:
                return False
            if tenant is not None and not self.tenancy.has_slot(tenant):
                # A tenant at its concurrency quota is skipped without
                # accruing deficit, exactly like a capped class.
                return False
            return self._buckets[wl_class].peek(now)

        item = self._drr.next(eligible)
        if item is None:
            return None
        key, request = item
        self._buckets[request.wl_class].take(now)
        return key, request

    def _execute(self, request: _WorkRequest) -> None:
        start = self._clock()
        wait = start - request.enqueued + request.synthetic_wait
        wl_class = request.wl_class
        self.stats.observe_wait(wl_class, wait)
        self.stats.count(wl_class, "admitted")
        self._note(wl_class, "admitted")
        if request.tenant is not None and self.tenancy is not None:
            self.tenancy.note_dispatch(request.tenant, wait)
            trace_mod.add_event("tenant_dispatch", tenant=request.tenant,
                                wl_class=wl_class)
        self._active.depth = getattr(self._active, "depth", 0) + 1
        try:
            result = request.fn()
        except BaseException as error:  # noqa: BLE001 — future carries it
            if not request.future.done():
                request.future.set_exception(error)
        else:
            run_time = self._clock() - start
            self.stats.observe_run(wl_class, run_time)
            timing = getattr(result, "timing", None)
            if timing is not None and hasattr(timing, "queue_wait"):
                timing.add("queue_wait", wait)
            self._feedback(request, run_time)
            if not request.future.done():
                request.future.set_result(result)
        finally:
            self._active.depth -= 1

    def _run_inline(self, decision: WorkloadDecision, fn,
                    session_uid: int) -> WorkloadTicket:
        """Execute a nested submission on the owning worker (priority
        inheritance for emulator-issued child statements)."""
        wl_class = decision.wl_class
        self.stats.count(wl_class, "inherited")
        self.stats.count(wl_class, "admitted")
        self._note(wl_class, "inherited")
        future: Future = Future()
        start = self._clock()
        try:
            result = fn()
        except BaseException as error:  # noqa: BLE001
            future.set_exception(error)
        else:
            self.stats.observe_run(wl_class, self._clock() - start)
            future.set_result(result)
        return WorkloadTicket(future, None, decision)

    # -- runtime feedback --------------------------------------------------------

    def _feedback(self, request: _WorkRequest, run_time: float) -> None:
        cfg = self.config.classes[request.wl_class]
        if cfg.runtime_ceiling <= 0:
            return
        uid = request.session_uid
        with self._lock:
            if run_time <= cfg.runtime_ceiling:
                self._overruns.pop(uid, None)
                return
            overruns = self._overruns.get(uid, 0) + 1
            self._overruns[uid] = overruns
            if overruns < self.config.demote_after:
                return
            level = self._demotions.get(uid, 0)
            if demote_class(request.wl_class, 1) == request.wl_class:
                return  # already at the bottom of the ladder
            self._demotions[uid] = min(level + 1, len(_DEMOTION_LADDER) - 1)
            self._overruns[uid] = 0
        self.stats.count(request.wl_class, "demoted")
        self._note(request.wl_class, "demoted")

    def _note(self, wl_class: str, event: str) -> None:
        if self.tracker is not None:
            self.tracker.note_workload(wl_class, event)


def _session_uid(session) -> int:
    catalog = getattr(session, "catalog", None)
    return getattr(catalog, "uid", 0) if catalog is not None else 0
