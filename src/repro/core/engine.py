"""The Hyper-Q engine: adaptive data virtualization end to end.

One :class:`HyperQSession` per client connection. Each request runs the
paper's pipeline (Figure 3):

    Protocol Handler -> Parser -> Binder -> Transformer -> Serializer
        -> ODBC Server -> target -> Result Converter -> client

(TDF is the ODBC Server's framing for out-of-process drivers; in-process
row batches go straight to the Result Converter's compiled codec.)

Statements the target cannot express are routed to the emulators in
:mod:`repro.core.emulation`, which issue multiple target requests and keep
mid-tier state. Per-request stage timings (Figure 9) and tracked-feature
observations (Figure 8) are collected on the way through.
"""

from __future__ import annotations

import functools
import re
import threading

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import HyperQError, UnsupportedFeatureError
from repro.backend.engine import Database
from repro.core import deps as deps_mod
from repro.core import trace as trace_mod
from repro.core.budget import BatchBudget
from repro.core.cache import Fingerprint, TranslationCache
from repro.core.catalog import SessionCatalog, ShadowCatalog
from repro.core.emulation import (
    column_props, help_commands, macros, merge, procedures, recursive,
    set_tables, views,
)
from repro.core.faults import ResilienceStats, RetryPolicy
from repro.core.result_cache import ResultCache, ResultEntry
from repro.core.timing import RequestTiming, TimingLog
from repro.core.trace import TraceHub, render_trace
from repro.core.tracker import FeatureTracker
from repro.frontend.teradata import ast as td_ast
from repro.frontend.teradata.binder import Binder
from repro.frontend.teradata.parser import TeradataParser
from repro.odbc.api import OdbcResult, OdbcServer
from repro.odbc.drivers import InProcessDriver
from repro.protocol.encoding import ColumnMeta
from repro.results.converter import ConvertedResult, ResultConverter
from repro.serializer import serializer_for
from repro.transform.capabilities import CapabilityProfile, HYPERION, PROFILES
from repro.transform.engine import Transformer
from repro.xtra import relational as r
from repro.xtra import types as t
from repro.xtra.relational import RelNode
from repro.xtra.schema import ColumnSchema, TableSchema
from repro.xtra.visitor import walk_rel


class HQResult:
    """Outcome of one Hyper-Q request as seen by the application.

    Row results carry a converted result whose chunks may still be
    streaming from the backend; :attr:`rows` and :attr:`rowcount` are
    compatibility shims that drain the stream (buffering through the
    Result Store, which spills past the memory budget) on first access.
    """

    def __init__(self, kind: str,
                 columns: Optional[list[str]] = None,
                 metas: Optional[list[ColumnMeta]] = None,
                 converted: Optional[ConvertedResult] = None,
                 rowcount: Optional[int] = None,
                 timing: Optional[RequestTiming] = None,
                 target_sql: Optional[list[str]] = None):
        self.kind = kind  # "rows" | "count" | "ok"
        self.columns = columns if columns is not None else []
        self.metas = metas if metas is not None else []
        self.converted = converted
        self._rowcount = rowcount
        self.timing = timing if timing is not None else RequestTiming()
        self.target_sql = target_sql if target_sql is not None else []

    @property
    def rowcount(self) -> int:
        if self._rowcount is not None:
            return self._rowcount
        if self.converted is not None:
            return self.converted.rowcount
        return 0

    @property
    def rows(self) -> list[tuple]:
        """Decode the converted binary payload back into Python rows."""
        if self.converted is None:
            return []
        return self.converted.rows()

    def iter_chunks(self):
        """Converted wire chunks as they arrive (the streaming fast path)."""
        if self.converted is None:
            return iter(())
        return self.converted.iter_chunks()

    def close(self) -> None:
        if self.converted is not None:
            self.converted.close()


@dataclass
class TranslationResult:
    """Outcome of translation without execution (the workload-study path)."""

    kind: str  # "sql" | "emulated" | "ok"
    statements: list[str] = field(default_factory=list)
    emulated_feature: Optional[str] = None


class HyperQ:
    """The shared virtualization engine: one per (source, target) pair."""

    def __init__(self, backend: Optional[Database] = None,
                 target: CapabilityProfile | str = HYPERION,
                 tracker: Optional[FeatureTracker] = None,
                 dml_batching: bool = False,
                 source: str = "teradata",
                 spill_dir: Optional[str] = None,
                 cache_size: int = 32 * 1024 * 1024,
                 faults=None,
                 retry: Optional[RetryPolicy] = None,
                 replica: Optional[int] = None,
                 batch_budget: Optional[BatchBudget] = None,
                 workload=None,
                 tracing: bool = True,
                 trace_ring: int = 256,
                 trace_log: Optional[str] = None,
                 slow_query_log: Optional[str] = None,
                 cache_tier=None,
                 worker_index: Optional[int] = None,
                 fleet_size: int = 1,
                 result_cache_bytes: int = 0,
                 tenancy=None):
        if isinstance(target, str):
            target = PROFILES[target]
        if source not in ("teradata", "ansi"):
            raise HyperQError(f"unknown source dialect {source!r}")
        #: source dialect each session's frontend speaks.
        self.source = source
        self.profile = target
        #: Optional :class:`repro.core.faults.FaultSchedule`; wired into the
        #: ODBC layer, the backend executor (when the backend is engine-built),
        #: and the wire server fronting this engine.
        self.faults = faults
        #: Replica index when this engine is one member of a scaled fleet.
        self.replica = replica
        #: Gateway worker index when this engine runs inside one shard of a
        #: multi-process gateway (None = standalone). Workers draw the
        #: ``"gateway"`` fault site per request, keyed by this index.
        self.worker_index = worker_index
        #: Fleet aggregation client installed by the gateway worker; when
        #: set, ``SHOW HYPERQ METRICS/TRACES/...`` report fleet-wide.
        self.fleet = None
        #: Retry policy for transient backend failures on the target path.
        self.retry = retry if retry is not None else RetryPolicy()
        #: What the resilience machinery actually did (retries, timeouts...).
        self.resilience = ResilienceStats()
        #: Per-request stream bounds: rows per batch between layers, and the
        #: buffering memory ceiling before a layer spills to disk (§4.5/4.6).
        if batch_budget is None:
            batch_budget = BatchBudget()
        self.batch_budget = batch_budget
        self.backend = (backend if backend is not None
                        else Database(target, faults=faults, replica=replica,
                                      batch_rows=batch_budget.batch_rows))
        self.shadow = ShadowCatalog()
        self.tracker = tracker
        #: The observability layer: request traces, metric registry, sinks
        #: (ring buffer, JSONL log, slow-query log). ``tracing=False`` keeps
        #: the registry but records no spans (``serve --no-trace``).
        self.tracing = TraceHub(enabled=tracing, ring_size=trace_ring,
                                trace_log=trace_log,
                                slow_query_log=slow_query_log,
                                id_offset=worker_index or 0,
                                id_stride=max(1, fleet_size))
        if tracker is not None and tracker.metrics is None:
            tracker.metrics = self.tracing.metrics
        self.timing_log = TimingLog(metrics=self.tracing.metrics)
        #: Multi-tenant control plane: a
        #: :class:`~repro.core.tenancy.TenantRegistry` (or a
        #: :class:`~repro.core.tenancy.TenancyConfig`, promoted here).
        #: Establishes identity at LOGON, partitions the caches, and feeds
        #: ``SHOW HYPERQ TENANTS``.
        self.tenancy = None
        if tenancy is not None:
            from repro.core.tenancy import TenancyConfig, TenantRegistry

            if isinstance(tenancy, TenancyConfig):
                tenancy = TenantRegistry(tenancy, faults=faults)
            self.tenancy = tenancy
        if self.tenancy is None and workload is not None:
            # Adopt the manager's registry so LOGON resolution, cache
            # shares, and SHOW HYPERQ TENANTS see the same control plane.
            self.tenancy = getattr(workload, "tenancy", None)
        #: Shared translation cache (byte cap; 0 disables caching entirely).
        self.cache: Optional[TranslationCache] = None
        if cache_size > 0:
            self.cache = TranslationCache(
                cache_size, tier=cache_tier,
                tenant_shares=(self.tenancy.translation_cache_shares()
                               if self.tenancy is not None else None))
            # Schema epochs (DDL) invalidate translations of the touched
            # tables only; entries on disjoint tables survive.
            self.shadow.subscribe(self.cache.invalidate_tables)
        #: Semantic result cache (byte cap; 0 disables). Subscribed to the
        #: *data* channel: DML on a table drops exactly the materialized
        #: results whose dependency set includes it.
        self.result_cache: Optional[ResultCache] = None
        if result_cache_bytes > 0:
            self.result_cache = ResultCache(
                result_cache_bytes, faults=faults,
                tenant_shares=(self.tenancy.result_cache_shares()
                               if self.tenancy is not None else None))
            registry = self.tracing.metrics

            def _on_data_change(names, _rc=self.result_cache, _m=registry):
                dropped = _rc.invalidate_tables(names)
                if dropped and _m is not None:
                    _m.counter(
                        "hyperq_result_cache_invalidations_total").inc(dropped)

            self.shadow.subscribe_data(_on_data_change)
        #: Section 4.3's performance transformation: merge contiguous
        #: single-row VALUES inserts in execute_script into one statement.
        self.dml_batching = dml_batching
        self.spill_dir = spill_dir
        self._session_lock = threading.Lock()
        self._open_sessions = 0
        #: Optional :class:`repro.core.workload.WorkloadManager` fronting
        #: this engine: the wire server routes every request through it for
        #: classification, admission control, and fair scheduling. A manager
        #: constructed bare adopts the engine's tracker and fault schedule.
        self.workload = workload
        if workload is not None:
            if workload.tracker is None:
                workload.tracker = tracker
            if workload.faults is None:
                workload.faults = faults
            if self.tenancy is not None \
                    and getattr(workload, "tenancy", None) is not self.tenancy:
                raise HyperQError(
                    "tenancy requires the WorkloadManager to schedule per "
                    "tenant: construct it with "
                    "WorkloadManager(config, tenancy=<the same registry>) "
                    "instead of attaching tenancy to the engine alone")

    def create_session(self) -> "HyperQSession":
        return HyperQSession(self)

    @property
    def open_session_count(self) -> int:
        """Sessions constructed against this engine and not yet closed.

        The wire fuzz/resilience suites assert this returns to baseline
        after abusive clients disconnect — a leaked session means a wire
        path dropped its ``session.close()``."""
        with self._session_lock:
            return self._open_sessions

    def _session_opened(self) -> None:
        with self._session_lock:
            self._open_sessions += 1

    def _session_closed(self) -> None:
        with self._session_lock:
            self._open_sessions -= 1

    def execute(self, sql: str) -> HQResult:
        """One-shot convenience for scripts and tests."""
        return self.create_session().execute(sql)

    def cache_stats(self):
        """Snapshot of translation-cache counters (None when disabled)."""
        return self.cache.stats() if self.cache is not None else None

    def result_cache_stats(self):
        """Snapshot of result-cache counters (None when disabled)."""
        return (self.result_cache.stats()
                if self.result_cache is not None else None)

    def resilience_stats(self) -> dict[str, int]:
        """Snapshot of retry/failover/timeout counters."""
        return self.resilience.snapshot()

    def estimate_rows(self, name: str) -> int:
        """Estimated stored rows for table *name* — the scan statistic the
        workload classifier feeds on. Backed by the in-process backend's
        catalog; unknown names (views, volatile overlays, typos) estimate
        zero rather than failing classification."""
        try:
            catalog = self.backend.catalog
            if catalog.has_table(name):
                return len(catalog.table(name))
        except Exception:
            pass
        return 0


def _resilience_event(resilience: ResilienceStats,
                      tracker: Optional[FeatureTracker], faults,
                      event: str, detail: dict) -> None:
    """ODBC-layer observer: fold a resilience action into the engine's
    counters, the workload tracker, and the fault schedule's event log
    (so retries land next to the faults that provoked them). It holds
    neither the session nor the engine: the session owns its ODBC server,
    so either would close a reference cycle through it."""
    resilience.note(event)
    if tracker is not None:
        tracker.note_resilience(event)
    if faults is not None:
        faults.record(event, **detail)


class HyperQSession:
    """One application connection through the virtualization layer.

    :meth:`close` releases the session's engine: whoever still holds a
    closed session (a connection registry, say) does not keep the
    engine's graph — its database, caches and catalogs — alive with it.
    """

    def __init__(self, engine: HyperQ):
        self.engine = engine
        self.profile = engine.profile
        self.tracker = engine.tracker
        self.catalog = SessionCatalog(engine.shadow)
        if engine.cache is not None:
            self.catalog.overlay_listener = engine.cache.invalidate_overlay
        self.parser = TeradataParser(engine.tracker)
        self.binder = Binder(self.catalog, engine.tracker)
        rules = None
        if engine.source == "ansi":
            # ANSI sources share the target's NULL placement semantics; the
            # Teradata-specific pinning rule must not fire for them.
            from repro.transform.engine import default_rules
            from repro.transform.rules.null_ordering import NullOrderingRule

            rules = [rule for rule in default_rules()
                     if not isinstance(rule, NullOrderingRule)]
        self.transformer = Transformer(engine.profile, engine.tracker,
                                       rules=rules)
        self.serializer = serializer_for(engine.profile, engine.tracker)
        self.odbc = OdbcServer(InProcessDriver(engine.backend),
                               batch_rows=engine.batch_budget.batch_rows,
                               faults=engine.faults,
                               replica=engine.replica,
                               retry=engine.retry,
                               observer=functools.partial(
                                   _resilience_event, engine.resilience,
                                   self.tracker, engine.faults))
        self.converter = ResultConverter(
            max_memory_bytes=engine.batch_budget.max_memory_bytes,
            spill_dir=engine.spill_dir)
        self.ansi_frontend = None
        if engine.source == "ansi":
            from repro.frontend.ansi import AnsiFrontend

            self.ansi_frontend = AnsiFrontend(self.catalog, engine.tracker)
        self.session_params: dict[str, object] = {
            "USER": "HYPERQ",
            "TRANSACTION_SEMANTICS": "Teradata",
            "CHARACTER_SET": "UTF8",
            "SOURCE": engine.source,
            "TARGET": engine.profile.name,
        }
        if engine.tenancy is not None:
            # Connections that present no tenant id land on the default
            # tenant; the wire server overwrites this after LOGON.
            self.session_params["TENANT"] = engine.tenancy.default_tenant
        #: The routes this target takes to the mid-tier (see ``_ROUTES``).
        self._routes = _emulated_routes(engine.profile)
        self._temp_counter = 0
        self._original_ddl: dict[str, str] = {}
        #: Armed :class:`_ResultCapture` consumed by the next
        #: :meth:`package_result` (result-cache materialize-through).
        self._pending_capture: Optional[_ResultCapture] = None
        #: Tracker-free pipeline used for translation-cache sentinel probes
        #: (built lazily; probes must not pollute Figure 8 statistics).
        self._probe_stack = None
        self._closed = False
        engine._session_opened()

    @property
    def tenant(self) -> Optional[str]:
        """The session's resolved tenant, or None outside a tenanted
        deployment (identity is set at LOGON, default-mapped otherwise)."""
        if self.engine.tenancy is None:
            return None
        value = self.session_params.get("TENANT")
        return value if isinstance(value, str) else None

    # -- public API ----------------------------------------------------------------

    def execute(self, sql: str, parameters=None, **named_parameters) -> HQResult:
        """Process one source-dialect request end to end.

        ``parameters`` feeds ``?`` positional markers; keyword arguments feed
        ``:name`` markers (Section 4.5's parameterized queries)::

            session.execute("SEL A FROM T WHERE B = ? AND C = :lim",
                            ["x"], lim=10)
        """
        admin = _ADMIN_COMMAND_RE.match(sql)
        if admin is not None:
            return self._run_admin(admin)
        with self.engine.tracing.request("request", sql):
            tenant = self.tenant
            if tenant is not None:
                # Per-tenant tagging: a trace event on the request's root
                # span and a per-tenant counter that the gateway's metric
                # merge sums fleet-wide.
                trace_mod.add_event("tenant", tenant=tenant)
                metrics = self.engine.tracing.metrics
                if metrics is not None:
                    metrics.counter("hyperq_tenant_requests_total"
                                    f'{{tenant="{tenant}"}}').inc()
            return self._execute_traced(sql, parameters, named_parameters)

    def _execute_traced(self, sql: str, parameters,
                        named_parameters) -> HQResult:
        if self.tracker is not None:
            self.tracker.begin_query()
        try:
            timing = RequestTiming()
            fp, params_key, hit = self._cache_lookup(
                sql, parameters, named_parameters, timing)
            if hit is not None:
                if hit.result_shareable:
                    rc_key = self._result_cache_key(fp, params_key)
                    if rc_key is not None:
                        replayed = self._result_cache_replay(rc_key, timing)
                        if replayed is not None:
                            return replayed
                        # Re-materialize on this execution: the translation
                        # entry survived a result-cache eviction (or a data
                        # bump), so its deps are already known.
                        self._arm_result_capture(rc_key, hit.deps, hit.notes)
                self._replay_notes(hit.notes)
                try:
                    result = self.package_result(
                        self.run_target_sql(hit.target_sql, timing), timing,
                        [hit.target_sql])
                finally:
                    self._pending_capture = None
                    # The hit skipped binding, so the entry names what the
                    # statement writes; without this bump the result cache
                    # keeps serving rows from before a repeated UPDATE.
                    if hit.write_tables:
                        self.engine.shadow.bump_data(*hit.write_tables)
                self.engine.timing_log.record(timing)
                return result
            with timing.measure("translation"):
                bound = self._bind_sql(sql, parameters, named_parameters)
            route = self._route(bound)
            cache_key = self._cacheable_key(fp, bound, route)
            stmt_deps = self._extract_deps(bound, timing)
            if cache_key is not None and isinstance(bound, r.Query) \
                    and stmt_deps is not None and stmt_deps.shareable:
                rc_key = self._result_cache_key(fp, params_key)
                if rc_key is not None:
                    # Translation missed but the result may still be cached
                    # (the two caches evict independently).
                    replayed = self._result_cache_replay(rc_key, timing)
                    if replayed is not None:
                        return replayed
                    self._arm_result_capture(rc_key, stmt_deps.all_tables, None)
            return self._run_bound(
                bound, route, timing, stmt_deps,
                None if cache_key is None else (cache_key, fp, params_key))
        finally:
            if self.tracker is not None:
                self.tracker.end_query()

    def execute_script(self, sql: str) -> list[HQResult]:
        """Process a ';'-separated request sequence.

        With :attr:`HyperQ.dml_batching` enabled, runs of contiguous
        compatible single-row VALUES inserts are merged into one target
        statement (Section 4.3's performance transformation); one result is
        returned per *executed* statement in that case.
        """
        if self.ansi_frontend is not None:
            results = []
            for spec in self.ansi_frontend.parse_script(sql):
                timing = RequestTiming()
                with timing.measure("translation"):
                    bound = self.ansi_frontend.lower_spec(spec)
                results.append(self._run_bound(bound, self._route(bound), timing))
            return results
        if _ADMIN_COMMAND_HINT_RE.search(sql) is not None:
            # Admin commands never reach the parser, so a script holding
            # one runs statement-by-statement through the intercept.
            return [self.execute(statement)
                    for statement in self.parser.split_script(sql)]
        statements = self.parser.parse_script(sql)
        if not self.engine.dml_batching:
            return [self._execute_ast(ast) for ast in statements]
        return self._execute_script_batched(statements)

    def _execute_ast(self, ast: td_ast.TdStatement) -> HQResult:
        if self.tracker is not None:
            self.tracker.begin_query()
        try:
            with self.engine.tracing.request("request", type(ast).__name__):
                timing = RequestTiming()
                with timing.measure("translation"), trace_mod.span("bind"):
                    bound = self.binder.bind(ast)
                return self._run_bound(bound, self._route(bound), timing)
        finally:
            if self.tracker is not None:
                self.tracker.end_query()

    def _execute_script_batched(self, statements) -> list[HQResult]:
        from repro.transform.rules.dml_batching import (
            _is_batchable_insert, batch_statements,
        )

        results: list[HQResult] = []
        pending: list[r.Insert] = []

        def flush() -> None:
            if pending:
                for bound in batch_statements(pending):
                    results.append(self._run_bound(
                        bound, self._route(bound), RequestTiming()))
                pending.clear()

        for ast in statements:
            if self.tracker is not None:
                self.tracker.begin_query()
            try:
                timing = RequestTiming()
                with timing.measure("translation"):
                    bound = self.binder.bind(ast)
                route = self._route(bound)
                if route is None and isinstance(bound, r.Insert) \
                        and _is_batchable_insert(bound):
                    pending.append(bound)
                    continue
                flush()
                results.append(self._run_bound(bound, route, timing))
            finally:
                if self.tracker is not None:
                    self.tracker.end_query()
        flush()
        return results

    def translate(self, sql: str) -> TranslationResult:
        """Translate without executing — the workload-study entry point.

        Emulated statements report the feature that routes them to the
        mid-tier instead of producing target SQL. Shares the translation
        cache with :meth:`execute`.
        """
        if self.tracker is not None:
            self.tracker.begin_query()
        try:
            with self.engine.tracing.request("translate", sql):
                return self._translate_traced(sql)
        finally:
            if self.tracker is not None:
                self.tracker.end_query()

    def _translate_traced(self, sql: str) -> TranslationResult:
        fp, params_key, hit = self._cache_lookup(sql, None, {}, None)
        if hit is not None:
            self._replay_notes(hit.notes)
            return TranslationResult("sql", [hit.target_sql])
        bound = self._bind_sql(sql)
        route = self._route(bound)
        cache_key = self._cacheable_key(fp, bound, route)
        if route is not None:
            self._note(route)
            trace_mod.add_event("emulated", feature=route)
            return TranslationResult("emulated", emulated_feature=route)
        if isinstance(bound, (r.NoOp, r.SetSessionParam)):
            return TranslationResult("ok")
        stmt_deps = (self._extract_deps(bound, None)
                     if cache_key is not None else None)
        target_sql = self._translate_step(bound)
        if cache_key is not None:
            self._cache_insert(cache_key, fp, params_key, target_sql,
                               bound, stmt_deps)
        return TranslationResult("sql", [target_sql])

    def _bind_sql(self, sql: str, parameters=None,
                  named_parameters=None) -> r.Statement:
        """Parse and bind one request (its ``parse`` and ``bind`` spans)."""
        if self.ansi_frontend is not None:
            if parameters or named_parameters:
                raise HyperQError(
                    "parameter binding is implemented for the "
                    "Teradata frontend only")
            with trace_mod.span("parse"):
                return self.ansi_frontend.bind_statement(sql)
        with trace_mod.span("parse", bytes=len(sql)):
            ast = self.parser.parse_statement(sql)
        if parameters or named_parameters:
            from repro.frontend.teradata.parameters import bind_parameters

            bind_parameters(ast, parameters, named_parameters)
        with trace_mod.span("bind"):
            return self.binder.bind(ast)

    def close(self) -> None:
        self.odbc.close()
        if not self._closed:
            self._closed = True
            self.engine._session_closed()
            self.engine = None

    # -- observability admin commands --------------------------------------------------

    def _run_admin(self, match: "re.Match[str]") -> HQResult:
        """Serve a ``SHOW HYPERQ ...`` observability command from the
        mid-tier: metrics dump, trace listing, one rendered span tree, or
        the slow-query records — as an ordinary row result, so any wire
        client (or bteq stand-in) can read them."""
        import json

        hub = self.engine.tracing
        fleet = self.engine.fleet
        what = match.group("what").upper()
        timing = RequestTiming()
        if what == "METRICS":
            lines = None
            if fleet is not None:
                try:
                    lines = fleet.metrics_text().splitlines()
                except Exception as exc:  # degraded to the local view
                    lines = hub.render_metrics().splitlines()
                    lines.append(f"# fleet aggregation unavailable: {exc}")
            if lines is None:
                lines = hub.render_metrics().splitlines()
            lines = lines or ["(no metrics recorded)"]
        elif what == "TRACES":
            lines = None
            if fleet is not None:
                try:
                    lines = fleet.trace_index()
                except Exception as exc:
                    lines = [f"# fleet aggregation unavailable: {exc}"]
            if lines is None:
                lines = []
                for trace_id in hub.trace_ids():
                    trace = hub.get_trace(trace_id)
                    if trace is not None:
                        lines.append(
                            f"{trace_id}\t{trace.spans[0].outcome}\t"
                            f"{trace.duration * 1e3:.3f}ms\t{trace.sql[:80]}")
            lines = lines or ["(no traces recorded)"]
        elif what == "TENANTS":
            from repro.core import tenancy as tenancy_mod

            report = None
            workers = 1
            if fleet is not None:
                try:
                    report, workers = fleet.tenants()
                except Exception as exc:  # degraded to the local view
                    report = tenancy_mod.tenant_report(self.engine)
                    lines = (tenancy_mod.render_tenants(report).splitlines()
                             if report else ["(tenancy disabled)"])
                    lines.append(f"# fleet aggregation unavailable: {exc}")
                    return self.fabricate_result(
                        ["LINE"], [t.varchar(2048)],
                        [(line,) for line in lines], timing)
            if report is None:
                report = tenancy_mod.tenant_report(self.engine)
            lines = (tenancy_mod.render_tenants(report, workers).splitlines()
                     if report else ["(tenancy disabled)"])
        elif what.startswith("SLOW"):
            records = hub.slow_queries
            if fleet is not None:
                try:
                    records = fleet.slow_queries()
                except Exception:
                    pass
            lines = [json.dumps(record, sort_keys=True)
                     for record in records] or ["(no slow queries)"]
        else:
            trace_id = int(match.group("id"))
            lines = None
            if fleet is not None:
                try:
                    lines = fleet.find_trace(trace_id)
                except Exception:
                    lines = None
            if lines is None:
                trace = hub.get_trace(trace_id)
                if trace is None:
                    raise HyperQError(
                        f"no trace {trace_id} in the ring buffer "
                        f"(ids: {hub.trace_ids() or 'none'})")
                lines = render_trace(trace)
        return self.fabricate_result(
            ["LINE"], [t.varchar(2048)], [(line,) for line in lines], timing)

    # -- workload management ---------------------------------------------------------

    def workload_features(self, sql: str):
        """``(QueryFeatures, cache_hit)`` for the workload classifier.

        Parses and binds on the tracker-free probe pipeline so
        classification never pollutes the Figure 8 statistics, and probes
        the translation cache without counting (the classifier's cache-hit
        signal must not distort the hit rate). Unparseable requests return
        ``(None, cache_hit)`` — they will fail fast in :meth:`execute`, so
        the classifier routes them interactive.
        """
        from repro.core.workload import extract_features

        cache = self.engine.cache
        cache_hit = False
        if cache is not None and self.ansi_frontend is None:
            try:
                fp = cache.fingerprint_cached(sql, self.parser.lexer)
                cache_hit = cache.contains(self._cache_key_base(fp), fp, None)
            except Exception:
                cache_hit = False
        try:
            if self.ansi_frontend is not None:
                bound = self.ansi_frontend.bind_statement(sql)
            else:
                parser, binder, __, __ = self._ensure_probe_stack()
                bound = binder.bind(parser.parse_statement(sql))
        except Exception:
            return None, cache_hit
        return extract_features(bound, self.engine.estimate_rows,
                                catalog=self.catalog), cache_hit

    def apply_batch_budget(self, budget: Optional[BatchBudget]) -> None:
        """Apply a per-request stream-budget override (workload classes
        tighten or widen the engine default); ``None`` restores the
        engine's budget. Sessions are driven serially by the wire server,
        so the override cannot race an in-flight request."""
        if budget is None:
            budget = self.engine.batch_budget
        self.odbc.set_batch_rows(budget.batch_rows)
        self.converter.set_max_memory(budget.max_memory_bytes)

    # -- translation cache ---------------------------------------------------------

    #: Statement kinds whose translation may be memoized: single-statement,
    #: catalog-read-only requests on the plain run_translated path. Emulated
    #: statements (multi-request, mid-tier state) and DDL/INSERT (catalog
    #: mutation, mid-tier default evaluation) always bypass.
    _CACHEABLE_KINDS = (r.Query, r.Update, r.Delete)

    def _cache_lookup(self, sql: str, parameters, named_parameters,
                      timing: Optional[RequestTiming]):
        """Fingerprint *sql* and probe the shared cache.

        Returns ``(fingerprint, params_key, hit)``; everything is ``None``
        when caching is off or inapplicable (ANSI frontend, unhashable
        parameter values, lexer errors).
        """
        cache = self.engine.cache
        if cache is None or self.ansi_frontend is not None:
            return None, None, None
        from contextlib import nullcontext

        stage = (timing.measure("cache_lookup") if timing is not None
                 else nullcontext())
        with stage, trace_mod.span("cache_lookup") as span:
            try:
                fp = cache.fingerprint_cached(sql, self.parser.lexer)
            except Exception:
                return None, None, None
            params_key = None
            if parameters or named_parameters:
                params_key = _freeze_params(parameters, named_parameters)
                if params_key is None:
                    return None, None, None
            hit = cache.lookup(self._cache_key_base(fp), fp, params_key)
            if span is not None:
                span.annotate("hit", hit is not None)
        return fp, params_key, hit

    def _cache_key_base(self, fp: Fingerprint) -> tuple:
        return TranslationCache.key_base(
            self.engine.source, self.profile.name, fp.text,
            self.catalog.overlay_key)

    def _cacheable_key(self, fp: Optional[Fingerprint], bound: r.Statement,
                       route: Optional[str]):
        """Key base if this statement's translation may be memoized, else
        None (reclassifying the lookup miss as a bypass)."""
        cache = self.engine.cache
        if cache is None or fp is None:
            return None
        if route is not None or not isinstance(bound, self._CACHEABLE_KINDS):
            cache.note_bypass()
            return None
        return self._cache_key_base(fp)

    def _cache_insert(self, key_base: tuple, fp: Fingerprint,
                      params_key, target_sql: str, bound: r.Statement,
                      stmt_deps) -> None:
        notes = (self.tracker.current_notes()
                 if self.tracker is not None else ())
        if stmt_deps is not None:
            deps, writes = stmt_deps.all_tables, stmt_deps.write_tables
        else:
            # Unknown footprint: a cached DML must still invalidate.
            deps = (deps_mod.WILDCARD,)
            writes = () if isinstance(bound, r.Query) else deps
        shareable = stmt_deps.shareable if stmt_deps is not None else False
        self.engine.cache.insert(key_base, fp, params_key, target_sql, notes,
                                 deps=deps, result_shareable=shareable,
                                 probe=self._probe_translate,
                                 tenant=self.tenant, write_tables=writes)

    def _replay_notes(self, notes) -> None:
        if self.tracker is not None:
            for feature, stage in notes:
                self.tracker.note(feature, stage)

    # -- semantic dependencies and the result cache ------------------------------------

    def _extract_deps(self, bound: r.Statement, timing):
        """Dependency footprint of *bound* (timed as ``dependency_extract``).

        Extraction failures degrade to ``None`` — callers treat that as
        "unknown deps": wildcard translation entries, no result caching,
        no data bump (the schema channel still catches DDL).
        """
        from contextlib import nullcontext

        stage = (timing.measure("dependency_extract") if timing is not None
                 else nullcontext())
        try:
            with stage, trace_mod.span("dependency_extract") as span:
                stmt_deps = deps_mod.extract(bound, self.catalog)
                if span is not None:
                    span.annotate("tables", len(stmt_deps.all_tables))
                    span.annotate("shareable", stmt_deps.shareable)
            return stmt_deps
        except Exception:
            return None

    def _note_data_write(self, bound: r.Statement, stmt_deps=None) -> None:
        """Bump the data epoch of every table *bound* writes.

        Runs after dispatch on every execution path (including script
        batching), so result-cache entries depending on the written tables
        drop immediately and their stored vectors can never match again.
        Macro/procedure calls have opaque bodies — they bump the wildcard.
        """
        if isinstance(bound, (r.Insert, r.Update, r.Delete, r.Merge)):
            if stmt_deps is None:
                stmt_deps = self._extract_deps(bound, None)
            if stmt_deps is not None and stmt_deps.write_tables:
                self.engine.shadow.bump_data(*stmt_deps.write_tables)
            elif stmt_deps is None:
                self.engine.shadow.bump_data(deps_mod.WILDCARD)
        elif isinstance(bound, (r.ExecMacro, r.CallProcedure)):
            self.engine.shadow.bump_data(deps_mod.WILDCARD)

    def _result_cache_key(self, fp: Optional[Fingerprint], params_key):
        """Result-cache key for this request, or None when result caching
        is off, the statement has no fingerprint, or a session volatile
        overlay makes results non-shareable across sessions."""
        if self.engine.result_cache is None or fp is None \
                or self.catalog.overlay_key is not None:
            return None
        return (self.engine.source, self.profile.name, fp.text,
                fp.values_key(), params_key)

    def _result_cache_replay(self, rc_key: tuple, timing) -> Optional[HQResult]:
        """Serve a materialized result with zero backend calls (its timing
        recorded), or None.

        A hit hands the wire the chunks a live run sent — no decode, no
        re-encode — so the client-visible bytes match that run; the cache
        itself re-checks the dependency version vector before serving.
        """
        rcache = self.engine.result_cache
        metrics = self.engine.tracing.metrics
        with timing.measure("dependency_extract"), \
                trace_mod.span("result_cache") as span:
            entry = rcache.lookup(rc_key, self.engine.shadow.version_vector)
            if span is not None:
                span.annotate("hit", entry is not None)
        if entry is None:
            if metrics is not None:
                metrics.counter("hyperq_result_cache_misses_total").inc()
            return None
        if metrics is not None:
            metrics.counter("hyperq_result_cache_hits_total").inc()
        self._replay_notes(entry.notes)
        metas = list(entry.metas)
        converted = ConvertedResult(metas=metas, chunks=list(entry.chunks),
                                    rowcount=entry.rowcount)
        timing.mark_first_row()
        self.engine.timing_log.record(timing)
        return HQResult(
            kind="rows", columns=[meta.name for meta in metas], metas=metas,
            converted=converted, rowcount=entry.rowcount, timing=timing,
            target_sql=[entry.target_sql] if entry.target_sql else [],
        )

    def _arm_result_capture(self, rc_key: tuple, dep_tables, notes):
        """Prepare to materialize the next packaged result into the result
        cache. The dependency version vector is captured *now* — before
        execution — so DML racing the execution makes the stored vector
        stale (a conservative drop on next lookup), never a stale serve."""
        capture = _ResultCapture(
            key=rc_key, deps=tuple(dep_tables),
            vector=self.engine.shadow.version_vector(dep_tables),
            notes=notes)
        self._pending_capture = capture
        return capture

    def _capturing_chunks(self, capture, target_sql: str, metas, chunks):
        """Tee the converted ``(chunk, rows)`` stream into a result-cache
        entry.

        Accumulation aborts (and counts a reject) the moment the running
        chunk size crosses the per-entry cap, so an oversized scan never
        buffers unbounded bytes; the entry is inserted only when the
        consumer drains the stream to completion."""
        rcache = self.engine.result_cache
        collected: Optional[list[bytes]] = []
        size = rowcount = 0
        for chunk, nrows in chunks:
            if collected is not None:
                size += len(chunk)
                if size > rcache.max_entry_bytes:
                    collected = None
                    rcache.note_reject()
                else:
                    collected.append(chunk)
                    rowcount += nrows
            yield chunk, nrows
        if collected is None:
            return
        entry = ResultEntry(
            metas=tuple(metas), chunks=tuple(collected), rowcount=rowcount,
            notes=tuple(capture.notes), deps=capture.deps, vector=capture.vector,
            target_sql=target_sql)
        if rcache.insert(capture.key, entry, tenant=self.tenant):
            metrics = self.engine.tracing.metrics
            if metrics is not None:
                metrics.counter("hyperq_result_cache_inserts_total").inc()

    def _probe_translate(self, probe_sql: str) -> str:
        """Run the full pipeline over sentinel SQL, tracker-free.

        Used by the cache to validate that a translation is safe to
        parameterize; shares the session catalog so name resolution matches
        the real translation exactly. Tracing is suppressed for the same
        reason the tracker is: probes must not pollute the real request's
        span tree with sentinel rule firings.
        """
        parser, binder, transformer, serializer = self._ensure_probe_stack()
        with trace_mod.activate(None):
            bound = binder.bind(parser.parse_statement(probe_sql))
            transformer.transform(bound)
            return serializer.serialize(bound)

    def _ensure_probe_stack(self):
        """The lazily-built tracker-free pipeline (shared by cache sentinel
        probes and workload classification)."""
        if self._probe_stack is None:
            self._probe_stack = (
                TeradataParser(),
                Binder(self.catalog),
                Transformer(self.engine.profile),
                serializer_for(self.engine.profile),
            )
        return self._probe_stack

    # -- helpers shared with emulators -----------------------------------------------

    def _note(self, feature: str, stage: str = "emulator") -> None:
        if self.tracker is not None:
            self.tracker.note(feature, stage)

    def fresh_temp_name(self, prefix: str) -> str:
        self._temp_counter += 1
        return f"_HQ_{prefix}_{self._temp_counter}"

    def _translate_step(self, bound: r.Statement) -> str:
        """Transform and serialize one bound statement into target SQL,
        each under its span: the one translate step of every path."""
        with trace_mod.span("transform"):
            self.transformer.transform(bound)
        with trace_mod.span("serialize") as span:
            sql = self.serializer.serialize(bound)
            if span is not None:
                span.annotate("bytes", len(sql))
        return sql

    def run_translated(self, bound: r.Statement, timing: RequestTiming) -> HQResult:
        """Transform + serialize + execute one statement on the target."""
        with timing.measure("translation"):
            sql = self._translate_step(bound)
        return self.package_result(self.run_target_sql(sql, timing), timing,
                                   [sql])

    def run_step(self, bound: r.Statement, timing: RequestTiming,
                 target_sql: list[str]) -> int:
        """One target statement of an emulation: run *bound* translated,
        append its SQL to *target_sql*, return its row count."""
        result = self.run_translated(bound, timing)
        target_sql.extend(result.target_sql)
        return result.rowcount

    def run_target_sql(self, sql: str, timing: RequestTiming) -> OdbcResult:
        """Execute already-serialized target SQL (timed as ``execution``):
        the one run step every target statement takes."""
        with timing.measure("execution"):
            return self.odbc.execute(sql)

    def drop_scratch(self, names, timing: RequestTiming) -> None:
        """Best-effort DROP of an emulator's scratch tables: clean-up never
        masks the outcome of the statement it followed."""
        for name in names:
            try:
                self.run_target_sql(f"DROP TABLE IF EXISTS {name}", timing)
            except Exception:  # pragma: no cover - best-effort cleanup
                pass

    def run_nested(self, ast: td_ast.TdStatement,
                   timing: RequestTiming) -> HQResult:
        """Bind and run one statement of a macro or procedure body inside
        the calling request, which bumps data epochs and records timing."""
        with timing.measure("translation"):
            bound = self.binder.bind(ast)
        return self._dispatch(bound, self._route(bound), timing)

    def package_result(self, odbc_result: OdbcResult, timing: RequestTiming,
                       target_sql: list[str]) -> HQResult:
        """Set up the row batch -> source-binary path on a target result.

        The returned result streams: row batches are pulled from the ODBC
        Server and encoded chunk by chunk as the caller consumes them, so
        no layer holds more than one batch (plus the bounded Result Store,
        if the consumer buffers). Backend pull time lands in the
        ``execution`` timing stage, checking and encoding in
        ``result_conversion``.
        """
        capture, self._pending_capture = self._pending_capture, None
        if odbc_result.kind != "rows":
            return HQResult(kind=odbc_result.kind, rowcount=odbc_result.rowcount,
                            timing=timing, target_sql=target_sql)
        tee = None
        if capture is not None and self.engine.result_cache is not None:
            if capture.notes is None:  # armed on a miss, now translated
                capture.notes = (self.tracker.current_notes()
                                 if self.tracker is not None else ())
            tee = functools.partial(
                self._capturing_chunks, capture,
                target_sql[0] if len(target_sql) == 1 else "")
        converted = self.converter.encode_stream(
            odbc_result.columns,
            self._timed_batches(odbc_result, timing),
            odbc_result.column_types,
            timing=timing,
            on_first_chunk=timing.mark_first_row,
            tee=tee)
        return HQResult(
            kind="rows",
            columns=odbc_result.columns,
            metas=converted.metas,
            converted=converted,
            timing=timing,
            target_sql=target_sql,
        )

    @staticmethod
    def _timed_batches(odbc_result: OdbcResult, timing: RequestTiming):
        """Charge lazy backend batch pulls to the ``execution`` stage."""
        source = odbc_result.fetch_rows()
        while True:
            with timing.measure("execution"):
                rows = next(source, None)
            if rows is None:
                return
            yield rows

    def fabricate_result(self, columns: list[str], types: list[t.SQLType],
                         rows: list[tuple], timing: RequestTiming,
                         target_sql: Optional[list[str]] = None) -> HQResult:
        """Build a result entirely in the mid-tier (HELP/SHOW commands),
        still flowing through the Result Converter so the client sees the
        same binary shape as real query results."""
        # 1 024-row batches, one empty batch for no rows: the framing (and
        # so the wire chunks) these results have always had.
        batches = [rows[start:start + 1024]
                   for start in range(0, len(rows), 1024)] or [[]]
        with timing.measure("result_conversion"):
            converted = self.converter.encode(columns, batches, types)
        return HQResult(
            kind="rows", columns=columns, metas=converted.metas,
            converted=converted, rowcount=converted.rowcount, timing=timing,
            target_sql=target_sql or [],
        )

    # -- routing and dispatch ----------------------------------------------------------

    def _route(self, bound: r.Statement) -> Optional[str]:
        """The feature whose emulator runs *bound* on this target, or None
        when it runs as target SQL. Decided once per bound statement; the
        answer drives :meth:`translate`, the translation cache, DML
        batching and :meth:`_dispatch` alike."""
        for feature, (kinds, applies, __) in self._routes.items():
            if isinstance(bound, kinds) and (applies is None
                                             or applies(self, bound)):
                return feature
        return None

    def _dispatch(self, bound: r.Statement, route: Optional[str],
                  timing: RequestTiming) -> HQResult:
        """Run *bound* by its route: its feature's emulator, or on the
        target as translated SQL."""
        if route is not None:
            self._note(route)
            return self._routes[route][2](self, bound, timing)
        if isinstance(bound, r.NoOp):
            return HQResult(kind="ok", timing=timing)
        if isinstance(bound, r.SetSessionParam):
            self.session_params[bound.name.upper()] = bound.value
            return HQResult(kind="ok", timing=timing)
        if isinstance(bound, r.Transaction):
            self.run_target_sql(bound.action, timing)
            return HQResult(kind="ok", timing=timing)
        if isinstance(bound, r.Insert):
            schema = self.catalog.resolve(bound.table)
            if schema is not None:
                bound = column_props.fill_nonconstant_defaults(
                    self, schema, bound)
        elif isinstance(bound, r.CreateTable):
            return self._create_table(bound, timing,
                                      self.engine.shadow.add_table)
        elif isinstance(bound, r.CreateView):
            self._add_view(bound)
        elif isinstance(bound, (r.DropTable, r.DropView)):
            if isinstance(bound, r.DropView):
                kind = "VIEW"
                self.engine.shadow.drop_view(bound.name)
            else:
                kind = "TABLE"
                self.catalog.drop_table(bound.name)  # volatile overlay first
            self.run_target_sql(f"DROP {kind} {bound.name}", timing)
            return HQResult(kind="ok", timing=timing)
        elif not isinstance(bound, (r.Query, r.Update, r.Delete, r.Merge)):
            raise UnsupportedFeatureError(
                f"no execution path for {type(bound).__name__}")
        return self.run_translated(bound, timing)

    def _run_bound(self, bound: r.Statement, route: Optional[str],
                   timing: RequestTiming, stmt_deps=None,
                   memo: Optional[tuple] = None) -> HQResult:
        """The post-bind runner of every request path: dispatch, bump the
        data epoch of what the statement wrote, memoize a one-statement
        translation under *memo* ``(key_base, fingerprint, params_key)``,
        record the timing."""
        try:
            result = self._dispatch(bound, route, timing)
        finally:
            self._pending_capture = None
            self._note_data_write(bound, stmt_deps)
        if memo is not None and len(result.target_sql) == 1:
            with timing.measure("cache_lookup"):
                self._cache_insert(*memo, result.target_sql[0], bound,
                                   stmt_deps)
        result.timing = timing
        self.engine.timing_log.record(timing)
        return result

    def _create_table(self, bound: r.CreateTable, timing: RequestTiming,
                      register) -> HQResult:
        """CREATE TABLE: PERIOD columns split into begin/end DATE columns
        (Section 2.2.2), the schema *register*-ed, then the DDL run."""
        schema, __ = column_props.split_period_columns(self, bound.schema)
        bound.schema = schema
        if schema.set_semantics and "set_table" in self._routes:
            self._note("set_table")
        if any(col.default_sql and not _is_constant_default(col.default_sql)
               for col in schema.columns):
            self._note("column_properties")
        register(schema)
        return self.run_translated(bound, timing)

    def _add_view(self, bound: r.CreateView) -> None:
        columns = [ColumnSchema(name, col.type)
                   for name, col in zip(bound.column_names or [],
                                        bound.plan.output_columns())]
        if not columns:
            columns = [ColumnSchema(col.name, col.type)
                       for col in bound.plan.output_columns()]
        schema = TableSchema(bound.name, columns, is_view=True,
                             view_sql=bound.source_sql)
        # Store the base-table closure so dependency extraction can expand
        # references through this view (nested views flatten transitively).
        closure = deps_mod.view_closure(bound.plan, self.catalog)
        self.engine.shadow.add_view(schema, replace=bound.replace,
                                    deps=closure)


class _ResultCapture:
    """State armed before execution for result-cache materialization.

    ``notes`` may be ``None`` until translation completes; the capturing
    generator falls back to the tracker's in-flight notes in that case.
    """

    __slots__ = ("key", "deps", "vector", "notes")

    def __init__(self, key: tuple, deps: tuple, vector: tuple, notes):
        self.key = key
        self.deps = deps
        self.vector = vector
        self.notes = notes


#: ``SHOW HYPERQ ...`` observability commands, intercepted before the parser
#: (they are Hyper-Q's own, not source-dialect SQL).
_ADMIN_COMMAND_RE = re.compile(
    r"^\s*SHOW\s+HYPERQ\s+(?P<what>METRICS|TRACES|TENANTS|SLOW\s+QUERIES"
    r"|TRACE\s+(?P<id>\d+))\s*;?\s*$",
    re.IGNORECASE)

#: Cheap presence probe deciding whether a *script* might hold an admin
#: command (scripts without one keep the single-parse fast path).
_ADMIN_COMMAND_HINT_RE = re.compile(r"SHOW\s+HYPERQ", re.IGNORECASE)


def _freeze_params(parameters, named_parameters):
    """Hashable projection of explicit parameter values, or None when the
    values cannot key a cache entry (unhashable types bypass caching)."""
    try:
        positional = tuple(parameters or ())
        named = tuple(sorted((name.upper(), value)
                             for name, value in named_parameters.items()))
        hash((positional, named))
    except TypeError:
        return None
    return (positional, named)


def _has_recursive_cte(plan: RelNode) -> bool:
    for node in walk_rel(plan):
        if isinstance(node, r.With) and any(cte.recursive for cte in node.ctes):
            return True
    return False


def _is_constant_default(sql: str) -> bool:
    text = sql.strip().upper()
    if text == "NULL" or text.startswith("'"):
        return True
    try:
        float(text)
    except ValueError:
        return False
    return True


def _create_volatile(session: HyperQSession, bound: r.CreateTable,
                     timing: RequestTiming) -> HQResult:
    """A VOLATILE table on a target without session-scoped tables: the
    schema lives in the session's catalog overlay, not the shared one."""
    return session._create_table(bound, timing, session.catalog.add_volatile)


#: The routing table (DESIGN mirrors it). ``feature: (kinds, flag, applies,
#: emulator)``: the bound statement kinds the feature covers; the capability
#: flag whose absence routes them to the mid-tier (None: no serializer
#: expresses them, so they always run there); the condition a statement of
#: those kinds must also meet; the emulator that runs it (Section 6). Order
#: matters: DML through a view routes as ``dml_on_view`` before any
#: SET-table check.
_ROUTES = {
    "recursive_query": (
        (r.Query,), "recursive_cte",
        lambda session, bound: _has_recursive_cte(bound.plan), recursive.run),
    "macro": (
        (r.CreateMacro, r.DropMacro, r.ExecMacro), None, None, macros.run),
    "stored_procedure": (
        (r.CreateProcedure, r.DropProcedure, r.CallProcedure), None, None,
        procedures.run),
    "merge_statement": ((r.Merge,), "merge_statement", None, merge.run),
    "help_command": (
        (r.HelpCommand, r.ShowCommand), None, None, help_commands.run),
    "dml_on_view": (
        (r.Insert, r.Update, r.Delete), "updatable_views",
        lambda session, bound: session.catalog.is_view(bound.table),
        views.run_dml),
    "set_table": (
        (r.Insert,), "set_tables",
        lambda session, bound: getattr(session.catalog.resolve(bound.table),
                                       "set_semantics", False),
        set_tables.run_insert),
    "volatile_table": (
        (r.CreateTable,), "volatile_tables",
        lambda session, bound: bound.schema.volatile, _create_volatile),
}


def _emulated_routes(profile: CapabilityProfile) -> dict:
    """``feature: (kinds, applies, emulator)`` for each route *profile*
    takes to the mid-tier, in table order: the one reader of the routing
    flags."""
    return {feature: (kinds, applies, emulator)
            for feature, (kinds, flag, applies, emulator) in _ROUTES.items()
            if flag is None or not getattr(profile, flag)}
