"""Builds the program under test, drives it in a closed loop, checks answers.

Load shape: one client thread, one statement in flight. Workloads with
tenants hold one connection per tenant but still issue serially in list
order, so statement order — and with it every answer and every counter — is
deterministic. The box has two cores; the client and the server share them
(and the GIL), so nothing here may add a second client thread.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from repro import HyperQ, ServerThread, TdClient
from repro.core.tenancy import TenancyConfig, TenantRegistry
from repro.core.workload import WorkloadConfig, WorkloadManager
from repro.errors import HyperQError
from repro.workloads.tpch import datagen

from workloads import Plan


class RecordingHyperQ(HyperQ):
    """A HyperQ that remembers the sessions it hands out, so the benchmark
    can sum ``OdbcServer.statements_executed`` over the ones the wire server
    creates (what the cloud warehouse would bill for)."""

    def __init__(self, **options):
        super().__init__(**options)
        self.sessions = []

    def create_session(self):
        session = super().create_session()
        self.sessions.append(session)
        return session

    def backend_statements(self) -> int:
        return sum(s.odbc.statements_executed for s in self.sessions)


class System:
    """One built program: engine, schema and data, plus — once
    :meth:`connect` ran — a wire server on loopback with one logged-on
    connection per tenant. ``reference=True`` builds the uncached oracle
    (no translation cache, no result cache, no workload manager)."""

    def __init__(self, plan: Plan, reference: bool = False, **options):
        self.plan = plan
        self.manager = None
        options = {**plan.engine, **options}
        if reference:
            options.update(cache_size=0, result_cache_bytes=0)
        elif plan.tenants:
            # Default quotas are unbounded: nothing may be shed here.
            registry = TenantRegistry(TenancyConfig.from_dict(
                {"tenants": {tenant: {} for tenant in plan.tenants}}))
            self.manager = WorkloadManager(WorkloadConfig(workers=2),
                                           tenancy=registry)
            options["workload"] = self.manager
        self.engine = RecordingHyperQ(**options)
        boot = self.engine.create_session()
        for ddl in plan.ddl:
            boot.execute(ddl)
        boot.close()
        if plan.tpch_scale is not None:
            datagen.load_direct(self.engine.backend, scale=plan.tpch_scale,
                                seed=plan.data_seed)
        self.server = None
        self.clients: dict = {}
        self._sessions: dict = {}
        #: Result kind ("rows" | "count" | "ok" | "sql" | "emulated") of
        #: each statement of the round, filled by :meth:`warm_up`.
        self.kinds: list[str] = []
        self.logon_s: list[float] = []

    def connect(self, server_cls=ServerThread) -> None:
        self.server = server_cls(self.engine)
        host, port = self.server.start()
        for tenant in self.plan.tenants or (None,):
            begin = time.perf_counter()
            self.clients[tenant] = TdClient(host, port, tenant=tenant)
            self.logon_s.append(time.perf_counter() - begin)

    def disconnect(self) -> None:
        for client in self.clients.values():
            client.close()
        self.clients = {}
        if self.server is not None:
            self.server.stop()
            self.server = None

    def session(self, tenant):
        """The in-process session standing in for *tenant*'s connection."""
        if tenant not in self._sessions:
            session = self.engine.create_session()
            if self.engine.tenancy is not None:
                session.session_params["TENANT"] = tenant
            self._sessions[tenant] = session
        return self._sessions[tenant]

    def close(self) -> None:
        self.disconnect()
        for session in self._sessions.values():
            session.close()
        self._sessions = {}
        if self.manager is not None:
            self.manager.close()

    def warm_up(self) -> str:
        """One untimed pass over the round (caches fill, codecs compile);
        records each statement's result kind and returns a digest of the
        pass's outputs (what ``translate`` plans compare across rounds)."""
        digest = hashlib.sha256()
        self.kinds = []
        for tenant, sql in self.plan.statements:
            if self.plan.mode == "translate":
                result = self.session(tenant).translate(sql)
                self.kinds.append(result.kind)
                digest.update("\n".join(
                    [result.kind, result.emulated_feature or "",
                     *result.statements]).encode("utf-8"))
            else:
                self.kinds.append(self.clients[tenant].execute(sql).kind)
        return digest.hexdigest()

    def issuers(self) -> dict:
        """tenant -> callable(sql) -> (rows delivered, instant the first row
        was available); the callable drains the whole reply."""
        if self.plan.mode == "translate":
            return {tenant: _translate_issuer(self.session(tenant))
                    for tenant in self.plan.tenants or (None,)}
        return {tenant: _wire_issuer(client)
                for tenant, client in self.clients.items()}


def _wire_issuer(client: TdClient):
    def issue(sql: str):
        stream = client.execute_stream(sql)
        rows = iter(stream)
        next(rows, None)
        first_at = time.perf_counter()
        deque(rows, maxlen=0)
        final = stream.final
        return (final.rowcount if final.kind == "rows" else 0), first_at
    return issue


def _translate_issuer(session):
    def issue(sql: str):
        # The deliverable of the assessment use is one record per statement.
        session.translate(sql)
        return 1, time.perf_counter()
    return issue


@dataclass
class Round:
    """What the client saw over one pass of the statement list; the lists
    are indexed by statement position (a failed statement holds ``inf``: it
    misses every latency limit)."""

    cpu: float = 0.0
    rows: int = 0
    backend_statements: int = 0
    latencies: list[float] = field(default_factory=list)
    first_rows: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_round(system: System, issuers: dict | None = None) -> Round:
    """One timed closed-loop pass over the plan's statements."""
    issuers = issuers if issuers is not None else system.issuers()
    out = Round()
    latencies, first_rows, cpus = out.latencies, out.first_rows, out.cpus
    clock, cpu_clock = time.perf_counter, time.process_time
    backend = system.engine.backend_statements()
    cpu_begin = cpu_clock()
    for tenant, sql in system.plan.statements:
        cpu_start = cpu_clock()
        start = clock()
        try:
            rows, first_at = issuers[tenant](sql)
        except HyperQError as error:  # FAILURE reply, shed, translate error
            out.failures.append(f"{type(error).__name__}: {error}"[:200])
            latencies.append(math.inf)
            first_rows.append(math.inf)
            cpus.append(math.inf)
            continue
        latencies.append(clock() - start)
        cpus.append(cpu_clock() - cpu_start)
        first_rows.append(first_at - start)
        out.rows += rows
    out.cpu = cpu_clock() - cpu_begin
    out.backend_statements = system.engine.backend_statements() - backend
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported latency is one
    that a statement actually had)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(rounds: list[Round]) -> dict[str, float]:
    """End-to-end figures from R identical rounds.

    The host this runs on slows down by tens of percent for fractions of a
    second at a time, and only ever *adds* time. So each statement position
    is first reduced to the lower quartile of its R executions — its cost on
    a quiet host; a quantile, so it does not drift with R the way a minimum
    would — and the figures are taken across positions: percentiles of those
    latencies, and rates over their sum (one client, one statement in
    flight: the round's wall is the sum of its latencies).
    """
    def quiet(series: str) -> list[float]:
        return [percentile(samples, 0.25)
                for samples in zip(*(getattr(r, series) for r in rounds))]

    latencies = quiet("latencies")
    busy = sum(latencies)
    count = len(latencies)
    return {
        "stmts_per_s": count / busy,
        "stmt_p50_ms": percentile(latencies, 0.50) * 1e3,
        "stmt_p95_ms": percentile(latencies, 0.95) * 1e3,
        "first_row_p50_ms": percentile(quiet("first_rows"), 0.50) * 1e3,
        "rows_per_s": statistics.median(r.rows for r in rounds) / busy,
        "cpu_ms_per_stmt": sum(quiet("cpus")) / count * 1e3,
        "backend_stmts_per_stmt":
            statistics.median(r.backend_statements for r in rounds) / count,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def verify(system: System, rounds_run: int, warm_digest: str) -> tuple[int, list[str]]:
    """The correctness oracle, run after the timed phase.

    Wire plans: every distinct read statement once more over the wire,
    compared as a row multiset with an uncached in-process reference engine
    that replayed the same DDL, data load and every write the client issued
    (``rounds_run`` passes of them). Translate plans: one more pass must
    emit byte-identical target SQL to the first. Returns (statements
    checked, mismatch descriptions).
    """
    plan = system.plan
    if plan.mode == "translate":
        same = system.warm_up() == warm_digest
        return len(plan.statements), ([] if same else
                                      ["target SQL differs between passes"])
    reference = System(plan, reference=True)
    try:
        tagged = list(zip(plan.statements, system.kinds))
        writes = [stmt for stmt, kind in tagged if kind != "rows"]
        for __ in range(rounds_run):
            for tenant, sql in writes:
                reference.session(tenant).execute(sql).close()
        checked, mismatches = set(), []
        for (tenant, sql), kind in tagged:
            if kind != "rows" or sql in checked:
                continue
            checked.add(sql)
            expected = reference.session(tenant).execute(sql)
            want = Counter(expected.rows)
            expected.close()
            try:
                got = Counter(system.clients[tenant].execute(sql).rows)
            except HyperQError as error:
                mismatches.append(f"{type(error).__name__} on {sql[:120]}")
                continue
            if got != want:
                mismatches.append(f"wrong rows for {sql[:120]}")
        return len(checked), mismatches
    finally:
        reference.close()
