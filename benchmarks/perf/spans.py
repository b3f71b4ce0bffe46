"""The traced run: the benchmark's own span recorder and per-layer metrics.

Nothing inside the program is instrumented here. Layers are timed from
outside, by calling their public entry points one at a time and recording a
span around each call (name, start, end, parent, request id). A traced run
makes one pass of the round per step:

1. over the wire through ``ServerThread`` — client-side latencies and the
   deltas of the program's public counters;
2. over the wire through ``AioServerThread`` — the other wire path;
3. in process through ``HyperQSession.execute`` — the same statements minus
   the wire, so step 1 minus step 3 is the wire's own time;
4. in process *staged*, recorder off, 5. staged, recorder on (and once more
   off, so a drifting host cancels) — each plain statement is walked through
   fingerprint, cache lookup, parse, bind, dependency extraction, transform,
   serialize, ODBC execute, fetch and result conversion by hand; emulated
   statements and everything on a result-cache engine stay one opaque
   ``execute`` span (their internals are not reachable through public
   members). 5 minus 4 is the recorder's cost.

After each statement of step 5, outside its request span, the warehouse is
called directly with the target SQL and the TDF and row codecs are run over
the statement's own rows, which gives ``backend.*``, ``tdf.*`` and the
``protocol`` codec rates.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro import AioServerThread, FeatureTracker, ServerThread, tdf
from repro.core import deps as deps_mod
from repro.core.cache import TranslationCache
from repro.core.workload import HISTOGRAM_BOUNDS
from repro.errors import HyperQError, SQLError
from repro.protocol.encoding import RowCodec

from harness import Round, System, run_round


class Span:
    """One recorded interval; also the context manager that times it."""

    __slots__ = ("recorder", "id", "parent", "request", "name", "start",
                 "end", "attrs")

    def __init__(self, recorder: "Recorder", name: str, attrs: dict):
        self.recorder = recorder
        self.id = self.parent = None
        self.request = recorder.request
        self.name = name
        self.start = self.end = 0.0
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        recorder = self.recorder
        if recorder.enabled:
            self.id = len(recorder.spans)
            self.parent = recorder._stack[-1] if recorder._stack else None
            recorder.spans.append(self)
            recorder._stack.append(self.id)
            self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.recorder.enabled:
            self.end = time.perf_counter()
            self.recorder._stack.pop()


class Recorder:
    """In-memory spans, written out as JSON lines when the run ends.
    ``enabled=False`` keeps the call sites but records nothing (the untraced
    side of the overhead measurement)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def durations(self, name: str) -> list[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def attrs(self, name: str, key: str) -> list:
        return [span.attrs[key] for span in self.spans if span.name == name]

    def write(self, path: str) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent,
                    "request": span.request, "name": span.name,
                    "start_us": round((span.start - origin) * 1e6, 1),
                    "end_us": round((span.end - origin) * 1e6, 1),
                    **span.attrs}))
                handle.write("\n")


#: Span name -> the layer (a module of ``src/repro``) its time belongs to.
LAYER_OF = {
    "frontend.parse": "frontend", "frontend.bind": "frontend",
    "transform": "transform", "serializer": "serializer",
    "core.cache.fingerprint": "core.cache", "core.cache.lookup": "core.cache",
    "core.deps.extract": "core.deps",
    "core.result_cache.hit": "core.result_cache",
    "core.result_cache.miss": "core.result_cache",
    "core.emulation": "core.emulation",
    "odbc.execute": "odbc", "odbc.fetch": "odbc",
    "results.convert": "results", "request": "bench",
}


def self_time_by_layer(recorder: Recorder) -> dict[str, float]:
    """Seconds of self time (span minus its children) per layer, over the
    request spans of the staged pass and everything under them."""
    child_time: dict[int, float] = {}
    for span in recorder.spans:
        if span.parent is not None:
            child_time[span.parent] = \
                child_time.get(span.parent, 0.0) + span.seconds
    layers: dict[str, float] = {}
    for span in recorder.spans:
        layer = LAYER_OF.get(span.name)
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) \
                + span.seconds - child_time.get(span.id, 0.0)
    return layers


# -- the passes ----------------------------------------------------------------------


def _drain(result) -> list[bytes]:
    try:
        return list(result.iter_chunks())
    finally:
        result.close()


def inprocess_pass(system: System) -> Round:
    """The round through ``HyperQSession.execute`` (or ``translate``), each
    reply drained — what the wire server does, minus the wire."""
    if system.plan.mode == "translate":
        return run_round(system)
    sessions = {tenant: system.session(tenant)
                for tenant in system.plan.tenants or (None,)}

    def issuer(session):
        def issue(sql):
            result = session.execute(sql)
            chunks = _drain(result)
            return (result.rowcount if chunks else 0), time.perf_counter()
        return issue

    return run_round(system, {t: issuer(s) for t, s in sessions.items()})


def plain_statements(system: System) -> dict[str, bool]:
    """sql -> whether the stages can be walked by hand for it: a plain
    single-statement translation on an engine without a result cache.
    Everything else (emulated, DDL, result-cache engines) runs opaque."""
    plan = system.plan
    if plan.mode == "translate":
        return {sql: kind == "sql"
                for (__, sql), kind in zip(plan.statements, system.kinds)}
    plain: dict[str, bool] = {}
    if system.engine.result_cache is None:
        probe = system.engine.create_session()
        for __, sql in plan.statements:
            if sql not in plain:
                try:
                    plain[sql] = probe.translate(sql).kind == "sql"
                except HyperQError:
                    plain[sql] = False
        probe.close()
    return plain


class StagedPass:
    """One pass with every reachable layer boundary under a span."""

    def __init__(self, system: System, recorder: Recorder,
                 plain: dict[str, bool], measure_codecs: bool):
        self.system = system
        self.rec = recorder
        self.plain = plain
        self.measure_codecs = measure_codecs
        self.execute = system.plan.mode == "wire"
        self.errors = 0
        self.frontend_errors = 0
        self.spills = 0

    def run(self) -> float:
        """Returns the summed request-span wall."""
        rec = self.rec
        total = 0.0
        for tenant, sql in self.system.plan.statements:
            session = self.system.session(tenant)
            rec.request += 1
            begin = time.perf_counter()
            try:
                with rec.span("request", sql=sql[:160]):
                    done = self._statement(session, sql)
            except HyperQError as error:
                self.errors += 1
                self.frontend_errors += isinstance(error, SQLError)
                total += time.perf_counter() - begin
                continue
            total += time.perf_counter() - begin
            if done is not None and self.measure_codecs:
                self._outside_request(session, *done)
        return total

    def _statement(self, session, sql: str):
        """(target SQL if it ran on the warehouse, columns, metas, chunks)
        of a row result, else None."""
        if not self.execute:
            self._translate_stages(session, sql, self.plain[sql])
            return None
        if self.plain.get(sql):
            target = self._translate_stages(session, sql, True)
            return self._execute_stages(session, target)
        return self._opaque(session, sql)

    def _translate_stages(self, session, sql: str, plain: bool):
        rec = self.rec
        engine = session.engine
        cache = engine.cache
        if cache is not None:
            with rec.span("core.cache.fingerprint"):
                fp = cache.fingerprint_cached(sql, session.parser.lexer)
            with rec.span("core.cache.lookup") as span:
                hit = cache.lookup(TranslationCache.key_base(
                    engine.source, session.profile.name, fp.text,
                    session.catalog.overlay_key), fp, None)
                span.attrs["hit"] = hit is not None
            if hit is not None:
                return hit.target_sql
        tracker = engine.tracker
        tracker.begin_query()
        try:
            with rec.span("frontend.parse"):
                ast = session.parser.parse_statement(sql)
            with rec.span("frontend.bind"):
                bound = session.binder.bind(ast)
            if not plain:  # translate() stops here for emulated statements
                return None
            if self.execute or cache is not None:
                with rec.span("core.deps.extract"):
                    deps_mod.extract(bound, session.catalog)
            noted = len(tracker.current_notes())
            with rec.span("transform") as span:
                session.transformer.transform(bound)
                span.attrs["rules_fired"] = \
                    len(tracker.current_notes()) - noted
            with rec.span("serializer") as span:
                target = session.serializer.serialize(bound)
                span.attrs["bytes"] = len(target)
            return target
        finally:
            tracker.end_query()

    def _execute_stages(self, session, target: str):
        rec = self.rec
        with rec.span("odbc.execute"):
            result = session.odbc.execute(target)
        if result.kind != "rows":
            return None
        with rec.span("odbc.fetch") as fetch:
            packets = list(result.fetch_batches())
        with rec.span("results.convert") as convert:
            converted = session.converter.convert_stream(
                iter(packets), result.column_types)
            chunks = list(converted.iter_chunks())
        fetch.attrs["rows"] = convert.attrs["rows"] = converted.rowcount
        self._count_spill(session)
        converted.close()
        return target, result.columns, converted.metas, chunks

    def _opaque(self, session, sql: str):
        engine = session.engine
        rcache = engine.result_cache
        hits = rcache.stats().hits if rcache is not None else 0
        statements = session.odbc.statements_executed
        with self.rec.span("core.emulation") as span:
            result = session.execute(sql)
            chunks = list(result.iter_chunks())
        self._count_spill(session)
        result.close()
        ran = session.odbc.statements_executed - statements
        span.attrs["backend_statements"] = ran
        if rcache is not None and result.kind == "rows":
            # Only now is it known which path the statement took.
            span.name = "core.result_cache.hit" \
                if rcache.stats().hits > hits else "core.result_cache.miss"
        if result.kind != "rows":
            return None
        target = result.target_sql[0] \
            if ran == 1 and len(result.target_sql) == 1 else None
        return target, result.columns, result.metas, chunks

    def _count_spill(self, session) -> None:
        spill_dir = session.engine.spill_dir
        if any(name.startswith("hyperq-spill-")
               for name in os.listdir(spill_dir)):
            self.spills += 1

    def _outside_request(self, session, target, columns, metas, chunks):
        """Direct calls into the warehouse and the codecs, on this
        statement's own SQL and rows (outside its request span)."""
        rec = self.rec
        if target is not None:
            with rec.span("backend.execute"):
                len(session.engine.backend.execute(target).rows)  # drains
        codec = RowCodec.for_metas(metas)
        for chunk in chunks:
            with rec.span("protocol.decode", bytes=len(chunk)) as span:
                rows = codec.decode(chunk)
            span.attrs["rows"] = len(rows)
            with rec.span("protocol.encode", rows=len(rows)):
                codec.encode(rows)
            with rec.span("tdf.encode") as span:
                packet = tdf.encode_batch(columns, rows)
            span.attrs["bytes"] = len(packet)
            with rec.span("tdf.decode", bytes=len(packet)):
                tdf.decode_batch(packet)


# -- counters read off the program's public statistics -------------------------------


def _counters(system: System) -> dict[str, float]:
    engine = system.engine
    out = {"odbc.statements": engine.backend_statements(),
           "odbc.retries": engine.resilience.retries}
    cache = engine.cache_stats()
    if cache is not None:
        out.update({"cache.hits": cache.hits, "cache.misses": cache.misses,
                    "cache.invalidations": cache.invalidations})
    rcache = engine.result_cache_stats()
    if rcache is not None:
        out.update({"rc.hits": rcache.hits, "rc.misses": rcache.misses,
                    "rc.inserts": rcache.inserts,
                    "rc.invalidations": rcache.invalidations})
    if system.manager is not None:
        stats = system.manager.stats
        out.update({"wl.admitted": stats.total("admitted"),
                    "wl.shed": stats.total("shed")})
        for per_class in stats.snapshot().values():
            for index, count in enumerate(per_class["queue_wait"]["buckets"]):
                key = f"wl.wait.{index}"
                out[key] = out.get(key, 0) + count
    return out


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _queue_wait_p95_ms(delta: dict[str, float]) -> float:
    """Upper edge of the histogram bucket holding the 95th percentile."""
    buckets = [delta.get(f"wl.wait.{i}", 0)
               for i in range(len(HISTOGRAM_BOUNDS) + 1)]
    total = sum(buckets)
    if not total:
        return 0.0
    seen = 0
    for index, count in enumerate(buckets):
        seen += count
        if seen >= 0.95 * total:
            bound = HISTOGRAM_BOUNDS[min(index, len(HISTOGRAM_BOUNDS) - 1)]
            return bound * 1e3
    return HISTOGRAM_BOUNDS[-1] * 1e3


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop — a yardstick for the host,
    not the program: if it moves between two runs, so did the machine."""
    samples = []
    for __ in range(5):
        begin = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - begin) * 1e3)
    return statistics.median(samples)


# -- the traced run ------------------------------------------------------------------


def _median(values: list[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _per_second(amounts: list[float], seconds: list[float]) -> float:
    return sum(amounts) / sum(seconds) if seconds and sum(seconds) else 0.0


def traced_run(plan, out_dir: str) -> dict:
    """All per-layer metrics of one workload, plus bookkeeping."""
    os.makedirs(out_dir, exist_ok=True)
    system = System(plan, tracker=FeatureTracker(), spill_dir=out_dir)
    recorder = Recorder()
    layers: dict[str, float] = {}
    attempted = failed = 0
    wire = plan.mode == "wire"
    try:
        # Steps 1 and 2: both wire paths (threaded first: it also warms up).
        client_round = None
        delta: dict[str, float] = {}
        for label, server_cls in (("threaded", ServerThread),
                                  ("async", AioServerThread)):
            rows_per_cpu_s = 0.0
            if wire:
                system.connect(server_cls)
                if not system.kinds:
                    system.warm_up()
                before = _counters(system)
                round_ = run_round(system)
                if label == "threaded":
                    client_round = round_
                    after = _counters(system)
                    delta = {k: after[k] - before[k] for k in after}
                system.disconnect()
                attempted += len(plan.statements)
                failed += len(round_.failures)
                rows_per_cpu_s = round_.rows / round_.cpu
            layers[f"protocol.{label}.rows_per_cpu_s"] = rows_per_cpu_s
        if not wire:
            system.warm_up()

        # Step 3: the same round without the wire.
        inproc = inprocess_pass(system)
        attempted += len(plan.statements)
        failed += len(inproc.failures)

        # Steps 4 and 5: staged, recorder off / on / off — the mean of the
        # two unrecorded passes cancels a drifting host.
        plain = plain_statements(system)
        passes = [StagedPass(system, Recorder(enabled=False), plain, False),
                  StagedPass(system, recorder, plain, True),
                  StagedPass(system, Recorder(enabled=False), plain, False)]
        before, traced, after = [each.run() for each in passes]
        untraced = (before + after) / 2
        staged = passes[1]
        attempted += 3 * len(plan.statements)
        failed += sum(each.errors for each in passes)

        overhead_us = []
        if system.manager is not None:
            session = system.session(plan.tenants[0])
            for __ in range(200):
                begin = time.perf_counter()
                system.manager.run(session, "SEL 1", fn=lambda: None)
                overhead_us.append((time.perf_counter() - begin) * 1e6)
        cache = system.engine.cache
        rcache = system.engine.result_cache
        cache_used = cache.used_bytes if cache is not None else 0
        rcache_used = rcache.used_bytes if rcache is not None else 0
        logon_ms = _median(system.logon_s, 1e3)
    finally:
        system.close()

    dur, attr = recorder.durations, recorder.attrs
    # Each direct warehouse call follows its own statement's request span,
    # so numerator and denominator see the same moment of the host.
    backend_s = sum(dur("backend.execute"))
    request_s = sum(dur("request"))
    wire_self = []
    if client_round is not None and not client_round.failures \
            and not inproc.failures:
        wire_self = [c - i for c, i in zip(client_round.latencies,
                                           inproc.latencies)]
    decode_rows = attr("protocol.decode", "rows")
    layers.update({
        "frontend.parse_us": _median(dur("frontend.parse"), 1e6),
        "frontend.bind_us": _median(dur("frontend.bind"), 1e6),
        "frontend.stmts": len(dur("frontend.parse")),
        "frontend.errors": staged.frontend_errors,
        "transform.us": _median(dur("transform"), 1e6),
        "transform.rules_fired_per_stmt":
            statistics.fmean(attr("transform", "rules_fired") or [0]),
        "serializer.us": _median(dur("serializer"), 1e6),
        "serializer.target_bytes_per_stmt":
            statistics.fmean(attr("serializer", "bytes") or [0]),
        "core.cache.fingerprint_us":
            _median(dur("core.cache.fingerprint"), 1e6),
        "core.cache.lookup_us": _median(dur("core.cache.lookup"), 1e6),
        "core.cache.hit_rate": _rate(delta.get("cache.hits", 0),
                                     delta.get("cache.misses", 0)),
        "core.cache.misses": delta.get("cache.misses", 0),
        "core.cache.invalidations": delta.get("cache.invalidations", 0),
        "core.cache.used_bytes": cache_used,
        "core.deps.extract_us": _median(dur("core.deps.extract"), 1e6),
        "core.result_cache.hit_ms":
            _median(dur("core.result_cache.hit"), 1e3),
        "core.result_cache.hit_rate": _rate(delta.get("rc.hits", 0),
                                            delta.get("rc.misses", 0)),
        "core.result_cache.inserts": delta.get("rc.inserts", 0),
        "core.result_cache.invalidations": delta.get("rc.invalidations", 0),
        "core.result_cache.used_bytes": rcache_used,
        "core.workload.run_overhead_us": _median(overhead_us),
        "core.workload.admitted": delta.get("wl.admitted", 0),
        "core.workload.shed": delta.get("wl.shed", 0),
        "core.workload.queue_wait_p95_ms": _queue_wait_p95_ms(delta),
        "core.emulation.stmt_ms": _median(dur("core.emulation"), 1e3),
        "core.emulation.backend_stmts_per_stmt": statistics.fmean(
            attr("core.emulation", "backend_statements") or [0]),
        "odbc.execute_ms": _median(dur("odbc.execute"), 1e3),
        "odbc.fetch_rows_per_s": _per_second(attr("odbc.fetch", "rows"),
                                             dur("odbc.fetch")),
        "odbc.statements": delta.get("odbc.statements", 0),
        "odbc.retries": delta.get("odbc.retries", 0),
        "backend.execute_ms": _median(dur("backend.execute"), 1e3),
        "backend.share": backend_s / request_s,
        "hyperq.overhead_share": 1 - backend_s / request_s,
        "tdf.encode_mb_per_s": _per_second(attr("tdf.encode", "bytes"),
                                           dur("tdf.encode")) / 1e6,
        "tdf.decode_mb_per_s": _per_second(attr("tdf.decode", "bytes"),
                                           dur("tdf.decode")) / 1e6,
        "results.convert_rows_per_s": _per_second(
            attr("results.convert", "rows"), dur("results.convert")),
        "results.spills": staged.spills,
        "protocol.wire_self_ms": _median(wire_self, 1e3),
        "protocol.encode_rows_per_s": _per_second(
            attr("protocol.encode", "rows"), dur("protocol.encode")),
        "protocol.decode_rows_per_s": _per_second(
            decode_rows, dur("protocol.decode")),
        "protocol.wire_bytes_per_row":
            sum(attr("protocol.decode", "bytes")) / sum(decode_rows)
            if sum(decode_rows) else 0.0,
        "protocol.logon_ms": logon_ms,
        "bench.trace_overhead_share": traced / untraced - 1,
        "bench.calib_ms": calibrate(),
    })
    trace_path = os.path.join(out_dir, f"trace-{plan.name}.jsonl")
    recorder.write(trace_path)
    shares = {layer: seconds / request_s
              for layer, seconds in self_time_by_layer(recorder).items()}
    return {"layers": layers, "self_time_share": shares,
            "trace_file": trace_path, "spans": len(recorder.spans),
            "attempted": attempted, "failed": failed}
