"""Experiment drivers shared by benchmarks, examples and integration tests.

Each driver corresponds to one experiment of Section 7:

* :func:`run_workload_study` — the customer workload study (Table 1,
  Figures 8a/8b),
* :func:`run_tpch_sequential` — single-client TPC-H overhead run (Figure 9a),
* :func:`run_tpch_stress` — concurrent multi-client stress test (Figure 9b).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.engine import HyperQ
from repro.core.timing import TimingLog
from repro.core.tracker import FeatureTracker
from repro.protocol.client import TdClient
from repro.protocol.server import ServerThread
from repro.workloads import customer
from repro.workloads.features import FeatureClass
from repro.workloads.tpch import datagen, queries
from repro.workloads.tpch.schema import SCHEMA_DDL, TABLE_NAMES


# ---------------------------------------------------------------------------
# Workload study (Table 1, Figure 8)
# ---------------------------------------------------------------------------

@dataclass
class WorkloadStudyResult:
    """Measured outcome of the workload study for one customer."""

    profile: customer.CustomerProfile
    presence: dict[FeatureClass, float] = field(default_factory=dict)
    affected: dict[FeatureClass, float] = field(default_factory=dict)
    total_queries: int = 0
    distinct_queries: int = 0
    translation_errors: int = 0


def run_workload_study(profile: customer.CustomerProfile) -> WorkloadStudyResult:
    """Translate every distinct query of a customer workload, tracking
    feature usage (the instrumentation of Section 7.1)."""
    engine = HyperQ()
    setup = engine.create_session()
    for ddl in customer.schema_sql(profile) + customer.setup_sql(profile):
        setup.execute(ddl)
    tracker = FeatureTracker()
    engine.tracker = tracker
    session = engine.create_session()
    errors = 0
    for query_text in customer.distinct_queries(profile):
        try:
            session.translate(query_text)
        except Exception:
            errors += 1
    freqs = customer.frequencies(profile)
    return WorkloadStudyResult(
        profile=profile,
        presence=tracker.feature_presence_by_class(),
        affected=tracker.affected_query_fraction_by_class(),
        total_queries=sum(freqs),
        distinct_queries=len(freqs),
        translation_errors=errors,
    )


# ---------------------------------------------------------------------------
# TPC-H overhead (Figure 9)
# ---------------------------------------------------------------------------

def prepare_tpch_engine(scale: float = 0.001, seed: int = 20180610,
                        batch_budget=None) -> HyperQ:
    """An engine with the TPC-H schema created through Hyper-Q and data
    loaded into the backing warehouse. *batch_budget* bounds the streaming
    result pipeline (rows per batch, per-layer memory ceiling)."""
    engine = HyperQ(batch_budget=batch_budget)
    # Loading is not part of the measured workload: it records into a
    # detached log, and the engine's own log (which feeds the metrics
    # registry) starts empty.
    measured, engine.timing_log = engine.timing_log, TimingLog()
    session = engine.create_session()
    for table in TABLE_NAMES:
        session.execute(SCHEMA_DDL[table].strip())
    datagen.load_direct(engine.backend, scale=scale, seed=seed)
    engine.timing_log = measured
    return engine


def run_tpch_sequential(engine: HyperQ,
                        query_numbers: list[int] | None = None) -> TimingLog:
    """Run the TPC-H queries once on a single session; returns the timing
    log holding the translation/execution/conversion split (Figure 9a)."""
    session = engine.create_session()
    for number in query_numbers or list(range(1, 23)):
        result = session.execute(queries.query(number))
        result.close()
    return engine.timing_log


def run_tpch_stress(engine: HyperQ, clients: int = 10,
                    iterations_per_client: int = 1,
                    query_numbers: list[int] | None = None) -> TimingLog:
    """Figure 9b: *clients* concurrent sessions each repeatedly submit TPC-H
    queries through the wire protocol."""
    numbers = query_numbers or list(range(1, 23))
    errors: list[Exception] = []

    with ServerThread(engine) as (host, port):
        def worker(worker_id: int) -> None:
            try:
                with TdClient(host, port, user=f"client{worker_id}") as client:
                    for __ in range(iterations_per_client):
                        for number in numbers:
                            client.execute(queries.query(number))
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return engine.timing_log
