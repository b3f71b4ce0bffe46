"""Figure 9b: Hyper-Q overhead under concurrent load (stress test).

Section 7.3 mimics a Fortune 10 customer: ten simultaneous client sessions
continuously submit TPC-H queries through Hyper-Q over the wire protocol.
Overhead *drops* relative to the sequential run (paper: 0.1-0.3%) because
execution time grows with concurrency while Hyper-Q adds only a small
constant per query. We reproduce the setup with ten real socket clients.
"""

from conftest import emit

from repro.bench.harness import prepare_tpch_engine, run_tpch_stress
from repro.bench.reporting import format_table, percent

#: Queries with a healthy execution/translation ratio at laptop scale.
STRESS_QUERIES = [1, 3, 5, 6, 10, 12, 18]
CLIENTS = 10


def test_fig9b_concurrent_stress(benchmark, tpch_scale):
    engine = prepare_tpch_engine(scale=tpch_scale)

    log = benchmark.pedantic(
        run_tpch_stress, args=(engine,),
        kwargs={"clients": CLIENTS, "iterations_per_client": 1,
                "query_numbers": STRESS_QUERIES},
        rounds=1, iterations=1)

    split = log.breakdown()
    emit(format_table(
        ["component", "share of end-to-end time", "paper"],
        [
            ("query translation", percent(split["translation"], 2), "~0.1%"),
            ("execution", percent(split["execution"], 2), "~99.8%"),
            ("result transformation", percent(split["result_conversion"], 2),
             "~0.1%"),
            ("total Hyper-Q overhead", percent(log.overhead_fraction, 2),
             "0.1% - 0.3%"),
        ],
        title=f"Figure 9b — {CLIENTS} concurrent clients "
              f"(scale {tpch_scale}, queries {STRESS_QUERIES})"))

    assert log.count == CLIENTS * len(STRESS_QUERIES)
    # The paper's qualitative claim: overhead stays a tiny fraction under
    # concurrency (per-query translation cost is constant while execution
    # time inflates with queueing).
    assert log.overhead_fraction < 0.10
