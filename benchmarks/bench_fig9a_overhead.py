"""Figure 9a: Hyper-Q overhead on a single sequential TPC-H run.

The paper ran the 22 TPC-H queries on 1TB in a commercial cloud DW and found
Hyper-Q's total overhead (query translation + result transformation) below 2%
of end-to-end time. We run the same 22 queries (in Teradata dialect) through
the full pipeline against the in-memory warehouse and report the same split.
"""

from conftest import emit

from repro.bench.harness import prepare_tpch_engine, run_tpch_sequential
from repro.bench.reporting import format_table, percent


def test_fig9a_sequential_overhead(benchmark, tpch_scale):
    engine = prepare_tpch_engine(scale=tpch_scale)

    log = benchmark.pedantic(run_tpch_sequential, args=(engine,),
                             rounds=1, iterations=1)

    split = log.breakdown()
    emit(format_table(
        ["component", "share of end-to-end time", "paper"],
        [
            ("query translation", percent(split["translation"], 2), "~0.5%"),
            ("execution", percent(split["execution"], 2), "~98%"),
            ("result transformation", percent(split["result_conversion"], 2),
             "~1%"),
            ("cache lookup + probe", percent(split["cache_lookup"], 2), "—"),
            ("total Hyper-Q overhead", percent(log.overhead_fraction, 2),
             "< 2%"),
        ],
        title=f"Figure 9a — sequential TPC-H run (scale {tpch_scale})"))

    # Shape assertions: execution dominates; the virtualization layer's
    # share is a small fraction (generous bound at laptop scale).
    assert split["execution"] > 0.90
    assert log.overhead_fraction < 0.10
    assert log.count == 22
