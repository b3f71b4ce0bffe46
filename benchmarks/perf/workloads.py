"""The six workloads: everything the program will be fed, made from a seed.

A :class:`Plan` is pure data — statement list, set-up DDL, data-load
parameters, engine options — generated before any engine exists, so the
program under test only ever sees generated inputs. One *round* is one pass
over ``Plan.statements``; every round of a run is the identical list, so
counters repeat exactly and per-round figures are comparable.

Round sizes are chosen so that about 7 rounds fit in the 8 s the driver
measures for on the 2-core box this was sized on (see README.md for the
measured walls); ``smoke=True`` shrinks them for the self-test.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, field

from repro.workloads import customer
from repro.workloads.sessions import SessionConfig, generate
from repro.workloads.tpch import queries as tpch_queries
from repro.workloads.tpch.schema import SCHEMA_DDL, TABLE_NAMES

TENANTS = ("acme", "zenith")

#: Table contents are the same for every ``--seed`` (except where data is
#: the only input, bulk_export): the seed picks *which* statements run and
#: in what order, not how much work a statement is, so runs with different
#: seeds measure the same thing.
DATA_SEED = 20180610


@dataclass(frozen=True)
class Plan:
    """Generated inputs of one workload run."""

    name: str
    seed: int
    #: One round, in issue order: (tenant or None, source-dialect SQL).
    statements: tuple[tuple[str | None, str], ...]
    #: Set-up statements, run through Hyper-Q before the warm-up pass.
    ddl: tuple[str, ...]
    #: TPC-H scale factor loaded straight into the warehouse, or None for
    #: workloads whose data arrives through ``ddl``.
    tpch_scale: float | None = None
    data_seed: int = DATA_SEED
    #: ``HyperQ(...)`` keyword arguments (cache sizes).
    engine: dict = field(default_factory=dict)
    #: Tenants to configure (with a WorkloadManager); () = neither.
    tenants: tuple[str, ...] = ()
    #: "wire" = TdClient over loopback; "translate" = in-process
    #: ``HyperQSession.translate`` (no wire, no warehouse).
    mode: str = "wire"
    sizes: dict = field(default_factory=dict)

    def inputs_sha256(self) -> str:
        digest = hashlib.sha256()
        for part in (self.name, repr(self.tpch_scale), str(self.data_seed),
                     *self.ddl, *(f"{t}\t{s}" for t, s in self.statements)):
            digest.update(part.encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()


def _scale(smoke: bool) -> float:
    """TPC-H scale factor of the warehouse-bound workloads."""
    return 0.0003 if smoke else 0.001


def _tpch_ddl() -> tuple[str, ...]:
    return tuple(SCHEMA_DDL[table].strip() for table in TABLE_NAMES)


def tpch_seq(seed: int, smoke: bool) -> Plan:
    numbers = list(range(1, 23))
    random.Random(seed).shuffle(numbers)
    if smoke:
        # Five cheap queries keep the smoke run short; order stays seeded.
        numbers = [n for n in numbers if n in (6, 11, 16, 20, 22)]
    scale = _scale(smoke)
    return Plan(
        "tpch_seq", seed,
        tuple((None, tpch_queries.query(n)) for n in numbers),
        _tpch_ddl(), tpch_scale=scale,
        sizes={"statements_per_round": len(numbers), "tpch_scale": scale})


def _customer_rows(prefix: str, rng: random.Random, rows: int) -> list[str]:
    """Seeded table contents, in the value ranges the HEALTH templates
    probe, as three batched INSERTs (loaded through Hyper-Q)."""
    facts, dims, events = [], [], []
    for i in range(1, rows + 1):
        # A decade of dates: the templates' date predicates (all within a
        # few months of 2016-03) then keep a few rows, not the whole table.
        day = (f"DATE '{rng.randrange(2006, 2017)}-{rng.randrange(1, 13):02d}"
               f"-{rng.randrange(1, 28):02d}'")
        grp = rng.randrange(1, 500)
        facts.append(
            f"({i}, {grp}, {rng.randrange(50)}, "
            f"{rng.randrange(1, 60000) / 100}, {rng.randrange(12)}, "
            f"'name{rng.randrange(10 ** rng.randrange(1, 9))}', {day}, "
            f"'note {i}')")
        dims.append(f"({grp}, 'label{i}', {rng.randrange(20)})")
        # FACT_ID points at a lower ID, so the recursive CHAIN queries end.
        events.append(f"({i}, {rng.randrange(i)}, {rng.randrange(100)}, "
                      f"{rng.randrange(1, 9000) / 100}, {day})")
    return [f"INSERT INTO {prefix}_{table} VALUES " + ", ".join(values)
            for table, values in (("FACTS", facts), ("DIM", dims),
                                  ("EVENTS", events))]


def _systematic_sample(items: list, weights: list, count: int,
                       rng: random.Random) -> list:
    """A weighted sample in seeded order where item *i* appears
    floor or ceil of ``count * p_i`` times (evenly spaced picks through the
    cumulative weights from a seeded offset). The seed decides which of the
    rare items make it in and the order; the frequent ones — and so the
    round's total work — barely change from seed to seed, which plain
    ``random.choices`` would not give at this sample size."""
    cumulative = list(itertools.accumulate(weights))
    step = cumulative[-1] / count
    offset = rng.uniform(0, step)
    picked = [items[bisect.bisect_right(cumulative, offset + k * step)]
              for k in range(count)]
    rng.shuffle(picked)
    return picked


def short_stmts(seed: int, smoke: bool) -> Plan:
    profile = customer.HEALTH
    rng = random.Random(seed)
    sampled = _systematic_sample(customer.distinct_queries(profile),
                                 customer.frequencies(profile),
                                 150 if smoke else 1500, rng)
    statements = []
    for sql in sampled:
        statements.append((None, sql))
        if sql.startswith("CREATE VOLATILE TABLE"):
            # Rounds replay the identical list on one connection, so the
            # session-scoped table has to go before it is created again.
            statements.append((None, "DROP TABLE " + sql.split()[3]))
    ddl = tuple(customer.schema_sql(profile)) \
        + tuple(_customer_rows("HC", random.Random(DATA_SEED), 50))
    return Plan("short_stmts", seed, tuple(statements), ddl,
                sizes={"statements_per_round": len(statements),
                       "distinct": len(set(sampled)), "rows_per_table": 50})


def _stratified_sample(items: list[str], share: int,
                       rng: random.Random) -> list[str]:
    """One item in *share*, in seeded order: the items are ranked by length
    (which tracks what a statement costs to translate) and one is drawn from
    each run of *share* neighbours, so every seed gets the same spread of
    cheap and dear statements while still drawing its own."""
    ranked = sorted(items, key=lambda sql: (len(sql), sql))
    picked = [rng.choice(ranked[i:i + share])
              for i in range(0, len(ranked) - share + 1, share)]
    rng.shuffle(picked)
    return picked


def translate_cold(seed: int, smoke: bool) -> Plan:
    rng = random.Random(seed)
    share = 40 if smoke else 4  # one statement in `share` of each profile
    statements, ddl, sizes = [], [], {}
    for profile in (customer.HEALTH, customer.TELCO):
        picked = _stratified_sample(customer.distinct_queries(profile),
                                    share, rng)
        statements += [(None, sql) for sql in picked]
        ddl += customer.schema_sql(profile) + customer.setup_sql(profile)
        sizes[profile.sector.lower()] = len(picked)
    return Plan("translate_cold", seed, tuple(statements), tuple(ddl),
                engine={"cache_size": 0}, mode="translate",
                sizes={"statements_per_round": len(statements), **sizes})


#: The ORDERS slice bi_churn writes through. A direct ``UPDATE ORDERS``
#: would be the obvious statement, but at the commit this benchmark was
#: written on, DML served from a translation-cache hit does not bump the
#: data epoch, so the result cache keeps serving pre-update rows (the verify
#: phase catches it). DML on a view takes the emulation path, which does
#: invalidate, and is itself a tracked Teradata-ism (``dml_on_view``).
_CHURN_VIEW = ("CREATE VIEW ORDERS_V AS "
               "SELECT O_ORDERKEY, O_TOTALPRICE FROM ORDERS")


#: BI workloads are about the cache and wire paths, not the warehouse: a
#: small scale keeps the ~55 cold executions of a set-up short.
_BI_SCALE = 0.0005


def _bi_timeline(rng: random.Random, smoke: bool) -> list:
    """The dashboard sessions are the same analysts in every run (fixed
    generator seed: the statement multiset, and with it result sizes and the
    distinct texts, does not depend on ``--seed``); *rng* decides how their
    sessions interleave, each session keeping its own order."""
    events = generate(SessionConfig(
        seed=DATA_SEED, tenants=TENANTS,
        sessions_per_tenant=1 if smoke else 4,
        steps_per_session=10 if smoke else 40, tiles_per_session=3))
    sessions: dict = {}
    for event in events:
        sessions.setdefault((event.tenant, event.session), []).append(event)
    turns = [key for key, own in sessions.items() for __ in own]
    rng.shuffle(turns)
    cursors = {key: iter(own) for key, own in sessions.items()}
    return [next(cursors[key]) for key in turns]


def bi_dashboard(seed: int, smoke: bool) -> Plan:
    events = _bi_timeline(random.Random(seed), smoke)
    return Plan(
        "bi_dashboard", seed,
        tuple((event.tenant, event.sql) for event in events),
        _tpch_ddl(), tpch_scale=_BI_SCALE,
        engine={"result_cache_bytes": 8 << 20}, tenants=TENANTS,
        sizes={"statements_per_round": len(events), "tpch_scale": _BI_SCALE,
               "distinct": len({event.sql for event in events})})


def bi_churn(seed: int, smoke: bool) -> Plan:
    # Half the timeline, in one fixed interleaving: how many ORDERS tiles a
    # write forces back to the warehouse depends on the order, and that is
    # the work being measured. The seed picks the rows written.
    events = _bi_timeline(random.Random(DATA_SEED), smoke)
    events = events[:len(events) // 2]
    rng = random.Random(seed)
    orders = int(1_500_000 * _BI_SCALE)  # O_ORDERKEY runs 1..orders
    statements = []
    for index, event in enumerate(events):
        if index % 24 == 0:
            statements.append((
                event.tenant,
                "UPDATE ORDERS_V SET O_TOTALPRICE = O_TOTALPRICE + 1 "
                f"WHERE O_ORDERKEY = {rng.randrange(1, orders + 1)}"))
        statements.append((event.tenant, event.sql))
    return Plan(
        "bi_churn", seed, tuple(statements),
        _tpch_ddl() + (_CHURN_VIEW,), tpch_scale=_BI_SCALE,
        engine={"result_cache_bytes": 8 << 20}, tenants=TENANTS,
        sizes={"statements_per_round": len(statements),
               "tpch_scale": _BI_SCALE,
               "writes_per_round": len(statements) - len(events)})


def bulk_export(seed: int, smoke: bool) -> Plan:
    per_round = 2 if smoke else 6
    scale = _scale(smoke)
    return Plan(
        "bulk_export", seed, ((None, "SEL * FROM LINEITEM"),) * per_round,
        _tpch_ddl(), tpch_scale=scale, data_seed=seed,
        sizes={"statements_per_round": per_round, "tpch_scale": scale})


WORKLOADS = {
    "tpch_seq": tpch_seq,
    "short_stmts": short_stmts,
    "translate_cold": translate_cold,
    "bi_dashboard": bi_dashboard,
    "bi_churn": bi_churn,
    "bulk_export": bulk_export,
}
