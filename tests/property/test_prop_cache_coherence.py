"""Engine-level model: with every cache on, no answer is ever stale.

Two engines share one L2 translation tier — in-memory, pickling every
entry both ways as the gateway's RPC does, and backed by the same
:class:`~repro.core.cache.DependencyLRU` the cache service runs — and each
has its own result cache and its own seeded ``W``, ``X`` and view ``V``
over ``W``. A random interleaving of reads over ``W`` / ``X`` / ``V`` (a
few literal variants each), repeated identical writes on ``W`` (so the
translation cache serves them, from the L1 or adopted from the tier) and
``DROP`` + ``CREATE`` of ``X`` must keep two invariants:

1. every read equals what an uncached reference engine that replayed the
   same writes returns (never stale);
2. a read whose tables took no write or DDL since its last run on that
   engine is a result-cache hit (invalidation is precise, not a flush).
"""

from __future__ import annotations

import pickle

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core.cache import CacheTier, DependencyLRU
from repro.core.engine import HyperQ

SETUP = (
    "CREATE MULTISET TABLE W (A INTEGER, B INTEGER)",
    "INSERT INTO W VALUES (1, 10), (2, 20)",
    "CREATE MULTISET TABLE X (A INTEGER, C INTEGER)",
    "INSERT INTO X VALUES (1, 5), (3, 7)",
    "CREATE VIEW V AS SELECT A, B FROM W WHERE B > 0",
)
REDEFINE_X = SETUP[2:4]

#: Reads, each with the tables it depends on.
READS = {
    "SEL B FROM W WHERE A = 1": ("W",),
    "SEL B FROM W WHERE A = 2": ("W",),
    "SEL COUNT(*), SUM(B) FROM W": ("W",),
    "SEL C FROM X WHERE A = 1": ("X",),
    "SEL C FROM X WHERE A = 3": ("X",),
    "SEL B FROM V WHERE A = 1": ("W",),
    "SEL SUM(B) FROM V": ("W",),
    "SEL W.B, X.C FROM W, X WHERE W.A = X.A": ("W", "X"),
}
WRITES = (
    "UPDATE W SET B = B + 1 WHERE A = 1",
    "DELETE FROM W WHERE A = 2",
    "INSERT INTO W VALUES (2, 20)",
    "MERGE INTO W USING X ON W.A = X.A "
    "WHEN MATCHED THEN UPDATE SET B = W.B + X.C "
    "WHEN NOT MATCHED THEN INSERT (A, B) VALUES (X.A, X.C)",
)
REDEFINE = "DROP TABLE X + CREATE TABLE X"


class PicklingTier(CacheTier):
    """The cache service's store without the socket: entries cross the
    boundary pickled, exactly as over the RPC."""

    def __init__(self):
        self.store = DependencyLRU(1 << 20)

    def get(self, key):
        entry = self.store.get(key)
        return pickle.loads(pickle.dumps(entry)) if entry is not None else None

    def put(self, key, entry):
        self.store.put(key, pickle.loads(pickle.dumps(entry)))

    def invalidate_tables(self, names):
        self.store.invalidate(names)


class Node:
    """One cached engine, its uncached reference, and per-table epochs."""

    def __init__(self, tier: CacheTier):
        self.cached = HyperQ(result_cache_bytes=1 << 20,
                             cache_tier=tier).create_session()
        self.reference = HyperQ(cache_size=0).create_session()
        self.epochs = {"W": 0, "X": 0}
        self.last_run: dict[str, tuple] = {}
        self.run(SETUP)

    def run(self, statements) -> None:
        for sql in statements:
            self.cached.execute(sql)
            self.reference.execute(sql)

    def read(self, sql: str) -> None:
        deps = READS[sql]
        seen = tuple(self.epochs[name] for name in deps)
        stats = self.cached.engine.result_cache_stats
        hits = stats().hits
        rows = self.cached.execute(sql).rows
        assert sorted(rows) == sorted(self.reference.execute(sql).rows), sql
        if self.last_run.get(sql) == seen:
            assert stats().hits == hits + 1, f"{sql}: untouched, yet a miss"
        self.last_run[sql] = seen

    def write(self, sql: str) -> None:
        self.run((sql,))
        self.epochs["W"] += 1

    def redefine_x(self) -> None:
        self.run(("DROP TABLE X",) + REDEFINE_X)
        self.epochs["X"] += 1


class CoherenceMachine(RuleBasedStateMachine):
    """One rule over the whole statement pool (not one per kind), so every
    generated run mixes reads, writes and DDL on both engines."""

    def __init__(self):
        super().__init__()
        tier = PicklingTier()
        self.nodes = (Node(tier), Node(tier))

    @rule(node=st.integers(0, 1),
          sql=st.sampled_from(tuple(READS) + WRITES + (REDEFINE,)))
    def run(self, node, sql):
        target = self.nodes[node]
        if sql in READS:
            target.read(sql)
        elif sql == REDEFINE:
            target.redefine_x()
        else:
            target.write(sql)


# Long runs: a stale read needs a write, a read, the same write served from
# a cache and the read again on one engine, which short runs rarely draw.
CoherenceMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=40, derandomize=True,
    deadline=None)
TestCacheCoherenceModel = CoherenceMachine.TestCase
