"""Fingerprint-keyed result cache for repeated read-only statements.

The workload the paper targets (Table 1) and the dashboard traffic Sigma
Worksheet describes re-issue near-identical read-only queries constantly.
The translation cache already makes those skip parse→bind→transform→
serialize; this layer makes them skip the *backend* too: a hit replays the
wire chunks a live run sent, with zero executor calls and no conversion.

Safety model (two independent layers):

1. **Version vectors in the entry.**  Every entry stores the dependency
   set the extractor (``core/deps.py``) computed for its statement and the
   shadow catalog's ``(name, schema_epoch, data_epoch)`` vector over that
   set, captured before first execution.  A lookup recomputes the current
   vector and serves only on exact equality — a stale serve is impossible
   by construction, even if the eager index below were broken.
2. **Eager invalidation index.**  The dependency index of the store the
   translation cache also uses (:class:`~repro.core.cache.DependencyLRU`)
   drops affected entries the moment DDL/DML
   touches a dependency, reclaiming memory immediately and making entry
   survival across disjoint-table DML measurable.

Only *shareable* statements are stored: read-only, deterministic (no
``CURRENT_TIMESTAMP`` and friends), no volatile-table references, no
session overlay active, and no parameter values the key cannot freeze.
Entries are byte-bounded with LRU eviction and a per-entry cap so one
giant scan cannot monopolize (or thrash) the cache; oversized results
abort materialization mid-stream and are simply not stored.

The ``"result_cache"`` fault site injects seeded churn: forced eviction
after insert and forced stale-version drops on lookup, so the resilience
battery can prove answers never depend on the cache's health.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Optional

from repro.core.cache import DependencyLRU
from repro.core.faults import RESULT_CACHE_EVICT, RESULT_CACHE_STALE


@dataclass
class ResultCacheStats:
    """Monotonic counters; snapshot with :meth:`ResultCache.stats`."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale_drops: int = 0     # vector mismatch (or forced stale probe)
    rejects: int = 0         # result too large / not shareable
    injected_evictions: int = 0  # fault-plane forced evictions

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        snapshot = {f.name: getattr(self, f.name)
                    for f in fields(ResultCacheStats)}
        snapshot["hit_rate"] = self.hit_rate
        return snapshot


@dataclass
class ResultEntry:
    """One materialized result: the exact wire chunks a live run sent.

    Storing the *encoded* chunks (not rows) with the column metas they were
    encoded under means a hit hands the wire byte-identical chunks with no
    decode and no re-encode — the client cannot tell a hit from a backend
    run — and sizing is exact instead of estimated.
    """

    metas: tuple                      # wire ColumnMeta per column
    chunks: tuple[bytes, ...]         # encoded wire chunks, in order
    rowcount: int
    notes: tuple[tuple[str, str], ...]  # tracker bits to replay on a hit
    deps: tuple[str, ...]             # dependency tables (upper-cased)
    vector: tuple                     # shadow version vector over ``deps``
    target_sql: str = ""              # what a backend run would have sent
    size: int = 0

    def __post_init__(self):
        if not self.size:
            self.size = sum(len(chunk) for chunk in self.chunks) \
                + 16 * len(self.metas) + 32 * len(self.notes) \
                + sum(16 + len(name) for name in self.deps) + 256


class ResultCache:
    """Thread-safe result memo over a :class:`~repro.core.cache.DependencyLRU`.

    Keys are ``(source, profile, fingerprint_text, literal_values,
    params_key)`` — the dependency *versions* live in the entry and are
    checked on every lookup, so a key never needs to embed them.
    ``tenant_shares`` (``{tenant: fraction}``) reserves byte shares the
    store's eviction will not push a tenant below on another's behalf.
    """

    def __init__(self, max_bytes: int,
                 max_entry_bytes: Optional[int] = None,
                 faults=None,
                 tenant_shares: Optional[dict] = None):
        if max_bytes <= 0:
            raise ValueError("ResultCache needs a positive byte cap; "
                             "leave result_cache_bytes=0 to disable")
        self.max_bytes = max_bytes
        #: Largest single result worth storing (default: an eighth of the
        #: cache, so churn from one big scan cannot evict everything).
        self.max_entry_bytes = (max_entry_bytes if max_entry_bytes
                                else max(1, max_bytes // 8))
        self._faults = faults
        self._lock = threading.Lock()
        self._store = DependencyLRU(max_bytes, tenant_shares)
        self._stats = ResultCacheStats()

    # -- lookup / insert --------------------------------------------------------------

    def lookup(self, key: tuple, current_vector) -> Optional[ResultEntry]:
        """Return the entry iff its dependency vector is still current.

        *current_vector* is ``ShadowCatalog.version_vector`` (or any
        callable mapping a name set to a comparable vector).  A vector
        mismatch drops the entry — it can never become valid again because
        epochs are monotonic.
        """
        fault = (self._faults.draw("result_cache", op="lookup")
                 if self._faults is not None else None)
        with self._lock:
            entry = self._store.get(key)
            if entry is not None and (
                    (fault is not None and fault.kind == RESULT_CACHE_STALE)
                    or current_vector(entry.deps) != entry.vector):
                self._store.discard(key)
                self._stats.stale_drops += 1
                entry = None
            if entry is None:
                self._stats.misses += 1
                return None
            self._stats.hits += 1
        return entry

    def insert(self, key: tuple, entry: ResultEntry,
               tenant: Optional[str] = None) -> bool:
        """Store *entry*, its bytes attributed to *tenant*; returns False
        (and counts a reject) when it does not fit under the per-entry cap.
        """
        if entry.size > self.max_entry_bytes:
            with self._lock:
                self._stats.rejects += 1
            return False
        fault = (self._faults.draw("result_cache", op="insert")
                 if self._faults is not None else None)
        with self._lock:
            self._stats.inserts += 1
            self._stats.evictions += self._store.put(key, entry, tenant)
            if fault is not None and fault.kind == RESULT_CACHE_EVICT \
                    and self._store.discard(key):
                self._stats.injected_evictions += 1
        return True

    def invalidate_tables(self, names) -> int:
        """Drop entries whose dependency set intersects *names*."""
        with self._lock:
            dropped = self._store.invalidate(names)
            self._stats.invalidations += dropped
            return dropped

    def note_reject(self) -> None:
        """Count a result that was not storable (non-shareable statement,
        oversized materialization aborted mid-stream)."""
        with self._lock:
            self._stats.rejects += 1

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> ResultCacheStats:
        with self._lock:
            return ResultCacheStats(
                **{f.name: getattr(self._stats, f.name)
                   for f in fields(ResultCacheStats)})

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._store.used_bytes

    def tenant_bytes(self) -> dict[str, int]:
        """Bytes currently resident per tenant (insert-attributed)."""
        with self._lock:
            return self._store.tenant_bytes()

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
