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
2. **Eager invalidation index.**  The same inverted table→entries index
   the translation cache uses drops affected entries the moment DDL/DML
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
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Optional

from repro.core.deps import WILDCARD
from repro.core.faults import RESULT_CACHE_EVICT, RESULT_CACHE_STALE

#: Upper bound on the per-key miss-count table driving cost admission, so
#: an adversarial stream of unique fingerprints cannot grow it unbounded.
_MISS_TABLE_CAP = 4096


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
    expired: int = 0         # TTL lapsed between insert and lookup
    admission_rejects: int = 0  # cost model said "not worth the bytes"

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
    #: Seconds the entry stays servable after insert; 0 inherits the
    #: cache-wide default (which itself defaults to "never expires").
    ttl: float = 0.0
    created_at: float = 0.0           # stamped by :meth:`ResultCache.insert`

    def __post_init__(self):
        if not self.size:
            self.size = sum(len(chunk) for chunk in self.chunks) \
                + 16 * len(self.metas) + 32 * len(self.notes) \
                + sum(16 + len(name) for name in self.deps) + 256


class ResultCache:
    """Thread-safe byte-capped LRU over :class:`ResultEntry`.

    Keys are ``(source, profile, fingerprint_text, literal_values,
    params_key)`` — the dependency *versions* live in the entry and are
    checked on every lookup, so a key never needs to embed them.

    Three optional layers on top of plain LRU, all off by default:

    * ``default_ttl`` — entries older than their TTL are dropped at lookup
      (wall clock injectable for tests; 0 = never expire).
    * ``admission_ms_per_mb`` — cost-based admission: an entry is stored
      only when ``backend_ms × expected_repeats`` (per-key miss count) is
      at least ``size_mb × admission_ms_per_mb``, so cheap-but-huge
      results cannot wash out small expensive ones (0 = admit all).
    * ``tenant_shares`` — ``{tenant: fraction}`` reserved byte shares.
      Per-tenant usage is tracked exactly, and eviction never pushes a
      tenant below its reserved share on another tenant's behalf.
    """

    def __init__(self, max_bytes: int,
                 max_entry_bytes: Optional[int] = None,
                 faults=None,
                 tenant_shares: Optional[dict] = None,
                 default_ttl: float = 0.0,
                 admission_ms_per_mb: float = 0.0,
                 clock=time.monotonic):
        if max_bytes <= 0:
            raise ValueError("ResultCache needs a positive byte cap; "
                             "leave result_cache_bytes=0 to disable")
        if default_ttl < 0 or admission_ms_per_mb < 0:
            raise ValueError("default_ttl and admission_ms_per_mb must be "
                             "non-negative")
        self.max_bytes = max_bytes
        #: Largest single result worth storing (default: an eighth of the
        #: cache, so churn from one big scan cannot evict everything).
        self.max_entry_bytes = (max_entry_bytes if max_entry_bytes
                                else max(1, max_bytes // 8))
        self.default_ttl = default_ttl
        self.admission_ms_per_mb = admission_ms_per_mb
        self._clock = clock
        self._faults = faults
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, ResultEntry]" = OrderedDict()
        self._dep_index: dict[str, set] = {}
        self._bytes = 0
        self._stats = ResultCacheStats()
        shares = dict(tenant_shares) if tenant_shares else {}
        if sum(shares.values()) > 1.0 + 1e-9:
            raise ValueError("tenant result-cache shares sum to more than "
                             "the whole cache")
        #: Reserved floor in bytes per tenant (eviction protection).
        self._reserved = {tenant: int(share * max_bytes)
                          for tenant, share in shares.items()}
        self._owner: dict[tuple, Optional[str]] = {}
        self._tenant_bytes: dict[str, int] = {}
        self._miss_counts: "OrderedDict[tuple, int]" = OrderedDict()

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
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                self._note_miss(key)
                return None
            ttl = entry.ttl or self.default_ttl
            if ttl and self._clock() - entry.created_at > ttl:
                self._drop(key, entry)
                self._stats.expired += 1
                self._stats.misses += 1
                self._note_miss(key)
                return None
            stale_forced = fault is not None and fault.kind == RESULT_CACHE_STALE
            if stale_forced or current_vector(entry.deps) != entry.vector:
                self._drop(key, entry)
                self._stats.stale_drops += 1
                self._stats.misses += 1
                self._note_miss(key)
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
        return entry

    def insert(self, key: tuple, entry: ResultEntry,
               tenant: Optional[str] = None, backend_ms: float = 0.0) -> bool:
        """Store *entry*; returns False (and counts a reject) when it does
        not fit under the per-entry cap or fails cost admission.

        *tenant* attributes the bytes for share accounting; *backend_ms*
        is what the backend spent producing the result (the cost the cache
        would save on each future hit), feeding the admission model.
        """
        if entry.size > self.max_entry_bytes:
            with self._lock:
                self._stats.rejects += 1
            return False
        fault = (self._faults.draw("result_cache", op="insert")
                 if self._faults is not None else None)
        with self._lock:
            if not self._admit(key, entry, backend_ms):
                self._stats.admission_rejects += 1
                self._stats.rejects += 1
                return False
            entry.created_at = self._clock()
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._account(key, -previous.size)
                self._index_remove(key, previous)
            self._entries[key] = entry
            self._owner[key] = tenant
            self._account(key, entry.size)
            self._index_add(key, entry)
            self._stats.inserts += 1
            self._evict_over_budget(inserting=tenant)
            if fault is not None and fault.kind == RESULT_CACHE_EVICT \
                    and key in self._entries:
                self._drop(key, self._entries[key])
                self._stats.injected_evictions += 1
        return True

    # -- cost admission / tenant accounting (all under self._lock) ---------------------

    def _note_miss(self, key: tuple) -> None:
        """Bounded per-key miss counter — the admission model's estimate
        of how often a stored entry would actually be reused."""
        if self.admission_ms_per_mb <= 0:
            return
        self._miss_counts[key] = self._miss_counts.pop(key, 0) + 1
        while len(self._miss_counts) > _MISS_TABLE_CAP:
            self._miss_counts.popitem(last=False)

    def _admit(self, key: tuple, entry: ResultEntry,
               backend_ms: float) -> bool:
        """``backend_ms × expected_repeats ≥ size_mb × threshold``: storing
        is worth it when the backend time the cache stands to save scales
        with the bytes the entry will occupy."""
        if self.admission_ms_per_mb <= 0:
            return True
        expected_repeats = self._miss_counts.get(key, 1)
        threshold = (entry.size / (1024 * 1024)) * self.admission_ms_per_mb
        return backend_ms * expected_repeats >= threshold

    def _account(self, key: tuple, delta: int) -> None:
        self._bytes += delta
        tenant = self._owner.get(key)
        if tenant is None:
            return
        total = self._tenant_bytes.get(tenant, 0) + delta
        if total > 0:
            self._tenant_bytes[tenant] = total
        else:
            self._tenant_bytes.pop(tenant, None)

    def _evictable(self, key: tuple, inserting: Optional[str]) -> bool:
        """May *key* be evicted on behalf of tenant *inserting*?  A tenant
        may always shed its own entries; another tenant's entries are fair
        game only while that tenant sits above its reserved share."""
        owner = self._owner.get(key)
        if owner is None or owner == inserting:
            return True
        return self._tenant_bytes.get(owner, 0) > self._reserved.get(owner, 0)

    def _evict_over_budget(self, inserting: Optional[str]) -> None:
        while self._bytes > self.max_bytes and self._entries:
            victim = next((k for k in self._entries
                           if self._evictable(k, inserting)), None)
            if victim is None:
                # Every other tenant is at or below its floor: progress
                # beats protection, evict the global LRU head.
                victim = next(iter(self._entries))
            self._drop(victim, self._entries[victim])
            self._stats.evictions += 1

    # -- invalidation -----------------------------------------------------------------

    def invalidate_tables(self, names) -> int:
        """Drop entries whose dependency set intersects *names*."""
        touched = {name.upper() for name in names}
        with self._lock:
            if WILDCARD in touched:
                stale = set(self._entries)
            else:
                stale = set()
                for name in touched | {WILDCARD}:
                    stale |= self._dep_index.get(name, set())
            for key in stale:
                self._drop(key, self._entries[key])
            self._stats.invalidations += len(stale)
            return len(stale)

    def _drop(self, key: tuple, entry: ResultEntry) -> None:
        del self._entries[key]
        self._account(key, -entry.size)
        self._owner.pop(key, None)
        self._index_remove(key, entry)

    def _index_add(self, key: tuple, entry: ResultEntry) -> None:
        for name in entry.deps:
            self._dep_index.setdefault(name, set()).add(key)

    def _index_remove(self, key: tuple, entry: ResultEntry) -> None:
        for name in entry.deps:
            keys = self._dep_index.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._dep_index[name]

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
            return len(self._entries)

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def tenant_bytes(self) -> dict[str, int]:
        """Bytes currently resident per tenant (insert-attributed)."""
        with self._lock:
            return dict(self._tenant_bytes)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._dep_index.clear()
            self._owner.clear()
            self._tenant_bytes.clear()
            self._miss_counts.clear()
            self._bytes = 0
