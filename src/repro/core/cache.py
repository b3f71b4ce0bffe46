"""The translation cache: memoized parse→bind→transform→serialize results.

Table 1's workloads repeat heavily (39,731 total vs 3,778 distinct queries
for the Health customer), and the paper's Figure 9 overhead claim rests on
translation staying a sliver of end-to-end time even under concurrency. This
module removes repeated translation work entirely:

* :func:`fingerprint` canonicalizes a source request into a whitespace-,
  case- and comment-insensitive token stream with literals lifted into
  synthetic slots, so ``SEL * FROM T WHERE ID = 7`` and ``... ID = 42``
  share one cache entry.
* :class:`DependencyLRU` is the byte-capped, tenant-aware LRU with a
  table→keys dependency index that this cache, the result cache and the
  gateway's cache service all store into.
* :class:`TranslationCache` is a thread-safe policy over that store, keyed
  by ``(source, target-capability-profile, fingerprint,
  session-overlay-version)`` and storing the serialized target SQL (as a
  literal-slot template when safe, exact text otherwise) plus the tracker
  feature bits observed during translation.

Safety comes from *sentinel probing*: before a parameterized template is
trusted, the statement is re-translated with unique sentinel literals and the
template is accepted only if every sentinel survives translation verbatim.
Value-dependent rewrites (ordinal GROUP BY, date/int comparison folding,
interval arithmetic) destroy their sentinel and demote the entry to
exact-match caching, which is always correct.

Invalidation is *semantic*: every entry carries the dependency set the
extractor (``core/deps.py``) computed for its statement — base tables
through view closures, plus the ``"*"`` wildcard when the closure is
unknown — and an inverted table→entries index drops exactly the entries
whose dependencies intersect a catalog change.  DDL on table A leaves
entries that touch only table B in place (previously any DDL flushed the
whole cache).  Volatile-table changes still bump the per-session overlay
version that is part of the key, and overlay entries are eagerly
invalidated so the memory is reclaimed and counted.
"""

from __future__ import annotations

import datetime
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional

from repro.core.deps import WILDCARD
from repro.sqlkit.tokens import Token, TokenKind

# -- literal slot kinds -----------------------------------------------------------

KIND_INT = "i"        # integer literal
KIND_FLOAT = "f"      # float/decimal literal (never templated: formatting)
KIND_STRING = "s"     # plain string literal
KIND_DATE = "d"       # string literal following the DATE keyword
KIND_OTHER = "o"      # TIME/TIMESTAMP/INTERVAL literal (never templated)

#: Slot kinds eligible for sentinel probing and template substitution.
TEMPLATABLE_KINDS = frozenset({KIND_INT, KIND_STRING, KIND_DATE})

#: Keywords that type the string literal that follows them.
_TYPED_LITERAL_KEYWORDS = {
    "DATE": KIND_DATE,
    "TIME": KIND_OTHER,
    "TIMESTAMP": KIND_OTHER,
    "INTERVAL": KIND_OTHER,
}


@dataclass(frozen=True)
class LiteralSlot:
    """One lifted literal: its kind and source value."""

    kind: str
    value: object


class Fingerprint:
    """Canonical form of one source request.

    ``text`` is the case/whitespace/comment-insensitive token stream with
    literal tokens replaced by kind-tagged placeholders; ``slots`` carries
    the lifted literal values in source order. ``tokens`` keeps the raw
    token list around for sentinel-probe reconstruction (transient — never
    stored in the cache).
    """

    __slots__ = ("text", "slots", "tokens")

    def __init__(self, text: str, slots: tuple[LiteralSlot, ...],
                 tokens: list[Token]):
        self.text = text
        self.slots = slots
        self.tokens = tokens

    def values_key(self) -> tuple:
        """Hashable projection of all lifted literal values."""
        return tuple((slot.kind, slot.value) for slot in self.slots)


def fingerprint(sql: str, lexer) -> Fingerprint:
    """Canonicalize *sql* using *lexer* (the session frontend's own lexer).

    Raises whatever the lexer raises on malformed input; callers treat that
    as a cache bypass and let the real parser produce the error.
    """
    tokens = lexer.tokenize(sql)
    parts: list[str] = []
    slots: list[LiteralSlot] = []
    previous_keyword: Optional[str] = None
    for token in tokens:
        if token.kind is TokenKind.EOF:
            break
        if token.kind is TokenKind.NUMBER:
            kind = KIND_INT if isinstance(token.value, int) else KIND_FLOAT
            parts.append("\x00" + kind)
            slots.append(LiteralSlot(kind, token.value))
        elif token.kind is TokenKind.STRING:
            kind = _TYPED_LITERAL_KEYWORDS.get(previous_keyword or "", KIND_STRING)
            parts.append("\x00" + kind)
            slots.append(LiteralSlot(kind, token.value))
        elif token.kind is TokenKind.QUOTED_IDENT:
            # Quoted identifiers keep their exact case (they are case-
            # sensitive in SQL); quote them so "x" and bare X never collide.
            parts.append('"' + str(token.value) + '"')
        elif token.kind is TokenKind.PARAM:
            parts.append("?" if token.value == "?" else ":" + str(token.value))
        else:
            # Keywords/identifiers are already upper-cased by the lexer;
            # operators are normalized (e.g. ^= -> <>).
            parts.append(str(token.value))
        previous_keyword = (str(token.value)
                            if token.kind is TokenKind.KEYWORD else None)
    return Fingerprint(" ".join(parts), tuple(slots), tokens)


# -- sentinel probing ---------------------------------------------------------------

_INT_SENTINEL_BASE = 987_650_001
_STR_SENTINEL_BASE = 7_650_001


def _sentinel_for(slot_index: int, kind: str) -> tuple[str, str]:
    """(source spelling, expected target spelling) for one probed slot."""
    if kind == KIND_INT:
        digits = str(_INT_SENTINEL_BASE + slot_index)
        return digits, digits
    if kind == KIND_STRING:
        # Digit-only payload framed by control chars: survives UPPER()
        # compensation and cannot collide with real identifiers or numbers.
        inner = f"\x02{_STR_SENTINEL_BASE + slot_index}\x02"
        return "'" + inner + "'", "'" + inner + "'"
    if kind == KIND_DATE:
        inner = f"{3900 + slot_index // 28:04d}-12-{1 + slot_index % 28:02d}"
        return "'" + inner + "'", "'" + inner + "'"
    raise ValueError(f"slot kind {kind!r} is not templatable")


def build_probe_sql(fp: Fingerprint) -> Optional[tuple[str, list[str]]]:
    """Rebuild the source text with every literal replaced by a sentinel.

    Returns ``(probe_sql, expected target spellings per slot)`` or ``None``
    when any slot kind cannot be probed (floats, interval/timestamp
    literals) — those statements fall back to exact-match caching.
    """
    if any(slot.kind not in TEMPLATABLE_KINDS for slot in fp.slots):
        return None
    out: list[str] = []
    expected: list[str] = []
    slot_index = 0
    for token in fp.tokens:
        if token.kind is TokenKind.EOF:
            break
        if token.kind in (TokenKind.NUMBER, TokenKind.STRING):
            source, target = _sentinel_for(slot_index, fp.slots[slot_index].kind)
            out.append(source)
            expected.append(target)
            slot_index += 1
        else:
            out.append(token.text)
    return " ".join(out), expected


@dataclass(frozen=True)
class Template:
    """Target SQL split at literal substitution sites.

    ``segments`` has one more element than ``slot_refs``; rendering
    interleaves ``segments[k] + literal(slot_refs[k])``. A slot may be
    referenced more than once (named-expression aliasing duplicates
    literals), and every referenced occurrence was verified by the probe.
    """

    segments: tuple[str, ...]
    slot_refs: tuple[int, ...]

    def render(self, slots: tuple[LiteralSlot, ...]) -> Optional[str]:
        out: list[str] = []
        for segment, ref in zip(self.segments, self.slot_refs):
            out.append(segment)
            rendered = _render_literal(slots[ref])
            if rendered is None:
                return None
            out.append(rendered)
        out.append(self.segments[-1])
        return "".join(out)

    def size(self) -> int:
        return sum(len(segment) for segment in self.segments) \
            + 8 * len(self.slot_refs)


def _render_literal(slot: LiteralSlot) -> Optional[str]:
    """Render a literal exactly as the serializer would."""
    if slot.kind == KIND_INT:
        return str(slot.value)
    if slot.kind == KIND_STRING:
        return "'" + str(slot.value).replace("'", "''") + "'"
    if slot.kind == KIND_DATE:
        # A hit bypasses the binder's date validation; splice only strings
        # the serializer itself would have produced for a parsed DATE.
        try:
            parsed = datetime.date.fromisoformat(str(slot.value))
        except ValueError:
            return None
        return "'" + parsed.isoformat() + "'"
    return None


def _is_number_boundary(char: str) -> bool:
    return not (char.isalnum() or char in "_.")


def build_template(target_sql: str,
                   expected: list[str]) -> Optional[Template]:
    """Split probe-translated *target_sql* at the sentinel sites.

    Every sentinel must appear at least once, delimited (for numbers) so a
    digit run inside a larger constant never matches, and occurrences must
    not overlap. Any anomaly — a sentinel consumed by a value-dependent
    rewrite, folded into another constant, or duplicated ambiguously —
    rejects the template.
    """
    sites: list[tuple[int, int, int]] = []
    for slot_index, pattern in enumerate(expected):
        found = 0
        start = 0
        while True:
            position = target_sql.find(pattern, start)
            if position < 0:
                break
            end = position + len(pattern)
            if pattern[0] != "'":
                before = target_sql[position - 1] if position else " "
                after = target_sql[end] if end < len(target_sql) else " "
                if not (_is_number_boundary(before)
                        and _is_number_boundary(after)):
                    start = position + 1
                    continue
            sites.append((position, end, slot_index))
            found += 1
            start = end
        if found == 0:
            return None
    sites.sort()
    segments: list[str] = []
    slot_refs: list[int] = []
    cursor = 0
    for position, end, slot_index in sites:
        if position < cursor:
            return None
        segments.append(target_sql[cursor:position])
        slot_refs.append(slot_index)
        cursor = end
    segments.append(target_sql[cursor:])
    return Template(tuple(segments), tuple(slot_refs))


# -- the shared tier interface -------------------------------------------------------


class CacheTier:
    """Interface of a shared L2 translation-cache tier.

    The gateway implements this over a cache-service process (one per
    fleet); tests implement it in memory. Keys are the exact tuples the L1
    uses — ``key_base + ("T",)`` for templates, ``key_base + ("E", values,
    params)`` for pinned entries — so tier and L1 agree byte-for-byte on
    what an entry means. Every method may raise (the service can be down);
    the L1 treats any tier error as a miss.
    """

    def get(self, key: tuple) -> Optional["CacheEntry"]:
        raise NotImplementedError

    def put(self, key: tuple, entry: "CacheEntry") -> None:
        raise NotImplementedError

    def invalidate_tables(self, names: tuple) -> None:
        """Drop entries whose dependency set intersects *names*."""
        raise NotImplementedError


# -- the store under every cache ----------------------------------------------------


class DependencyLRU:
    """Byte-capped LRU with per-tenant reserved shares and a dependency index.

    The one store under the translation cache, the result cache and the
    gateway's cache service. Values expose ``size`` (bytes) and ``deps``
    (upper-cased table names, ``"*"`` when the closure is unknown). Not
    thread-safe: each owner calls it under its own lock.

    Eviction walks from the LRU head and skips another tenant's entries
    while that tenant sits at or below its reserved share; the inserting
    tenant may always shed its own entries, and when every candidate is
    protected the global LRU head goes anyway (progress beats protection).
    """

    def __init__(self, max_bytes: int, tenant_shares: Optional[dict] = None):
        shares = dict(tenant_shares) if tenant_shares else {}
        if sum(shares.values()) > 1.0 + 1e-9:
            raise ValueError("tenant cache shares sum to more than the "
                             "whole cache")
        self.max_bytes = max_bytes
        self._reserved = {tenant: int(share * max_bytes)
                          for tenant, share in shares.items()}
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._owner: dict[tuple, Optional[str]] = {}
        self._tenant_bytes: dict[str, int] = {}
        # Inverted dependency index: table name (or "*") -> keys.
        self._dep_index: dict[str, set] = {}
        self._bytes = 0

    def peek(self, key: tuple):
        """The value under *key* (or None) without touching LRU order."""
        return self._entries.get(key)

    def touch(self, key: tuple) -> None:
        self._entries.move_to_end(key)

    def get(self, key: tuple):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: tuple, value, tenant: Optional[str] = None) -> int:
        """Insert or replace *key* as most recent, attributing its bytes to
        *tenant*, then evict over the cap; returns the eviction count."""
        self.discard(key)
        self._entries[key] = value
        self._owner[key] = tenant
        self._charge(tenant, value.size)
        for name in value.deps:
            self._dep_index.setdefault(name, set()).add(key)
        evicted = 0
        while self._bytes > self.max_bytes and self._entries:
            victim = next((k for k in self._entries
                           if self._evictable(k, tenant)), None)
            self.discard(victim if victim is not None
                         else next(iter(self._entries)))
            evicted += 1
        return evicted

    def _evictable(self, key: tuple, inserting: Optional[str]) -> bool:
        owner = self._owner[key]
        if owner is None or owner == inserting:
            return True
        return self._tenant_bytes.get(owner, 0) > self._reserved.get(owner, 0)

    def _charge(self, tenant: Optional[str], delta: int) -> None:
        self._bytes += delta
        if tenant is not None:
            total = self._tenant_bytes.get(tenant, 0) + delta
            if total > 0:
                self._tenant_bytes[tenant] = total
            else:
                self._tenant_bytes.pop(tenant, None)

    def discard(self, key: tuple) -> bool:
        """Drop *key* if present; True when something was dropped."""
        value = self._entries.pop(key, None)
        if value is None:
            return False
        self._charge(self._owner.pop(key), -value.size)
        for name in value.deps:
            keys = self._dep_index.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._dep_index[name]
        return True

    def invalidate(self, names) -> int:
        """Drop every entry whose deps intersect *names* (case-insensitive)
        or carry the wildcard; ``"*"`` in *names* drops everything."""
        touched = {name.upper() for name in names}
        if WILDCARD in touched:
            stale = list(self._entries)
        else:
            stale = set()
            for name in touched | {WILDCARD}:
                stale.update(self._dep_index.get(name, ()))
        for key in stale:
            self.discard(key)
        return len(stale)

    def drop_where(self, predicate: Callable[[object], bool]) -> int:
        stale = [key for key, value in self._entries.items()
                 if predicate(value)]
        for key in stale:
            self.discard(key)
        return len(stale)

    def __iter__(self):
        """Keys in LRU order, least recent first."""
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def tenant_bytes(self) -> dict[str, int]:
        """Bytes currently resident per tenant (insert-attributed)."""
        return dict(self._tenant_bytes)

    def clear(self) -> None:
        self._entries.clear()
        self._owner.clear()
        self._tenant_bytes.clear()
        self._dep_index.clear()
        self._bytes = 0


# -- the cache ----------------------------------------------------------------------


class CacheHit(NamedTuple):
    """What :meth:`TranslationCache.lookup` returns on a hit.

    ``deps``/``result_shareable`` echo the entry's dependency facts so the
    execute path can feed the result cache without re-binding.
    """

    target_sql: str
    notes: tuple
    deps: tuple = (WILDCARD,)
    result_shareable: bool = False
    #: Base tables the statement writes: a hit skips binding, so the
    #: execute path bumps their data epochs from here.
    write_tables: tuple = ()


@dataclass
class CacheStats:
    """Monotonic counters; snapshot with :meth:`TranslationCache.stats`.

    ``tier_hits`` / ``tier_misses`` count shared-tier (L2) consultations on
    L1 misses when a cache tier is attached (the gateway's cache service); a
    tier hit also counts as a plain ``hit`` — the request skipped
    translation either way.
    """

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0
    bypasses: int = 0
    tier_hits: int = 0
    tier_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits, "misses": self.misses,
            "inserts": self.inserts, "evictions": self.evictions,
            "invalidations": self.invalidations, "bypasses": self.bypasses,
            "tier_hits": self.tier_hits, "tier_misses": self.tier_misses,
            "hit_rate": self.hit_rate,
        }


@dataclass
class CacheEntry:
    """One memoized translation.

    ``deps`` is the statement's base-table dependency set (upper-cased,
    sorted; may contain the ``"*"`` wildcard when the closure is unknown).
    The cache indexes entries by it for precise invalidation.
    """

    template: Optional[Template]      # parameterized form, or
    sql: Optional[str]                # exact target SQL (pinned literals)
    notes: tuple[tuple[str, str], ...]  # tracker (feature, stage) bits
    deps: tuple[str, ...] = (WILDCARD,)
    overlay_uid: Optional[int] = None
    #: True when the statement's *result* may also be cached (read-only,
    #: deterministic, no volatile tables) — carried here so a translation
    #: hit still knows whether to rematerialize into the result cache.
    result_shareable: bool = False
    #: Base tables a DML statement writes (``"*"`` when unknown); empty for
    #: queries. Travels with the entry through the shared tier.
    write_tables: tuple[str, ...] = ()
    size: int = 0

    def __post_init__(self):
        base = self.template.size() if self.template is not None \
            else len(self.sql or "")
        self.size = base + 32 * len(self.notes) + 128 + sum(
            16 + len(name) for name in self.deps + self.write_tables)

    def hit(self, target_sql: str) -> CacheHit:
        return CacheHit(target_sql, self.notes, self.deps,
                        self.result_shareable, self.write_tables)


class TranslationCache:
    """Thread-safe translation memo over a :class:`DependencyLRU`.

    Shared by every session of an engine (and, through the protocol server,
    every concurrent connection). All mutation happens under one lock; the
    expensive work — fingerprinting and sentinel probing — happens outside.
    ``tenant_shares`` maps tenant name -> fraction of the cap below which
    other tenants' inserts may not evict that tenant's entries.
    """

    #: Entry count cap for the exact-text fingerprint memo.
    FP_MEMO_ENTRIES = 4096

    def __init__(self, max_bytes: int, tier: Optional["CacheTier"] = None,
                 tenant_shares: Optional[dict] = None):
        if max_bytes <= 0:
            raise ValueError("TranslationCache needs a positive byte cap; "
                             "use cache_size=0 on the engine to disable")
        self._lock = threading.Lock()
        self._store = DependencyLRU(max_bytes, tenant_shares)
        self._stats = CacheStats()
        #: Optional shared L2 (:class:`CacheTier`): consulted outside the
        #: lock on L1 misses, written through on inserts. Only entries with
        #: no session overlay in the key are shared — overlay uids are
        #: process-local and must never collide across gateway workers.
        self.tier = tier
        # Exact-text -> Fingerprint memo: repeated request texts (the
        # dominant pattern per Table 1) skip the lexer entirely on the hot
        # path. Purely lexical, so it never needs invalidation.
        self._fp_memo: "OrderedDict[str, Fingerprint]" = OrderedDict()

    def fingerprint_cached(self, sql: str, lexer) -> Fingerprint:
        """Fingerprint *sql*, memoizing by exact text."""
        with self._lock:
            memoized = self._fp_memo.get(sql)
            if memoized is not None:
                self._fp_memo.move_to_end(sql)
                return memoized
        fp = fingerprint(sql, lexer)
        with self._lock:
            self._fp_memo[sql] = fp
            while len(self._fp_memo) > self.FP_MEMO_ENTRIES:
                self._fp_memo.popitem(last=False)
        return fp

    # -- key composition ------------------------------------------------------------

    @staticmethod
    def key_base(source: str, profile_name: str, fp_text: str,
                 overlay_key) -> tuple:
        return (source, profile_name, fp_text, overlay_key)

    # -- lookup / insert ------------------------------------------------------------

    def lookup(self, key_base: tuple, fp: Fingerprint,
               params_key: Optional[tuple]) -> Optional[CacheHit]:
        """Return a :class:`CacheHit` on a hit, ``None`` on a miss.

        The L1 probe runs under the lock; on an L1 miss with a shared tier
        attached (and no session overlay in the key), the tier is consulted
        *outside* the lock — a tier RPC must never serialize the fleet's
        hot path — and a tier entry is adopted into the L1 so the next
        lookup of the same statement is purely local. Any tier error
        (service down, protocol hiccup) degrades to a miss.
        """
        with self._lock:
            found = self._probe(self._store.peek, key_base, fp, params_key)
            if found is not None:
                self._store.touch(found[0])
                self._stats.hits += 1
                return found[1].hit(found[2])
        shareable = self.tier is not None and key_base[3] is None
        if shareable:
            try:
                found = self._probe(self.tier.get, key_base, fp, params_key)
            except Exception:
                found = None
            if found is not None:
                # Adopted, not inserted: no translation happened here.
                with self._lock:
                    self._stats.hits += 1
                    self._stats.tier_hits += 1
                    self._stats.evictions += self._store.put(found[0],
                                                             found[1])
                return found[1].hit(found[2])
        with self._lock:
            self._stats.misses += 1
            if shareable:
                self._stats.tier_misses += 1
            return None

    @staticmethod
    def _probe(get, key_base: tuple, fp: Fingerprint,
               params_key: Optional[tuple]):
        """The template key, then the exact key, through *get*:
        ``(key, entry, target_sql)`` of the entry a lookup serves, or None."""
        if params_key is None:
            key = key_base + ("T",)
            entry = get(key)
            if entry is not None and entry.template is not None:
                rendered = entry.template.render(fp.slots)
                if rendered is not None:
                    return key, entry, rendered
        key = key_base + ("E", fp.values_key(), params_key)
        entry = get(key)
        if entry is not None and entry.sql is not None:
            return key, entry, entry.sql
        return None

    def contains(self, key_base: tuple, fp: Fingerprint,
                 params_key: Optional[tuple]) -> bool:
        """Would :meth:`lookup` hit right now? Touches no stats, no LRU
        order — the workload classifier's cache-hit probe must not distort
        the hit rate or the eviction sequence."""
        with self._lock:
            return self._probe(self._store.peek, key_base, fp,
                               params_key) is not None

    def insert(self, key_base: tuple, fp: Fingerprint,
               params_key: Optional[tuple], target_sql: str,
               notes: tuple[tuple[str, str], ...],
               deps: tuple[str, ...] = (WILDCARD,),
               result_shareable: bool = False,
               probe: Optional[Callable[[str], str]] = None,
               tenant: Optional[str] = None,
               write_tables: tuple[str, ...] = ()) -> None:
        """Memoize one translation.

        *deps* is the statement's dependency set from the extractor; when a
        caller has none, the default wildcard keeps invalidation sound
        (the entry then drops on any catalog change).

        When *probe* is given, no explicit parameters were bound and every
        slot is templatable, a sentinel probe attempts a parameterized
        template; otherwise (or on any probe anomaly) the exact target SQL
        is pinned under the full literal-value key.
        """
        overlay_key = key_base[3]
        overlay_uid = overlay_key[0] if isinstance(overlay_key, tuple) else None
        # Empty deps is meaningful (a table-free statement like SELECT 1
        # depends on nothing); only the *default* is the wildcard.
        deps = tuple(sorted({name.upper() for name in deps}))
        template: Optional[Template] = None
        if probe is not None and params_key is None and fp.slots:
            built = build_probe_sql(fp)
            if built is not None:
                probe_sql, expected = built
                try:
                    probe_target = probe(probe_sql)
                except Exception:
                    probe_target = None
                if probe_target is not None:
                    template = build_template(probe_target, expected)
        if template is not None:
            key = key_base + ("T",)
            target_sql = None
        else:
            key = key_base + ("E", fp.values_key(), params_key)
        entry = CacheEntry(template=template, sql=target_sql, notes=notes,
                           deps=deps, overlay_uid=overlay_uid,
                           result_shareable=result_shareable,
                           write_tables=tuple(write_tables))
        with self._lock:
            self._stats.inserts += 1
            self._stats.evictions += self._store.put(key, entry, tenant)
        # Write through to the shared tier (outside the lock): a statement
        # one worker translated becomes a warm hit for the whole fleet.
        if self.tier is not None and key_base[3] is None:
            try:
                self.tier.put(key, entry)
            except Exception:
                pass

    def note_bypass(self) -> None:
        """Reclassify the preceding lookup miss as a bypass.

        Cacheability is only known after parsing, so non-cacheable requests
        (DDL, emulated statements) first register a miss; calling this keeps
        the hit rate an honest property of the cacheable population.
        """
        with self._lock:
            if self._stats.misses > 0:
                self._stats.misses -= 1
            self._stats.bypasses += 1

    # -- invalidation ----------------------------------------------------------------

    def invalidate_tables(self, names) -> int:
        """Drop entries whose dependency set intersects *names*.

        Invariant: after DDL on object X, no entry that depends on X (or
        carries the wildcard) survives — while entries on disjoint tables
        stay warm. With a shared tier attached the per-table drop is
        forwarded to it too, so DDL on one gateway worker reclaims exactly
        the fleet's affected entries and nothing else.
        """
        touched = tuple(sorted({name.upper() for name in names}))
        with self._lock:
            dropped = self._store.invalidate(touched)
            self._stats.invalidations += dropped
        if self.tier is not None:
            try:
                self.tier.invalidate_tables(touched)
            except Exception:
                pass
        return dropped

    def invalidate_overlay(self, session_uid: int) -> int:
        """Drop entries translated under *session_uid*'s volatile overlay.

        Called on every volatile-table create/drop: any translation that
        could have resolved a name through the session's previous overlay
        state is discarded.
        """
        with self._lock:
            dropped = self._store.drop_where(
                lambda entry: entry.overlay_uid == session_uid)
            self._stats.invalidations += dropped
            return dropped

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(**{f.name: getattr(self._stats, f.name)
                                 for f in fields(CacheStats)})

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
