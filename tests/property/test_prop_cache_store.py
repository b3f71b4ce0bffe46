"""Stateful model of :class:`repro.core.cache.DependencyLRU`.

The one store under the translation cache, the result cache and the
gateway's cache service is driven through random ``put`` / ``get`` /
``invalidate`` / ``drop_where`` sequences, built with random tenant shares,
against a reference written independently of it: a plain list in LRU order
whose eviction re-sums bytes on every step and whose invalidation rescans
every entry. After every step both hold the same keys in the same order,
``used_bytes`` is the exact sum and never over the cap, and per-tenant
bytes are exact. Every ``put`` is also checked against the share rule
directly from what the store evicted: an entry of tenant Y goes on
another tenant's behalf while Y is at or below its reserve only when no
unprotected candidate was left.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core.cache import DependencyLRU

TENANTS = ("a", "b")
KEYS = tuple(("k", index) for index in range(6))
DEP_NAMES = ("A", "B", "C", "*")


@dataclass(frozen=True)
class Item:
    size: int
    deps: tuple
    tag: int


class Reference:
    """The specification: ``rows`` is ``[(key, item, tenant)]``, least
    recently used first."""

    def __init__(self, cap: int, shares: dict):
        self.cap = cap
        self.reserve = {tenant: int(share * cap)
                        for tenant, share in shares.items()}
        self.rows: list = []

    def held(self, tenant) -> int:
        return sum(item.size for _, item, owner in self.rows
                   if owner == tenant)

    def total(self) -> int:
        return sum(item.size for _, item, _ in self.rows)

    def remove(self, keys) -> None:
        self.rows = [row for row in self.rows if row[0] not in keys]

    def put(self, key, item, tenant) -> int:
        self.remove({key})
        self.rows.append((key, item, tenant))
        evicted = 0
        while self.total() > self.cap:
            def protected(row):
                owner = row[2]
                return owner is not None and owner != tenant \
                    and self.held(owner) <= self.reserve.get(owner, 0)
            victim = next((row for row in self.rows if not protected(row)),
                          self.rows[0])
            self.remove({victim[0]})
            evicted += 1
        return evicted

    def get(self, key):
        for index, row in enumerate(self.rows):
            if row[0] == key:
                self.rows.append(self.rows.pop(index))
                return row[1]
        return None

    def invalidate(self, names) -> set:
        touched = {name.upper() for name in names}
        if "*" in touched:
            stale = {row[0] for row in self.rows}
        else:
            stale = {key for key, item, _ in self.rows
                     if set(item.deps) & (touched | {"*"})}
        self.remove(stale)
        return stale


#: Caps, shares and sizes on one grid, so a tenant sitting exactly at its
#: reserve (the boundary of the share rule) is a common state.
share_maps = st.fixed_dictionaries(
    {tenant: st.sampled_from((0.25, 0.5)) for tenant in TENANTS})


class StoreMachine(RuleBasedStateMachine):
    @initialize(cap=st.sampled_from((24, 48)), shares=share_maps)
    def build(self, cap, shares):
        self.store = DependencyLRU(cap, tenant_shares=shares)
        self.ref = Reference(cap, shares)

    @rule(key=st.sampled_from(KEYS),
          deps=st.lists(st.sampled_from(DEP_NAMES), max_size=3, unique=True),
          size=st.sampled_from((1, 3, 6, 12, 30)),
          tenant=st.sampled_from((None,) + TENANTS),
          tag=st.integers(0, 3))
    def put(self, key, deps, size, tenant, tag):
        before = [row for row in self.ref.rows if row[0] != key]
        item = Item(size, tuple(deps), tag)
        evictions = self.store.put(key, item, tenant)
        assert evictions == self.ref.put(key, item, tenant)
        self.check_share_rule(before + [(key, item, tenant)], tenant)

    def check_share_rule(self, order, inserting) -> None:
        """Judge the store's evictions from the outside. A tenant's victims
        leave in LRU order, so the bytes it held when each one went are
        what survives plus that victim plus its later-evicted entries."""
        after = set(self.store)
        survivors = [row for row in order if row[0] in after]
        evicted = [row for row in order if row[0] not in after]
        for owner in {row[2] for row in evicted} - {None, inserting}:
            held = sum(item.size for _, item, tenant in survivors
                       if tenant == owner)
            sizes = [item.size for _, item, tenant in evicted
                     if tenant == owner]
            for index in range(len(sizes)):
                if held + sum(sizes[index:]) <= self.ref.reserve.get(owner, 0):
                    # A protected victim: legal only once every candidate
                    # was protected, i.e. nothing of the inserting tenant
                    # (or unowned) can have survived.
                    assert all(tenant not in (None, inserting)
                               for _, _, tenant in survivors)

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        assert self.store.get(key) is self.ref.get(key)

    @rule(names=st.lists(st.sampled_from(DEP_NAMES + ("b", "D")),
                         min_size=1, max_size=3))
    def invalidate(self, names):
        before = set(self.store)
        dropped = self.store.invalidate(names)
        stale = self.ref.invalidate(names)
        assert dropped == len(stale)
        assert before - set(self.store) == stale

    @rule(tags=st.sets(st.integers(0, 3), max_size=2))
    def drop_where(self, tags):
        dropped = self.store.drop_where(lambda item: item.tag in tags)
        stale = {key for key, item, _ in self.ref.rows if item.tag in tags}
        self.ref.remove(stale)
        assert dropped == len(stale)

    @invariant()
    def same_state(self):
        assert list(self.store) == [row[0] for row in self.ref.rows]
        assert len(self.store) == len(self.ref.rows)
        assert self.store.used_bytes == self.ref.total() <= self.ref.cap
        held = {tenant: self.ref.held(tenant) for tenant in TENANTS}
        assert self.store.tenant_bytes() == {
            tenant: size for tenant, size in held.items() if size}


StoreMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, derandomize=True,
    deadline=None)
TestDependencyLRUModel = StoreMachine.TestCase
