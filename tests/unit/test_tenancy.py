"""Unit battery for the multi-tenant control plane (`repro.core.tenancy`).

Covers quota/config validation (typed errors naming the offending tenant
and field), LOGON-time resolution, admission (queue depth, token-bucket
QPS, concurrency slots), per-tenant cache partitioning with reserved-share
eviction, report merging across workers, and the ``tenancy`` fault site.
"""

from __future__ import annotations

import json

import pytest

from repro.core.cache import TranslationCache, fingerprint
from repro.core.faults import QUOTA_EXCEEDED, FaultSchedule, FaultSpec
from repro.core.result_cache import ResultCache, ResultEntry
from repro.protocol.encoding import CODE_INTEGER, ColumnMeta
from repro.frontend.teradata.lexer import make_lexer
from repro.core.tenancy import (DEFAULT_TENANT, TenancyConfig, TenantQuota,
                                TenantRegistry, histogram_quantile,
                                merge_reports, render_tenants, tenant_report)
from repro.errors import (HyperQError, TenancyConfigError, TenantQuotaError,
                          UnknownTenantError, WorkloadShedError)


class _Clock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _entry(payload: int = 100) -> ResultEntry:
    return ResultEntry(metas=(ColumnMeta("A", CODE_INTEGER),),
                       chunks=(b"x" * payload,), rowcount=1, notes=(),
                       deps=("T",), vector=(("T", 0, 0),))


def _vector(names):
    """A current_vector callable that always matches :func:`_entry`."""
    return tuple((name, 0, 0) for name in names)


class TestConfigValidation:
    def test_unknown_quota_key_names_tenant_and_field(self):
        with pytest.raises(TenancyConfigError, match="'a'.*wieght"):
            TenancyConfig.from_dict({"tenants": {"a": {"wieght": 2.0}}})

    def test_bad_json_is_a_config_error(self):
        with pytest.raises(TenancyConfigError, match="not valid JSON"):
            TenancyConfig.parse("{nope")

    def test_negative_rate_rejected(self):
        with pytest.raises(TenancyConfigError, match="rate"):
            TenantQuota(name="a", rate=-1.0)

    def test_share_sum_over_one_rejected(self):
        with pytest.raises(TenancyConfigError, match="share"):
            TenancyConfig.from_dict({"tenants": {
                "a": {"result_cache_share": 0.7},
                "b": {"result_cache_share": 0.6}}})

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(TenancyConfigError, match="twice"):
            TenancyConfig(tenants=(TenantQuota(name="a"),
                                   TenantQuota(name="a")))

    def test_default_tenant_auto_created(self):
        config = TenancyConfig.from_dict({"tenants": {"a": {}}})
        assert DEFAULT_TENANT in config.quotas()

    def test_typed_errors_are_hyperq_errors(self):
        assert issubclass(TenancyConfigError, HyperQError)
        assert issubclass(UnknownTenantError, HyperQError)
        # Wire servers reply FAILURE (session survives) on shed classes.
        assert issubclass(TenantQuotaError, WorkloadShedError)

    def test_per_worker_splits_bounded_quotas(self):
        config = TenancyConfig.from_dict({"tenants": {
            "a": {"max_concurrency": 4, "queue_depth": 8, "rate": 10.0,
                  "result_cache_share": 0.25}}})
        split = config.per_worker(2).quotas()["a"]
        assert split.max_concurrency == 2
        assert split.queue_depth == 4
        assert split.rate == pytest.approx(5.0)
        # Shares are fractions of each worker's own cache — pass through.
        assert split.result_cache_share == 0.25


class TestRegistry:
    def test_resolution_normalizes_and_defaults(self):
        registry = TenantRegistry(
            TenancyConfig.from_dict({"tenants": {"acme": {}}}))
        assert registry.resolve(None) == DEFAULT_TENANT
        assert registry.resolve("  ACME ") == "acme"
        with pytest.raises(UnknownTenantError, match="ghost"):
            registry.resolve("ghost")

    def test_queue_depth_quota_sheds_with_retry_after(self):
        registry = TenantRegistry(TenancyConfig.from_dict(
            {"tenants": {"a": {"queue_depth": 1}}}))
        registry.admit("a", "interactive", "SEL 1")
        registry.note_queued("a")
        with pytest.raises(TenantQuotaError, match="QUOTA_EXCEEDED.*retry"):
            registry.admit("a", "interactive", "SEL 2")
        snapshot = registry.snapshot()["a"]
        assert snapshot["shed"] == 1
        assert snapshot["quota_sheds"] == 1

    def test_rate_quota_sheds_when_bucket_empty(self):
        clock = _Clock()
        registry = TenantRegistry(TenancyConfig.from_dict(
            {"tenants": {"a": {"rate": 1.0, "burst": 1}}}), clock=clock)
        registry.admit("a", "interactive", "SEL 1")
        with pytest.raises(TenantQuotaError, match="QPS"):
            registry.admit("a", "interactive", "SEL 2")
        clock.advance(1.5)  # the bucket refills at 1 qps
        registry.admit("a", "interactive", "SEL 3")

    def test_admin_class_bypasses_the_rate_bucket(self):
        # A tenant at its QPS budget must still be able to observe its
        # own sheds: SHOW HYPERQ verbs classify admin and skip the bucket.
        clock = _Clock()
        registry = TenantRegistry(TenancyConfig.from_dict(
            {"tenants": {"a": {"rate": 1.0, "burst": 1}}}), clock=clock)
        registry.admit("a", "interactive", "SEL 1")  # drains the bucket
        with pytest.raises(TenantQuotaError, match="QPS"):
            registry.admit("a", "interactive", "SEL 2")
        registry.admit("a", "admin", "SHOW HYPERQ TENANTS")

    def test_show_hyperq_classifies_admin_despite_override(self):
        from repro.core.workload import (WorkloadConfig, WorkloadManager)

        manager = WorkloadManager(WorkloadConfig(workers=1))
        try:
            class _Session:
                session_params = {"WORKLOAD": "etl"}

            decision = manager.decide(_Session(), "SHOW HYPERQ TENANTS")
            assert decision.wl_class == "admin"
        finally:
            manager.close()

    def test_concurrency_slots_gate_dispatch_not_admission(self):
        registry = TenantRegistry(TenancyConfig.from_dict(
            {"tenants": {"a": {"max_concurrency": 1}}}))
        registry.admit("a", "interactive", "SEL 1")
        registry.note_queued("a")
        registry.note_dispatch("a", 0.0)
        assert not registry.has_slot("a")
        registry.admit("a", "interactive", "SEL 2")  # queued, not shed
        registry.note_finish("a")
        assert registry.has_slot("a")

    def test_fault_site_injects_quota_sheds(self):
        faults = FaultSchedule(7, [FaultSpec(QUOTA_EXCEEDED, "tenancy",
                                             every=2)])
        registry = TenantRegistry(
            TenancyConfig.from_dict({"tenants": {"a": {}}}), faults=faults)
        outcomes = []
        for index in range(6):
            try:
                registry.admit("a", "interactive", f"SEL {index}")
                outcomes.append("ok")
            except TenantQuotaError:
                outcomes.append("shed")
        assert outcomes == ["ok", "shed"] * 3

    def test_scheduler_weights_are_products(self):
        registry = TenantRegistry(TenancyConfig.from_dict(
            {"tenants": {"a": {"weight": 3.0}}}))
        weights = registry.scheduler_weights({"interactive": 4.0,
                                              "batch": 1.0})
        assert weights[("a", "interactive")] == pytest.approx(12.0)
        assert weights[("a", "batch")] == pytest.approx(3.0)
        assert weights[(DEFAULT_TENANT, "interactive")] == pytest.approx(4.0)


class TestCachePartitioning:
    def test_translation_cache_tracks_tenant_bytes(self):
        cache = TranslationCache(64 * 1024, tenant_shares={"a": 0.5})
        fp = fingerprint("SELECT 1", make_lexer())
        key_base = TranslationCache.key_base("teradata", "p", fp.text, None)
        cache.insert(key_base, fp, None, "SELECT 1", (), deps=("T",),
                     tenant="a")
        assert cache.tenant_bytes() == {"a": cache.used_bytes}
        assert cache.used_bytes > 0

    def test_result_cache_reserved_share_protects_tenant(self):
        # The cap fits ~6 entries; "a" reserves 40% and sits well below
        # it, so a storm of "b" inserts may only churn b's own entries.
        cache = ResultCache(max_bytes=3000, max_entry_bytes=3000,
                            tenant_shares={"a": 0.4})
        assert cache.insert(("a-key",), _entry(200), tenant="a")
        for index in range(8):
            cache.insert((f"b-{index}",), _entry(200), tenant="b")
        assert cache.lookup(("a-key",), _vector) is not None
        assert cache.stats().evictions > 0

    def test_owner_tenant_can_evict_itself_below_share(self):
        cache = ResultCache(max_bytes=2500, max_entry_bytes=2500,
                            tenant_shares={"a": 1.0})
        for index in range(5):
            cache.insert((f"a-{index}",), _entry(400), tenant="a")
        # a's own churn evicted a's own oldest entries — progress holds
        # even though every resident byte is under a's reservation.
        assert cache.stats().evictions > 0
        assert cache.tenant_bytes()["a"] <= 2500

    def test_share_sum_validation(self):
        with pytest.raises(ValueError, match="share"):
            ResultCache(1000, tenant_shares={"a": 0.8, "b": 0.8})
        with pytest.raises(ValueError, match="share"):
            TranslationCache(1000, tenant_shares={"a": 1.2})


class TestReports:
    def _registry(self):
        registry = TenantRegistry(TenancyConfig.from_dict(
            {"tenants": {"a": {}, "b": {}}}))
        registry.admit("a", "interactive", "SEL 1")
        registry.note_queued("a")
        registry.note_dispatch("a", 0.010)
        registry.note_finish("a")
        return registry

    def test_merge_reports_sums_counters_and_bytes(self):
        r1 = self._registry().snapshot()
        r2 = self._registry().snapshot()
        for report in (r1, r2):
            report["a"]["result_cache_bytes"] = 100
            report["a"]["cache_bytes"] = 100
        merged = merge_reports([r1, r2])
        assert merged["a"]["requests"] == 2
        assert merged["a"]["admitted"] == 2
        assert merged["a"]["cache_bytes"] == 200

    def test_merged_histogram_keeps_quantiles(self):
        r1 = self._registry().snapshot()
        r2 = self._registry().snapshot()
        merged = merge_reports([r1, r2])
        assert merged["a"]["queue_wait"]["count"] == 2
        assert histogram_quantile(merged["a"]["queue_wait"], 0.99) > 0.0

    def test_render_is_machine_readable(self):
        report = merge_reports([self._registry().snapshot()])
        text = render_tenants(report, workers=3)
        lines = text.splitlines()
        assert "3 workers" in lines[0]
        header = lines[1].split("\t")
        for line in lines[2:]:
            assert len(line.split("\t")) == len(header)

    def test_tenant_report_includes_cache_bytes(self):
        from repro.core.engine import HyperQ
        from repro.core.workload import WorkloadConfig, WorkloadManager

        registry = TenantRegistry(
            TenancyConfig.from_dict({"tenants": {"a": {}}}))
        manager = WorkloadManager(WorkloadConfig(), tenancy=registry)
        try:
            engine = HyperQ(workload=manager, result_cache_bytes=1 << 20)
            report = tenant_report(engine)
            assert set(report) == {"a", DEFAULT_TENANT}
            for row in report.values():
                assert "cache_bytes" in row
        finally:
            manager.close()


class TestEngineIntegration:
    def test_engine_requires_manager_to_share_registry(self):
        from repro.core.engine import HyperQ
        from repro.core.workload import WorkloadConfig, WorkloadManager

        registry = TenantRegistry(
            TenancyConfig.from_dict({"tenants": {"a": {}}}))
        manager = WorkloadManager(WorkloadConfig())  # no tenancy
        try:
            with pytest.raises(HyperQError, match="tenancy"):
                HyperQ(workload=manager, tenancy=registry)
        finally:
            manager.close()

    def test_engine_adopts_manager_registry(self):
        from repro.core.engine import HyperQ
        from repro.core.workload import WorkloadConfig, WorkloadManager

        registry = TenantRegistry(
            TenancyConfig.from_dict({"tenants": {"a": {}}}))
        manager = WorkloadManager(WorkloadConfig(), tenancy=registry)
        try:
            engine = HyperQ(workload=manager)
            assert engine.tenancy is registry
            session = engine.create_session()
            assert session.tenant == DEFAULT_TENANT
        finally:
            manager.close()

    def test_show_tenants_round_trips_json_config(self):
        from repro.core.engine import HyperQ
        from repro.core.workload import WorkloadConfig, WorkloadManager

        config = TenancyConfig.parse(json.dumps(
            {"tenants": {"acme": {"weight": 2.0}}}))
        registry = TenantRegistry(config)
        manager = WorkloadManager(WorkloadConfig(), tenancy=registry)
        try:
            engine = HyperQ(workload=manager)
            session = engine.create_session()
            result = session.execute("SHOW HYPERQ TENANTS")
            text = "\n".join(row[0] for row in result.rows)
            assert "acme" in text and "tenant" in text
        finally:
            manager.close()
