"""Unit tests for capability profiles, the feature registry, the tracker,
and timing instrumentation."""

import sys
import threading
import time

import pytest

from repro.core.timing import RequestTiming, TimingLog
from repro.core.tracker import FeatureTracker
from repro.transform import capabilities as cap
from repro.workloads.features import (
    FEATURES, FEATURES_BY_CLASS, FEATURES_BY_NAME, FeatureClass, feature,
)


class TestFeatureRegistry:
    def test_twenty_seven_features_nine_per_class(self):
        assert len(FEATURES) == 27
        for cls in FeatureClass:
            assert len(FEATURES_BY_CLASS[cls]) == 9

    def test_names_unique(self):
        assert len(FEATURES_BY_NAME) == len(FEATURES)

    def test_capability_flags_exist_on_profile(self):
        for entry in FEATURES:
            if entry.capability is not None:
                assert hasattr(cap.TERADATA, entry.capability), entry.name

    def test_lookup(self):
        assert feature("qualify").feature_class is FeatureClass.TRANSFORMATION


class TestCapabilityProfiles:
    def test_teradata_supports_everything_tracked(self):
        for entry in FEATURES:
            if entry.capability is not None:
                assert cap.TERADATA.supports(entry.capability), entry.name

    def test_hyperion_lacks_teradata_specials(self):
        assert not cap.HYPERION.qualify_clause
        assert not cap.HYPERION.recursive_cte
        assert not cap.HYPERION.merge_statement
        assert not cap.HYPERION.vector_subquery

    def test_four_cloud_profiles(self):
        assert len(cap.cloud_profiles()) == 4

    def test_support_fraction_bounds(self):
        for name in cap.capability_fields():
            fraction = cap.support_fraction(name)
            assert 0.0 <= fraction <= 1.0

    def test_no_cloud_supports_implicit_joins_or_date_int_compare(self):
        assert cap.support_fraction("implicit_joins") == 0.0
        assert cap.support_fraction("date_int_comparison") == 0.0
        assert cap.support_fraction("macros") == 0.0

    def test_qualify_rare_but_present(self):
        assert cap.support_fraction("qualify_clause") == 0.25

    def test_profiles_registry(self):
        assert cap.PROFILES["hyperion"] is cap.HYPERION
        assert set(cap.PROFILES) >= {"teradata", "hyperion", "meadowshift",
                                     "skyquery", "azuresynth", "snowfield"}


class TestTracker:
    def test_per_query_lifecycle(self):
        tracker = FeatureTracker()
        tracker.begin_query()
        tracker.note("qualify", "binder")
        tracker.note("qualify", "binder")  # dedup within a query
        record = tracker.end_query()
        assert record.features == {"qualify"}
        assert tracker.query_count == 1
        assert tracker.feature_query_counts["qualify"] == 1

    def test_unknown_feature_name_raises(self):
        tracker = FeatureTracker()
        tracker.begin_query()
        with pytest.raises(KeyError):
            tracker.note("no_such_feature", "binder")

    def test_notes_outside_query_ignored(self):
        tracker = FeatureTracker()
        tracker.note("qualify", "binder")  # no begin_query
        assert tracker.query_count == 0

    def test_class_counting_once_per_query(self):
        tracker = FeatureTracker()
        tracker.begin_query()
        tracker.note("qualify", "binder")
        tracker.note("ordinal_group_by", "binder")  # same class
        tracker.note("sel_shortcut", "parser")      # different class
        tracker.end_query()
        fractions = tracker.affected_query_fraction_by_class()
        assert fractions[FeatureClass.TRANSFORMATION] == 1.0
        assert fractions[FeatureClass.TRANSLATION] == 1.0
        assert fractions[FeatureClass.EMULATION] == 0.0

    def test_presence_fraction(self):
        tracker = FeatureTracker()
        tracker.begin_query()
        tracker.note("qualify", "binder")
        tracker.end_query()
        presence = tracker.feature_presence_by_class()
        assert presence[FeatureClass.TRANSFORMATION] == pytest.approx(1 / 9)

    def test_first_stage_recorded(self):
        tracker = FeatureTracker()
        tracker.begin_query()
        tracker.note("qualify", "binder")
        tracker.note("qualify", "serializer")
        tracker.end_query()
        assert tracker.observed_stages["qualify"] == "binder"


class TestTiming:
    def test_measure_accumulates(self):
        timing = RequestTiming()
        with timing.measure("translation"):
            time.sleep(0.002)
        with timing.measure("execution"):
            time.sleep(0.002)
        assert timing.translation > 0
        assert timing.execution > 0
        assert timing.total == pytest.approx(
            timing.translation + timing.execution + timing.result_conversion)

    def test_unknown_stage_rejected(self):
        timing = RequestTiming()
        with pytest.raises(ValueError):
            with timing.measure("nonsense"):
                pass

    def test_overhead_fraction(self):
        timing = RequestTiming(translation=1.0, execution=8.0,
                               result_conversion=1.0)
        assert timing.overhead_fraction == pytest.approx(0.2)

    def test_log_breakdown_sums_to_one(self):
        log = TimingLog()
        log.record(RequestTiming(translation=1.0, execution=2.0,
                                 result_conversion=1.0))
        log.record(RequestTiming(translation=0.0, execution=4.0,
                                 result_conversion=0.0))
        split = log.breakdown()
        assert sum(split.values()) == pytest.approx(1.0)
        assert log.overhead_fraction == pytest.approx(2.0 / 8.0)

    def test_empty_log(self):
        log = TimingLog()
        assert log.overhead_fraction == 0.0
        assert log.breakdown()["execution"] == 0.0

    def test_concurrent_records_lose_no_update(self):
        """Sessions on many threads record into one log, and conversion
        time keeps arriving after recording: no increment may be lost."""
        log = TimingLog()
        threads, per_thread = 8, 10_000
        start = threading.Barrier(threads)

        def worker():
            start.wait(timeout=60)
            for __ in range(per_thread):
                timing = RequestTiming(translation=1.0, execution=2.0)
                log.record(timing)
                timing.add("result_conversion", 0.5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for __ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        assert log.count == total
        assert log.translation == total
        assert log.execution == 2.0 * total
        assert log.result_conversion == 0.5 * total
