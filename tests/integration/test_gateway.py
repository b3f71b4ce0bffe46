"""Integration tests for the multi-process sharded gateway.

Real forked workers, real socket handoff: every test starts a
:class:`~repro.core.gateway.Gateway` and drives it through the ordinary
wire client. Worker placement is pinned by pre-binding the client's
source port and previewing the consistent-hash ring with
``Gateway.worker_for`` — the ring is deterministic on the client
address, so tests can put two sessions on two different workers on
purpose.
"""

import socket
import time

import pytest

from repro.core.gateway import Gateway, GatewayConfig, _HashRing
from repro.core.cache import CacheEntry, DependencyLRU
from repro.protocol.client import TdClient

SETUP_SQL = """
CREATE TABLE gw_t (a INTEGER, b VARCHAR(20));
INSERT INTO gw_t VALUES (1, 'x');
INSERT INTO gw_t VALUES (2, 'y');
INSERT INTO gw_t VALUES (3, 'z');
"""


@pytest.fixture(scope="module")
def gateway():
    gw = Gateway(GatewayConfig(workers=2, setup_sql=SETUP_SQL,
                               supervision_interval=0.1))
    address = gw.start()
    yield gw, address
    gw.stop()


def client_on_worker(gateway, address, worker: int,
                     attempts: int = 256) -> TdClient:
    """A TdClient whose session the ring routes to *worker*: bind source
    ports until the ring preview picks the wanted index, then connect."""
    host, port = address
    for __ in range(attempts):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind((host, 0))
        if gateway.worker_for(sock.getsockname()) == worker:
            sock.connect((host, port))
            return TdClient(host, port, sock=sock)
        sock.close()
    raise AssertionError(f"no source port routed to worker {worker}")


class TestRouting:
    def test_queries_work_through_the_gateway(self, gateway):
        gw, address = gateway
        with TdClient(*address) as client:
            result = client.execute("SELECT a, b FROM gw_t ORDER BY a")
            assert result.rows == [(1, "x"), (2, "y"), (3, "z")]
            assert client.execute(
                "SELECT COUNT(*) FROM gw_t").rows == [(3,)]

    def test_sessions_land_on_the_ring_selected_worker(self, gateway):
        gw, address = gateway
        for worker in range(gw.config.workers):
            before = dict(gw.worker_metrics_states()).get(worker, {})
            requests_before = before.get("counters", {}).get(
                "hyperq_requests_total", 0)
            with client_on_worker(gw, address, worker) as client:
                client.execute("SELECT 1")
            # the counter lands at finish_trace, just after the reply
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                after = dict(gw.worker_metrics_states())[worker]
                if after["counters"]["hyperq_requests_total"] \
                        > requests_before:
                    break
                time.sleep(0.01)
            assert after["counters"]["hyperq_requests_total"] \
                > requests_before

    def test_ring_spreads_keys_and_is_stable(self):
        ring = _HashRing(list(range(4)))
        alive = {0, 1, 2, 3}
        keys = [f"10.0.0.{i}:{1000 + i}" for i in range(200)]
        placed = {key: ring.route(key, alive) for key in keys}
        # every worker serves some arc of the keyspace
        assert set(placed.values()) == alive
        # routing is deterministic
        assert all(ring.route(k, alive) == v for k, v in placed.items())
        # a dead member only moves its own keys
        moved = [k for k, v in placed.items()
                 if ring.route(k, alive - {2}) != v]
        assert moved and all(placed[k] == 2 for k in moved)


class TestFleetObservability:
    def test_show_metrics_reports_fleet_wide_sums(self, gateway):
        gw, address = gateway
        with client_on_worker(gw, address, 0) as zero, \
                client_on_worker(gw, address, 1) as one:
            for __ in range(3):
                zero.execute("SELECT a FROM gw_t WHERE a = 1")
                one.execute("SELECT a FROM gw_t WHERE a = 2")
            # Quiesce: counters land at finish_trace just after each
            # reply, so wait until the fleet-wide sum stops moving. The
            # fleet view must then equal the sum of the per-worker dumps.
            def fleet_sum():
                states = gw.worker_metrics_states()
                assert len(states) == 2
                return sum(state["counters"]["hyperq_requests_total"]
                           for __, state in states)

            expected = fleet_sum()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                time.sleep(0.02)
                current = fleet_sum()
                if current == expected:
                    break
                expected = current
            metrics = dict(
                line.split()[1:3] for line in zero.show_metrics()
                .splitlines() if line.startswith("counter "))
            assert int(metrics["hyperq_requests_total"]) == expected
            assert "gateway_connections_routed_total" in metrics

    def test_show_trace_finds_traces_from_any_worker(self, gateway):
        gw, address = gateway
        with client_on_worker(gw, address, 0) as zero, \
                client_on_worker(gw, address, 1) as one:
            zero.execute("SELECT 41")
            one.execute("SELECT 42")
            index = [line for line in one.show_traces().splitlines()
                     if "\tSELECT 4" in line]
            # both workers' traces are in the fleet index, worker-tagged
            workers = {line.split("\t", 1)[0] for line in index}
            assert {"w0", "w1"} <= workers
            # ids are interleaved (unique fleet-wide): offset i, stride N
            for line in index:
                tag, trace_id = line.split("\t")[:2]
                assert int(trace_id) % 2 == int(tag[1:])
            # any session can render any worker's trace by id
            line = next(l for l in index if l.startswith("w0\t"))
            rendered = zero.show_trace(int(line.split("\t")[1]))
            assert "(worker 0)" in rendered
            rendered = one.show_trace(int(line.split("\t")[1]))
            assert "(worker 0)" in rendered

    def test_admission_shares_split_across_the_fleet(self):
        from repro.core.workload import WorkloadConfig

        config = WorkloadConfig.from_dict(
            {"workers": 8, "classes": {"etl": {"max_concurrency": 4,
                                               "rate": 10.0}}})
        share = config.per_worker(4)
        assert share.workers == 2
        assert share.classes["etl"].max_concurrency == 1
        assert share.classes["etl"].rate == pytest.approx(2.5)


class TestSharedCacheTier:
    def test_translation_warmed_by_one_worker_hits_on_the_other(
            self, gateway):
        gw, address = gateway
        sql = "SELECT b FROM gw_t WHERE a = 1 AND b = 'x'"
        with client_on_worker(gw, address, 0) as zero:
            zero.execute(sql)
        before = gw.cache_service_stats()
        with client_on_worker(gw, address, 1) as one:
            one.execute(sql)
        after = gw.cache_service_stats()
        # worker 1's L1 missed, the shared tier hit — no retranslation
        assert after["hits"] > before["hits"]

    def test_disjoint_ddl_preserves_l1_and_l2_entries(self, gateway):
        """DDL on table A must leave entries that touch only table B alive
        in the worker's L1 *and* the shared L2 tier (the per-table
        invalidation acceptance bar)."""
        gw, address = gateway
        # a statement shape no other test warms (fingerprints strip
        # literals, so sharing a shape would pre-warm worker L1s)
        sql = "SELECT a FROM gw_t WHERE b = 'y' AND a BETWEEN 1 AND 3"
        with client_on_worker(gw, address, 0) as zero:
            assert zero.execute(sql).rows == [(2,)]     # warm L1 + L2
            before = gw.cache_service_stats()
            # DDL on a table the cached entry does not depend on
            zero.execute("CREATE TABLE gw_disjoint (n INTEGER)")
            after_ddl = gw.cache_service_stats()
            assert after_ddl["invalidated"] == before["invalidated"]
            # worker 0's L1 survived: the re-run never consults the tier
            assert zero.execute(sql).rows == [(2,)]
            after_rerun = gw.cache_service_stats()
            assert after_rerun["hits"] == after_ddl["hits"]
            assert after_rerun["misses"] == after_ddl["misses"]
        # the shared L2 survived too: worker 1 misses its L1, hits the tier
        with client_on_worker(gw, address, 1) as one:
            assert one.execute(sql).rows == [(2,)]
        assert gw.cache_service_stats()["hits"] > after_rerun["hits"]

    def test_tier_store_lru_and_invalidation(self):
        def entry(table: str) -> CacheEntry:
            return CacheEntry(template=None, sql="SELECT 1", notes=(),
                              deps=(table,), overlay_uid=None)

        store = DependencyLRU(max_bytes=3 * entry("T0").size)
        evictions = sum(store.put(("k", key), entry(f"T{key}"))
                        for key in range(4))
        assert evictions == 1 and store.get(("k", 0)) is None
        assert store.get(("k", 3)) is not None
        # per-table: only the entry depending on T2 drops
        assert store.invalidate(("T2",)) == 1
        assert len(store) == 2
        # wildcard bump clears the rest
        assert store.invalidate(("*",)) == 2
        assert len(store) == 0


class TestShutdown:
    def test_stop_wakes_the_accept_loop(self):
        gw = Gateway(GatewayConfig(workers=1))
        gw.start()
        accept_thread = gw._accept_thread
        started = time.monotonic()
        gw.stop()
        assert time.monotonic() - started < 1.0
        assert not accept_thread.is_alive()
