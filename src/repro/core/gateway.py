"""Multi-process sharded gateway: process-per-core Hyper-Q workers.

A single Python process tops out one core: translation is pure CPU work
and the GIL serializes it no matter how many wire threads the server
runs. The gateway breaks that ceiling the way the real appliance does —
one **acceptor/supervisor** process owns the listening socket and routes
each accepted session to one of *N* forked **worker** processes over a
Unix-domain handoff socket (``SCM_RIGHTS`` file-descriptor passing, so
the client's TCP socket is served directly by the worker — no proxying,
no double copy). Each worker runs the ordinary engine + wire stack
(:class:`repro.protocol.server.HyperQServer`) unchanged; the only
difference is that sockets arrive by handoff instead of ``accept()``.

Routing is a consistent-hash ring over the client address, so a given
client endpoint lands on the same worker while the fleet is stable, and
only ``1/N`` of the keyspace moves when a worker dies. Dead ring nodes
are skipped to the next live worker; a supervision loop restarts crashed
workers within one tick.

Two pieces of cross-process glue keep the fleet coherent:

* **Shared translation-cache tier** — a cache-service process holding an
  L2 of memoized translations keyed exactly like the per-worker L1
  (:mod:`repro.core.cache` fingerprint + catalog-version keys). Workers
  keep their lock-free L1 in front; only on an L1 miss do they consult
  the tier, so one worker's translation warms the whole fleet without
  putting an RPC on the hot path. Only overlay-free entries are shared
  (session-overlay uids are process-local and would collide).
* **Fleet-wide observability** — every worker answers a control RPC
  (metrics state, trace index, one trace, slow queries) and the
  supervisor aggregates: ``SHOW HYPERQ METRICS`` on *any* session
  reports fleet-wide numbers (mergeable histogram states, summed
  counters) and ``SHOW HYPERQ TRACE <id>`` finds the trace in whichever
  worker recorded it (trace-id sequences are interleaved per worker, so
  ids are unique fleet-wide).

All control sockets live in a private ``tempfile.mkdtemp`` directory and
speak length-prefixed pickle — internal, same-user, same-machine IPC
only, never exposed on the network.

Platform: Linux (``fork`` start method + ``socket.send_fds``). The
supervisor falls back to ``spawn`` where ``fork`` is unavailable; all
worker arguments are picklable.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import os
import pickle
import shutil
import signal
import socket
import struct
import tempfile
import threading
import time

from dataclasses import dataclass, field
from typing import Optional

from repro.core.cache import CacheEntry, CacheTier, DependencyLRU
from repro.core.faults import FaultSchedule, FaultSpec
from repro.core.trace import MetricsRegistry, aggregate_metrics, render_trace
from repro.errors import HyperQError


class GatewayError(HyperQError):
    """A gateway control-plane failure (RPC, spawn, or routing)."""


# -- length-prefixed pickle framing ---------------------------------------------------
#
# The gateway's internal RPC: 4-byte big-endian length + pickle. Used on
# Unix-domain sockets inside a mkdtemp'd directory only (trusted,
# same-user IPC); never on the TCP wire.

_LEN = struct.Struct(">I")


def _send_obj(sock: socket.socket, obj) -> None:
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    buf = bytearray()
    while len(buf) < size:
        chunk = sock.recv(size - len(buf))
        if not chunk:
            raise EOFError("peer closed")
        buf += chunk
    return bytes(buf)


def _recv_obj(sock: socket.socket):
    (length,) = _LEN.unpack(_recv_exact(sock, 4))
    return pickle.loads(_recv_exact(sock, length))


def _serve_rpc_conn(conn: socket.socket, handler) -> None:
    try:
        while True:
            request = _recv_obj(conn)
            try:
                reply = ("ok", handler(request))
            except Exception as error:  # noqa: BLE001 — report to caller
                reply = ("err", f"{type(error).__name__}: {error}")
            _send_obj(conn, reply)
    except (OSError, EOFError):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _serve_rpc(listener: socket.socket, handler) -> None:
    """Accept loop: one daemon thread per RPC connection. Returns when the
    listener is closed."""
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        threading.Thread(target=_serve_rpc_conn, args=(conn, handler),
                         name="hq-gw-rpc", daemon=True).start()


class _RpcClient:
    """One persistent RPC connection, reconnecting once per call on error.

    Thread-safe: calls serialize on an internal lock (request/reply
    framing cannot interleave)."""

    def __init__(self, path: str, timeout: float = 10.0):
        self._path = path
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def _connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._timeout)
        sock.connect(self._path)
        self._sock = sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def call(self, *request):
        with self._lock:
            last: Optional[BaseException] = None
            for _attempt in range(2):
                try:
                    if self._sock is None:
                        self._connect()
                    _send_obj(self._sock, request)
                    status, value = _recv_obj(self._sock)
                except (OSError, EOFError) as error:
                    last = error
                    self._drop()
                    continue
                if status == "err":
                    raise GatewayError(value)
                return value
            raise GatewayError(f"rpc to {self._path} failed: {last!r}")

    def wait_ready(self, timeout: float) -> None:
        """Poll ``ping`` until the peer answers (bounds process startup)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.call("ping")
                return
            except GatewayError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.02)

    def fileno(self) -> Optional[int]:
        return self._sock.fileno() if self._sock is not None else None

    def close(self) -> None:
        with self._lock:
            self._drop()


def _bind_unix(path: str, backlog: int = 16) -> socket.socket:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(backlog)
    return listener


def _connect_unix_retry(path: str, timeout: float) -> socket.socket:
    deadline = time.monotonic() + timeout
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError as error:
            sock.close()
            if time.monotonic() >= deadline:
                raise GatewayError(
                    f"worker socket {path} never came up: {error}") from error
            time.sleep(0.02)


def _ceil_div(value: int, parts: int) -> int:
    return -(-value // parts)


# -- socket paths ---------------------------------------------------------------------
#
# Handoff/control paths carry a generation suffix so a restarted worker
# binds a fresh path — the supervisor can never accidentally connect to
# the dead predecessor's stale socket file.


def _handoff_path(run_dir: str, index: int, generation: int) -> str:
    return os.path.join(run_dir, f"handoff-{index}-{generation}.sock")


def _control_path(run_dir: str, index: int, generation: int) -> str:
    return os.path.join(run_dir, f"control-{index}-{generation}.sock")


def _fleet_path(run_dir: str) -> str:
    return os.path.join(run_dir, "fleet.sock")


def _cache_path(run_dir: str) -> str:
    return os.path.join(run_dir, "cache.sock")


# -- the shared translation-cache tier ------------------------------------------------


def _cache_service_main(path: str, max_bytes: int,
                        close_fds: tuple[int, ...]) -> None:
    """Entry point of the cache-service process: one :class:`DependencyLRU`
    of :class:`CacheEntry` behind the RPC lock. Every entry carries its
    dependency set, so a DDL epoch bump drops exactly the affected entries,
    fleet-wide."""
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    store = DependencyLRU(max_bytes)
    counts = dict.fromkeys(
        ("hits", "misses", "inserts", "evictions", "invalidated"), 0)
    lock = threading.Lock()

    def handle(request):
        op = request[0]
        if op == "ping":
            return "pong"
        if op == "shutdown":
            threading.Timer(0.05, lambda: os._exit(0)).start()
            return "bye"
        with lock:
            if op == "get":
                entry = store.get(request[1])
                counts["hits" if entry is not None else "misses"] += 1
                return entry
            if op == "put":
                counts["inserts"] += 1
                counts["evictions"] += store.put(request[1], request[2])
                return True
            if op == "invalidate_tables":
                dropped = store.invalidate(request[1])
                counts["invalidated"] += dropped
                return dropped
            if op == "stats":
                return {"entries": len(store), "bytes": store.used_bytes,
                        **counts}
        raise GatewayError(f"unknown cache op {op!r}")

    _serve_rpc(_bind_unix(path, backlog=64), handle)


class CacheServiceClient(CacheTier):
    """Worker-side :class:`CacheTier` speaking to the cache service.

    Deliberately short-timeout: a wedged cache service must degrade the
    fleet to per-worker L1s, not stall translation. The
    :class:`~repro.core.cache.TranslationCache` treats any exception from
    the tier as a miss."""

    def __init__(self, path: str, timeout: float = 2.0):
        self._rpc = _RpcClient(path, timeout=timeout)

    def get(self, key: tuple) -> Optional[CacheEntry]:
        return self._rpc.call("get", key)

    def put(self, key: tuple, entry: CacheEntry) -> None:
        self._rpc.call("put", key, entry)

    def invalidate_tables(self, names) -> None:
        self._rpc.call("invalidate_tables", tuple(names))

    def stats(self) -> dict:
        return self._rpc.call("stats")

    def close(self) -> None:
        self._rpc.close()


# -- consistent-hash session routing --------------------------------------------------


class _HashRing:
    """Consistent-hash ring with virtual nodes over worker indexes.

    ``route`` walks clockwise from the key's point to the first vnode of
    a *live* member, so a dead worker's arc spills onto its successors
    without remapping the rest of the keyspace."""

    def __init__(self, members: list[int], vnodes: int = 64):
        points = [(self._hash(f"{member}:{vnode}"), member)
                  for member in members for vnode in range(vnodes)]
        points.sort()
        self._ring = points
        self._points = [point for point, _ in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.md5(key.encode("utf-8")).digest()[:8], "big")

    def route(self, key: str, alive: set[int]) -> Optional[int]:
        if not alive or not self._ring:
            return None
        start = bisect.bisect(self._points, self._hash(key))
        size = len(self._ring)
        for step in range(size):
            _, member = self._ring[(start + step) % size]
            if member in alive:
                return member
        return None


# -- configuration --------------------------------------------------------------------

#: Seconds the supervisor waits for a spawned worker or the cache service to
#: come up.
_START_TIMEOUT = 30.0
#: Seconds an accepted connection may wait for a live worker to take it.
_ROUTE_TIMEOUT = 5.0


@dataclass(frozen=True)
class GatewayConfig:
    """Everything a worker needs to rebuild the engine — picklable, so
    restarts and ``spawn`` fallback both work from the same value.

    ``max_connections`` is the fleet-wide bound; each worker enforces a
    ceiling share. ``workload`` (a ``WorkloadConfig``) is likewise split
    per worker via :meth:`~repro.core.workload.WorkloadConfig.per_worker`
    so fleet-wide admission limits hold. ``setup_sql`` runs once per
    worker at boot against its in-process backend — each worker owns an
    identically-initialized backend (the reproduction's stand-in for the
    one shared cloud warehouse all gateway processes would really point
    at), so cross-worker data visibility of post-boot DML is out of
    scope here.
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    target: str = "hyperion"
    source: str = "teradata"
    cache_size: int = 32 * 1024 * 1024
    #: Byte cap of the fleet's shared translation-cache tier (0 disables).
    shared_cache_bytes: int = 32 * 1024 * 1024
    #: Per-worker semantic result cache (0 disables). Kept per worker —
    #: results are large and replaying them through a shared-tier RPC
    #: would cost more than re-executing most statements.
    result_cache_bytes: int = 0
    setup_sql: str = ""
    max_connections: int = 64
    workload: Optional[object] = None  # WorkloadConfig
    #: Multi-tenant control plane (a ``TenancyConfig``): split per worker
    #: like the workload config so fleet-wide quotas hold, and wired into
    #: each worker's WorkloadManager, engine, and caches.
    tenancy: Optional[object] = None  # TenancyConfig
    tracing: bool = True
    fault_specs: tuple[FaultSpec, ...] = ()
    supervision_interval: float = 0.2
    engine_options: dict = field(default_factory=dict)
    #: Wire path each worker serves its sessions on: ``"threaded"`` (one
    #: connection-pool thread per session) or ``"async"`` (all of a
    #: worker's sessions multiplexed on one event loop —
    #: :class:`repro.protocol.aio_server.AioHyperQServer`). The default
    #: follows ``HQ_WIRE`` so CI's wire-matrix job flips gateway tests
    #: without touching them; passing ``wire=`` explicitly always wins.
    wire: str = field(default_factory=lambda: (
        "async" if os.environ.get("HQ_WIRE", "").lower() == "async"
        else "threaded"))

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("gateway needs at least one worker")
        if self.wire not in ("threaded", "async"):
            raise ValueError(f"unknown wire path {self.wire!r}")


# -- the worker process ---------------------------------------------------------------


class _FleetClient:
    """Worker-side handle on the supervisor's fleet-aggregation RPC.

    Installed as ``engine.fleet`` so ``SHOW HYPERQ METRICS/TRACES/...``
    report fleet-wide (see ``HyperQSession._run_admin``)."""

    def __init__(self, path: str):
        self._rpc = _RpcClient(path, timeout=10.0)

    def metrics_text(self) -> str:
        return self._rpc.call("metrics_text")

    def trace_index(self) -> list[str]:
        return self._rpc.call("trace_index")

    def find_trace(self, trace_id: int) -> Optional[list[str]]:
        return self._rpc.call("find_trace", trace_id)

    def slow_queries(self) -> list[dict]:
        return self._rpc.call("slow_queries")

    def tenants(self) -> tuple[dict, int]:
        return self._rpc.call("tenants")


def _trace_index_lines(hub) -> list[str]:
    lines = []
    for trace_id in hub.trace_ids():
        trace = hub.get_trace(trace_id)
        if trace is not None:
            lines.append(f"{trace_id}\t{trace.spans[0].outcome}\t"
                         f"{trace.duration * 1e3:.3f}ms\t{trace.sql[:80]}")
    return lines


def _worker_main(config: GatewayConfig, index: int, generation: int,
                 run_dir: str, close_fds: tuple[int, ...]) -> None:
    """Entry point of one gateway worker process."""
    # Forked children inherit the supervisor's listening/control fds;
    # close them so the TCP port and dead workers' sockets don't stay
    # half-alive in every worker.
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass

    from repro.core.engine import HyperQ
    from repro.core.workload import WorkloadManager
    from repro.protocol.server import HyperQServer

    tier = CacheServiceClient(_cache_path(run_dir)) \
        if config.shared_cache_bytes > 0 else None
    faults = FaultSchedule(0, list(config.fault_specs),
                           name="gateway") if config.fault_specs else None
    tenancy = None
    if config.tenancy is not None:
        from repro.core.tenancy import TenantRegistry
        tenancy = TenantRegistry(config.tenancy.per_worker(config.workers),
                                 faults=faults)
    workload = None
    if config.workload is not None:
        workload = WorkloadManager(config.workload.per_worker(config.workers),
                                   tenancy=tenancy)
    engine = HyperQ(target=config.target, source=config.source,
                    cache_size=config.cache_size, cache_tier=tier,
                    faults=faults, workload=workload, tracing=config.tracing,
                    worker_index=index, fleet_size=config.workers,
                    result_cache_bytes=config.result_cache_bytes,
                    tenancy=tenancy,
                    **dict(config.engine_options))
    if config.setup_sql:
        boot = engine.create_session()
        boot.execute_script(config.setup_sql)
    engine.fleet = _FleetClient(_fleet_path(run_dir))

    worker_cap = max(1, _ceil_div(config.max_connections, config.workers))
    if config.wire == "async":
        from repro.protocol.aio_server import AioHyperQServer
        server = AioHyperQServer(
            engine, max_connections=worker_cap, bind=False)
        # Unbound: the event loop only serves sockets handed over through
        # process_request(), but it must be running before the first one.
        server.start()
    else:
        server = HyperQServer(
            engine, max_connections=worker_cap, bind=False)

    stop = threading.Event()
    draining = threading.Event()
    handoff_listener = _bind_unix(_handoff_path(run_dir, index, generation))
    #: The live supervisor handoff connection, if any — drain must shut it
    #: down to unblock the main thread's recv_fds().
    conn_holder: list = []

    def begin_drain() -> None:
        """Stop taking new work; let every in-flight request finish.

        Idempotent. Triggered by SIGTERM (supervisor-driven graceful
        shutdown) or the ``drain`` control RPC. The main thread notices
        the closed handoff sockets, waits for the wire server to drain,
        and exits cleanly — no reply in flight is ever cut."""
        if draining.is_set():
            return
        draining.set()
        stop.set()
        server.begin_drain()
        try:
            handoff_listener.close()
        except OSError:
            pass
        for conn in list(conn_holder):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    signal.signal(signal.SIGTERM, lambda signum, frame: begin_drain())

    def handle_control(request):
        op = request[0]
        hub = engine.tracing
        if op == "ping":
            return "pong"
        if op == "metrics_state":
            return hub.metrics.dump_state()
        if op == "trace_index":
            return _trace_index_lines(hub)
        if op == "get_trace":
            trace = hub.get_trace(request[1])
            return render_trace(trace) if trace is not None else None
        if op == "slow_queries":
            return list(hub.slow_queries)
        if op == "cache_stats":
            return engine.cache.stats().as_dict() \
                if engine.cache is not None else None
        if op == "result_cache_stats":
            stats = engine.result_cache_stats()
            return stats.as_dict() if stats is not None else None
        if op == "tenant_stats":
            if engine.tenancy is None:
                return None
            from repro.core.tenancy import tenant_report
            return tenant_report(engine)
        if op == "drain":
            begin_drain()
            return "draining"
        if op == "shutdown":
            stop.set()
            try:
                handoff_listener.close()
            except OSError:
                pass
            return "bye"
        raise GatewayError(f"unknown control op {op!r}")

    control_listener = _bind_unix(_control_path(run_dir, index, generation))
    threading.Thread(target=_serve_rpc,
                     args=(control_listener, handle_control),
                     name="hq-gw-control", daemon=True).start()

    _worker_handoff_loop(handoff_listener, server, stop, conn_holder)
    if draining.is_set():
        # Graceful path: every registered connection either finished its
        # in-flight request or was idle and is now closed. Wait for the
        # stragglers to land before tearing the server down.
        deadline = time.monotonic() + 30.0
        while not server.drained() and time.monotonic() < deadline:
            time.sleep(0.01)
    server.server_close()
    # Daemon threads (control RPC, pool) may still be parked; exit hard so
    # the process never outlives its supervisor's join.
    os._exit(0)


def _worker_handoff_loop(listener: socket.socket, server, stop,
                         conn_holder: Optional[list] = None) -> None:
    """Receive handed-off client sockets and serve them on the worker's
    connection pool. Runs on the worker's main thread until shutdown."""
    while not stop.is_set():
        try:
            supervisor, _ = listener.accept()
        except OSError:
            return
        if conn_holder is not None:
            conn_holder.append(supervisor)
        try:
            while not stop.is_set():
                data, fds, _, _ = socket.recv_fds(supervisor, 16, 4)
                if not data and not fds:
                    break  # supervisor hung up
                for fd in fds:
                    conn = socket.socket(fileno=fd)
                    try:
                        peer = conn.getpeername()
                    except OSError:
                        peer = ("?", 0)
                    server.process_request(conn, peer)
        except OSError:
            continue
        finally:
            if conn_holder is not None:
                try:
                    conn_holder.remove(supervisor)
                except ValueError:
                    pass
            try:
                supervisor.close()
            except OSError:
                pass


# -- the supervisor -------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    index: int
    generation: int
    process: "multiprocessing.process.BaseProcess"
    handoff: socket.socket
    control: _RpcClient


class Gateway:
    """Acceptor/supervisor: owns the TCP port, routes sessions, restarts
    dead workers, aggregates fleet observability.

    Usage::

        with Gateway(GatewayConfig(workers=4, setup_sql=ddl)) as address:
            client = TdClient(*address)
    """

    def __init__(self, config: GatewayConfig):
        self.config = config
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # non-Unix fallback; config is picklable
            self._mp = multiprocessing.get_context("spawn")
        self._ring = _HashRing(list(range(config.workers)))
        self._lock = threading.Lock()
        self._workers: dict[int, _WorkerHandle] = {}
        self._alive: set[int] = set()
        self._generation: dict[int, int] = {}
        self._restarts: dict[int, int] = {
            index: 0 for index in range(config.workers)}
        self._stopping = threading.Event()
        self._wake_monitor = threading.Event()
        self._metrics = MetricsRegistry()
        self._run_dir: Optional[str] = None
        self._listen: Optional[socket.socket] = None
        self._fleet_listener: Optional[socket.socket] = None
        self._cache_process = None
        self._cache_client: Optional[_RpcClient] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._monitor_thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        config = self.config
        self._run_dir = tempfile.mkdtemp(prefix="hq-gateway-")
        if config.shared_cache_bytes > 0:
            path = _cache_path(self._run_dir)
            self._cache_process = self._mp.Process(
                target=_cache_service_main,
                args=(path, config.shared_cache_bytes,
                      tuple(self._inherited_fds())),
                name="hq-gw-cache", daemon=True)
            self._cache_process.start()
            self._cache_client = _RpcClient(path, timeout=5.0)
            self._cache_client.wait_ready(_START_TIMEOUT)
        self._fleet_listener = _bind_unix(_fleet_path(self._run_dir),
                                          backlog=config.workers + 4)
        threading.Thread(target=_serve_rpc,
                         args=(self._fleet_listener, self._fleet_handler),
                         name="hq-gw-fleet", daemon=True).start()
        for index in range(config.workers):
            self._spawn_worker(index, generation=0)
        self._metrics.gauge("gateway_workers").set(config.workers)
        self._listen = socket.create_server(
            (config.host, config.port), backlog=128, reuse_port=False)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="hq-gw-accept", daemon=True)
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="hq-gw-monitor", daemon=True)
        self._monitor_thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._listen is None:
            raise GatewayError("gateway not started")
        host, port = self._listen.getsockname()[:2]
        return str(host), int(port)

    def _stop_accepting(self) -> None:
        """Stop the accept and monitor threads."""
        self._stopping.set()
        self._wake_monitor.set()
        if self._listen is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does.
            try:
                self._listen.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listen.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5)

    def stop(self) -> None:
        self._stop_accepting()
        with self._lock:
            handles = list(self._workers.values())
            self._workers.clear()
            self._alive.clear()
        for handle in handles:
            try:
                handle.control.call("shutdown")
            except GatewayError:
                pass
            try:
                handle.handoff.close()
            except OSError:
                pass
        for handle in handles:
            handle.process.join(timeout=2)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2)
            handle.control.close()
        if self._cache_client is not None:
            try:
                self._cache_client.call("shutdown")
            except GatewayError:
                pass
            self._cache_client.close()
        if self._cache_process is not None:
            self._cache_process.join(timeout=2)
            if self._cache_process.is_alive():
                self._cache_process.terminate()
                self._cache_process.join(timeout=2)
        if self._fleet_listener is not None:
            try:
                self._fleet_listener.close()
            except OSError:
                pass
        if self._run_dir is not None:
            shutil.rmtree(self._run_dir, ignore_errors=True)

    def drain(self, deadline: float = 10.0) -> dict[int, str]:
        """Graceful fleet shutdown: SIGTERM every worker, let in-flight
        requests finish, SIGKILL whoever overruns *deadline* seconds.

        The accept loop stops first (no new sessions), then each worker's
        SIGTERM handler drains its wire server — idle connections close
        immediately, busy ones ship their current reply — and the process
        exits on its own. Returns ``{worker_index: "drained" | "killed"}``.
        """
        self._stop_accepting()
        with self._lock:
            handles = list(self._workers.values())
            self._workers.clear()
            self._alive.clear()
        for handle in handles:
            pid = handle.process.pid
            if pid is not None and handle.process.is_alive():
                try:
                    os.kill(pid, signal.SIGTERM)
                except OSError:
                    pass
        outcomes: dict[int, str] = {}
        until = time.monotonic() + deadline
        for handle in handles:
            handle.process.join(timeout=max(0.0, until - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2)
                outcomes[handle.index] = "killed"
            else:
                outcomes[handle.index] = "drained"
            handle.control.close()
            try:
                handle.handoff.close()
            except OSError:
                pass
        # Remaining shared infrastructure (cache service, fleet RPC, run
        # dir) tears down on the normal path; workers are already gone.
        self.stop()
        return outcomes

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- worker management -----------------------------------------------------------

    def _inherited_fds(self) -> list[int]:
        """Supervisor-side fds a forked child must close immediately: the
        TCP listener (else the port survives worker crashes) and every
        sibling's handoff/control sockets."""
        fds = []
        if self._listen is not None:
            fds.append(self._listen.fileno())
        if self._fleet_listener is not None:
            fds.append(self._fleet_listener.fileno())
        if self._cache_client is not None:
            fd = self._cache_client.fileno()
            if fd is not None:
                fds.append(fd)
        for handle in self._workers.values():
            try:
                fds.append(handle.handoff.fileno())
            except OSError:
                pass
            fd = handle.control.fileno()
            if fd is not None:
                fds.append(fd)
        return fds

    def _spawn_worker(self, index: int, generation: int) -> None:
        config = self.config
        with self._lock:
            close_fds = tuple(self._inherited_fds())
        process = self._mp.Process(
            target=_worker_main,
            args=(config, index, generation, self._run_dir, close_fds),
            name=f"hq-gw-worker-{index}", daemon=True)
        process.start()
        handoff = _connect_unix_retry(
            _handoff_path(self._run_dir, index, generation),
            timeout=_START_TIMEOUT)
        control = _RpcClient(
            _control_path(self._run_dir, index, generation), timeout=10.0)
        try:
            control.wait_ready(_START_TIMEOUT)
        except GatewayError:
            handoff.close()
            process.terminate()
            raise
        handle = _WorkerHandle(index=index, generation=generation,
                               process=process, handoff=handoff,
                               control=control)
        with self._lock:
            self._workers[index] = handle
            self._generation[index] = generation
            self._alive.add(index)

    def _note_dead(self, index: int) -> None:
        with self._lock:
            self._alive.discard(index)
        self._wake_monitor.set()

    def _monitor_loop(self) -> None:
        """Supervision: every tick (or immediately on a routing failure),
        restart any worker whose process died or whose handoff socket
        broke. One tick covers detection + restart."""
        while True:
            self._wake_monitor.wait(timeout=self.config.supervision_interval)
            self._wake_monitor.clear()
            if self._stopping.is_set():
                return
            for index in range(self.config.workers):
                if self._stopping.is_set():
                    return
                with self._lock:
                    handle = self._workers.get(index)
                    live = index in self._alive
                if handle is not None and live and handle.process.is_alive():
                    continue
                self._restart_worker(index)

    def _restart_worker(self, index: int) -> None:
        with self._lock:
            old = self._workers.pop(index, None)
            self._alive.discard(index)
        if old is not None:
            try:
                old.handoff.close()
            except OSError:
                pass
            old.control.close()
            if old.process.is_alive():
                old.process.terminate()
            old.process.join(timeout=2)
        generation = self._generation.get(index, 0) + 1
        try:
            self._spawn_worker(index, generation)
        except GatewayError:
            # Leave the worker dead; the next tick retries the spawn.
            return
        self._restarts[index] += 1
        self._metrics.counter("gateway_worker_restarts_total").inc()

    # -- session routing -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, addr = self._listen.accept()
            except OSError:
                return
            self._route_connection(conn, addr)

    def _route_connection(self, conn: socket.socket, addr) -> None:
        """Hand the accepted socket to the ring-selected worker. On a
        broken handoff the worker is marked dead (waking the monitor) and
        the session re-routes to the next live node."""
        key = f"{addr[0]}:{addr[1]}"
        deadline = time.monotonic() + _ROUTE_TIMEOUT
        try:
            while not self._stopping.is_set() \
                    and time.monotonic() < deadline:
                with self._lock:
                    alive = set(self._alive)
                target = self._ring.route(key, alive)
                if target is None:
                    time.sleep(0.02)
                    continue
                with self._lock:
                    handle = self._workers.get(target)
                if handle is None:
                    time.sleep(0.02)
                    continue
                try:
                    socket.send_fds(handle.handoff, [b"s"], [conn.fileno()])
                except OSError:
                    self._note_dead(target)
                    continue
                self._metrics.counter(
                    "gateway_connections_routed_total").inc()
                return
        finally:
            # Routed or not, the supervisor's reference closes: on success
            # the worker holds the only live fd, on failure the client
            # sees the connection drop.
            try:
                conn.close()
            except OSError:
                pass

    def worker_for(self, addr: tuple[str, int]) -> Optional[int]:
        """Ring preview: which live worker would serve this client
        address right now (tests and operators)."""
        with self._lock:
            alive = set(self._alive)
        return self._ring.route(f"{addr[0]}:{addr[1]}", alive)

    # -- fleet observability ---------------------------------------------------------

    def _collect(self, *request) -> list[tuple[int, object]]:
        """Fan one control RPC out to every worker; skip the unreachable
        (a worker mid-restart must not fail the whole view)."""
        with self._lock:
            handles = sorted(self._workers.items())
        out = []
        for index, handle in handles:
            try:
                out.append((index, handle.control.call(*request)))
            except GatewayError:
                continue
        return out

    def _fleet_handler(self, request):
        op = request[0]
        if op == "ping":
            return "pong"
        if op == "metrics_text":
            return self.metrics_text()
        if op == "trace_index":
            return self.trace_index()
        if op == "find_trace":
            return self.find_trace(request[1])
        if op == "slow_queries":
            return self.slow_queries()
        if op == "tenants":
            return self.tenants()
        raise GatewayError(f"unknown fleet op {op!r}")

    def worker_metrics_states(self) -> list[tuple[int, dict]]:
        """Per-worker ``MetricsRegistry.dump_state`` snapshots."""
        return self._collect("metrics_state")

    def metrics_text(self) -> str:
        """Fleet-wide metrics: every worker's registry merged (counters
        sum, histograms merge by bucket) plus the supervisor's own."""
        fleet = aggregate_metrics(
            [state for _, state in self._collect("metrics_state")])
        fleet.merge_state(self._metrics.dump_state())
        return fleet.render_text()

    def trace_index(self) -> list[str]:
        lines = []
        for index, chunk in self._collect("trace_index"):
            lines.extend(f"w{index}\t{line}" for line in chunk)
        return lines

    def find_trace(self, trace_id: int) -> Optional[list[str]]:
        for index, rendered in self._collect("get_trace", trace_id):
            if rendered is not None:
                return [f"(worker {index})"] + rendered
        return None

    def slow_queries(self) -> list[dict]:
        records = []
        for index, chunk in self._collect("slow_queries"):
            for record in chunk:
                records.append({**record, "worker": index})
        return records

    def tenants(self) -> tuple[dict, int]:
        """Fleet-wide tenant report: every worker's per-tenant counters,
        QPS, queue-wait histograms, and cache bytes merged (counters and
        bytes sum, histograms merge bucket-wise). Returns ``(report,
        reporting_workers)``."""
        from repro.core.tenancy import merge_reports

        reports = [report for _, report in self._collect("tenant_stats")
                   if report is not None]
        return merge_reports(reports), len(reports)

    def cache_service_stats(self) -> Optional[dict]:
        if self._cache_client is None:
            return None
        return self._cache_client.call("stats")

    def result_cache_stats(self) -> Optional[dict]:
        """Fleet-wide result-cache counters: every worker's snapshot
        summed (None when no worker has a result cache)."""
        per_worker = [stats for _, stats
                      in self._collect("result_cache_stats")
                      if stats is not None]
        if not per_worker:
            return None
        fleet: dict[str, float] = {}
        for stats in per_worker:
            for name, value in stats.items():
                if name == "hit_rate":
                    continue
                fleet[name] = fleet.get(name, 0) + value
        lookups = fleet.get("hits", 0) + fleet.get("misses", 0)
        fleet["hit_rate"] = fleet.get("hits", 0) / lookups if lookups else 0.0
        fleet["workers"] = len(per_worker)
        return fleet

    @property
    def restarts(self) -> dict[int, int]:
        return dict(self._restarts)

    def alive_workers(self) -> list[int]:
        with self._lock:
            return sorted(self._alive)
