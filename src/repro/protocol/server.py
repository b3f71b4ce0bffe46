"""The threaded wire driver: one pooled OS thread per connection.

Every protocol decision lives in :mod:`repro.protocol.session`; this module
supplies the three things that state machine cannot do itself — read a
frame (blocking ``recv``), write a frame (``sendmsg``; a slow client blocks
the thread, which is the backpressure) and run a blocking call, which here
means *call it*, inline on the connection thread. Only a call that carries
a deadline (``request_timeout`` set, no workload manager) moves to the
connection's own single worker thread, so that the connection thread can
give up waiting; one thread, so a straggler and the next request can never
touch the session concurrently.

Connections are served by a *bounded* pool of workers
(``max_connections``) — the unbounded thread-per-connection shape fell over
exactly where the Section 7.3 stress test lives, at hundreds of concurrent
clients. Excess connections queue at accept until a worker frees up.
"""

from __future__ import annotations

import functools
import os
import queue
import socket
import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Optional

from repro.errors import ProtocolError
from repro.core.engine import HyperQ
from repro.protocol.messages import read_message, send_message
from repro.protocol.session import IDLE, Blocking, Overrun, WireSession, drive
from repro.protocol.session import RequestState  # noqa: F401 — part of this module's import surface


class _ConnectionHandler(socketserver.BaseRequestHandler):
    server: "HyperQServer"

    def handle(self) -> None:
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.core = core = WireSession(self.server)
        self._executor: Optional[ThreadPoolExecutor] = None
        send = functools.partial(send_message, sock)
        registered = False
        try:
            drive(core.on_frame(*read_message(sock)), send, self._run)
            registered = core.phase == IDLE \
                and self.server.register_handler(self)
            while registered and core.phase == IDLE:
                drive(core.on_frame(*read_message(sock)), send, self._run)
        except (ProtocolError, ConnectionError, OSError):
            return
        finally:
            if registered:
                self.server.unregister_handler(self)
            core.close()
            if self._executor is not None:
                self._executor.shutdown(wait=False)

    def _run(self, call: Blocking):
        if call.deadline is None:
            return call.fn()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="hyperq-request")
        future = self._executor.submit(call.fn)
        try:
            return future.result(timeout=call.deadline)
        except FutureTimeoutError:
            if future.done():
                # Landed at the wire, or raised a TimeoutError of its own.
                return future.result()
            raise Overrun(future) from None


class _ConnectionPool:
    """A lazy, bounded pool of daemon worker threads for connections.

    Deliberately not :class:`~concurrent.futures.ThreadPoolExecutor`: its
    workers are non-daemon and joined at interpreter exit, so one stuck
    client connection would hang shutdown — the property the old
    ``daemon_threads = True`` server relied on. Threads spawn on demand up
    to ``max_workers`` and block on the task queue when idle; beyond the
    cap, accepted connections queue until a worker frees up.
    """

    def __init__(self, max_workers: int, name_prefix: str = "hyperq-conn"):
        if max_workers < 1:
            raise ValueError("connection pool needs at least one worker")
        self._max = max_workers
        self._prefix = name_prefix
        self._tasks: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._idle = 0
        self._pending = 0
        self._closed = False

    def submit(self, fn, *args) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("connection pool is closed")
            # Spawn on outstanding demand, not a raw idle count: a worker
            # marks itself idle *before* consuming an earlier queued task,
            # so "an idle worker exists" does not mean one is coming for
            # this task — during an accept burst that under-spawns and
            # strands the connection behind long-lived ones.
            self._pending += 1
            if self._pending > self._idle and len(self._threads) < self._max:
                thread = threading.Thread(
                    target=self._worker,
                    name=f"{self._prefix}-{len(self._threads)}",
                    daemon=True)
                self._threads.append(thread)
                thread.start()
        self._tasks.put((fn, args))

    def _worker(self) -> None:
        while True:
            with self._lock:
                self._idle += 1
            task = self._tasks.get()
            with self._lock:
                self._idle -= 1
                if task is not None:  # poison pills are not pending tasks
                    self._pending -= 1
            if task is None:
                return
            fn, args = task
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 — handler errors die with the
                pass           # connection, never with the worker

    def close(self, on_cancel=None, join_timeout: float = 2.0) -> None:
        """Drain and join the pool.

        Queued-but-unstarted tasks are cancelled (handed to *on_cancel* so
        the server can close their accepted sockets instead of leaking
        them), every worker is woken with a poison pill, and workers are
        joined up to *join_timeout* seconds total. A worker still serving a
        stuck connection past the deadline is abandoned — threads are
        daemonic, so they never block interpreter exit — but the normal
        stop path sees every worker land before the listening socket
        closes.
        """
        with self._lock:
            self._closed = True
            threads = list(self._threads)
        # Cancel queued tasks first so no worker picks up a new connection
        # between the drain and the pills.
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                break
            if task is None:
                continue
            with self._lock:
                self._pending -= 1
            if on_cancel is not None:
                try:
                    on_cancel(task[1])
                except Exception:  # noqa: BLE001 — best-effort cleanup
                    pass
        for __ in range(len(threads)):
            self._tasks.put(None)
        deadline = time.monotonic() + join_timeout
        for thread in threads:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)


class HyperQServer(socketserver.TCPServer):
    """TCP server wrapping one Hyper-Q engine.

    Sessions created here share the engine's translation cache, so a hot
    statement warmed by one connection is a cache hit for every other —
    which is why ADV overhead *shrinks* under concurrency (Figure 9b).

    ``max_connections`` bounds concurrently-served connections: accepted
    sockets beyond the cap wait in the pool's task queue, and
    ``request_queue_size`` bounds the kernel listen backlog behind that, so
    connection storms queue instead of spawning unbounded threads.
    ``request_timeout`` (seconds, None = unlimited) is the per-request
    deadline after which the client receives a FAILURE reply.
    """

    allow_reuse_address = True
    request_queue_size = 128

    def __init__(self, engine: HyperQ, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: Optional[float] = None,
                 max_connections: int = 64, bind: bool = True):
        self.engine = engine
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self._pool = _ConnectionPool(max_connections)
        self._session_counter = 0
        self._counter_lock = threading.Lock()
        #: Graceful-drain state: once set, idle connections are closed,
        #: busy ones finish their current request then close, and no new
        #: handler may register.
        self.draining = False
        self._handlers: set = set()
        self._handlers_lock = threading.Lock()
        # bind=False leaves the listening socket unbound: gateway workers
        # never accept themselves — they serve sockets handed off by the
        # acceptor process via process_request().
        super().__init__((host, port), _ConnectionHandler,
                         bind_and_activate=bind)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def next_session_id(self) -> int:
        with self._counter_lock:
            self._session_counter += 1
            return self._session_counter

    # -- graceful drain ---------------------------------------------------------------

    def register_handler(self, handler) -> bool:
        """Track a live connection; refused (False) once draining started,
        so a connection that raced the drain closes instead of serving."""
        with self._handlers_lock:
            if self.draining:
                return False
            self._handlers.add(handler)
            return True

    def unregister_handler(self, handler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)

    def begin_drain(self) -> None:
        """Start a graceful drain: no new requests are served, connections
        idle between requests are closed now, and a connection mid-request
        finishes that request (the client gets its full reply) before its
        serve loop exits. Callers stop the accept loop separately and poll
        :meth:`drained` (or just join the serving thread) afterwards."""
        with self._handlers_lock:
            self.draining = True
            handlers = list(self._handlers)
        for handler in handlers:
            if not handler.core.busy:
                # Shut only the read half: the handler's read_message()
                # unblocks with EOF, while a request that raced the drain
                # (read completed, `busy` not yet set) can still ship its
                # reply on the intact write half before the loop exits.
                try:
                    handler.request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass

    def drained(self) -> bool:
        with self._handlers_lock:
            return not self._handlers

    # -- bounded accept-side concurrency ---------------------------------------------

    def process_request(self, request, client_address) -> None:
        """Serve the connection on the bounded worker pool (replacing
        ThreadingMixIn's unbounded thread-per-connection)."""
        self._pool.submit(self._process_request_pooled, request,
                          client_address)

    def _process_request_pooled(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:  # noqa: BLE001 — mirror BaseServer's handling
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # Connection-level failures are expected under fault injection and
        # client storms; never spam stderr with tracebacks for them.
        pass

    def server_close(self) -> None:
        # Drain and join the connection pool *before* the listening socket
        # closes: queued accepted sockets are shut down instead of leaked,
        # and no worker thread outlives the server (repeated start/stop in
        # tests must not accumulate threads or ResourceWarnings).
        self._pool.close(on_cancel=self._cancel_queued_connection)
        super().server_close()

    def _cancel_queued_connection(self, args) -> None:
        """Close an accepted socket whose task never reached a worker."""
        request = args[0]
        self.shutdown_request(request)


class ServerThread:
    """Runs a :class:`HyperQServer` on a background thread.

    Usage::

        with ServerThread(engine) as address:
            client = TdClient(*address)

    Setting ``HQ_WIRE=async`` in the environment swaps in the asyncio wire
    path (:class:`repro.protocol.aio_server.AioServerThread`) — the hook CI's
    wire-matrix job uses to run the whole integration/resilience battery
    against both servers without touching any test.
    """

    def __new__(cls, *args, **kwargs):
        if cls is ServerThread \
                and os.environ.get("HQ_WIRE", "").lower() == "async":
            from repro.protocol.aio_server import AioServerThread

            # Returning a non-subclass instance skips cls.__init__; the
            # async thread wrapper exposes the same start/stop/server API.
            return AioServerThread(*args, **kwargs)
        return super().__new__(cls)

    def __init__(self, engine: HyperQ, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: Optional[float] = None,
                 max_connections: int = 64):
        self.server = HyperQServer(engine, host, port,
                                   request_timeout=request_timeout,
                                   max_connections=max_connections)
        self._thread: Optional[threading.Thread] = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        name="hyperq-server", daemon=True)
        self._thread.start()
        return self.server.address

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
