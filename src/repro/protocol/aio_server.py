"""The asyncio wire driver: every session of a worker on one event loop.

The threaded driver (:mod:`repro.protocol.server`) dedicates an OS thread to
each connection; at the Section 7.3 stress scale — hundreds of mostly-idle
BI sessions — those threads spend their lives blocked in ``recv`` while the
GIL shuffles the few that are runnable. This module multiplexes all of a
worker's connections onto a single event loop. Every protocol decision
lives in :mod:`repro.protocol.session`; what is left here is how this
driver reads, writes and runs a blocking call:

* **Read.** Frames are parsed with ``StreamReader.readexactly``.
* **Write.** Header and payload go out as separate views (no
  concatenation); ``await writer.drain()`` gives per-connection
  backpressure bounded by the transport's write-buffer high-water mark, so
  a slow client stalls only its own chunk pump, never the loop.
* **Run a blocking call.** Every one — execute, managed wait, each chunk
  pull — hops to a bounded executor; a deadline is an ``asyncio.wait``
  timeout around that hop. Teardown also runs there, behind whatever call
  the connection last submitted, so a generator is never closed while an
  executor thread is still inside it.

The server is API-compatible with :class:`HyperQServer` where the gateway
and the test-suites touch it: ``process_request`` (SCM_RIGHTS socket
adoption), ``begin_drain``/``drained``, ``server_close``, ``address``,
``next_session_id``, ``draining``.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Optional

from repro.errors import ProtocolError
from repro.core.engine import HyperQ
from repro.protocol.messages import HEADER, MAGIC, MAX_PAYLOAD, MessageKind, \
    parse_header
from repro.protocol.session import IDLE, Blocking, Overrun, WireSession

#: Default transport write-buffer high-water mark: above this many buffered
#: bytes ``drain()`` blocks the chunk pump until the client catches up.
WRITE_HIGH_WATER = 256 * 1024


async def read_frame(reader: asyncio.StreamReader) -> tuple[MessageKind, bytes]:
    """Read one wire frame; validation matches the blocking reader."""
    header = await reader.readexactly(HEADER.size)
    kind, length = parse_header(header)
    payload = await reader.readexactly(length) if length else b""
    return kind, payload


def _silence(future) -> None:
    """Mark an abandoned future's exception as retrieved."""
    if not future.cancelled():
        future.exception()


class _AioConnection:
    """Loop-side state for one client connection."""

    __slots__ = ("reader", "writer", "core", "pending")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, core: WireSession):
        self.reader = reader
        self.writer = writer
        self.core = core
        #: The executor call this connection submitted last. Teardown
        #: waits for it before anything else: after a cancellation it may
        #: still be running.
        self.pending = None


class AioHyperQServer:
    """Asyncio wire server wrapping one Hyper-Q engine.

    Owns a dedicated event-loop thread. ``bind=True`` listens on
    ``host:port``; ``bind=False`` serves only sockets handed over through
    :meth:`process_request` (the gateway worker shape).
    """

    def __init__(self, engine: HyperQ, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: Optional[float] = None,
                 max_connections: int = 64, bind: bool = True,
                 executor_workers: Optional[int] = None,
                 write_high_water: int = WRITE_HIGH_WATER):
        self.engine = engine
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self.write_high_water = write_high_water
        self.draining = False
        if executor_workers is None:
            cpus = os.cpu_count() or 2
            # Enough threads to keep every core busy plus headroom for
            # requests blocked in the workload manager's queue; never more
            # than one per admissible connection.
            executor_workers = max(4, min(max_connections, cpus * 4))
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="hyperq-aio")
        self._host = host
        self._port = port
        self._bind = bind
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aserver: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._conns: set[_AioConnection] = set()
        self._conns_lock = threading.Lock()
        self._session_counter = 0
        self._counter_lock = threading.Lock()
        self._sema: Optional[asyncio.Semaphore] = None
        self._closed = False
        #: High-water mark of transport write-buffer bytes observed across
        #: all connections — the backpressure test's bound.
        self.peak_write_buffer = 0
        #: Executor-side calls currently in flight (cancellation test
        #: hook: must fall to zero after a client disconnect).
        self.active_pulls = 0
        self._pull_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Start the loop thread (and listener with ``bind=True``)."""
        self._thread = threading.Thread(target=self._run_loop,
                                        name="hyperq-aio-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("asyncio wire server failed to start")
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._sema = asyncio.Semaphore(self.max_connections)
        try:
            if self._bind:
                self._aserver = loop.run_until_complete(asyncio.start_server(
                    self._serve_client, self._host, self._port, backlog=128))
        except BaseException as error:  # noqa: BLE001 — surface via start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            try:
                if self._aserver is not None:
                    self._aserver.close()
                    loop.run_until_complete(self._aserver.wait_closed())
                    # Its protocol factory holds _serve_client: drop the
                    # cycle so a stopped server frees by refcount alone.
                    self._aserver = None
                tasks = asyncio.all_tasks(loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    # Cancelled connection tasks still run their cleanup
                    # finallys (session close via the executor); bound the
                    # wait so a wedged task cannot hang shutdown.
                    loop.run_until_complete(
                        asyncio.wait(tasks, timeout=5))
            finally:
                loop.close()

    @property
    def address(self) -> tuple[str, int]:
        if self._aserver is None or not self._aserver.sockets:
            return self._host, 0
        host, port = self._aserver.sockets[0].getsockname()[:2]
        return str(host), int(port)

    def next_session_id(self) -> int:
        with self._counter_lock:
            self._session_counter += 1
            return self._session_counter

    # -- graceful drain ---------------------------------------------------------------

    def begin_drain(self) -> None:
        """Mirror of the threaded drain: no new sessions register, idle
        connections see EOF now, busy ones finish their current request
        (the client gets its full reply) before the serve loop exits."""
        loop = self._loop

        def _do() -> None:
            self.draining = True
            with self._conns_lock:
                conns = list(self._conns)
            for conn in conns:
                if not conn.core.busy:
                    # EOF queues *behind* already-buffered bytes, so a
                    # request that raced the drain still parses and gets
                    # served — same semantics as SHUT_RD on the threaded
                    # path.
                    conn.reader.feed_eof()

        if loop is None or loop.is_closed():
            self.draining = True
            return
        try:
            loop.call_soon_threadsafe(_do)
        except RuntimeError:
            self.draining = True

    def drained(self) -> bool:
        with self._conns_lock:
            return not self._conns

    def _register(self, conn: _AioConnection) -> bool:
        with self._conns_lock:
            if self.draining:
                return False
            self._conns.add(conn)
            return True

    def _unregister(self, conn: _AioConnection) -> None:
        with self._conns_lock:
            self._conns.discard(conn)

    # -- shutdown ---------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the event loop (compat with ``HyperQServer.shutdown``)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.shutdown()
        if self._thread is not None \
                and self._thread is not threading.current_thread():
            self._thread.join(timeout=10)
        # Queued teardown tasks still run; shutdown only stops new submits.
        self._executor.shutdown(wait=False)

    # -- gateway socket adoption --------------------------------------------------------

    def process_request(self, sock: socket.socket, client_address) -> None:
        """Adopt an accepted socket (SCM_RIGHTS handoff from the gateway
        acceptor). Thread-safe; the loop takes ownership of *sock*."""
        loop = self._loop
        if loop is None or loop.is_closed():
            try:
                sock.close()
            except OSError:
                pass
            return
        asyncio.run_coroutine_threadsafe(self._serve_socket(sock), loop)

    async def _serve_socket(self, sock: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except OSError:
            try:
                sock.close()
            except OSError:
                pass
            return
        await self._serve_client(reader, writer)

    # -- connection serving -------------------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        async with self._sema:
            conn = _AioConnection(reader, writer, WireSession(self))
            core = conn.core
            registered = False
            try:
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    try:
                        sock.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
                    except OSError:
                        pass
                writer.transport.set_write_buffer_limits(
                    high=self.write_high_water)
                await self._drive(
                    conn, core.on_frame(*await read_frame(reader)))
                registered = core.phase == IDLE and self._register(conn)
                # `busy` flips inside on_frame(), with no await between the
                # read returning and the flag — race-free against `_do`.
                while registered and core.phase == IDLE:
                    await self._drive(
                        conn, core.on_frame(*await read_frame(reader)))
            except (ProtocolError, ConnectionError, OSError,
                    asyncio.IncompleteReadError):
                return
            except asyncio.CancelledError:
                # Loop shutdown cancels connection tasks; cleanup below
                # still runs, and swallowing here keeps the streams-module
                # connection_made callback from logging the cancellation.
                return
            except Exception:  # noqa: BLE001 — parity with handle_error()
                return
            finally:
                if registered:
                    self._unregister(conn)
                # Close the writer now; the blocking teardown goes to the
                # executor.
                try:
                    self._executor.submit(core.close, conn.pending)
                except RuntimeError:
                    # Executor already shut down (server closing).
                    core.close(conn.pending)
                try:
                    writer.close()
                except Exception:  # noqa: BLE001
                    pass

    async def _drive(self, conn: _AioConnection, steps: Iterator) -> None:
        """Perform *steps*' effects: await the writes, hop the calls."""
        try:
            effect = next(steps)
            while True:
                try:
                    if type(effect) is tuple:
                        value = await self._send(conn, *effect)
                    else:
                        value = await self._run(conn, effect)
                except asyncio.CancelledError:
                    # Not thrown into the core: the call may still be
                    # running, and core.close() finalizes behind it.
                    raise
                except BaseException as error:
                    effect = steps.throw(error)
                else:
                    effect = steps.send(value)
        except StopIteration:
            return

    async def _run(self, conn: _AioConnection, call: Blocking):
        future = conn.pending = self._executor.submit(self._tracked, call.fn)
        wrapped = asyncio.wrap_future(future)
        if call.deadline is None:
            return await wrapped
        done, __ = await asyncio.wait([wrapped], timeout=call.deadline)
        if not done:
            wrapped.add_done_callback(_silence)
            raise Overrun(future)
        return wrapped.result()

    def _tracked(self, fn):
        with self._pull_lock:
            self.active_pulls += 1
        try:
            return fn()
        finally:
            with self._pull_lock:
                self.active_pulls -= 1

    async def _send(self, conn: _AioConnection, kind: MessageKind,
                    payload: bytes = b"") -> None:
        """Write one frame as header + payload views and drain.

        ``drain()`` returns immediately below the transport's high-water
        mark and blocks above it — per-connection backpressure without a
        copy or a syscall per frame.
        """
        if len(payload) > MAX_PAYLOAD:
            raise ProtocolError(
                f"payload of {len(payload)} bytes exceeds limit")
        writer = conn.writer
        writer.write(HEADER.pack(MAGIC, int(kind), len(payload)))
        if payload:
            writer.write(payload)
        size = writer.transport.get_write_buffer_size()
        if size > self.peak_write_buffer:
            self.peak_write_buffer = size
        await writer.drain()


class AioServerThread:
    """Runs an :class:`AioHyperQServer`; drop-in for :class:`ServerThread`.

    Usage::

        with AioServerThread(engine) as address:
            client = TdClient(*address)
    """

    def __init__(self, engine: HyperQ, host: str = "127.0.0.1", port: int = 0,
                 request_timeout: Optional[float] = None,
                 max_connections: int = 64):
        self.server = AioHyperQServer(engine, host, port,
                                      request_timeout=request_timeout,
                                      max_connections=max_connections)

    def start(self) -> tuple[str, int]:
        return self.server.start()

    def stop(self) -> None:
        self.server.server_close()

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
