"""The Protocol Handler's decisions, written once and free of I/O.

Section 4.1's handler intercepts the application's message flow, extracts
credentials and request payloads, hands them to the engine and packages
the responses back into the binary format the application expects. Every
*decision* of that job lives here, in :class:`WireSession`; the two servers
(:mod:`repro.protocol.server`, :mod:`repro.protocol.aio_server`) only know
how to read a frame, write a frame and run a blocking call.

A driver feeds each inbound frame to :meth:`WireSession.on_frame` and
performs the effects the returned generator yields:

* a ``(MessageKind, payload)`` tuple — write that frame to the client;
* a :class:`Blocking` — run ``fn()`` (it may block for as long as the
  backend takes) and send its return value back into the generator. With a
  ``deadline`` the driver runs it on a worker and, if it is still running
  when the deadline passes, throws :class:`Overrun` carrying the future.

A failed effect (the write raised, ``fn`` raised) is thrown back into the
generator, which is how a dead client finishes the request's trace and
releases its result. When the connection ends, for whatever reason, the
driver calls :meth:`WireSession.close` exactly once.

Connection phases (``WireSession.phase``) and what moves between them:

===========  ===================  ==========================================
phase        on                   effects, then next phase
===========  ===================  ==========================================
logon        LOGON_REQUEST        resolve tenant, create session, reply
                                  LOGON_RESPONSE -> idle; unknown tenant:
                                  FAILURE -> draining
idle         RUN_QUERY            -> running
idle         LOGOFF               -> draining
running      (request prologue)   trace start, ``wire``/``gateway`` fault
                                  draws; wait for a straggler; run the
                                  statement (managed or direct, one
                                  deadline policy); error: FAILURE -> idle;
                                  injected disconnect -> draining
running      result ready         -> streaming
streaming    chunk pulls          RESULT_META, RESULT_ROWS..., SUCCESS (or
                                  FAILURE mid-stream: ``truncated``);
                                  result closed, trace finished -> idle, or
                                  -> draining when the server is draining
draining     :meth:`close`        in-flight call -> open result and trace
                                  -> straggler -> ``session.close()``
                                  -> closed
===========  ===================  ==========================================

Any other frame kind, or any error the table does not name, raises out of
the generator; the driver drops the connection and calls :meth:`close`.
"""

from __future__ import annotations

import functools
import os
import struct
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as wait_futures
from typing import Callable, Iterator, Optional

from repro.errors import (BackendTimeoutError, HyperQError, ProtocolError,
                          UnknownTenantError)
from repro.core import faults as flt
from repro.core import trace as trace_mod
from repro.core.engine import HQResult
from repro.protocol.encoding import encode_meta
from repro.protocol.messages import MessageKind

LOGON, IDLE, RUNNING, STREAMING, DRAINING, CLOSED = (
    "logon", "idle", "running", "streaming", "draining", "closed")

#: Returned by a chunk pull at end of stream.
_DONE = object()


class Blocking:
    """Effect: run ``fn()`` off the critical path of other connections."""

    __slots__ = ("fn", "deadline")

    def __init__(self, fn: Callable[[], object],
                 deadline: Optional[float] = None):
        self.fn = fn
        self.deadline = deadline


class Overrun(Exception):
    """Driver -> core: the call is still running past its deadline."""

    def __init__(self, future):
        super().__init__("blocking call overran its deadline")
        self.future = future


class RequestState:
    """Per-connection request bookkeeping.

    Holds the straggler (a timed-out request still running on a pool
    thread, which must land before the session is touched again or
    closed) and the workload class of the request in flight (for trace
    finishing).
    """

    __slots__ = ("straggler", "wl_class")

    def __init__(self):
        self.straggler = None
        self.wl_class: Optional[str] = None


def drive(steps: Iterator, send: Callable[[MessageKind, bytes], None],
          run: Callable[[Blocking], object]) -> None:
    """Perform *steps*' effects synchronously on the calling thread."""
    try:
        effect = next(steps)
        while True:
            try:
                value = send(*effect) if type(effect) is tuple \
                    else run(effect)
            except BaseException as error:  # the core finishes trace/result
                effect = steps.throw(error)
            else:
                effect = steps.send(value)
    except StopIteration:
        return


def _discard_result(future) -> None:
    """Release whatever a timed-out straggler eventually produced."""
    if future.cancelled():
        return  # never ran; result() would raise CancelledError
    try:
        result = future.result()
    except BaseException:  # noqa: BLE001 — its error already became a reply
        return
    if result is not None:
        result.close()


class WireSession:
    """One client connection's protocol state machine (see module doc).

    *server* supplies ``engine``, ``request_timeout``, ``draining`` and
    ``next_session_id()``; nothing here touches a socket or a thread.
    """

    def __init__(self, server):
        self.server = server
        self.engine = server.engine
        self.phase = LOGON
        self.session = None
        self.state = RequestState()
        #: The generator answering the current frame. Held here so that a
        #: driver abandoning it mid-request (cancellation) cannot finalize
        #: it — and close its result — before :meth:`close` has waited for
        #: the in-flight call.
        self._steps: Optional[Iterator] = None

    @property
    def busy(self) -> bool:
        """Mid-request: a graceful drain must let the reply finish."""
        return self.phase in (RUNNING, STREAMING)

    def on_frame(self, kind: MessageKind, payload: bytes) -> Iterator:
        """Effects answering one inbound frame."""
        if self.phase == LOGON:
            if kind is not MessageKind.LOGON_REQUEST:
                raise ProtocolError("expected LOGON_REQUEST")
            steps = self._logon(payload)
        elif kind is MessageKind.LOGOFF:
            self.phase = DRAINING
            steps = iter(())
        elif kind is MessageKind.RUN_QUERY and self.phase == IDLE:
            # Busy from here, before any effect runs, so a drain never
            # cuts a query that has already been read off the socket.
            self.phase = RUNNING
            steps = self._request(payload)
        else:
            raise ProtocolError(f"unexpected message {kind.name}")
        self._steps = steps
        return steps

    # -- logon ------------------------------------------------------------------------

    def _logon(self, payload: bytes) -> Iterator:
        # ``user\0password`` with an optional third ``\0tenant`` field
        # (absent for legacy clients — they land on the default tenant).
        fields = payload.split(b"\0", 2)
        user = fields[0].decode("utf-8", "replace")
        tenancy = self.engine.tenancy
        if tenancy is not None:
            field = fields[2].decode("utf-8", "replace") \
                if len(fields) > 2 else ""
            try:
                tenant = tenancy.resolve(field or None)
            except UnknownTenantError as error:
                # Rejected at the door: FAILURE instead of LOGON_RESPONSE.
                self.phase = DRAINING
                yield MessageKind.FAILURE, str(error).encode("utf-8")
                return
        session = self.session = self.engine.create_session()
        session.session_params["USER"] = user.upper() or "HYPERQ"
        if tenancy is not None:
            session.session_params["TENANT"] = tenant
        yield (MessageKind.LOGON_RESPONSE,
               struct.pack(">I", self.server.next_session_id()))
        self.phase = IDLE

    # -- one request --------------------------------------------------------------------

    def _request(self, payload: bytes) -> Iterator:
        """Serve one RUN_QUERY under a request-scoped trace.

        The trace roots here so every layer below (engine, workload pool,
        converter, wire encode) nests under one span tree per request. No
        context variable is held across a ``yield``: each callable handed
        to the driver activates its span itself, so the tree is the same
        whichever thread the driver runs it on.
        """
        engine = self.engine
        faults = engine.faults
        hub = engine.tracing
        trace = hub.start_trace("request") if hub.enabled else None
        root = trace.root if trace is not None else None
        self.state.wl_class = None
        outcome = "ok"
        next_phase = IDLE
        try:
            with trace_mod.activate(root):
                with trace_mod.span("protocol_decode", bytes=len(payload)):
                    sql = payload.decode("utf-8")
                    fault = (faults.draw("wire", op=sql)
                             if faults is not None else None)
                if trace is not None:
                    trace.sql = sql
                    root.annotate("sql", sql[:200])
                if fault is not None and fault.kind == flt.WIRE_DISCONNECT:
                    engine.resilience.note("wire_disconnect")
                    faults.record("wire_disconnect", seq=fault.seq)
                    trace_mod.add_event("wire_disconnect", seq=fault.seq)
                    outcome = "wire_disconnect"
                    # Abrupt: no FAILURE envelope, no LOGOFF — the client
                    # sees the connection die as with a real network cut.
                    next_phase = DRAINING
                    return
                replica = engine.worker_index
                if faults is not None and replica is not None:
                    gw_fault = faults.draw("gateway", op=sql, replica=replica)
                    if gw_fault is not None \
                            and gw_fault.kind == flt.WORKER_CRASH:
                        # Abrupt worker death: no reply, no cleanup — the
                        # gateway supervisor must detect and restart us.
                        os._exit(86)
            delay = fault.delay if fault is not None \
                and fault.kind == flt.SLOW_RESULT else 0.0
            try:
                result = yield from self._execute(sql, delay, root)
            except HyperQError as error:  # timeouts, sheds, queue expiry
                outcome = f"error:{type(error).__name__}"
                yield MessageKind.FAILURE, str(error).encode("utf-8")
                return
            except Exception as error:  # noqa: BLE001 — reply, don't drop
                outcome = f"error:{type(error).__name__}"
                yield (MessageKind.FAILURE,
                       f"internal error: {error}".encode("utf-8"))
                return
            yield from self._frames(result, root)
        except BaseException as error:  # connection died mid-reply
            outcome = f"error:{type(error).__name__}"
            next_phase = DRAINING
            raise
        finally:
            if trace is not None:
                hub.finish_trace(trace, outcome,
                                 wl_class=self.state.wl_class)
            self.phase = DRAINING if self.server.draining else next_phase

    def _execute(self, sql: str, delay: float, root) -> Iterator:
        """Run the statement, managed or direct; returns the HQResult."""
        # The straggler must land before *anything* touches the session —
        # classification binds on the session's probe stack, so even
        # deciding first would race the straggler's execute.
        if self.state.straggler is not None:
            yield Blocking(self._await_straggler)
        if self.engine.workload is not None:
            # Straggler drain aside, the managed flow (classify -> submit
            # -> wait) is one blocking unit: it holds the connection's
            # thread, or one executor slot, while the request is queued.
            return (yield Blocking(functools.partial(
                self._run_managed, sql, delay, root)))
        session = self.session

        def work() -> HQResult:
            with trace_mod.activate(root):
                if delay > 0:
                    time.sleep(delay)
                return session.execute(sql)

        timeout = self.server.request_timeout
        try:
            return (yield Blocking(work, timeout))
        except Overrun as overrun:
            self._timed_out(overrun.future, timeout)

    def _run_managed(self, sql: str, delay: float, root) -> HQResult:
        """Route one request through the workload manager (blocking).

        Shed and queue-deadline rejections raise
        :class:`~repro.errors.WorkloadError` subclasses, which become
        FAILURE replies on a live connection.
        """
        manager = self.engine.workload
        session = self.session
        with trace_mod.activate(root):
            with trace_mod.span("classify") as cspan:
                decision = manager.decide(session, sql)
                if cspan is not None:
                    cspan.annotate("wl_class", decision.wl_class)
                    cspan.annotate("reason", decision.reason)
            self.state.wl_class = decision.wl_class
            # Timed from submit to work start, on the pool worker.
            qspan = trace_mod.begin_span("queue_wait",
                                         wl_class=decision.wl_class)

            def work() -> HQResult:
                # The pool worker gets a fresh context: hand the span over.
                with trace_mod.activate(root):
                    if qspan is not None:
                        qspan.finish()
                    # Unconditional: None restores the engine default,
                    # clearing a previous request's per-class override.
                    session.apply_batch_budget(decision.budget)
                    if delay > 0:
                        time.sleep(delay)
                    return session.execute(sql)

            ticket = manager.submit(session, sql, work, decision)
            timeout = self.server.request_timeout
            try:
                return manager.wait(ticket, timeout)
            except FutureTimeoutError:
                self._timed_out(ticket.future, timeout)

    def _timed_out(self, future, timeout: float) -> None:
        """The one deadline policy: the client gets a FAILURE now, the
        overrunning call becomes the connection's straggler and its result
        is discarded (and closed) when it eventually lands."""
        engine = self.engine
        engine.resilience.note("timeout")
        if engine.faults is not None:
            engine.faults.record("timeout", timeout=f"{timeout:g}")
        # A future cancelled while still queued never ran: there is nothing
        # to discard and no straggler, and registering the callback would
        # fire it synchronously with a CancelledError.
        if not future.cancelled():
            future.add_done_callback(_discard_result)
            if not future.done():
                self.state.straggler = future
        raise BackendTimeoutError(
            f"request timed out after {timeout:g}s") from None

    def _await_straggler(self) -> None:
        """Block until the connection's timed-out request (if any) lands."""
        straggler, self.state.straggler = self.state.straggler, None
        if straggler is not None:
            wait_futures([straggler])

    # -- result framing -----------------------------------------------------------------

    def _frames(self, result: HQResult, root) -> Iterator:
        """Ship one result, streaming row chunks as they convert.

        Each chunk is pulled (the backend fetch and the encode both happen
        lazily inside ``next``) only after the previous frame was written, so a
        slow client exerts backpressure all the way into the backend
        executor. The final SUCCESS frame carries the row total accumulated
        by the stream.
        """
        self.phase = STREAMING
        with trace_mod.activate(root):
            span = trace_mod.begin_span("wire_encode")
        outcome = None
        try:
            if result.kind == "rows":
                yield MessageKind.RESULT_META, encode_meta(result.metas)
                sent = 0
                chunks = result.iter_chunks()

                def next_chunk():
                    # The conversion generator opens its result_convert
                    # span at first pull; it must nest under wire_encode.
                    with trace_mod.activate(span):
                        return next(chunks, _DONE)

                pull = Blocking(next_chunk)
                try:
                    while True:
                        chunk = yield pull
                        if chunk is _DONE:
                            break
                        if chunk:
                            yield MessageKind.RESULT_ROWS, chunk
                            sent += len(chunk)
                except HyperQError as error:
                    # Mid-stream failure: some rows may already be on the
                    # wire; the FAILURE frame marks the result truncated.
                    yield MessageKind.FAILURE, str(error).encode("utf-8")
                    outcome = "truncated"
                    return
                finally:
                    if span is not None:
                        span.annotate("bytes", sent)
                yield MessageKind.SUCCESS, struct.pack(">Q", result.rowcount)
                if span is not None:
                    span.annotate("rows", result.rowcount)
            elif result.kind == "count":
                count = struct.pack(">Q", result.rowcount)
                yield MessageKind.RESULT_COUNT, count
                yield MessageKind.SUCCESS, count
                if span is not None:
                    span.annotate("rows", result.rowcount)
            else:
                yield MessageKind.SUCCESS, struct.pack(">Q", 0)
        except BaseException as error:
            outcome = f"error:{type(error).__name__}"
            raise
        finally:
            # Release converted buffers as soon as the last frame ships (or
            # the attempt aborts) — nothing row-sized survives per session.
            result.close()
            if span is not None:
                span.finish(outcome)

    # -- teardown -----------------------------------------------------------------------

    def close(self, pending=None) -> None:
        """End the connection; blocks until everything it owned is released.

        The order is the only safe one. *pending* — a call the driver
        abandoned while it was still running — must land before the result
        closes (a generator cannot be closed while another thread is inside
        ``next`` on it); the result and the request's trace go next; a
        straggler must land before the session closes under it — closing
        first would yank its converter away. Sessions close on *every* exit
        path: a client that vanishes mid-request must not leak its
        volatile-table overlay, converter resources or an open ResultStore.
        """
        self.phase = DRAINING
        if pending is not None:
            wait_futures([pending], timeout=30)
        steps, self._steps = self._steps, None
        if steps is not None:
            try:
                steps.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        self._await_straggler()
        session, self.session = self.session, None
        if session is not None:
            try:
                session.close()
            except Exception:  # noqa: BLE001
                pass
        self.phase = CLOSED
