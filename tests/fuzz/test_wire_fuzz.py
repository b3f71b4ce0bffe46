"""Seeded fuzzing of the wire-protocol frame parser, on both wire paths.

Feeds malformed byte sequences — truncated frames, oversized length
prefixes, bad magic, unknown kinds, garbage mid-stream, and pathological
1-byte split sends — at a live server and asserts the invariants that make
the protocol layer safe to expose:

* the server answers with a clean FAILURE or closes the connection — it
  never hangs holding a half-parsed frame;
* no FAILURE payload ever leaks an internal traceback;
* no session and no result buffer outlives its connection
  (``engine.open_session_count`` and ``ResultStore.open_count`` return to
  baseline after the whole corpus).

A third, socket-free leg (:class:`TestCoreFuzz`) feeds the same corpus
straight into the sans-IO session core — bytes in, frames out, blocking
calls run inline — so it affords ten times the cases per seed, and asserts
more: every reply is a grammatical frame sequence, no result stays open,
and each session is closed exactly once. The socket legs then only have to
guard the two thin drivers.

The corpus is deterministic per seed. CI runs the default seed; the
nightly job widens coverage by exporting ``HQ_FUZZ_SEED`` (one extra seed
per run) and ``HQ_FUZZ_CASES`` without any code change. When a case fails,
the test greedily minimizes the byte sequence (drop-a-span to a fixpoint,
RISE-style) and prints the minimized hex so the failure is replayable in a
commit message or a regression corpus entry.
"""

import functools
import io
import itertools
import os
import random
import socket
import struct
import time

import pytest

from repro.errors import HyperQError, ProtocolError
from repro.core.engine import HyperQ, HyperQSession
from repro.protocol.aio_server import AioServerThread
from repro.protocol.messages import (HEADER, MAGIC, MessageKind,
                                     encode_message, read_message)
from repro.protocol.server import ServerThread
from repro.protocol.session import IDLE, LOGON, WireSession, drive
from repro.results.store import ResultStore

DEFAULT_SEED = 0xD470
CASES = int(os.environ.get("HQ_FUZZ_CASES", "60"))
READ_DEADLINE = 5.0

_LOGON = HEADER.pack(MAGIC, int(MessageKind.LOGON_REQUEST), 7) + b"dbc\0dbc"
_QUERY_SQL = b"SELECT 1"
_QUERY = HEADER.pack(MAGIC, int(MessageKind.RUN_QUERY),
                     len(_QUERY_SQL)) + _QUERY_SQL


def _seeds():
    seeds = [DEFAULT_SEED]
    extra = os.environ.get("HQ_FUZZ_SEED")
    if extra:
        seeds.append(int(extra, 0))
    return seeds


# -- corpus generation ----------------------------------------------------------------

def _mutations(rng):
    """One malformed byte sequence per call, spanning the parser's attack
    surface. Returns (description, payload bytes)."""
    choice = rng.randrange(8)
    if choice == 0:
        # Truncated header: fewer bytes than the 7-byte frame header.
        return "truncated-header", _LOGON + HEADER.pack(
            MAGIC, int(MessageKind.RUN_QUERY), 4)[:rng.randrange(1, 7)]
    if choice == 1:
        # Oversized length prefix: declares more than MAX_PAYLOAD.
        return "oversized-length", _LOGON + HEADER.pack(
            MAGIC, int(MessageKind.RUN_QUERY),
            rng.randrange(2 ** 26 + 1, 2 ** 32 - 1))
    if choice == 2:
        # Bad magic on the first or a later frame.
        bad = bytes([rng.randrange(256), rng.randrange(256)])
        frame = struct.pack(">2sBI", bad, 3, 5) + b"hello"
        return "bad-magic", (frame if rng.random() < 0.5
                             else _LOGON + frame)
    if choice == 3:
        # Unknown message kind after a clean logon.
        kind = rng.choice([0, 10, 42, 200, 255])
        return "unknown-kind", _LOGON + HEADER.pack(MAGIC, kind, 0)
    if choice == 4:
        # Truncated payload: header promises more bytes than ever arrive.
        declared = rng.randrange(5, 4096)
        sent = rng.randrange(0, declared)
        return "truncated-payload", _LOGON + HEADER.pack(
            MAGIC, int(MessageKind.RUN_QUERY), declared) + bytes(sent)
    if choice == 5:
        # Pure garbage, no valid logon.
        return "garbage", bytes(rng.randrange(256)
                                for __ in range(rng.randrange(1, 64)))
    if choice == 6:
        # Garbage mid-stream: a full valid exchange, then junk.
        return "garbage-midstream", _LOGON + _QUERY + bytes(
            rng.randrange(256) for __ in range(rng.randrange(1, 32)))
    # Response-kind frame sent where a request belongs.
    kind = rng.choice([MessageKind.RESULT_ROWS, MessageKind.SUCCESS,
                       MessageKind.FAILURE, MessageKind.LOGON_RESPONSE])
    return "response-kind", _LOGON + HEADER.pack(MAGIC, int(kind), 2) + b"xx"


# -- exchange + invariant check -------------------------------------------------------

def _exchange(address, data, split=False):
    """Send *data* (optionally byte-at-a-time), half-close, then drain the
    server's reply until EOF. Returns (reply_bytes, hung)."""
    with socket.create_connection(address, timeout=READ_DEADLINE) as sock:
        sock.settimeout(READ_DEADLINE)
        try:
            if split:
                for i in range(len(data)):
                    sock.sendall(data[i:i + 1])
            else:
                sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # server already slammed the door — that's a clean reject
        reply = bytearray()
        deadline = time.monotonic() + READ_DEADLINE
        while time.monotonic() < deadline:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                return bytes(reply), True
            except OSError:
                break
            if not chunk:
                break
            reply += chunk
        else:
            return bytes(reply), True
        return bytes(reply), False


def _frames(reply):
    """Parse whatever complete frames the server sent back."""
    out = []
    offset = 0
    while offset + HEADER.size <= len(reply):
        magic, kind, length = HEADER.unpack_from(reply, offset)
        if magic != MAGIC or offset + HEADER.size + length > len(reply):
            break
        out.append((kind, bytes(reply[offset + HEADER.size:
                                      offset + HEADER.size + length])))
        offset += HEADER.size + length
    return out


def _violation(reply, hung):
    """The fuzz property: clean FAILURE or disconnect, no hang, no
    traceback leak. Returns a description or None."""
    if hung:
        return "server hung instead of closing the connection"
    for kind, payload in _frames(reply):
        if kind == int(MessageKind.FAILURE):
            if b"Traceback" in payload or b'File "' in payload:
                return f"FAILURE leaks a traceback: {payload[:120]!r}"
    return None


def _minimize(exchange, data):
    """Greedy span-drop minimization: repeatedly remove byte spans while
    the violation persists, halving span width down to single bytes.
    *exchange* maps request bytes to ``(reply_bytes, hung)``."""
    current = data

    def still_fails(candidate):
        return _violation(*exchange(candidate)) is not None

    width = max(1, len(current) // 2)
    while width >= 1:
        offset = 0
        while offset < len(current):
            candidate = current[:offset] + current[offset + width:]
            if candidate and still_fails(candidate):
                current = candidate
            else:
                offset += width
        width //= 2
    return current


# -- fixtures -------------------------------------------------------------------------

@pytest.fixture(params=["threaded", "async"])
def wire_server(request):
    engine = HyperQ(tracing=False)
    thread_cls = ServerThread if request.param == "threaded" \
        else AioServerThread
    thread = thread_cls(engine, max_connections=16)
    address = thread.start()
    yield engine, address
    thread.stop()


def _settle(predicate, deadline=5.0):
    until = time.monotonic() + deadline
    while time.monotonic() < until:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# -- the battery ----------------------------------------------------------------------

class TestWireFuzz:
    def test_malformed_corpus(self, wire_server):
        engine, address = wire_server
        store_baseline = ResultStore.open_count()
        for seed in _seeds():
            rng = random.Random(seed)
            for case in range(CASES):
                label, data = _mutations(rng)
                split = rng.random() < 0.25
                reply, hung = _exchange(address, data, split=split)
                problem = _violation(reply, hung)
                if problem is not None:
                    minimized = _minimize(functools.partial(
                        _exchange, address, split=split), data)
                    pytest.fail(
                        f"seed={seed:#x} case={case} ({label}, "
                        f"split={split}): {problem}\n"
                        f"minimized ({len(minimized)} bytes): "
                        f"{minimized.hex()}")
        # No session and no result buffer may outlive its connection.
        assert _settle(lambda: engine.open_session_count == 0), \
            f"{engine.open_session_count} sessions leaked"
        assert _settle(
            lambda: ResultStore.open_count() <= store_baseline), \
            f"{ResultStore.open_count() - store_baseline} stores leaked"

    def test_split_sends_still_served(self, wire_server):
        """A pathologically fragmented but valid exchange must succeed:
        framing cannot depend on TCP segment boundaries."""
        __, address = wire_server
        logoff = HEADER.pack(MAGIC, int(MessageKind.LOGOFF), 0)
        reply, hung = _exchange(address, _LOGON + _QUERY + logoff,
                                split=True)
        assert not hung
        kinds = [kind for kind, __ in _frames(reply)]
        assert int(MessageKind.LOGON_RESPONSE) == kinds[0]
        assert int(MessageKind.SUCCESS) in kinds
        assert int(MessageKind.FAILURE) not in kinds

    def test_oversized_reply_refused_cleanly(self, wire_server):
        """An oversized length prefix is rejected before any payload is
        read — immediately, not after 64 MiB of allocation."""
        __, address = wire_server
        data = _LOGON + HEADER.pack(MAGIC, int(MessageKind.RUN_QUERY),
                                    2 ** 31)
        start = time.monotonic()
        reply, hung = _exchange(address, data)
        assert not hung
        assert time.monotonic() - start < READ_DEADLINE
        # Logon succeeded; the poisoned frame just drops the connection.
        kinds = [kind for kind, __ in _frames(reply)]
        assert kinds[0] == int(MessageKind.LOGON_RESPONSE)

    def test_disconnect_between_frames_releases_session(self, wire_server):
        """100 abrupt disconnects (no LOGOFF, mid-conversation) leak
        nothing: sessions and result buffers return to baseline."""
        engine, address = wire_server
        store_baseline = ResultStore.open_count()
        for __ in range(100):
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(_LOGON)
                sock.settimeout(5.0)
                sock.recv(HEADER.size + 4)  # LOGON_RESPONSE
                sock.sendall(_QUERY)
                # Vanish without draining the reply or sending LOGOFF.
        assert _settle(lambda: engine.open_session_count == 0), \
            f"{engine.open_session_count} sessions leaked"
        assert _settle(
            lambda: ResultStore.open_count() <= store_baseline), \
            f"{ResultStore.open_count() - store_baseline} stores leaked"


# -- the socket-free leg --------------------------------------------------------------

class _CoreServer:
    """All that the session core asks of a server; none of it is I/O."""

    request_timeout = None
    draining = False

    def __init__(self, engine):
        self.engine = engine
        self._ids = itertools.count(1)

    def next_session_id(self):
        return next(self._ids)


class _Wire(io.BytesIO):
    """Request bytes behind the one socket method ``read_message`` uses."""

    recv = io.BytesIO.read


def _core_exchange(server, data):
    """:func:`_exchange` without the socket: frame *data* with the blocking
    reader, feed each frame to a fresh :class:`WireSession`, run every
    blocking call inline and collect the frames it sends."""
    wire = _Wire(data)
    reply = bytearray()

    def send(kind, payload=b""):
        reply.extend(encode_message(kind, payload))

    core = WireSession(server)
    try:
        while core.phase in (LOGON, IDLE):
            drive(core.on_frame(*read_message(wire)), send,
                  lambda call: call.fn())
    except ProtocolError:
        pass  # what a driver does: drop the connection
    finally:
        core.close()
    return bytes(reply), False


def _ungrammatical(reply):
    """None when *reply* is whole frames forming LOGON_RESPONSE-or-FAILURE
    followed by complete results; else what is wrong with it."""
    frames = _frames(reply)
    if sum(HEADER.size + len(payload) for __, payload in frames) \
            != len(reply):
        return "reply ends in a partial frame"
    kinds = [MessageKind(kind) for kind, __ in frames]
    if not kinds:
        return None  # clean close
    K = MessageKind
    if kinds[0] is K.FAILURE:
        return None if len(kinds) == 1 else "frames after a logon FAILURE"
    if kinds[0] is not K.LOGON_RESPONSE:
        return f"reply opens with {kinds[0].name}"
    rest = iter(kinds[1:])
    for kind in rest:
        if kind is K.RESULT_COUNT:
            kind = next(rest, None)
        elif kind is K.RESULT_META:
            kind = next(rest, None)
            while kind is K.RESULT_ROWS:
                kind = next(rest, None)
        if kind not in (K.SUCCESS, K.FAILURE):
            return f"result not closed by SUCCESS/FAILURE in {kinds}"
    return None


class TestCoreFuzz:
    @pytest.fixture
    def closes(self, monkeypatch):
        """(created, closed) session lists, recorded without interfering."""
        created, closed = [], []
        create, close = HyperQ.create_session, HyperQSession.close

        def counting_create(engine, *args, **kwargs):
            session = create(engine, *args, **kwargs)
            created.append(session)
            return session

        def counting_close(session):
            closed.append(session)
            return close(session)

        monkeypatch.setattr(HyperQ, "create_session", counting_create)
        monkeypatch.setattr(HyperQSession, "close", counting_close)
        return created, closed

    def test_malformed_corpus_against_the_core(self, closes, monkeypatch):
        """Ten times the socket legs' cases per seed, in less wall time
        than those two legs take (server start, corpus, server stop)."""
        created, closed = closes
        engine = HyperQ(tracing=False)
        server = _CoreServer(engine)
        store_baseline = ResultStore.open_count()
        started = time.perf_counter()
        for seed in _seeds():
            rng = random.Random(seed)
            for case in range(10 * CASES):
                label, data = _mutations(rng)
                reply, hung = _core_exchange(server, data)
                problem = _violation(reply, hung) or _ungrammatical(reply)
                if problem is None and engine.open_session_count:
                    problem = "session outlived its connection"
                if problem is None \
                        and ResultStore.open_count() > store_baseline:
                    problem = "result store left open"
                if problem is not None:
                    minimized = _minimize(functools.partial(
                        _core_exchange, server), data)
                    pytest.fail(
                        f"seed={seed:#x} case={case} ({label}): {problem}\n"
                        f"minimized ({len(minimized)} bytes): "
                        f"{minimized.hex()}")
        core_seconds = time.perf_counter() - started
        assert [id(s) for s in closed] == [id(s) for s in created], \
            "a session was closed twice, never, or out of order"

        monkeypatch.delenv("HQ_WIRE", raising=False)
        started = time.perf_counter()
        for thread_cls in (ServerThread, AioServerThread):
            with thread_cls(HyperQ(tracing=False),
                            max_connections=16) as address:
                for seed in _seeds():
                    rng = random.Random(seed)
                    for __ in range(CASES):
                        __, data = _mutations(rng)
                        _exchange(address, data, split=rng.random() < 0.25)
        socket_seconds = time.perf_counter() - started
        assert core_seconds < socket_seconds, \
            (f"{10 * CASES} core cases took {core_seconds:.3f}s, the two "
             f"socket legs' {CASES} each took {socket_seconds:.3f}s")

    def test_minimizer_reduces_against_the_core(self, monkeypatch):
        """Seed a traceback leak behind one statement; the minimizer,
        driving the core directly, strips everything but logon + query."""
        def leaky(session, sql, *args, **kwargs):
            raise HyperQError('Traceback (most recent call last): File "x"')

        monkeypatch.setattr(HyperQSession, "execute", leaky)
        exchange = functools.partial(_core_exchange,
                                     _CoreServer(HyperQ(tracing=False)))
        noisy = _LOGON + _QUERY + _QUERY + bytes(range(40))
        assert _violation(*exchange(noisy)) is not None
        minimized = _minimize(exchange, noisy)
        assert _violation(*exchange(minimized)) is not None
        assert len(minimized) <= len(_LOGON) + len(_QUERY)

    def test_valid_exchange_is_grammatical(self):
        """The grammar check itself: a clean session passes, and the
        truncations it exists to catch do not."""
        logoff = HEADER.pack(MAGIC, int(MessageKind.LOGOFF), 0)
        reply, __ = _core_exchange(_CoreServer(HyperQ(tracing=False)),
                                   _LOGON + _QUERY + _QUERY + logoff)
        kinds = [kind for kind, __ in _frames(reply)]
        assert kinds.count(int(MessageKind.SUCCESS)) == 2
        assert _ungrammatical(reply) is None
        assert _ungrammatical(reply[:-1]) is not None
        assert _ungrammatical(reply[:-(HEADER.size + 8)]) is not None
