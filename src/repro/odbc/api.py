"""The ODBC Server: Hyper-Q's abstraction over target database access.

Section 4.5: provides means to submit requests (simple queries, DML,
multi-statement scripts) and retrieves results on demand in one or more
batches — as rows for the in-process driver, packaged in :mod:`repro.tdf`
for anything that needs bytes. Handles "very wide rows and extremely large
result sets" by never materializing more than one batch outside the
:class:`~repro.results.store.ResultStore`.

This layer is also where Hyper-Q absorbs target-side turbulence: every
statement passes a fault-injection checkpoint (site ``"odbc"``), and
transient failures — injected or real — are retried under the engine's
:class:`~repro.core.faults.RetryPolicy` with exponential backoff before
anything becomes visible to the application.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, Optional

from repro import tdf
from repro.errors import RetryExhaustedError, TransientBackendError
from repro.backend.engine import QueryResult
from repro.core import trace as trace_mod
from repro.odbc.drivers import Driver, DriverConnection

#: Observer signature: (event, detail) — wired to the engine's resilience
#: counters and the fault schedule's event log.
Observer = Callable[[str, dict], None]


class OdbcResult:
    """One request's outcome, exposing results as lazily pulled batches."""

    def __init__(self, raw: QueryResult, batch_rows: int = 1024):
        self._raw = raw
        self._batch_rows = batch_rows
        self._columns: Optional[list[str]] = None
        self._column_types: Optional[list] = None

    @property
    def kind(self) -> str:
        return self._raw.kind

    @property
    def columns(self) -> list[str]:
        if self._columns is None:
            self._columns = list(self._raw.columns)
        return self._columns

    @property
    def column_types(self):
        if self._column_types is None:
            self._column_types = list(self._raw.column_types)
        return self._column_types

    @property
    def rowcount(self) -> int:
        """Row count; drains a still-pending stream to find out."""
        return self._raw.rowcount

    @property
    def streaming(self) -> bool:
        return self._raw.streaming

    def fetch_rows(self) -> Iterator[list[tuple]]:
        """Lazily pull the backend's row batches — the in-process data path.

        Pulls from the backend one batch at a time, so at most one batch of
        rows is live in this layer. Empty batches are skipped, and an empty
        result still yields a single empty batch, which carries the column
        header downstream. Single-use while the underlying result is
        streaming.
        """
        if self._raw.kind != "rows":
            return
        produced = False
        for batch in self._raw.iter_batches(self._batch_rows):
            if not batch:
                continue
            produced = True
            yield batch
        if not produced:
            yield []

    def fetch_batches(self) -> Iterator[bytes]:
        """:meth:`fetch_rows`, each batch encoded into one TDF packet (the
        framing an out-of-process driver would hand over)."""
        for rows in self.fetch_rows():
            yield tdf.encode_batch(self.columns, rows)

    #: Backwards-compatible name for :meth:`fetch_batches`.
    tdf_batches = fetch_batches

    def raw_rows(self) -> list[tuple]:
        """Direct row access for mid-tier emulators that drive recursion or
        procedure control flow off result contents (Section 6). Drains and
        caches a pending stream."""
        return list(self._raw.rows)


class OdbcServer:
    """One ODBC connection to the target per Hyper-Q session."""

    def __init__(self, driver: Driver, batch_rows: int = 1024,
                 faults=None, replica: Optional[int] = None,
                 retry=None, observer: Optional[Observer] = None):
        self._driver = driver
        self._batch_rows = batch_rows
        self._faults = faults
        self._replica = replica
        self._retry = retry
        self._observer = observer
        self._connection: Optional[DriverConnection] = None
        #: Statements that reached the target driver (retries of one
        #: statement count once). The result cache's zero-backend-call
        #: guarantee is asserted against this counter.
        self.statements_executed = 0

    def set_batch_rows(self, batch_rows: int) -> None:
        """Adjust the batch size for subsequent statements (per-request
        workload-class budget overrides)."""
        if batch_rows < 1:
            raise ValueError("batch_rows must be at least 1")
        self._batch_rows = batch_rows

    def _ensure_connection(self) -> DriverConnection:
        if self._connection is None:
            self._connection = self._driver.connect()
        return self._connection

    @property
    def connection(self) -> DriverConnection:
        return self._ensure_connection()

    def _notify(self, event: str, **detail) -> None:
        if self._observer is not None:
            self._observer(event, detail)

    def execute(self, sql: str) -> OdbcResult:
        """Submit one statement to the target database.

        Transient failures (injected at the ``odbc``/``executor`` sites or
        surfaced by a real driver) are retried with backoff up to the retry
        policy's budget; retries never reorder or duplicate effects because
        the injection checkpoints fire *before* the driver executes.

        Each statement gets an ``odbc_execute`` span with one ``attempt``
        child per try, so retries — and emulator child statements, which
        re-enter here per target statement — are visible in the request's
        span tree.
        """
        from repro.core.faults import apply_fault

        with trace_mod.span("odbc_execute", sql=sql[:120],
                            replica=self._replica) as span:
            self.statements_executed += 1
            attempt = 1
            while True:
                try:
                    with trace_mod.span("attempt", number=attempt):
                        if self._faults is not None:
                            apply_fault(self._faults.draw(
                                "odbc", op=sql, replica=self._replica))
                        raw = self._ensure_connection().execute(sql)
                    if span is not None:
                        span.annotate("kind", raw.kind)
                        span.annotate("attempts", attempt)
                    return OdbcResult(raw, self._batch_rows)
                except TransientBackendError as error:
                    if self._retry is None \
                            or attempt >= self._retry.max_attempts:
                        self._notify("retry_exhausted",
                                     attempts=attempt, site="odbc",
                                     replica=self._replica)
                        raise RetryExhaustedError(
                            f"transient backend failure persisted through "
                            f"{attempt} attempt(s): {error}") from error
                    self._notify("retry", attempt=attempt, site="odbc",
                                 replica=self._replica)
                    time.sleep(self._retry.delay(attempt))
                    attempt += 1

    def execute_script(self, statements: list[str]) -> list[OdbcResult]:
        """Submit a multi-statement request, returning one result each."""
        return [self.execute(sql) for sql in statements]

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
