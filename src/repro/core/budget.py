"""Per-request batch budget for the streaming result pipeline.

The paper's data path (Section 5) is streaming: the ODBC Server fetches
result *batches* and the Result Converter encodes them onto the source wire
as they arrive. A :class:`BatchBudget` is the knob that bounds
that pipeline: how many rows travel in one batch between layers, and how
many bytes of converted row data any single layer may hold before it must
spill to disk. One budget is threaded per request from
:class:`~repro.core.engine.HyperQ` through the ODBC Server, the Result
Converter, and the Result Store.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Rows per batch when no budget is configured.
DEFAULT_BATCH_ROWS = 1024

#: Per-layer memory ceiling (bytes of converted row data) when no budget is
#: configured.
DEFAULT_MAX_MEMORY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class BatchBudget:
    """Bounds for one request's result stream.

    ``batch_rows`` is the unit of flow control: the executor yields row
    batches of at most this size, the ODBC Server hands them on one at a
    time, and the Result Converter emits one wire chunk per batch. A pull
    on the wire end therefore holds at most one batch of row data live per
    layer.

    ``max_memory_bytes`` caps what a *buffering* layer may keep in memory
    when a consumer falls behind or a compatibility shim materializes the
    stream; beyond it, chunks spill to disk
    (:class:`~repro.results.store.ResultStore`).
    """

    batch_rows: int = DEFAULT_BATCH_ROWS
    max_memory_bytes: int = DEFAULT_MAX_MEMORY_BYTES

    def __post_init__(self) -> None:
        if self.batch_rows < 1:
            raise ValueError("batch_rows must be at least 1")
        if self.max_memory_bytes < 0:
            raise ValueError("max_memory_bytes cannot be negative")

    def with_overrides(self, batch_rows: int | None = None,
                       max_memory_bytes: int | None = None) -> "BatchBudget":
        """A copy with non-zero overrides applied (workload classes tighten
        or widen the engine default per request; 0/None inherits)."""
        return BatchBudget(
            batch_rows=batch_rows or self.batch_rows,
            max_memory_bytes=max_memory_bytes or self.max_memory_bytes,
        )
