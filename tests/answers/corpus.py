"""Answer digests of the TPC-H queries and the generated conformance corpus.

Both corpora run on the oracle leg (``hyperion``) of a one-profile
:class:`~tests.conformance.runner.Matrix`. Each answer is normalized the way
the matrix compares legs (:func:`~tests.conformance.runner.normalize_rows`;
rows sorted unless the statement has a top-level ORDER BY) and hashed, so a
digest changes exactly when an answer the matrix would see changes.
"""

from __future__ import annotations

import hashlib

from tests.conformance.runner import (
    ORACLE, Cell, Matrix, is_order_sensitive, normalize_rows,
)

#: TPC-H scale factor and data seed: the perf ledger's ``tpch_seq`` data.
TPCH_SCALE = 0.001
DATA_SEED = 20180610

#: Corpus name -> expected file under ``expected/``.
CORPORA = ("tpch", "conformance")


def digest(cell: Cell, sql: str) -> str:
    """sha256 of one normalized answer (rows, count, ok or error text)."""
    if cell.kind == "rows":
        rows = normalize_rows(cell.rows or [])
        if not is_order_sensitive(sql):
            rows.sort(key=repr)
        payload: object = ("rows", rows)
    elif cell.kind == "count":
        payload = ("count", cell.rowcount)
    elif cell.kind == "error":
        payload = ("error", cell.error)
    else:
        payload = (cell.kind,)
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _answers(matrix: Matrix, statements) -> list[tuple[str, str]]:
    """``(name, "summary<TAB>digest")`` per statement, in order."""
    out = []
    for name, sql in statements:
        cell = matrix.execute_all(sql)[ORACLE]
        out.append((name, f"{cell.summary()}\t{digest(cell, sql)}"))
    return out


def tpch_answers() -> list[tuple[str, str]]:
    from repro.workloads.tpch import queries
    from repro.workloads.tpch.datagen import load_direct
    from tests.conformance.generator import tpch_ddl

    matrix = Matrix(profiles=(ORACLE,))
    try:
        matrix.run_setup(tpch_ddl())
        load_direct(matrix.engine(ORACLE).backend, scale=TPCH_SCALE,
                    seed=DATA_SEED)
        return _answers(matrix, [(f"q{number:02d}", queries.query(number))
                                 for number in range(1, 23)])
    finally:
        matrix.close()


def conformance_answers() -> list[tuple[str, str]]:
    from tests.conformance.generator import (
        GENERATOR_SETUP, generate_statements, load_tpch,
    )

    matrix = Matrix(profiles=(ORACLE,))
    try:
        load_tpch(matrix)
        matrix.run_setup(GENERATOR_SETUP)
        return _answers(matrix, generate_statements())
    finally:
        matrix.close()


def render(answers: list[tuple[str, str]]) -> str:
    return "".join(f"{name}\t{line}\n" for name, line in answers)


def run_corpus(corpus: str) -> list[tuple[str, str]]:
    if corpus == "tpch":
        return tpch_answers()
    if corpus == "conformance":
        return conformance_answers()
    raise ValueError(f"unknown answer corpus {corpus!r}")
