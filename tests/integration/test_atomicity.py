"""A source statement is atomic on the target: it takes effect whole or not
at all. Both tests name open defects (ROADMAP item 4) and flip to passing
when the stand-in gets transactions and emulation runs as one bracketed
step plan."""

from __future__ import annotations

import pytest

from repro.core.engine import HyperQ
from repro.core.faults import BACKEND_TRANSIENT, FaultSchedule, FaultSpec
from repro.errors import RetryExhaustedError


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4 (i): the stand-in answers every transaction statement "
    "with 'ok', so ROLLBACK undoes nothing"))
def test_rollback_discards_the_insert():
    session = HyperQ().create_session()
    session.execute("CREATE TABLE R (A INTEGER)")
    session.execute_script("BT; INSERT INTO R VALUES (1); ROLLBACK")
    assert session.execute("SEL COUNT(*) FROM R").rows == [(0,)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4 (ii): an emulated MERGE runs its UPDATE and INSERT as "
    "two unbracketed target statements, so a fault in the second leaves "
    "the first applied"))
def test_failed_emulated_merge_leaves_the_target_untouched():
    faults = FaultSchedule(specs=[FaultSpec(
        BACKEND_TRANSIENT, "odbc", match="NOT EXISTS", every=1)])
    session = HyperQ(target="meadowshift", faults=faults).create_session()
    for sql in ("CREATE TABLE TGT (K INTEGER, V INTEGER)",
                "CREATE TABLE SRC (K INTEGER, V INTEGER)",
                "INSERT INTO TGT VALUES (1, 10)",
                "INSERT INTO SRC VALUES (1, 11)",
                "INSERT INTO SRC VALUES (2, 20)"):
        session.execute(sql)
    with pytest.raises(RetryExhaustedError):
        session.execute(
            "MERGE INTO TGT USING SRC ON TGT.K = SRC.K "
            "WHEN MATCHED THEN UPDATE SET V = SRC.V "
            "WHEN NOT MATCHED THEN INSERT (K, V) VALUES (SRC.K, SRC.V)")
    assert session.execute("SEL K, V FROM TGT ORDER BY K").rows == [(1, 10)]
