"""One routing decision: translate() and execute() agree on every profile.

For each statement the mid-tier may emulate, ``translate()`` reports
``kind == "emulated"`` exactly when ``execute()`` runs an emulator, and names
the feature that ``execute()`` notes at the ``emulator`` stage.
"""

from __future__ import annotations

import pytest

from repro.core.engine import HyperQ
from repro.core.tracker import FeatureTracker
from repro.transform.capabilities import PROFILES

SETUP = [
    "CREATE TABLE T (A INTEGER, B INTEGER)",
    "CREATE TABLE SRC (A INTEGER, B INTEGER)",
    "CREATE SET TABLE ST (A INTEGER, B INTEGER)",
    "CREATE VIEW V AS SEL A, B FROM T WHERE A > 0",
    "INSERT INTO T VALUES (1, 10)",
    "INSERT INTO SRC VALUES (1, 11)",
    "INSERT INTO SRC VALUES (2, 22)",
    "CREATE MACRO M1 AS (SEL A FROM T;)",
    "CREATE PROCEDURE P1 (IN X INTEGER) BEGIN "
    "INSERT INTO T VALUES (:X, 0); END",
]

STATEMENTS = {
    "create_macro": "CREATE MACRO M2 AS (SEL B FROM T;)",
    "drop_macro": "DROP MACRO M1",
    "exec_macro": "EXEC M1",
    "create_procedure": ("CREATE PROCEDURE P2 (IN X INTEGER) BEGIN "
                         "DELETE FROM T WHERE A = :X; END"),
    "drop_procedure": "DROP PROCEDURE P1",
    "call_procedure": "CALL P1(5)",
    "help_table": "HELP TABLE T",
    "show_table": "SHOW TABLE T",
    "merge": ("MERGE INTO T USING SRC ON T.A = SRC.A "
              "WHEN MATCHED THEN UPDATE SET B = SRC.B "
              "WHEN NOT MATCHED THEN INSERT (A, B) VALUES (SRC.A, SRC.B)"),
    "recursive_with": ("WITH RECURSIVE R (N) AS (SEL A FROM SRC WHERE A = 1 "
                       "UNION ALL SEL R.N + 1 FROM R WHERE R.N < 3) "
                       "SEL N FROM R ORDER BY N"),
    "insert_view": "INSERT INTO V VALUES (7, 8)",
    "update_view": "UPDATE V SET B = 9 WHERE A = 1",
    "delete_view": "DELETE FROM V WHERE A = 1",
    "insert_set_table": "INSERT INTO ST VALUES (1, 2)",
    "create_volatile": ("CREATE VOLATILE TABLE VT (A INTEGER) "
                        "ON COMMIT PRESERVE ROWS"),
}


@pytest.mark.parametrize("name", sorted(STATEMENTS))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_translate_and_execute_route_alike(profile, name):
    sql = STATEMENTS[name]
    engine = HyperQ(target=profile)
    setup = engine.create_session()
    for statement in SETUP:
        setup.execute(statement)
    try:
        translation = setup.translate(sql)
    except Exception as error:  # judged once execute() has had its say
        translation = error
    engine.tracker = tracker = FeatureTracker()
    session = engine.create_session()
    try:
        session.execute(sql).rows
    except Exception:
        pytest.skip(f"{profile} does not execute {name}")
    assert not isinstance(translation, Exception), (
        f"execute() accepts {name} on {profile}, translate() raised "
        f"{translation!r}")
    emulated = {feature for feature, stage in tracker.observed_stages.items()
                if stage == "emulator"}
    assert (translation.kind == "emulated") == bool(emulated), (
        translation.kind, emulated)
    if emulated:
        assert emulated == {translation.emulated_feature}


PERIOD_DDL = "CREATE TABLE PT (ID INTEGER, VALIDITY PERIOD(DATE))"


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_period_split_alike_in_translate_and_execute(profile):
    """A PERIOD column is split into begin/end columns on both paths, so
    translate() shows the DDL that execute() runs."""
    engine = HyperQ(target=profile)
    engine.tracker = translated_notes = FeatureTracker()
    try:
        translation = engine.create_session().translate(PERIOD_DDL)
    except Exception as error:  # judged once execute() has had its say
        translation = error
    engine.tracker = executed_notes = FeatureTracker()
    try:
        result = engine.create_session().execute(PERIOD_DDL)
    except Exception:
        pytest.skip(f"{profile} does not execute {PERIOD_DDL}")
    assert not isinstance(translation, Exception), (
        f"execute() accepts the PERIOD DDL on {profile}, translate() raised "
        f"{translation!r}")
    assert translation.statements == result.target_sql
    assert "column_properties" in translated_notes.observed_stages
    assert "column_properties" in executed_notes.observed_stages
