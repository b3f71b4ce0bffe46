"""Self-test of the benchmark (``pytest benchmarks/perf``; not tier-1).

Runs every workload at ``--smoke`` size, untraced and traced, and checks the
contract: every metric of BENCHMARK.json is emitted, finite and unit-tagged,
nothing fails or is shed, inputs depend on the seed and on nothing else, and
they are generated before any engine exists.
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    begin = time.monotonic()
    done = subprocess.run(
        [sys.executable, RUN, "--all", "--smoke", "--seconds", "0.5",
         "--trace", "1", "--json", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=170)
    wall = time.monotonic() - begin
    assert done.returncode == 0, done.stdout[-4000:]
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), wall


def test_smoke_is_quick_and_clean(smoke):
    document, wall = smoke
    assert wall < 30, f"--all --smoke --trace 1 took {wall:.1f} s"
    assert list(document["workloads"]) == NAMES
    for key in ("git_commit", "python", "nproc", "seed", "wire",
                "bench.calib_ms"):
        assert key in document["env"]
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0, (name, entry["problems"])
        assert entry["metrics"]["failed_share"]["median"] == 0
        assert entry["layers"]["core.workload.shed"] == 0
        assert os.path.getsize(os.path.join(ROOT, entry["trace_file"])) > 0


def test_every_declared_metric_is_emitted(smoke):
    document, __ = smoke
    for name, entry in document["workloads"].items():
        for metric in SPEC["end_to_end"]:
            got = entry["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["median"]) and got["median"] > 0, \
                (name, metric["name"], got)
        for metric in SPEC["per_layer"]:
            assert math.isfinite(entry["layers"][metric["name"]]), \
                (name, metric["name"])
    warm = document["workloads"]["bi_dashboard"]
    churn = document["workloads"]["bi_churn"]
    assert warm["metrics"]["backend_stmts_per_stmt"]["median"] < 0.01
    assert churn["metrics"]["backend_stmts_per_stmt"]["median"] \
        > warm["metrics"]["backend_stmts_per_stmt"]["median"]
    assert warm["layers"]["odbc.statements"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_result_line(trace):
    """The last stdout line is exactly the object the driver parses."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "short_stmts", "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_inputs_are_a_function_of_the_seed():
    for name, make in workloads.WORKLOADS.items():
        assert make(11, True).inputs_sha256() == make(11, True).inputs_sha256()
        assert make(11, True).inputs_sha256() != make(12, True).inputs_sha256()
        assert make(11, False).statements != make(12, False).statements \
            or name == "bulk_export"  # one statement; its seed is the data's


def test_inputs_exist_before_any_engine(monkeypatch):
    """Plans are pure data: generating them must not build the program."""
    from repro.core import engine

    def refuse(*args, **kwargs):
        raise AssertionError("a plan generator constructed an engine")

    monkeypatch.setattr(engine.HyperQ, "__init__", refuse)
    for make in workloads.WORKLOADS.values():
        assert make(3, True).statements
