#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

One workload, one process (what the driver of ``BENCHMARK.json`` runs)::

    python3 benchmarks/perf/run.py --workload short_stmts --seed 7 \\
        --seconds 10 --trace 0

prints every metric by name with unit, direction and regression bound, checks
the answers, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 1`` makes the traced per-layer run instead and writes
``benchmarks/perf/out/trace-<workload>.jsonl``.

Everything at once (each workload in its own fresh process)::

    python3 benchmarks/perf/run.py --all --repeat 3 --trace 1 --json OUT.json

See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

_PROCESS_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 20180610

#: Full set-ups (engine, schema, data, server, logon, warm-up pass) per
#: run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: A run measures whole rounds until ``--seconds`` have passed, and never
#: fewer than this many.
MIN_ROUNDS = 3

#: Reported beside the ``end_to_end`` metrics of BENCHMARK.json. They are
#: exact counts that are 0 when all is well, so they cannot carry a relative
#: bound there: any rise is a regression (``compare.py`` enforces it).
EXACT_METRICS = {
    "backend_stmts_per_stmt": {"unit": "ratio", "better": "lower",
                               "bound": 0.0},
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end_table(spec: dict) -> dict[str, dict]:
    table = {m["name"]: m for m in spec["end_to_end"]}
    table.update(EXACT_METRICS)
    return table


def bound_text(meta: dict) -> str:
    if "bound" not in meta:
        return "-"
    return f"{meta['bound']:.0%}" if meta["bound"] else "exact"


# -- one workload in this process ----------------------------------------------------


def measure(plan, seconds: float, setup_repeats: int, import_s: float) -> dict:
    """Set-up (repeated) -> timed rounds -> verify; tracing off."""
    import harness

    setups = []
    system = None
    try:
        for __ in range(setup_repeats):
            if system is not None:
                system.close()
            begin = time.perf_counter()
            system = harness.System(plan)
            if plan.mode == "wire":
                system.connect()
            digest = system.warm_up()
            setups.append(time.perf_counter() - begin)
        rounds = []
        issuers = system.issuers()
        deadline = time.perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.append(harness.run_round(system, issuers))
        rss = harness.peak_rss_mb()  # before the oracle builds its engine
        checked, mismatches = harness.verify(system, 1 + len(rounds), digest)
    finally:
        if system is not None:
            system.close()
    failures = [f for r in rounds for f in r.failures]
    attempted = len(rounds) * len(plan.statements) + checked
    failed = len(failures) + len(mismatches)
    metrics = harness.summarize(rounds)
    # Process start -> end of warm-up: importing the program, then the
    # median of the full set-ups.
    metrics["setup_s"] = import_s + statistics.median(setups)
    metrics["peak_rss_mb"] = rss
    metrics["failed_share"] = failed / attempted
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "rounds": len(rounds),
            "samples": sum(len(r.latencies) for r in rounds),
            "problems": (failures + mismatches)[:10]}


def pin_to_one_cpu():
    """Keep the workload process on one CPU. Client and server threads share
    the GIL anyway, and left to the scheduler every cross-thread hand-off is
    bimodal (on the box this was written on a ``WorkloadManager`` hand-off
    costs 65 us with both threads on one core and 190 us across cores, and
    the placement flips mid-run): that measures the host, not the program."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args, spec: dict) -> int:
    cpu = pin_to_one_cpu()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import spans
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the program under test from {ROOT}/src: {error}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    plan = WORKLOADS[args.workload](args.seed, args.smoke)
    record = {"workload": plan.name, "seed": args.seed,
              "inputs_sha256": plan.inputs_sha256(), "sizes": plan.sizes,
              "trace": args.trace, "calib_ms": spans.calibrate(),
              "pinned_cpu": cpu}
    if args.trace:
        record.update(spans.traced_run(plan, OUT_DIR))
        table = {m["name"]: m for m in spec["per_layer"]}
        values = record["layers"]
    else:
        repeats = 1 if args.smoke else SETUP_REPEATS
        record.update(measure(plan, args.seconds, repeats, import_s))
        table = end_to_end_table(spec)
        values = record["metrics"]
    record["correct"] = record["failed"] == 0
    print(f"# {plan.name}  seed={args.seed}  "
          f"inputs={record['inputs_sha256'][:12]}  sizes={plan.sizes}")
    if not args.trace:
        print(f"# rounds={record['rounds']}  timed statements="
              f"{record['samples']} (each of the {len(plan.statements)} "
              f"positions reduced to the lower quartile of its executions)")
    print(f"{'metric':42} {'value':>14} {'unit':8} {'better':7} bound")
    for name, meta in table.items():
        print(f"{name:42} {values[name]:14.4f} {meta['unit']:8} "
              f"{meta['better']:7} {bound_text(meta)}")
    if args.trace:
        print("# self time by layer, share of the staged in-process wall:")
        for layer, share in sorted(record["self_time_share"].items(),
                                   key=lambda item: -item[1]):
            print(f"#   {layer:20} {share:7.1%}")
        print(f"# {record['spans']} spans -> {record['trace_file']}")
    for problem in record.get("problems", []):
        print(f"# FAILED: {problem}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0 if record["correct"] else 1


# -- every workload, each in a fresh process -----------------------------------------


def _child(args, workload: str, trace: int, path: str) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--json", path]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if not os.path.exists(path):
        raise SystemExit(f"{workload}: no result (exit {done.returncode})\n"
                         f"{done.stdout[-2000:]}")
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    os.unlink(path)
    return record


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args, spec: dict) -> int:
    table = end_to_end_table(spec)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"child-{os.getpid()}.json")
    begin = time.perf_counter()
    document = {"env": {
        "git_commit": _git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
        "repeat": args.repeat, "smoke": args.smoke,
        "wire": os.environ.get("HQ_WIRE", "threaded"),
        "clients": "1 thread, 1 statement in flight (closed loop); "
                   "each workload process pinned to one CPU",
    }, "workloads": {}}
    calib = []
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_child(args, workload, 0, scratch)
                for __ in range(args.repeat)]
        entry = {"sizes": runs[0]["sizes"],
                 "inputs_sha256": runs[0]["inputs_sha256"],
                 "rounds": [r["rounds"] for r in runs],
                 "samples": [r["samples"] for r in runs],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "problems": [p for r in runs for p in r["problems"]][:10],
                 "metrics": {}}
        for name, meta in table.items():
            values = [r["metrics"][name] for r in runs]
            entry["metrics"][name] = {
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "runs": values, "unit": meta["unit"],
                "better": meta["better"], "bound": meta["bound"]}
        calib += [r["calib_ms"] for r in runs]
        if args.trace:
            traced = _child(args, workload, 1, scratch)
            entry["layers"] = traced["layers"]
            entry["self_time_share"] = traced["self_time_share"]
            entry["trace_file"] = os.path.relpath(traced["trace_file"], ROOT)
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            calib.append(traced["calib_ms"])
        document["workloads"][workload] = entry
        ok = ok and entry["failed"] == 0
        print(f"== {workload}  sizes={entry['sizes']}  rounds={entry['rounds']}"
              f"  failed={entry['failed']}/{entry['attempted']}")
        for name, m in entry["metrics"].items():
            print(f"   {name:24} {m['median']:12.4f} {m['unit']:6} "
                  f"[{m['min']:.4f} .. {m['max']:.4f}]  {m['better']} is "
                  f"better, bound {bound_text(m)}")
        if args.trace:
            for metric in spec["per_layer"]:
                print(f"   {metric['name']:42} "
                      f"{entry['layers'][metric['name']]:14.4f} "
                      f"{metric['unit']}")
    document["env"]["bench.calib_ms"] = statistics.median(calib)
    document["env"]["wall_s"] = time.perf_counter() - begin
    print(f"total wall {document['env']['wall_s']:.1f} s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload",
                       choices=[w["name"] for w in spec["workloads"]])
    which.add_argument("--all", action="store_true",
                       help="every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the timed phase (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced per-layer run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: untraced runs per workload "
                             "(median and min..max are recorded)")
    parser.add_argument("--smoke", action="store_true",
                        help="small rounds and one set-up, for the self-test")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full record to this file")
    args = parser.parse_args(argv)
    return run_all(args, spec) if args.all else run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
