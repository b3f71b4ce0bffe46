#!/usr/bin/env python3
"""Compare two ``run.py --all --repeat K --json`` files, metric by metric.

    python3 benchmarks/perf/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): base median, new median, their
ratio (new / base), the bound, and a verdict:

* ``worse``      — the new median is worse than the base by more than the bound;
* ``better``     — it is better by more than the bound;
* ``same``       — within the bound either way;
* ``unresolved`` — the run-to-run spread recorded in either file (max - min
  over its repeats, as a share of the median) is wider than the bound, so
  the files cannot tell.

Exact-count metrics (bound 0) are ``worse`` on any rise. Exits non-zero on
any ``worse`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys


def spread(metric: dict) -> float:
    return (metric["max"] - metric["min"]) / metric["median"] \
        if metric["median"] else 0.0


def verdict(base: dict, new: dict) -> tuple[float, str]:
    """(new / base, verdict) for one metric of one workload."""
    bound = base["bound"]
    old, now = base["median"], new["median"]
    ratio = now / old if old else (1.0 if now == old else float("inf"))
    # Signed worsening as a share of the base: positive = worse.
    change = (now - old) / old if old else (now - old)
    if base["better"] == "higher":
        change = -change
    if bound == 0:
        return ratio, "worse" if change > 0 else \
            "better" if change < 0 else "same"
    if max(spread(base), spread(new)) > bound:
        return ratio, "unresolved"
    if change > bound:
        return ratio, "worse"
    return ratio, "better" if change < -bound else "same"


def compare(base: dict, new: dict) -> tuple[list[tuple], bool]:
    rows, failed = [], False
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            rows.append((workload, "-", 0.0, 0.0, 0.0, 0.0, "missing"))
            failed = True
            continue
        for name, metric in entry["metrics"].items():
            ratio, word = verdict(metric, other["metrics"][name])
            rows.append((workload, name, metric["median"],
                         other["metrics"][name]["median"], ratio,
                         metric["bound"], word))
            failed = failed or word == "worse"
    return rows, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows, failed = compare(*documents)
    print(f"{'workload':15} {'metric':24} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for workload, name, old, now, ratio, bound, word in rows:
        print(f"{workload:15} {name:24} {old:12.4f} {now:12.4f} "
              f"{ratio:9.3f} {bound:6.0%}  {word}")
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print("  ".join(f"{word}: {count}" for word, count in sorted(counts.items())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
