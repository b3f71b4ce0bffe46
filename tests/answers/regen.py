"""Regenerate the answer digests: ``python -m tests.answers.regen``.

Writes ``tests/answers/expected/<corpus>.sha256`` (one ``name, summary,
sha256`` line per statement) for every corpus. ``--check`` writes nothing
and instead exits non-zero with a unified diff per drifted corpus. Output is
deterministic: running regen twice produces byte-identical files.
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys

from tests.answers.corpus import CORPORA, render, run_corpus

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"


def expected_path(corpus: str) -> pathlib.Path:
    return EXPECTED_DIR / f"{corpus}.sha256"


def check(corpora) -> list[str]:
    """Unified diffs of regenerated vs checked-in digests, one per drift."""
    problems = []
    for corpus in corpora:
        path = expected_path(corpus)
        expected = path.read_text(encoding="utf-8") if path.exists() else ""
        actual = render(run_corpus(corpus))
        if actual != expected:
            problems.append("".join(difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"checked-in/{path.name}",
                tofile=f"regenerated/{path.name}")))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate (or --check) the answer digests")
    parser.add_argument(
        "--check", action="store_true",
        help="write nothing; fail with a unified diff per drifted corpus")
    args = parser.parse_args(argv)
    if args.check:
        problems = check(CORPORA)
        if problems:
            print("".join(problems))
            return 1
        print(f"answer digests up to date for: {', '.join(CORPORA)}")
        return 0
    EXPECTED_DIR.mkdir(exist_ok=True)
    for corpus in CORPORA:
        expected_path(corpus).write_text(render(run_corpus(corpus)),
                                         encoding="utf-8")
    print(f"regenerated {len(CORPORA)} answer files under {EXPECTED_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
