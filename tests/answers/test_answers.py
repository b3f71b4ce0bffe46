"""Every answer digest matches the checked-in one.

A failure means the stand-in warehouse now answers a statement differently.
If that is intentional, regenerate with ``python -m tests.answers.regen`` and
review the diff in the commit.
"""

from __future__ import annotations

import pytest

from tests.answers.corpus import CORPORA, run_corpus
from tests.answers.regen import expected_path


def _checked_in(corpus: str) -> dict[str, str]:
    lines = expected_path(corpus).read_text(encoding="utf-8").splitlines()
    return dict(line.split("\t", 1) for line in lines)


@pytest.mark.parametrize("corpus", CORPORA)
def test_answers_match_checked_in_digests(corpus):
    expected = _checked_in(corpus)
    actual = dict(run_corpus(corpus))
    assert list(actual) == list(expected), (
        f"{corpus}: statement list changed (rerun `python -m tests.answers.regen`)")
    drifted = [f"  {name}: expected {expected[name]}, got {line}"
               for name, line in actual.items() if line != expected[name]]
    assert not drifted, (
        f"{len(drifted)} answer(s) changed in corpus {corpus!r}:\n"
        + "\n".join(drifted))
