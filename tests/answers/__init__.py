"""Answer digests: a net under the stand-in warehouse's executor.

The conformance matrix compares legs that all run on the same executor, so
an executor bug that changes every leg alike passes it. ``corpus.py`` runs
the 22 TPC-H queries and the generated conformance corpus on the oracle
leg and reduces each answer to a sha256 of its normalized rows;
``test_answers.py`` diffs them against the checked-in ``expected/`` files
and ``python -m tests.answers.regen`` rewrites them after an intentional
change.
"""
