"""The benchmark's cv_sessions unit at toy size, run against this package.

A change to the paired token type, its ``shape`` or the holder path that
the benchmark drives fails here, in the suite, rather than only in a
benchmark run.
"""
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def test_cv_sessions_unit_at_toy_size_fails_no_op(tmp_path):
    w = workloads.CvSessions()
    w.LAYOUT = (2, 8, Fraction(3, 4))
    w.FRESH, w.REPLAYS, w.UNKNOWN, w.MALFORMED = 6, 2, 2, 3
    w.setup(1, str(tmp_path))
    try:
        result = w.unit(0)
    finally:
        w.close()
    assert result.attempted == 13
    assert (result.failed, result.violations) == (0, [])
    assert w.finish() == []
