"""Benchmark units at toy size, run against this package.

A change to the paired token type, its ``shape``, the holder path, the
sweep's rows or the issue/verify path on a store file that the benchmark
drives fails here, in the suite, rather than only in a benchmark run.
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


def test_sweep_units_at_toy_size_fail_no_op(tmp_path):
    w = workloads.Sweep()
    w.GRID = (Fraction(4, 5), Fraction(9, 10))
    w.PARTS = (("measure-reprepare-z", (30,)), ("universal-cloner", (20, 40)))
    w.TRIALS = 2_000
    w.setup(1, str(tmp_path))
    try:
        # the second unit repeats the seeded job and checks its bytes
        results = [w.unit(0), w.unit(1)]
    finally:
        w.close()
    for result in results:
        assert result.attempted == 1
        assert (result.failed, result.violations) == (0, [])


def test_redeem_store_unit_at_toy_size_fails_no_op(tmp_path):
    w = workloads.RedeemStore()
    w.PREFILL_MEASURED, w.PREFILL_PAIRED = 3, 2
    w.N, w.PAIRED_LAYOUT = 32, (2, 4, Fraction(3, 4))
    w.TRIPLES = 2
    w.setup(1, str(tmp_path))
    try:
        result = w.unit(0)
    finally:
        w.close()
    assert result.attempted == 3 * 2
    assert (result.failed, result.violations) == (0, [])
