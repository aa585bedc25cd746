"""Smoke tests: the scripts under scripts/ run against the public API."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from qtokens.attacks import PAIR_STRATEGIES
from qtokens.cli import SWEEP_HEADER

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_bound_tables_runs():
    proc = _run_script("bound_tables.py")
    assert proc.returncode == 0, proc.stderr
    assert "measured tokens" in proc.stdout and "paired tokens" in proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["thresholds:",
                         "  1 issued copies -> F_tol > 5/6",
                         "  2 issued copies -> F_tol > 11/12"]
    assert not any(line.startswith("  3 issued copies") for line in lines)


def test_run_sweep_writes_one_csv_per_strategy(tmp_path):
    # a mid-size N for every strategy, the p00 > 0 laws included
    proc = _run_script("run_sweep.py", "--sizes", "20", "300", "--trials", "200",
                       "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in csvs] == sorted(
        f"double_accept_{name}.csv" for name in PAIR_STRATEGIES)
    for path in csvs:
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 2 * 26  # one row per (threshold, size) cell
        curves: dict[int, list[tuple[Fraction, float]]] = {}
        for line in lines[1:]:
            f_tol, n, exact = line.split(",")[:3]
            curves.setdefault(int(n), []).append((Fraction(f_tol), float(exact)))
        assert sorted(curves) == [20, 300]
        for points in curves.values():
            exact = [p for _, p in sorted(points)]
            assert all(b <= a for a, b in zip(exact, exact[1:])), (path.name, exact)


def test_protocol_roundtrip_refuses_the_second_redemption():
    # issuer-holder, verifier and holder run as separate OS processes over TCP
    proc = _run_script("protocol_roundtrip.py", "--n", "2", "--r", "8")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "attempt 1: holder exit 0, verifier exit 0" in lines
    assert "attempt 2: holder exit 3, verifier exit 3" in lines
    serial = next(l for l in lines if l.startswith("issued serial ")).split()[-1]
    replies = [json.loads(l[3:]) for l in lines if l.startswith("<< ")]
    assert replies == [
        {"type": "verdict", "v": 2, "accepted": True, "reason": None},
        {"type": "error", "v": 2, "code": "already-redeemed", "detail": serial}]
