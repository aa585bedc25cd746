"""Seeded command transcripts pinned byte for byte.

Each case runs ``qtl`` in-process and compares its stdout with a file under
``tests/golden/`` and its exit code with the one recorded here.  A change
that moves a transcript on purpose rewrites the file, e.g.
``PYTHONPATH=src python -m qtokens cv-demo --seed 7 > tests/golden/cv-demo-seed7-bare.txt``,
and says why.  The sweep CSVs pin every field byte for byte except
``exact_prob``, which may move in its last digits (1e-12 relative) when the
exact law is recomputed by another route.
"""
from pathlib import Path

import pytest

from qtokens import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("cv-demo-seed7-bare", [], 0),
    ("cv-demo-seed7-noise-0.97", ["--noise-fidelity", "0.97"], 0),
    ("cv-demo-seed7-noise-0.6", ["--noise-fidelity", "0.6"], 1),
    ("cv-demo-seed7-policy-fixed", ["--policy", "fixed"], 0),
]


@pytest.mark.parametrize("name, extra, code", CASES, ids=[c[0] for c in CASES])
def test_cv_demo_transcript_is_pinned(capsys, name, extra, code):
    rc = cli.main(["cv-demo", "--seed", "7", *extra])
    assert (capsys.readouterr().out, rc) == ((GOLDEN / f"{name}.txt").read_text(), code)


SWEEP_STRATEGIES = ["intermediate-basis", "measure-reprepare-z", "universal-cloner"]


@pytest.mark.parametrize("strategy", SWEEP_STRATEGIES)
def test_sweep_csv_is_pinned(capsys, strategy):
    rc = cli.main(["sweep", "--N", "60", "--N", "300", "--trials", "20000",
                   "--seed", "3", "--strategy", strategy])
    got = capsys.readouterr().out.splitlines()
    want = (GOLDEN / f"sweep-N60-N300-seed3-{strategy}.csv").read_text().splitlines()
    assert rc == 0 and got[0] == want[0] and len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        f_tol, n, exact, mc, stderr = got_row.split(",")
        w_f_tol, w_n, w_exact, w_mc, w_stderr = want_row.split(",")
        assert (f_tol, n, mc, stderr) == (w_f_tol, w_n, w_mc, w_stderr)
        assert float(exact) == pytest.approx(float(w_exact), rel=1e-12, abs=0.0)
