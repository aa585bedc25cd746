"""Seeded command transcripts pinned byte for byte.

Each case runs ``qtl`` in-process and compares its stdout with a file under
``tests/golden/`` and its exit code with the one recorded here.  A change
that moves a transcript on purpose rewrites the file, e.g.
``PYTHONPATH=src python -m qtokens cv-demo --seed 7 > tests/golden/cv-demo-seed7-bare.txt``,
and says why.
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
