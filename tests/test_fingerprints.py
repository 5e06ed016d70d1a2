"""The compile corpus's automata against perfbench's recorded fingerprints:
`perfbench/fingerprints.py` run as a script, as its docstring says."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compile_corpus_fingerprints_match_the_baseline():
    done = subprocess.run([sys.executable, "perfbench/fingerprints.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "40 of 40" in done.stdout, done.stdout
