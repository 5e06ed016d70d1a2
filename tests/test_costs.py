"""Interpreter costs that timings on a shared host cannot resolve.

- Cost pins: the bytecodes and C calls of one match per workload shape
  (tests/costs.py), equal to tests/cost_pins.json on the Python version
  the pins were taken on.  A change that moves a pin says by how much
  and why, and rewrites the pins with `python tests/costs.py --pin`.
- The byte loops' bytecode (`dis`, Python 3.11): `match_forward` carries
  no EXTENDED_ARG, and the argument of `exec_tdfa`'s closing
  JUMP_BACKWARD stays at most EXEC_TDFA_JUMP code units.  An argument
  above 255 takes an EXTENDED_ARG, one more dispatch per byte, which
  `f_trace_opcodes` does not report.
"""

import dis
import json
import sys

import pytest

from tdfa.multipass import match_forward
from tdfa.runtime import exec_tdfa

from costs import PINS, measure, version

PINNED = json.loads(PINS.read_text())
# 418 while nil sets were a step kind of their own.
EXEC_TDFA_JUMP = 373


@pytest.mark.skipif(version() != PINNED["python"], reason="the pins hold another Python version's bytecode")
def test_cost_pins():
    got = measure()
    assert sorted(got) == sorted(PINNED["rows"])
    moved = {name: (PINNED["rows"][name], vector) for name, vector in got.items() if vector != PINNED["rows"][name]}
    assert not moved


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="code units differ between Python versions")
def test_byte_loops_bytecode():
    assert not [ins for ins in dis.get_instructions(match_forward) if ins.opname == "EXTENDED_ARG"]
    closing = max(ins.arg for ins in dis.get_instructions(exec_tdfa) if ins.opname == "JUMP_BACKWARD")
    assert closing <= EXEC_TDFA_JUMP
