"""Execution of register TDFAs: register file, prefix tree, match modes.

Multi-valued tags store their whole offset history in a prefix tree:
a register then holds a node index, so copies stay scalar and appends are
amortized constant.  Offsets are characters consumed; operation lists on a
transition run with the position *before* the consumed symbol (that is
where the closure observed the tags), final and fallback quasi-transitions
run at the match end position.

`exec_tdfa` runs on a match plan, built from the automaton on its first
match and kept until `Tdfa.invalidate()`:

- the input is mapped to class bytes once with `bytes.translate`; dead
  bytes map to a sentinel class whose column is None in every row (a full
  256-byte alphabet has no dead bytes and no sentinel);
- rows are dense lists of cells (target, steps or None, operation count,
  skip or None);
- each distinct operation list is decoded once into flat (kind, dst, src)
  steps that the loop runs inline; an append of a multi-character history
  is one step per character;
- a state with op-free self-loops has a compiled `re` span over those
  classes; on entry to the state the loop lets it consume the whole run of
  such bytes at C speed.  Each entry costs one `re` call, so skipping
  pays off on runs longer than a few bytes.

Counters come from the same loop: `transitions` is the number of bytes
consumed, `operations` the number of operations of the automaton's lists
on the transitions taken (skipped self-loops carry none).  `run_ops`
applies operation lists as written; it runs the final and fallback
quasi-transitions and is the reference the decoded steps are tested
against.
"""

from dataclasses import dataclass, field

from .determinize import Tdfa, class_translation, loop_span
from .regops import COPY, SET


class PrefixTree:
    """Growable tree of (pred, offs) nodes; index 0 is the empty sequence.

    Appends only; common prefixes are shared, so copying a history is
    copying an index.
    """

    __slots__ = ("pred", "offs")

    def __init__(self):
        self.pred = [0]
        self.offs = [None]

    def append(self, idx: int, hist: str, pos: int) -> int:
        pred, offs = self.pred, self.offs
        for ch in hist:
            pred.append(idx)
            offs.append(pos if ch == "p" else None)
            idx = len(pred) - 1
        return idx

    def unpack(self, idx: int) -> list:
        out = []
        while idx:
            out.append(self.offs[idx])
            idx = self.pred[idx]
        out.reverse()
        return out


@dataclass
class MatchOutcome:
    kind: str  # "match" | "prefix" | "none"
    end: int | None = None
    # tag -> offset | None (single-valued) or list of offsets/-1 (multi).
    values: dict = field(default_factory=dict)
    tstring: list | None = None

    def __bool__(self) -> bool:
        return self.kind != "none"


NO_MATCH = MatchOutcome("none")


def run_ops(ops, regs, tree: PrefixTree, pos: int):
    """Apply one operation list in order."""
    for op in ops:
        kind = op[0]
        if kind == SET:
            regs[op[1]] = pos if op[2] == "p" else None
        elif kind == COPY:
            regs[op[1]] = regs[op[2]]
        else:
            regs[op[1]] = tree.append(regs[op[2]], op[3], pos)


# Decoded step kinds, in the order the loop tests them.
_COPY, _APPEND_P, _SET_P, _SET_N, _APPEND_N = range(5)


def _decode_ops(ops) -> tuple:
    """Flat (kind, dst, src) steps with the effect of run_ops(ops)."""
    steps = []
    for op in ops:
        if op[0] == SET:
            steps.append((_SET_P if op[2] == "p" else _SET_N, op[1], 0))
        elif op[0] == COPY or not op[3]:
            steps.append((_COPY, op[1], op[2]))
        else:
            src = op[2]
            for ch in op[3]:
                steps.append((_APPEND_P if ch == "p" else _APPEND_N, op[1], src))
                src = op[1]
    return tuple(steps)


class MatchPlan:
    """The automaton decoded for exec_tdfa (see the module docstring)."""

    __slots__ = ("classes", "rows", "final", "skip0", "regs0")

    def __init__(self, tdfa: Tdfa):
        self.classes = class_translation(tdfa.byte_to_class)
        width = max(self.classes) + 1
        n = tdfa.n_states
        loops: list[list[int]] = [[] for _ in range(n)]
        for (s, c), (target, ops) in tdfa.delta.items():
            if target == s and not ops:
                loops[s].append(c)
        skip = [loop_span(cs) for cs in loops]
        decoded: dict = {}
        self.rows = [[None] * width for _ in range(n)]
        for (s, c), (target, ops) in tdfa.delta.items():
            steps = None
            if ops:
                steps = decoded.get(ops)
                if steps is None:
                    steps = decoded[ops] = _decode_ops(ops)
            self.rows[s][c] = (target, steps, len(ops), skip[target])
        self.final = [s in tdfa.finals for s in range(n)]
        self.skip0 = skip[tdfa.s0]
        self.regs0 = [None] * (tdfa.max_reg + 1)
        for t in tdfa.multi:
            self.regs0[tdfa.r0[t]] = 0


def _read_values(tdfa: Tdfa, regs, tree: PrefixTree) -> dict:
    values = {}
    for t in tdfa.tags:
        r = regs[tdfa.rf[t]]
        if t in tdfa.multi:
            values[t] = [-1 if x is None else x for x in tree.unpack(r)]
        else:
            values[t] = r
    return values


def exec_tdfa(tdfa: Tdfa, data: bytes, mode: str = "full", counters: dict | None = None) -> MatchOutcome:
    """Run the automaton over data.

    Full mode accepts iff the whole input ends in a final state.  Longest-
    prefix mode remembers the last visited final state (offset and state)
    and, on a dead end, restores it: the fallback quasi-transition replaces
    the final one when the automaton moved past the match point.
    """
    plan = tdfa._plan
    if plan is None:
        plan = tdfa._plan = MatchPlan(tdfa)
    rows, final = plan.rows, plan.final
    text = data.translate(plan.classes)
    n = len(text)
    tree = PrefixTree()
    pred, offs = tree.pred, tree.offs
    regs = plan.regs0.copy()

    state = tdfa.s0
    skip = plan.skip0
    pos = skip(text).end() if skip is not None else 0
    match_pos = pos if final[state] else -1
    match_state = state
    row = rows[state]
    n_ops = 0
    while pos < n:
        cell = row[text[pos]]
        if cell is None:
            break
        state, steps, k, skip = cell
        if steps is not None:
            n_ops += k
            for kind, dst, src in steps:
                if kind == _COPY:
                    regs[dst] = regs[src]
                elif kind == _APPEND_P:
                    pred.append(regs[src])
                    regs[dst] = len(offs)
                    offs.append(pos)
                elif kind == _SET_P:
                    regs[dst] = pos
                elif kind == _SET_N:
                    regs[dst] = None
                else:  # _APPEND_N
                    pred.append(regs[src])
                    regs[dst] = len(offs)
                    offs.append(None)
        pos += 1
        if skip is not None:
            pos = skip(text, pos).end()
        if final[state]:
            match_pos = pos
            match_state = state
        row = rows[state]

    if counters is not None:
        counters["transitions"] = counters.get("transitions", 0) + pos
        counters["operations"] = counters.get("operations", 0) + n_ops

    if mode == "full":
        if match_pos != n:
            return NO_MATCH
        run_ops(tdfa.phi[match_state], regs, tree, n)
        return MatchOutcome("match", n, _read_values(tdfa, regs, tree))

    # longest-prefix mode
    if match_pos < 0:
        return NO_MATCH
    if match_pos == pos:
        quasi = tdfa.phi[match_state]
    else:
        quasi = tdfa.psi.get(match_state)
        if quasi is None:
            raise ValueError(f"final state {match_state} was left but has no fallback operations")
    run_ops(quasi, regs, tree, match_pos)
    kind = "match" if match_pos == n else "prefix"
    return MatchOutcome(kind, match_pos, _read_values(tdfa, regs, tree))
