"""Multi-pass TDFA: register-free determinization plus backward extraction.

Transitions carry backlink arrays instead of register operations.  Closure
configurations are extended with an origin component (the TNFA state in the
source TDFA state the configuration descends from); configurations sharing
an origin share their inherited tag sequence, so one backlink per unique
origin suffices.  A forward pass records the traversed backlink arrays, and
backward passes decode single offsets, offset lists, or the full tagged
string.
"""

from collections import deque

from .determinize import ResourceLimit, byte_classes, class_translation
from .tnfa import Tnfa


class MultipassTdfa:
    def __init__(self, nfa: Tnfa):
        self.tags = nfa.tags
        self.alphabet, self.byte_to_class = byte_classes(nfa.alphabet)
        self.n_states = 0
        self.s0 = 0
        self.finals: set[int] = set()
        # delta[(state, class)] = (target, backlinks); a backlink is
        # (index into the previous transition's array, tag sequence).
        self.delta: dict[tuple[int, int], tuple[int, tuple]] = {}
        # phi[state] = (index into the incoming array, final tag sequence)
        self.phi: dict[int, tuple[int, tuple]] = {}
        self._table = None

    def n_classes(self) -> int:
        return len(self.alphabet)

    def table(self):
        """(translate table, rows) for the forward pass: the input maps to
        classes with bytes.translate, and the rows have a None column for
        the sentinel class of dead bytes."""
        if self._table is None:
            classes = class_translation(self.byte_to_class)
            t = [[None] * (max(classes) + 1) for _ in range(self.n_states)]
            for (s, c), cell in self.delta.items():
                t[s][c] = cell
            self._table = classes, t
        return self._table

    def stats(self) -> dict:
        return {
            "states": self.n_states,
            "finals": sorted(self.finals),
            "backlinks": sum(len(b) for _, b in self.delta.values()),
        }

    def to_dot(self) -> str:
        lines = ["digraph multipass {", "  rankdir=LR;", "  node [shape=circle];"]
        for s in sorted(self.finals):
            lines.append(f"  {s} [shape=doublecircle];")
        for (s, c), (target, links) in sorted(self.delta.items()):
            byte = self.alphabet[c]
            sym = chr(byte) if 32 <= byte < 127 else f"\\\\x{byte:02x}"
            body = " ".join(f"({i},{'.'.join(map(str, h)) or 'e'})" for i, h in links)
            lines.append(f'  {s} -> {target} [label="{sym} / {body}", style=bold];')
        for s, (i, l) in sorted(self.phi.items()):
            body = f"({i},{'.'.join(map(str, l)) or 'e'})"
            lines.append(f'  f{s} [shape=point]; {s} -> f{s} [label="{body}", style=dashed];')
        lines.append("}")
        return "\n".join(lines)


def unique_origins(C) -> dict[int, int]:
    """Map each closure state to the index of its origin, indices assigned
    to distinct origins in first-seen order."""
    index: dict[int, int] = {}
    out: dict[int, int] = {}
    for q, o, *_ in C:
        if o not in index:
            index[o] = len(index)
        out[q] = index[o]
    return out


def construct_backlinks(C, U: dict[int, int], U2: dict[int, int]) -> tuple:
    """One backlink per unique destination origin: (slot in the previous
    array, inherited tag sequence).  Configurations sharing a destination
    slot share their origin, hence their tag sequence; the first one wins."""
    n = max(U2.values()) + 1 if U2 else 0
    links: list = [None] * n
    for q, o, h, _ in C:
        i = U2[q]
        if links[i] is None:
            links[i] = (U[o], h)
    return tuple(links)


class _State:
    __slots__ = ("rows", "U", "final")

    def __init__(self, rows, U):
        self.rows = rows  # ((q, lookahead), ...) in precedence order
        self.U = U
        self.final = False


def determinize_multipass(nfa: Tnfa, max_states: int = 100_000) -> MultipassTdfa:
    mp = MultipassTdfa(nfa)
    states: list[_State] = []
    # Identity includes the origin partition: every closure reaching a state
    # must agree on which rows share a backlink slot.
    index: dict = {}
    worklist: deque[int] = deque()

    def closure(seeds):
        out = []
        seen = set()
        stack = [(q, o, h, ()) for q, o, h in reversed(seeds)]
        while stack:
            q, o, h, l = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            out.append((q, o, h, l))
            for _, tag, p in reversed(nfa.eps[q]):
                if p not in seen:
                    stack.append((p, o, h, l if tag == 0 else l + (tag,)))
        return [cfg for cfg in out if cfg[0] == nfa.qf or nfa.syms[cfg[0]]]

    def add_state(C):
        U2 = unique_origins(C)
        rows = tuple((q, l) for q, _, _, l in C)
        partition = tuple(U2[q] for q, *_ in C)
        key = (rows, partition)
        sid = index.get(key)
        if sid is not None:
            return sid, states[sid].U
        if len(states) >= max_states:
            raise ResourceLimit(f"state cap {max_states} exceeded")
        state = _State(rows, U2)
        sid = len(states)
        states.append(state)
        index[key] = sid
        worklist.append(sid)
        for q, o, _, l in C:
            if q == nfa.qf:
                state.final = True
                mp.finals.add(sid)
                mp.phi[sid] = (U2[q], l)
                break
        return sid, U2

    C0 = closure([(nfa.q0, nfa.q0, ())])
    add_state(C0)
    while worklist:
        sid = worklist.popleft()
        state = states[sid]
        for cls, byte in enumerate(mp.alphabet):
            seeds = []
            for q, l in state.rows:
                p = nfa.syms[q].get(byte)
                if p is not None:
                    seeds.append((p, q, l))
            if not seeds:
                continue
            C = closure(seeds)
            if not C:
                continue
            target, U2 = add_state(C)
            mp.delta[(sid, cls)] = (target, construct_backlinks(C, state.U, U2))
    mp.n_states = len(states)
    return mp


def match_forward(mp: MultipassTdfa, data: bytes):
    """Run the forward pass; returns (state sequence, backlink array
    sequence) or None.  The arrays are recorded to save lookups in the
    backward passes."""
    classes, table = mp.table()
    s = mp.s0
    seq = [s]
    arrays = []
    for cls in data.translate(classes):
        cell = table[s][cls]
        if cell is None:
            return None
        s = cell[0]
        seq.append(s)
        arrays.append(cell[1])
    if s not in mp.finals:
        return None
    return seq, arrays


def _backlink_walk(mp: MultipassTdfa, arrays, last_state: int):
    """Yield (k, tag sequence) from the match end back to the start."""
    i, h = mp.phi[last_state]
    k = len(arrays)
    while True:
        yield k, h
        if k == 0:
            return
        i, h = arrays[k - 1][i]
        k -= 1


def extract_offsets(mp: MultipassTdfa, data: bytes, forward) -> dict:
    """Last offset per tag; negative occurrences record nil (None)."""
    seq, arrays = forward
    missing = object()
    E = {t: missing for t in mp.tags}
    for k, h in _backlink_walk(mp, arrays, seq[-1]):
        for t in reversed(h):
            if t > 0:
                if E[t] is missing:
                    E[t] = k
            elif E[-t] is missing:
                E[-t] = None
    return {t: (None if v is missing else v) for t, v in E.items()}


def extract_offset_lists(mp: MultipassTdfa, data: bytes, forward) -> dict:
    """All offsets per tag, oldest first; negative occurrences record -1.

    The walk runs backwards, so offsets are collected in reverse and each
    list flipped once at the end (prepending would be quadratic).
    """
    seq, arrays = forward
    E: dict[int, list] = {t: [] for t in mp.tags}
    for k, h in _backlink_walk(mp, arrays, seq[-1]):
        for t in reversed(h):
            if t > 0:
                E[t].append(k)
            else:
                E[-t].append(-1)
    for lst in E.values():
        lst.reverse()
    return E


def extract_tstring(mp: MultipassTdfa, data: bytes, forward) -> list:
    """The matched string interleaved with tags: ints are (signed) tag ids,
    single bytes are input symbols."""
    seq, arrays = forward
    # Pre-size: one slot per symbol plus the history lengths.
    size = len(data)
    for _, h in _backlink_walk(mp, arrays, seq[-1]):
        size += len(h)
    out: list = [None] * size
    pos = size
    first = True
    for k, h in _backlink_walk(mp, arrays, seq[-1]):
        if not first:
            pos -= 1
            out[pos] = bytes(data[k : k + 1])
        first = False
        for t in reversed(h):
            pos -= 1
            out[pos] = t
    assert pos == 0
    return out


def render_tstring(tokens) -> str:
    parts = []
    for tok in tokens:
        if isinstance(tok, int):
            parts.append(str(tok))
        else:
            b = tok[0]
            parts.append(chr(b) if 32 <= b < 127 else f"\\x{b:02x}")
    return " ".join(parts)
