"""Multi-pass TDFA: register-free determinization plus backward extraction.

Transitions carry backlink arrays instead of register operations.  The
automaton comes from the powerset construction the register TDFA uses
(`determinize.Powerset`), with the origin of a configuration as its
payload: the TNFA state in the source TDFA state the configuration
descends from.  Configurations sharing an origin share their inherited tag
sequence, so one backlink per unique origin suffices, and the cell of a
transition is that backlink array.  A forward pass records the traversed
backlink arrays, and backward passes decode single offsets, offset lists,
or the full tagged string.

The passes run on a match plan, built from the automaton on its first match
on the frame both engines share (`determinize.PlanFrame`): the input is
mapped to class bytes once with `bytes.translate`, and rows are dense lists
of cells (target, backlinks, skip or None).  A self-loop whose backlink
array maps every slot i to (i, ()) is a no-op: walking back over it changes
neither the slot nor the tags.  A state with no-op self-loops has a
compiled `re` span over their classes, and on entry to the state the
forward pass lets it consume the whole run at C speed.  Each entry costs
one `re` call, so skipping pays off on runs longer than a few bytes.

The forward pass returns the last state and a step list: the backlink array
of each transition taken, in input order, and an int L for a run of L bytes
consumed by a span.  The backward passes walk that list from the end; a run
is one subtraction from the offset.  Offsets stop as soon as every tag has
its last value: only the first occurrence from the end counts.
"""

from itertools import chain

from .determinize import Automaton, PlanFrame, Powerset, _State
from .tnfa import Tnfa


def _format_link(link) -> str:
    i, h = link
    return f"({i},{'.'.join(map(str, h)) or 'e'})"


class MultipassTdfa(Automaton):
    """Cells are backlink arrays: delta[(state, class)] = (target,
    backlinks), a backlink being (index into the previous transition's
    array, tag sequence); phi[state] = (index into the incoming array, final
    tag sequence)."""

    dot_name = "multipass"

    def stats(self) -> dict:
        return {
            "states": self.n_states,
            "finals": sorted(self.finals),
            "backlinks": sum(len(b) for _, b in self.delta.values()),
        }

    def format_cell(self, links) -> str:
        return " ".join(map(_format_link, links))

    def dot_quasi(self):
        for s, link in sorted(self.phi.items()):
            yield "f", "dashed", s, _format_link(link)


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


class _Multipass(Powerset):
    """Multi-pass TDFA's side of the construction.  A state's rows are
    (q, q, l): a configuration seeded from the row has q as its origin.
    Identity includes the origin partition: every closure reaching a state
    must agree on which rows share a backlink slot."""

    def add_state(self, C):
        U2 = unique_origins(C)
        rows = tuple((q, q, l) for q, _, _, l in C)
        key = (rows, tuple(U2[q] for q, *_ in C))
        sid = self.index.get(key)
        if sid is not None:
            return sid, self.states[sid].U
        return self.insert(key, _State(rows, U2)), U2

    def cell(self, sid: int, C):
        target, U2 = self.add_state(C)
        return target, construct_backlinks(C, self.states[sid].U, U2)

    def final_cell(self, state: _State, q, x, l):
        return state.U[q], l


def determinize_multipass(nfa: Tnfa, max_states: int = 100_000) -> MultipassTdfa:
    return _Multipass(nfa, MultipassTdfa(nfa.tags, nfa.alphabet), max_states, nfa.q0).run()


class MatchPlan(PlanFrame):
    """The automaton laid out for the forward pass (see the module docstring)."""

    __slots__ = ()

    @staticmethod
    def no_op(links) -> bool:
        return all(link == (i, ()) for i, link in enumerate(links))

    def cell_payload(self, mp: MultipassTdfa, loops):
        return lambda s, target, links: (links,)


def match_forward(mp: MultipassTdfa, data: bytes, counters: dict | None = None):
    """Run the forward pass; returns (last state, steps) or None.

    steps holds, in input order, the backlink array of each transition taken
    and an int L for each run of L bytes consumed by a span.  With counters,
    adds the bytes consumed to "transitions" and those consumed by spans to
    "skipped".
    """
    plan = mp._plan
    if plan is None:
        plan = mp._plan = MatchPlan(mp)
    rows = plan.rows
    text = data.translate(plan.classes)
    it = iter(text)
    steps: list = []
    append = steps.append
    # Bytes consumed beyond one per step: the position is len(steps) + extra.
    extra = 0
    s = mp.s0
    skip = plan.skip0
    if skip is not None:
        end = skip(text).end()
        if end:
            append(end)
            extra = end - 1
            # A bytes iterator's __setstate__ (its pickle support) sets its
            # position: one call, where islice would step through the run.
            it.__setstate__(end)
    row = rows[s]
    for cls in it:
        cell = row[cls]
        if cell is None:
            break
        s, links, skip = cell
        append(links)
        if skip is not None:
            pos = len(steps) + extra
            end = skip(text, pos).end()
            if end > pos:
                append(end - pos)
                extra += end - pos - 1
                it.__setstate__(end)
        row = rows[s]
    consumed = len(steps) + extra
    if counters is not None:
        counters["transitions"] = counters.get("transitions", 0) + consumed
        counters["skipped"] = counters.get("skipped", 0) + sum(x for x in steps if x.__class__ is int)
    if consumed < len(text) or not plan.final[s]:
        return None
    return s, steps


def _backward(mp: MultipassTdfa, forward):
    """The steps of a backward walk, last first.  The walk starts in slot 0
    at offset len(data) + 1 of a one-slot array holding the final backlink,
    so each array step moves one offset back and reads the tags there."""
    s, steps = forward
    return chain(((mp.phi[s],),), reversed(steps))


def extract_offsets(mp: MultipassTdfa, data: bytes, forward) -> dict:
    """Last offset per tag; negative occurrences record nil (None).  Only
    the first occurrence from the end counts, so the walk stops once every
    tag has one."""
    E: dict = {}
    n = len(mp.tags)
    i, k = 0, len(data) + 1
    if n:
        for step in _backward(mp, forward):
            if step.__class__ is int:
                k -= step
                continue
            i, h = step[i]
            k -= 1
            if h:
                for t in reversed(h):
                    if t > 0:
                        if t not in E:
                            E[t] = k
                    elif -t not in E:
                        E[-t] = None
                if len(E) == n:
                    break
    return {t: E.get(t) for t in mp.tags}


def extract_offset_lists(mp: MultipassTdfa, data: bytes, forward) -> dict:
    """All offsets per tag, oldest first; negative occurrences record -1.

    The walk runs backwards, so offsets are collected in reverse and each
    list flipped once at the end (prepending would be quadratic).
    """
    E: dict[int, list] = {t: [] for t in mp.tags}
    i, k = 0, len(data) + 1
    for step in _backward(mp, forward):
        if step.__class__ is int:
            k -= step
            continue
        i, h = step[i]
        k -= 1
        for t in reversed(h):
            if t > 0:
                E[t].append(k)
            else:
                E[-t].append(-1)
    for lst in E.values():
        lst.reverse()
    return E


# One-byte bytes objects, the symbols of a tagged string.
_BYTES = [bytes([b]) for b in range(256)]


def extract_tstring(mp: MultipassTdfa, data: bytes, forward) -> list:
    """The matched string interleaved with tags: ints are (signed) tag ids,
    single bytes are input symbols."""
    s, steps = forward
    i0, h = mp.phi[s]
    # Pre-size: one slot per symbol plus the history lengths.
    size = len(data) + len(h)
    i = i0
    for step in reversed(steps):
        if step.__class__ is not int:
            i, g = step[i]
            size += len(g)
    out: list = [None] * size
    pos = size - len(h)
    out[pos:] = h
    i, k = i0, len(data)
    for step in reversed(steps):
        if step.__class__ is int:
            out[pos - step : pos] = map(_BYTES.__getitem__, data[k - step : k])
            pos -= step
            k -= step
            continue
        k -= 1
        pos -= 1
        out[pos] = _BYTES[data[k]]
        i, h = step[i]
        if h:
            out[pos - len(h) : pos] = h
            pos -= len(h)
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
