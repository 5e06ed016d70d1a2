"""Multi-pass TDFA: register-free determinization plus backward extraction.

Transitions carry backlink arrays instead of register operations.  The
automaton comes from the powerset construction the register TDFA uses
(`determinize.Powerset`), with the origin of a configuration as its
payload: the index of the row of the source TDFA state the configuration
descends from.  Configurations sharing an origin share their inherited tag
sequence, so one backlink per unique origin suffices, and the cell of a
transition is that backlink array.  A state keeps each row's backlink
slot in a tuple indexed by row.  Like the parts of its rows, the slot ints
are shared across states, and equal backlinks are one object.  A forward
pass records the traversed backlink arrays, and backward passes decode
single offsets, offset lists, or the full tagged string.

The passes run on a match plan, built from the automaton on its first match
on the frame both engines share (`determinize.PlanFrame`): the input is
mapped to class bytes once with `bytes.translate`, and rows are dense lists
of cells (target, backlinks, skip or None).  A span (`loop_span`: an exit
class to find up to the bound a match takes once, or an `re` span) lets
the forward pass consume a run of self-loops at C speed.  The pass runs a
cell's skip before the next byte steps, the one site of every span:

- a no-op loop maps every slot i to (i, ()), so walking back over it
  changes neither slot nor tags.  Its span is the state's skip, on every
  cell into the state and `skip0` for the start state, and the run it
  consumes is recorded as an int L;
- a tagged loop: all self-loops of a state carry one other array, and it
  settles: following arr[i][0] from every slot reaches a fixed slot f
  (arr[f][0] == f) within d steps, its depth, after which every step back
  adds the history of f.  Its summary in `bulk` is its tail, d + 1 copies
  of the array.  Its self-loop cells lead through PLAIN_LOOPS copies of
  the state to a last one whose self-loop cells hold the span, so the
  first PLAIN_LOOPS + 1 self-loops of a run are plain steps and no other
  cell pays.  The span consumes the rest of the run: its last d + 1
  bytes stay arrays, and an int -r before them stands for the r bytes
  before those.  A loop whose slots cycle keeps per-byte steps.

The forward pass returns the last state and its steps in input order: the
array of each transition taken and the ints of the runs.  The backward
passes walk them from the end.  A no-op run is one subtraction from the
offset.  At a tagged run, the walk has just stepped over the run's last
d + 1 arrays, so its slot is fixed: offsets subtract too, lists extend by a
`range` per tag, and the tagged string fills strided slices.  Offsets stop
as soon as every tag has its last value.

A tag under no repetition of more than one pass (`once`) occurs once on
every path, so its value can be read from either end.  The offsets pass
reads such tags from the front too, while the path is forced: no-op runs
and one-slot arrays, up to the first tagged run or wider array.  The two
cursors take turns, the front never reading more steps than the back just
took, so a leading field's tags cost a few steps, not the whole path, and
no walk takes more than twice the steps of the back alone.
"""

from itertools import chain, islice

from .determinize import Automaton, PlanFrame, Powerset, _State
from .tnfa import Tnfa


def _format_link(link) -> str:
    i, h = link
    return f"({i},{'.'.join(map(str, h)) or 'e'})"


class MultipassTdfa(Automaton):
    """Cells are backlink arrays: delta[(state, class)] = (target,
    backlinks), a backlink being (index into the previous transition's
    array, tag sequence); phi[state] = (index into the incoming array, final
    tag sequence).  `once` holds the tags that occur at most once on any
    path, which the offsets pass also reads from the front."""

    dot_name = "multipass"
    once: frozenset = frozenset()

    def stats(self) -> dict:
        return {
            "states": self.n_states,
            "finals": sorted(self.finals),
            "backlinks": sum(len(b) for _, b in self.delta.values()),
            "once": sorted(self.once),
        }

    def format_cell(self, links) -> str:
        return " ".join(map(_format_link, links))

    def dot_quasi(self):
        for s, link in sorted(self.phi.items()):
            yield "f", "dashed", s, _format_link(link)


def unique_origins(C) -> tuple:
    """The backlink slot of each configuration: the index of its origin,
    indices assigned to distinct origins in first-seen order.  A closure
    lists each seed's configurations together, and the seeds of one closure
    come from distinct rows, so equal origins are consecutive."""
    slots = []
    slot = -1
    last = None
    for _, o, _, _ in C:
        if o != last:
            last = o
            slot += 1
        slots.append(slot)
    return tuple(slots)


def construct_backlinks(C, U: tuple, shared: dict) -> tuple:
    """One backlink per destination slot: (slot of the origin row in the
    previous array, inherited tag sequence).  Configurations sharing a
    destination slot share their origin, hence their tag sequence, and are
    consecutive (`unique_origins`); the first one wins.  Equal backlinks
    are one object, kept in `shared`."""
    links = []
    last = None
    for _, o, h, _ in C:
        if o != last:
            last = o
            link = (U[o], h)
            links.append(shared.setdefault(link, link))
    return tuple(links)


class _Multipass(Powerset):
    """Multi-pass TDFA's side of the construction.  A configuration seeded
    from a state's row j has j as its origin, so a state's payloads are its
    row indices, and its `U` holds the backlink slot of each row.  Identity
    includes the origin partition: every closure reaching a state must
    agree on which rows share a backlink slot."""

    def add_state(self, C) -> int:
        ql = tuple([(q, l) for q, _, _, l in C])
        U2 = unique_origins(C)
        sid = self.index.get((ql, U2))
        if sid is not None:
            return sid
        ql, U2 = self.share(ql), self.share(U2)
        return self.insert((ql, U2), _State(ql, range(len(ql)), U2))

    def cell(self, sid: int, C):
        target = self.add_state(C)
        return target, construct_backlinks(C, self.states[sid].U, self.shared)

    def final_cell(self, state: _State, j: int):
        return state.U[j], state.ql[j][1]


def determinize_multipass(nfa: Tnfa, max_states: int = 100_000, once=frozenset()) -> MultipassTdfa:
    """once: tags that occur at most once on any path, which
    `extract_offsets` may read from the front of the path."""
    mp = MultipassTdfa(nfa.tags, nfa.alphabet, nfa.byte_to_class)
    mp.once = frozenset(once)
    return _Multipass(nfa, mp, max_states, nfa.q0).run()


def _depth(links) -> int | None:
    """The settling depth of a loop array: the most steps that following
    links[i][0] takes from a slot to a fixed slot (links[f][0] == f), or
    None if some slots cycle instead."""
    depth = [0 if link[0] == i else None for i, link in enumerate(links)]
    for i in range(len(links)):
        path = []
        while depth[i] is None:
            depth[i] = -1  # on the current path
            path.append(i)
            i = links[i][0]
        if depth[i] < 0:
            return None
        d = depth[i]
        for j in reversed(path):
            d += 1
            depth[j] = d
    return max(depth, default=0)


# Self-loop bytes a tagged loop state takes as plain steps before a span may
# take the rest of the run: a span call costs several plain steps, and on
# random text most runs are short.
PLAIN_LOOPS = 3


class MatchPlan(PlanFrame):
    """The automaton laid out for the forward pass (see the module docstring).
    Rows past the automaton's states are copies of its tagged loop states,
    PLAIN_LOOPS per state, chained by their self-loops; the last copy's
    self-loop cells lead back to it and hold the loop's span, and `bulk`
    holds the loop's tail, depth + 1 copies of its array, at that copy
    alone.  `state` maps each row to its state."""

    __slots__ = ("state",)

    def __init__(self, mp: MultipassTdfa):
        super().__init__(mp)
        self.state = list(range(mp.n_states))
        for s, tail in enumerate(self.bulk[: mp.n_states]):
            if tail is not None:
                first = len(self.rows)
                loop = [c for c, cell in enumerate(self.rows[s]) if cell and cell[0] == s]
                copies = [self.rows[s]] + [self.rows[s].copy() for _ in range(PLAIN_LOOPS)]
                for k, row in enumerate(copies):
                    for c in loop:
                        _, links, span = row[c]
                        row[c] = (first + k, links, None) if k < PLAIN_LOOPS else (first + k - 1, links, span)
                self.rows += copies[1:]
                self.final += [self.final[s]] * PLAIN_LOOPS
                self.bulk[s] = None
                self.bulk += [None] * (PLAIN_LOOPS - 1) + [tail]
                self.state += [s] * PLAIN_LOOPS

    @staticmethod
    def no_op(links) -> bool:
        return all(link == (i, ()) for i, link in enumerate(links))

    @staticmethod
    def summary(links) -> list | None:
        depth = _depth(links)
        return None if depth is None else [links] * (depth + 1)

    def cell_payload(self, mp: MultipassTdfa):
        return lambda links: (links,)


def _tagged_run(steps: list, tail: list, run: int) -> int:
    """Record a tagged loop's run of `run` bytes: its last len(tail) bytes
    as the arrays of tail, and an int -r before them for the r bytes before
    those.  Returns the bytes recorded beyond one per step."""
    r = run - len(tail)
    if r > 0:
        steps.append(-r)
    steps.extend(tail[:run])
    return r - 1 if r > 0 else 0


def match_forward(mp: MultipassTdfa, data: bytes, counters: dict | None = None):
    """Run the forward pass; returns (last state, steps) or None.

    steps holds, in input order, the backlink array of each transition taken,
    an int L for each run of L bytes consumed by a no-op span, and -r for r
    steps on the tagged loop array around it.  With counters, adds the bytes
    consumed to "transitions" and those consumed by spans of either kind to
    "skipped".
    """
    plan = mp._plan
    if plan is None:
        plan = mp._plan = MatchPlan(mp)
    rows, bulk = plan.rows, plan.bulk
    text = data.translate(plan.classes)
    n = len(text)
    # One past the first dead byte or the end, as in `exec_tdfa`.
    bound = n + 1 if plan.dead is None else text.find(plan.dead) % (n + 1) + 1
    # A bytes iterator's __setstate__ (its pickle support) sets its
    # position: one call, where islice would step through a run.
    it = iter(text)
    steps: list = []
    append = steps.append
    # Bytes consumed beyond one per step: the position is len(steps) + extra.
    extra = 0
    skipped = 0  # by tagged runs
    s = mp.s0
    skip = plan.skip0
    row = rows[s]
    for cls in it:
        # The skip of the row entered (or of the start state) runs before
        # cls steps: a run it consumes starts at cls.
        if skip is not None:
            pos = len(steps) + extra
            if skip.__class__ is int:
                end = text.find(skip, pos, bound) % bound
            else:
                end = skip(text, pos).end()
            if end > pos:
                if bulk[s] is None:
                    append(end - pos)
                    extra += end - pos - 1
                else:
                    skipped += end - pos
                    extra += _tagged_run(steps, bulk[s], end - pos)
                it.__setstate__(end)
                skip = None
                continue
        cell = row[cls]
        if cell is None:
            break
        s, links, skip = cell
        append(links)
        row = rows[s]
    consumed = len(steps) + extra
    if counters is not None:
        counters["transitions"] = counters.get("transitions", 0) + consumed
        counters["skipped"] = counters.get("skipped", 0) + skipped + sum(
            x for x in steps if x.__class__ is int and x > 0)
    if consumed < len(text) or not plan.final[s]:
        return None
    return plan.state[s], steps


def _backward(mp: MultipassTdfa, forward):
    """The steps of a backward walk, last first.  The walk starts in slot 0
    at offset len(data) + 1 of a one-slot array holding the final backlink,
    so each array step moves one offset back and reads the tags there.  An
    int -r comes right after a step in a fixed slot of a loop array: r more
    steps with that step's history."""
    s, steps = forward
    return chain(((mp.phi[s],),), reversed(steps))


def _walk_back(back, i: int, k: int, E: dict, n: int) -> tuple[int, int]:
    """Record in E the first occurrence from the end of each tag the steps
    of back reach, from slot i at offset k, until all n tags have one.
    Returns the slot and offset reached."""
    for step in back:
        if step.__class__ is int:
            k -= step if step > 0 else -step
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
    return i, k


# Steps the offsets walk takes from the back before the front cursor first
# reads: a path this short is walked from the back alone.
FRONT_AFTER = 32


def _read_front(steps: list, f: int, end: int, pos: int, once, E: dict):
    """Read the tags of once from steps[f:end] while the path is forced:
    a no-op run moves the offset pos, and a one-slot array's only link is
    the one every walk takes.  A tag of once occurs at most once on the
    path, so its value there is its last.  Returns the next step, its
    offset, and False if the front stopped: at a tagged run or a wider
    array, or with every tag of once resolved."""
    it = iter(steps)
    it.__setstate__(f)
    try:
        for step in islice(it, end - f):
            if step.__class__ is int:
                if step < 0:
                    break
                pos += step
                continue
            ((_, h),) = step  # a wider array raises ValueError
            if h:
                for t in h:
                    if t > 0:
                        if t in once:
                            E[t] = pos
                    elif -t in once:
                        E[-t] = None
                if once <= E.keys():
                    return len(steps) - it.__length_hint__(), pos + 1, False
            pos += 1
        else:
            return end, pos, True
    except ValueError:
        pass
    # The step it stopped at is unread.
    return len(steps) - it.__length_hint__() - 1, pos, False


def extract_offsets(mp: MultipassTdfa, data: bytes, forward, counters: dict | None = None) -> dict:
    """Last offset per tag; negative occurrences record nil (None).  Only
    the first occurrence from the end counts, so the walk stops once every
    tag has one, and steps over a tagged run like a no-op one.  On a path
    of FRONT_AFTER steps or more, the tags of `mp.once` are also read from
    the front (`_read_front`): the back walks in rounds of doubling length,
    and after each the front reads at most as many steps, never past the
    back.  With counters, adds both cursors' steps to "walked"."""
    E: dict = {}
    n = len(mp.tags)
    s, steps = forward
    # As `_backward`, keeping rev to see how far the back has come.
    rev = reversed(steps)
    back = chain(((mp.phi[s],),), rev)
    f = pos = 0  # the front cursor's next step and its offset
    once = mp.once
    i, k = 0, len(data) + 1
    # A round with no budget walks the back to the end.
    budget = FRONT_AFTER if once and len(steps) >= FRONT_AFTER else None
    while len(E) < n:
        i, k = _walk_back(back if budget is None else islice(back, budget), i, k, E, n)
        if budget is None or not (end := rev.__length_hint__()):
            break
        # The back may have passed the front, or read the last tags of
        # once itself.
        more = f < end and not once <= E.keys()
        if more:
            f, pos, more = _read_front(steps, f, min(end, f + budget), pos, once, E)
        budget = budget * 2 if more else None
    if counters is not None:
        # The final backlink and the steps the back walked, then the front's.
        walked = 1 + len(steps) - rev.__length_hint__() + f if n else 0
        counters["walked"] = counters.get("walked", 0) + walked
    return {t: E.get(t) for t in mp.tags}


def extract_offset_lists(mp: MultipassTdfa, data: bytes, forward, counters: dict | None = None) -> dict:
    """All offsets per tag, oldest first; negative occurrences record -1.

    The walk runs backwards, so offsets are collected in reverse and each
    list flipped once at the end (prepending would be quadratic).  A tagged
    run extends each tag of h by a range, or goes step by step if a tag
    occurs twice in h.  With counters, adds the steps walked, the final
    backlink included, to "walked".
    """
    E: dict[int, list] = {t: [] for t in mp.tags}
    i, k = 0, len(data) + 1
    if counters is not None:
        counters["walked"] = counters.get("walked", 0) + len(forward[1]) + 1
    for step in _backward(mp, forward):
        if step.__class__ is int:
            if step > 0:
                k -= step
                continue
            r = -step
            if len({abs(t) for t in h}) == len(h):
                for t in reversed(h):
                    if t > 0:
                        E[t].extend(range(k - 1, k - r - 1, -1))
                    else:
                        E[-t].extend([-1] * r)
            else:
                for x in range(k - 1, k - r - 1, -1):
                    for t in reversed(h):
                        E[abs(t)].append(x if t > 0 else -1)
            k -= r
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


def extract_tstring(mp: MultipassTdfa, data: bytes, forward, counters: dict | None = None) -> list:
    """The matched string interleaved with tags: ints are (signed) tag ids,
    single bytes are input symbols.  A tagged run of r steps is filled with
    one strided slice per position of h and one for its symbols.  The
    steps are walked twice, to size the output and to fill it; with
    counters, adds both walks and the final backlink to "walked"."""
    # A "c" view yields one-byte bytes objects: `tolist()` of a slice
    # gives a run's symbols, an index one symbol.
    symbols = memoryview(data).cast("c")
    s, steps = forward
    if counters is not None:
        counters["walked"] = counters.get("walked", 0) + 2 * len(steps) + 1
    i0, h = mp.phi[s]
    # Pre-size: one slot per symbol plus the history lengths.
    size = len(data) + len(h)
    i = i0
    for step in reversed(steps):
        if step.__class__ is not int:
            i, g = step[i]
            size += len(g)
        elif step < 0:
            size -= step * len(g)
    out: list = [None] * size
    pos = size - len(h)
    out[pos:] = h
    i, k = i0, len(data)
    for step in reversed(steps):
        if step.__class__ is int:
            if step > 0:
                out[pos - step : pos] = symbols[k - step : k].tolist()
                pos -= step
                k -= step
                continue
            r, m = -step, len(h) + 1
            base = pos - r * m
            out[base + m - 1 : pos : m] = symbols[k - r : k].tolist()
            for j, t in enumerate(h):
                out[base + j : pos : m] = [t] * r
            pos = base
            k -= r
            continue
        k -= 1
        pos -= 1
        out[pos] = symbols[k]
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
