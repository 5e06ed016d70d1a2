"""Execution of register TDFAs: register file, prefix tree, match modes.

Multi-valued tags store their whole offset history in a prefix tree:
a register then holds a node index, so copies stay scalar and appends are
amortized constant.  Offsets are characters consumed; operation lists on a
transition run with the position *before* the consumed symbol (that is
where the closure observed the tags), final and fallback quasi-transitions
run at the match end position.

`exec_tdfa` runs on a match plan, built from the automaton on its first
match and kept until `Tdfa.invalidate()`.  The frame both engines share
(`determinize.PlanFrame`) maps the input to class bytes once with
`bytes.translate` and lays out dense rows of cells (target, steps or None,
skip or None), skip being the span the loop runs after the cell (below),
at the one site of every span.  The register TDFA adds the steps and the
loop summaries:

- each distinct operation list is decoded once into flat (kind, dst, src)
  steps of four kinds that the loop runs inline: a copy, a set to the
  position, and an append of "p" or of "n", one per history character.
  Register 0 holds nil and no operation may write it, so a nil set is the
  copy `r <- r0`;
- copies with one offset src - dst to consecutive destinations (the
  shift chain r4..r101 <- r5..r102 of `(?:#a)*a{100}`) become one copy
  step whose dst and src are `slice`s, so `regs[dst] = regs[src]` moves
  them all.  Only runs of at least SLICE_MIN copies do: a slice move costs
  about as much as 5-6 plain copies.  The move takes the place of the
  run's first copy, and the result is checked symbolically against the
  list when the plan is built; a failed check keeps the plain steps;
- a state with op-free self-loops has a span over those classes (the
  frame's skip); on entry to the state the loop lets it consume the whole
  run of such bytes at C speed, in one call.  A span is the loop's one
  exit class, run as `text.find(e, pos, bound) % bound`, bound being one
  past the input's first dead byte (looked for once per match) or its
  end, or else a compiled `re` span (`loop_span`);
- a state with no op-free self-loop whose self-loops all carry one list
  with a loop summary (`PlanFrame.bulk`) has a bulk loop.  The summary is
  read off the list's symbolic effect: each written register is a head,
  a set `r <- p` or a single-character self-append `r <- r.h`, or a copy
  whose chain of copies ends in a head or in a register the list does not
  write, nil's register 0 among them (golden's `r6 <- r7 <- r7.p`, the
  shift chain of `(?:#a)*a{100}`).  Copy cycles, appends from another
  register and longer histories have none.  The frame puts the span of
  those classes in the skip slot of the state's self-loop cells: the
  first loop byte runs its steps as usual (entries that leave at once pay
  no span call), the span consumes the rest of the run, L bytes, and
  `_run_bulk` applies the summary in their place.  After it, a register
  at depth d of a chain holds, for L <= d, the value before the run of
  the member L steps closer to the head, and otherwise the head's value
  after iteration L - d: a set position, the unwritten register, or the
  head's history after L - d appends.  A copy tree's depths run 1..depth
  without gaps, so an append head whose tree is depth deep stores one run
  node for its first L - m entries, then one single node for each of the
  last m, m = min(depth, L - 1): those are all its copies can read.  Set
  registers get the run's last position, and the copies are filled in
  one pass over each chain.  A bulk run so costs O(depth), never O(L).

Every run of history entries a read-out meets, a run node's or a
multipass lists' tagged run's, is made by one function, `extend_run`:
count times -1 for a bypass run, a `range` when every offset is at most
256 (CPython keeps those ints, so it makes none), and otherwise a slice of
one table of offset ints shared by every match, which copies references
where a `range` makes a new int per offset: that set the time of a long
run's history.  The table grows to the longest run a match asks for, up
to OFFSETS_MAX offsets; a run past that is a `range`.  The single nodes
after a run node are not runs: the forward pass meets them at rising
offsets, and taking them from the table would copy it once per run.

The byte loop keeps no counter: counters are read after it, when a dict
is given, and add to what it holds.  `transitions` is the number of bytes
consumed; `operations` the operations of the lists on the transitions
taken, summed by a second walk of those bytes through `delta`;
`tree_nodes` the history entries appended, a run node counting each of
its entries; and `fallback` is 1 when the match took the fallback
quasi-transition.  The final and fallback lists run after the counters
are read, decoded as the transitions' are, by `_run_steps`: only
`_decode_ops` reads operation tuples.
"""

from dataclasses import dataclass, field
from itertools import groupby

from .determinize import PlanFrame, Tdfa
from .regops import COPY, SET


# The most offsets the shared table holds: 40 B each at most, an int and
# its slot.
OFFSETS_MAX = 1 << 18
_offsets: list = []  # _offsets[i] is i

# Offsets up to this one are ints CPython keeps: a `range` of them makes
# no new int.
SMALL_MAX = 256


def extend_run(out: list, first: int, count: int) -> list:
    """out extended by a run of count history entries, last first: the
    offsets first + count - 1 down to first, or count times -1 when first
    is -1.  Returns out or a fresh list that holds it.

    A run that reaches past SMALL_MAX is a slice of the shared table,
    moved into the longer of the two lists: moving references within a
    list costs less than copying them.  The table is never changed: a growth
    binds a longer copy, so a match slicing the old one in another thread
    is unaffected.  Of two growths at once, the later binding stays; both
    tables hold i at index i.  A growth copies the whole table, so callers
    ask for a match's runs from its last one down: a history then grows
    the table at most once."""
    if first < 0:
        out += [-1] * count
        return out
    stop = first + count
    if stop <= SMALL_MAX + 1 or stop > OFFSETS_MAX:
        out += range(stop - 1, first - 1, -1)
        return out
    global _offsets
    table = _offsets
    if len(table) < stop:
        table = _offsets = table + list(range(len(table), stop))
    run = table[stop - 1 : first - 1 if first else None : -1]
    if len(out) < count:
        run[:0] = out
        return run
    out += run
    return out


class PrefixTree:
    """Growable tree of (pred, offs) nodes; index 0 is the empty sequence
    and a bypassed offset is stored as -1, as outcomes report it.  A nil
    pred counts as the root.

    Appends only; common prefixes are shared, so copying a history is
    copying an index.  A node holds one entry, or a run of entries
    appended in bulk: its offs is then (first, count), the offsets first
    to first + count - 1 in order, or count times -1 when first is -1.
    Nothing points into a run node: a register that reads a history from
    inside a bulk run gets a single node after it.  `runs` is set once a
    run node is stored; until then `unpack` walks the nodes with no test
    per node, and after it takes the entries of a run node in one
    `extend_run`.
    """

    __slots__ = ("pred", "offs", "runs")

    def __init__(self):
        self.pred = [0]
        self.offs = [-1]
        self.runs = False

    def unpack(self, idx: int) -> list:
        pred, offs = self.pred, self.offs
        out = []
        if not self.runs:
            while idx:
                out.append(offs[idx])
                idx = pred[idx]
        else:
            while idx:
                off = offs[idx]
                if type(off) is tuple:  # a run node: its entries, last first
                    out = extend_run(out, *off)
                else:
                    out.append(off)
                idx = pred[idx]
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


# Decoded step kinds, in the order the loop tests them.  A nil set is a
# copy from register 0, which holds nil and which no operation writes.
_COPY, _APPEND_P, _SET_P, _APPEND_N = range(4)

# A run of consecutive copies of one offset becomes one slice move from
# this many on; below it the plain copies cost less.
SLICE_MIN = 8


def _check_registers(ops, regs: range):
    """Refuse an operation that writes register 0, which holds nil, or
    names a register outside regs."""
    for op in ops:
        if not op[1]:
            raise ValueError(f"operation {op} writes register 0, which holds nil")
        if op[1] not in regs or op[0] != SET and op[2] not in regs:
            raise ValueError(f"operation {op} names a register outside {regs.start}..{regs.stop - 1}")


def _decode_ops(ops) -> tuple:
    """Flat (kind, dst, src) steps with the effect of ops run in order."""
    steps = []
    for op in ops:
        if op[0] == SET:
            steps.append((_SET_P if op[2] == "p" else _COPY, op[1], 0))
        elif op[0] == COPY or not op[3]:
            steps.append((_COPY, op[1], op[2]))
        else:
            src = op[2]
            for ch in op[3]:
                steps.append((_APPEND_P if ch == "p" else _APPEND_N, op[1], src))
                src = op[1]
    if sum(step[0] == _COPY for step in steps) >= SLICE_MIN:
        steps = _with_slice_moves(steps) or steps
    return tuple(steps)


def _effect(steps) -> dict:
    """Symbolic run of steps: each written register maps to a term over the
    values before the list (a register number, 0 for nil), "p" and appends
    (term, character)."""
    val = {}
    for kind, dst, src in steps:
        if kind == _COPY:
            if type(dst) is slice:
                terms = [val.get(r, r) for r in range(src.start, src.stop)]
                val.update(zip(range(dst.start, dst.stop), terms))
            else:
                val[dst] = val.get(src, src)
        elif kind == _SET_P:
            val[dst] = "p"
        else:
            val[dst] = (val.get(src, src), "p" if kind == _APPEND_P else "n")
    return val


def _with_slice_moves(plain: list) -> list | None:
    """The plain steps of a list with each run of at least SLICE_MIN copies
    of one offset src - dst to consecutive registers as one slice move,
    placed where the first copy of the run stands.  None when no run is
    that long or the steps differ from the plain ones."""
    by_offset: dict[int, dict[int, int]] = {}
    for i, (kind, dst, src) in enumerate(plain):
        if kind == _COPY and dst != src:
            by_offset.setdefault(src - dst, {})[dst] = i
    out = list(plain)
    for offset, members in by_offset.items():
        # runs of consecutive destinations: d minus its index is constant along one
        for _, run in groupby(enumerate(sorted(members)), lambda item: item[1] - item[0]):
            dsts = [d for _, d in run]
            if len(dsts) >= SLICE_MIN:
                where = sorted(members[d] for d in dsts)
                first, last = dsts[0], dsts[-1] + 1
                out[where[0]] = (_COPY, slice(first, last), slice(first + offset, last + offset))
                for i in where[1:]:
                    out[i] = None
    out = [step for step in out if step is not None]
    if len(out) == len(plain):
        return None
    return out if _effect(out) == _effect(plain) else None


def _bulk_form(steps) -> tuple | None:
    """The loop summary of a self-loop list, decoded to steps: (appends,
    sets, chains), or None.

    It is read off the list's symbolic effect.  Its heads are the
    single-character self-appends, as (register, is "p", depth), and the
    registers set to the position.  Every other written register must copy
    one register: the copies form trees that hang from a head or from a
    register the list does not write, nil's register 0 among them.  A
    chain is one such tree as (head, kind, members), kind being the index
    of the head's append, "p" for a set and None for an unwritten head, and
    members its (register, depth) pairs in preorder.  The depths of a tree
    run 1..depth without gaps; an append's depth is that of its tree, 0
    when none hangs from it.  Copy cycles, appends from another register
    and histories of more than one character have no summary."""
    appends, sets, parent = [], [], {}
    for r, term in _effect(steps).items():
        if term == r:  # a self-copy writes nothing
            continue
        if term == "p":
            sets.append(r)
        elif type(term) is int:
            parent[r] = term
        elif term[0] == r:
            appends.append((r, term[1] == "p"))
        else:
            return None
    children: dict = {}
    for r, src in parent.items():
        children.setdefault(src, []).append(r)
    kinds = {r: k for k, (r, _) in enumerate(appends)} | dict.fromkeys(sets, "p")
    chains = []
    for head in [r for r in children if r not in parent]:
        members = []
        stack = [(r, 1) for r in children[head]]
        while stack:
            r, d = stack.pop()
            members.append((r, d))
            stack += [(c, d + 1) for c in children.get(r, ())]
        chains.append((head, kinds.get(head), tuple(members)))
    if sum(len(chain[2]) for chain in chains) < len(parent):
        return None  # the copies not reached from a head lie on a cycle
    depth = {head: max(d for _, d in members) for head, _, members in chains}
    appends = [(r, p, depth.get(r, 0)) for r, p in appends]
    return tuple(appends), tuple(sets), tuple(chains)


class MatchPlan(PlanFrame):
    """The automaton decoded for exec_tdfa (see the module docstring).
    `phi` and `psi` map each final and fallback state to its decoded
    list.  Building it refuses a field naming a state, class, tag or register the automaton lacks."""

    __slots__ = ("regs0", "phi", "psi")

    @staticmethod
    def no_op(ops) -> bool:
        return not ops

    summary = staticmethod(_bulk_form)

    def cell_payload(self, tdfa: Tdfa):
        states = range(tdfa.n_states)
        for name, values, valid in (("s0", [tdfa.s0], states), ("transition source", [s for s, _ in tdfa.delta], states),
                                    ("transition target", [t for t, _ in tdfa.delta.values()], states),
                                    ("class", [c for _, c in tdfa.delta], range(len(tdfa.alphabet))),
                                    ("final state", tdfa.phi, states), ("fallback state", tdfa.psi, states),
                                    ("multi", tdfa.multi, tdfa.tags)):
            if bad := [v for v in values if v not in valid]:
                raise ValueError(f"{name} names {bad[0]}, outside {valid}")
        regs = range(1, tdfa.max_reg + 1)
        # The optimizer drops the start registers no multi-valued tag reads.
        for name, verb, where, needed in (("r0", "starts", tdfa.r0, tdfa.multi), ("rf", "ends", tdfa.rf, tdfa.tags)):
            for t in where.keys() | needed:
                if where.get(t) not in regs:
                    raise ValueError(f"{name}: tag {t} {verb} in register {where.get(t)}, outside 1..{tdfa.max_reg}")
        self.regs0 = [None] * (tdfa.max_reg + 1)
        for t in tdfa.multi:
            self.regs0[tdfa.r0[t]] = 0
        decoded: dict = {}

        def payload(ops):
            if ops and ops not in decoded:
                _check_registers(ops, regs)
                decoded[ops] = _decode_ops(ops)
            return decoded.get(ops)

        self.phi = {s: payload(ops) or () for s, ops in tdfa.phi.items()}
        self.psi = {s: payload(ops) or () for s, ops in tdfa.psi.items()}
        return payload


def _read_values(tdfa: Tdfa, regs, tree: PrefixTree) -> dict:
    values = {}
    for t in tdfa.tags:
        r = regs[tdfa.rf[t]]
        if t in tdfa.multi:
            values[t] = tree.unpack(r)
        else:
            values[t] = r
    return values


def _run_steps(steps, regs, tree: PrefixTree, pos: int):
    """Apply decoded steps at pos, as the match loop does."""
    pred, offs = tree.pred, tree.offs
    for kind, dst, src in steps:
        if kind == _COPY:
            regs[dst] = regs[src]
        elif kind == _SET_P:
            regs[dst] = pos
        else:
            pred.append(regs[src])
            regs[dst] = len(offs)
            offs.append(pos if kind == _APPEND_P else -1)


def _run_bulk(form, regs, tree: PrefixTree, start: int, end: int):
    """Apply the loop summary form for the loop bytes start..end - 1, those
    after the first."""
    appends, sets, chains = form
    pred, offs = tree.pred, tree.offs
    run = end - start
    # An append head gets one run node for its first entries and one node
    # for each of the last m, the m its copies can read from inside the run.
    before = []  # the heads' values before the run
    for r, p, depth in appends:
        m = depth if depth < run else run - 1
        node = len(pred)
        before.append(regs[r])
        pred.append(regs[r])
        offs.append((start if p else -1, run - m))
        if m:
            pred += range(node, node + m)
            offs += range(end - m, end) if p else [-1] * m
        regs[r] = node + m
        tree.runs = True
    for head, head_kind, members in chains:
        # The head's value after the run, which a member at depth d < run
        # holds from d iterations earlier: one less per iteration for
        # appends and set positions.
        old = [regs[head]]  # values before the run, by depth
        moves = True
        if head_kind == "p":
            top = end - 1
        elif head_kind is None:
            top, moves = old[0], False
        else:  # an append, stored above
            top, old[0] = old[0], before[head_kind]
        for r, d in members:
            del old[d:]
            old.append(regs[r])
            if run <= d:
                regs[r] = old[d - run]
            else:
                regs[r] = top - d if moves else top
    for r in sets:
        regs[r] = end - 1


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
    rows, final, bulk = plan.rows, plan.final, plan.bulk
    text = data.translate(plan.classes)
    n = len(text)
    # One past stop, the first dead byte or the end: a span's find, modulo
    # bound, maps -1 to stop, and at stop finds nothing but the dead class.
    bound = n + 1 if plan.dead is None else text.find(plan.dead) % (n + 1) + 1
    tree = PrefixTree()
    pred, offs = tree.pred, tree.offs
    regs = plan.regs0.copy()

    state, skip, pos = tdfa.s0, plan.skip0, 0
    match_pos, match_state = -1, state
    while True:
        if skip is not None:
            start = pos
            if skip.__class__ is int:
                pos = text.find(skip, pos, bound) % bound
            else:
                pos = skip(text, pos).end()
            if bulk[state] is not None and pos > start:
                _run_bulk(bulk[state], regs, tree, start, pos)
        if final[state]:
            match_pos = pos
            match_state = state
        if pos == n:
            break
        cell = rows[state][text[pos]]
        if cell is None:
            break
        state, steps, skip = cell
        if steps is not None:
            for kind, dst, src in steps:
                if kind == _COPY:
                    regs[dst] = regs[src]
                elif kind == _APPEND_P:
                    pred.append(regs[src])
                    regs[dst] = len(offs)
                    offs.append(pos)
                elif kind == _SET_P:
                    regs[dst] = pos
                else:  # _APPEND_N
                    pred.append(regs[src])
                    regs[dst] = len(offs)
                    offs.append(-1)
        pos += 1

    if counters is not None:
        delta, s, n_ops = tdfa.delta, tdfa.s0, 0
        for c in text[:pos]:
            s, ops = delta[s, c]
            n_ops += len(ops)
        held = sum(off[1] - 1 for off in offs if off.__class__ is tuple) if tree.runs else 0
        counters["transitions"] = counters.get("transitions", 0) + pos
        counters["operations"] = counters.get("operations", 0) + n_ops
        counters["tree_nodes"] = counters.get("tree_nodes", 0) + len(pred) - 1 + held
        counters["fallback"] = counters.get("fallback", 0) + (mode != "full" and 0 <= match_pos < pos)

    if match_pos < 0 or mode == "full" and match_pos != n:
        return NO_MATCH
    # The final list if the match ends where the loop stopped, else the
    # fallback one.
    steps = plan.phi[match_state] if match_pos == pos else plan.psi.get(match_state)
    if steps is None:
        raise ValueError(f"final state {match_state} was left but has no fallback operations")
    _run_steps(steps, regs, tree, match_pos)
    return MatchOutcome("match" if match_pos == n else "prefix", match_pos, _read_values(tdfa, regs, tree))
