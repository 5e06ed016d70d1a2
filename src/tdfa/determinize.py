"""Lookahead-aware powerset construction, shared by both engines.

A state is the ordered set of closure configurations; the order doubles as
the precedence vector.  A configuration is (TNFA state, payload, inherited
tag sequence h, lookahead tag sequence l), and the payload is what tells
the engines apart: a register vector for the register TDFA built here, the
index of the source state's row it descends from for multi-pass TDFA
(`multipass`).  A state keeps its rows as columns (`_State`), and the
columns of an inserted state share their parts with earlier states
(`Powerset.share`): on `(?:#a)*a{k}` the states hold O(k^2) rows but only
O(k) distinct ones.  Both engines share:

- `epsilon_closure`, one depth-first walk per seed (q, payload, h); a seed
  at an eps-free TNFA state closes to itself with no walk;
- `Powerset`, one worklist BFS over one step per state, `step(state)`: it
  walks the state's rows once, seeding configurations across the TNFA's
  arcs (`Tnfa.arcs`; an arc reads a set of classes, a class being bytes
  that every arc reads alike) into one bucket per class, then goes
  through the buckets in class order, closes the seeds of each non-empty
  one and stores the cell the engine builds from the closure (register
  operations here, backlinks in multi-pass).  So a step costs its rows
  and their arcs' classes plus one visit per class, and the construction
  builds no table per TNFA state;
- `Automaton`, the container base (tags, the TNFA's byte classes,
  `delta`, `phi`, the lazy match plan slot, dot output), and `PlanFrame`,
  the part of a match plan both engines lay out the same way.

In the register TDFA, tag sequences collected by the closure are stored as
lookahead and turned into register operations on the *outgoing*
transitions, filtered by the next symbol.  New states are first matched by
identity, then by a register bijection (mapping) that rewrites the pending
operations; otherwise inserted.

Registers 1..|T| are the initial registers, |T|+1..2|T| the final ones;
fresh registers are allocated per (tag, operation right-hand side) and
cached per source state, so outgoing transitions with identical right-hand
sides share a register, but different tags never share one.
"""

import json
import re
from collections import deque

from .regops import APPEND, COPY, SET, format_ops, topological_sort
from .tnfa import Tnfa, byte_classes, dot_class


class ResourceLimit(Exception):
    """Automaton construction exceeded a configured cap."""


def history(h, t: int) -> str:
    """Project a tag sequence onto tag t: t -> 'p', -t -> 'n', rest dropped."""
    out = []
    for x in h:
        if x == t:
            out.append("p")
        elif x == -t:
            out.append("n")
    return "".join(out)


def loop_span(classes, n_live: int):
    """What consumes a run of self-loops on the given classes, of n_live live
    classes; None for no classes.  If one live class e leaves the loop, e:
    the run ends at `text.find(e, pos, stop)`, or at stop, the input's first
    dead byte or its end (`PlanFrame.dead`).  If none does, the dead
    class.  Otherwise the `match` of a compiled `[...]*`: a find per exit
    class could scan far past a short run, and a loop on all of 256 classes
    leaves no byte to find."""
    if not classes:
        return None
    loop = set(classes)
    exits = [c for c in range(n_live) if c not in loop] or [n_live]
    if len(exits) == 1 and exits[0] < 256:
        return exits[0]
    span = b"".join(re.escape(bytes([c])) for c in sorted(classes))
    return re.compile(b"[" + span + b"]*").match


def epsilon_closure(nfa: Tnfa, seeds) -> list:
    """Depth-first closure of seed configurations (q, payload, h); the first
    arrival at a state wins.  Returns the configurations (q, payload, h, l)
    in commit order, l being the tags met on the way, at the eps-free
    states: exactly the final and symbol-bearing ones (`Tnfa`).  Payloads
    are passed on, never copied.

    Each seed's walk ends before the next seed starts, and x and h stay
    fixed inside it, so the walk stacks (q, l) pairs alone.  A seed whose
    state is eps-free closes to itself with no walk."""
    eps = nfa.eps
    out = []
    emit = out.append
    seen = set()
    see = seen.add
    for q, x, h in seeds:
        if q in seen:
            continue
        if not eps[q]:
            see(q)
            emit((q, x, h, ()))
            continue
        stack = [(q, ())]
        while stack:
            q, l = stack.pop()
            if q in seen:
                continue
            see(q)
            arrows = eps[q]
            if not arrows:
                emit((q, x, h, l))
                continue
            for _, tag, p in reversed(arrows):
                if p not in seen:
                    stack.append((p, l + (tag,) if tag else l))
    return out


class Automaton:
    """The container both engines' automata share.

    delta[(state, class)] = (target, cell) and phi[state] = final cell; what
    a cell holds is the engine's, and so are `dot_name`, `format_cell` (a
    cell as a dot label) and `dot_quasi` (the quasi-transitions to draw).
    alphabet and byte_to_class are the TNFA's.  The match plan is built on
    the first match and kept in `_plan` until `invalidate()`.
    """

    def __init__(self, tags, alphabet, byte_to_class):
        self.tags = tuple(tags)
        self.alphabet, self.byte_to_class = alphabet, byte_to_class
        self.n_states = 0
        self.s0 = 0
        self.finals: set[int] = set()
        self.delta: dict[tuple[int, int], tuple] = {}
        self.phi: dict[int, tuple] = {}
        self._plan = None

    def invalidate(self):
        """Drop the match plan after a cell changed."""
        self._plan = None

    def per_byte_delta(self) -> tuple[list, list]:
        """The alphabet's bytes and the transitions [state, byte's index,
        target, cell], sorted: the automaton as if each byte were a class."""
        col = {byte: i for i, byte in enumerate(sorted(b for members in self.alphabet for b in members))}
        return sorted(col), sorted([s, col[byte], target, cell]
                                   for (s, c), (target, cell) in self.delta.items() for byte in self.alphabet[c])

    def to_dot(self) -> str:
        lines = [f"digraph {self.dot_name} {{", "  rankdir=LR;", "  node [shape=circle];"]
        lines += [f"  {s} [shape=doublecircle];" for s in sorted(self.finals)]
        for (s, c), (target, cell) in sorted(self.delta.items()):
            label = dot_class(self.alphabet[c])
            if cell:
                label += " / " + self.format_cell(cell)
            lines.append(f'  {s} -> {target} [label="{label}", style=bold];')
        for node, style, s, label in self.dot_quasi():
            lines.append(f'  {node}{s} [shape=point]; {s} -> {node}{s} [label="{label}", style={style}];')
        lines.append("}")
        return "\n".join(lines)


class PlanFrame:
    """The part of a match plan both engines lay out the same way:

    - `classes`, a bytes.translate table from byte to class.  Dead bytes go
      to the sentinel class n_live = len(alphabet), whose column is None in
      every row; classes covering all 256 bytes leave no sentinel;
    - `rows`, dense lists of cells (target, *payload, skip), payload being
      what the engine's `cell_payload(dfa)` function gives for the cell;
    - a state whose self-loops on some classes have a no-op cell (`no_op`)
      has a skip: the `loop_span` over those classes, an exit class to find
      or an `re` span, in the skip slot of every cell into the state.
      `skip0` is the start state's;
    - a state whose self-loops all carry one cell, not a no-op, has the
      engine's `summary` of its payload, or None, in `bulk`.  With a
      summary, the skip slot of its self-loop cells holds the span over
      their classes: the match loop runs every span at one site, before
      the next byte steps, and there applies the summary to a run in
      place of its steps;
    - `final`, the final flag per state;
    - `spans`, every span the plan made (`span`);
    - `dead`, the sentinel class if some byte is dead and the plan has
      find spans, else None: a match's finds stop at its first dead byte,
      looked for once.
    """

    __slots__ = ("classes", "rows", "final", "skip0", "bulk", "n_live", "spans", "dead")

    def __init__(self, dfa: Automaton):
        b2c = dfa.byte_to_class
        self.n_live = sentinel = max(b2c) + 1
        self.classes = bytes(sentinel if c < 0 else c for c in b2c)
        n = dfa.n_states
        loops: list[dict] = [{} for _ in range(n)]
        for (s, c), (target, cell) in dfa.delta.items():
            if target == s:
                loops[s].setdefault(cell, []).append(c)
        self.spans = []
        skip = [self.span([c for cell, cs in by_cell.items() if self.no_op(cell) for c in cs])
                for by_cell in loops]
        payload = self.cell_payload(dfa)
        self.bulk = [None] * n
        loop_skip = skip.copy()  # the skip slot of each state's self-loop cells
        for s, by_cell in enumerate(loops):
            if len(by_cell) == 1:
                [(cell, cs)] = by_cell.items()
                if not self.no_op(cell) and (form := self.summary(*payload(cell))) is not None:
                    self.bulk[s] = form
                    loop_skip[s] = self.span(cs)
        self.rows = [[None] * (max(self.classes) + 1) for _ in range(n)]
        for (s, c), (target, cell) in dfa.delta.items():
            self.rows[s][c] = (target, *payload(cell), loop_skip[s] if target == s else skip[target])
        self.final = [s in dfa.finals for s in range(n)]
        self.skip0 = skip[dfa.s0]
        self.dead = sentinel if min(b2c) < 0 and self.span_kinds()["find"] else None

    def span(self, classes):
        """The `loop_span` over classes, kept in `spans` to be counted."""
        span = loop_span(classes, self.n_live)
        if span is not None:
            self.spans.append(span)
        return span

    def span_kinds(self) -> dict:
        """The plan's spans by kind: exit classes to find, and `re` spans."""
        finds = sum(span.__class__ is int for span in self.spans)
        return {"find": finds, "re": len(self.spans) - finds}


class _State:
    """A state's rows, stored as columns whose parts are shared across
    states (`Powerset.share`):

    - `ql`: each row's (TNFA state, lookahead tags) pair, in precedence
      order.  It is also the state's mapping signature;
    - `x`: each row's payload, what configurations seeded from the row
      carry: a register vector (register TDFA) or the row's own index
      (multi-pass);
    - `U`, multi-pass only: each row's backlink slot.
    """

    __slots__ = ("ql", "x", "U")

    def __init__(self, ql, x, U=None):
        self.ql = ql
        self.x = x
        self.U = U


class Powerset:
    """The worklist BFS both engines run over `step`.  An engine supplies
    `add_state` (find or `insert` the state of a closure), `cell` (the
    target and cell of a transition, from its closure) and `final_cell`."""

    def __init__(self, nfa: Tnfa, tdfa: Automaton, max_states: int, payload0):
        self.nfa = nfa
        self.tdfa = tdfa
        self.max_states = max_states
        self.payload0 = payload0
        self.states: list[_State] = []
        self.index: dict = {}
        # One copy of every column part that states hold.
        self.shared: dict = {}
        self.worklist: deque[int] = deque()

    def run(self):
        nfa = self.nfa
        self.add_state(epsilon_closure(nfa, [(nfa.q0, self.payload0, ())]))
        while self.worklist:
            self.step(self.worklist.popleft())
        self.tdfa.n_states = len(self.states)
        return self.tdfa

    def seeds(self, state: _State) -> list:
        """Seed configurations across the TNFA's arcs, bucketed by class:
        a row (q, x, l) whose state q has the arc (classes, p) seeds
        (p, x, l) in the bucket of each of those classes, so its lookahead
        becomes the inherited tags.  A bucket keeps row order, and is None
        for a class no row steps on."""
        arcs = self.nfa.arcs
        buckets: list = [None] * len(self.tdfa.alphabet)
        for (q, l), x in zip(state.ql, state.x):
            arc = arcs[q]
            if arc is not None:
                classes, p = arc
                seed = (p, x, l)
                for cls in classes:
                    bucket = buckets[cls]
                    if bucket is None:
                        buckets[cls] = [seed]
                    else:
                        bucket.append(seed)
        return buckets

    def step(self, sid: int):
        """Expand state sid on every class it steps on: visit every class's
        bucket in order, and close and store the cell of each non-empty
        one."""
        nfa, delta = self.nfa, self.tdfa.delta
        for cls, seeds in enumerate(self.seeds(self.states[sid])):
            if seeds:
                C = epsilon_closure(nfa, seeds)
                if C:
                    delta[(sid, cls)] = self.cell(sid, C)

    def share(self, column: tuple) -> tuple:
        """A column equal to `column`, made of shared parts.  Only inserts
        share; lookups use fresh columns, so identity and mapping hits pay
        no extra hashing."""
        return tuple(map(self.shared.setdefault, column, column))

    def insert(self, key, state: _State) -> int:
        """Add and queue a new state; a row at the final TNFA state makes it
        final, with the engine's final cell."""
        if len(self.states) >= self.max_states:
            raise ResourceLimit(f"state cap {self.max_states} exceeded")
        sid = len(self.states)
        self.states.append(state)
        self.index[key] = sid
        self.worklist.append(sid)
        qf = self.nfa.qf
        for j, (q, _) in enumerate(state.ql):
            if q == qf:
                self.tdfa.finals.add(sid)
                self.tdfa.phi[sid] = self.final_cell(state, j)
                break
        return sid


class Tdfa(Automaton):
    """Register TDFA: cells are operation lists, psi holds the fallback
    quasi-transitions."""

    dot_name = "tdfa"

    def __init__(self, tags, alphabet, byte_to_class, multi: frozenset[int]):
        super().__init__(tags, alphabet, byte_to_class)
        self.multi = multi
        ntags = len(self.tags)
        self.r0 = {t: i + 1 for i, t in enumerate(self.tags)}
        self.rf = {t: ntags + i + 1 for i, t in enumerate(self.tags)}
        self.max_reg = 2 * ntags
        # Filled by the optimizer; its keys are the fallback states.
        self.psi: dict[int, tuple] = {}

    def op_count(self) -> int:
        n = sum(len(ops) * len(self.alphabet[c]) for (_, c), (_, ops) in self.delta.items())
        return n + sum(map(len, self.phi.values())) + sum(map(len, self.psi.values()))

    def register_count(self) -> int:
        regs = set()
        lists = [ops for _, ops in self.delta.values()] + list(self.phi.values()) + list(self.psi.values())
        for ops in lists:
            for op in ops:
                regs.add(op[1])
                if op[0] != SET:
                    regs.add(op[2])
        return len(regs)

    format_cell = staticmethod(format_ops)

    def dot_quasi(self):
        for s, ops in sorted(self.phi.items()):
            if ops:
                yield "f", "dashed", s, format_ops(ops)
        for s, ops in sorted(self.psi.items()):
            if ops:
                yield "p", "dotted", s, "fb: " + format_ops(ops)

    def to_json(self) -> str:
        """The automaton per byte (`per_byte_delta`)."""
        alphabet, delta = self.per_byte_delta()
        doc = {
            "tags": list(self.tags),
            "multi": sorted(self.multi),
            "alphabet": alphabet,
            "r0": self.r0,
            "rf": self.rf,
            "max_reg": self.max_reg,
            "n_states": self.n_states,
            "s0": self.s0,
            "finals": sorted(self.finals),
            "fallback": sorted(self.psi),
            "delta": delta,
            "phi": sorted(self.phi.items()),
            "psi": sorted(self.psi.items()),
        }
        return json.dumps(doc, indent=0)

    @classmethod
    def from_json(cls, text: str) -> "Tdfa":
        doc = json.loads(text)
        self = cls(doc["tags"], *byte_classes([(byte,) for byte in doc["alphabet"]]), frozenset(doc["multi"]))
        self.r0 = {int(k): v for k, v in doc["r0"].items()}
        self.rf = {int(k): v for k, v in doc["rf"].items()}
        self.max_reg = doc["max_reg"]
        self.n_states = doc["n_states"]
        self.s0 = doc["s0"]
        self.finals = set(doc["finals"])
        self.delta = {(s, c): (target, tuple(map(tuple, ops))) for s, c, target, ops in doc["delta"]}
        self.phi = {s: tuple(map(tuple, ops)) for s, ops in doc["phi"]}
        self.psi = {s: tuple(map(tuple, ops)) for s, ops in doc["psi"]}
        return self


class Determinizer(Powerset):
    """The register TDFA's side of the construction: register operations on
    transitions, and a register mapping onto existing states."""

    def __init__(self, nfa: Tnfa, multi: frozenset[int] = frozenset(), max_states: int = 100_000):
        tdfa = Tdfa(nfa.tags, nfa.alphabet, nfa.byte_to_class, multi)
        super().__init__(nfa, tdfa, max_states, tuple(tdfa.r0[t] for t in nfa.tags))
        self.multi = multi
        self.tpos_of = nfa.tag_index()
        # States by (state, lookahead) signature, the mapping candidates.
        self.by_sig: dict = {}
        # Fresh registers of the state being expanded, by (tag, rhs).
        self.fresh_for = None
        self.fresh: dict = {}
        # `project(h)` per inherited tag sequence h.
        self.projections: dict = {}

    def cell(self, sid: int, C):
        if self.fresh_for != sid:
            self.fresh_for, self.fresh = sid, {}
        target, ops = self.add_state(C, self.fresh)
        return target, tuple(ops)

    # -- register operations ----------------------------------------------

    def transition_regops(self, C, V) -> tuple[tuple, tuple, list]:
        """Rewrite configuration registers for tags with inherited history.

        Returns the closure's columns (`_State`), the register vectors being
        the new ones, and the operations.  One fresh register per distinct
        (tag, rhs) per source state; the operation itself is emitted on
        every transition that needs it, at most once per destination
        register.  Multi-valued tags append the whole history to the
        configuration's register, single-valued tags keep only its last
        element.
        """
        ops = []
        ql = []
        xs = []
        written = set()
        projections = self.projections
        tdfa = self.tdfa
        for q, regs, h, l in C:
            ql.append((q, l))
            if h:
                proj = projections.get(h)
                if proj is None:
                    proj = projections[h] = self.project(h)
                regs = list(regs)
                for t, tpos, key, h_t in proj:
                    if key is None:
                        key = (t, (APPEND, regs[tpos], h_t))
                    reg = V.get(key)
                    if reg is None:
                        tdfa.max_reg += 1
                        reg = V[key] = tdfa.max_reg
                    if reg not in written:
                        written.add(reg)
                        rhs = key[1]
                        ops.append((rhs[0], reg) + rhs[1:])
                    regs[tpos] = reg
                regs = tuple(regs)
            xs.append(regs)
        return tuple(ql), tuple(xs), ops

    def project(self, h) -> tuple:
        """The projections of an inherited tag sequence, one per tag in it,
        ascending: (tag, register slot, the fresh register key (tag, (SET,
        last element)), or None for a multi-valued tag, history)."""
        out = []
        for t in sorted(set(map(abs, h))):
            h_t = history(h, t)
            out.append((t, self.tpos_of[t], None if t in self.multi else (t, (SET, h_t[-1])), h_t))
        return tuple(out)

    def final_cell(self, state: _State, j: int) -> tuple:
        """Operations on the final quasi-transition of row j: one per tag,
        targeting the final registers; tags without lookahead history get
        a copy."""
        regs, l = state.x[j], state.ql[j][1]
        ops = []
        for tpos, t in enumerate(self.nfa.tags):
            l_t = history(l, t)
            rf = self.tdfa.rf[t]
            if not l_t:
                ops.append((COPY, rf, regs[tpos]))
            elif t in self.multi:
                ops.append((APPEND, rf, regs[tpos], l_t))
            else:
                ops.append((SET, rf, l_t[-1]))
        return tuple(ops)

    # -- state set ---------------------------------------------------------

    def map_states(self, ql, x, existing: _State, ops):
        """Try to map a candidate state, given by its columns `ql` and `x`,
        onto an existing one.

        Requires identical states, lookaheads and precedence (guaranteed by
        the signature match); builds a register bijection skipping
        single-valued tags with pending lookahead history, rewrites pending
        operation destinations through it, prepends copies for the
        remaining pairs and topologically sorts.  Returns the new operation
        list, or None if the bijection fails or a nontrivial cycle remains.
        """
        if ql != existing.ql:  # state set, lookaheads or precedence differ
            return None
        fwd: dict[int, int] = {}
        bwd: dict[int, int] = {}
        tags = self.nfa.tags
        for (_, l), regs, regs2 in zip(ql, x, existing.x):
            pending = set(map(abs, l))
            for tpos, t in enumerate(tags):
                if t in pending and t not in self.multi:
                    continue
                i, j = regs[tpos], regs2[tpos]
                mi, mj = fwd.get(i), bwd.get(j)
                if mi is None and mj is None:
                    fwd[i] = j
                    bwd[j] = i
                elif mi != j or mj != i:
                    return None

        out = []
        for op in ops:
            dest = fwd.pop(op[1], None)
            if dest is None:
                out.append(op)
            else:
                out.append((op[0], dest) + tuple(op[2:]))
        out[:0] = [(COPY, fwd[i], i) for i in sorted(fwd, reverse=True) if fwd[i] != i]
        out, acyclic = topological_sort(out)
        return out if acyclic else None

    def add_state(self, C, V=None):
        """Identity hit, else mapping hit (rewriting ops), else insert, for
        the closure C after `transition_regops` with the source state's
        fresh registers V.  The start closure inherits no tags and needs no
        V.  Returns the state and the operations."""
        ql, regs, ops = self.transition_regops(C, V)
        sid = self.index.get((ql, regs))
        if sid is not None:
            return sid, ops
        for cand in self.by_sig.get(ql, ()):
            mapped = self.map_states(ql, regs, self.states[cand], ops)
            if mapped is not None:
                return cand, mapped
        ql, regs = self.share(ql), self.share(regs)
        sid = self.insert((ql, regs), _State(ql, regs))
        self.by_sig.setdefault(ql, []).append(sid)
        return sid, ops


def determinize(nfa: Tnfa, multi: frozenset[int] = frozenset(), max_states: int = 100_000) -> Tdfa:
    """The register TDFA of `nfa`; the tags in `multi` keep their histories."""
    return Determinizer(nfa, multi, max_states).run()
