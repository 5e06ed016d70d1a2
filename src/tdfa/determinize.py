"""Lookahead-aware powerset construction: TNFA to TDFA with registers.

A TDFA state is the ordered set of closure configurations (TNFA state,
register vector, lookahead tag sequence); the order doubles as the
precedence vector.  Tag sequences collected by the closure are stored as
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
from .tnfa import Tnfa


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


def regop_rhs(regs, h_t: str, tpos: int, multi: bool):
    """Right-hand side of the register update for one tag.

    Multi-valued tags append the whole history to the current register;
    single-valued tags keep only the last element.
    """
    if multi:
        return (APPEND, regs[tpos], h_t)
    return (SET, h_t[-1])


def byte_classes(alphabet) -> tuple[tuple[int, ...], list[int]]:
    """One equivalence class per mentioned byte; the rest are dead (-1)."""
    b2c = [-1] * 256
    for i, byte in enumerate(alphabet):
        b2c[byte] = i
    return tuple(alphabet), b2c


def class_translation(b2c: list[int]) -> bytes:
    """A bytes.translate table from byte to class.  Dead bytes go to the
    sentinel class len(alphabet), whose column is None in every row; a full
    256-byte alphabet has no dead bytes and no sentinel."""
    sentinel = max(b2c) + 1
    return bytes(sentinel if c < 0 else c for c in b2c)


def loop_span(classes):
    """The `match` of a compiled `[...]*` over the given class bytes: it
    consumes a run of self-loops a matcher may skip.  None for no classes."""
    if not classes:
        return None
    span = b"".join(re.escape(bytes([c])) for c in sorted(classes))
    return re.compile(b"[" + span + b"]*").match


class Tdfa:
    def __init__(self, nfa: Tnfa, multi: frozenset[int]):
        self.tags = nfa.tags
        self.multi = multi
        self.alphabet, self.byte_to_class = byte_classes(nfa.alphabet)
        ntags = len(self.tags)
        self.r0 = {t: i + 1 for i, t in enumerate(self.tags)}
        self.rf = {t: ntags + i + 1 for i, t in enumerate(self.tags)}
        self.max_reg = 2 * ntags
        self.n_states = 0
        self.s0 = 0
        self.finals: set[int] = set()
        self.delta: dict[tuple[int, int], tuple[int, tuple]] = {}
        self.phi: dict[int, tuple] = {}
        # Fallback support, filled by the optimizer.
        self.fallback: set[int] = set()
        self.psi: dict[int, tuple] = {}
        # The runtime's match plan, built on the first match.
        self._plan = None

    def n_classes(self) -> int:
        return len(self.alphabet)

    def invalidate(self):
        """Drop the match plan after delta, phi or psi changed."""
        self._plan = None

    def op_count(self) -> int:
        n = sum(len(ops) for _, ops in self.delta.values())
        n += sum(len(ops) for ops in self.phi.values())
        n += sum(len(ops) for ops in self.psi.values())
        return n

    def register_count(self) -> int:
        regs = set()
        for _, ops in self.delta.values():
            for op in ops:
                regs.add(op[1])
                if op[0] != SET:
                    regs.add(op[2])
        for ops in list(self.phi.values()) + list(self.psi.values()):
            for op in ops:
                regs.add(op[1])
                if op[0] != SET:
                    regs.add(op[2])
        return len(regs)

    def to_dot(self) -> str:
        lines = ["digraph tdfa {", "  rankdir=LR;", "  node [shape=circle];"]
        for s in sorted(self.finals):
            lines.append(f"  {s} [shape=doublecircle];")
        for (s, c), (target, ops) in sorted(self.delta.items()):
            byte = self.alphabet[c]
            sym = chr(byte) if 32 <= byte < 127 else f"\\\\x{byte:02x}"
            label = sym if not ops else f"{sym} / {format_ops(ops)}"
            lines.append(f'  {s} -> {target} [label="{label}", style=bold];')
        for s, ops in sorted(self.phi.items()):
            if ops:
                lines.append(f'  f{s} [shape=point]; {s} -> f{s} [label="{format_ops(ops)}", style=dashed];')
        for s, ops in sorted(self.psi.items()):
            if ops:
                lines.append(f'  p{s} [shape=point]; {s} -> p{s} [label="fb: {format_ops(ops)}", style=dotted];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        def enc_ops(ops):
            return [list(op) for op in ops]

        doc = {
            "tags": list(self.tags),
            "multi": sorted(self.multi),
            "alphabet": list(self.alphabet),
            "r0": self.r0,
            "rf": self.rf,
            "max_reg": self.max_reg,
            "n_states": self.n_states,
            "s0": self.s0,
            "finals": sorted(self.finals),
            "fallback": sorted(self.fallback),
            "delta": [[s, c, target, enc_ops(ops)] for (s, c), (target, ops) in sorted(self.delta.items())],
            "phi": [[s, enc_ops(ops)] for s, ops in sorted(self.phi.items())],
            "psi": [[s, enc_ops(ops)] for s, ops in sorted(self.psi.items())],
        }
        return json.dumps(doc, indent=0)

    @classmethod
    def from_json(cls, text: str) -> "Tdfa":
        doc = json.loads(text)
        self = cls.__new__(cls)
        self.tags = tuple(doc["tags"])
        self.multi = frozenset(doc["multi"])
        self.alphabet, self.byte_to_class = byte_classes(doc["alphabet"])
        self.r0 = {int(k): v for k, v in doc["r0"].items()}
        self.rf = {int(k): v for k, v in doc["rf"].items()}
        self.max_reg = doc["max_reg"]
        self.n_states = doc["n_states"]
        self.s0 = doc["s0"]
        self.finals = set(doc["finals"])
        self.fallback = set(doc["fallback"])
        self.delta = {
            (s, c): (target, tuple(tuple(op) for op in ops)) for s, c, target, ops in doc["delta"]
        }
        self.phi = {s: tuple(tuple(op) for op in ops) for s, ops in doc["phi"]}
        self.psi = {s: tuple(tuple(op) for op in ops) for s, ops in doc["psi"]}
        self._plan = None
        return self


class _State:
    __slots__ = ("rows", "final")

    def __init__(self, rows):
        # rows: ((q, regs tuple, lookahead tuple), ...) in precedence order.
        self.rows = rows
        self.final = False


class Determinizer:
    def __init__(self, nfa: Tnfa, multi: frozenset[int] = frozenset(), max_states: int = 100_000, mutate=None):
        self.nfa = nfa
        self.multi = multi
        self.max_states = max_states
        self.mutate = mutate
        self.tdfa = Tdfa(nfa, multi)
        self.states: list[_State] = []
        self.by_key: dict = {}
        self.by_sig: dict = {}
        self.worklist: deque[int] = deque()

    # -- closure machinery ------------------------------------------------

    def epsilon_closure(self, B):
        """B: seed configs (state, regs, inherited tags), read only; returns
        commit-ordered configs [state, regs list copy, inherited, lookahead]
        filtered to final or symbol-bearing states."""
        nfa = self.nfa
        out = []
        seen = set()
        stack = [(q, regs, h, ()) for q, regs, h in reversed(B)]
        while stack:
            q, regs, h, l = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            out.append([q, regs, h, l])
            for _, tag, p in reversed(nfa.eps[q]):
                if p not in seen:
                    stack.append((p, regs, h, l if tag == 0 else l + (tag,)))
        return [
            [q, list(regs), h, l]
            for q, regs, h, l in out
            if q == nfa.qf or nfa.syms[q]
        ]

    def step_on_symbol(self, state: _State, byte: int):
        """Seed configs across symbol transitions; the stored lookahead
        becomes the inherited tag sequence of the seed.  The seeds share the
        state's register lists: epsilon_closure copies them."""
        seeds = []
        for q, regs, l in state.rows:
            p = self.nfa.syms[q].get(byte)
            if p is not None:
                seeds.append((p, regs, l))
        return seeds

    # -- register operations ----------------------------------------------

    def transition_regops(self, C, V) -> list:
        """Rewrite configuration registers for tags with inherited history.

        One fresh register per distinct (tag, rhs) per source state; the
        operation itself is emitted on every transition that needs it, at
        most once per destination register.
        """
        ops = []
        written = set()
        tags = self.nfa.tags
        for cfg in C:
            regs, h = cfg[1], cfg[2]
            for tpos, t in enumerate(tags):
                h_t = history(h, t)
                if not h_t:
                    continue
                rhs = regop_rhs(regs, h_t, tpos, t in self.multi)
                reg = V.get((t, rhs))
                if reg is None:
                    self.tdfa.max_reg += 1
                    reg = self.tdfa.max_reg
                    V[(t, rhs)] = reg
                if reg not in written:
                    written.add(reg)
                    if rhs[0] == SET:
                        ops.append((SET, reg, rhs[1]))
                    else:
                        ops.append((APPEND, reg, rhs[1], rhs[2]))
                regs[tpos] = reg
        return ops

    def final_regops(self, regs, l) -> tuple:
        """Operations on the final quasi-transition: one per tag, targeting
        the final registers; tags without lookahead history get a copy."""
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

    def map_states(self, rows, existing: _State, ops):
        """Try to map a candidate state onto an existing one.

        Requires identical states, lookaheads and precedence (guaranteed by
        the signature match); builds a register bijection skipping
        single-valued tags with pending lookahead history, rewrites pending
        operation destinations through it, prepends copies for the
        remaining pairs and topologically sorts.  Returns the new operation
        list, or None if the bijection fails or a nontrivial cycle remains.
        """
        if len(rows) != len(existing.rows):
            return None
        fwd: dict[int, int] = {}
        bwd: dict[int, int] = {}
        tags = self.nfa.tags
        for (q, regs, l), (q2, regs2, l2) in zip(rows, existing.rows):
            if q != q2 or l != l2:  # state set, lookaheads or precedence differ
                return None
            for tpos, t in enumerate(tags):
                if t not in self.multi and history(l, t):
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
        if self.mutate != "skip-map-copies":
            for i in sorted(fwd):
                j = fwd[i]
                if i != j:
                    out.insert(0, (COPY, j, i))
        if self.mutate == "skip-map-toposort":
            return out
        out, acyclic = topological_sort(out)
        return out if acyclic else None

    def add_state(self, C, ops):
        """Identity hit, else mapping hit (rewriting ops), else insert."""
        rows = tuple((q, tuple(regs), l) for q, regs, _, l in C)
        sid = self.by_key.get(rows)
        if sid is not None:
            return sid, ops
        sig = tuple((q, l) for q, _, l in rows)
        for cand in self.by_sig.get(sig, ()):
            mapped = self.map_states(rows, self.states[cand], ops)
            if mapped is not None:
                return cand, mapped
        if len(self.states) >= self.max_states:
            raise ResourceLimit(f"state cap {self.max_states} exceeded")
        state = _State(rows)
        sid = len(self.states)
        self.states.append(state)
        self.by_key[rows] = sid
        self.by_sig.setdefault(sig, []).append(sid)
        self.worklist.append(sid)
        for q, regs, l in rows:
            if q == self.nfa.qf:
                state.final = True
                self.tdfa.finals.add(sid)
                self.tdfa.phi[sid] = self.final_regops(list(regs), l)
                break
        return sid, ops

    def run(self) -> Tdfa:
        nfa = self.nfa
        r0 = [self.tdfa.r0[t] for t in nfa.tags]
        C = self.epsilon_closure([(nfa.q0, r0, ())])
        self.add_state(C, [])
        while self.worklist:
            sid = self.worklist.popleft()
            V: dict = {}
            for cls, byte in enumerate(self.tdfa.alphabet):
                B = self.step_on_symbol(self.states[sid], byte)
                if not B:
                    continue
                C = self.epsilon_closure(B)
                if not C:
                    continue
                ops = self.transition_regops(C, V)
                target, ops = self.add_state(C, ops)
                self.tdfa.delta[(sid, cls)] = (target, tuple(ops))
        self.tdfa.n_states = len(self.states)
        return self.tdfa


def determinize(nfa: Tnfa, multi: frozenset[int] = frozenset(), max_states: int = 100_000, mutate=None) -> Tdfa:
    return Determinizer(nfa, multi, max_states, mutate).run()
