"""TDFA post-processing: fallback operations, register optimizations,
minimization.

The register operations of a TDFA form a control-flow graph with basic
blocks (operations on symbol transitions, plus a start block), final blocks
(final quasi-transitions) and fallback blocks (fallback quasi-transitions).
Two blocks are connected when one is reachable from the other without
passing other register operations; fallback blocks additionally connect to
every block on a non-accepting path out of their state, which is where
control may fall through to them.

The pipeline is: compaction once, then two rounds of liveness analysis, dead
code elimination, interference analysis, register allocation with copy
coalescing, renaming, and local normalization.  Minimization (Moore
partition refinement treating operation lists as part of the transition
label) runs last, after normalization has canonicalized the lists.

Liveness pops its worklist as a stack, following the CFG back from the
final blocks; the allocator places each leftover register in the first
class that admits it, testing the classes' masks inline.

The fallback, CFG and minimization passes walk each state's transitions
(`arc_table`), not every class of the alphabet, so their cost follows the
transitions that exist.
"""

from bisect import bisect_left
from itertools import accumulate

from .determinize import Tdfa
from .regops import APPEND, COPY, SET, topological_sort


# -- fallback operations ----------------------------------------------------


def arc_table(tdfa: Tdfa) -> list[list[tuple[int, int, tuple]]]:
    """Per state, its transitions (class, target, operations) in class
    order: the passes below walk the arcs that exist, not every class."""
    arcs: list[list] = [[] for _ in range(tdfa.n_states)]
    for (s, cls), (target, ops) in sorted(tdfa.delta.items()):
        arcs[s].append((cls, target, ops))
    return arcs


def non_accepting_arcs(arcs, finals, s: int) -> list[tuple[int, int]]:
    """The transitions (state, class) on a non-accepting path out of s: the
    walk follows transitions into non-final states only.  Paths through a
    final state refresh the match point and never fall back to s."""
    out = []
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for cls, target, _ in arcs[u]:
            if target in finals:
                continue
            out.append((u, cls))
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return out


def find_fallback_states(tdfa: Tdfa) -> set[int]:
    """Final states with non-accepting continuations.

    The input may end anywhere, so every non-final state lies on a
    non-accepting path; a final state falls back iff some transition leaves
    it for a non-final state.
    """
    finals = tdfa.phi
    return {s for (s, _), (target, _) in tdfa.delta.items() if s in finals and target not in finals}


def add_fallback_regops(tdfa: Tdfa):
    """Back up clobbered sources of final operations and build the fallback
    quasi-transitions.

    Final registers double as backup storage: a clobbered copy i <- j
    becomes a copy on every risky outgoing transition and disappears from
    the fallback list; a clobbered append i <- j.h is backed up the same
    way and the fallback list appends onto the backup (i <- i.h).
    Most automata have no fallback state, and skip the arc table.
    """
    fallback = find_fallback_states(tdfa)
    if not fallback:
        return tdfa.psi
    finals = tdfa.phi
    arcs = arc_table(tdfa)
    # Written on the non-accepting continuations, before any backup is added.
    clobbered = {s: {op[1] for key in non_accepting_arcs(arcs, finals, s) for op in tdfa.delta[key][1]}
                 for s in fallback}
    for s in sorted(fallback):
        exits = [(s, cls) for cls, target, _ in arcs[s] if target not in finals] if clobbered[s] else []
        ops = []
        for op in tdfa.phi[s]:
            if op[0] == SET or op[2] not in clobbered[s]:
                ops.append(op)
                continue
            # Prepended: the backup must read the source before the
            # transition's own operations overwrite it (that overwrite is the
            # clobber being protected against).
            for key in exits:
                target, risky = tdfa.delta[key]
                tdfa.delta[key] = (target, ((COPY, op[1], op[2]),) + risky)
            if op[0] == APPEND:
                ops.append((APPEND, op[1], op[1], op[3]))
        tdfa.psi[s] = tuple(ops)
    tdfa.invalidate()
    return tdfa.psi


# -- control-flow graph -----------------------------------------------------


class Block:
    __slots__ = ("kind", "loc", "ops", "succ")

    def __init__(self, kind, loc, ops):
        self.kind = kind  # "basic" | "final" | "fallback"
        self.loc = loc  # None | (state, class) | state
        self.ops = list(ops)
        self.succ: list[int] = []


class RegCfg:
    def __init__(self, tdfa: Tdfa):
        self.tdfa = tdfa
        self.blocks: list[Block] = []

    def to_dot(self) -> str:
        from .regops import format_op

        lines = ["digraph cfg {", "  node [shape=box, fontname=monospace];"]
        for i, b in enumerate(self.blocks):
            ops = "\\l".join(format_op(o) for o in b.ops)
            lines.append(f'  {i} [label="{i} {b.kind} {b.loc}\\l{ops}\\l"];')
            for s in b.succ:
                style = ", style=dashed" if b.kind == "fallback" else ""
                lines.append(f"  {i} -> {s} [{style.strip(', ')}];")
        lines.append("}")
        return "\n".join(lines)


def build_cfg(tdfa: Tdfa) -> RegCfg:
    cfg = RegCfg(tdfa)
    blocks = cfg.blocks
    blocks.append(Block("basic", None, []))  # start block

    arcs = arc_table(tdfa)
    by_trans: dict[tuple[int, int], int] = {}
    # Per state, the blocks of its transitions with operations.
    state_blocks: list[list[int]] = [[] for _ in arcs]
    for s, out in enumerate(arcs):
        for cls, _, ops in out:
            if ops:
                by_trans[(s, cls)] = len(blocks)
                state_blocks[s].append(len(blocks))
                blocks.append(Block("basic", (s, cls), ops))
    # Final blocks exist for every final state (even with no operations
    # left): they seed final-register liveness for the result reader.
    by_final: dict[int, int] = {}
    by_fallback: dict[int, int] = {}
    if tdfa.tags:
        for s in sorted(tdfa.phi):
            by_final[s] = len(blocks)
            blocks.append(Block("final", s, tdfa.phi[s]))
        for s in sorted(tdfa.psi):
            by_fallback[s] = len(blocks)
            blocks.append(Block("fallback", s, tdfa.psi[s]))

    # States reachable from u without passing register operations.
    reach_memo: dict[int, frozenset[int]] = {}

    def op_free_reach(u: int) -> frozenset[int]:
        got = reach_memo.get(u)
        if got is not None:
            return got
        seen = {u}
        stack = [u]
        while stack:
            for _, target, ops in arcs[stack.pop()]:
                if not ops and target not in seen:
                    seen.add(target)
                    stack.append(target)
        out = frozenset(seen)
        reach_memo[u] = out
        return out

    def next_blocks(u: int) -> list[int]:
        out = set()
        for v in op_free_reach(u):
            if v in by_final:
                out.add(by_final[v])
            out.update(state_blocks[v])
        return sorted(out)

    blocks[0].succ = next_blocks(tdfa.s0)
    for key, bid in by_trans.items():
        blocks[bid].succ = next_blocks(tdfa.delta[key][0])

    # Fallback blocks: arcs to every block on a non-accepting path out of
    # their state (where execution may fall through to them).
    for s, bid in by_fallback.items():
        path_blocks = {by_trans[key] for key in non_accepting_arcs(arcs, tdfa.phi, s) if key in by_trans}
        blocks[bid].succ = sorted(path_blocks)
    return cfg


def flush_cfg(cfg: RegCfg):
    """Write block operation lists back into the automaton."""
    tdfa = cfg.tdfa
    for b in cfg.blocks:
        if b.kind == "basic" and b.loc is not None:
            target, _ = tdfa.delta[b.loc]
            tdfa.delta[b.loc] = (target, tuple(b.ops))
        elif b.kind == "final":
            tdfa.phi[b.loc] = tuple(b.ops)
        elif b.kind == "fallback":
            tdfa.psi[b.loc] = tuple(b.ops)
    tdfa.invalidate()


# -- optimization passes -----------------------------------------------------


def compaction(cfg: RegCfg) -> dict[int, int]:
    """Rename registers onto a contiguous range 1..n, dropping unused ones."""
    used: set[int] = set()
    for b in cfg.blocks:
        for op in b.ops:
            used.add(op[1])
            if op[0] != SET:
                used.add(op[2])
    return {r: i + 1 for i, r in enumerate(sorted(used))}


def renaming(cfg: RegCfg, V: dict[int, int]):
    """Apply a register renaming; trivial self-copies are dropped."""
    get = V.get
    for b in cfg.blocks:
        out = []
        for op in b.ops:
            kind, d = op[0], get(op[1], op[1])
            if kind == SET:
                op = (SET, d, op[2])
            else:
                s = get(op[2], op[2])
                if kind == COPY:
                    if d == s:
                        continue
                    op = (COPY, d, s)
                else:
                    op = (APPEND, d, s, op[3])
            out.append(op)
        b.ops = out
    tdfa = cfg.tdfa
    tdfa.rf = {t: V[r] for t, r in tdfa.rf.items()}
    tdfa.r0 = {t: V[r] for t, r in tdfa.r0.items() if r in V}
    tdfa.max_reg = max(V.values(), default=0)


def _bits(mask: int):
    """Register numbers in a bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(regs) -> int:
    m = 0
    for r in regs:
        m |= 1 << r
    return m


def _sources(ops) -> dict[int, int | None]:
    """Each register a block writes, mapped to the register live on entry
    whose value it holds at exit (None when a set produced it).

    Liveness through a block is distributive and maps each live-out
    register to at most one live-in register, so this map is the whole
    transfer function."""
    src: dict[int, int | None] = {}
    for op in ops:
        src[op[1]] = None if op[0] == SET else src.get(op[2], op[2])
    return src


def liveness_analysis(cfg: RegCfg) -> list[int]:
    """Live registers per block (at block exit) as bitsets, by a worklist
    data-flow analysis over predecessors.

    Final registers are live in final blocks; the least fixpoint expands
    over basic blocks.  Each block's live-in set is cached, and only the
    registers newly live at its exit are pushed through it and on to its
    predecessors, at once: the worklist is a stack (the least fixpoint
    does not depend on the order).  Finally backup registers are marked
    live along every path that may fall through to a fallback block.
    """
    blocks = cfg.blocks
    final_regs = _mask(cfg.tdfa.rf.values())
    L = [final_regs if b.kind == "final" else 0 for b in blocks]
    live_in = [0] * len(blocks)
    preds: list[list[int]] = [[] for _ in blocks]
    for i, b in enumerate(blocks):
        if b.kind == "basic":
            for s in b.succ:
                preds[s].append(i)
    sources = [_sources(b.ops) for b in blocks]
    written = [_mask(src) for src in sources]

    pending = list(L)  # live at exit, not yet pushed through the block
    queued = [b.kind == "final" for b in blocks]
    stack = [i for i, q in enumerate(queued) if q]
    while stack:
        i = stack.pop()
        queued[i] = False
        out, pending[i] = pending[i], 0
        live = out & ~written[i]
        for r in _bits(out & written[i]):
            src = sources[i][r]
            if src is not None:
                live |= 1 << src
        live &= ~live_in[i]
        if not live:
            continue
        live_in[i] |= live
        for p in preds[i]:
            new = live & ~L[p]
            if new:
                L[p] |= new
                pending[p] |= new
                if not queued[p]:
                    queued[p] = True
                    stack.append(p)

    for i, b in enumerate(blocks):
        if b.kind != "fallback":
            continue
        L[i] |= final_regs
        lb = L[i] & ~_mask(op[1] for op in b.ops)
        lb |= _mask(op[2] for op in b.ops if op[0] != SET)
        for s in b.succ:
            L[s] |= lb
    return L


def dead_code_elimination(cfg: RegCfg, L: list[int]):
    """Drop operations writing registers that are not live afterwards."""
    for i, b in enumerate(cfg.blocks):
        if b.kind != "basic":
            continue
        live = L[i]
        kept = []
        for op in reversed(b.ops):
            d = 1 << op[1]
            if live & d:
                live &= ~d
                if op[0] != SET:
                    live |= 1 << op[2]
                kept.append(op)
        kept.reverse()
        b.ops = kept


def interferes(I: list[int], a: int, b: int) -> bool:
    """The symmetric interference relation over one-sided bitset rows."""
    return bool((I[a] >> b | I[b] >> a) & 1)


def interference_analysis(cfg: RegCfg, L: list[int]) -> list[int]:
    """Interference as one-sided bitset rows: a and b interfere iff bit b
    of I[a] or bit a of I[b] is set (see `interferes`); no row has its own
    bit.

    Within a block, an operation's destination interferes with every
    register live after it that provably holds a different value; value
    tracking over the block suppresses the same-value pairs.  Finally,
    registers used in append operations (history trees) interfere with all
    registers that are not.
    """
    n = cfg.tdfa.max_reg
    I = [0] * (n + 1)
    append_regs = 0
    for bi, b in enumerate(cfg.blocks):
        ops = b.ops
        if not ops:
            continue
        live = L[bi]
        after = [0] * len(ops)
        for k in range(len(ops) - 1, -1, -1):
            after[k] = live
            op = ops[k]
            d = 1 << op[1]
            if op[0] == SET:
                live &= ~d
            elif live & d:
                live = live & ~d | 1 << op[2]

        # holders[v]: the registers holding value v at this point.
        value: dict[int, tuple] = {}
        holders: dict[tuple, int] = {}
        for op in ops:
            if op[0] != SET and op[2] not in value:
                value[op[2]] = v = ("reg", op[2])
                holders[v] = 1 << op[2]
        for k, op in enumerate(ops):
            d = op[1]
            if op[0] == SET:
                v = ("val", op[2])
            elif op[0] == COPY:
                v = value[op[2]]
            else:
                v = ("app", value[op[2]], op[3])
                append_regs |= 1 << d | 1 << op[2]
            if d in value:
                holders[value[d]] &= ~(1 << d)
            value[d] = v
            holders[v] = holders.get(v, 0) | 1 << d
            I[d] |= after[k] & ~holders[v]

    if append_regs:
        for r in range(1, n + 1):
            if not append_regs >> r & 1:
                I[r] |= append_regs
    return I


def register_allocation(cfg: RegCfg, I: list[int]) -> dict[int, int]:
    """Partition registers into non-interfering classes (copy coalescing
    first, then class merging, then leftover placement) and renumber the
    classes consecutively.

    A class is its representative's member bitset M[x] plus the union U[x]
    of its members' interference rows, so testing a register against a
    class takes two mask tests.  Leftover registers go, in ascending
    order, to the first class (by representative) that admits them, or
    open a class of their own."""
    n = cfg.tdfa.max_reg
    B: dict[int, int] = {}
    M: dict[int, int] = {}
    U: dict[int, int] = {}

    def compatible(x: int, r: int) -> bool:
        return not (U[x] >> r & 1 or I[r] & M[x])

    def join(x: int, r: int):
        B[r] = x
        M[x] |= 1 << r
        U[x] |= I[r]

    for b in cfg.blocks:
        for op in b.ops:
            if op[0] == SET or op[1] == op[2]:
                continue
            i, j = op[1], op[2]
            x, y = B.get(i), B.get(j)
            if x is None and y is None:
                if not interferes(I, i, j):
                    B[i] = B[j] = i
                    M[i] = 1 << i | 1 << j
                    U[i] = I[i] | I[j]
            elif x is not None and y is None:
                if compatible(x, j):
                    join(x, j)
            elif x is None and y is not None:
                if compatible(y, i):
                    join(y, i)

    reps = sorted(M)
    for a, i in enumerate(reps):
        if not M[i]:
            continue
        for j in reps[a + 1:]:
            if M[j] and not (U[i] & M[j] or U[j] & M[i]):
                M[i] |= M[j]
                U[i] |= U[j]
                M[j] = 0

    # The live classes in ascending order of representative.
    live = [x for x in reps if M[x]]
    members = [M[x] for x in live]
    unions = [U[x] for x in live]
    for r in range(1, n + 1):
        if r in B:
            continue
        bit, row = 1 << r, I[r]
        for k, m in enumerate(members):
            if not (row & m or unions[k] & bit):
                members[k] = m | bit
                unions[k] |= row
                break
        else:
            k = bisect_left(live, r)
            live.insert(k, r)
            members.insert(k, bit)
            unions.insert(k, row)

    return {r: cls for cls, m in enumerate(members, 1) for r in _bits(m)}


def normalization(cfg: RegCfg):
    """Canonicalize each block: per contiguous same-kind run, remove
    duplicates; sort set runs by (dest, value); topologically sort copy
    runs.  Runs of different kinds are never reordered."""
    for b in cfg.blocks:
        out = []
        i = 0
        ops = b.ops
        while i < len(ops):
            kind = ops[i][0]
            j = i
            while j < len(ops) and ops[j][0] == kind:
                j += 1
            run = list(dict.fromkeys(ops[i:j]))
            if kind == SET:
                run.sort(key=lambda op: (op[1], op[2]))
            elif kind == COPY:
                run, _ = topological_sort(run)
            out.extend(run)
            i = j
        b.ops = out


def optimize(tdfa: Tdfa, stage=lambda *args: None) -> Tdfa:
    """Full register-optimization pipeline, in place.  `stage(name, cfg,
    L=None, I=None)` sees the register CFG after each step: "cfg",
    "compaction", and "round<n>" with its liveness L and interference I."""
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    stage("cfg", cfg)
    renaming(cfg, compaction(cfg))
    stage("compaction", cfg)
    for r in (1, 2):
        L = liveness_analysis(cfg)
        dead_code_elimination(cfg, L)
        I = interference_analysis(cfg, L)
        V = register_allocation(cfg, I)
        renaming(cfg, V)
        normalization(cfg)
        stage(f"round{r}", cfg, L, I)
    flush_cfg(cfg)
    return tdfa


# -- minimization -------------------------------------------------------------


def minimize(tdfa: Tdfa) -> Tdfa:
    """Moore partition refinement; the transition label is (symbol class,
    interned operation-list id), so states with different operations are
    never merged.  A state's signature is its part, the (class,
    operation-list id) of its present arcs in class order, and the parts
    of their targets: two states agree on it exactly when they agree on
    every class, absent ones included.  Run after normalization for
    canonical lists."""
    interned: dict[tuple, int] = {}

    def opid(ops) -> int:
        return interned.setdefault(tuple(ops), len(interned))

    n = tdfa.n_states

    def renumber(keys) -> list[int]:
        mapping: dict = {}
        out = []
        for k in keys:
            if k not in mapping:
                mapping[k] = len(mapping)
            out.append(mapping[k])
        return out

    part = renumber(
        (
            opid(tdfa.phi[s]) if s in tdfa.phi else -1,
            opid(tdfa.psi[s]) if s in tdfa.psi else -1,
        )
        for s in range(n)
    )
    # Per state, the (class, operation-list id) of its arcs in class order;
    # their targets are `targets[spans[s]]`, all states' in one list.
    transitions = sorted(tdfa.delta.items())
    labels: list = [[] for _ in range(n)]
    targets: list[int] = []
    for (s, cls), (target, ops) in transitions:
        labels[s].append((cls, opid(ops)))
        targets.append(target)
    labels = list(map(tuple, labels))
    ends = list(accumulate(map(len, labels)))
    spans = list(map(slice, [0] + ends[:-1], ends))
    while True:
        target_parts = tuple(map(part.__getitem__, targets))
        new = renumber(zip(part, labels, map(target_parts.__getitem__, spans)))
        if new == part:
            break
        part = new

    n_classes = max(part) + 1 if n else 0
    rep = [None] * n_classes
    for s in range(n):
        if rep[part[s]] is None:
            rep[part[s]] = s

    out = Tdfa(tdfa.tags, tdfa.alphabet, tdfa.byte_to_class, tdfa.multi)
    out.r0 = dict(tdfa.r0)
    out.rf = dict(tdfa.rf)
    out.max_reg = tdfa.max_reg
    out.n_states = n_classes
    out.s0 = part[tdfa.s0]
    for (s, cls), (target, ops) in transitions:
        if rep[part[s]] == s:
            out.delta[(part[s], cls)] = (part[target], ops)
    for c, m in enumerate(rep):
        if m in tdfa.phi:
            out.phi[c] = tdfa.phi[m]
        if m in tdfa.psi:
            out.psi[c] = tdfa.psi[m]
    return out
