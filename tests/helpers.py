"""Independent oracles used across the test suite.

These deliberately avoid the library's own matching machinery: the path
enumerator ranks whole TNFA paths by priority, and the naive register file
stores full offset lists instead of prefix-tree indices.
"""

from bisect import insort
from itertools import product
from random import Random

from tdfa.fuzz import gen_pattern
from tdfa.optimizer import _bits, interferes
from tdfa.regops import COPY, SET
from tdfa.resyntax import Alt, Cat, Empty, Rep, Sym, Tag
from tdfa.tnfa import Tnfa

# Every byte, metacharacters escaped.
ESCAPED = [(b"\\" if b in b"|()*+?{}#\\" else b"") + bytes([b]) for b in range(256)]
ANY_BYTE = b"(?:" + b"|".join(ESCAPED) + b")"
# Bytes other than the backslash, the backslash, then optionally all 256
# bytes spelled out: each byte of that string is a set of its own, so every
# byte is a class of its own, numbered by its value.
EVERY_CLASS = b"(?:" + b"|".join(ESCAPED[:92] + ESCAPED[93:]) + b")*#\\\\(?:" + b"".join(ESCAPED) + b")?"
# A loop over any byte, then after a backslash either that loop or all 256
# bytes spelled out: the loop's one set covers all 256 classes.
WIDE_SET = ANY_BYTE + b"*#\\\\(?:" + ANY_BYTE + b"*|" + b"".join(ESCAPED) + b")"


def gen_set_pattern(rng: Random, alphabet: str = "abc") -> str:
    """A gen_pattern over alphabet with about half of its bytes widened into
    an alternation of two or more bytes of the same alphabet, so that the
    lone bytes left split the alternations into several classes and their
    symbol sets read multi-class arcs.  The alphabet must hold no digit or
    metacharacter, which the pattern's bounds and syntax use."""
    out = []
    for ch in gen_pattern(rng, alphabet=alphabet):
        if ch in alphabet and rng.random() < 0.5:
            ch = "(?:" + "|".join(rng.sample(alphabet, rng.randint(2, len(alphabet)))) + ")"
        out.append(ch)
    return "".join(out)


def reads(nfa: Tnfa, arc, byte: int) -> bool:
    """Whether byte is among the bytes of an arc's classes, by a scan of
    each class's bytes rather than the byte-to-class table."""
    return any(byte in nfa.alphabet[c] for c in arc[0])


def brute_force_match(nfa: Tnfa, data: bytes):
    """First accepting TNFA path in lexicographic priority order.

    Depth-first search exploring eps-transitions in ascending priority;
    a path may not revisit a state without consuming input in between.
    Returns the winning path's tag values, or None.
    """
    n = len(data)
    tags = nfa.tags

    def dfs(q, pos, seen, m):
        if q == nfa.qf:
            return dict(m) if pos == n else None
        for _, tag, p in nfa.eps[q]:
            if p in seen:
                continue
            if tag == 0:
                m2 = m
            else:
                m2 = dict(m)
                if tag > 0:
                    m2[tag] = pos
                else:
                    m2[-tag] = None
            r = dfs(p, pos, seen | {p}, m2)
            if r is not None:
                return r
        arc = nfa.arcs[q]
        if pos < n and arc is not None and reads(nfa, arc, data[pos]):
            return dfs(arc[1], pos + 1, {arc[1]}, m)
        return None

    return dfs(nfa.q0, 0, {nfa.q0}, {t: None for t in tags})


def all_inputs(alphabet: bytes, max_len: int):
    for k in range(max_len + 1):
        for combo in product(alphabet, repeat=k):
            yield bytes(combo)


def sample_match(e, rng: Random, extra: int) -> bytes:
    """A string of the language of AST e: a random branch of each
    alternation, and a random count of each repetition, at most `extra`
    past its lower bound where it has no upper one."""
    out = bytearray()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.append(node.code)
        elif isinstance(node, Cat):
            stack += (node.right, node.left)
        elif isinstance(node, Alt):
            stack.append(node.left if rng.random() < 0.5 else node.right)
        elif isinstance(node, Rep):
            hi = node.lo + extra if node.hi is None else node.hi
            stack += [node.body] * rng.randint(node.lo, hi)
    return bytes(out)


_REPS = ((0, None), (1, None), (0, 1), (1, 2), (2, 2), (0, 0))


def all_asts(size: int):
    """Every AST shape of exactly `size` nodes over {a, b}; tags are
    emitted as Tag(0) placeholders, renumbered by number_tags."""
    if size <= 0:
        return
    if size == 1:
        yield Empty()
        yield Sym(ord("a"))
        yield Sym(ord("b"))
        yield Tag(0)
        return
    for lo, hi in _REPS:
        for body in all_asts(size - 1):
            yield Rep(body, lo, hi)
    for left_size in range(1, size - 1):
        for left in all_asts(left_size):
            for right in all_asts(size - 1 - left_size):
                yield Alt(left, right)
                yield Cat(left, right)


def number_tags(e, counter=None):
    """Assign placeholder tags contiguous ids in reading order; returns
    (ast, tag count)."""
    if counter is None:
        counter = [0]
    match e:
        case Tag(_):
            counter[0] += 1
            return Tag(counter[0]), counter[0]
        case Alt(l, r):
            l2, _ = number_tags(l, counter)
            r2, _ = number_tags(r, counter)
            return Alt(l2, r2), counter[0]
        case Cat(l, r):
            l2, _ = number_tags(l, counter)
            r2, _ = number_tags(r, counter)
            return Cat(l2, r2), counter[0]
        case Rep(b, lo, hi):
            b2, _ = number_tags(b, counter)
            return Rep(b2, lo, hi), counter[0]
        case _:
            return e, counter[0]


class NaiveRegisters:
    """Reference register file: a scalar register holds an offset or None,
    a history register the full list of offsets and -1 for bypasses,
    copied wholesale on copy operations."""

    def __init__(self, n_regs: int, tree_regs):
        self.vals = {}
        for r in range(1, n_regs + 1):
            self.vals[r] = [] if r in tree_regs else None

    def run(self, ops, pos: int):
        for op in ops:
            if op[0] == "s":
                self.vals[op[1]] = pos if op[2] == "p" else None
            elif op[0] == "c":
                src = self.vals[op[2]]
                self.vals[op[1]] = list(src) if isinstance(src, list) else src
            else:
                src = self.vals[op[2]]
                self.vals[op[1]] = list(src) + [pos if ch == "p" else -1 for ch in op[3]]


def tree_append(tree, idx: int, hist: str, pos: int) -> int:
    """Append the entries of hist, one node each, to the history at node
    idx of a `runtime.PrefixTree`; returns the last node."""
    for ch in hist:
        tree.pred.append(idx)
        tree.offs.append(pos if ch == "p" else -1)
        idx = len(tree.pred) - 1
    return idx


def run_ops(ops, regs, tree, pos: int):
    """Reference for the decoded steps the match plan runs: apply one
    operation list in order, as written, on registers holding offsets or
    nodes of a `runtime.PrefixTree`."""
    for op in ops:
        if op[0] == SET:
            regs[op[1]] = pos if op[2] == "p" else None
        elif op[0] == COPY:
            regs[op[1]] = regs[op[2]]
        else:
            regs[op[1]] = tree_append(tree, regs[op[2]], op[3], pos)


def state_rows(state) -> tuple:
    """A determinization state's rows as (q, payload, lookahead) triples,
    read from its columns."""
    return tuple((q, x, l) for (q, l), x in zip(state.ql, state.x))


def dense_seeds(nfa: Tnfa, rows, alphabet) -> list:
    """Seeds of a state per class, by scanning all its rows for a byte of
    every class of the alphabet; None for a class without seeds."""
    out = []
    for members in alphabet:
        byte = members[0]
        seeds = [(nfa.arcs[q][1], x, l) for q, x, l in rows
                 if nfa.arcs[q] is not None and reads(nfa, nfa.arcs[q], byte)]
        out.append(seeds or None)
    return out


def dense_minimize_partition(tdfa) -> list[int]:
    """Moore partition refinement over None-padded rows of every class,
    parts numbered in order of first appearance."""
    interned: dict = {}

    def opid(ops):
        return interned.setdefault(tuple(ops), len(interned))

    def renumber(keys):
        mapping: dict = {}
        return [mapping.setdefault(k, len(mapping)) for k in keys]

    n = tdfa.n_states
    part = renumber((s in tdfa.finals, opid(tdfa.phi.get(s, ())) if s in tdfa.finals else -1,
                     opid(tdfa.psi[s]) if s in tdfa.psi else -1) for s in range(n))
    while True:
        rows = []
        for s in range(n):
            cells = [tdfa.delta.get((s, c)) for c in range(len(tdfa.alphabet))]
            rows.append((part[s], tuple(None if cell is None else (part[cell[0]], opid(cell[1]))
                                        for cell in cells)))
        new = renumber(rows)
        if new == part:
            return part
        part = new


def closure_patterns() -> list[str]:
    """The closure corpus: the golden pattern, 50 generated patterns, and
    three repetition families whose closures are mostly one eps-free seed
    each or long eps chains."""
    from tdfa.fuzz import gen_pattern

    rng = Random(2024)
    return (["(a)*#(?:a|#b)#b*"]
            + [gen_pattern(rng) for _ in range(50)]
            + [f"(?:#a)*a{{{k}}}" for k in (1, 2, 7, 40)]
            + [f"(a|b)*(?:#a){{{k}}}" for k in (1, 3, 12)]
            + [f"(?:a?){{{k}}}" for k in (1, 5, 30)])


def stack_epsilon_closure(nfa: Tnfa, seeds) -> list:
    """Reference for `determinize.epsilon_closure`: every seed goes on one
    stack of whole configurations, and the closure is filtered to the final
    and symbol-bearing states after the walk."""
    out = []
    seen = set()
    stack = [(q, x, h, ()) for q, x, h in reversed(seeds)]
    while stack:
        cfg = stack.pop()
        q = cfg[0]
        if q in seen:
            continue
        seen.add(q)
        out.append(cfg)
        _, x, h, l = cfg
        for _, tag, p in reversed(nfa.eps[q]):
            if p not in seen:
                stack.append((p, x, h, l if tag == 0 else l + (tag,)))
    qf, arcs = nfa.qf, nfa.arcs
    return [cfg for cfg in out if cfg[0] == qf or arcs[cfg[0]]]


def round_topological_sort(ops: list) -> tuple[list, bool]:
    """Reference for `regops.topological_sort`: in rounds, move every
    operation whose destination no pending operation still reads (a move
    frees the rest of its own round at once); the tail left by a
    nontrivial cycle goes last in input order."""
    indeg: dict[int, int] = {}
    for op in ops:
        if op[0] != "s":
            indeg.setdefault(op[1], 0)
            indeg.setdefault(op[2], 0)
    for op in ops:
        if op[0] != "s" and op[1] != op[2]:
            indeg[op[2]] += 1

    pending = list(ops)
    out = []
    nontrivial = False
    while pending:
        rest = []
        moved = False
        for op in pending:
            if indeg.get(op[1], 0) == 0:
                out.append(op)
                moved = True
                if op[0] != "s" and op[1] != op[2]:
                    indeg[op[2]] -= 1
            else:
                rest.append(op)
        pending = rest
        if not moved and pending:
            nontrivial = any(op[0] != "s" and op[1] != op[2] for op in pending)
            out.extend(pending)
            break
    return out, not nontrivial


def round_robin_liveness(cfg) -> list[set[int]]:
    """Reference for `optimizer.liveness_analysis`, over Python sets: sweep
    every basic block in index order until no live set changes, then add
    the fallback blocks' live-in to the blocks that may fall through to
    them.  A block's live-in keeps an operation's source only when its
    destination is live after it."""
    blocks = cfg.blocks
    final_regs = set(cfg.tdfa.rf.values())

    def live_in(ops, live):
        live = set(live)
        for op in reversed(ops):
            if op[1] in live:
                live.discard(op[1])
                if op[0] != SET:
                    live.add(op[2])
        return live

    L = [set(final_regs) if b.kind == "final" else set() for b in blocks]
    changed = True
    while changed:
        changed = False
        for i, b in enumerate(blocks):
            if b.kind != "basic":
                continue
            new = set().union(*(live_in(blocks[s].ops, L[s]) for s in b.succ))
            if new != L[i]:
                L[i] = new
                changed = True
    for i, b in enumerate(blocks):
        if b.kind == "fallback":
            L[i] |= final_regs
            used = L[i] - {op[1] for op in b.ops} | {op[2] for op in b.ops if op[0] != SET}
            for s in b.succ:
                L[s] |= used
    return L


def first_fit_allocation(cfg, I: list[int]) -> dict[int, int]:
    """Reference for `optimizer.register_allocation`: its earlier form,
    which tests every leftover register against every class through a
    `compatible` closure and keeps the classes sorted with `insort`."""
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
    for i in reps:
        if not M[i]:
            continue
        for j in reps:
            if j <= i or not M[j]:
                continue
            if not (U[i] & M[j] or U[j] & M[i]):
                B[j] = i
                M[i] |= M[j]
                U[i] |= U[j]
                M[j] = 0

    live = [x for x in reps if M[x]]
    for r in range(1, n + 1):
        if B.get(r) is not None:
            continue
        for x in live:
            if compatible(x, r):
                join(x, r)
                break
        else:
            B[r] = r
            M[r] = 1 << r
            U[r] = I[r]
            insort(live, r)

    return {r: cls for cls, x in enumerate(live, 1) for r in _bits(M[x])}
