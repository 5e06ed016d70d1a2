"""Tagged NFA: construction by structural recursion and direct simulation.

The simulation is the reference matcher for everything downstream: it is a
priority-ordered depth-first search with first-arrival-wins state claiming,
which yields leftmost-greedy semantics.

States are numbered in the left-to-right reading order of the expression
(bypass chains after the body they skip, join states when the following
element starts), so dumps of small automata are easy to eyeball.  The
builder creates states right to left, in exactly the reverse of that
order, and numbers them by reversal, so the build is one pass, linear in
the TNFA's size.  A symbol set (a Sym, or an alternation of single bytes)
is one state whose arc (classes, target) reads every byte class the set
covers, as RE2C labels a symbol transition with a set of classes.
The builder keeps each AST node's tags and bytes by the node's id: the
unrolled copies of a repetition build one body object, and the AST shares
nodes (one `Sym` per byte, the subtrees the fixed-tag strip keeps), so
each node is analysed once.  A set is analysed at its root alone, by one
walk, and its inner alternations get no entry.
"""

from dataclasses import dataclass, field

from .resyntax import Alt, Cat, Empty, Rep, Sym, TaggedRegex, Tag


@dataclass
class Tnfa:
    n_states: int
    q0: int
    qf: int
    tags: tuple[int, ...]
    alphabet: tuple[tuple[int, ...], ...]  # each class's bytes
    byte_to_class: list[int]  # alphabet's inverse; -1 for other bytes
    # eps[q]: ((priority, tag, target), ...) sorted by priority; tag is
    # +t / -t / 0 for untagged.  arcs[q]: (classes, target) or None, the
    # classes ascending.  A state has no eps-transitions exactly when it
    # has an arc or is qf, which both closures rely on.
    eps: list[tuple[tuple[int, int, int], ...]]
    arcs: list[tuple[tuple[int, ...], int] | None]
    _sim_moves: list | None = field(default=None, init=False, repr=False, compare=False)

    def tag_index(self) -> dict[int, int]:
        return {t: i for i, t in enumerate(self.tags)}


def byte_classes(sets) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The coarsest partition of the bytes of sets in which every set is a
    union of classes, as byte tuples ordered by smallest byte (a partition
    so ordered is its own), and each byte's class, -1 for the rest."""
    member: dict = {}
    for i, s in enumerate(sets):
        for byte in s:
            member[byte] = member.get(byte, 0) | 1 << i
    classes: dict = {}
    for byte in sorted(member):
        classes.setdefault(member[byte], []).append(byte)
    b2c = [-1] * 256
    for c, members in enumerate(classes.values()):
        for byte in members:
            b2c[byte] = c
    return tuple(map(tuple, classes.values())), b2c


def set_bytes(e: Alt) -> frozenset | None:
    """The bytes of an alternation of symbols, nested or not, else None."""
    codes, stack = [], [e]
    while stack:
        node = stack.pop()
        if type(node) is Alt:
            stack += (node.right, node.left)
        elif type(node) is Sym:
            codes.append(node.code)
        else:
            return None
    return frozenset(codes)


class _Builder:
    """Builds fragments right to left: each fragment after the fragments
    that follow it, so states are created in exactly the reverse of
    reading order and build_tnfa numbers the q-th state created n - 1 - q.
    eps[q] holds that state's eps-transitions as (priority, tag, target)."""

    def __init__(self):
        self.eps: list[tuple[tuple[int, int, int], ...]] = []
        self.syms: list[tuple[int, frozenset, int]] = []  # (q, bytes, p)
        # (tags, bytes or None) per AST node, by id.
        self.memo: dict[int, tuple[tuple[int, ...], frozenset | None]] = {}

    def new_state(self, eps=()) -> int:
        self.eps.append(eps)
        return len(self.eps) - 1

    def fork(self, first: int, second: int) -> int:
        return self.new_state(((1, 0, first), (2, 0, second)))

    def info(self, e: TaggedRegex) -> tuple[tuple[int, ...], frozenset | None]:
        """The tag ids in e, ascending, as `tag_analysis` gives them, and
        the bytes of e if it is a symbol set (a Sym, or an alternation of
        symbol sets), else None.  A set is analysed at its root alone."""
        got = self.memo.get(id(e))
        if got is None:
            t = type(e)
            if t is Alt and (members := set_bytes(e)) is not None:
                got = ((), members)
            elif t is Cat or t is Alt:
                ltags, rtags = self.info(e.left)[0], self.info(e.right)[0]
                # Tags are numbered in reading order, so the halves are
                # usually ordered already and need no sort.
                ordered = not ltags or not rtags or ltags[-1] < rtags[0]
                got = (ltags + rtags if ordered else tuple(sorted(ltags + rtags)), None)
            elif t is Sym:
                got = ((), frozenset((e.code,)))
            elif t is Rep:
                got = (self.tags(e.body), None)
            else:  # a Tag or Empty
                got = ((e.tid,) if t is Tag else (), None)
            self.memo[id(e)] = got
        return got

    def tags(self, e: TaggedRegex) -> tuple[int, ...]:
        return self.info(e)[0]

    def build(self, e: TaggedRegex, qf: int) -> int:
        """Returns the fragment's start state; qf is owned by the caller."""
        t = type(e)
        if t is Cat:
            return self.build(e.left, self.build(e.right, qf))
        if t is Sym or t is Alt:
            members = self.info(e)[1]
            if members is not None:
                q = self.new_state()
                self.syms.append((q, members, qf))
                return q
            s2 = self.build(e.right, qf)
            s1n = self.chain(self.tags(e.left), s2)
            s1 = self.build(e.left, self.chain(self.tags(e.right), qf))
            return self.fork(s1, s1n)
        if t is Tag:
            return self.new_state(((1, e.tid, qf),))
        if t is Rep:
            return self.repeat(e.body, e.lo, e.hi, qf)
        if t is Empty:
            return qf
        raise TypeError(f"not a regex node: {e!r}")

    def chain(self, tag_ids, qf: int) -> int:
        """Eps-transitions emitting the negative of every tag of tag_ids
        (ascending, as `tags` gives them); an empty tag set adds no state
        and the chain collapses to qf."""
        for t in reversed(tag_ids):
            qf = self.new_state(((1, -t, qf),))
        return qf

    def repeat(self, body: TaggedRegex, lo: int, hi: int | None, qf: int) -> int:
        if hi == 0:
            # Zero repetitions: only the bypass, marking inner tags absent.
            return self.chain(self.tags(body), qf)
        if lo == 0:
            bypass = self.chain(self.tags(body), qf)
            return self.fork(self.repeat(body, 1, hi, qf), bypass)
        # lo >= 1.  Built innermost-first and unrolled iteratively: bounds
        # reach the parse-time cap, too deep for structural recursion.
        if hi is None:
            q1 = self.new_state()
            start = self.build(body, q1)
            self.eps[q1] = ((1, 0, start), (2, 0, qf))  # repeat first: greedy
            optional = 0
        else:
            start = self.build(body, qf)
            optional = hi - lo
        # optional copies: a greedy junction continues into what follows
        for _ in range(optional):
            start = self.build(body, self.fork(start, qf))
        # mandatory copies chain straight through
        for _ in range(lo - 1):
            start = self.build(body, start)
        return start


def build_tnfa(e: TaggedRegex) -> Tnfa:
    b = _Builder()
    qf = b.new_state()
    q0 = b.build(e, qf)
    # The classes come from the sets built, so a set that is never built
    # (a zero-repetition body) adds no bytes.
    eps, syms = b.eps, b.syms
    alphabet, b2c = byte_classes(sets := {members for _, members, _ in syms})
    cover = {s: tuple(sorted({b2c[byte] for byte in s})) for s in sets}
    # Renumbered in place, and the symbol triples dropped as their arcs are
    # made, so the build peaks near the size of the TNFA it returns.
    last = len(eps) - 1
    eps.reverse()
    for q, out in enumerate(eps):
        if out:
            eps[q] = tuple([(pri, tag, last - p) for pri, tag, p in out])
    arcs: list = [None] * len(eps)
    while syms:
        q, members, p = syms.pop()
        arcs[last - q] = (cover[members], last - p)
    return Tnfa(
        n_states=last + 1,
        q0=last - q0,
        qf=last - qf,
        tags=b.tags(e),
        alphabet=alphabet,
        byte_to_class=b2c,
        eps=eps,
        arcs=arcs,
    )


def sim_moves(nfa: Tnfa) -> list:
    """The simulation's one table, built on its first call and kept in the
    Tnfa: each state's eps-transitions in reverse priority, as (target, tag
    slot or -1, whether the tag is positive).  A state's tuple is empty
    exactly when it has an arc or is qf, the states the closure keeps.
    Nothing else is cached: closures or configuration sets kept across
    bytes would make the reference a lazy DFA, built the way the engines
    it checks are."""
    moves = nfa._sim_moves
    if moves is None:
        idx = nfa.tag_index()
        moves = nfa._sim_moves = [tuple([(p, idx[abs(tag)] if tag else -1, tag > 0) for _, tag, p in reversed(out)])
                                  for out in nfa.eps]
    return moves


def sim_epsilon_closure(C: list, nfa: Tnfa, k: int, hist: list[bool], mark: list[int]) -> list:
    """Depth-first closure; first arrival at a state wins.

    Configurations are (state, value list); k is the number of characters
    consumed so far.  A slot flagged in hist keeps a chain (value, earlier
    chain), -1 for a negative tag; the others the last value or None.  A
    state q is claimed by setting mark[q] to k, so one mark list serves
    every closure of a simulation.  Keeps configurations at the final
    state or with an outgoing symbol transition, in claim order.
    """
    moves = sim_moves(nfa)
    out = []
    stack = C[::-1]
    while stack:
        q, m = stack.pop()
        if mark[q] == k:
            continue
        mark[q] = k
        if not moves[q]:
            out.append((q, m))
        # Pushed in reverse priority, so priority 1 pops first.
        for p, i, positive in moves[q]:
            if mark[p] == k:
                continue
            if i < 0:
                stack.append((p, m))
            else:
                m2 = m.copy()
                if positive:
                    m2[i] = (k, m[i]) if hist[i] else k
                else:
                    m2[i] = (-1, m[i]) if hist[i] else None
                stack.append((p, m2))
    return out


def _history(chain) -> list[int]:
    """A history chain as its offset list, oldest first."""
    out = []
    while chain:
        value, chain = chain
        out.append(value)
    return out[::-1]


def simulate(nfa: Tnfa, data: bytes, multi=frozenset(), counters: dict | None = None) -> dict | None:
    """Match the whole input; returns tag values or None on failure.  A tag
    in multi comes back as its offset list, oldest first, with -1 for each
    bypass; the others as their last offset or None.  With counters, adds
    to `transitions` the bytes stepped before the input ended or no
    configuration was left."""
    hist = [t in multi for t in nfa.tags]
    mark = [-1] * nfa.n_states
    b2c, arcs = nfa.byte_to_class, nfa.arcs
    C = sim_epsilon_closure([(nfa.q0, [None] * len(hist))], nfa, 0, hist, mark)
    stepped = len(data)
    for k, byte in enumerate(data, 1):
        # Step across the arcs that read the byte's class; -1 matches none.
        cls = b2c[byte]
        C = [(arc[1], m) for q, m in C if (arc := arcs[q]) is not None and cls in arc[0]]
        if not C:
            stepped = k - 1
            break
        C = sim_epsilon_closure(C, nfa, k, hist, mark)
    if counters is not None:
        counters["transitions"] = counters.get("transitions", 0) + stepped
    for q, m in C:
        if q == nfa.qf:
            return {t: _history(v) if h else v for t, v, h in zip(nfa.tags, m, hist)}
    return None


def dot_class(members) -> str:
    """Bytes as a dot label: printable ASCII as is, `"` and `\\` with a
    backslash, the rest as hex escapes, in brackets if there are several."""
    text = "".join("\\" + chr(b) if b in b'"\\' else chr(b) if 32 <= b < 127 else f"\\\\x{b:02x}"
                   for b in members)
    return text if len(members) == 1 else f"[{text}]"


def tnfa_to_dot(nfa: Tnfa) -> str:
    lines = ["digraph tnfa {", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append(f"  {nfa.qf} [shape=doublecircle];")
    for q in range(nfa.n_states):
        if nfa.arcs[q]:
            classes, p = nfa.arcs[q]
            members = sorted(byte for c in classes for byte in nfa.alphabet[c])
            lines.append(f'  {q} -> {p} [label="{dot_class(members)}", style=bold];')
        for pri, tag, p in nfa.eps[q]:
            if tag == 0:
                lines.append(f'  {q} -> {p} [label="{pri}"];')
            else:
                lines.append(f'  {q} -> {p} [label="{pri}/{tag}", style=dashed];')
    lines.append("}")
    return "\n".join(lines)
