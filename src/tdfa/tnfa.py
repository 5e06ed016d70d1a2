"""Tagged NFA: construction by structural recursion and direct simulation.

The simulation is the reference matcher for everything downstream: it is a
priority-ordered depth-first search with first-arrival-wins state claiming,
which yields leftmost-greedy semantics.

States are numbered in the left-to-right reading order of the expression
(bypass chains after the body they skip, join states when the following
element starts), so dumps of small automata are easy to eyeball.
"""

from dataclasses import dataclass

from .resyntax import Alt, Cat, Empty, Rep, Sym,TaggedRegex, Tag, collect_tags


@dataclass
class Tnfa:
    n_states: int
    q0: int
    qf: int
    tags: tuple[int, ...]
    alphabet: tuple[int, ...]
    # eps[q]: ((priority, tag, target), ...) sorted by priority; tag is
    # +t / -t / 0 for untagged.  syms[q]: {byte: target}.
    eps: list[tuple[tuple[int, int, int], ...]]
    syms: list[dict[int, int]]

    def tag_index(self) -> dict[int, int]:
        return {t: i for i, t in enumerate(self.tags)}


def ntags(tag_ids, qf: int, first_state: int):
    """Chain of eps-transitions emitting the negative of every tag.

    Returns (start, new_states, transitions); an empty tag set yields no new
    states and the chain collapses to qf.
    """
    tag_ids = sorted(tag_ids)
    if not tag_ids:
        return qf, [], []
    states = list(range(first_state, first_state + len(tag_ids)))
    transitions = []
    for i, t in enumerate(tag_ids):
        target = states[i + 1] if i + 1 < len(states) else qf
        transitions.append((states[i], 1, -t, target))
    return states[0], states, transitions


class _Builder:
    def __init__(self):
        self.next_state = 0
        self.eps: list[tuple[int, int, int, int]] = []  # (q, pri, tag, p)
        self.syms: list[tuple[int, int, int]] = []  # (q, byte, p)

    def new_state(self) -> int:
        s = self.next_state
        self.next_state += 1
        return s

    def build(self, e: TaggedRegex, qf: int):
        """Returns (start, order): order lists this fragment's own states in
        reading order; qf is owned by the caller."""
        match e:
            case Empty():
                return qf, []
            case Sym(c):
                q0 = self.new_state()
                self.syms.append((q0, c, qf))
                return q0, [q0]
            case Tag(t):
                q0 = self.new_state()
                self.eps.append((q0, 1, t, qf))
                return q0, [q0]
            case Cat(l, r):
                sr, order_r = self.build(r, qf)
                sl, order_l = self.build(l, sr)
                return sl, order_l + order_r
            case Alt(l, r):
                s2, order2 = self.build(r, qf)
                s2n, order2n = self.chain(collect_tags(r), qf)
                s1, order1 = self.build(l, s2n)
                s1n, order1n = self.chain(collect_tags(l), s2)
                q0 = self.new_state()
                self.eps.append((q0, 1, 0, s1))
                self.eps.append((q0, 2, 0, s1n))
                return q0, [q0] + order1 + order2n + order1n + order2
            case Rep(body, lo, hi):
                return self.repeat(body, lo, hi, qf)
        raise TypeError(f"not a regex node: {e!r}")

    def chain(self, tag_ids, qf: int):
        start, states, transitions = ntags(tag_ids, qf, self.next_state)
        self.next_state += len(states)
        self.eps.extend(transitions)
        return start, states

    def repeat(self, body: TaggedRegex, lo: int, hi: int | None, qf: int):
        if hi == 0:
            # Zero repetitions: only the bypass, marking inner tags absent.
            return self.chain(collect_tags(body), qf)
        if lo == 0:
            s1, order1 = self.repeat(body, 1, hi, qf)
            s1n, order_n = self.chain(collect_tags(body), qf)
            q0 = self.new_state()
            self.eps.append((q0, 1, 0, s1))
            self.eps.append((q0, 2, 0, s1n))
            return q0, [q0] + order1 + order_n
        # lo >= 1.  Built innermost-first and unrolled iteratively: bounds
        # reach the parse-time cap, too deep for structural recursion.
        if hi is None:
            q1 = self.new_state()
            start, order = self.build(body, q1)
            self.eps.append((q1, 1, 0, start))  # repeat first: greedy
            self.eps.append((q1, 2, 0, qf))
            order = order + [q1]
            optional = 0
        else:
            start, order = self.build(body, qf)
            optional = hi - lo
        # optional copies: a greedy junction continues into what follows
        for _ in range(optional):
            q1 = self.new_state()
            s_first, order_first = self.build(body, q1)
            self.eps.append((q1, 1, 0, start))
            self.eps.append((q1, 2, 0, qf))
            start, order = s_first, order_first + [q1] + order
        # mandatory copies chain straight through
        for _ in range(lo - 1):
            s_first, order_first = self.build(body, start)
            start, order = s_first, order_first + order
        return start, order


def build_tnfa(e: TaggedRegex) -> Tnfa:
    b = _Builder()
    qf = b.new_state()
    q0, order = b.build(e, qf)
    order = order + [qf]
    assert not order or q0 == order[0]
    assert len(order) == b.next_state

    remap = {old: new for new, old in enumerate(order)}
    n = len(order)
    eps: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    syms: list[dict[int, int]] = [{} for _ in range(n)]
    for q, pri, tag, p in b.eps:
        eps[remap[q]].append((pri, tag, remap[p]))
    for q, byte, p in b.syms:
        syms[remap[q]][byte] = remap[p]
    for lst in eps:
        lst.sort()
        priorities = [pri for pri, _, _ in lst]
        assert priorities == list(range(1, len(lst) + 1))
    alphabet = tuple(sorted({byte for s in syms for byte in s}))
    return Tnfa(
        n_states=n,
        q0=remap[q0],
        qf=remap[qf],
        tags=collect_tags(e),
        alphabet=alphabet,
        eps=[tuple(lst) for lst in eps],
        syms=syms,
    )


def sim_epsilon_closure(C: list, nfa: Tnfa, k: int, idx: dict[int, int]) -> list:
    """Depth-first closure; first arrival at a state wins.

    Configurations are (state, value list); k is the number of characters
    consumed so far and idx is nfa.tag_index().  Keeps configurations at
    the final state or with an outgoing symbol transition, in claim order.
    """
    out = []
    seen = set()
    stack = list(reversed(C))
    while stack:
        q, m = stack.pop()
        if q in seen:
            continue
        seen.add(q)
        out.append((q, m))
        # Push in reverse priority so priority 1 pops first.
        for _, tag, p in reversed(nfa.eps[q]):
            if p in seen:
                continue
            if tag == 0:
                stack.append((p, m))
            else:
                m2 = list(m)
                if tag > 0:
                    m2[idx[tag]] = k
                else:
                    m2[idx[-tag]] = None
                stack.append((p, m2))
    return [(q, m) for q, m in out if q == nfa.qf or nfa.syms[q]]


def sim_step_on_symbol(C: list, nfa: Tnfa, a: int) -> list:
    out = []
    for q, m in C:
        p = nfa.syms[q].get(a)
        if p is not None:
            out.append((p, m))
    return out


def simulate(nfa: Tnfa, data: bytes) -> dict[int, int | None] | None:
    """Match the whole input; returns tag values or None on failure."""
    idx = nfa.tag_index()
    C = [(nfa.q0, [None] * len(nfa.tags))]
    C = sim_epsilon_closure(C, nfa, 0, idx)
    for k, byte in enumerate(data):
        C = sim_step_on_symbol(C, nfa, byte)
        if not C:
            return None
        C = sim_epsilon_closure(C, nfa, k + 1, idx)
    for q, m in C:
        if q == nfa.qf:
            return dict(zip(nfa.tags, m))
    return None


def dot_symbol(byte: int) -> str:
    """A byte as a dot label: printable ASCII as is, the rest escaped."""
    return chr(byte) if 32 <= byte < 127 else f"\\\\x{byte:02x}"


def tnfa_to_dot(nfa: Tnfa) -> str:
    lines = ["digraph tnfa {", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append(f"  {nfa.qf} [shape=doublecircle];")
    for q in range(nfa.n_states):
        for byte, p in sorted(nfa.syms[q].items()):
            lines.append(f'  {q} -> {p} [label="{dot_symbol(byte)}", style=bold];')
        for pri, tag, p in nfa.eps[q]:
            if tag == 0:
                lines.append(f'  {q} -> {p} [label="{pri}"];')
            else:
                t = f"{tag}" if tag > 0 else f"-{-tag}"
                lines.append(f'  {q} -> {p} [label="{pri}/{t}", style=dashed];')
    lines.append("}")
    return "\n".join(lines)
