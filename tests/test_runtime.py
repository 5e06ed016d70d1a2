import json
import tracemalloc
from random import Random

import pytest

import tdfa
from tdfa.determinize import Tdfa, determinize
from tdfa.fuzz import _last, gen_pattern
from tdfa.regops import APPEND, COPY, SET
from tdfa.runtime import SLICE_MIN, _COPY, MatchPlan, PrefixTree, _bulk_form, _decode_ops, _run_steps, exec_tdfa
from tdfa.tnfa import build_tnfa, simulate
from tdfa.resyntax import parse_regex

from helpers import ANY_BYTE, EVERY_CLASS, NaiveRegisters, all_inputs, run_ops, tree_append

GOLDEN = "(a)*#(?:a|#b)#b*"
CSV = "((?:a|b|c)+)(?:,((?:a|b|c)+))*"


def naive_walk(a, data: bytes, mode: str = "full"):
    """One transition of delta per byte with run_ops, no plan and no skip.

    Returns ((end, values) or None, counters); the counters are those of
    exec_tdfa, tree nodes counted before the final or fallback operations."""
    tree = PrefixTree()
    regs = [None] * (a.max_reg + 1)
    for t in a.multi:
        regs[a.r0[t]] = 0
    state, pos, n_ops = a.s0, 0, 0
    match_pos, match_state = (0 if state in a.finals else -1), state
    for byte in data:
        cell = a.delta.get((state, a.byte_to_class[byte]))
        if cell is None:
            break
        run_ops(cell[1], regs, tree, pos)
        n_ops += len(cell[1])
        state, pos = cell[0], pos + 1
        if state in a.finals:
            match_pos, match_state = pos, state
    fallback = mode != "full" and 0 <= match_pos < pos
    counters = {"transitions": pos, "operations": n_ops, "tree_nodes": len(tree.pred) - 1, "fallback": int(fallback)}
    if match_pos < 0 or (mode == "full" and match_pos != len(data)):
        return None, counters
    run_ops(a.psi[match_state] if fallback else a.phi[match_state], regs, tree, match_pos)
    values = {}
    for t in a.tags:
        r = regs[a.rf[t]]
        values[t] = tree.unpack(r) if t in a.multi else r
    return (match_pos, values), counters


def check_against_walk(a, data: bytes):
    """exec_tdfa agrees with naive_walk in both modes, counters included;
    returns the full-mode outcome."""
    for mode in ("prefix", "full"):
        counters = {}
        out = exec_tdfa(a, data, mode, counters)
        want, want_counters = naive_walk(a, data, mode)
        assert counters == want_counters, (data, mode)
        assert ((out.end, out.values) if out else None) == want, (data, mode)
    return out


def state_after(a, data: bytes) -> int:
    state = a.s0
    for byte in data:
        state = a.delta[(state, a.byte_to_class[byte])][0]
    return state


def self_loops(a, state) -> list:
    """Classes on which state loops to itself without operations."""
    return [c for c in range(len(a.alphabet)) if a.delta.get((state, c)) == (state, ())]


def test_tree_append_empty_history():
    tree = PrefixTree()
    assert tree_append(tree, 0, "", 5) == 0


def test_tree_append_single():
    tree = PrefixTree()
    idx = tree_append(tree, 0, "p", 3)
    assert (tree.pred[idx], tree.offs[idx]) == (0, 3)
    assert tree.unpack(idx) == [3]


def test_tree_shares_prefixes():
    tree = PrefixTree()
    parent = tree_append(tree, 0, "p", 1)
    a = tree_append(tree, parent, "p", 2)
    b = tree_append(tree, parent, "n", 2)
    assert tree.pred[a] == parent and tree.pred[b] == parent
    assert tree.unpack(a) == [1, 2]
    assert tree.unpack(b) == [1, -1]


def test_tree_unpack_root_and_np():
    tree = PrefixTree()
    assert tree.unpack(0) == []
    idx = tree_append(tree, 0, "np", 5)
    assert tree.unpack(idx) == [-1, 5]


def test_run_ops_basic():
    tree = PrefixTree()
    regs = [None] * 4
    run_ops([(SET, 1, "p")], regs, tree, 2)
    assert regs[1] == 2
    run_ops([(COPY, 2, 1)], regs, tree, 9)
    assert regs[2] == 2
    run_ops([(SET, 3, "n")], regs, tree, 9)
    assert regs[3] is None


def test_run_ops_append_preserves_source_history():
    tree = PrefixTree()
    regs = [0, 0, 0]
    run_ops([(APPEND, 1, 0, "p")], regs, tree, 1)
    run_ops([(APPEND, 2, 1, "p")], regs, tree, 2)
    run_ops([(APPEND, 1, 1, "n")], regs, tree, 3)
    assert tree.unpack(regs[2]) == [1, 2]
    assert tree.unpack(regs[1]) == [1, -1]


def test_exec_golden_full_match():
    tdfa = determinize(build_tnfa(parse_regex(GOLDEN)))
    out = exec_tdfa(tdfa, b"aab")
    assert out.kind == "match" and out.end == 3
    assert out.values == {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}
    assert not exec_tdfa(tdfa, b"")
    assert exec_tdfa(tdfa, b"b").values == {1: None, 2: None, 3: 0, 4: 0, 5: 1}


def test_exec_golden_multivalued():
    tdfa = determinize(build_tnfa(parse_regex(GOLDEN)), multi=frozenset({1, 2}))
    out = exec_tdfa(tdfa, b"aab")
    assert out.values[1] == [0, 1]
    assert out.values[2] == [1, 2]
    assert out.values[3] == 2


def test_exec_foreign_bytes_no_match():
    tdfa = determinize(build_tnfa(parse_regex(GOLDEN)))
    assert not exec_tdfa(tdfa, b"axb")
    assert not exec_tdfa(tdfa, bytes([200]))


def test_exec_counts_ops_per_byte():
    tdfa = determinize(build_tnfa(parse_regex("(?:#a)*")), multi=frozenset())
    counters = {}
    exec_tdfa(tdfa, b"aaaa", counters=counters)
    assert counters["transitions"] == 4
    assert counters["operations"] > 0


def test_prefix_tree_vs_naive_registers():
    """Random operation programs over a typed register file."""
    rng = Random(7)
    scalar = [1, 2, 3]
    trees = [4, 5, 6]
    for _ in range(60):
        tree = PrefixTree()
        regs = [None] * 7
        for r in trees:
            regs[r] = 0
        naive = NaiveRegisters(6, set(trees))
        program = []
        for pos in range(30):
            ops = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice("sca")
                if kind == "s":
                    ops.append((SET, rng.choice(scalar), rng.choice("np")))
                elif kind == "c":
                    pool = scalar if rng.random() < 0.5 else trees
                    ops.append((COPY, rng.choice(pool), rng.choice(pool)))
                else:
                    h = "".join(rng.choice("np") for _ in range(rng.randint(1, 2)))
                    ops.append((APPEND, rng.choice(trees), rng.choice(trees), h))
            # unique dest per list
            seen, unique = set(), []
            for op in ops:
                if op[1] not in seen:
                    seen.add(op[1])
                    unique.append(op)
            run_ops(unique, regs, tree, pos)
            naive.run(unique, pos)
            program.append(unique)
        for r in scalar:
            assert regs[r] == naive.vals[r]
        for r in trees:
            assert tree.unpack(regs[r]) == naive.vals[r]
        # The same program as the decoded steps of exec_tdfa: a chain of
        # one transition per list, register r read back as tag r.
        chain = Tdfa.from_json(json.dumps({
            "tags": scalar + trees, "multi": trees, "alphabet": [97],
            "r0": {r: r for r in scalar + trees}, "rf": {r: r for r in scalar + trees},
            "max_reg": 6, "n_states": len(program) + 1, "s0": 0, "finals": [len(program)],
            "fallback": [], "delta": [[i, 0, i + 1, ops] for i, ops in enumerate(program)],
            "phi": [[len(program), []]], "psi": [],
        }))
        counters = {}
        values = exec_tdfa(chain, b"a" * len(program), counters=counters).values
        assert counters == {"transitions": len(program), "operations": sum(map(len, program)),
                            "tree_nodes": sum(len(op[3]) for ops in program for op in ops if op[0] == APPEND),
                            "fallback": 0}
        for r in scalar:
            assert values[r] == naive.vals[r]
        for r in trees:
            assert values[r] == naive.vals[r]


@pytest.mark.parametrize("pattern", ["(?:a|b)*(c)(?:a|b)*", "(?:a|b)*#(?:a|b)*"])
def test_skip_from_start_state(pattern):
    p = tdfa.compile(pattern, multi="none")
    a = p.tdfa
    # one self-loop class holding both bytes of the symbol set
    assert [a.alphabet[c] for c in self_loops(a, a.s0)] == [tuple(b"ab")]
    for data in all_inputs(b"abc", 6):
        out = check_against_walk(a, data)
        assert (out.values if out else None) == simulate(p.tnfa, data)


@pytest.mark.parametrize("multi", ["none", "auto"])
def test_skip_in_final_state_then_fallback(multi):
    p = tdfa.compile(CSV, multi=multi)
    a = p.tdfa
    out = exec_tdfa(a, b"abca,bc,d", "prefix")
    assert (out.kind, out.end) == ("prefix", 7)
    # The field state loops on every letter, one class; ",d" leaves it for
    # a dead end.
    state = state_after(a, b"abca,bc")
    assert state in a.finals and state in a.psi
    assert [a.alphabet[c] for c in self_loops(a, state)] == [tuple(b"abc")]
    check_against_walk(a, b"abca,bc,d")
    want = exec_tdfa(a, b"abca,bc").values
    assert out.values == want
    if multi == "none":
        assert want == simulate(p.tnfa, b"abca,bc")


@pytest.mark.parametrize("multi", ["none", "auto"])
def test_skip_runs_of_length_zero_one_two(multi):
    # Fields of 1, 2 and 3 letters leave skip runs of 0, 1 and 2 bytes.
    p = tdfa.compile(CSV, multi=multi)
    for data in all_inputs(b"abc,", 6):
        out = check_against_walk(p.tdfa, data)
        if multi == "none":
            assert (out.values if out else None) == simulate(p.tnfa, data)


def test_full_byte_alphabet_has_no_sentinel():
    # 256 classes: the start state loops on every one but the backslash's,
    # so its skip span is a class set with a gap at a metacharacter (92),
    # and it holds the class numbers of '-', ']' and '^'.
    p = tdfa.compile(EVERY_CLASS, multi="none")
    a = p.tdfa
    plan = MatchPlan(a)
    assert len(a.alphabet) == 256 and max(plan.classes) == 255
    assert all(len(row) == 256 for row in plan.rows)
    assert self_loops(a, a.s0) == [c for c in range(256) if c != 92]
    rng = Random(3)
    inputs = [bytes(range(256)), bytes(range(255, -1, -1)), b"", b"\\", b"]^-\\", b"]^-\\" + bytes(range(256))]
    inputs += [bytes(rng.choice(b"\x00\xff]^-\\ab") for _ in range(rng.randint(0, 12))) for _ in range(200)]
    for data in inputs:
        out = check_against_walk(a, data)
        assert (out.values if out else None) == simulate(p.tnfa, data)


def test_alternation_of_every_byte_is_one_class():
    # One class holds all 256 bytes: no byte is dead, so there is no
    # sentinel column, and every row is one cell wide.
    p = tdfa.compile(b"(" + ANY_BYTE + b"*)", multi="none")
    plan = MatchPlan(p.tdfa)
    assert p.tdfa.alphabet == (tuple(range(256)),) and plan.classes == bytes(256)
    assert all(len(row) == 1 for row in plan.rows)
    for data in (b"", bytes(range(256)), bytes(range(255, -1, -1)) * 3):
        assert check_against_walk(p.tdfa, data).values == {1: 0, 2: len(data)}


def test_prefix_without_fallback_operations_raises():
    a = tdfa.compile(CSV, multi="none").tdfa
    state = state_after(a, b"abca,bc")
    doc = json.loads(a.to_json())
    doc["psi"] = [entry for entry in doc["psi"] if entry[0] != state]
    clone = Tdfa.from_json(json.dumps(doc))
    assert exec_tdfa(clone, b"abca,bc", "prefix").end == 7
    with pytest.raises(ValueError, match=f"state {state} "):
        exec_tdfa(clone, b"abca,bc,d", "prefix")


def test_left_final_start_state_without_fallback_operations_raises():
    # s0 is final and "a" leads to the non-final s1, a dead end: the match
    # falls back to s0, which has no psi list.
    a = Tdfa.from_json(json.dumps({
        "tags": [1], "multi": [], "alphabet": [97], "r0": {1: 1}, "rf": {1: 1}, "max_reg": 1,
        "n_states": 2, "s0": 0, "finals": [0], "fallback": [], "delta": [[0, 0, 1, []]],
        "phi": [[0, [(SET, 1, "p")]]], "psi": [],
    }))
    assert exec_tdfa(a, b"", "prefix").values == {1: 0}
    with pytest.raises(ValueError, match="final state 0 "):
        exec_tdfa(a, b"a", "prefix")


# -- slice moves and bulk self-loops -----------------------------------------


def check_decoded(ops, rng) -> tuple:
    """The decoded steps of ops, run by the plan's runner, agree with
    run_ops on a random register file whose registers hold nil or nodes of
    a random tree, register 0 nil as in a match; returns the steps."""
    steps = _decode_ops(ops)
    size = 2 + max(max(op[1], op[2] if op[0] != SET else 0) for op in ops)
    tree = PrefixTree()
    for _ in range(20):
        tree_append(tree, rng.randrange(len(tree.pred)), rng.choice("np"), rng.randrange(100))
    regs = [None] + [rng.choice([None, rng.randrange(len(tree.pred))]) for _ in range(size - 1)]
    want, want_tree = list(regs), PrefixTree()
    want_tree.pred, want_tree.offs = list(tree.pred), list(tree.offs)
    # "P" stands for the position: a set or an append stores it as given.
    run_ops(ops, want, want_tree, "P")
    _run_steps(steps, regs, tree, "P")
    for r in range(size):
        if type(want[r]) is int:
            assert type(regs[r]) is int and tree.unpack(regs[r]) == want_tree.unpack(want[r]), (ops, r)
        else:
            assert regs[r] == want[r], (ops, r)
    return steps


def has_slice(steps) -> bool:
    return any(type(dst) is slice for _, dst, _ in steps)


def test_decoded_steps_match_run_ops():
    rng = Random(2024)
    patterns = [GOLDEN] + [gen_pattern(rng) for _ in range(50)]
    patterns += [f"(?:#a)*a{{{k}}}" for k in (1, 2, 5, 9, 10, 16)]
    patterns += [f"(a|b)*(?:#a){{{k}}}" for k in (1, 2, 3, 8, 9, 16)]
    lists = set()
    for pattern in patterns:
        for kw in ({}, {"use_minimize": True, "fixed_tags": True}):
            a = tdfa.compile(pattern, **kw).tdfa
            lists.update(ops for _, ops in a.delta.values())
            lists.update(a.phi.values())
            lists.update(a.psi.values())
    lists.discard(())
    rng = Random(5)
    moved = [ops for ops in sorted(lists) if has_slice(check_decoded(ops, rng))]
    # the shift chains of (?:#a)*a{k}, k >= 10
    assert len(moved) >= 2
    # r4..r17 <- r5..r18; the stride-3 chains of (a|b)*(?:#a){k} stay plain
    for pattern, want in (("(?:#a)*a{16}", [(slice(4, 18), slice(5, 19))]), ("(a|b)*(?:#a){16}", [])):
        a = tdfa.compile(pattern).tdfa
        longest = max((ops for _, ops in a.delta.values()), key=len)
        assert [(dst, src) for _, dst, src in _decode_ops(longest) if type(dst) is slice] == want, pattern


def test_slice_moves_only_from_slice_min_copies():
    rng = Random(1)
    for n in (SLICE_MIN - 1, SLICE_MIN):
        chain = tuple((COPY, r, r + 1) for r in range(1, n + 1))
        steps = check_decoded(chain, rng)
        assert has_slice(steps) == (n == SLICE_MIN)
        # reversed order: every copy overwrites the source of the next, so
        # a move would change the meaning and the steps stay plain
        assert not has_slice(check_decoded(chain[::-1], rng))


def test_decoded_steps_keep_cycles_and_reads_of_overwritten_sources():
    rng = Random(2)
    chain = tuple((COPY, r, r + 1) for r in range(1, 10))
    # A nontrivial cycle in input order, as the optimizer leaves it: the
    # last copy reads r1 after the chain overwrote it, in both forms.
    cycle = chain + ((COPY, 10, 1),)
    # Copies that read r5 before and after the chain.
    before = ((COPY, 20, 5),) + chain
    after = chain + ((COPY, 20, 5),)
    # A copy that reads r5 between the copies of the chain: the move would
    # have overwritten it, so the steps stay plain.
    middle = chain[:3] + ((COPY, 20, 5),) + chain[3:]
    for ops, sliced in ((cycle, True), (before, True), (after, True), (middle, False)):
        steps = check_decoded(ops, rng)
        assert has_slice(steps) == sliced, ops
        if not sliced:
            assert list(steps) == [step for op in ops for step in _decode_ops((op,))]


@pytest.mark.parametrize("kw", [{"opt": "none"}, {"multi": "all"}])
def test_final_list_decodes_to_a_slice_move(kw):
    # Ten tags set at the end: the final list copies them from the
    # registers of the closure, SLICE_MIN or more with one offset.
    p = tdfa.compile("(a)(a)(a)(a)(a)", **kw)
    a = p.tdfa
    [(state, steps)] = MatchPlan(a).phi.items()
    assert any(type(dst) is slice for _, dst, _ in steps)
    for data in all_inputs(b"ab", 7):
        check_histories(p, data)


def bulk_states(a) -> set:
    return {s for s, form in enumerate(MatchPlan(a).bulk) if form is not None}


def check_bulk(p, data: bytes, simulated: bool):
    out = check_against_walk(p.tdfa, data)
    if simulated:
        assert (out.values if out else None) == simulate(p.tnfa, data), data
    return out


BULK_CASES = [
    # (pattern, multi): appends of p on a loop on one class
    ("(?:#a)*", "auto"),
    # sets only
    ("(?:#a)*", "none"),
    # p and n histories, two bulk states
    ("(?:(a)|b)*", "auto"),
    ("(?:#a|#b)*", "auto"),
    # one loop list on two classes
    ("(#(?:a|b))*c", "all"),
    # several bulk states, sets only with multi="none"
    ("((?:#a)*b)*", "auto"),
    ("((?:#a)*b)*", "none"),
]


@pytest.mark.parametrize("pattern, multi", BULK_CASES)
def test_bulk_loops_against_walk_and_simulation(pattern, multi):
    p = tdfa.compile(pattern, multi=multi)
    assert bulk_states(p.tdfa)
    for data in all_inputs(b"abc", 6):
        check_bulk(p, data, multi == "none")


@pytest.mark.parametrize("pattern, multi", BULK_CASES)
def test_bulk_runs_of_zero_one_two_and_1500_bytes(pattern, multi):
    p = tdfa.compile(pattern, multi=multi)
    # The loop byte of the state entered on "a" (or "b"), alone and in runs.
    for run in (0, 1, 2, 3, 1500):
        for data in (b"a" * run, b"b" + b"a" * run + b"b", b"a" * run + b"b" * run + b"c", b"ab" * run):
            check_bulk(p, data, multi == "none")


@pytest.mark.parametrize("multi", ["auto", "none"])
def test_bulk_final_state_left_then_fallback(multi):
    # State 1 loops on a and is final; "b" leaves it for a state that "x"
    # kills, so the match falls back to the end of the run through psi.
    p = tdfa.compile("(?:#a)*(?:bc)?", multi=multi)
    a = p.tdfa
    state = state_after(a, b"aa")
    assert state in bulk_states(a) and state in a.finals and state in a.psi
    for run in (1, 2, 3, 1500):
        data = b"a" * run + b"bx"
        counters = {}
        out = exec_tdfa(a, data, "prefix", counters)
        assert (out.kind, out.end) == ("prefix", run)
        assert counters["fallback"] == 1 and counters["transitions"] == run + 1
        check_against_walk(a, data)
        assert out.values == exec_tdfa(a, b"a" * run).values
        if multi == "none":
            assert out.values == simulate(p.tnfa, b"a" * run)
    counters = {}
    exec_tdfa(a, b"aabc", "prefix", counters)
    assert counters["fallback"] == 0


@pytest.mark.parametrize("multi", ["auto", "none"])
def test_golden_fixed_tags_loop_is_bulk(multi):
    p = tdfa.compile(GOLDEN, fixed_tags=True, multi=multi)
    plain = tdfa.compile(GOLDEN, multi=multi)
    assert bulk_states(p.tdfa) and bulk_states(plain.tdfa)
    sim = tdfa.compile(GOLDEN, engine="simulation")
    for data in list(all_inputs(b"ab", 7)) + [b"a" * 1500 + b"b" * 3, b"a" * 2 + b"b" * 1500, b"a" * 1500 + b"c"]:
        check_against_walk(p.tdfa, data)
        check_against_walk(plain.tdfa, data)
        for mode in ("full", "prefix"):
            assert p.match(data, mode=mode) == plain.match(data, mode=mode), (data, mode)
        if multi == "none":
            assert p.match(data) == sim.match(data), data


def test_bulk_appends_count_tree_nodes():
    p = tdfa.compile("(?:(a)|b)*", multi="auto")
    counters = {}
    out = exec_tdfa(p.tdfa, b"a" * 700 + b"b" * 800, counters=counters)
    # two multi-valued tags, one node each per byte
    assert counters["tree_nodes"] == 2 * 1500
    assert out.values[1] == list(range(700)) + [-1] * 800


MB = 1 << 20


@pytest.mark.parametrize("pattern, n_b", [("(?:#a)*", 0), (GOLDEN, MB // 2), ("(?:#a)*a{100}", 0)])
def test_bulk_match_of_1mb_peaks_under_48_bytes_per_byte(pattern, n_b):
    # A bulk run stores a run node and as many single nodes as its deepest
    # copy reads, so the peak is the translated input and the unpacked
    # lists: about 42 B per byte, where two list slots per byte of a run
    # peaked at 58.
    data = b"a" * (MB - n_b) + b"b" * n_b
    p = tdfa.compile(pattern, multi="auto")
    p.match(data[:200])  # builds the match plan
    tracemalloc.start()
    try:
        out = p.match(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kind == "match"
    assert peak <= 48 * MB


def expand_tree(tree: PrefixTree) -> tuple:
    """The tree with one entry per node: a run node (first, count) becomes
    a path of count nodes holding first, first + 1, ... (or -1 each when
    first is -1).  Returns (pred, offs, at), at[idx] being the node of the
    expanded tree that holds the last entry of node idx."""
    pred, offs, at = [0], [-1], [0]
    for q, off in zip(tree.pred[1:], tree.offs[1:]):
        node = at[q or 0]
        if type(off) is tuple:
            first, count = off
            entries = [-1] * count if first < 0 else range(first, first + count)
        else:
            entries = [off]
        for entry in entries:
            pred.append(node)
            offs.append(entry)
            node = len(pred) - 1
        at.append(node)
    return pred, offs, at


def naive_unpack(pred: list, offs: list, idx: int) -> list:
    out = []
    while idx:
        out.append(offs[idx])
        idx = pred[idx]
    return out[::-1]


def run_nodes(tree: PrefixTree) -> list:
    return [idx for idx, off in enumerate(tree.offs) if type(off) is tuple]


@pytest.fixture
def trees(monkeypatch) -> list:
    """Every PrefixTree made while the test runs, in order."""
    made = []
    init = PrefixTree.__init__

    def keep(tree):
        init(tree)
        made.append(tree)
    monkeypatch.setattr(PrefixTree, "__init__", keep)
    return made


def test_unpack_mixes_bulk_chains_and_single_nodes(trees):
    a = tdfa.compile("(?:(a)|b|c#)*", multi="all").tdfa
    rng = Random(11)
    for _ in range(40):
        data = bytes(rng.choice(b"aabc") for _ in range(rng.randint(0, 60))) + b"a" * rng.choice((0, 1, 2, 40))
        trees.clear()
        assert exec_tdfa(a, data)
        tree = trees[0]
        pred, offs, at = expand_tree(tree)
        for idx in range(len(tree.pred)):
            assert tree.unpack(idx) == naive_unpack(pred, offs, at[idx])
        check_against_walk(a, data)
    # the last input holds both kinds of node: run nodes, and single nodes
    runs = run_nodes(tree)
    assert tree.runs and runs
    assert len(runs) < len(tree.offs) - 1


def check_histories(p, data: bytes):
    """check_against_walk, and the last values of both modes against the
    simulation of the input and of the matched prefix."""
    full = check_against_walk(p.tdfa, data)
    assert ({t: _last(v) for t, v in full.values.items()} if full else None) == simulate(p.tnfa, data), data
    prefix = exec_tdfa(p.tdfa, data, "prefix")
    if prefix:
        assert {t: _last(v) for t, v in prefix.values.items()} == simulate(p.tnfa, data[:prefix.end]), data


@pytest.mark.parametrize("pattern, k", [(GOLDEN, 1), ("(?:#a)*a{1}", 1), ("(?:#a)*a{10}", 10),
                                        ("(?:#a)*a{100}", 100)])
def test_bulk_chains_read_from_the_middle(monkeypatch, pattern, k):
    # Golden's r6 <- r7 and the copy chain of (?:#a)*a{k} leave registers
    # that hold the history of an iteration inside a bulk run: k single
    # nodes follow its run node, k - 1 of them and the run node inside.
    p = tdfa.compile(pattern)
    assert bulk_states(p.tdfa)
    inside = []
    unpack = PrefixTree.unpack
    last_a = -1  # where the run of "a" that starts the input ends

    def spy(tree, idx):
        out = unpack(tree, idx)
        # back through the single nodes that continue a run node
        node = idx
        while node and type(tree.offs[node]) is not tuple and tree.pred[node] == node - 1:
            node -= 1
        if type(tree.offs[node]) is tuple and 0 <= out[-1] < last_a:
            inside.append(idx)
        return out
    monkeypatch.setattr(PrefixTree, "unpack", spy)
    for run in sorted({0, 1, 2, k - 1, k, k + 1, 1500}):
        for data in (b"a" * run, b"a" * (run + k), b"a" * (run + k) + b"b" * 3, b"a" * (run + k) + b"c"):
            last_a = len(data) - len(data.lstrip(b"a")) - 1
            check_histories(p, data)
    assert inside


def test_bulk_chains_after_leaving_and_reentering_the_loop(trees):
    # Each run of "a" appends run nodes whose history goes on from the runs
    # before it, through the nodes of the bytes between them.
    p = tdfa.compile("(?:(a)|b|c#)*", multi="all")
    for runs in ((4, 3), (40, 1, 40), (1500, 2, 1500), (3, 0, 40, 7)):
        for sep in (b"b", b"c", b"bc", b"cb"):
            data = sep.join(b"a" * run for run in runs)
            trees.clear()
            check_histories(p, data)
            tree = trees[0]
            pred, offs, at = expand_tree(tree)
            assert tree.runs
            # some single node continues the history of a run node
            runs_at = set(run_nodes(tree))
            assert any(q in runs_at for q, off in zip(tree.pred, tree.offs) if type(off) is not tuple)
            for idx in range(0, len(tree.pred), 7):
                assert tree.unpack(idx) == naive_unpack(pred, offs, at[idx])


def loop_automaton(ops, multi=None, prelude=()) -> Tdfa:
    """A final state that loops on "a" with ops, entered from the start
    state by one "b" per prelude list.  Register r is tag r, read back
    unchanged; the multi-valued ones are register 1 and the registers of
    appends unless given."""
    lists = [ops, *prelude]
    n_regs = max([2] + [r for ops_ in lists for op in ops_ for r in op[1:3] if type(r) is int])
    if multi is None:
        multi = {1} | {r for ops_ in lists for op in ops_ if op[0] == APPEND for r in op[1:3]}
    m = len(prelude)
    regs = list(range(1, n_regs + 1))
    return Tdfa.from_json(json.dumps({
        "tags": regs, "multi": sorted(multi), "alphabet": [97, 98], "r0": {r: r for r in regs},
        "rf": {r: r for r in regs}, "max_reg": n_regs, "n_states": m + 1, "s0": 0, "finals": [m],
        "fallback": [], "delta": [[i, 1, i + 1, ops_] for i, ops_ in enumerate(prelude)] + [[m, 0, m, ops]],
        "phi": [[m, []]], "psi": [],
    }))


@pytest.mark.parametrize("ops, bulk", [
    ([(APPEND, 1, 1, "p"), (SET, 2, "p")], True),
    ([(APPEND, 1, 1, "n"), (SET, 2, "n")], True),
    # a two-character history appends two nodes per byte
    ([(APPEND, 1, 1, "np"), (SET, 2, "p")], False),
    # a self-copy writes nothing
    ([(APPEND, 1, 1, "p"), (COPY, 2, 2)], True),
    # a copy cycle: r2 and r3 swap through r4
    ([(COPY, 4, 2), (COPY, 2, 3), (COPY, 3, 4)], False),
    # an append from another register
    ([(APPEND, 1, 3, "p"), (APPEND, 3, 3, "p")], False),
])
def test_bulk_loop_only_for_sets_and_one_character_self_appends(ops, bulk):
    a = loop_automaton(ops)
    assert bool(bulk_states(a)) == bulk
    for n in (0, 1, 2, 3, 1500):
        check_against_walk(a, b"a" * n)


@pytest.mark.parametrize("ops, multi, depth", [
    # a tree of copies from a set: r3 <- r2 <- p, r4 and r6 <- r3, r5 <- r4
    ([(COPY, 6, 3), (COPY, 5, 4), (COPY, 4, 3), (COPY, 3, 2), (SET, 2, "p")], {1}, 3),
    # two branches from one set: r5 <- r4 <- r3 <- r2 <- p and r8 <- r7 <- r6 <- r2
    ([(COPY, 5, 4), (COPY, 4, 3), (COPY, 3, 2), (COPY, 8, 7), (COPY, 7, 6), (COPY, 6, 2), (SET, 2, "p")],
     {1}, 3),
    ([(COPY, 3, 2), (SET, 2, "n")], {1}, 1),
    # golden's loop: r3 <- r4 <- r4.p
    ([(COPY, 3, 4), (APPEND, 4, 4, "p"), (APPEND, 5, 5, "p"), (SET, 2, "p")], {1, 3, 4, 5}, 1),
    ([(COPY, 4, 3), (COPY, 3, 1), (APPEND, 1, 1, "n")], {1, 3, 4}, 2),
    # two appending heads: the nodes of r2's chain follow those of r4's
    ([(COPY, 6, 5), (COPY, 5, 4), (APPEND, 4, 4, "n"), (COPY, 3, 2), (APPEND, 2, 2, "p")],
     {1, 2, 3, 4, 5, 6}, 2),
    # chains from registers the list does not write
    ([(COPY, 4, 3), (COPY, 3, 2), (SET, 5, "p")], {1}, 2),
    ([(COPY, 4, 3), (COPY, 3, 1)], {1, 3, 4}, 2),
    # the shift chain of (?:#a)*a{10}, decoded to a slice move
    ([(COPY, r, r + 1) for r in range(2, 12)] + [(APPEND, 12, 12, "p")], set(range(1, 13)), 10),
    # nil sets are copies from register 0: r4 <- r3 <- r2 <- n
    ([(COPY, 4, 3), (COPY, 3, 2), (SET, 2, "n")], {1}, 3),
    # a shift chain whose source run starts at register 0: r1..r9 <- r0..r8,
    # the slice move of r9 <- r8, ..., r2 <- r1 and r1 <- n
    ([(COPY, r, r - 1) for r in range(9, 1, -1)] + [(SET, 1, "n")], set(), 9),
])
def test_loop_summaries_of_copy_chains(ops, multi, depth):
    # The prelude gives every register its own value: its position.
    regs = range(1, max(op[1] for op in ops) + 1)
    prelude = [[(APPEND, r, r, "p") if r in multi else (SET, r, "p")] for r in regs]
    a = loop_automaton(ops, multi, prelude)
    assert bulk_states(a)
    # The first loop byte runs the plain steps, the bulk step the other n - 1.
    for n in (depth - 1, depth, depth + 1, depth + 2, 1500):
        check_against_walk(a, b"b" * len(prelude) + b"a" * n)


def test_nil_sets_are_copies_from_register_0():
    # r4 <- r3 <- r2 <- n: one chain from the unwritten register 0
    steps = _decode_ops(((COPY, 4, 3), (COPY, 3, 2), (SET, 2, "n")))
    assert steps == ((_COPY, 4, 3), (_COPY, 3, 2), (_COPY, 2, 0))
    assert _bulk_form(steps, 3) == (3, (), (), ((0, None, ((2, 1), (3, 2), (4, 3))),))
    # r1..r9 <- r0..r8 is one slice move, a chain nine deep from register 0
    steps = _decode_ops(tuple((COPY, r, r - 1) for r in range(9, 1, -1)) + ((SET, 1, "n"),))
    assert steps == ((_COPY, slice(1, 10), slice(0, 9)),)
    assert _bulk_form(steps, 9) == (9, (), (), ((0, None, tuple((r, r) for r in range(1, 10))),))


@pytest.mark.parametrize("ops", [[(SET, 0, "n")], [(COPY, 0, 2)], [(APPEND, 0, 1, "p")]])
def test_plan_refuses_operations_that_write_register_0(ops):
    # Register 0 holds nil, which a nil set copies: only a hand-written
    # automaton can write it, and its first match refuses it.
    a = loop_automaton(ops, multi={1})
    with pytest.raises(ValueError, match="writes register 0"):
        exec_tdfa(a, b"a")


def test_plan_refuses_a_multi_valued_tag_that_starts_in_register_0():
    a = loop_automaton([(APPEND, 1, 1, "p")])
    a.r0[1] = 0
    with pytest.raises(ValueError, match="starts in register 0"):
        exec_tdfa(a, b"a")


LONG_RUN_CONFIGS = [{}, {"multi": "all"}, {"multi": "none"}, {"opt": "none", "multi": "all"},
                    {"fixed_tags": True}]


def test_loop_summaries_against_walk_on_runs_of_one_symbol():
    """Random automata with bulk states on inputs made of runs of one
    symbol: only runs of two bytes or more reach the bulk step.  Patterns
    of golden's shape, a group under a star and then more, give copy
    chains; about half of their automata have a bulk state, a third of
    those chains."""
    rng = Random(21)
    automata = with_chains = 0
    for _ in range(150):
        pattern = "(" + gen_pattern(rng, max_nodes=5) + ")*" + gen_pattern(rng, max_nodes=5)
        for kw in LONG_RUN_CONFIGS:
            a = tdfa.compile(pattern, **kw).tdfa
            forms = [form for form in MatchPlan(a).bulk if form is not None]
            if not forms:
                continue
            automata += 1
            with_chains += any(form[3] for form in forms)
            for _ in range(8):
                data = b"".join(bytes([rng.choice(b"ab")]) * rng.randint(1, 40) for _ in range(rng.randint(1, 6)))
                check_against_walk(a, data)
    assert automata >= 300 and with_chains >= 100, (automata, with_chains)
