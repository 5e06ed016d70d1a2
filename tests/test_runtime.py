import json
from random import Random

import pytest

import tdfa
from tdfa.determinize import Tdfa, determinize
from tdfa.regops import APPEND, COPY, SET
from tdfa.runtime import MatchPlan, PrefixTree, exec_tdfa, run_ops
from tdfa.tnfa import build_tnfa, simulate
from tdfa.resyntax import parse_regex

from helpers import NaiveRegisters, all_inputs

GOLDEN = "(a)*#(?:a|#b)#b*"
CSV = "((?:a|b|c)+)(?:,((?:a|b|c)+))*"
# Every byte, metacharacters escaped.
ANY_BYTE = b"(?:" + b"|".join((b"\\" if b in b"|()*+?{}#\\" else b"") + bytes([b]) for b in range(256)) + b")"


def naive_walk(a, data: bytes, mode: str = "full"):
    """One transition of delta per byte with run_ops, no plan and no skip.

    Returns ((end, values) or None, counters)."""
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
    counters = {"transitions": pos, "operations": n_ops}
    if match_pos < 0 or (mode == "full" and match_pos != len(data)):
        return None, counters
    run_ops(a.phi[match_state] if match_pos == pos else a.psi[match_state], regs, tree, match_pos)
    values = {}
    for t in a.tags:
        r = regs[a.rf[t]]
        values[t] = [-1 if x is None else x for x in tree.unpack(r)] if t in a.multi else r
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
    return [c for c in range(a.n_classes()) if a.delta.get((state, c)) == (state, ())]


def test_tree_append_empty_history():
    tree = PrefixTree()
    assert tree.append(0, "", 5) == 0


def test_tree_append_single():
    tree = PrefixTree()
    idx = tree.append(0, "p", 3)
    assert (tree.pred[idx], tree.offs[idx]) == (0, 3)
    assert tree.unpack(idx) == [3]


def test_tree_shares_prefixes():
    tree = PrefixTree()
    parent = tree.append(0, "p", 1)
    a = tree.append(parent, "p", 2)
    b = tree.append(parent, "n", 2)
    assert tree.pred[a] == parent and tree.pred[b] == parent
    assert tree.unpack(a) == [1, 2]
    assert tree.unpack(b) == [1, None]


def test_tree_unpack_root_and_np():
    tree = PrefixTree()
    assert tree.unpack(0) == []
    idx = tree.append(0, "np", 5)
    assert tree.unpack(idx) == [None, 5]


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
    assert tree.unpack(regs[1]) == [1, None]


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
        assert counters == {"transitions": len(program), "operations": sum(map(len, program))}
        for r in scalar:
            assert values[r] == naive.vals[r]
        for r in trees:
            assert values[r] == [-1 if x is None else x for x in naive.vals[r]]


@pytest.mark.parametrize("pattern", ["(?:a|b)*(c)(?:a|b)*", "(?:a|b)*#(?:a|b)*"])
def test_skip_from_start_state(pattern):
    p = tdfa.compile(pattern, multi="none")
    a = p.tdfa
    assert len(self_loops(a, a.s0)) == 2
    for data in all_inputs(b"abc", 6):
        out = check_against_walk(a, data)
        assert (out.values if out else None) == simulate(p.tnfa, data)


@pytest.mark.parametrize("multi", ["none", "auto"])
def test_skip_in_final_state_then_fallback(multi):
    p = tdfa.compile(CSV, multi=multi)
    a = p.tdfa
    out = exec_tdfa(a, b"abca,bc,d", "prefix")
    assert (out.kind, out.end) == ("prefix", 7)
    # The field state loops on every letter; ",d" leaves it for a dead end.
    state = state_after(a, b"abca,bc")
    assert state in a.finals and state in a.psi and len(self_loops(a, state)) == 3
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
    # The start state loops on every byte but the backslash: its skip span
    # is a class set with a gap at a metacharacter.
    p = tdfa.compile(ANY_BYTE + b"*#\\\\" + ANY_BYTE + b"*", multi="none")
    a = p.tdfa
    plan = MatchPlan(a)
    assert a.n_classes() == 256 and max(plan.classes) == 255
    assert all(len(row) == 256 for row in plan.rows)
    assert len(self_loops(a, a.s0)) == 255
    rng = Random(3)
    inputs = [bytes(range(256)), bytes(range(255, -1, -1)), b"", b"\\", b"]^-\\"]
    inputs += [bytes(rng.choice(b"\x00\xff]^-\\ab") for _ in range(rng.randint(0, 12))) for _ in range(200)]
    for data in inputs:
        out = check_against_walk(a, data)
        assert (out.values if out else None) == simulate(p.tnfa, data)


def test_prefix_without_fallback_operations_raises():
    a = tdfa.compile(CSV, multi="none").tdfa
    state = state_after(a, b"abca,bc")
    doc = json.loads(a.to_json())
    doc["psi"] = [entry for entry in doc["psi"] if entry[0] != state]
    clone = Tdfa.from_json(json.dumps(doc))
    assert exec_tdfa(clone, b"abca,bc", "prefix").end == 7
    with pytest.raises(ValueError, match=f"state {state} "):
        exec_tdfa(clone, b"abca,bc,d", "prefix")
