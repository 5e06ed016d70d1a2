import copy
from random import Random

import tdfa as tdfa_lib
from tdfa.determinize import determinize
from tdfa.fuzz import gen_pattern
from tdfa.optimizer import (
    add_fallback_regops,
    arc_table,
    build_cfg,
    compaction,
    dead_code_elimination,
    find_fallback_states,
    flush_cfg,
    interference_analysis,
    interferes,
    liveness_analysis,
    minimize,
    non_accepting_arcs,
    normalization,
    optimize,
    register_allocation,
    renaming,
)
from tdfa.regops import APPEND, COPY, SET, topological_sort
from tdfa.runtime import exec_tdfa
from tdfa.tnfa import build_tnfa, simulate
from tdfa.resyntax import parse_regex

from helpers import all_inputs, first_fit_allocation, round_robin_liveness, round_topological_sort

GOLDEN = "(a)*#(?:a|#b)#b*"


def golden_tdfa():
    return determinize(build_tnfa(parse_regex(GOLDEN)))


def build(pattern, multi=frozenset()):
    return determinize(build_tnfa(parse_regex(pattern)), multi)


def regs(mask: int) -> set[int]:
    """Decode a register bitset."""
    return {r for r in range(mask.bit_length()) if mask >> r & 1}


# -- fallback ---------------------------------------------------------------


def clobbered(tdfa, s) -> set[int]:
    """The registers written on the non-accepting continuations of s."""
    return {op[1] for key in non_accepting_arcs(arc_table(tdfa), tdfa.finals, s) for op in tdfa.delta[key][1]}


def test_golden_has_no_fallback_states():
    assert find_fallback_states(golden_tdfa()) == set()


def test_fallback_state_after_optional_suffix():
    tdfa = build("#a(?:bc)?")
    fallback = find_fallback_states(tdfa)
    # exactly the final state reached after 'a', which continues into 'bc'
    assert len(fallback) == 1
    (s,) = fallback
    assert s in tdfa.finals
    assert clobbered(tdfa, s) == set()  # no ops on the b/c continuation here


def test_total_all_final_automaton_has_no_fallback():
    tdfa = build("(?:a|b)*")
    assert tdfa.finals == set(range(tdfa.n_states))
    assert find_fallback_states(tdfa) == set()


def test_fallback_regops_empty_when_no_fallback():
    tdfa = golden_tdfa()
    psi = add_fallback_regops(tdfa)
    assert psi == {}


def test_fallback_backup_copy_injected():
    # (aab)+ : re-entering the loop from the final state overwrites the
    # register holding the previous iteration's open tag, so the final
    # copy's source is clobbered and must be backed up on the way out.
    tdfa = build("(aab)+")
    raw_phi = dict(tdfa.phi)
    (s,) = find_fallback_states(tdfa)
    sources = {op[2] for op in raw_phi[s] if op[0] == COPY}
    assert sources & clobbered(tdfa, s)
    add_fallback_regops(tdfa)
    for cls in range(len(tdfa.alphabet)):
        cell = tdfa.delta.get((s, cls))
        if cell and cell[0] not in tdfa.finals:
            # prepended, so it reads the pre-transition value
            assert cell[1][0][0] == COPY
            assert cell[1][0][1] in tdfa.rf.values()
    # the backed-up copy disappears from the fallback list
    assert len(tdfa.psi[s]) < len(raw_phi[s])


def test_fallback_prefix_match_equals_truncated_full_match():
    tdfa = build("(aab)+")
    add_fallback_regops(tdfa)
    nfa = build_tnfa(parse_regex("(aab)+"))
    for data in (b"aaba", b"aabaa", b"aabaaba"):
        out = exec_tdfa(tdfa, data, mode="prefix")
        end = out.end
        want = simulate(nfa, data[:end])
        assert out.kind == "prefix" and out.values == want, data


def test_fallback_append_kept_with_self_source():
    tdfa = build("(aab)+", multi=frozenset({1, 2}))
    add_fallback_regops(tdfa)
    assert tdfa.psi
    saw_append = False
    for s in tdfa.psi:
        for op in tdfa.psi[s]:
            if op[0] == APPEND:
                saw_append = True
                assert op[1] == op[2]
    nfa = build_tnfa(parse_regex("(aab)+"))
    out = exec_tdfa(tdfa, b"aabaa", mode="prefix")
    assert out.end == 3
    want = simulate(nfa, b"aab")
    assert [v[-1] for v in out.values.values()] == [want[1], want[2]]


# -- CFG --------------------------------------------------------------------


def test_golden_cfg_nine_blocks():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    kinds = [b.kind for b in cfg.blocks]
    assert len(cfg.blocks) == 9
    assert kinds == ["basic"] * 6 + ["final"] * 3


def test_tag_free_cfg_single_start_block():
    tdfa = build("a(?:b|c)*")
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    assert len(cfg.blocks) == 1
    assert cfg.blocks[0].ops == []


def test_fallback_arcs_cover_non_accepting_paths():
    tdfa = build("#a(?:b#c)?")
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    fb = [i for i, b in enumerate(cfg.blocks) if b.kind == "fallback"]
    assert fb
    for i in fb:
        # recompute reachability: every successor block sits on a path
        # from the fallback state through non-final states only
        s = cfg.blocks[i].loc
        reach = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for cls in range(len(tdfa.alphabet)):
                cell = tdfa.delta.get((u, cls))
                if cell and cell[0] not in tdfa.finals and cell[0] not in reach:
                    reach.add(cell[0])
                    stack.append(cell[0])
        for b in cfg.blocks[i].succ:
            src_state, _ = cfg.blocks[b].loc
            assert src_state in reach


def test_golden_cfg_arcs():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    succ = {i: set(b.succ) for i, b in enumerate(cfg.blocks)}
    # start -> the two transitions out of state 0
    assert succ[0] == {1, 2}
    # block of 2-b->3 reaches only the final block of state 3 (the 3-b->3
    # self transition has no operations)
    assert succ[5] == {8}


# -- passes -----------------------------------------------------------------


def test_compaction_golden_20_to_11():
    tdfa = golden_tdfa()
    assert tdfa.max_reg == 20
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    V = compaction(cfg)
    assert len(V) == 11
    assert sorted(V) == [6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20]
    assert sorted(V.values()) == list(range(1, 12))


def test_compaction_identity_when_contiguous():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    renaming(cfg, compaction(cfg))
    V = compaction(cfg)
    assert all(k == v for k, v in V.items())


def test_compaction_drops_unused():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    V = compaction(cfg)
    for r in (1, 2, 3, 4, 5, 16, 17, 18, 19):
        assert r not in V


def test_liveness_golden_rows():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    renaming(cfg, compaction(cfg))
    L = liveness_analysis(cfg)
    by_loc = {b.loc: i for i, b in enumerate(cfg.blocks)}
    a, b = tdfa.byte_to_class[ord("a")], tdfa.byte_to_class[ord("b")]
    # compacted names: r6..r15,r20 -> r1..r11
    assert regs(L[by_loc[(0, a)]]) == {6, 7, 8, 9}
    assert regs(L[by_loc[(0, b)]]) == {7, 8, 9, 10}
    assert regs(L[by_loc[(2, b)]]) == {7, 8, 9, 10, 11}
    for i, blk in enumerate(cfg.blocks):
        if blk.kind == "final":
            assert regs(L[i]) == {1, 2, 3, 4, 5}
    assert regs(L[0]) == set()


def test_liveness_write_before_use_not_live_in():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    renaming(cfg, compaction(cfg))
    L = liveness_analysis(cfg)
    # start block's row is the union of live-in of its successors, where
    # every register is written before use: nothing is live
    assert regs(L[0]) == set()


def test_dce_removes_dead_write():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    renaming(cfg, compaction(cfg))
    cfg.blocks[1].ops.append((SET, 11, "p"))  # r11 not live after block 1
    L = liveness_analysis(cfg)
    dead_code_elimination(cfg, L)
    assert (SET, 11, "p") not in cfg.blocks[1].ops


def test_dce_idempotent_at_fixpoint():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    renaming(cfg, compaction(cfg))
    L = liveness_analysis(cfg)
    dead_code_elimination(cfg, L)
    before = [list(b.ops) for b in cfg.blocks]
    dead_code_elimination(cfg, liveness_analysis(cfg))
    assert [list(b.ops) for b in cfg.blocks] == before


def _golden_interference():
    tdfa = golden_tdfa()
    add_fallback_regops(tdfa)
    cfg = build_cfg(tdfa)
    renaming(cfg, compaction(cfg))
    L = liveness_analysis(cfg)
    dead_code_elimination(cfg, L)
    return cfg, interference_analysis(cfg, L)


def test_interference_symmetric_no_diagonal():
    cfg, I = _golden_interference()
    for a in range(1, cfg.tdfa.max_reg + 1):
        assert a not in regs(I[a])
        assert not interferes(I, a, a)
        for b in range(1, cfg.tdfa.max_reg + 1):
            assert interferes(I, a, b) == interferes(I, b, a)


def test_interference_same_value_pairs_do_not_interfere():
    cfg, I = _golden_interference()
    # r6 (t1 <- p) and r9 (t3 <- p) are written in the same blocks with the
    # same value: coalescing them is what shrinks the example to 5 registers.
    assert not interferes(I, 6, 9)
    # r6/r7 hold different values in block 1: they interfere
    assert interferes(I, 6, 7)


def test_allocation_golden_11_to_5():
    cfg, I = _golden_interference()
    V = register_allocation(cfg, I)
    assert len(set(V.values())) == 5
    assert V[6] == V[9]  # the collapsed set pair
    # final registers stay distinct
    finals = [V[r] for r in (1, 2, 3, 4, 5)]
    assert len(set(finals)) == 5


def test_renaming_collapses_duplicate_sets():
    cfg, I = _golden_interference()
    V = register_allocation(cfg, I)
    renaming(cfg, V)
    normalization(cfg)
    blk = cfg.blocks[1].ops  # 0 -a-> 1
    assert len(blk) == len(set(blk))
    assert len(blk) == 3


def test_normalization_sorts_set_ranges_and_dedups():
    class B:
        pass

    blk = B()
    blk.ops = [(SET, 2, "n"), (SET, 1, "p"), (SET, 1, "p")]
    blk.kind = "basic"

    class C:
        blocks = [blk]

    normalization(C)
    assert blk.ops == [(SET, 1, "p"), (SET, 2, "n")]


def test_normalization_orders_copy_chain_safely():
    class B:
        pass

    blk = B()
    blk.ops = [(COPY, 2, 3), (COPY, 1, 2)]

    class C:
        blocks = [blk]

    normalization(C)
    # old value of 2 must be read before 2 is overwritten
    assert blk.ops == [(COPY, 1, 2), (COPY, 2, 3)]


def test_topological_sort_expected_order():
    ops, ok = topological_sort([(COPY, 1, 2), (COPY, 2, 3)])
    assert ok and ops == [(COPY, 1, 2), (COPY, 2, 3)]
    # simulate a register file to pin the meaning
    regs = {1: "a", 2: "b", 3: "c"}
    for _, d, s in ops:
        regs[d] = regs[s]
    assert regs == {1: "b", 2: "c", 3: "c"}


def test_topological_sort_tolerates_self_append():
    ops, ok = topological_sort([(APPEND, 1, 1, "p")])
    assert ok and ops == [(APPEND, 1, 1, "p")]


def test_topological_sort_rejects_swap():
    _, ok = topological_sort([(COPY, 1, 2), (COPY, 2, 1)])
    assert not ok


def random_ops(rng: Random, n: int, n_regs: int) -> list:
    """Operations over few registers, so that self appends, sets read by
    copies, repeated destinations and copy cycles all come up."""
    ops = []
    for _ in range(n):
        dest, src = rng.randint(1, n_regs), rng.randint(1, n_regs)
        kind = rng.choice((SET, COPY, APPEND))
        if kind == SET:
            ops.append((SET, dest, rng.choice("np")))
        elif kind == COPY:
            ops.append((COPY, dest, src))
        else:
            ops.append((APPEND, dest, rng.choice((dest, src)), rng.choice(("p", "n", "pn"))))
    return ops


def test_topological_sort_matches_the_round_by_round_sort():
    rng = Random(7)
    cyclic = 0
    for _ in range(20_000):
        ops = random_ops(rng, rng.randint(0, 10), rng.randint(1, 8))
        got = topological_sort(ops)
        assert got == round_topological_sort(ops), ops
        cyclic += not got[1]
    assert 2_000 < cyclic < 18_000  # both outcomes are well covered


def test_topological_sort_orders_long_chains_in_one_pass():
    # A chain written in the wrong order takes one round per link in the
    # round-by-round sort; the linear sort orders 1,000 links at once.
    chain = [(COPY, i, i + 1) for i in range(1000, 0, -1)]
    ops, ok = topological_sort(chain)
    assert ok and ops == chain[::-1]
    ops, ok = topological_sort(chain + [(COPY, 1001, 1)])  # closes a cycle
    assert not ok and ops == chain + [(COPY, 1001, 1)]


# -- reference passes ---------------------------------------------------------


_rng = Random(2024)
REFERENCE_PATTERNS = (
    [GOLDEN]
    + [gen_pattern(_rng) for _ in range(50)]
    + [f"(?:#a)*a{{{k}}}" for k in (1, 2, 7, 40)]
    + [f"(a|b)*(?:#a){{{k}}}" for k in (1, 3, 12)]
)


def check_round(cfg):
    """Liveness and allocation of one round equal the references."""
    L = liveness_analysis(cfg)
    assert [regs(m) for m in L] == round_robin_liveness(cfg)
    # Dead-code elimination replaces each block's operation list; the
    # pipeline's own blocks keep theirs.
    cfg = copy.copy(cfg)
    cfg.blocks = [copy.copy(b) for b in cfg.blocks]
    dead_code_elimination(cfg, L)
    I = interference_analysis(cfg, L)
    assert register_allocation(cfg, I) == first_fit_allocation(cfg, I)


def test_liveness_and_allocation_equal_the_reference_passes():
    checked = []

    def stage(name, value, L=None, I=None):
        # The CFGs entering round 1 and round 2.
        if name in ("compaction", "round1"):
            check_round(value)
            checked.append(name)

    for pattern in REFERENCE_PATTERNS:
        for multi in ("auto", "all"):
            tdfa_lib.compile(pattern, multi=multi, _stage=stage)
    assert len(checked) == 2 * 2 * len(REFERENCE_PATTERNS)


# -- full pipeline ------------------------------------------------------------


def test_pipeline_golden_counts():
    tdfa = golden_tdfa()
    optimize(tdfa)
    assert tdfa.register_count() == 5
    assert sorted(set(tdfa.rf.values())) == [1, 2, 3, 4, 5]
    assert tdfa.n_states == 4


def test_pipeline_monotone_improvement():
    rng = Random(9)
    for _ in range(30):
        pattern = gen_pattern(rng, max_nodes=9, max_tags=5)
        raw = build(pattern)
        regs0, ops0 = raw.register_count(), raw.op_count()
        optimize(raw)
        assert raw.register_count() <= regs0
        assert raw.op_count() <= ops0


def test_pipeline_preserves_semantics():
    rng = Random(13)
    for _ in range(25):
        pattern = gen_pattern(rng, max_nodes=9, max_tags=5)
        nfa = build_tnfa(parse_regex(pattern))
        opt = determinize(nfa)
        optimize(opt)
        for data in all_inputs(b"ab", 5):
            want = simulate(nfa, data)
            got = exec_tdfa(opt, data)
            if want is None:
                assert not got, (pattern, data)
            else:
                assert got.values == want, (pattern, data)


def test_pipeline_idempotent_at_fixpoint():
    tdfa = golden_tdfa()
    optimize(tdfa)
    snapshot = tdfa.to_json()
    # one more full round of every pass changes nothing
    cfg = build_cfg(tdfa)
    renaming(cfg, compaction(cfg))
    L = liveness_analysis(cfg)
    dead_code_elimination(cfg, L)
    I = interference_analysis(cfg, L)
    V = register_allocation(cfg, I)
    renaming(cfg, V)
    normalization(cfg)
    flush_cfg(cfg)
    assert tdfa.to_json() == snapshot


# -- minimization --------------------------------------------------------------


def test_minimize_tag_free_classic():
    # ab*|bb* : the two branch states have identical b* suffix behavior
    tdfa = build("ab*|bb*")
    m = minimize(tdfa)
    assert m.n_states == 2 < tdfa.n_states
    for data in all_inputs(b"ab", 5):
        assert bool(exec_tdfa(m, data)) == bool(exec_tdfa(tdfa, data))


def test_minimize_never_grows_and_idempotent():
    rng = Random(21)
    for _ in range(25):
        pattern = gen_pattern(rng, max_nodes=9, max_tags=4)
        tdfa = build(pattern)
        optimize(tdfa)
        m = minimize(tdfa)
        assert m.n_states <= tdfa.n_states
        assert minimize(m).n_states == m.n_states


def test_minimize_distinct_final_ops_not_merged():
    tdfa = golden_tdfa()
    optimize(tdfa)
    m = minimize(tdfa)
    assert m.n_states == 4  # phi lists of states 1..3 differ


def test_minimize_preserves_semantics():
    rng = Random(4)
    for _ in range(20):
        pattern = gen_pattern(rng, max_nodes=9, max_tags=4)
        nfa = build_tnfa(parse_regex(pattern))
        tdfa = determinize(nfa)
        optimize(tdfa)
        m = minimize(tdfa)
        for data in all_inputs(b"ab", 5):
            want = simulate(nfa, data)
            got = exec_tdfa(m, data)
            if want is None:
                assert not got
            else:
                assert got.values == want, (pattern, data)
