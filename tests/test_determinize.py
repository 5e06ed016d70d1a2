from random import Random

import pytest

from helpers import all_inputs

from tdfa.determinize import Determinizer, ResourceLimit, Tdfa, determinize, epsilon_closure, history, regop_rhs
from tdfa.regops import APPEND, COPY, SET
from tdfa.runtime import exec_tdfa
from tdfa.tnfa import build_tnfa, sim_epsilon_closure, simulate
from tdfa.resyntax import parse_regex

GOLDEN = "(a)*#(?:a|#b)#b*"


def golden_tdfa(multi=frozenset()):
    return determinize(build_tnfa(parse_regex(GOLDEN)), multi)


def cls_of(tdfa, ch):
    return tdfa.byte_to_class[ord(ch)]


def test_history_projection():
    assert history((), 1) == ""
    assert history((1, 2, -1), 1) == "pn"
    assert history((-1, -2, 3), 3) == "p"
    assert history((2, -2, 2), 2) == "pnp"


def test_regop_rhs():
    regs = [7, 8]
    assert regop_rhs(regs, "np", 0, multi=False) == (SET, "p")
    assert regop_rhs(regs, "n", 0, multi=False) == (SET, "n")
    assert regop_rhs(regs, "p", 1, multi=True) == (APPEND, 8, "p")


def test_golden_states_and_finals():
    tdfa = golden_tdfa()
    assert tdfa.n_states == 4
    assert tdfa.finals == {1, 2, 3}
    assert tdfa.max_reg == 20
    assert tdfa.r0 == {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
    assert tdfa.rf == {1: 6, 2: 7, 3: 8, 4: 9, 5: 10}


def test_golden_transitions():
    tdfa = golden_tdfa()
    a, b = cls_of(tdfa, "a"), cls_of(tdfa, "b")
    assert tdfa.delta[(0, a)] == (1, ((SET, 11, "p"), (SET, 12, "n"), (SET, 13, "n"), (SET, 14, "p")))
    # same source state reuses registers for identical right-hand sides
    assert tdfa.delta[(0, b)] == (2, ((SET, 12, "n"), (SET, 13, "n"), (SET, 14, "p"), (SET, 15, "p")))
    # the backward transition maps onto state 1 with one real copy
    target, ops = tdfa.delta[(1, a)]
    assert target == 1
    assert (COPY, 12, 11) in ops
    assert ops.index((COPY, 12, 11)) < ops.index((SET, 11, "p"))
    assert tdfa.delta[(2, b)] == (3, ((SET, 20, "p"),))
    assert tdfa.delta[(3, b)] == (3, ())


def test_golden_final_quasi_transitions():
    tdfa = golden_tdfa()
    assert tdfa.phi[1] == ((COPY, 6, 12), (COPY, 7, 13), (COPY, 8, 14), (SET, 9, "n"), (SET, 10, "p"))
    assert tdfa.phi[2] == ((COPY, 6, 12), (COPY, 7, 13), (COPY, 8, 14), (COPY, 9, 15), (SET, 10, "p"))
    assert tdfa.phi[3] == ((COPY, 6, 12), (COPY, 7, 13), (COPY, 8, 14), (COPY, 9, 15), (COPY, 10, 20))


def test_initial_closure_rows():
    nfa = build_tnfa(parse_regex(GOLDEN))
    d = Determinizer(nfa)
    r0 = [d.tdfa.r0[t] for t in nfa.tags]
    C = epsilon_closure(nfa, [(nfa.q0, r0, ())])
    assert [(c[0], c[3]) for c in C] == [(2, (1,)), (9, (-1, -2, 3)), (12, (-1, -2, 3, 4))]


def test_closure_without_eps_is_identity():
    nfa = build_tnfa(parse_regex("a"))
    d = Determinizer(nfa)
    C = epsilon_closure(nfa, [(nfa.q0, [], ())])
    assert [(c[0], c[3]) for c in C] == [(nfa.q0, ())]


def test_closure_eps_loop_terminates():
    nfa = build_tnfa(parse_regex("(?:#)*"))
    d = Determinizer(nfa)
    C = epsilon_closure(nfa, [(nfa.q0, [1], ())])
    states = [c[0] for c in C]
    assert len(states) == len(set(states))


def test_shared_closure_agrees_with_simulation_closure():
    # The simulation's closure is kept apart as the reference: the shared
    # one must visit the same states, and each lookahead applied at offset
    # 0 must give the values the simulation computed.  Starting from -1 as
    # well as from nil also checks the negative tags.
    from tdfa.fuzz import gen_pattern

    rng = Random(2024)
    for pattern in [GOLDEN] + [gen_pattern(rng) for _ in range(50)]:
        nfa = build_tnfa(parse_regex(pattern))
        idx = nfa.tag_index()
        got = epsilon_closure(nfa, [(nfa.q0, None, ())])
        for start in (None, -1):
            want = sim_epsilon_closure([(nfa.q0, [start] * len(nfa.tags))], nfa, 0, idx)
            assert [c[0] for c in got] == [q for q, _ in want], pattern
            for (_, _, _, l), (_, m) in zip(got, want):
                values = [start] * len(nfa.tags)
                for t in l:
                    values[idx[abs(t)]] = 0 if t > 0 else None
                assert values == m, pattern


def test_step_on_symbol_order_and_h_inheritance():
    nfa = build_tnfa(parse_regex(GOLDEN))
    d = Determinizer(nfa)
    r0 = [d.tdfa.r0[t] for t in nfa.tags]
    C = epsilon_closure(nfa, [(nfa.q0, r0, ())])
    d.add_state(C, [])
    # One bucket per class, seeds in row order; a row's lookahead becomes
    # the inherited tags of its seed.
    a, b = d.seeds(d.states[0])
    assert nfa.alphabet == (ord("a"), ord("b"))
    assert [(q, h) for q, _, h in a] == [(3, (1,)), (10, (-1, -2, 3))]
    assert [(q, h) for q, _, h in b] == [(13, (-1, -2, 3, 4))]


def test_tag_free_regex_is_classic_dfa():
    tdfa = determinize(build_tnfa(parse_regex("a(?:b|c)*")))
    assert all(ops == () for _, ops in tdfa.delta.values())
    assert all(ops == () for ops in tdfa.phi.values())
    assert tdfa.max_reg == 0


def test_no_register_shared_between_tags():
    # Registers in state rows always belong to the same tag position.
    rng = Random(5)
    from tdfa.fuzz import gen_pattern

    for _ in range(40):
        pattern = gen_pattern(rng, max_nodes=8, max_tags=4)
        nfa = build_tnfa(parse_regex(pattern))
        d = Determinizer(nfa)
        d.run()
        owner = {}
        for state in d.states:
            for q, regs, l in state.rows:
                for pos, r in enumerate(regs):
                    assert owner.setdefault(r, pos) == pos, pattern


def test_map_states_rejects_different_precedence():
    nfa = build_tnfa(parse_regex(GOLDEN))
    d = Determinizer(nfa)
    d.run()
    state = d.states[1]
    # Columns: the (q, lookahead) pairs and the register vectors, by row.
    ql, regs = state.ql, state.x
    assert len(ql) >= 2
    reordered = (ql[1], ql[0]) + ql[2:], (regs[1], regs[0]) + regs[2:]
    assert d.map_states(*reordered, state, []) is None
    # identity-shaped candidate maps with no operations needed
    assert d.map_states(ql, regs, state, []) == []


def test_determinization_deterministic():
    nfa = build_tnfa(parse_regex(GOLDEN))
    a = determinize(nfa)
    b = determinize(nfa)
    assert a.to_json() == b.to_json()


def test_finality_matches_qf_membership():
    nfa = build_tnfa(parse_regex(GOLDEN))
    d = Determinizer(nfa)
    d.run()
    for sid, state in enumerate(d.states):
        has_qf = any(q == nfa.qf for q, _, _ in state.rows)
        assert (sid in d.tdfa.finals) == has_qf


def test_state_cap_raises():
    nfa = build_tnfa(parse_regex(GOLDEN))
    with pytest.raises(ResourceLimit):
        determinize(nfa, max_states=2)


def test_json_roundtrip_executes_identically():
    tdfa = golden_tdfa(multi=frozenset({1, 2}))
    clone = Tdfa.from_json(tdfa.to_json())
    for data in all_inputs(b"ab", 5):
        got, want = exec_tdfa(clone, data), exec_tdfa(tdfa, data)
        assert got.kind == want.kind and got.values == want.values


def test_oracle_equivalence_small_corpus():
    rng = Random(3)
    from tdfa.fuzz import gen_pattern

    for _ in range(60):
        pattern = gen_pattern(rng, max_nodes=9, max_tags=5)
        nfa = build_tnfa(parse_regex(pattern))
        tdfa = determinize(nfa)
        for data in all_inputs(b"ab", 5):
            want = simulate(nfa, data)
            got = exec_tdfa(tdfa, data)
            if want is None:
                assert not got, (pattern, data)
            else:
                assert got.values == want, (pattern, data)
