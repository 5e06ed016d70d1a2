import importlib
from random import Random

import pytest

from helpers import all_inputs, closure_patterns, stack_epsilon_closure, state_rows

from tdfa.determinize import Determinizer, ResourceLimit, Tdfa, determinize, epsilon_closure, history
from tdfa.multipass import determinize_multipass
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


def test_tag_projections():
    # One projection per tag of h, ascending.  A single-valued tag keys its
    # fresh register by the history's last element; a multi-valued one by
    # the configuration's register too, so the memo leaves its key open.
    nfa = build_tnfa(parse_regex(GOLDEN))
    d = Determinizer(nfa, frozenset({2}))
    h = (1, 2, -1)
    assert d.project(h) == ((1, 0, (1, (SET, "n")), "pn"), (2, 1, None, "p"))
    C = [(3, (1, 2, 3, 4, 5), h, ()), (4, (9, 2, 3, 4, 5), h, (3,)), (5, (1, 7, 3, 4, 5), h, ())]
    ql, x, ops = d.transition_regops(C, {})
    assert ql == ((3, ()), (4, (3,)), (5, ()))
    assert x == ((11, 12, 3, 4, 5), (11, 12, 3, 4, 5), (11, 13, 3, 4, 5))
    assert ops == [(SET, 11, "n"), (APPEND, 12, 2, "p"), (APPEND, 13, 7, "p")]
    assert list(d.projections) == [h]


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
            want = sim_epsilon_closure([(nfa.q0, [start] * len(nfa.tags))], nfa, 0,
                                       [False] * len(nfa.tags), [-1] * nfa.n_states)
            assert [c[0] for c in got] == [q for q, _ in want], pattern
            for (_, _, _, l), (_, m) in zip(got, want):
                values = [start] * len(nfa.tags)
                for t in l:
                    values[idx[abs(t)]] = 0 if t > 0 else None
                assert values == m, pattern


def test_closure_equals_the_stack_reference(monkeypatch):
    # Every seed list either engine's construction closes gives what the
    # single-stack closure with a filtering pass gives.
    calls = []

    def checked(nfa, seeds):
        got = epsilon_closure(nfa, seeds)
        assert got == stack_epsilon_closure(nfa, seeds), seeds
        calls.append(len(seeds))
        return got

    monkeypatch.setattr(importlib.import_module("tdfa.determinize"), "epsilon_closure", checked)
    for pattern in closure_patterns():
        nfa = build_tnfa(parse_regex(pattern))
        determinize(nfa)
        determinize_multipass(nfa)
    assert len(calls) > 500 and max(calls) > 30


def test_closure_seed_already_reached_or_repeated():
    nfa = build_tnfa(parse_regex(GOLDEN))
    # q: an eps-free state that the walk from q0 reaches after another.
    q = stack_epsilon_closure(nfa, [(nfa.q0, "x", ())])[1][0]
    assert not nfa.eps[q] and nfa.eps[nfa.q0]
    cases = [
        [(nfa.q0, "x", ()), (q, "y", (5,))],  # q was reached by the first walk
        [(q, "x", ()), (q, "y", ())],  # a repeated eps-free seed
        [(q, "x", ()), (nfa.q0, "y", ()), (nfa.q0, "z", ())],
    ]
    for seeds in cases:
        got = epsilon_closure(nfa, seeds)
        assert got == stack_epsilon_closure(nfa, seeds)
        states = [c[0] for c in got]
        assert len(states) == len(set(states)) and states.count(q) == 1
    assert epsilon_closure(nfa, cases[1]) == [(q, "x", (), ())]


def test_step_on_symbol_order_and_h_inheritance():
    nfa = build_tnfa(parse_regex(GOLDEN))
    d = Determinizer(nfa)
    C = epsilon_closure(nfa, [(nfa.q0, d.payload0, ())])
    d.add_state(C)
    # One bucket per class, seeds in row order; a row's lookahead becomes
    # the inherited tags of its seed.
    a, b = d.seeds(d.states[0])
    assert nfa.alphabet == ((ord("a"),), (ord("b"),))
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
            for q, regs, l in state_rows(state):
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
        has_qf = any(q == nfa.qf for q, _, _ in state_rows(state))
        assert (sid in d.tdfa.finals) == has_qf


def test_state_cap_raises():
    nfa = build_tnfa(parse_regex(GOLDEN))
    with pytest.raises(ResourceLimit):
        determinize(nfa, max_states=2)


def test_json_roundtrip_executes_identically():
    # In the second pattern the class of a, b and c reloads as three.
    cases = [(GOLDEN, frozenset({1, 2}), b"ab"), ("((?:a|b|c)+)(?:,((?:a|b|c)+))*", frozenset({3}), b"ab,c")]
    for pattern, multi, alphabet in cases:
        tdfa = determinize(build_tnfa(parse_regex(pattern)), multi)
        clone = Tdfa.from_json(tdfa.to_json())
        assert clone.op_count() == tdfa.op_count() and clone.to_json() == tdfa.to_json()
        for data in all_inputs(alphabet, 5):
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
