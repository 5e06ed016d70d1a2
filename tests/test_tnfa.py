import ast
import hashlib
import re
import time
from itertools import chain
from pathlib import Path
from random import Random

import pytest

from helpers import ESCAPED, all_asts, all_inputs, brute_force_match, closure_patterns, gen_set_pattern, number_tags

import tdfa
from tdfa import tnfa as tnfa_module
from tdfa.fuzz import cross_check
from tdfa.resyntax import Sym, Tag, parse_regex
from tdfa.tnfa import (
    build_tnfa,
    byte_classes,
    dot_class,
    sim_epsilon_closure,
    simulate,
    tnfa_to_dot,
)

A, B = ord("a"), ord("b")
GOLDEN = "(a)*#(?:a|#b)#b*"


def golden_nfa():
    return build_tnfa(parse_regex(GOLDEN))


def test_build_symbol():
    nfa = build_tnfa(Sym(A))
    assert nfa.n_states == 2
    assert nfa.alphabet == ((A,),) and nfa.arcs[nfa.q0] == ((0,), nfa.qf)
    assert nfa.byte_to_class == bytes(0 if byte == A else 1 for byte in range(256))
    assert not nfa.eps[nfa.q0]


def test_build_tag():
    nfa = build_tnfa(Tag(1))
    assert nfa.n_states == 2
    assert nfa.eps[nfa.q0] == ((1, nfa.qf),)


def bypass_chain(nfa, q):
    """Follow a bypass chain from q: the tags it emits and where it ends."""
    tags = []
    while len(nfa.eps[q]) == 1 and nfa.eps[q][0][0] < 0 and nfa.arcs[q] is None:
        (tag, q), = nfa.eps[q]
        tags.append(tag)
    return tags, q


def test_bypass_chain_negates_tags_in_ascending_order():
    nfa = build_tnfa(parse_regex("(?:#b#)?"))
    _, (_, bypass) = nfa.eps[nfa.q0]
    assert bypass_chain(nfa, bypass) == ([-1, -2], nfa.qf)
    # each branch of an alternative ends in the chain of the other's tags
    nfa = build_tnfa(parse_regex("#a#|b#"))
    (_, left), (_, right) = nfa.eps[nfa.q0]
    tags, b_start = bypass_chain(nfa, right)
    assert tags == [-1, -2] and nfa.arcs[b_start] == ((1,), b_start + 1)  # class 1: b
    (_, after_a), = nfa.eps[left]
    (cls,), p = nfa.arcs[after_a]
    assert nfa.alphabet[cls] == (A,)
    (_, second), = nfa.eps[p]
    assert bypass_chain(nfa, second) == ([-3], nfa.qf)


def test_empty_bypass_chain_adds_no_state():
    nfa = build_tnfa(parse_regex("a?"))
    assert nfa.n_states == 3 and nfa.eps[nfa.q0][1] == (0, nfa.qf)
    nfa = build_tnfa(parse_regex("(?:a|bb)"))
    assert nfa.n_states == 5
    assert nfa.alphabet == ((A,), (B,))
    (_, left), (_, right) = nfa.eps[nfa.q0]
    assert nfa.arcs[left] == ((0,), nfa.qf) and nfa.arcs[nfa.arcs[right][1]] == ((1,), nfa.qf)


def test_symbol_set_is_one_state():
    # an untagged alternation of single bytes, however wide, is one state
    # when its bytes are one class
    for pattern, members in (("(?:a|b|c)", b"abc"), ("|".join(["a"] * 2000), b"a")):
        nfa = build_tnfa(parse_regex(pattern))
        assert nfa.n_states == 2 and nfa.alphabet == (tuple(members),)
        assert nfa.arcs[nfa.q0] == ((0,), nfa.qf)
    # overlapping sets split into the coarsest classes, ordered by smallest
    # byte, and each set is one state whose arc reads the classes it
    # covers, ascending
    nfa = build_tnfa(parse_regex("(?:b|d|f)+x(?:e|f|g)+"))
    assert nfa.alphabet == (tuple(b"bd"), tuple(b"eg"), tuple(b"f"), tuple(b"x"))
    assert [arc[0] for arc in nfa.arcs if arc is not None] == [(0, 2), (3,), (1, 2)]
    assert nfa.n_states == 6  # a fork chain per set took 10


@pytest.mark.parametrize("j", [16, 32, 64])
def test_wide_set_is_one_arc_state(j):
    # (S*)#(?:s1...sj)?, S the alternation of the j bytes, which the literal
    # splits into j classes: S is one state whose arc reads the j classes,
    # ascending, and the TNFA has j + 8 states, where a fork chain per set
    # took 3j + 6
    members = [bytes([b]) for b in range(128, 128 + j)]
    nfa = build_tnfa(parse_regex(b"((?:" + b"|".join(members) + b")*)#(?:" + b"".join(members) + b")?"))
    assert nfa.alphabet == tuple((b,) for b in range(128, 128 + j)) and nfa.n_states == j + 8
    assert [arc[0] for arc in nfa.arcs if arc] == [tuple(range(j))] + [(c,) for c in range(j)]


def test_symbol_sets_exclude_tags_longer_branches_and_empty_ones():
    # a tagged branch, a two-byte branch or an empty one: every symbol keeps
    # a state of its own, and each byte is a class of its own
    for pattern, n_states, n_arcs in (("(a)|b", 8, 2), ("(?:a|bc)", 5, 3), ("(?:a|)", 3, 1)):
        nfa = build_tnfa(parse_regex(pattern))
        assert nfa.n_states == n_states and sum(arc is not None for arc in nfa.arcs) == n_arcs
        assert all(len(members) == 1 for members in nfa.alphabet)


def test_alphabet_is_the_bytes_of_the_arcs_built():
    # a zero-repetition body builds no arc, so its bytes are in no class
    for pattern in ("ea{0,0}", "(?:e|a){0}e", "e(?:a|b|e){0,0}"):
        nfa = build_tnfa(parse_regex(pattern))
        assert nfa.alphabet == ((ord("e"),),), pattern
        assert nfa.byte_to_class[ord("a")] == len(nfa.alphabet)


def test_every_byte_its_own_set_is_the_identity_table():
    # 256 classes leave no byte dead, so the table needs no class 256.
    assert byte_classes([(byte,) for byte in range(256)]) == (tuple((b,) for b in range(256)), bytes(range(256)))


def test_one_tag_bypass_chain_is_one_transition():
    nfa = build_tnfa(parse_regex("(?:#a)?"))
    _, (_, bypass) = nfa.eps[nfa.q0]
    assert nfa.eps[bypass] == ((-1, nfa.qf),) and nfa.arcs[bypass] is None
    assert nfa.n_states == 5


def test_build_golden_structure():
    nfa = golden_nfa()
    assert nfa.n_states == 18 and nfa.q0 == 0 and nfa.qf == 17
    # zero-repetition bypass emits -t1 -t2 along 0 -> 5 -> 6 -> 7
    assert nfa.eps[0][1] == (0, 5)
    assert nfa.eps[5] == ((-1, 6),)
    assert nfa.eps[6] == ((-2, 7),)
    # the left alternative branch emits -t4 along 8 -> 9 -> 10 -> 13
    assert nfa.eps[8][0] == (0, 9)
    assert nfa.alphabet == ((A,), (B,)) and nfa.arcs[9] == ((0,), 10)
    assert nfa.eps[10] == ((-4, 13),)
    # final state has no outgoing transitions
    assert not nfa.eps[17] and nfa.arcs[17] is None


def test_eps_free_exactly_at_arcs_and_qf():
    # Both closures keep a configuration where they meet an eps-free state
    # (the simulation's reads it from its table), and the shared one closes
    # an eps-free seed to itself with no walk.
    for pattern in closure_patterns() + ["", "#", "()", "(?:)*", "a{0}"]:
        nfa = build_tnfa(parse_regex(pattern))
        for q in range(nfa.n_states):
            assert (not nfa.eps[q]) == (nfa.arcs[q] is not None or q == nfa.qf), (pattern, q)


def test_priorities_distinct_from_one():
    # An eps-transition's priority is its place in eps[q], from 1, as the
    # dot dump labels it.
    for pattern in (GOLDEN, "a|b|ab", "(?:ab)+", "a{2,4}"):
        nfa = build_tnfa(parse_regex(pattern))
        labels = re.findall(r'^  (\d+) -> \d+ \[label="(\d+)', tnfa_to_dot(nfa), re.M)
        assert sorted((int(q), int(pri)) for q, pri in labels) == [
            (q, pri) for q, out in enumerate(nfa.eps) for pri in range(1, len(out) + 1)]


def test_simulate_golden():
    nfa = golden_nfa()
    assert simulate(nfa, b"aab") == {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}
    assert simulate(nfa, b"") is None
    assert simulate(nfa, b"b") == {1: None, 2: None, 3: 0, 4: 0, 5: 1}


def test_simulate_greedy_repetition():
    nfa = build_tnfa(parse_regex("(a)*"))
    assert simulate(nfa, b"aa") == {1: 1, 2: 2}


def test_simulate_empty_loop_terminates():
    nfa = build_tnfa(parse_regex("(?:#)*"))
    assert simulate(nfa, b"") == {1: 0}


def test_simulate_histories_golden_equal_multipass_lists():
    nfa = golden_nfa()
    got = simulate(nfa, b"aab", multi=set(nfa.tags))
    assert got == {1: [0, 1], 2: [1, 2], 3: [2], 4: [2], 5: [3]}
    assert got == tdfa.compile(GOLDEN, engine="multipass").match(b"aab", repr_="lists").values
    # only the tags in multi come back as lists
    assert simulate(nfa, b"aab", multi={2}) == {1: 1, 2: [1, 2], 3: 2, 4: 2, 5: 3}


def test_simulate_histories_record_bypasses_as_minus_one():
    nfa = golden_nfa()
    assert simulate(nfa, b"b", multi=set(nfa.tags)) == {1: [-1], 2: [-1], 3: [0], 4: [0], 5: [1]}
    # the second iteration takes the untagged branch, which negates both tags
    nfa = build_tnfa(parse_regex("(?:(a)|b)*"))
    assert simulate(nfa, b"ab", multi={1, 2}) == {1: [0, -1], 2: [1, -1]}
    assert simulate(nfa, b"ab") == {1: None, 2: None}


def test_simulate_last_values_unchanged_on_a_seeded_corpus():
    # The digest of the last-value outcomes before histories were added;
    # every tag's history must end in the same last value.
    from tdfa.fuzz import _last, all_inputs as fuzz_inputs, gen_pattern

    rng = Random(1919)
    digest = hashlib.sha256()
    matched = 0
    for _ in range(600):
        nfa = build_tnfa(parse_regex(gen_pattern(rng)))
        for data in fuzz_inputs("ab", 6):
            got = simulate(nfa, data)
            digest.update(repr(got).encode())
            lists = simulate(nfa, data, multi=set(nfa.tags))
            if got is None:
                assert lists is None
            else:
                matched += 1
                assert {t: _last(v) for t, v in lists.items()} == got
    assert matched == 1893
    assert digest.hexdigest() == "88212ff8befe163035f42efb64a843d4972d157ff64edd81d098762a416f2c48"


def test_simulate_full_answer_unchanged_on_a_seeded_corpus():
    # The digest of every tag's history (-1 for each bypass), of the
    # `transitions` counter and of the last values, as the simulation gave
    # them before its inner loops were rewritten.  Beyond the inputs the
    # last-value digest above sees, it covers runs of 40 and of 1,000 of
    # each symbol, bytes no arc reads (the simulation stops there), and
    # inputs of a few KB on CSV, golden and (?:#a)*a{20}, on which it
    # stops early, late or not at all.
    from tdfa.fuzz import all_inputs as fuzz_inputs, gen_pattern

    rng = Random(2606)
    digest = hashlib.sha256()

    def pin(nfa, data):
        c = {}
        got = simulate(nfa, data, multi=set(nfa.tags), counters=c)
        digest.update(repr((got, c, simulate(nfa, data))).encode())

    long_runs = [ch * n for ch in (b"a", b"b") for n in (40, 1000)]
    dead = [b"ab\xffba", b"a" * 30 + b"c" + b"a" * 9]
    for _ in range(1000):
        nfa = build_tnfa(parse_regex(gen_pattern(rng)))
        for data in chain(fuzz_inputs("ab", 5), long_runs, dead):
            pin(nfa, data)

    def field():
        return bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 4)))

    csv = b",".join(field() for _ in range(1000))
    ab = bytes(rng.choice(b"ab") for _ in range(3000))
    for pattern, inputs in (
        ("((?:a|b|c)+)(?:,((?:a|b|c)+))*", [csv, csv + b",", csv[:1500] + b"x" + csv[1500:]]),
        (GOLDEN, [b"a" * 2000 + b"b" * 2000, b"a" * 3000, ab]),
        ("(?:#a)*a{20}", [b"a" * 3000, b"a" * 1500 + b"b" + b"a" * 1500, b"a" * 19]),
    ):
        nfa = build_tnfa(parse_regex(pattern))
        for data in inputs:
            pin(nfa, data)
    assert digest.hexdigest() == "2fda63f067c46ff698a09db870fe9f3a980e51ec8cfcb105375f89db18a6d6d1"


def test_simulate_deterministic():
    nfa = golden_nfa()
    runs = [simulate(nfa, b"aab") for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def start_closure(nfa, k=0, mark=None):
    """The closure of q0 with every tag nil, on a fresh mark list."""
    mark = [-1] * nfa.n_states if mark is None else mark
    return sim_epsilon_closure([(nfa.q0, [None] * len(nfa.tags))], nfa, k, [False] * len(nfa.tags), mark)


def test_closure_initial_rows():
    nfa = golden_nfa()
    C = start_closure(nfa)
    assert [q for q, _ in C] == [2, 9, 12]
    by_state = {q: m for q, m in C}
    assert by_state[2] == [0, None, None, None, None]
    assert by_state[9] == [None, None, 0, None, None]
    assert by_state[12] == [None, None, 0, 0, None]


def test_closure_symbol_only_state():
    nfa = build_tnfa(Sym(A))
    assert start_closure(nfa) == [(nfa.q0, [])]


def test_closure_alt_order():
    nfa = build_tnfa(parse_regex("a|bc"))  # not a symbol set
    states = [q for q, _ in start_closure(nfa)]
    # left branch claimed before right branch
    assert states == sorted(states)
    assert nfa.arcs[states[0]] == ((0,), nfa.qf)  # a
    assert nfa.arcs[states[1]][0] == (1,)  # b


def test_closure_claims_states_by_stamping_the_offset():
    # One mark list serves a whole simulation: a state stamped with k is
    # claimed for the closure at k only.
    nfa = golden_nfa()
    mark = [-1] * nfa.n_states
    first = start_closure(nfa, 0, mark)
    assert start_closure(nfa, 0, mark) == []
    again = start_closure(nfa, 1, mark)
    assert [q for q, _ in again] == [q for q, _ in first]
    assert again[0][1] == [1, None, None, None, None]


def test_step_on_symbol():
    # The simulation stops at the first byte that no configuration's arc
    # reads, a byte of no class (-1) among them, and counts the bytes
    # stepped before it.
    nfa = golden_nfa()
    for data, want, stepped in ((b"aab", {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}, 3), (b"aac", None, 2),
                                (b"ba", None, 1), (b"c", None, 0), (b"", None, 0)):
        c = {}
        assert simulate(nfa, data, counters=c) == want and c == {"transitions": stepped}, data


def test_simulation_table_is_built_once_and_stays_out_of_eq_and_repr():
    nfa, twin = golden_nfa(), golden_nfa()
    assert nfa._sim_moves is None
    simulate(nfa, b"aab")
    moves = nfa._sim_moves
    assert len(moves) == len(nfa.eps) and all(len(a) == len(b) for a, b in zip(moves, nfa.eps))
    simulate(nfa, b"ab", multi=set(nfa.tags))
    assert nfa._sim_moves is moves
    assert nfa == twin and repr(nfa) == repr(twin) and "_sim_moves" not in repr(nfa)


def test_simulation_imports_nothing_from_determinize():
    # The simulation is the reference the determinization is checked
    # against, so it shares none of its code (the closure above all).
    tree = ast.parse(Path(tnfa_module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("determinize", "tdfa.determinize"), ast.unparse(node)
            assert not any(alias.name == "determinize" for alias in node.names), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any("determinize" in alias.name for alias in node.names), ast.unparse(node)


def test_dot_dump_mentions_priorities_and_tags():
    dot = tnfa_to_dot(golden_nfa())
    assert "style=bold" in dot and "1/-1" in dot and "style=dashed" in dot


# A dot attribute list whose label is one quoted string: every backslash in
# it escapes the character after it, and no `"` stands unescaped.
DOT_LABEL = re.compile(r'\[label="(?:[^"\\]|\\.)*"(?:, style=\w+)?\];$')


def test_dot_labels_are_well_formed_for_every_byte():
    for byte in range(256):
        assert DOT_LABEL.search(f'[label="{dot_class((byte,))}"];'), byte
    assert dot_class(b'"\\') == '[\\"\\\\]'
    # every byte spelled out, metacharacters escaped: each byte is an arc
    # and a TDFA transition of its own
    every = b"".join(ESCAPED)
    for dot in (tnfa_to_dot(build_tnfa(parse_regex(every))), tdfa.compile(every).tdfa.to_dot()):
        labels = [line for line in dot.splitlines() if "label=" in line]
        assert len(labels) >= 256 and all(DOT_LABEL.search(line) for line in labels)


def _check_against_brute(nfa, max_len=4):
    for data in all_inputs(b"ab", max_len):
        want = brute_force_match(nfa, data)
        got = simulate(nfa, data)
        assert got == want, (data, got, want)


def test_brute_force_equivalence_exhaustive_small():
    n = 0
    for size in range(1, 5):
        for shape in all_asts(size):
            ast, ntag = number_tags(shape)
            if ntag > 4:
                continue
            _check_against_brute(build_tnfa(ast), max_len=3)
            n += 1
    assert n > 1500


def test_brute_force_equivalence_random_larger():
    from tdfa.fuzz import gen_pattern

    rng = Random(11)
    # sets whose arcs read two classes: a lone `a` splits `a|b` in two
    split = ["(?:a|b)*a(?:b|a)", "((?:a|b)+)(a)(?:b|a)?", "(?:(?:a|b)(a)*|(b))+", "(a)?(?:b|a){2,3}"]
    for pattern in [gen_pattern(rng, max_nodes=8, max_tags=4) for _ in range(120)] + split:
        nfa = build_tnfa(parse_regex(pattern))
        assert pattern not in split or any(arc and len(arc[0]) == 2 for arc in nfa.arcs)
        for data in all_inputs(b"ab", 5):
            assert simulate(nfa, data) == brute_force_match(nfa, data), (pattern, data)


def test_fuzz_gate_on_multi_class_symbol_sets():
    # The acceptance corpus (alphabet `ab`, lone bytes) gives 2 of 1,000
    # TNFAs a multi-class arc; here byte alternations sit next to lone
    # bytes of the same alphabet, and every engine configuration must agree
    # with the simulation on them.
    rng = Random(7)
    patterns = [gen_set_pattern(rng) for _ in range(200)]
    t0 = time.perf_counter()
    multi_class = 0
    for pattern in patterns:
        nfa = build_tnfa(parse_regex(pattern))
        multi_class += any(arc and len(arc[0]) > 1 for arc in nfa.arcs)
        divergence = cross_check(pattern, alphabet="abc", max_len=5)
        assert divergence is None, str(divergence)
    assert multi_class == 81
    assert time.perf_counter() - t0 < 20.0
