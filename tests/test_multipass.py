import functools
import importlib
from itertools import chain
from random import Random

import pytest
from helpers import ANY_BYTE, EVERY_CLASS, all_inputs, closure_patterns, sample_match

import tdfa
from tdfa import multipass
from tdfa.multipass import (
    FRONT_AFTER,
    PLAIN_LOOPS,
    MatchPlan,
    MultipassTdfa,
    construct_backlinks,
    determinize_multipass,
    extract_offset_lists,
    extract_offsets,
    extract_tstring,
    match_forward,
    render_tstring,
    unique_origins,
)
from tdfa.tnfa import build_tnfa, simulate
from tdfa.resyntax import parse_regex

GOLDEN = "(a)*#(?:a|#b)#b*"
CSV = "((?:a|b|c)+)(?:,((?:a|b|c)+))*"


def golden_mp():
    return determinize_multipass(build_tnfa(parse_regex(GOLDEN)))


def cls_of(mp, ch):
    return mp.byte_to_class[ord(ch)]


def test_golden_backlink_structure():
    mp = golden_mp()
    assert mp.n_states == 4
    assert mp.finals == {1, 2, 3}
    a, b = cls_of(mp, "a"), cls_of(mp, "b")
    # two backlinks where the configurations originate in two TNFA states
    assert len(mp.delta[(0, a)][1]) == 2
    assert len(mp.delta[(1, a)][1]) == 2
    # both backlinks of the loop transition connect to the first slot
    assert [link[0] for link in mp.delta[(1, a)][1]] == [0, 0]
    # single backlink through the alternative's b branch and the b* tail
    assert len(mp.delta[(0, b)][1]) == 1
    assert len(mp.delta[(1, b)][1]) == 1
    assert len(mp.delta[(2, b)][1]) == 1
    assert len(mp.delta[(3, b)][1]) == 1
    # the final backlink of state 1 connects to the second slot
    assert mp.phi[1][0] == 1
    assert mp.phi[2][0] == 0


def test_unique_origins_first_seen_order():
    # One slot per configuration, in closure order: states 2, 5 and 7 with
    # origins 9, 9 and 12.
    C = [(2, 9, (), ()), (5, 9, (), ()), (7, 12, (), ())]
    assert unique_origins(C) == (0, 0, 1)
    assert unique_origins([(4, 4, (), ())]) == (0,)
    assert unique_origins([]) == ()


def test_closure_lists_each_origin_as_one_run(monkeypatch):
    # unique_origins and construct_backlinks take a slot's configurations
    # as one run.  On every closure the construction makes, numbering the
    # runs must give what numbering distinct origins in first-seen order
    # gives.
    module = importlib.import_module("tdfa.multipass")
    runs = module.unique_origins
    closures = []

    def checked(C):
        index: dict = {}
        got = runs(C)
        assert got == tuple(index.setdefault(o, len(index)) for _, o, _, _ in C), C
        closures.append(C)
        return got

    monkeypatch.setattr(module, "unique_origins", checked)
    for pattern in closure_patterns():
        determinize_multipass(build_tnfa(parse_regex(pattern)))
    assert sum(len(set(o for _, o, _, _ in C)) > 1 for C in closures) > 50


def test_construct_backlinks_dedup_and_empty():
    # The previous state's slot per row: rows 0 and 1 share slot 0.  The
    # configurations descend from its rows 1 and 2.
    U = (0, 0, 1)
    C = [(3, 1, (1,), ()), (5, 1, (1,), ()), (6, 2, (-1,), ())]
    shared: dict = {}
    links = construct_backlinks(C, U, shared)
    assert len(links) == max(unique_origins(C)) + 1
    assert links == ((0, (1,)), (1, (-1,)))
    assert construct_backlinks([], U, shared) == ()
    # Equal backlinks built again are the same objects.
    again = construct_backlinks(C, U, shared)
    assert all(a is b for a, b in zip(again, links))


def test_match_forward_golden():
    mp = golden_mp()
    a, b = cls_of(mp, "a"), cls_of(mp, "b")
    s, steps = match_forward(mp, b"aab")
    assert s == 2
    assert steps == [mp.delta[(0, a)][1], mp.delta[(1, a)][1], mp.delta[(1, b)][1]]
    # The b* loop of state 3 is a no-op: its run is one int step.
    s, steps = match_forward(mp, b"abbbb")
    assert s == 3
    assert steps == [mp.delta[(0, a)][1], mp.delta[(1, b)][1], mp.delta[(2, b)][1], 2]
    assert match_forward(mp, b"ax") is None
    assert match_forward(mp, b"") is None  # empty string not in the language


def test_match_forward_empty_input_final_start():
    mp = determinize_multipass(build_tnfa(parse_regex("#")))
    s, steps = match_forward(mp, b"")
    assert s == mp.s0 and steps == []


def test_extract_offsets_golden():
    mp = golden_mp()
    fw = match_forward(mp, b"aab")
    assert extract_offsets(mp, b"aab", fw) == {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}


def test_extract_offsets_bypass():
    mp = golden_mp()
    fw = match_forward(mp, b"b")
    assert extract_offsets(mp, b"b", fw) == {1: None, 2: None, 3: 0, 4: 0, 5: 1}


def test_extract_offsets_tag_free():
    mp = determinize_multipass(build_tnfa(parse_regex("ab")))
    fw = match_forward(mp, b"ab")
    assert extract_offsets(mp, b"ab", fw) == {}


def test_extract_offset_lists_golden():
    mp = golden_mp()
    fw = match_forward(mp, b"aab")
    assert extract_offset_lists(mp, b"aab", fw) == {
        1: [0, 1], 2: [1, 2], 3: [2], 4: [2], 5: [3],
    }


def test_extract_offset_lists_bypass_records_minus_one():
    mp = golden_mp()
    fw = match_forward(mp, b"b")
    lists = extract_offset_lists(mp, b"b", fw)
    assert lists[1] == [-1] and lists[2] == [-1]
    assert lists == {1: [-1], 2: [-1], 3: [0], 4: [0], 5: [1]}


def test_extract_tstring_golden():
    mp = golden_mp()
    fw = match_forward(mp, b"aab")
    assert render_tstring(extract_tstring(mp, b"aab", fw)) == "1 a 2 1 a 2 3 4 b 5"


def test_extract_tstring_empty_match():
    mp = determinize_multipass(build_tnfa(parse_regex("#")))
    fw = match_forward(mp, b"")
    assert render_tstring(extract_tstring(mp, b"", fw)) == "1"


def test_extract_tstring_tag_free():
    mp = determinize_multipass(build_tnfa(parse_regex("ab")))
    fw = match_forward(mp, b"ab")
    assert render_tstring(extract_tstring(mp, b"ab", fw)) == "a b"


def check_reprs(nfa, mp, data: bytes) -> dict:
    """Match data and check the three representations against
    tnfa.simulate and against each other; returns the counters."""
    from tdfa.fuzz import _lists_from_tstring

    c: dict = {}
    fw = match_forward(mp, data, c)
    want = simulate(nfa, data)
    if fw is None:
        assert want is None, data
        return c
    offsets = extract_offsets(mp, data, fw)
    lists = extract_offset_lists(mp, data, fw)
    ts = extract_tstring(mp, data, fw)
    assert offsets == want, data
    for t in mp.tags:
        last = lists[t][-1] if lists[t] else None
        assert (None if last == -1 else last) == offsets[t]
    assert _lists_from_tstring(ts, mp.tags) == lists
    assert b"".join(x for x in ts if isinstance(x, bytes)) == data
    assert c["transitions"] == len(data)
    return c


def mp_of(pattern):
    nfa = build_tnfa(parse_regex(pattern))
    return nfa, determinize_multipass(nfa)


def test_cross_representation_consistency():
    from tdfa.fuzz import gen_pattern

    rng = Random(17)
    for _ in range(40):
        pattern = gen_pattern(rng, max_nodes=9, max_tags=5)
        nfa = build_tnfa(parse_regex(pattern))
        mp = determinize_multipass(nfa)
        for data in chain(all_inputs(b"ab", 5), all_inputs(b"abc", 4)):
            check_reprs(nfa, mp, data)


@pytest.mark.parametrize("run", [0, 1, 2, 1500])
def test_noop_runs_are_skipped(run):
    # The first b enters the loop state; the rest is the run.
    nfa, mp = mp_of("a#b*#c")
    data = b"ab" + b"b" * run + b"c"
    assert check_reprs(nfa, mp, data)["skipped"] == run
    _, steps = match_forward(mp, data)
    assert [x for x in steps if isinstance(x, int)] == ([run] if run else [])


def test_noop_runs_in_csv_fields():
    # Fields of 1, 2 and 3 letters leave runs of 0, 1 and 2 bytes.
    nfa, mp = mp_of(CSV)
    for data in all_inputs(b"abc,", 5):
        check_reprs(nfa, mp, data)
    data = b",".join(b"abc" * n for n in (1, 400, 2))
    assert check_reprs(nfa, mp, data)["skipped"] == 2 + 1199 + 5


def test_self_looping_start_state():
    nfa, mp = mp_of("(?:a|b)*(c)(?:a|b)*")
    for data in all_inputs(b"abc", 6):
        check_reprs(nfa, mp, data)
    assert mp._plan.skip0 is not None
    data = b"ab" * 700 + b"c" + b"ba" * 700
    # After c, the first letter enters the second loop state.
    assert check_reprs(nfa, mp, data)["skipped"] == 1400 + 1399
    _, steps = match_forward(mp, data)
    assert steps[0] == 1400 and steps[-1] == 1399


def test_dead_byte_inside_skipped_run():
    nfa, mp = mp_of("a#b*#c")
    c = check_reprs(nfa, mp, b"a" + b"b" * 500 + b"x" + b"b" * 500 + b"c")
    assert c["transitions"] == 501 and c["skipped"] == 499
    # a byte of the alphabet that leaves the loop ends the run as well
    check_reprs(nfa, mp, b"a" + b"b" * 500 + b"a" + b"b" * 500 + b"c")


def test_full_byte_alphabet():
    # 256 classes; the start state loops on every one but the backslash's.
    nfa, mp = mp_of(EVERY_CLASS)
    assert len(mp.alphabet) == 256
    rng = Random(3)
    inputs = [bytes(range(256)), bytes(range(255, -1, -1)), b"", b"\\", b"]^-\\", b"]^-\\" + bytes(range(256))]
    inputs += [bytes(rng.choice(b"\x00\xff]^-\\ab") for _ in range(rng.randint(0, 12))) for _ in range(200)]
    for data in inputs:
        check_reprs(nfa, mp, data)
    assert max(mp._plan.classes) == 255


def test_tstring_symbols_are_one_byte_bytes():
    # Every byte value as a symbol of a no-op run, of a tagged run and of
    # single steps: a `bytes` object equal to bytes([b]).
    every = bytes(range(256)) + bytes(range(255, -1, -1))
    cases = [(ANY_BYTE + b"*", [every]), (b"(?:#" + ANY_BYTE + b")*", [every]),
             ((b"(" + ANY_BYTE + b")") * 4, [every[i : i + 4] for i in range(0, 512, 4)])]
    for pattern, inputs in cases:
        _, mp = mp_of(pattern)
        for data in inputs:
            ts = extract_tstring(mp, data, match_forward(mp, data))
            symbols = [x for x in ts if not isinstance(x, int)]
            assert [type(x) for x in symbols] == [bytes] * len(data)
            assert symbols == [bytes([b]) for b in data]


def test_loop_with_history_is_a_run():
    # The first a enters the loop state and the next three self-loops are
    # plain steps (PLAIN_LOOPS) through its copies; the fourth steps too,
    # onto the last copy's self-loop cell, whose span consumes the other
    # 1195.  Slot 0 is fixed (depth 0), so the run's
    # last byte stays an array and -1194 stands for the rest.
    assert PLAIN_LOOPS == 3
    nfa, mp = mp_of("(?:#a)*")
    data = b"a" * 1200
    assert check_reprs(nfa, mp, data)["skipped"] == 1195
    _, steps = match_forward(mp, data)
    loop = mp.delta[(1, cls_of(mp, "a"))][1]
    assert steps == [mp.delta[(0, cls_of(mp, "a"))][1], loop, loop, loop, loop, -1194, loop]


def test_loop_moving_between_slots_settles():
    # State 3 loops on a with empty histories, but its array sends slot 2 to
    # slot 1: walking back over the a's decides where the group began.  Slot
    # 0 is fixed and every slot reaches it within two steps, so a run keeps
    # its last three bytes as arrays and records the rest as one int.
    nfa, mp = mp_of("ba*aa(b*)?")
    assert mp.delta[(3, cls_of(mp, "a"))] == (3, ((0, ()), (0, ()), (1, ())))
    for data in all_inputs(b"ab", 7):
        check_reprs(nfa, mp, data)
    [tail] = [tail for tail in mp._plan.bulk if tail]
    assert len(tail) == 3
    data = b"b" + b"a" * 1200 + b"b"
    assert check_reprs(nfa, mp, data)["skipped"] == 1194
    assert sum(isinstance(x, int) for x in match_forward(mp, data)[1]) == 1


def expected_counters(mp, data: bytes) -> dict:
    """The counters of match_forward, from a per-byte walk over delta: the
    bytes consumed before a dead cell, and those the spans consume: every
    no-op self-loop, and every self-loop of a tagged loop state after
    PLAIN_LOOPS + 1 others in a row."""
    plan = mp._plan
    tagged = {plan.state[a] for a, tail in enumerate(plan.bulk) if tail}
    s, loops = mp.s0, 0
    c = {"transitions": 0, "skipped": 0}
    for b in data:
        cell = mp.delta.get((s, mp.byte_to_class[b]))
        if cell is None:
            break
        target, links = cell
        loop = target == s
        if loop and (MatchPlan.no_op(links) or s in tagged and loops > PLAIN_LOOPS):
            c["skipped"] += 1
        c["transitions"] += 1
        s, loops = target, loops + 1 if loop else 0
    return c


def tagged_loop_corpus(seed: int, count: int):
    """gen_pattern patterns whose automaton has a settling tagged loop."""
    from tdfa.fuzz import gen_pattern

    rng = Random(seed)
    out = []
    while len(out) < count:
        nfa, mp = mp_of(gen_pattern(rng, max_nodes=10, max_tags=5, alphabet="abc"))
        match_forward(mp, b"")  # builds the plan
        if any(mp._plan.bulk):
            out.append((nfa, mp))
    return out


def test_tagged_runs_match_the_simulation():
    runs = 0
    for nfa, mp in tagged_loop_corpus(12, 60):
        for sym in b"abc":
            for n in (*range(1, 41), 1500):
                data = bytes([sym]) * n
                assert check_reprs(nfa, mp, data) == expected_counters(mp, data), data
                fw = match_forward(mp, data)
                runs += fw is not None and any(isinstance(x, int) and x < 0 for x in fw[1])
    assert runs > 1000, runs


def test_tagged_runs_inside_inputs():
    # Runs between other symbols: the backward walk enters a run's arrays in
    # whatever slot the later steps left, and the run's first byte enters
    # from another state.
    rng = Random(5)
    for nfa, mp in tagged_loop_corpus(31, 25):
        for _ in range(60):
            parts = [bytes([rng.choice(b"abc")]) * rng.choice((1, 2, 3, 7, 60)) for _ in range(rng.randint(1, 5))]
            data = b"".join(parts)
            assert check_reprs(nfa, mp, data) == expected_counters(mp, data), data


def test_short_tagged_runs_on_random_text():
    # Random ab before the tail of (a|b)*(?:#a){10}: most runs on its two
    # tagged loop states are short, and those of up to PLAIN_LOOPS + 1
    # bytes stay plain steps, as the per-byte walk counts them.
    nfa, mp = mp_of("(a|b)*(?:#a){10}")
    rng = Random(34)
    data = bytes(rng.choice(b"ab") for _ in range(2048)) + b"a" * 10
    c = check_reprs(nfa, mp, data)
    assert c == expected_counters(mp, data) and c["skipped"] > 0
    assert sum(tail is not None for tail in mp._plan.bulk) == 2
    fw = match_forward(mp, data)
    assert extract_offset_lists(mp, data, fw) == simulate(nfa, data, frozenset(nfa.tags))


def swapping_loop():
    """(?:#a)?(?:#a#a)* with its two alternating states folded into one whose
    slots are the thread at a pair boundary (0) and the one mid-pair (1).
    Each a swaps them, so its loop array is a slot cycle of length 2."""
    nfa = build_tnfa(parse_regex("(?:#a)?(?:#a#a)*"))
    mp = MultipassTdfa(nfa.tags, nfa.alphabet, nfa.byte_to_class)
    swap = ((1, (3,)), (0, (2,)))
    mp.delta = {(0, 0): (1, ((0, (1,)), (0, (-1, 2)))), (1, 0): (2, swap), (2, 0): (2, swap)}
    mp.phi = {0: (0, (-1, -2, -3)), 1: (0, (-2, -3)), 2: (0, ())}
    mp.n_states, mp.finals = 3, {0, 1, 2}
    return nfa, mp


def test_loop_whose_slots_cycle_keeps_per_byte_steps():
    nfa, mp = swapping_loop()
    for n in (*range(41), 1500):
        data = b"a" * n
        c = check_reprs(nfa, mp, data)
        assert c["skipped"] == 0
        _, steps = match_forward(mp, data)
        assert len(steps) == n and not any(isinstance(x, int) for x in steps)
    assert mp._plan.bulk == [None, None, None]


def test_repeated_tag_in_a_loop_history():
    # A tag occurring twice in the settled history: lists take the steps of
    # the run one at a time.  Built by hand from (?:#a)*, whose loop array
    # ((0, (1,)),) becomes ((0, (1, -1)),): each a records 0-based offsets
    # and nils, interleaved.
    nfa, real = mp_of("(?:#a)*")
    mp = MultipassTdfa(real.tags, real.alphabet, real.byte_to_class)
    a = cls_of(real, "a")
    mp.delta = {(0, a): (1, ((0, (1, -1)),)), (1, a): (1, ((0, (1, -1)),))}
    mp.phi, mp.n_states, mp.finals = dict(real.phi), real.n_states, set(real.finals)
    for n in (1, 2, 3, 50):
        data = b"a" * n
        fw = match_forward(mp, data)
        want = []
        for k in range(n):
            want += [k, -1]
        assert extract_offset_lists(mp, data, fw) == {1: want}
        assert extract_offsets(mp, data, fw) == {1: None}  # -1 is the later
        ts = extract_tstring(mp, data, fw)
        assert render_tstring(ts) == " ".join(["1 -1 a"] * n)


@pytest.mark.parametrize("pattern", ["#(?:a|b)*#", "#(?:#a)*"])
def test_offsets_walk_back_to_a_tag_at_the_start(pattern):
    # Tag 2 is resolved at the end; tag 1 only at offset 0, 1500 bytes back.
    nfa, mp = mp_of(pattern)
    data = b"a" * 1500
    check_reprs(nfa, mp, data)
    assert extract_offsets(mp, data, match_forward(mp, data))[1] == 0


# -- offsets from both ends -------------------------------------------------


def alt(chars: str) -> str:
    return "(?:" + "|".join(chars) + ")"


def walk(mp, data: bytes) -> tuple[dict, int]:
    """The offsets of data and the steps their walk took."""
    c: dict = {}
    values = extract_offsets(mp, data, match_forward(mp, data), c)
    return values, c["walked"]


@functools.cache
def both_ends(pattern):
    """Pattern's multipass automaton, and the one built from its TNFA with
    no once-only tags."""
    p = tdfa.compile(pattern, engine="multipass")
    return p, determinize_multipass(p.tnfa)


def check_both_ends(pattern, data: bytes) -> tuple[int, int]:
    """The offsets of Pattern's automaton, read from both ends, equal the
    simulation's and those of the automaton built with no once-only tags,
    read from the back alone, in at most twice its steps.  Returns both
    step counts."""
    p, plain = both_ends(pattern)
    got, steps = walk(p.mp, data)
    want, back_steps = walk(plain, data)
    assert got == want == simulate(p.tnfa, data), data
    assert steps <= 2 * back_steps, (pattern, steps, back_steps)
    return steps, back_steps


def test_csv_offsets_walk_the_same_few_steps_at_any_size():
    # Tags 1 and 2 occur once, in the first field: the front reads them in
    # its first three steps (a, the no-op run of b, the comma), after one
    # round from the back has read tags 3 and 4 in the last field.
    assert tdfa.compile(CSV, engine="multipass").mp.once == {1, 2}
    counts = []
    for size in (10_000, 100_000):
        rng = Random(29)
        fields = [b"ab"]
        while len(fields) * 5 < size:
            fields.append(bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 8))))
        steps, back_steps = check_both_ends(CSV, b",".join(fields + [b"cab"]))
        assert back_steps > size // 4
        counts.append(steps)
    assert counts == [FRONT_AFTER + 3] * 2


@pytest.mark.parametrize("size", [1_000, 100_000])
def test_leading_tag_walks_a_constant_number_of_steps(size):
    # Tag 1 is at offset 0 and nothing after it is tagged: from the back
    # alone the walk takes every step and the final backlink.
    steps, back_steps = check_both_ends("#(?:ab)*c", b"ab" * (size // 2) + b"c")
    assert back_steps == size + 2
    assert steps == FRONT_AFTER + 1


# perfbench's patterns (short-records with its byte sets), the worst shape
# for two cursors (a once-only tag in the middle of a forced path), and
# tagged loops on random text.
BOTH_ENDS_PATTERNS = [
    "(?:a|b)*", "(?:a|b)*#(?:a|b)*", CSV, "(?:#a)*", GOLDEN, "(?:#a)*a{100}",
    "(" + alt("abcdef012345") + "+)(?:,(" + alt("abcdef012345") + "+))*",
    "(?:(" + alt("keyabc") + "+)=(" + alt("val012") + "*);)+",
    "(" + ":".join([alt("0123456789") + "{2}"] * 3) + ") (INFO|WARN|ERROR) (" + alt("abcdefghijklmnopqrstuvwxyz ") + "+)",
    "(?:ab)*,#(?:ab)*", "(a|b)*(?:#a){5}",
]


@pytest.mark.parametrize("pattern", BOTH_ENDS_PATTERNS)
def test_both_ends_take_at_most_twice_the_steps_from_the_back(pattern):
    rng = Random(41)
    ast = parse_regex(pattern)
    for extra in (2, 8, 40, 300):
        for _ in range(6):
            data = sample_match(ast, rng, extra)
            if len(data) <= 3000:
                check_both_ends(pattern, data)
    # The worst shape: both cursors walk to the middle.
    steps, back_steps = check_both_ends("(?:ab)*,#(?:ab)*", b"ab" * 1000 + b"," + b"ab" * 1000)
    assert back_steps < steps <= 2 * back_steps


@pytest.fixture(params=[1, FRONT_AFTER], ids=["front-first", "front-after-default"])
def front_after(request, monkeypatch):
    """The number of back steps before the front first reads: with 1, the
    front reads even on short paths."""
    monkeypatch.setattr(multipass, "FRONT_AFTER", request.param)
    return request.param


# (pattern, input, once-only tags, what the front does on the input):
# "reads" a once-only tag the back has not reached, "stops" before it, at
# a step it cannot decide, or stays "idle", as the back reads the tag in
# its first round.
EDGE_CASES = {
    "at step 0": ("#(?:ab)*c", b"ab" * 60 + b"c", {1}, "reads"),
    "only in phi": ("(?:#a)*,(?:ab)*#", b"aaa," + b"ab" * 60, {2}, "idle"),
    "bypassed": ("(?:(x)|y)(?:ab)*(c)", b"y" + b"ab" * 60 + b"c", {1, 2, 3, 4}, "reads"),
    "in a wider array": ("(?:(a)b|ac)(?:de)*", b"ac" + b"de" * 60, {1, 2}, "stops"),
    "behind a wider array": ("(?:a|b)*b#(?:cd)*", b"ab" * 30 + b"b" + b"cd" * 60, {1}, "stops"),
    "behind a tagged run": ("(?:#a)*b#(?:cd)*", b"a" * 60 + b"b" + b"cd" * 60, {2}, "stops"),
    "after a repeated tag": ("(?:(a)){1,2}(?:bc)*#(?:de)*", b"a" + b"bc" * 60 + b"de" * 60, {3}, None),
    "near the end": ("(?:(a)){1,2}(?:bc)*#(?:de){3}", b"a" + b"bc" * 60 + b"de" * 3, {3}, "idle"),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_once_tag_edge_cases(case, front_after):
    pattern, data, once, front = EDGE_CASES[case]
    assert both_ends(pattern)[0].mp.once == once
    steps, back_steps = check_both_ends(pattern, data)
    if front == "reads":
        assert steps < back_steps
    elif front == "stops":
        # The back walks as far as alone, and the front reads only up to
        # the step it cannot decide.
        assert back_steps <= steps <= back_steps + PLAIN_LOOPS + 2
    elif front == "idle" and front_after > 1:
        assert steps == back_steps
    nfa = both_ends(pattern)[0].tnfa
    for short in all_inputs(bytes(sorted(set(data))), 5):
        if simulate(nfa, short) is not None:
            check_both_ends(pattern, short)


def test_front_stops_where_the_back_has_been():
    # Tags 1 and 2 are only at offsets 0 and 1, so the back walks every
    # step.  Rounds: back 32, front 32, back 64, front 64, then the back's
    # round of 128 reads tag 3 and passes the front, which reads no more.
    pattern, data, _, _ = EDGE_CASES["after a repeated tag"]
    steps, back_steps = check_both_ends(pattern, data)
    assert FRONT_AFTER == 32
    assert (steps, back_steps) == (back_steps + 96, 242)


def test_front_rounds_double(monkeypatch):
    # On the worst shape, the cursors take O(log n) turns.
    calls = []
    read_front = multipass._read_front
    monkeypatch.setattr(multipass, "_read_front", lambda *args: calls.append(1) or read_front(*args))
    for m in (1_000, 10_000):
        check_both_ends("(?:ab)*,#(?:ab)*", b"ab" * m + b"," + b"ab" * m)
    assert len(calls) <= 2 * (2 + 10_000 * 2 // FRONT_AFTER).bit_length()


def test_wider_array_and_tagged_run_stop_the_front():
    # The edge cases above stop the front where they mean to: the first
    # b's array has two slots, and (?:#a)*'s run is a tagged one.
    _, mp = mp_of("(?:a|b)*b#(?:cd)*")
    _, steps = match_forward(mp, b"ab" * 30 + b"b" + b"cd" * 60)
    assert steps[0] == 1 and len(steps[1]) == 2
    _, mp = mp_of("(?:#a)*b#(?:cd)*")
    _, steps = match_forward(mp, b"a" * 60 + b"b" + b"cd" * 60)
    assert [len(x) for x in steps[:PLAIN_LOOPS + 2]] == [1] * (PLAIN_LOOPS + 2) and steps[PLAIN_LOOPS + 2] < 0


@pytest.mark.parametrize("multi", ["all", "none", "auto", {1, 3}])
def test_once_tags_are_structural_whatever_multi_says(multi):
    p = tdfa.compile(GOLDEN, engine="multipass", multi=multi)
    assert p.mp.once == {3, 4, 5}
    data = b"a" * 100 + b"b" * 50
    assert p.match(data).values == simulate(p.tnfa, data)


def test_direct_determinize_walks_from_the_back_alone():
    nfa, mp = mp_of("#(?:ab)*c")
    assert mp.once == frozenset() and mp.stats()["once"] == []
    data = b"ab" * 500 + b"c"
    p = tdfa.compile("#(?:ab)*c", engine="multipass")
    assert walk(mp, data) == (p.match(data).values, len(data) + 1)


def test_walked_counts_each_backward_pass():
    p = tdfa.compile(CSV, engine="multipass")
    data = b",".join([b"abc", b"b", b"ca"] * 40)
    _, steps = match_forward(p.mp, data)
    walked = {}
    for repr_ in ("offsets", "lists", "tstring"):
        c: dict = {}
        assert p.match(data, repr_=repr_, counters=c)
        walked[repr_] = c["walked"]
    # The tagged string walks the steps twice: to size its list, then to
    # fill it.
    assert walked == {"offsets": FRONT_AFTER + 3, "lists": len(steps) + 1, "tstring": 2 * len(steps) + 1}
    c = {}
    tdfa.compile("ab", engine="multipass").match(b"ab", counters=c)
    assert c["walked"] == 0  # no tags: no walk
