from random import Random

import pytest

import tdfa
from tdfa.fuzz import gen_pattern
from tdfa.multipass import render_tstring
from tdfa.tnfa import build_tnfa, simulate
from tdfa.resyntax import auto_tag, parse_regex

from helpers import all_inputs


def test_auto_tags_full_parsing_tstring():
    # every subexpression tagged: pairs around the whole expression (1,10),
    # the atom (2,3), the alternation (4,9) and each branch; the unused
    # branch shows up as negative tags
    p = tdfa.compile("a(?:b|c)", engine="multipass", auto_tags=True)
    out = p.match(b"ab", repr_="tstring")
    assert render_tstring(out.tstring) == "1 2 a 3 4 5 b 6 -7 -8 9 10"


def test_auto_tags_tdfa_agrees_with_simulation():
    ast = auto_tag(parse_regex("a(?:b|c)*"))
    nfa = build_tnfa(ast)
    p = tdfa.compile("a(?:b|c)*", auto_tags=True, multi="none")
    for data in all_inputs(b"abc", 4):
        want = simulate(nfa, data)
        got = p.match(data)
        if want is None:
            assert not got
        else:
            assert got.values == want


def test_fixed_tags_dense_pattern_matches_plain():
    pattern = "a(?:b|c)ab"
    plain = tdfa.compile(pattern, auto_tags=True, multi="none")
    fixed = tdfa.compile(pattern, auto_tags=True, multi="none", fixed_tags=True)
    assert fixed.fixes  # dense tagging leaves plenty to fix
    assert len(fixed.tdfa.tags) < len(plain.tdfa.tags)
    for data in all_inputs(b"abc", 4):
        a, b = plain.match(data), fixed.match(data)
        assert a.kind == b.kind
        if a:
            assert a.values == b.values


@pytest.mark.parametrize("pattern, multi, fixes", [
    ("(?:#a#){2}", {1}, {}),
    ("(?:#a#){2}", {2}, {}),
    ("a#b", {1}, {}),  # the rightmost pseudo base is single-valued
    ("(a)*#(?:a|#b)#b*", {1, 3}, {}),
    ("(a)*#(?:a|#b)#b*", "all", {1: (2, 1), 3: (5, 1)}),
    ("(a)*#(?:a|#b)#b*", "auto", {1: (2, 1), 3: (5, 1)}),
])
def test_fixed_tags_keep_each_tags_result_shape(pattern, multi, fixes):
    # A fix stands only where the tag and its base are both multi-valued
    # or both single-valued.
    plain = tdfa.compile(pattern, multi=multi)
    fixed = tdfa.compile(pattern, multi=multi, fixed_tags=True)
    assert fixed.fixes == fixes
    for data in all_inputs(b"ab", 4):
        a, b = plain.match(data), fixed.match(data)
        assert (a.kind, a.values) == (b.kind, b.values), data


def test_multi_override_subset():
    p = tdfa.compile("(a)*", multi={1})
    out = p.match(b"aa")
    assert out.values[1] == [0, 1]
    assert out.values[2] == 2


def test_multi_checked_at_compile_time():
    with pytest.raises(ValueError, match="not tags"):
        tdfa.compile("(a)", multi={7})
    with pytest.raises(ValueError, match="unknown multi"):
        tdfa.compile("(a)", multi="Auto")


def test_match_accepts_str_and_bytes():
    p = tdfa.compile("(a)*", multi="none")
    assert p.match("aa").values == p.match(b"aa").values


@pytest.mark.parametrize("engine", ["tdfa", "simulation", "multipass"])
def test_match_checks_names_before_the_engine(engine):
    # An unknown mode or representation is named as such on every engine,
    # whether or not the input matches; a known one the engine lacks is
    # named with the engine it needs.
    p = tdfa.compile("a", engine=engine)
    for data in (b"a", b"b"):
        for mode in ("full", "prefix"):
            with pytest.raises(ValueError, match="^unknown representation 'bogus'$"):
                p.match(data, mode, repr_="bogus")
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            p.match(data, "bogus", repr_="bogus")
        if engine != "multipass":
            for repr_ in ("lists", "tstring"):
                with pytest.raises(ValueError, match=f"^representation '{repr_}' requires the multipass engine$"):
                    p.match(data, repr_=repr_)
        if engine != "tdfa":
            with pytest.raises(ValueError, match="^longest-prefix mode requires the tdfa engine$"):
                p.match(data, "prefix")


def test_compiled_pattern_reusable_and_deterministic():
    p = tdfa.compile("(a|b)*ab", multi="none")
    rng = Random(3)
    inputs = [bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 8))) for _ in range(50)]
    first = [p.match(d).values if p.match(d) else None for d in inputs]
    second = [p.match(d).values if p.match(d) else None for d in inputs]
    assert first == second


def test_match_counters_read_one_operation_and_one_tree_node_per_byte():
    data = b"a" * 20_000
    counters: dict = {}
    assert tdfa.compile("(?:#a)*").match(data, counters=counters)
    assert counters == {"transitions": 20_000, "operations": 20_000, "tree_nodes": 20_000, "fallback": 0}
    assert counters["operations"] / len(data) == 1.0
    # The multi-pass engine keeps backlinks, not a prefix tree.
    counters = {}
    assert tdfa.compile("(?:#a)*", engine="multipass").match(data, counters=counters)
    assert "tree_nodes" not in counters and "operations" not in counters


def test_simulation_counts_the_bytes_it_steps():
    # The simulation adds the bytes stepped before the input ended or no
    # configuration was left: 4 on a match, then 2 up to the dead "c".
    counters: dict = {}
    p = tdfa.compile("(?:#a)*b", engine="simulation")
    assert p.match(b"aaab", counters=counters)
    assert not p.match(b"aaca", counters=counters)
    assert counters == {"transitions": 6}
    # Every engine counts transitions so, dead ends included.
    rng = Random(5)
    for _ in range(40):
        pattern = gen_pattern(rng, max_nodes=6)
        patterns = [tdfa.compile(pattern, engine=e) for e in ("tdfa", "simulation", "multipass")]
        for data in all_inputs(b"abc", 3):
            stepped = []
            for p in patterns:
                counters = {}
                p.match(data, counters=counters)
                stepped.append(counters["transitions"])
            assert len(set(stepped)) == 1, (pattern, data, stepped)


def test_value_shape_per_engine_under_default_multi():
    # multi shapes only the tdfa engine; the simulation and multi-pass
    # offsets give each tag's last value, multi-pass lists every value.
    got = {e: tdfa.compile("(a)*#", engine=e).match(b"aa").values
           for e in ("tdfa", "simulation", "multipass")}
    assert got == {"tdfa": {1: [0, 1], 2: [1, 2], 3: 2},
                   "simulation": {1: 1, 2: 2, 3: 2},
                   "multipass": {1: 1, 2: 2, 3: 2}}
    lists = tdfa.compile("(a)*#", engine="multipass").match(b"aa", repr_="lists")
    assert lists.values == {1: [0, 1], 2: [1, 2], 3: [2]}
