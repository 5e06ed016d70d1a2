"""Patterns at the documented limits (bounds <= 1000) compile and match;
nesting deeper than the recursion limit allows fails as ResourceLimit, never
as a RecursionError."""

import time
import tracemalloc

import pytest
from helpers import WIDE_SET

import tdfa
from tdfa.cli import main
from tdfa.resyntax import parse_regex
from tdfa.tnfa import build_tnfa

ENGINES = {
    "tdfa": {"engine": "tdfa"},
    "min-fixed": {"engine": "tdfa", "use_minimize": True, "fixed_tags": True},
    "multipass": {"engine": "multipass"},
    "simulation": {"engine": "simulation"},
}
NEST600 = "(" * 600 + "a" + ")" * 600
STAR3000 = "a" + "*" * 3000


@pytest.mark.parametrize(
    "options",
    [{"engine": "tdfa"}, {"engine": "tdfa", "use_minimize": True, "fixed_tags": True}, {"engine": "multipass"}],
    ids=["default", "min-fixed", "multipass"],
)
def test_tag_star_a1000_compiles_and_matches(options):
    p = tdfa.compile("(?:#a)*a{1000}", **options)
    data = b"a" * 1010
    m = p.match(data)
    assert m.kind == "match"
    if options["engine"] == "multipass":
        assert m.values == {1: 9}
        m = p.match(data, repr_="lists")
        assert m.kind == "match"
    assert m.values == {1: list(range(10))}
    assert not p.match(b"a" * 999)


@pytest.mark.parametrize("engine", ["tdfa", "multipass"])
def test_tag_star_a500_compile_peak_memory_under_8mb(engine):
    # The states of (?:#a)*a{k} hold O(k^2) rows, but only O(k) distinct
    # ones.  With rows shared across states the traced peak is about 3 MB;
    # one object per row took 18 MB (tdfa) and 24 MB (multipass).
    tracemalloc.start()
    try:
        tdfa.compile("(?:#a)*a{500}", engine=engine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_tnfa_of_100k_states_holds_under_16mb():
    # One arc (class, target) per symbol state: about 10.6 MB for the
    # 100,001 states, where a dict per state held 27.4 MB.
    ast = parse_regex("(?:a{1000}){100}")
    tracemalloc.start()
    try:
        nfa = build_tnfa(ast)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert nfa.n_states == 100_001
    assert current < 16_000_000


def test_tnfa_build_of_100k_states_peaks_under_16mb():
    # The builder renumbers its state list in place and drops each symbol
    # triple as its arc is made: about 12 MB at the peak, where a second
    # renumbered list and the triples alive to the end peaked at 21.6 MB.
    ast = parse_regex("(?:a{1000}){100}")
    tracemalloc.start()
    try:
        nfa = build_tnfa(ast)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nfa.n_states == 100_001
    assert peak < 16_000_000


@pytest.mark.parametrize("engine", ["tdfa", "multipass"])
def test_256_class_set_under_a_loop_compiles_in_seconds(engine):
    # One TNFA state per set: a step's closure per class walks no chain of
    # the set's classes.  About 1.5 s (tdfa) and 0.6 s (multipass) on a
    # 2-CPU host; a fork chain per set took 25-45 s on each.
    start = time.perf_counter()
    p = tdfa.compile(WIDE_SET, engine=engine)
    assert time.perf_counter() - start < 8
    # the loop runs greedily to the last backslash
    assert p.match(b"ab\\" + bytes(range(256))).values == {1: 95}
    assert not p.match(b"ab")


@pytest.mark.parametrize("engine", ["tdfa", "multipass", "simulation"])
def test_alternation_of_2000_branches_compiles_and_matches(engine):
    p = tdfa.compile("|".join(["a"] * 2000), engine=engine)
    assert p.match(b"a").kind == "match"
    assert not p.match(b"aa")


@pytest.mark.parametrize("options", ENGINES.values(), ids=ENGINES.keys())
def test_600_nested_groups_fail_as_resource_limit(options):
    with pytest.raises(tdfa.ResourceLimit, match="nested"):
        tdfa.compile(NEST600, **options)


@pytest.mark.parametrize("options", ENGINES.values(), ids=ENGINES.keys())
def test_3000_stacked_stars_fail_as_resource_limit(options):
    with pytest.raises(tdfa.ResourceLimit, match="nested"):
        tdfa.Pattern(STAR3000, **options)


@pytest.mark.parametrize("pattern", [NEST600, STAR3000], ids=["nest600", "star3000"])
def test_cli_nesting_past_the_recursion_limit_exits_four(capsys, pattern):
    assert main(["match", pattern, "a"]) == 4
    assert "nested" in capsys.readouterr().err
