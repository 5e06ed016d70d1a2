"""Patterns at the documented limits (bounds <= 1000) compile and match;
they never end in a RecursionError."""

import pytest

import tdfa


@pytest.mark.parametrize(
    "options", [{}, {"use_minimize": True, "fixed_tags": True}], ids=["default", "min-fixed"]
)
def test_tag_star_a1000_compiles_and_matches(options):
    p = tdfa.compile("(?:#a)*a{1000}", engine="tdfa", **options)
    m = p.match(b"a" * 1010)
    assert m.kind == "match"
    assert m.values == {1: list(range(10))}


@pytest.mark.parametrize("engine", ["tdfa", "multipass", "simulation"])
def test_alternation_of_2000_branches_compiles_and_matches(engine):
    p = tdfa.compile("|".join(["a"] * 2000), engine=engine)
    assert p.match(b"a").kind == "match"
    assert not p.match(b"aa")
