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
