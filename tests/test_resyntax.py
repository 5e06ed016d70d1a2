import pytest

from tdfa import resyntax
from tdfa.resyntax import (
    NAN,
    RIGHTMOST,
    Alt,
    Cat,
    Empty,
    ParseError,
    Rep,
    Sym,
    Tag,
    apply_fixed_tags,
    ast_to_json,
    auto_tag,
    find_fixed_tags,
    fixed_tags,
    isnan,
    parse_regex,
    strip_fixed_tags,
    tag_analysis,
)

A, B = ord("a"), ord("b")
GOLDEN = "(a)*#(?:a|#b)#b*"


def test_parse_capturing_star():
    assert parse_regex("(a)*") == Rep(Cat(Tag(1), Cat(Sym(A), Tag(2))), 0, None)


def test_parse_empty():
    assert parse_regex("") == Empty()


def test_parse_golden_has_five_tags():
    ast = parse_regex(GOLDEN)
    assert tag_analysis(ast)[0] == (1, 2, 3, 4, 5)
    # (1 a 2)* 3 (a | 4 b) 5 b*  -- concatenation folds balanced
    assert ast == Cat(
        Cat(Rep(Cat(Tag(1), Cat(Sym(A), Tag(2))), 0, None), Tag(3)),
        Cat(Alt(Sym(A), Cat(Tag(4), Sym(B))), Cat(Tag(5), Rep(Sym(B), 0, None))),
    )


def test_parse_operators():
    assert parse_regex("a+") == Rep(Sym(A), 1, None)
    assert parse_regex("a?") == Rep(Sym(A), 0, 1)
    assert parse_regex("a{3}") == Rep(Sym(A), 3, 3)
    assert parse_regex("a{2,}") == Rep(Sym(A), 2, None)
    assert parse_regex("a{2,5}") == Rep(Sym(A), 2, 5)
    assert parse_regex("a|") == Alt(Sym(A), Empty())
    assert parse_regex("\\#") == Sym(ord("#"))
    assert parse_regex("\\\\") == Sym(ord("\\"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_regex("a{3,2}")
    assert e.value.pos == 1
    with pytest.raises(ParseError):
        parse_regex("(a")
    with pytest.raises(ParseError):
        parse_regex("a)")
    with pytest.raises(ParseError):
        parse_regex("*a")
    with pytest.raises(ParseError):
        parse_regex("\\q")
    with pytest.raises(ParseError):
        parse_regex("a{1001}")


# One malformed pattern per error site of the parser, then the same sites
# after a run of plain bytes: (pattern, message, position).
PARSE_ERRORS = [
    ("a)", "unexpected ')'", 1),
    ("*a", "nothing to repeat", 0),
    ("}", "unbalanced '}'", 0),
    ("a\\q", "unknown escape", 2),
    ("a\\", "unknown escape", 2),
    ("(?:a|b", "expected ')'", 6),
    ("a{2x}", "expected ',' or '}' in repetition bounds", 3),
    ("a{2,3", "expected '}' in repetition bounds", 5),
    ("a{3,2}", "bad repetition bounds {3,2}", 1),
    ("a{,2}", "expected a number", 2),
    ("a{1,1001}", "repetition bound 1001 exceeds limit 1000", 8),
    ("abc)d", "unexpected ')'", 3),
    ("ab|+", "nothing to repeat", 3),
    ("abc}", "unbalanced '}'", 3),
    ("abc\\q", "unknown escape", 4),
    ("(abc", "expected ')'", 4),
    ("abc{", "expected a number", 4),
    ("abc**{", "expected a number", 6),
    ("xyz{12,3}", "bad repetition bounds {12,3}", 3),
]


@pytest.mark.parametrize("pattern, message, pos", PARSE_ERRORS)
def test_parse_error_table(pattern, message, pos):
    with pytest.raises(ParseError) as e:
        parse_regex(pattern)
    assert (str(e.value), e.value.pos) == (f"{message} at position {pos}", pos)


def test_auto_tag_symbol():
    assert auto_tag(Sym(A)) == Cat(Tag(1), Cat(Sym(A), Tag(2)))


def test_auto_tag_empty():
    assert auto_tag(Empty()) == Cat(Tag(1), Tag(2))


def test_auto_tag_alt_six_contiguous_tags():
    tagged = auto_tag(Alt(Sym(A), Sym(B)))
    assert tag_analysis(tagged)[0] == (1, 2, 3, 4, 5, 6)
    assert tagged == Cat(
        Tag(1),
        Cat(Alt(Cat(Tag(2), Cat(Sym(A), Tag(3))), Cat(Tag(4), Cat(Sym(B), Tag(5)))), Tag(6)),
    )


def test_auto_tag_rejects_tagged_input():
    with pytest.raises(ValueError):
        auto_tag(Tag(1))


def test_default_multi_tags():
    ast = parse_regex(GOLDEN)
    assert tag_analysis(ast)[1] == {1, 2}
    assert tag_analysis(parse_regex("(a){2}"))[1] == {1, 2}
    assert tag_analysis(parse_regex("(a)?"))[1] == frozenset()


def test_fixed_tags_golden():
    fixes = find_fixed_tags(parse_regex(GOLDEN))
    assert fixes == {1: (2, 1), 3: (5, 1)}


def test_fixed_tags_simple_concat():
    # #a# : the trailing tag fixes on the rightmost base, and the base
    # stays, so the leading tag fixes on it too (one symbol further).
    fixes = find_fixed_tags(parse_regex("#a#"))
    assert fixes == {2: (RIGHTMOST, 0), 1: (RIGHTMOST, 1)}


def test_fixed_tags_unequal_branches():
    # #(?:a|bb)# : branch lengths 1 != 2, so nothing is known across it.
    fixes = find_fixed_tags(parse_regex("#(?:a|bb)#"))
    assert 1 not in fixes
    assert fixes == {2: (RIGHTMOST, 0)}


def test_fixed_tags_equal_branches_fix_across():
    fixes = find_fixed_tags(parse_regex("#(?:ab|bb)#"))
    assert fixes == {2: (RIGHTMOST, 0), 1: (RIGHTMOST, 2)}


def test_fixed_tags_exact_repetition():
    fixes = find_fixed_tags(parse_regex("#a{3}#"))
    assert fixes == {2: (RIGHTMOST, 0), 1: (RIGHTMOST, 3)}


def test_fixed_tags_recursion_values():
    # Symbol advances both distances; NaN absorbs arithmetic.
    table = {}
    assert fixed_tags(Sym(A), RIGHTMOST, 0, 0, table) == (RIGHTMOST, 1, 1)
    base, dist, level = fixed_tags(Sym(A), None, NAN, 0, table)
    assert base is None and isnan(dist) and level == 1
    assert table == {}


def ast_size(e) -> int:
    match e:
        case Alt(l, r) | Cat(l, r):
            return 1 + ast_size(l) + ast_size(r)
        case Rep(b, _, _):
            return 1 + ast_size(b)
        case _:
            return 1


def test_fixed_tags_linear_visits(monkeypatch):
    ast = parse_regex("(a)*#(?:a|#b)#b*(ab(?:a|b))+")
    visits = []

    def counting(e, *args):
        visits.append(e)
        return fixed_tags(e, *args)

    monkeypatch.setattr(resyntax, "fixed_tags", counting)
    find_fixed_tags(ast)
    assert 0 < len(visits) <= ast_size(ast)


def test_same_level_fixation_only():
    # A tag inside a repetition is never fixed on one outside it.
    fixes = find_fixed_tags(parse_regex("(?:#a)*#"))
    assert 1 not in fixes


def test_strip_fixed_tags():
    ast = parse_regex(GOLDEN)
    stripped = strip_fixed_tags(ast, {1, 3})
    assert tag_analysis(stripped)[0] == (2, 4, 5)


def test_apply_fixed_tags_scalar():
    fixes = {1: (2, 1)}
    assert apply_fixed_tags({2: 2}, fixes, 3) == {1: 1, 2: 2}
    assert apply_fixed_tags({2: None}, fixes, 3) == {1: None, 2: None}


def test_apply_fixed_tags_rightmost():
    assert apply_fixed_tags({}, {7: (RIGHTMOST, 2)}, 5) == {7: 3}


def test_apply_fixed_tags_lists():
    fixes = {1: (2, 1)}
    out = apply_fixed_tags({2: [1, 2, -1]}, fixes, 3)
    assert out[1] == [0, 1, -1]


def test_ast_json_roundtrippable_shape():
    doc = ast_to_json(parse_regex("(a)*"))
    assert doc["kind"] == "rep" and doc["body"]["kind"] == "cat"
