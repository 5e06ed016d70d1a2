"""Identity gate for the front end: the parser, the tag analyses and the
fixed-tag strip.

tests/ast_pins.json maps each pattern to the sha256 of one JSON document
that holds `ast_to_json` of its parse, of its `auto_tag` (untagged
patterns only), and of `strip_fixed_tags(ast, find_fixed_tags(ast))`, with
the values of `tag_analysis` (tags and multi-valued tags) and
`find_fixed_tags`.
The corpus is 600 `gen_pattern(Random(22))` patterns, the identity pins'
EXTRA and TNFA_LARGE patterns, and 60 `gen_set_pattern(Random(22))`
patterns, whose byte alternations sit next to lone bytes.  The TNFA and
every automaton read this AST, so a change that alters any of it fails
here; if the change is intended, say why and re-record the pins.
"""

import hashlib
import json
from pathlib import Path
from random import Random

from helpers import gen_set_pattern
from test_identity import EXTRA, TNFA_LARGE

from tdfa.fuzz import gen_pattern
from tdfa.resyntax import (
    ast_to_json,
    auto_tag,
    find_fixed_tags,
    parse_regex,
    strip_fixed_tags,
    tag_analysis,
)

PINS = json.loads((Path(__file__).parent / "ast_pins.json").read_text())


def corpus() -> list[str]:
    rng = Random(22)
    out = [gen_pattern(rng) for _ in range(600)] + EXTRA + list(TNFA_LARGE)
    rng = Random(22)
    return out + [gen_set_pattern(rng) for _ in range(60)]


def front_end_digest(pattern: str) -> str:
    ast = parse_regex(pattern)
    tags, multi = tag_analysis(ast)
    fixes = find_fixed_tags(ast)
    doc = {
        "ast": ast_to_json(ast),
        "auto_tag": None if tags else ast_to_json(auto_tag(ast)),
        "stripped": ast_to_json(strip_fixed_tags(ast, set(fixes))),
        "tags": tags,
        "multi": sorted(multi),
        "fixes": sorted(fixes.items()),
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_pinned_corpus():
    assert list(PINS) == list(dict.fromkeys(corpus()))


def test_front_end_outputs_identical():
    assert [p for p, digest in PINS.items() if front_end_digest(p) != digest] == []
