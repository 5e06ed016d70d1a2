"""The compile corpus and its oracle, Python's `re` module.

Patterns are built as small syntax trees so that each one renders both in
tdfa syntax and in `re` syntax (a `#` tag becomes an empty group `()`), and
so that matching inputs can be sampled from them.  `re` is a leftmost-
greedy backtracker that shares no code with tdfa.  It disagrees with tdfa
on two known classes of patterns, which `diverges` names; outputs of those
patterns are only cross-checked between tdfa configurations.

Nodes are tuples: ("lit", bytes), ("alt", [nodes]), ("cat", [nodes]),
("cap", node) a capturing group, ("tag",) a standalone tag, and
("rep", node, lo, hi) with hi None for unbounded.
"""

import re
from dataclasses import dataclass


def lit(s: bytes):
    return ("lit", s)


def chars(cs: bytes):
    return ("alt", [lit(bytes([c])) for c in cs])


def cat(*nodes):
    return ("cat", list(nodes))


def rep(node, lo, hi):
    return ("rep", node, lo, hi)


def render(node) -> tuple[str, str, dict]:
    """(tdfa pattern, re pattern, tag -> (re group, 0 for start / 1 for end)).

    Tags are numbered in textual order, as tdfa numbers them; re groups are
    numbered by their opening parenthesis."""
    tagmap: dict = {}
    ngroups = 0

    def go(n) -> tuple[str, str]:
        nonlocal ngroups
        kind = n[0]
        if kind == "lit":
            s = "".join("\\" + chr(c) if chr(c) in "()[]{}|*+?.\\^$#" else chr(c) for c in n[1])
            return s, s
        if kind == "alt":
            parts = [go(c) for c in n[1]]
            return "(?:" + "|".join(p[0] for p in parts) + ")", "(?:" + "|".join(p[1] for p in parts) + ")"
        if kind == "cat":
            parts = [go(c) for c in n[1]]
            return "".join(p[0] for p in parts), "".join(p[1] for p in parts)
        if kind == "tag":
            ngroups += 1
            tagmap[len(tagmap) + 1] = (ngroups, 0)
            return "#", "()"
        if kind == "cap":
            ngroups += 1
            g = ngroups
            tagmap[len(tagmap) + 1] = (g, 0)
            a, b = go(n[1])
            tagmap[len(tagmap) + 1] = (g, 1)
            return "(" + a + ")", "(" + b + ")"
        _, body, lo, hi = n
        a, b = go(body)
        if body[0] in ("cat", "rep", "tag") or (body[0] == "lit" and len(body[1]) != 1):
            a, b = "(?:" + a + ")", "(?:" + b + ")"
        op = {(0, None): "*", (1, None): "+", (0, 1): "?"}.get((lo, hi))
        if op is None:
            op = f"{{{lo}}}" if lo == hi else f"{{{lo},}}" if hi is None else f"{{{lo},{hi}}}"
        return a + op, b + op

    a, b = go(node)
    return a, b, tagmap


def sample(node, rng) -> bytes:
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "alt":
        return sample(rng.choice(node[1]), rng)
    if kind == "cat":
        return b"".join(sample(c, rng) for c in node[1])
    if kind == "tag":
        return b""
    if kind == "cap":
        return sample(node[1], rng)
    _, body, lo, hi = node
    count = rng.randint(lo, lo + 3 if hi is None else min(hi, lo + 3))
    return b"".join(sample(body, rng) for _ in range(count))


def diverges(node) -> bool:
    """True for patterns in one of the two classes where `re` and tdfa
    disagree: a repeated body that has tags and can match empty (`re`
    takes one more, empty iteration), or a repeated body with a tag that
    some iteration can bypass (`re` keeps that group's earlier value, tdfa
    resets it)."""
    kind = node[0]
    if kind == "rep" and node[3] != 1:
        every, must, null = _tag_count(node[1])
        if every and (null or must < every):
            return True
    if kind in ("alt", "cat"):
        return any(diverges(c) for c in node[1])
    if kind in ("cap", "rep"):
        return diverges(node[1])
    return False


def _tag_count(node) -> tuple[int, int, bool]:
    """(number of tags, number on every path, nullable)."""
    kind = node[0]
    if kind == "lit":
        return 0, 0, not node[1]
    if kind == "tag":
        return 1, 1, True
    if kind == "cap":
        every, must, null = _tag_count(node[1])
        return every + 2, must + 2, null
    if kind in ("alt", "cat"):
        parts = [_tag_count(c) for c in node[1]]
        every = sum(p[0] for p in parts)
        if kind == "cat":
            return every, sum(p[1] for p in parts), all(p[2] for p in parts)
        # Tags of different branches are distinct, so none is on every path
        # unless there is a single branch.
        must = parts[0][1] if len(parts) == 1 else 0
        return every, must, any(p[2] for p in parts)
    every, must, null = _tag_count(node[1])
    return every, (must if node[2] >= 1 else 0), null or node[2] == 0


def multi_tags(node) -> frozenset:
    """Tags under a repetition that can run more than once: the tags
    multi="auto" keeps all offsets of."""
    out = set()
    counter = 0

    def go(n, repeated):
        nonlocal counter
        kind = n[0]
        if kind == "tag":
            counter += 1
            if repeated:
                out.add(counter)
        elif kind == "cap":
            counter += 1
            if repeated:
                out.add(counter)
            go(n[1], repeated)
            counter += 1
            if repeated:
                out.add(counter)
        elif kind in ("alt", "cat"):
            for c in n[1]:
                go(c, repeated)
        elif kind == "rep":
            go(n[1], repeated or n[3] is None or n[3] > 1)

    go(node, False)
    return frozenset(out)


@dataclass
class Item:
    """One corpus pattern: compiled three ways each pass."""

    key: str
    regex: str
    re_regex: str | None  # None when the pattern is in a divergence class
    tagmap: dict
    multi_tags: frozenset
    inputs: list  # check inputs (bytes); some do not match


def oracle(item: Item, data: bytes):
    """Expected (kind, end, last values) from `re`, or None for no match.

    Longest-prefix mode is answered by trying the prefixes longest first."""
    rx = re.compile(item.re_regex.encode())
    for end in range(len(data), -1, -1):
        m = rx.fullmatch(data[:end])
        if m is not None:
            vals = {t: (m.start(g) if side == 0 else m.end(g)) for t, (g, side) in item.tagmap.items()}
            vals = {t: (None if v < 0 else v) for t, v in vals.items()}
            return ("match" if end == len(data) else "prefix"), end, vals
    return None


WORDS = [b"GET", b"PUT", b"POST", b"HEAD", b"INFO", b"WARN", b"ERROR", b"DEBUG", b"OK", b"FAIL",
         b"TRACE", b"PATCH", b"NOTE", b"DROP", b"KEEP", b"SEND"]
DELIMS = b":/=- "


def record_pattern(rng, slot: int):
    """A record-style pattern: 3-6 delimited segments, each a capture of a
    literal-word alternation, a counted repetition (bounds up to 30), an
    optional group, a starred group, or a tag before a word.  Every sixth
    slot adds a segment in a divergence class.  The slot fixes the shape;
    the seed picks words, letters and exact bounds."""
    segments = []
    for j in range(3 + slot % 4):
        kind = (slot + j) % 5
        if kind == 0:
            words = rng.sample(WORDS, 2 + (slot + j) % 4)
            seg = ("cap", ("alt", [lit(w) for w in words]))
        elif kind == 1:
            hi = 4 + (slot * 7 + j * 3 + rng.randrange(3)) % 27
            seg = ("cap", rep(chars(bytes(rng.sample(b"0123456789", 4))), 1 + hi // 3, hi))
        elif kind == 2:
            seg = rep(cat(lit(b";"), ("cap", rep(chars(bytes(rng.sample(b"abcdefgh", 3))), 1, None))), 0, 1)
        elif kind == 3:
            seg = rep(cat(lit(b","), ("cap", rep(chars(bytes(rng.sample(b"0123456789", 3))), 1, None))), 0, None)
        else:
            seg = cat(("tag",), rep(chars(bytes(rng.sample(b"ijklmnop", 3))), 1, None))
        segments.append(seg)
    if slot % 6 == 5:
        segments.append(rep(("alt", [("cap", lit(b"x")), lit(b"y")]), 0, None))
    parts = []
    for j, seg in enumerate(segments):
        if j:
            parts.append(lit(bytes([DELIMS[(slot + j) % len(DELIMS)]])))
        parts.append(seg)
    return ("cat", parts)


def tag_star_a(k: int):
    """(?:#a)*a{k}, the paper's family that makes optimizing cost about k^2.4."""
    return cat(rep(cat(("tag",), lit(b"a")), 0, None), rep(lit(b"a"), k, k))


def ab_tag_a(k: int):
    """(a|b)*(?:#a){k}."""
    return cat(rep(("cap", chars(b"ab")), 0, None), rep(cat(("tag",), lit(b"a")), k, k))


def make_item(key: str, node, rng) -> Item:
    regex, re_regex, tagmap = render(node)
    inputs = [sample(node, rng) for _ in range(3)]
    # One input a pattern cannot complete, for longest-prefix checks and
    # for a no-match answer in full mode.
    inputs.append(inputs[0] + sample(node, rng)[:2] + b"!")
    return Item(key, regex, None if diverges(node) else re_regex, tagmap, multi_tags(node), inputs)


@dataclass
class Probe:
    """A pattern within the documented limits that tests robustness.

    `data` is one input and `values` its expected last values per tag."""

    key: str
    regex: str
    data: bytes
    values: dict


def probes() -> list:
    n = 600
    nested = {t: 0 for t in range(1, n + 1)}
    nested.update({t: 1 for t in range(n + 1, 2 * n + 1)})
    return [
        Probe("alt2000", "|".join(["a"] * 2000), b"a", {}),
        Probe("nest600", "(" * n + "a" + ")" * n, b"a", nested),
        Probe("star3000", "a" + "*" * 3000, b"aaa", {}),
        Probe("tag_star_a1000", "(?:#a)*a{1000}", b"a" * 1004, {1: 3}),
    ]


def corpus_items(rng) -> tuple[list, list]:
    items = [make_item(f"record{slot:02d}", record_pattern(rng, slot), rng) for slot in range(24)]
    for i in range(10):
        k = 10 + 20 * i + rng.randrange(3)
        items.append(make_item(f"tag_star_a{k}", tag_star_a(k), rng))
    for i in range(6):
        k = 10 + 10 * i + rng.randrange(3)
        items.append(make_item(f"ab_tag_a{k}", ab_tag_a(k), rng))
    return items, probes()
