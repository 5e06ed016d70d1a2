"""Python `re` as an oracle that shares no code with tdfa, on patterns built
from overlapping byte alternations.

The fuzz gate's reference, the simulation, runs on the same TNFA as every
other engine, so a fault in how the builder turns an alternation of single
bytes into symbol classes would not show there.  `re` is a backtracking
matcher with the same leftmost-greedy rule; a tag `#` is written as an
empty group `()`.  It disagrees with tdfa on two known classes of patterns
(`diverges`), which the corpus leaves out.
"""

import re
from itertools import product
from random import Random

import tdfa
from tdfa.fuzz import _last

ALPHABET = b"abcd"
REPS = ((0, None), (1, None), (0, 1), (1, 3), (2, 3), (0, 2), (2, 2))
SET = re.compile(r"\(\?:(?:[a-d]\|)+[a-d]\)")  # an alternation of single bytes


def gen(rng: Random, depth: int = 0):
    """A pattern tree: ("set", bytes) an alternation of single bytes, in
    random order, ("lit", bytes), ("tag",), ("cap", node), ("cat", nodes),
    ("alt", nodes) and ("rep", node, lo, hi), hi None for unbounded."""
    r = rng.random()
    if depth >= 3 or r < 0.35:
        r = rng.random()
        if r < 0.55:
            return ("set", bytes(rng.sample(ALPHABET, rng.randint(2, 4))))
        if r < 0.85:
            return ("lit", bytes(rng.choices(ALPHABET, k=rng.randint(1, 2))))
        return ("tag",)
    if r < 0.55:
        return ("cat", [gen(rng, depth + 1) for _ in range(rng.randint(2, 3))])
    if r < 0.7:
        return ("cap", gen(rng, depth + 1))
    if r < 0.8:
        return ("alt", [gen(rng, depth + 1) for _ in range(2)])
    return ("rep", gen(rng, depth + 1), *rng.choice(REPS))


def render(node) -> tuple[str, str, dict]:
    """(tdfa pattern, re pattern, tag -> (re group, 0 for its start or 1
    for its end)).  Tags and groups are both numbered in textual order."""
    tagmap: dict = {}
    groups = 0

    def go(n) -> str:
        nonlocal groups
        kind = n[0]
        if kind == "set":
            return "(?:" + "|".join(map(chr, n[1])) + ")"
        if kind == "lit":
            return n[1].decode()
        if kind == "tag":
            groups += 1
            tagmap[len(tagmap) + 1] = (groups, 0)
            return "#"
        if kind == "cap":
            groups += 1
            g = groups
            tagmap[len(tagmap) + 1] = (g, 0)
            body = go(n[1])
            tagmap[len(tagmap) + 1] = (g, 1)
            return "(" + body + ")"
        if kind == "cat":
            return "".join(map(go, n[1]))
        if kind == "alt":
            return "(?:" + "|".join(map(go, n[1])) + ")"
        _, body, lo, hi = n
        op = {(0, None): "*", (1, None): "+"}.get((lo, hi), f"{{{lo},{hi}}}")
        return "(?:" + go(body) + ")" + op

    pattern = go(node)
    return pattern, pattern.replace("#", "()"), tagmap


def tag_count(node) -> tuple[int, int, bool]:
    """(tags, tags on every path, nullable)."""
    kind = node[0]
    if kind in ("set", "lit"):
        return 0, 0, False
    if kind == "tag":
        return 1, 1, True
    if kind == "cap":
        every, must, null = tag_count(node[1])
        return every + 2, must + 2, null
    if kind == "rep":
        every, must, null = tag_count(node[1])
        return every, must if node[2] else 0, null or not node[2]
    parts = [tag_count(c) for c in node[1]]
    every = sum(p[0] for p in parts)
    if kind == "cat":
        return every, sum(p[1] for p in parts), all(p[2] for p in parts)
    return every, 0, any(p[2] for p in parts)  # alt: no tag on every path


def diverges(node) -> bool:
    """A repeated body with tags that can match empty (`re` takes one more,
    empty iteration), or with a tag some iteration can bypass (`re` keeps
    that group's earlier value, tdfa resets it)."""
    kind = node[0]
    if kind == "rep" and node[3] != 1:
        every, must, null = tag_count(node[1])
        if every and (null or must < every):
            return True
    if kind in ("cat", "alt"):
        return any(map(diverges, node[1]))
    return kind in ("cap", "rep") and diverges(node[1])


def sample(node, rng: Random) -> bytes:
    kind = node[0]
    if kind == "set":
        return bytes([rng.choice(node[1])])
    if kind == "lit":
        return node[1]
    if kind == "tag":
        return b""
    if kind == "cap":
        return sample(node[1], rng)
    if kind == "cat":
        return b"".join(sample(c, rng) for c in node[1])
    if kind == "alt":
        return sample(rng.choice(node[1]), rng)
    _, body, lo, hi = node
    return b"".join(sample(body, rng) for _ in range(rng.randint(lo, lo + 3 if hi is None else hi)))


def oracle(rx, tagmap: dict, data: bytes, mode: str):
    """(kind, end, last values) from `re`; prefix mode tries the prefixes
    longest first."""
    for end in range(len(data), -1 if mode == "prefix" else len(data) - 1, -1):
        m = rx.fullmatch(data[:end])
        if m is not None:
            vals = {t: (m.start(g) if side == 0 else m.end(g)) for t, (g, side) in tagmap.items()}
            return ("match" if end == len(data) else "prefix"), end, {t: _last(v) for t, v in vals.items()}
    return "none", None, {}


def outcome(out) -> tuple:
    return out.kind, out.end, {t: _last(v) for t, v in out.values.items()}


def test_engines_agree_with_re_on_byte_alternations():
    rng = Random(2026)
    checked = excluded = sets = 0
    while checked < 250:
        node = gen(rng)
        pattern, re_pattern, tagmap = render(node)
        if diverges(node):
            excluded += 1
            continue
        checked += 1
        sets += bool(SET.search(pattern))
        rx = re.compile(re_pattern.encode())
        inputs = {sample(node, rng) for _ in range(6)}
        inputs |= {s + bytes([c]) for s in list(inputs) for c in ALPHABET}
        inputs |= {bytes(w) for k in range(3) for w in product(ALPHABET, repeat=k)}
        tdfa_engines = [tdfa.compile(pattern), tdfa.compile(pattern, use_minimize=True, fixed_tags=True)]
        full_engines = tdfa_engines + [tdfa.compile(pattern, engine="multipass"),
                                       tdfa.compile(pattern, engine="simulation")]
        for data in inputs:
            want = oracle(rx, tagmap, data, "full")
            for p in full_engines:
                assert outcome(p.match(data)) == want, (pattern, data, p.engine)
            want = oracle(rx, tagmap, data, "prefix")
            for p in tdfa_engines:
                assert outcome(p.match(data, mode="prefix")) == want, (pattern, data, "prefix")
    # The exclusion leaves most of the corpus, and most patterns have sets.
    assert excluded < checked // 2 and sets > checked // 2, (excluded, sets)
