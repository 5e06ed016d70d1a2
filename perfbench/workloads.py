"""Seeded workloads: patterns, inputs and independently known answers.

Nothing here imports tdfa.  Every input is generated together with its
tagged string (the input interleaved with the tags a leftmost-greedy parse
passes, negative for tags it bypasses), which the generator knows because
it chose every field boundary.  All expected outcomes derive from that
tagged string, never from a tdfa engine.

The seed changes the content of the inputs and small details of the
patterns, not their sizes or shapes, so that runs with different seeds
measure the same amount of work.
"""

import random
from dataclasses import dataclass, field

from corpus import corpus_items

SYM = [bytes([b]) for b in range(256)]


def alt(chars: bytes) -> str:
    """A non-capturing alternation of single bytes (the syntax has no
    character classes)."""
    return "(?:" + "|".join(chr(c) for c in chars) + ")"


@dataclass
class PatSpec:
    key: str
    regex: str
    multi: str  # the multi= option passed to tdfa.compile
    multi_tags: frozenset  # tags that option makes multi-valued
    tags: tuple
    warm: bytes  # short input for the untimed warm-up match
    fixed_variant: bool = False  # also match with fixed_tags=True


@dataclass
class Row:
    """One input: its full-mode and prefix-mode forms and expected views."""

    key: str
    data: bytes
    prefix: bytes  # data + a tail that the pattern cannot complete
    tokens: list  # tagged string of data
    scan: bool = True  # timed on the tdfa and multipass engines
    simulate: bool = True  # timed on the simulation


@dataclass
class Workload:
    name: str
    specs: list
    rows: list
    corpus: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    row_passes: int = 1  # passes over the rows per pass over the corpus


def views(tokens: list, tags: tuple) -> tuple[dict, dict]:
    """(all offsets per tag with -1 for bypasses, last offset or None)."""
    hist: dict = {t: [] for t in tags}
    pos = 0
    for tok in tokens:
        if type(tok) is int:
            if tok > 0:
                hist[tok].append(pos)
            else:
                hist[-tok].append(-1)
        else:
            pos += 1
    last = {t: (h[-1] if h and h[-1] != -1 else None) for t, h in hist.items()}
    return hist, last


def tdfa_values(tokens: list, spec: PatSpec) -> dict:
    """Outcome values of the tdfa engine: lists for multi-valued tags."""
    lists, last = views(tokens, spec.tags)
    return {t: (lists[t] if t in spec.multi_tags else last[t]) for t in spec.tags}


def data_of(tokens: list) -> bytes:
    return b"".join(tok for tok in tokens if type(tok) is not int)


# -- tagged-string generators, one per pattern family ------------------------


def csv_tokens(rng, n: int, letters: bytes, max_field: int) -> list:
    """((?:L)+)(?:,((?:L)+))* over n bytes."""
    def fld():
        return [SYM[rng.choice(letters)] for _ in range(rng.randint(1, max_field))]

    toks = [1, *fld(), 2]
    size = len(toks) - 2
    more = False
    while size < n:
        f = fld()
        toks += [SYM[44], 3, *f, 4]
        size += 1 + len(f)
        more = True
    if not more:
        toks += [-3, -4]
    return toks


def ab_tokens(rng, n: int) -> list:
    return [SYM[rng.choice(b"ab")] for _ in range(n)]


def tag_star_tokens(n: int, tail_a: int = 0) -> list:
    """(?:#a)*a{tail_a} on a^(n + tail_a)."""
    toks = [1, SYM[97]] * n if n else [-1]
    return toks + [SYM[97]] * tail_a


def golden_tokens(m: int, j: int) -> list:
    """(a)*#(?:a|#b)#b* on a^m b^j, j >= 1: the star takes every a."""
    toks = [1, SYM[97], 2] * m if m else [-1, -2]
    return toks + [3, 4, SYM[98], 5] + [SYM[98]] * (j - 1)


def ab_tag_tokens(rng, w: int, k: int) -> list:
    """(a|b)*(?:#a){k} on w alternating symbols then a^k.

    The automaton's work depends on the lengths of the runs of a, so the
    seed picks only which symbol comes first."""
    first = rng.randrange(2)
    toks = []
    for i in range(w):
        toks += [1, SYM[b"ab"[(i + first) % 2]], 2]
    if not w:
        toks = [-1, -2]
    return toks + [3, SYM[97]] * k


def kv_tokens(rng, n: int) -> list:
    toks: list = []
    size = 0
    while size < n:
        key = [SYM[rng.choice(b"keyabc")] for _ in range(rng.randint(1, 8))]
        val = [SYM[rng.choice(b"val012")] for _ in range(rng.randint(0, 10))]
        toks += [1, *key, 2, SYM[61], 3, *val, 4, SYM[59]]
        size += len(key) + len(val) + 2
    return toks


LOG_LETTERS = b"abcdefghijklmnopqrstuvwxyz "


def log_tokens(rng, n: int) -> list:
    clock = b"%02d:%02d:%02d" % (rng.randrange(24), rng.randrange(60), rng.randrange(60))
    level = rng.choice([b"INFO", b"WARN", b"ERROR"])
    head = 10 + len(level)
    msg = [SYM[rng.choice(b"abcdefghijklmnopqrstuvwxyz")]]
    msg += [SYM[rng.choice(LOG_LETTERS)] for _ in range(max(0, n - head - 1))]
    return [1, *map(SYM.__getitem__, clock), 2, SYM[32], 3, *map(SYM.__getitem__, level), 4,
            SYM[32], 5, *msg, 6]


# -- workloads ---------------------------------------------------------------

CSV3 = "((?:a|b|c)+)(?:,((?:a|b|c)+))*"


def long_scan(seed: int) -> Workload:
    """A few patterns over long inputs: the execution loops do the work.

    The patterns span operations per byte, from none ((?:a|b)*) to about
    101 ((?:#a)*a{100}, on a smaller input).  Inputs are 120 KB so that a
    30-second run holds over ten passes.  Sizes vary by under 1% with the
    seed.  There are seven patterns: with an odd count, the medians over
    patterns fall on a pattern, not between two.
    """
    rng = random.Random(seed)
    n = 120_000
    n_sim = 6_000

    def size(base):
        return base + rng.randrange(base // 100 + 1)

    specs = [
        PatSpec("ab_star", "(?:a|b)*", "auto", frozenset(), (), b"abba"),
        PatSpec("ab_tag_ab", "(?:a|b)*#(?:a|b)*", "none", frozenset(), (1,), b"abba"),
        PatSpec("csv_none", CSV3, "none", frozenset(), (1, 2, 3, 4), b"ab,c"),
        PatSpec("csv_auto", CSV3, "auto", frozenset({3, 4}), (1, 2, 3, 4), b"ab,c"),
        PatSpec("tag_star", "(?:#a)*", "auto", frozenset({1}), (1,), b"aaa"),
        PatSpec("golden", "(a)*#(?:a|#b)#b*", "auto", frozenset({1, 2}), (1, 2, 3, 4, 5), b"aab"),
        PatSpec("tag_star_a100", "(?:#a)*a{100}", "auto", frozenset({1}), (1,), b"a" * 102),
    ]
    # (key, tagged-string generator for a given size, prefix-mode tail)
    plans = [
        ("ab_star", lambda m: ab_tokens(rng, m), b"c"),
        ("ab_tag_ab", lambda m: ab_tokens(rng, m) + [1], b"c"),
        ("csv_none", lambda m: csv_tokens(rng, m, b"abc", 8), b",d"),
        ("csv_auto", lambda m: csv_tokens(rng, m, b"abc", 8), b",d"),
        ("tag_star", lambda m: tag_star_tokens(m), b"b"),
        ("golden", lambda m: golden_tokens(m // 2, m - m // 2), b"c"),
        ("tag_star_a100", lambda m: tag_star_tokens(m // 15, 100), b"b"),
    ]
    rows = []
    for key, gen, tail in plans:
        for m, sim in ((size(n), False), (size(n_sim), True)):
            toks = gen(m)
            data = data_of(toks)
            # The long row is timed on every engine but the simulation; the
            # short one only on the simulation, the reference engine.
            rows.append(Row(key, data, data + tail, toks, scan=not sim, simulate=sim))
    return Workload("long-scan", specs, rows)


def short_records(seed: int) -> Workload:
    """Thousands of 20-200 byte records, one call each: per-call cost."""
    rng = random.Random(seed)
    csv_letters = b"abcdef012345"
    csv = "(" + alt(csv_letters) + "+)(?:,(" + alt(csv_letters) + "+))*"
    kv = "(?:(" + alt(b"keyabc") + "+)=(" + alt(b"val012") + "*);)+"
    d = alt(b"0123456789")
    log = f"({d}{{2}}:{d}{{2}}:{d}{{2}}) (INFO|WARN|ERROR) ({alt(LOG_LETTERS)}+)"
    specs = [
        PatSpec("csv", csv, "auto", frozenset({3, 4}), (1, 2, 3, 4), b"ab,c", True),
        PatSpec("kv", kv, "auto", frozenset({1, 2, 3, 4}), (1, 2, 3, 4), b"k=v;", True),
        PatSpec("log", log, "auto", frozenset(), (1, 2, 3, 4, 5, 6), b"00:00:00 INFO a", True),
    ]
    plans = {
        "csv": (lambda m: csv_tokens(rng, m, csv_letters, 10), b",!"),
        "kv": (lambda m: kv_tokens(rng, m), b"k=!"),
        "log": (lambda m: log_tokens(rng, m), b"\n"),
    }
    rows = []
    per_pattern = 1000
    for i in range(per_pattern * len(specs)):
        key = specs[i % len(specs)].key
        gen, tail = plans[key]
        toks = gen(20 + (i * 7919) % 161 + rng.randrange(20))
        data = data_of(toks)
        rows.append(Row(key, data, data + tail, toks, simulate=i % 20 == 0))
    return Workload("short-records", specs, rows)


def compile_corpus(seed: int) -> Workload:
    """Patterns compiled three ways each; matching is a small side part."""
    rng = random.Random(seed)
    items, probes = corpus_items(rng)
    specs = []
    rows = []
    for k in (10, 20, 40):
        key = f"tag_star_a{k}"
        specs.append(PatSpec(key, f"(?:#a)*a{{{k}}}", "auto", frozenset({1}), (1,), b"a" * (k + 1)))
        for j in range(0, 80, 4):
            toks = tag_star_tokens(j, k)
            rows.append(Row(key, data_of(toks), data_of(toks) + b"b", toks))
    for k in (10, 20, 30):
        key = f"ab_tag_a{k}"
        specs.append(PatSpec(key, f"(a|b)*(?:#a){{{k}}}", "auto", frozenset({1, 2, 3}), (1, 2, 3),
                             b"b" + b"a" * k))
        for w in range(0, 80, 4):
            toks = ab_tag_tokens(rng, w, k)
            rows.append(Row(key, data_of(toks), data_of(toks) + b"bc", toks))
    # The rows are short; six passes over them per corpus pass give the
    # match metrics enough time to settle.
    return Workload("compile-corpus", specs, rows, items, probes, row_passes=6)


WORKLOADS = {"long-scan": long_scan, "short-records": short_records, "compile-corpus": compile_corpus}
