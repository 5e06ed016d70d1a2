"""Randomized cross-checking of every engine against the simulation.

Patterns are generated as concrete syntax strings, compiled in every
configuration of MATCH_FLAGS from the `tdfa match` arguments that a
divergence's reproduce hint prints (so any counterexample replays from the
command line), and matched against every input up to a length bound and a
long run of each symbol; the tagged NFA simulation, which keeps every
tag's offset list, is the one reference for match results and tag values.
In longest-prefix mode the reference is the simulation's match of the
longest prefix of the input that matches.
"""

import shlex
from dataclasses import dataclass
from itertools import chain, product
from random import Random

from .cli import _compile, build_parser
from .resyntax import parse_regex, tag_analysis
from .runtime import NO_MATCH, MatchOutcome
from .tnfa import build_tnfa, simulate

_ESCAPE = set("|()*+?{}#\\")

# The `tdfa match` flags of each configuration cross_check runs, its only
# record; the tdfa ones also take the pattern's --multi.
MATCH_FLAGS = {
    "tdfa-raw": ["--opt=none"],
    "tdfa-opt": [],
    "tdfa-min": ["--minimize"],
    "tdfa-fixed": ["--fixed-tags"],
    "tdfa-raw-prefix": ["--opt=none", "--mode=prefix"],
    "tdfa-opt-prefix": ["--mode=prefix"],
    "tdfa-min-prefix": ["--minimize", "--mode=prefix"],
    "tdfa-fixed-prefix": ["--fixed-tags", "--mode=prefix"],
    "multipass": ["--engine=multipass"],
    "multipass-lists": ["--engine=multipass", "--repr=lists"],
    "multipass-tstring": ["--engine=multipass", "--repr=tstring"],
}
_PARSER = build_parser()


def match_argv(engine: str, pattern: str, multi, *data: str) -> list[str]:
    """The `tdfa match` arguments that run one configuration of MATCH_FLAGS."""
    flags = MATCH_FLAGS[engine]
    if engine.startswith("tdfa"):
        if not isinstance(multi, str):
            multi = ",".join(map(str, sorted(multi))) or "none"
        flags = flags + [f"--multi={multi}"]
    # "--": a pattern or input may start with "-"
    return ["match", *flags, "--", pattern, *data]


@dataclass
class Divergence:
    pattern: str
    engine: str
    data: bytes
    detail: str
    multi: str | frozenset  # what the tdfa engines ran with

    def __str__(self):
        return (
            f"engine {self.engine} diverges on pattern {self.pattern!r} "
            f"input {self.data!r}: {self.detail}"
        )

    def reproduce(self) -> str:
        """The `tdfa match` command line that replays this configuration."""
        return shlex.join(["tdfa", *match_argv(self.engine, self.pattern, self.multi, self.data.decode())])


def gen_pattern(rng: Random, max_nodes: int = 10, max_tags: int = 6,
                alphabet: str = "ab", max_rep: int = 3) -> str:
    """Random pattern within the size limits."""
    budget = [rng.randint(1, max_nodes)]
    tags = [max_tags]

    def atom() -> str:
        budget[0] -= 1
        roll = rng.random()
        if roll < 0.15 and tags[0] > 0:
            tags[0] -= 1
            return "#"
        if roll < 0.25 and budget[0] > 0:
            if rng.random() < 0.4 and tags[0] >= 2:
                tags[0] -= 2
                return "(" + alternation() + ")"
            return "(?:" + alternation() + ")"
        ch = rng.choice(alphabet)
        if ch in _ESCAPE:
            return "\\" + ch
        # The parser reads bytes: a group makes a postfix operator repeat
        # the whole UTF-8 form of a character, not its last byte.
        return "(?:" + ch + ")" if len(ch.encode()) > 1 else ch

    def postfix() -> str:
        a = atom()
        if rng.random() < 0.3:
            budget[0] -= 1
            roll = rng.random()
            if roll < 0.4:
                return a + "*"
            if roll < 0.55:
                return a + "+"
            if roll < 0.7:
                return a + "?"
            lo = rng.randint(0, max_rep)
            if roll < 0.8:
                return a + "{%d}" % max(lo, 1)
            hi = rng.randint(lo, max_rep)
            return a + "{%d,%d}" % (lo, hi)
        return a

    def concat() -> str:
        parts = [postfix()]
        while budget[0] > 0 and rng.random() < 0.6:
            parts.append(postfix())
        return "".join(parts)

    def alternation() -> str:
        out = concat()
        while budget[0] > 0 and rng.random() < 0.25:
            budget[0] -= 1
            out += "|" + concat()
        return out

    return alternation()


def all_inputs(alphabet: str, max_len: int):
    """Every string of up to max_len characters of the alphabet, as UTF-8."""
    for n in range(max_len + 1):
        for combo in product(alphabet, repeat=n):
            yield "".join(combo).encode()


# Long inputs reach the loop summaries of both engines (a tdfa bulk loop, a
# multipass tagged run), which the short exhaustive inputs enter for a few
# bytes only: each symbol of the alphabet repeated LONG_RUN times.
LONG_RUN = 40


def input_count(alphabet: str, max_len: int) -> int:
    """How many inputs cross_check runs per configuration: every string of
    up to max_len characters and the long runs."""
    return sum(len(alphabet) ** n for n in range(max_len + 1)) + len(alphabet)


def _last(value):
    """Normalize to the last-offset view: -1 and empty lists become nil."""
    if isinstance(value, list):
        value = value[-1] if value else None
    return None if value == -1 else value


def _lists_from_tstring(tokens, tags) -> dict:
    lists: dict[int, list] = {t: [] for t in tags}
    pos = 0
    for tok in tokens:
        if isinstance(tok, int):
            lists[abs(tok)].append(pos if tok > 0 else -1)
        else:
            pos += 1
    return lists


def cross_check(pattern: str, alphabet: str = "ab", max_len: int = 6, multi: str = "auto"):
    """Compare every configuration of MATCH_FLAGS with the simulation on all
    inputs up to max_len characters and on one run of LONG_RUN per symbol;
    returns a Divergence or None.

    The simulation gives every tag's offset list, and each configuration
    must report its view of them: whole lists for the tags it reports
    whole (multipass lists and tagged strings, the tdfa engine's multi
    tags), last values for the rest.  Each configuration is compiled by the
    command line from the arguments its reproduce hint prints; those that
    differ only in repr or mode share one compile."""
    nfa = build_tnfa(parse_regex(pattern))
    tags = nfa.tags
    compiled: dict = {}
    runs = {}  # configuration -> (compiled pattern, repr, mode, tags reported whole)
    for name in MATCH_FLAGS:
        args = _PARSER.parse_args(match_argv(name, pattern, multi))
        key = tuple(v for k, v in vars(args).items() if k not in ("repr", "mode"))
        if key not in compiled:
            compiled[key] = _compile(args)
        p = compiled[key]
        whole = p.multi if p.engine == "tdfa" else tags if args.repr != "offsets" else ()
        runs[name] = (p, args.repr, args.mode, whole)

    def diverge(engine, data, detail):
        return Divergence(pattern, engine, data, detail, multi)

    raw, opt = runs["tdfa-raw"][0].tdfa, runs["tdfa-opt"][0].tdfa
    if opt.register_count() > raw.register_count() or opt.op_count() > raw.op_count():
        return diverge("tdfa-opt", b"", "optimization increased registers or operations")

    def simulate_lists(data):
        values = simulate(nfa, data, tags)
        return NO_MATCH if values is None else MatchOutcome("match", len(data), values)

    # The simulation's match of the longest prefix of each input that
    # matches.  Every prefix of an exhaustive input comes before it, and a
    # pattern matches whole characters only, so dropping the last character
    # reaches the next shorter prefix that can match.
    longest: dict[bytes, MatchOutcome] = {}

    def longest_prefix(data, want):
        if want or not data:
            return want
        shorter = data.decode()[:-1].encode()
        if shorter not in longest:  # a prefix of a LONG_RUN input
            longest[shorter] = longest_prefix(shorter, simulate_lists(shorter))
        return longest[shorter]

    long_inputs = [(ch * LONG_RUN).encode() for ch in alphabet]
    for data in chain(all_inputs(alphabet, max_len), long_inputs):
        want = simulate_lists(data)
        best = longest[data] = longest_prefix(data, want)
        if best and best.end < len(data):
            best = MatchOutcome("prefix", best.end, best.values)
        for name, (p, repr_, mode, whole) in runs.items():
            exp = best if mode == "prefix" else want
            got = p.match(data, mode=mode, repr_=repr_)
            if (got.kind, got.end) != (exp.kind, exp.end):
                return diverge(name, data, f"{got.kind} at {got.end} != {exp.kind} at {exp.end}")
            if not exp:
                continue
            values = got.values
            if repr_ == "tstring":
                if b"".join(x for x in got.tstring if isinstance(x, bytes)) != data:
                    return diverge(name, data, f"symbols of {got.tstring!r}")
                values = _lists_from_tstring(got.tstring, tags)
            for t in tags:
                view = exp.values[t] if t in whole else _last(exp.values[t])
                if values[t] != view:
                    return diverge(name, data, f"t{t}: {values[t]!r} vs simulation {view!r}")
    return None


def run_corpus(seed: int, count: int, max_nodes: int = 10, max_tags: int = 6,
               alphabet: str = "ab", max_len: int = 6, max_rep: int = 3,
               multi: str = "auto", progress=None):
    """Generate and cross-check a corpus; returns (checked, first divergence).

    A set of tag ids in multi is cut down to each pattern's own tags."""
    rng = Random(seed)
    for i in range(count):
        pattern = gen_pattern(rng, max_nodes, max_tags, alphabet, max_rep)
        ids = multi
        if not isinstance(multi, str):
            ids = frozenset(multi).intersection(tag_analysis(parse_regex(pattern))[0])
        div = cross_check(pattern, alphabet, max_len, ids)
        if div is not None:
            return i + 1, div
        if progress and (i + 1) % progress == 0:
            print(f"  checked {i + 1}/{count} patterns")
    return count, None
