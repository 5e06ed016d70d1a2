"""Loop spans of both engines: a run of self-loops with one live exit class
(or none) is consumed by `bytes.find`, any other run by a compiled `re`
span.  The kinds must not change what a match returns or counts: every
plan is checked against the same plan with `re` spans only."""

import importlib
import re
from random import Random

import pytest
from helpers import ANY_BYTE

import tdfa
from tdfa.fuzz import gen_pattern
from tdfa.multipass import MatchPlan as MultipassPlan
from tdfa.multipass import PLAIN_LOOPS
from tdfa.runtime import MatchPlan
from tdfa.tnfa import simulate

# The package attribute `tdfa.determinize` is the function of that name.
determinize_module = importlib.import_module("tdfa.determinize")
loop_span = determinize_module.loop_span

GOLDEN = "(a)*#(?:a|#b)#b*"
CSV = "((?:a|b|c)+)(?:,((?:a|b|c)+))*"
# (mode, repr) of each engine's matches
CONFIGS = {"tdfa": [("full", "offsets"), ("prefix", "offsets")],
           "multipass": [("full", "offsets"), ("full", "lists"), ("full", "tstring")]}


def re_span(classes, n_live):
    """The `re` span loop_span builds for two or more exit classes."""
    if not classes:
        return None
    return re.compile(b"[" + b"".join(re.escape(bytes([c])) for c in sorted(classes)) + b"]*").match


def automaton(p):
    return p.tdfa if p.engine == "tdfa" else p.mp


def plan_of(p):
    a = automaton(p)
    return MatchPlan(a) if p.engine == "tdfa" else MultipassPlan(a)


def outcomes(patterns, inputs) -> list:
    """Every outcome and counter of every pattern on every input, from
    plans built afresh."""
    out = []
    for p in patterns:
        automaton(p).invalidate()
        for data in inputs:
            for mode, repr_ in CONFIGS[p.engine]:
                counters: dict = {}
                o = p.match(data, mode=mode, repr_=repr_, counters=counters)
                out.append((p.pattern, data, mode, repr_, o, counters))
    return out


def with_dead_bytes(inputs) -> list:
    """Each input as it is, with a dead byte inside it and one at its end."""
    out = []
    for data in inputs:
        out += [data, data[: len(data) // 2] + b"z" + data[len(data) // 2:], data + b"z"]
    return out


def test_find_spans_agree_with_re_spans(monkeypatch):
    rng = Random(25)
    patterns = [gen_pattern(rng, max_nodes=10, max_tags=4, alphabet="abc") for _ in range(150)]
    patterns += ["(?:#a)*a{3}", "(?:#a)*a{12}", GOLDEN, CSV]
    compiled = [tdfa.compile(pat, engine=engine, multi=multi)
                for pat in patterns for engine in CONFIGS for multi in ("auto", "none")
                if engine == "tdfa" or multi == "auto"]
    inputs = [b"", b"a", b"a" * 40, b"b" * 40, b"c" * 40, b"a" * 20 + b"b" * 20, b"ab" * 10 + b"c" * 10,
              b"abc,ab,c" * 5, b"aaab,bbbc,,cc", b"a" * 12 + b"b"]
    inputs += [b"".join(bytes([rng.choice(b"abc,")]) * rng.choice((1, 2, 5, 30)) for _ in range(rng.randint(1, 6)))
               for _ in range(12)]
    inputs = with_dead_bytes(inputs)

    kinds = {"find": 0, "re": 0}
    for p in compiled:
        for kind, count in plan_of(p).span_kinds().items():
            kinds[kind] += count
    found = outcomes(compiled, inputs)
    monkeypatch.setattr(determinize_module, "loop_span", re_span)
    assert all(plan_of(p).span_kinds()["find"] == 0 for p in compiled)
    assert found == outcomes(compiled, inputs)
    # Most runs end at one exit class (or only at a dead byte), some at more.
    assert kinds["find"] > 100 and kinds["re"] > 10, kinds


def test_span_kind_by_exit_classes():
    assert loop_span([], 3) is None
    assert loop_span([0, 2], 3) == 1  # one exit class: find it
    assert loop_span([2, 1, 0], 3) == 3  # none: find the dead class
    assert callable(loop_span([0], 3))  # two exit classes: re
    assert loop_span(range(255), 256) == 255
    assert callable(loop_span(range(256), 256))  # no class left to find


def test_no_dead_class():
    # One class holds all 256 bytes: the loop's span looks for class 1,
    # which no translated input holds, so every run ends at the end.
    for engine in CONFIGS:
        p = tdfa.compile(b"(" + ANY_BYTE + b"*)", engine=engine, multi="none")
        plan = plan_of(p)
        assert plan.spans == [1] and plan.dead is None
        for data in (b"", bytes(range(256)), bytes(range(255, -1, -1)) * 3):
            counters: dict = {}
            assert p.match(data, counters=counters).values == {1: 0, 2: len(data)}
            assert counters["transitions"] == len(data)


@pytest.mark.parametrize("engine", list(CONFIGS))
def test_empty_input_and_runs_to_the_end(engine):
    p = tdfa.compile(CSV, engine=engine, multi="none")
    assert plan_of(p).span_kinds() == {"find": 2, "re": 0}
    for data in (b"", b"a", b"abc", b"abc," + b"cab" * 100, b"b" * 300):
        counters: dict = {}
        out = p.match(data, counters=counters)
        assert (out.values if out else None) == simulate(p.tnfa, data), data
        assert counters["transitions"] == len(data)


@pytest.mark.parametrize("engine", list(CONFIGS))
def test_dead_byte_before_the_exit_class(engine):
    # The field's run ends at the dead z, not at the comma after it.
    p = tdfa.compile(CSV, engine=engine, multi="none")
    data = b"abc,ab" + b"c" * 50 + b"z" + b"c,abc"
    counters: dict = {}
    assert not p.match(data, counters=counters)
    assert counters["transitions"] == 56
    if engine == "tdfa":
        out = p.match(data, mode="prefix")
        assert (out.kind, out.end, out.values) == ("prefix", 56, simulate(p.tnfa, data[:56]))


@pytest.mark.parametrize("engine", list(CONFIGS))
@pytest.mark.parametrize("pattern", ["(?:#a)*", GOLDEN])
def test_loop_summary_with_a_find_span(engine, pattern):
    # (?:#a)*: the loop on the one class a ends at a dead byte only;
    # golden's loop on a ends at b.  Both spans find class 1.
    p = tdfa.compile(pattern, engine=engine, multi="auto")
    plan = plan_of(p)
    summarized = [a for a, form in enumerate(plan.bulk) if form is not None]
    assert summarized
    for a in summarized:
        # Its self-loop cells hold the span in their skip slot, and no cell
        # entering it from another row does.
        into = [(b, cell[-1]) for b, row in enumerate(plan.rows) for cell in row if cell and cell[0] == a]
        assert any(b == a for b, _ in into)
        assert all(skip == (1 if b == a else None) for b, skip in into)
        if engine == "multipass":
            # The summary is the last copy's, and the copies before it
            # hold none and are entered with no span.
            copies = [b for b, s in enumerate(plan.state) if s == plan.state[a]]
            assert len(copies) == PLAIN_LOOPS + 1 and copies[-1] == a
            assert all(plan.bulk[b] is None for b in copies[:-1])
            assert all(cell[-1] is None for row in plan.rows for cell in row if cell and cell[0] in copies[:-1])
    mode, repr_, multi = ("prefix", "offsets", p.multi) if engine == "tdfa" else ("full", "lists", frozenset(p.tags))
    for data in (b"a" * 500, b"a" * 500 + b"b" * 3, b"a" * 200 + b"z" + b"a" * 300 + b"b", b"a" * 500 + b"z"):
        counters: dict = {}
        out = p.match(data, mode=mode, repr_=repr_, counters=counters)
        dead = [i for i, byte in enumerate(data) if p.tnfa.byte_to_class[byte] == len(p.tnfa.alphabet)]
        assert counters["transitions"] == (dead[0] if dead else len(data))
        if out:
            assert out.values == simulate(p.tnfa, data[: out.end], multi)
        if engine == "multipass" and data == b"a" * 500:
            # The first a enters the loop, PLAIN_LOOPS + 1 self-loops step.
            assert counters["skipped"] == 500 - PLAIN_LOOPS - 2


@pytest.mark.parametrize("multi", ["auto", "none"])
def test_bulk_step_with_an_re_span(multi):
    # The loop on a leaves at b or c, so its span is `re`, and the plan
    # has no find span to bound.
    p = tdfa.compile("(?:#a)*(?:b|cd)", multi=multi)
    plan = MatchPlan(p.tdfa)
    assert any(plan.bulk) and plan.span_kinds() == {"find": 0, "re": 1} and plan.dead is None
    for data in (b"a" * 500, b"a" * 500 + b"b", b"a" * 200 + b"z" + b"a" * 300 + b"b", b"a" * 500 + b"z"):
        want = simulate(p.tnfa, data, p.multi)
        for mode in ("full", "prefix"):
            counters: dict = {}
            out = p.match(data, mode=mode, counters=counters)
            assert (out.values if out else None) == want, (data, mode)
            assert counters["transitions"] == data.find(b"z") % (len(data) + 1)
            assert counters["fallback"] == 0


@pytest.mark.parametrize("engine", list(CONFIGS))
@pytest.mark.parametrize("pattern, kind", [("(?:a|b)*#c", "find"), ("(?:a|b)*#(?:c|dd)", "re")])
def test_start_skip_ends_at_a_dead_byte_before_the_exit_class(engine, pattern, kind):
    p = tdfa.compile(pattern, engine=engine)
    skip0 = plan_of(p).skip0
    assert skip0 is not None and (skip0.__class__ is int) == (kind == "find")
    run = b"ab" * 100
    for data in (run + b"z" + b"c", run + b"zdd", run + b"c", run + b"dd", run + b"z", b"c", b"z" + run + b"c"):
        counters: dict = {}
        want_counters: dict = {}
        out = p.match(data, counters=counters)
        want = simulate(p.tnfa, data, counters=want_counters)
        assert (out.values if out else None) == want, data
        assert counters["transitions"] == want_counters["transitions"], data
        if engine == "multipass":
            assert counters["skipped"] == len(data) - len(data.lstrip(b"ab")), data


def test_prefix_fallback_after_a_find_span():
    # The last field's run is found, then "," leaves the final state for
    # one that the input's end (or a dead byte) kills: the match falls back.
    p = tdfa.compile(CSV, multi="none")
    for tail in (b",", b",z", b"z"):
        data = b"abc," + b"cab" * 30 + tail
        counters: dict = {}
        out = p.match(data, mode="prefix", counters=counters)
        assert (out.kind, out.end) == ("prefix", 94)
        assert out.values == simulate(p.tnfa, data[:94])
        assert counters["fallback"] == (tail != b"z")
