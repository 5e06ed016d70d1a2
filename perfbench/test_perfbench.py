"""Tests of the benchmark itself: its checker must count what it is fed.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import HookMissing, Tracer  # noqa: E402

assert run.use_sources()


class OffByOne:
    """A compiled pattern whose first single offset comes out one too far."""

    def __init__(self, inner):
        self.inner = inner

    def match(self, *args, **kwargs):
        out = self.inner.match(*args, **kwargs)
        if out:
            for t, v in out.values.items():
                if isinstance(v, int):
                    out.values = {**out.values, t: v + 1}
                    break
        return out


class Raising:
    def match(self, *args, **kwargs):
        raise RuntimeError("injected")


def one_row_workload():
    wl = workloads.short_records(0)
    wl.rows = [r for r in wl.rows if r.key == "csv"][:1]
    wl.specs = [s for s in wl.specs if s.key == "csv"]
    return wl


def test_checker_passes_the_real_library():
    wl = one_row_workload()
    _, compiled, _, _ = run.setup(wl)
    st = run.Stats()
    run.run_pass(wl, compiled, run.expected_views(wl), st)
    assert st.attempted == 4 + 3 + 1 and st.failed == 0


def test_checker_counts_an_offset_off_by_one():
    wl = one_row_workload()
    _, compiled, _, _ = run.setup(wl)
    for way in ("tdfa", "tdfa_fixed"):
        compiled["csv"][way] = OffByOne(compiled["csv"][way])
    st = run.Stats()
    run.run_pass(wl, compiled, run.expected_views(wl), st)
    # Two tdfa configurations times two modes are corrupted; multipass and
    # the simulation are not.
    assert st.wrong == 4 and st.exceptions == 0 and st.failed == 4


def test_checker_counts_exceptions_and_goes_on():
    wl = one_row_workload()
    _, compiled, _, _ = run.setup(wl)
    compiled["csv"]["multipass"] = Raising()
    st = run.Stats()
    run.run_pass(wl, compiled, run.expected_views(wl), st)
    assert st.exceptions == 3 and st.wrong == 0
    assert len(st.match_s) == 4  # the tdfa calls after the failures still ran


def test_corpus_checker_counts_a_wrong_compile():
    tdfa = run.load_tdfa()
    node = corpus.cat(corpus.lit(b"x"), ("cap", corpus.rep(corpus.chars(b"ab"), 1, None)))
    item = corpus.make_item("t", node, random.Random(0))
    assert item.re_regex == "x((?:a|b)+)"
    st = run.Stats()
    run.check_item(item, "tdfa", tdfa.compile(item.regex), {}, st)
    assert st.failed == 0 and st.re_checked == 2 * len(item.inputs)
    st = run.Stats()
    run.check_item(item, "tdfa", OffByOne(tdfa.compile(item.regex)), {}, st)
    answers = [corpus.oracle(item, d) for d in item.inputs]
    full = sum(run._full(a, d) is not None for a, d in zip(answers, item.inputs))
    prefix = sum(a is not None for a in answers)
    assert full >= 1 and st.wrong == full + prefix


def test_limit_probes_fail_today_and_do_not_abort_the_run():
    tdfa = run.load_tdfa()
    wl = workloads.compile_corpus(0)
    st = run.Stats()
    results = run.run_probes(tdfa, wl, st)
    assert len(results) == 4 * len(run.THREE_WAYS)
    assert st.probe_attempted == len(results)
    raised = [k for k, (outcome, _) in results.items() if outcome != "ok"]
    # The failed compiles are counted apart from the workload's operations;
    # the probes that compile are matched, and their outputs are right.
    assert st.probe_failed == len(raised) and st.attempted == len(results) - len(raised)
    assert st.failed == 0
    # Today every probe fails on both tdfa configurations; when one starts
    # to compile, its output is checked instead.
    for probe in ("alt2000", "nest600", "star3000", "tag_star_a1000"):
        for way in ("tdfa", "tdfa_min"):
            assert results[f"{probe} {way}"][0] == "RecursionError"
    # The run goes on after them.
    assert tdfa.compile("(a)").match(b"a").values == {1: 0, 2: 1}


def test_tracer_stops_when_a_hook_is_bypassed():
    tdfa = run.load_tdfa()
    tracer = Tracer()
    tracer.install()
    # The library still defines exec_tdfa but calls an unwrapped copy.
    tdfa.exec_tdfa = tdfa.exec_tdfa.__wrapped__
    assert tdfa.compile("(a)*").match(b"aa")
    assert tracer.opened["runtime.call"] == 1
    try:
        tracer.check_opened(["runtime.call", "runtime.exec"])
    except HookMissing as e:
        assert "runtime.exec" in str(e) and "runtime.call" not in str(e)
    else:
        raise AssertionError("a span that never opened was not reported")


def test_oracle_rendering_and_divergence_classes():
    tstar = corpus.tag_star_a(3)
    assert corpus.render(tstar)[:2] == ("(?:#a)*a{3}", "(?:()a)*a{3}")
    assert not corpus.diverges(tstar) and corpus.multi_tags(tstar) == {1}
    reset = corpus.rep(("alt", [("cap", corpus.lit(b"x")), corpus.lit(b"y")]), 0, None)
    assert corpus.diverges(reset)
    empty_last = corpus.rep(("cap", corpus.rep(corpus.lit(b"a"), 0, 1)), 0, None)
    assert corpus.diverges(empty_last)
    optional = corpus.rep(corpus.cat(corpus.lit(b";"), ("cap", corpus.lit(b"a"))), 0, 1)
    assert not corpus.diverges(optional) and corpus.multi_tags(optional) == frozenset()


def test_same_seed_same_inputs():
    a, b, c = workloads.short_records(7), workloads.short_records(7), workloads.short_records(8)
    assert [r.prefix for r in a.rows] == [r.prefix for r in b.rows]
    assert [r.prefix for r in a.rows] != [r.prefix for r in c.rows]
    assert [i.regex for i in workloads.compile_corpus(7).corpus] == [i.regex for i in workloads.compile_corpus(7).corpus]


def test_benchmark_json_names_the_emitted_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    predicted = {m for p in json.loads((HERE / "predictions.json").read_text())["predictions"]
                 for m in p["layer_metrics"]}
    assert predicted == {n for n, _ in run.PER_LAYER}


def test_fingerprints_repeat_the_recorded_baseline():
    # A separate process: string hashing differs between processes, so
    # this also shows that the automata do not depend on it.
    r = subprocess.run([sys.executable, str(HERE / "fingerprints.py")],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
