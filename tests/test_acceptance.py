"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Tolerances are pinned here; everything not explicitly a timing
bound is exact equality.
"""

import time
from contextlib import contextmanager

import tdfa
from tdfa.determinize import determinize
from tdfa.multipass import determinize_multipass, match_forward
from tdfa.optimizer import add_fallback_regops, build_cfg, compaction, minimize, optimize, renaming
from tdfa.regops import APPEND, COPY, topological_sort
from tdfa.resyntax import find_fixed_tags, parse_regex
from tdfa.runtime import exec_tdfa
from tdfa.tnfa import build_tnfa, simulate

GOLDEN = "(a)*#(?:a|#b)#b*"  # the worked example (1a2)*3(a|4b)5b*


@contextmanager
def report(criterion: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL")
        raise
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_worked_example_golden_suite():
    with report("1 worked-example golden suite"):
        t0 = time.perf_counter()
        nfa = build_tnfa(parse_regex(GOLDEN))
        assert simulate(nfa, b"aab") == {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}

        raw = determinize(nfa)
        assert raw.n_states == 4
        assert raw.phi.keys() == {1, 2, 3}

        opt = determinize(nfa)
        optimize(opt)
        assert len(set(opt.rf.values())) == 5
        assert sorted(set(opt.rf.values())) == [1, 2, 3, 4, 5]

        fixes = find_fixed_tags(parse_regex(GOLDEN))
        assert fixes == {1: (2, 1), 3: (5, 1)}  # t1 <- t2 - 1, t3 <- t5 - 1

        mp = tdfa.compile(GOLDEN, engine="multipass")
        assert mp.match(b"aab").values == {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}
        assert mp.match(b"aab", repr_="lists").values == {
            1: [0, 1], 2: [1, 2], 3: [2], 4: [2], 5: [3],
        }
        from tdfa.multipass import render_tstring

        ts = mp.match(b"aab", repr_="tstring").tstring
        assert render_tstring(ts) == "1 a 2 1 a 2 3 4 b 5"
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_oracle_equivalence_corpus():
    with report("2 oracle equivalence (1000 REs x inputs <= 6)"):
        from tdfa.fuzz import run_corpus

        t0 = time.perf_counter()
        checked, divergence = run_corpus(
            seed=2024, count=1000, max_nodes=10, max_tags=6,
            alphabet="ab", max_len=6, max_rep=3)
        elapsed = time.perf_counter() - t0
        assert divergence is None, str(divergence)
        assert checked == 1000
        assert elapsed < 300.0, f"corpus took {elapsed:.1f}s"


def test_criterion_3_optimization_effectiveness():
    with report("3 optimization effectiveness on worked example"):
        tdfa_ = determinize(build_tnfa(parse_regex(GOLDEN)))
        assert tdfa_.max_reg == 20
        add_fallback_regops(tdfa_)
        cfg = build_cfg(tdfa_)
        assert len(cfg.blocks) == 9
        V = compaction(cfg)
        assert len(V) == 11  # 20 -> 11
        renaming(cfg, V)

        full = determinize(build_tnfa(parse_regex(GOLDEN)))
        optimize(full)
        assert full.register_count() == 5  # full pipeline -> 5


def test_criterion_4_linear_time_matching():
    with report("4 linear-time matching"):
        p = tdfa.compile("(?:#a)*", multi="none")
        counts = {}
        for n in (10**3, 10**4, 10**5):
            c: dict = {}
            out = p.match(b"a" * n, counters=c)
            assert out.kind == "match"
            counts[n] = c["transitions"] + c["operations"]
        # marginal per-byte work is exactly constant
        m1 = (counts[10**4] - counts[10**3]) / (10**4 - 10**3)
        m2 = (counts[10**5] - counts[10**4]) / (10**5 - 10**4)
        assert m1 == m2, (m1, m2)

        # Best of interleaved runs: a slow phase of a shared host hits both
        # sizes, and one stall of a few ms cannot decide the ratio.  The
        # small input is timed as ten calls in a row, so both timings span
        # the same time and meet the same neighbours, and it is 2.5 MB, so
        # neither input with its translated copy stays in a core's L2
        # cache.  The match is a memory-bound scan (bytes.translate and a
        # find), so a short call or a cached input would read faster.
        small, large = b"a" * 25 * 10**5, b"a" * 25 * 10**6
        t1 = t10 = float("inf")
        for _ in range(25):
            t0 = time.perf_counter()
            for _ in range(10):
                p.match(small)
            t1 = min(t1, (time.perf_counter() - t0) / 10)
            t0 = time.perf_counter()
            p.match(large)
            t10 = min(t10, time.perf_counter() - t0)
        ratio = t10 / (10 * t1)
        assert 1 / 1.5 <= ratio <= 1.5, f"scaling ratio {ratio:.2f}"


def test_criterion_5_pathological_nondeterminism_trend():
    with report("5 pathological nondeterminism trend"):
        ops_per_byte = {}
        fwd_per_byte = {}
        for k in (1, 2):
            reps = 10**k
            pattern = "(?:#a)*a{%d}" % reps
            data = b"a" * (40 * reps)
            p = tdfa.compile(pattern, multi="none")
            c: dict = {}
            out = p.match(data, counters=c)
            assert out.kind == "match"
            ops_per_byte[k] = c["operations"] / len(data)
            mp = determinize_multipass(build_tnfa(parse_regex(pattern)))
            fw = match_forward(mp, data)
            assert fw is not None
            # forward pass: the recorded arrays cover every byte, a run -L
            # on the loop array before it covering L, independent of k
            runs = [-x for x in fw[1] if isinstance(x, int) and x < 0]
            arrays = sum(not isinstance(x, int) for x in fw[1])
            fwd_per_byte[k] = (arrays + sum(runs)) / len(data)
        assert ops_per_byte[2] > ops_per_byte[1], ops_per_byte
        assert fwd_per_byte[1] == fwd_per_byte[2] == 1.0


def test_criterion_6_pass_level_safety():
    with report("6 pass idempotence and cycle handling"):
        from tdfa.optimizer import (
            dead_code_elimination,
            flush_cfg,
            interference_analysis,
            liveness_analysis,
            normalization,
            register_allocation,
        )

        tdfa_ = determinize(build_tnfa(parse_regex(GOLDEN)))
        optimize(tdfa_)
        snapshot = tdfa_.to_json()
        cfg = build_cfg(tdfa_)
        renaming(cfg, compaction(cfg))
        L = liveness_analysis(cfg)
        dead_code_elimination(cfg, L)
        I = interference_analysis(cfg, L)
        renaming(cfg, register_allocation(cfg, I))
        normalization(cfg)
        flush_cfg(cfg)
        assert tdfa_.to_json() == snapshot

        m = minimize(tdfa_)
        assert minimize(m).n_states == m.n_states

        _, ok = topological_sort([(COPY, 1, 2), (COPY, 2, 1)])
        assert not ok
        _, ok = topological_sort([(APPEND, 1, 1, "p")])
        assert ok


def test_criterion_7_longest_prefix_mode():
    with report("7 longest-prefix fallback"):
        p = tdfa.compile("#a(bc)?")
        out = p.match(b"abx", mode="prefix")
        assert out.kind == "prefix"
        assert out.end == 1
        want = simulate(build_tnfa(parse_regex("#a(bc)?")), b"a")
        assert out.values == want
        assert want == {1: 0, 2: None, 3: None}
