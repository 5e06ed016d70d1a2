import hashlib
import importlib
import json
import re
import shlex
from random import Random

import pytest

import tdfa
from tdfa.cli import _multi_arg, build_parser, main
from tdfa.fuzz import MATCH_FLAGS, Divergence, all_inputs, gen_pattern, input_count, run_corpus
from tdfa.regops import COPY

GOLDEN = "(a)*#(?:a|#b)#b*"


def run(capsys, *argv):
    # Looked up at call time: a test that patches tdfa's modules patches the
    # ones in sys.modules, which may be newer than this file's imports.
    code = importlib.import_module("tdfa.cli").main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_match_golden_offsets(capsys):
    code, out, _ = run(capsys, "match", GOLDEN, "aab", "--multi=none")
    assert code == 0
    assert out == "t1=1 t2=2 t3=2 t4=2 t5=3"


def test_match_lists_and_nil(capsys):
    code, out, _ = run(capsys, "match", GOLDEN, "b")
    assert code == 0
    assert out == "t1={-1} t2={-1} t3=0 t4=0 t5=1"


def test_match_tstring(capsys):
    code, out, _ = run(capsys, "match", GOLDEN, "aab", "--engine=multipass", "--repr=tstring")
    assert code == 0
    assert out == "1 a 2 1 a 2 3 4 b 5"


def test_match_multipass_reprs(capsys):
    code, out, _ = run(capsys, "match", GOLDEN, "aab", "--engine=multipass", "--repr=lists")
    assert code == 0
    assert out == "t1={0,1} t2={1,2} t3={2} t4={2} t5={3}"
    code, out, _ = run(capsys, "match", GOLDEN, "aab", "--engine=multipass", "--repr=offsets")
    assert out == "t1=1 t2=2 t3=2 t4=2 t5=3"


def test_match_no_match_exit_one(capsys):
    code, out, _ = run(capsys, "match", GOLDEN, "")
    assert code == 1 and out == "no match"


def test_match_prefix_mode(capsys):
    code, out, _ = run(capsys, "match", "#a(?:bc)?", "abx", "--mode=prefix")
    assert code == 0
    assert out == "end=1 t1=0"


def test_bad_pattern_exit_two(capsys):
    code, _, err = run(capsys, "match", "a{3,2}", "a")
    assert code == 2
    assert "position 1" in err


def test_invalid_config_exit_two(capsys):
    code, _, err = run(capsys, "match", "a", "a", "--engine=multipass", "--mode=prefix")
    assert code == 2


def test_unknown_multi_tag_exit_two(capsys):
    code, _, err = run(capsys, "match", "(a)", "a", "--multi=7")
    assert code == 2
    assert "not tags" in err


def test_unknown_multi_word_exit_two(capsys):
    code, _, err = run(capsys, "match", "(a)", "a", "--multi=Auto")
    assert code == 2
    assert "unknown multi 'Auto'" in err


def test_unreadable_input_file_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "match", "a", "--file", str(tmp_path / "missing"))
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and "missing" in err


def test_unknown_dump_entry_exit_two(tmp_path, capsys):
    code, out, err = run(capsys, "compile", "(a)*", "--dump=cfgs,opt", f"--out={tmp_path / 'd'}")
    assert code == 2
    assert out == "" and err == "error: unknown --dump entry cfgs"
    assert not (tmp_path / "d").exists()


def test_resource_cap_exit_four(tmp_path, capsys):
    code, _, err = run(capsys, "compile", GOLDEN, "--max-states=2", "--dump=all", f"--out={tmp_path / 'd'}")
    assert code == 4
    assert "cap" in err
    assert not (tmp_path / "d").exists()  # a failed compile writes no dumps


def test_internal_error_exit_five(capsys, monkeypatch):
    import tdfa.optimizer

    def boom(cfg):
        raise RuntimeError("injected")

    monkeypatch.setattr(tdfa.optimizer, "liveness_analysis", boom)
    code, out, err = run(capsys, "match", GOLDEN, "aab")
    assert code == 5
    assert out == ""
    assert err == "internal error: RuntimeError: injected"


def test_compile_golden_stats(tmp_path, capsys):
    code, out, _ = run(capsys, "compile", GOLDEN, "--multi=none", "--dump=cfg", f"--out={tmp_path}")
    assert code == 0
    stats = json.loads(out)
    assert stats["tnfa_states"] == 18 and stats["classes"] == 2
    assert stats["tdfa_states"] == 4
    assert stats["tdfa_finals"] == [1, 2, 3]
    assert stats["registers"] == 5
    assert stats["final_registers"] == 5
    assert stats["cfg_blocks"] == 9


def test_compile_stats_count_symbol_classes(capsys):
    # the digits are one class, ":" another, and the space, standing alone
    # too, splits (?:a|...|z| ) into two, which is still one state; one
    # state per symbol took 137, one per class under a fork chain 15
    d, w = "(?:" + "|".join("0123456789") + ")", "(?:" + "|".join("abcdefghijklmnopqrstuvwxyz ") + ")"
    code, out, _ = run(capsys, "compile", f"({d}{{2}}:{d}{{2}}) ({w}+)")
    stats = json.loads(out)
    assert code == 0 and stats["classes"] == 4 and stats["tnfa_states"] == 13


def test_compile_fixed_tags_stats(capsys):
    code, out, _ = run(capsys, "compile", GOLDEN, "--multi=none", "--fixed-tags")
    stats = json.loads(out)
    assert stats["fixed_tags"] == {"t1": "t2-1", "t3": "t5-1"}


def test_compile_dumps_roundtrip(tmp_path, capsys):
    code, out, _ = run(
        capsys, "compile", GOLDEN, "--multi=none", "--dump=all", f"--out={tmp_path}")
    assert code == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {"ast.json", "tnfa.dot", "tdfa_raw.dot", "tdfa_opt.dot", "tdfa_min.dot",
            "tdfa.json", "cfg_cfg.dot", "liveness_round1.txt",
            "interference_round1.txt"} <= names
    from tdfa.determinize import Tdfa
    from tdfa.runtime import exec_tdfa

    clone = Tdfa.from_json((tmp_path / "tdfa.json").read_text())
    assert exec_tdfa(clone, b"aab").values == {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}


def test_compile_dumps_from_the_patterns_own_run(tmp_path, capsys, monkeypatch):
    import tdfa.cli
    from tdfa.determinize import Determinizer

    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Determinizer, "run")
    for owner in (tdfa, tdfa.cli):
        if hasattr(owner, "optimize"):
            counted(owner, "optimize")
    code, _, _ = run(capsys, "compile", GOLDEN, "--multi=none", "--dump=all", f"--out={tmp_path}")
    assert code == 0
    assert sorted(calls) == ["optimize", "run"]


def test_compile_opt_none_dumps_no_optimizer_stages(tmp_path, capsys):
    code, out, _ = run(
        capsys, "compile", GOLDEN, "--multi=none", "--opt=none", "--dump=all", f"--out={tmp_path}")
    assert code == 0
    assert "cfg_blocks" not in json.loads(out)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"ast.json", "tnfa.dot", "tdfa_raw.dot", "tdfa_min.dot", "tdfa.json"}


def test_compile_dumps_without_out_print_the_stats_and_render_nothing(tmp_path, capsys, monkeypatch):
    import tdfa.cli
    from tdfa.determinize import Automaton
    from tdfa.optimizer import RegCfg

    code, out, _ = run(capsys, "compile", GOLDEN, "--multi=none", "--dump=all", f"--out={tmp_path}")
    assert code == 0
    rendered = []
    for owner, name in ((Automaton, "to_dot"), (RegCfg, "to_dot"), (tdfa.cli, "tnfa_to_dot")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: rendered.append(name))
    code, bare, _ = run(capsys, "compile", GOLDEN, "--multi=none", "--dump=all")
    assert code == 0
    assert json.loads(bare) == json.loads(out) and "cfg_blocks" in json.loads(bare)
    assert rendered == []


@pytest.mark.parametrize("pattern, spans", [
    # golden's loops on a and on b each end at one class: find it
    (GOLDEN, {"find": 2, "re": 0}),
    # the loop on a|b ends at c or at d: re
    ("(?:a|b)*c|(?:a|b)*d", {"find": 0, "re": 1}),
    # the loop on a|b ends at c, and so does the tagged loop on a|b after c
    # (a multipass tagged loop, a tdfa bulk loop)
    ("(?:a|b)*c(?:#(?:a|b))*", {"find": 2, "re": 0}),
    # a tagged loop on a alone ends at b or c
    ("(?:a|b)*c(?:#a)*", {"find": 1, "re": 1}),
])
@pytest.mark.parametrize("engine", ["tdfa", "multipass"])
def test_compile_stats_count_spans_by_kind(capsys, pattern, spans, engine):
    code, out, _ = run(capsys, "compile", pattern, f"--engine={engine}")
    assert code == 0 and json.loads(out)["spans"] == spans


def test_compile_multipass_stats_and_dump(tmp_path, capsys):
    csv = "((?:a|b|c)+)(?:,((?:a|b|c)+))*"
    code, out, _ = run(capsys, "compile", csv, "--engine=multipass", "--dump=multipass", f"--out={tmp_path}")
    assert code == 0
    stats = json.loads(out)
    assert {"states", "finals", "backlinks"} <= stats.keys()
    assert stats["states"] > 0 and stats["finals"] and stats["backlinks"] > 0
    # The first field's tags occur once on every path; the later fields'
    # repeat.
    assert stats["once"] == [1, 2]
    assert {p.name for p in tmp_path.iterdir()} == {"multipass.dot"}
    dot = (tmp_path / "multipass.dot").read_text()
    assert dot.startswith("digraph multipass") and "style=dashed" in dot


@pytest.mark.parametrize("multi", ["none", "all"])
def test_compile_multipass_once_tags_are_structural(capsys, multi):
    # --multi changes no multipass automaton: golden's (a)* tags repeat
    # and its other three occur once, whatever --multi says.
    code, out, _ = run(capsys, "compile", GOLDEN, "--engine=multipass", f"--multi={multi}")
    assert code == 0 and json.loads(out)["once"] == [3, 4, 5]


def test_compile_minimize_dumps_the_optimized_automaton_before_minimization(tmp_path, capsys):
    code, out, _ = run(capsys, "compile", "(?:a|aa)*#b", "--minimize", "--dump=opt,min", f"--out={tmp_path}")
    assert code == 0
    assert json.loads(out)["states"] == 2
    assert (tmp_path / "tdfa_opt.dot").read_text().count("->") == 4
    assert (tmp_path / "tdfa_min.dot").read_text().count("->") == 2


def test_compile_dumps_draw_appends_and_fallback_edges(tmp_path, capsys):
    code, _, _ = run(capsys, "compile", "(aab)+", "--multi=all", "--dump=tdfa,opt", f"--out={tmp_path}")
    assert code == 0
    assert "r5 <- r1.p" in (tmp_path / "tdfa_raw.dot").read_text()
    opt = (tmp_path / "tdfa_opt.dot").read_text()
    assert "r4 <- r4.p" in opt
    (fallback,) = [line for line in opt.splitlines() if "fb: " in line]
    assert fallback.endswith("style=dotted];")


@pytest.mark.parametrize("multi", ["1,2", "all", "none"])
def test_fuzz_multi_ids_apply_to_the_patterns_that_have_them(capsys, multi):
    # None of these 20 patterns has tag 2, and 13 have no tag at all.  Under
    # all, a tag fixed to the rightmost pseudo base differs from it in shape.
    code, out, _ = run(capsys, "fuzz", "--count=20", f"--multi={multi}", "--seed=5")
    assert code == 0, out
    assert out.startswith("ok: 20 patterns")


def test_fuzz_seeded_reproducible(capsys):
    code1, out1, _ = run(capsys, "fuzz", "--count=25", "--seed=5")
    code2, out2, _ = run(capsys, "fuzz", "--count=25", "--seed=5")
    assert code1 == code2 == 0
    # The elapsed time at the end may differ between the runs.
    elapsed = r"\(\d+\.\d+s\)$"
    assert re.sub(elapsed, "", out1) == re.sub(elapsed, "", out2)
    assert "no divergence" in out1


# Known faults of the register mapping (`Determinizer.map_states`), each a
# stand-in for the topological sort it calls, made from the real one.  The
# operations that map_states rewrites are only SET and APPEND, so the copies
# in its list are the ones the mapping prepends.
MAP_FAULTS = {
    # drop the copies a register mapping adds
    "skip-map-copies": lambda sort: lambda ops: sort([op for op in ops if op[0] != COPY]),
    # leave the mapped operations unsorted
    "skip-map-toposort": lambda sort: lambda ops: (ops, True),
}


@pytest.fixture
def inject_map_fault(monkeypatch):
    """A function that patches one fault of MAP_FAULTS in for the test."""
    # The attribute tdfa.determinize is the function; the module is in
    # sys.modules.  The optimizer imports its own binding of the sort, so
    # only map_states sees the fault.
    module = importlib.import_module("tdfa.determinize")
    sort = module.topological_sort
    return lambda fault: monkeypatch.setattr(module, "topological_sort", MAP_FAULTS[fault](sort))


def test_fuzz_runs_clean_without_an_injected_fault(capsys):
    code, out, _ = run(capsys, "fuzz", "--count=200", "--seed=42")
    assert code == 0, out


def test_fuzz_progress_below_ten_patterns(capsys):
    code, out, _ = run(capsys, "fuzz", "--count=3", "--progress", "--max-len=2")
    assert code == 0, out
    assert [line.strip() for line in out.splitlines()[1:4]] == [f"checked {i}/3 patterns" for i in (1, 2, 3)]


def test_fuzz_says_how_many_inputs_each_pattern_runs(capsys):
    # every string up to --max-len, then a run of LONG_RUN per symbol
    assert input_count("ab", 6) == len(list(all_inputs("ab", 6))) + 2 == 129
    assert input_count("abcdefgh", 6) == 299_593 + 8
    code, out, _ = run(capsys, "fuzz", "--count=2", "--progress", "--max-len=3", "--alphabet=abc")
    assert code == 0, out
    lines = out.splitlines()
    assert lines[0].strip() == "43 inputs (len<=3, runs of 40) per pattern on 11 configurations"
    assert lines[-1].startswith("ok: 2 patterns x 43 inputs (len<=3, runs of 40) over 'abc', no divergence")
    code, out, _ = run(capsys, "fuzz", "--count=1", "--alphabet=abcdefgh", "--max-len=0")
    assert out.startswith("ok: 1 patterns x 9 inputs (len<=0, runs of 40)"), out


def test_no_bench_subcommand(capsys):
    # Throughput comes from perfbench, sizes from `compile` and the match counters.
    with pytest.raises(SystemExit) as exc:
        run(capsys, "bench")
    assert exc.value.code == 2
    assert "{compile,match,fuzz}" in capsys.readouterr().err


def test_fuzz_has_no_fault_switch(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "fuzz", "--mutate=skip-map-copies")
    assert exc.value.code == 2


@pytest.mark.parametrize("mutation", sorted(MAP_FAULTS))
def test_fuzz_detects_injected_mutation(capsys, inject_map_fault, mutation):
    inject_map_fault(mutation)
    code, out, _ = run(capsys, "fuzz", "--count=200", "--seed=42")
    assert code == 3
    assert "DIVERGENCE" in out and "reproduce:" in out


# (engine, opt, minimize, fixed_tags, repr, mode) of each configuration fuzz runs
FUZZ_CONFIGS = {
    "tdfa-raw": ("tdfa", "none", False, False, "offsets", "full"),
    "tdfa-opt": ("tdfa", "full", False, False, "offsets", "full"),
    "tdfa-min": ("tdfa", "full", True, False, "offsets", "full"),
    "tdfa-fixed": ("tdfa", "full", False, True, "offsets", "full"),
    "tdfa-raw-prefix": ("tdfa", "none", False, False, "offsets", "prefix"),
    "tdfa-opt-prefix": ("tdfa", "full", False, False, "offsets", "prefix"),
    "tdfa-min-prefix": ("tdfa", "full", True, False, "offsets", "prefix"),
    "tdfa-fixed-prefix": ("tdfa", "full", False, True, "offsets", "prefix"),
    "multipass": ("multipass", "full", False, False, "offsets", "full"),
    "multipass-lists": ("multipass", "full", False, False, "lists", "full"),
    "multipass-tstring": ("multipass", "full", False, False, "tstring", "full"),
}


def check_hint(hint: str, div: Divergence):
    """The hint parses as `tdfa match` of the divergence's configuration."""
    argv = shlex.split(hint)
    assert argv[:2] == ["tdfa", "match"]
    args = build_parser().parse_args(argv[1:])
    assert (args.pattern, args.input) == (div.pattern, div.data.decode())
    assert (args.engine, args.opt, args.minimize, args.fixed_tags, args.repr, args.mode) == FUZZ_CONFIGS[div.engine]
    assert _multi_arg(args.multi) == (div.multi if args.engine == "tdfa" else "auto")
    return argv


def test_cross_check_compiles_each_configuration_from_its_flags(monkeypatch):
    fuzz = importlib.import_module("tdfa.fuzz")
    real = fuzz._compile
    compiled = []

    def compile_(args):
        compiled.append((args.engine, args.opt, args.minimize, args.fixed_tags, _multi_arg(args.multi)))
        return real(args)

    monkeypatch.setattr(fuzz, "_compile", compile_)
    assert fuzz.cross_check(GOLDEN, max_len=3, multi=frozenset({3, 1})) is None
    # one compile per configuration, shared by those that differ only in repr or mode
    want = {config[:4] + ((frozenset({1, 3}) if config[0] == "tdfa" else "auto"),)
            for config in FUZZ_CONFIGS.values()}
    assert sorted(compiled) == sorted(want) and len(want) == 5


def test_fuzz_reports_a_fallback_fault_in_a_prefix_configuration(capsys, monkeypatch):
    # Fallback quasi-transitions that run the final operations as they are,
    # backing up no clobbered register: full-mode matches never run them.
    optimizer = importlib.import_module("tdfa.optimizer")

    def no_backups(a):
        a.psi.update((s, a.phi[s]) for s in optimizer.find_fallback_states(a))
        return a.psi

    monkeypatch.setattr(optimizer, "add_fallback_regops", no_backups)
    code, out, _ = run(capsys, "fuzz", "--count=200", "--seed=42")
    assert code == 3
    engine = re.search(r"engine (\S+) diverges", out)[1]
    assert engine.endswith("-prefix")
    assert "--mode=prefix" in shlex.split(out.split("reproduce: ", 1)[1])


@pytest.mark.parametrize("engine", sorted(FUZZ_CONFIGS))
def test_divergence_hint_selects_its_configuration(capsys, engine):
    assert FUZZ_CONFIGS.keys() == MATCH_FLAGS.keys()
    div = Divergence(GOLDEN, engine, b"aab", "", frozenset({3, 1}))
    argv = check_hint(div.reproduce(), div)
    assert main(argv[1:]) == 0  # the hint runs: golden matches aab
    dash = Divergence("-|a", engine, b"-", "", "none")  # a pattern and input that look like flags
    check_hint(dash.reproduce(), dash)


@pytest.mark.parametrize("argv, corpus, engine", [
    # backslashes in the pattern and the input
    (["--seed=1", "--max-len=4", "--alphabet=a\\"], {"seed": 1, "max_len": 4, "alphabet": "a\\"}, "tdfa-raw"),
    # ids cut down to the pattern's own tags
    (["--seed=2", "--multi=1,3,9"], {"seed": 2, "multi": frozenset({1, 3, 9})}, "tdfa-raw"),
    (["--seed=3", "--multi=1,3,9"], {"seed": 3, "multi": frozenset({1, 3, 9})}, "tdfa-raw"),
    # a non-ASCII alphabet: the inputs are strings of its characters
    (["--seed=2", "--alphabet=éa"], {"seed": 2, "alphabet": "éa"}, "tdfa-raw"),
])
def test_fuzz_reproduce_hint_names_the_diverging_configuration(capsys, inject_map_fault, argv, corpus, engine):
    inject_map_fault("skip-map-copies")
    code, out, _ = run(capsys, "fuzz", "--count=200", *argv)
    assert code == 3
    _, div = run_corpus(count=200, **corpus)
    assert div.engine == engine
    check_hint(out.split("reproduce: ", 1)[1], div)


def test_fuzz_inputs_are_strings_of_the_alphabets_characters(capsys):
    assert list(all_inputs("ab", 2)) == [b"", b"a", b"b", b"aa", b"ab", b"ba", b"bb"]
    assert list(all_inputs("éa", 1)) == [b"", "é".encode(), b"a"]
    inputs = list(all_inputs("éa\\", 3))
    assert len(inputs) == 1 + 3 + 9 + 27 and all(len(x.decode()) <= 3 for x in inputs)
    code, out, _ = run(capsys, "fuzz", "--count=30", "--seed=1", "--alphabet=éa")
    assert code == 0 and out.startswith("ok: 30 patterns")


def test_gen_pattern_ascii_corpus_unchanged():
    # sha256 of this corpus as generated before non-ASCII symbols were
    # grouped: grouping makes no rng call, so ASCII corpora stay the same.
    rng = Random(1)
    text = "\n".join(gen_pattern(rng, max_nodes=14, alphabet="abcdefgh") for _ in range(500))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a1015b24fed52c07a18a6a35dd2ed76e2e3a0d1c47f162b92fc1c99de481a003")


def test_gen_pattern_postfix_repeats_a_whole_non_ascii_symbol():
    rng = Random(1)
    patterns = {gen_pattern(rng, max_nodes=2, max_tags=0, alphabet="éa") for _ in range(100)}
    repeated = {p for p in patterns if "a" not in p and p.endswith(("*", "+"))}
    assert repeated
    for p in repeated:
        assert tdfa.compile(p).match("éé"), p


def test_library_compile_match_api():
    handle = tdfa.compile(GOLDEN, multi="none")
    out = handle.match(b"aab")
    assert out.values == {1: 1, 2: 2, 3: 2, 4: 2, 5: 3}
    assert not handle.match(b"")


def test_library_engine_validation():
    with pytest.raises(ValueError):
        tdfa.compile("a", engine="bogus")
    p = tdfa.compile("a", engine="multipass")
    with pytest.raises(ValueError):
        p.match(b"a", mode="prefix")
    q = tdfa.compile("a")
    with pytest.raises(ValueError):
        q.match(b"a", repr_="tstring")
    # An unknown representation is refused whether or not the input matches.
    for data in (b"a", b"b"):
        with pytest.raises(ValueError):
            p.match(data, repr_="bogus")
