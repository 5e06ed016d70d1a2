"""Command line front end: compile, match, fuzz.

Exit codes: 0 ok, 1 no match, 2 usage or syntax error or an unreadable
input file, 3 fuzz divergence, 4 resource cap exceeded, 5 internal error.
"""

import argparse
import json
import os
import sys
import time

from . import Pattern, multipass, runtime
from .determinize import ResourceLimit
from .multipass import render_tstring
from .optimizer import RegCfg, build_cfg, interferes, minimize
from .resyntax import ParseError, ast_to_json
from .tnfa import tnfa_to_dot

EX_OK = 0
EX_NOMATCH = 1
EX_USAGE = 2
EX_DIVERGENCE = 3
EX_RESOURCE = 4
EX_INTERNAL = 5


def _engine_flags(p: argparse.ArgumentParser):
    p.add_argument("--engine", choices=["simulation", "tdfa", "multipass"], default="tdfa")
    p.add_argument("--opt", choices=["none", "full"], default="full")
    p.add_argument("--minimize", action="store_true", help="minimize after optimization")
    p.add_argument("--fixed-tags", action="store_true", help="remove fixed tags before construction")
    p.add_argument("--multi", default="auto", help="multi-valued tags: auto, none, all, or comma ids")
    p.add_argument("--auto-tags", action="store_true", help="surround every subexpression with a tag pair")
    p.add_argument("--max-states", type=int, default=100_000)


def _at_least(lo: int):
    """An argparse type: an int no less than lo."""
    def check(text: str) -> int:
        if (value := int(text)) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, not {value}")
        return value
    check.__name__ = "int"  # argparse's "invalid int value" for a non-int
    return check


def _nonempty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _multi_arg(value: str):
    """A comma list of ints as a set of tag ids; any other value goes to
    the library as is, which takes auto, none and all and rejects the rest."""
    try:
        return frozenset(int(x) for x in value.split(","))
    except ValueError:
        return value


def _compile(args, stage=None) -> Pattern:
    return Pattern(
        args.pattern,
        engine=args.engine,
        opt=args.opt,
        use_minimize=args.minimize,
        fixed_tags=args.fixed_tags,
        multi=_multi_arg(args.multi),
        auto_tags=args.auto_tags,
        max_states=args.max_states,
        _stage=stage,
    )


def _grid(corner: str, rows, n: int, marked) -> str:
    """A register grid: columns r1..rn, one line per (label, row), "*" where
    marked(row, r)."""
    regs = range(1, n + 1)
    lines = [corner + " ".join(f"r{r}" for r in regs)]
    for label, row in rows:
        lines.append(label + " ".join(("*" if marked(row, r) else ".").rjust(len(f"r{r}")) for r in regs))
    return "\n".join(lines)


DUMPS = {"ast", "tnfa", "tdfa", "cfg", "opt", "min", "multipass", "json"}


def cmd_compile(args) -> int:
    dumps = set(args.dump.split(",")) if args.dump else set()
    unknown = dumps - DUMPS - {"all"}
    if unknown:
        raise ValueError(f"unknown --dump entry {','.join(sorted(unknown))}")
    if "all" in dumps:
        dumps = DUMPS
    # Texts are rendered only to be written; "cfg" also adds a stat.
    render = dumps if args.out else set()
    stats = {}
    files = {}  # dump file name -> text, written once the compile succeeds

    def stage(name, value, L=None, I=None):
        if name == "ast":
            if "ast" in render:
                files["ast.json"] = json.dumps(ast_to_json(value), indent=2)
        elif name == "tnfa":
            stats["tnfa_states"] = value.n_states
            stats["classes"] = len(value.alphabet)
            if "tnfa" in render:
                files["tnfa.dot"] = tnfa_to_dot(value)
        elif name == "tdfa_raw":
            stats["tdfa_states"] = value.n_states
            stats["tdfa_finals"] = sorted(value.phi)
            stats["raw_registers"] = value.register_count()
            stats["raw_operations"] = value.op_count()
            if "tdfa" in render:
                files["tdfa_raw.dot"] = value.to_dot()
        elif name == "tdfa_opt":
            if "cfg" in dumps:
                stats["cfg_blocks"] = len(build_cfg(value).blocks)
            if "opt" in render:
                files["tdfa_opt.dot"] = value.to_dot()
        elif name == "multipass":
            stats.update(value.stats())
            if "multipass" in render:
                files["multipass.dot"] = value.to_dot()
        elif isinstance(value, RegCfg) and "cfg" in render:  # an optimizer step
            files[f"cfg_{name}.dot"] = value.to_dot()
            if L is not None:
                n = value.tdfa.max_reg
                files[f"liveness_{name}.txt"] = _grid(
                    "block ", ((f"{i:5d} ", row) for i, row in enumerate(L)), n, lambda row, r: row >> r & 1)
                files[f"interference_{name}.txt"] = _grid(
                    "    ", ((f"r{a:<3d}", a) for a in range(1, n + 1)), n, lambda a, b: interferes(I, a, b))

    p = _compile(args, stage)
    if args.engine == "tdfa":
        stats["registers"] = p.tdfa.register_count()
        stats["final_registers"] = len(set(p.tdfa.rf.values()))
        stats["operations"] = p.tdfa.op_count()
        stats["states"] = p.tdfa.n_states
        stats["spans"] = runtime.MatchPlan(p.tdfa).span_kinds()
        if "min" in render:  # without --minimize, a minimized view of the result
            files["tdfa_min.dot"] = (p.tdfa if args.minimize else minimize(p.tdfa)).to_dot()
        if "json" in render:
            files["tdfa.json"] = p.tdfa.to_json()
        if p.fixes:
            stats["fixed_tags"] = {
                f"t{t}": f"t{b}-{d}" if b else f"len-{d}" for t, (b, d) in sorted(p.fixes.items())
            }
    elif args.engine == "multipass":
        stats["spans"] = multipass.MatchPlan(p.mp).span_kinds()

    if render:
        os.makedirs(args.out, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(args.out, name), "w") as f:
                f.write(text + "\n")
    print(json.dumps(stats, indent=2))
    return EX_OK


def _format_value(v) -> str:
    if isinstance(v, list):
        return "{" + ",".join(str(x) for x in v) + "}"
    return "n" if v is None else str(v)


def cmd_match(args) -> int:
    p = _compile(args)
    if args.file:
        with open(args.file, "rb") as f:
            data = f.read()
    else:
        data = args.input.encode() if args.input is not None else b""
    out = p.match(data, mode=args.mode, repr_=args.repr)
    if not out:
        print("no match")
        return EX_NOMATCH
    if args.repr == "tstring":
        print(render_tstring(out.tstring))
        return EX_OK
    fields = []
    if out.kind == "prefix":
        fields.append(f"end={out.end}")
    fields.extend(f"t{t}={_format_value(out.values[t])}" for t in sorted(out.values))
    print(" ".join(fields) if fields else "match")
    return EX_OK


def cmd_fuzz(args) -> int:
    from .fuzz import LONG_RUN, MATCH_FLAGS, input_count, run_corpus

    inputs = f"{input_count(args.alphabet, args.max_len):,} inputs (len<={args.max_len}, runs of {LONG_RUN})"
    if args.progress:
        print(f"  {inputs} per pattern on {len(MATCH_FLAGS)} configurations")
    t0 = time.perf_counter()
    checked, div = run_corpus(
        seed=args.seed,
        count=args.count,
        max_nodes=args.max_nodes,
        max_tags=args.max_tags,
        alphabet=args.alphabet,
        max_len=args.max_len,
        max_rep=args.max_rep,
        multi=_multi_arg(args.multi),
        progress=max(1, args.count // 10) if args.progress else None,
    )
    dt = time.perf_counter() - t0
    if div is None:
        print(f"ok: {checked} patterns x {inputs} over {args.alphabet!r}, no divergence ({dt:.1f}s)")
        return EX_OK
    print(f"DIVERGENCE after {checked} patterns ({dt:.1f}s)")
    print(f"  {div}")
    print(f"  reproduce: {div.reproduce()}")
    return EX_DIVERGENCE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tdfa", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compile", help="build automata, dump artifacts, print stats")
    c.add_argument("pattern")
    c.add_argument("--out", help="directory for dump files")
    c.add_argument("--dump", help="comma list: ast,tnfa,tdfa,cfg,opt,min,multipass,json,all")
    _engine_flags(c)
    c.set_defaults(func=cmd_compile)

    m = sub.add_parser("match", help="match input and print tag values")
    m.add_argument("pattern")
    m.add_argument("input", nargs="?", default=None)
    m.add_argument("--file", help="read input bytes from a file")
    m.add_argument("--mode", choices=["full", "prefix"], default="full")
    m.add_argument("--repr", choices=["offsets", "lists", "tstring"], default="offsets")
    _engine_flags(m)
    m.set_defaults(func=cmd_match)

    f = sub.add_parser("fuzz", help="cross-check all engines against the simulation")
    f.add_argument("--seed", type=int, default=1)
    f.add_argument("--count", type=_at_least(0), default=1000)
    f.add_argument("--max-nodes", type=_at_least(1), default=10)
    f.add_argument("--max-tags", type=_at_least(0), default=6)
    f.add_argument("--alphabet", type=_nonempty, default="ab")
    f.add_argument("--max-len", type=_at_least(0), default=6)
    f.add_argument("--max-rep", type=_at_least(0), default=3)
    f.add_argument("--multi", default="auto",
                   help="multi-valued tags: auto, none, all, or comma ids; a pattern runs with "
                        "those of the ids that are its tags")
    f.add_argument("--progress", action="store_true")
    f.set_defaults(func=cmd_fuzz)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE
    except ResourceLimit as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_RESOURCE
    except (ValueError, OSError) as e:  # OSError: an unreadable --file or unwritable --out
        print(f"error: {e}", file=sys.stderr)
        return EX_USAGE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
