"""Submatch extraction with tagged deterministic finite automata.

    import tdfa
    p = tdfa.compile("(a)*#(?:a|#b)#b*")
    m = p.match(b"aab")          # m.values maps tag -> offset
    m = p.match(b"aab", mode="prefix")

Engines: "tdfa" (register automaton, default), "simulation" (direct tagged
NFA simulation, the reference), "multipass" (register-free, decoded
backwards; supports offset lists and tagged strings).
"""

from . import multipass as _mp
from . import resyntax as _syn
from . import tnfa as _tnfa
from .determinize import ResourceLimit, determinize
from .optimizer import add_fallback_regops, minimize as _minimize, optimize
from .resyntax import ParseError
from .runtime import NO_MATCH, MatchOutcome, exec_tdfa

__all__ = [
    "compile",
    "Pattern",
    "MatchOutcome",
    "ParseError",
    "ResourceLimit",
]


def _resolve_multi(spec, auto, tags):
    if spec == "auto":
        return auto
    if spec == "none":
        return frozenset()
    if spec == "all":
        return frozenset(tags)
    if isinstance(spec, str):
        raise ValueError(f"unknown multi {spec!r}: auto, none, all or a set of tag ids")
    multi = frozenset(spec)
    if not multi.issubset(tags):
        raise ValueError(f"multi names {sorted(multi.difference(tags), key=str)}, which are not tags of the pattern")
    return multi


class Pattern:
    """A compiled pattern bound to one engine configuration."""

    def __init__(
        self,
        pattern: str | bytes,
        engine: str = "tdfa",
        opt: str = "full",
        use_minimize: bool = False,
        fixed_tags: bool = False,
        multi: str = "auto",
        auto_tags: bool = False,
        max_states: int = 100_000,
        _stage=None,
    ):
        if engine not in ("tdfa", "simulation", "multipass"):
            raise ValueError(f"unknown engine {engine!r}")
        if opt not in ("none", "full"):
            raise ValueError(f"unknown optimization level {opt!r}")
        self.pattern = pattern
        self.engine = engine
        # _stage(name, value, L=None, I=None) sees each stage as it is built:
        # "ast", "tnfa", then "multipass", or "tdfa_raw", the optimizer's
        # steps (see `optimize`), "tdfa_opt" and "tdfa_min".  Later stages
        # change an automaton in place, so a view must be taken in the call.
        report = _stage or (lambda *args: None)
        self.fixes: dict[int, tuple[int, int]] = {}
        # The front end walks the syntax tree recursively, so its depth is
        # bounded by the interpreter's recursion limit.
        try:
            ast = _syn.parse_regex(pattern)
            if auto_tags:
                ast = _syn.auto_tag(ast)
            report("ast", ast)
            self.tags, auto_multi = _syn.tag_analysis(ast)
            self.multi = _resolve_multi(multi, auto_multi, self.tags)
            # Tagged strings need every tag present, so the multipass engine
            # always builds the full automaton.
            if fixed_tags and engine == "tdfa":
                # A fixed tag takes its base's shape: a fix stands only where
                # both are multi-valued or neither is (the rightmost pseudo
                # base is single-valued).
                self.fixes = {t: fix for t, fix in _syn.find_fixed_tags(ast).items()
                              if (t in self.multi) == (fix[0] in self.multi)}
                ast = _syn.strip_fixed_tags(ast, set(self.fixes))
            self.tnfa = _tnfa.build_tnfa(ast)
            report("tnfa", self.tnfa)
        except RecursionError:
            raise ResourceLimit("pattern nested too deeply for the recursion limit") from None
        if engine == "simulation":
            return
        if engine == "multipass":
            # Tags under no repetition of more than one pass occur at most
            # once on any path, whatever `multi` asks for.
            self.mp = _mp.determinize_multipass(self.tnfa, max_states, frozenset(self.tags) - auto_multi)
            report("multipass", self.mp)
            return

        free_multi = frozenset(t for t in self.multi if t not in self.fixes)
        self.tdfa = determinize(self.tnfa, free_multi, max_states)
        report("tdfa_raw", self.tdfa)
        if opt == "full":
            optimize(self.tdfa, stage=report)
            report("tdfa_opt", self.tdfa)
        else:
            # Longest-prefix mode needs fallback operations regardless.
            add_fallback_regops(self.tdfa)
        if use_minimize:
            self.tdfa = _minimize(self.tdfa)
            report("tdfa_min", self.tdfa)

    def match(self, data: str | bytes, mode: str = "full", repr_: str = "offsets",
              counters: dict | None = None) -> MatchOutcome:
        if isinstance(data, str):
            data = data.encode()
        # Names first, then what the engine supports.
        if mode not in ("full", "prefix"):
            raise ValueError(f"unknown mode {mode!r}")
        if repr_ != "offsets":
            if repr_ not in ("lists", "tstring"):
                raise ValueError(f"unknown representation {repr_!r}")
            if self.engine != "multipass":
                raise ValueError(f"representation {repr_!r} requires the multipass engine")
        if mode == "prefix" and self.engine != "tdfa":
            raise ValueError("longest-prefix mode requires the tdfa engine")

        if self.engine == "simulation":
            values = _tnfa.simulate(self.tnfa, data, counters=counters)
            if values is None:
                return NO_MATCH
            return MatchOutcome("match", len(data), values)

        if self.engine == "multipass":
            fw = _mp.match_forward(self.mp, data, counters)
            if fw is None:
                return NO_MATCH
            if repr_ == "offsets":
                values = _mp.extract_offsets(self.mp, data, fw, counters)
            elif repr_ == "lists":
                values = _mp.extract_offset_lists(self.mp, data, fw, counters)
            else:
                ts = _mp.extract_tstring(self.mp, data, fw, counters)
                return MatchOutcome("match", len(data), {}, tstring=ts)
            return MatchOutcome("match", len(data), values)

        out = exec_tdfa(self.tdfa, data, mode, counters)
        if out and self.fixes:
            out.values = _syn.apply_fixed_tags(out.values, self.fixes, out.end)
        return out


def compile(pattern: str | bytes, **kwargs) -> Pattern:
    """Compile a pattern; see Pattern for the options."""
    return Pattern(pattern, **kwargs)
