"""Spans around tdfa's layers, recorded from outside the library.

The tracer replaces public functions at the name their caller looks up
(for example `tdfa.optimizer.liveness_analysis`, which `optimize` calls
through its module's globals) with wrappers that record a span: name,
start, end, parent span and operation id.  A layer's self time is its
spans' durations minus the part covered by child spans.

Sizes are counted after a span ends, inside a `trace.count` span, so that
the counting loops never add to any layer's time.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict


class HookMissing(RuntimeError):
    """A function the tracer wraps no longer exists under its name, or is
    no longer called through it."""


# Spans kept in memory for the detail file; later ones are only counted.
MAX_SPANS = 300_000


def _ast_nodes(ast) -> int:
    n = 0
    stack = [ast]
    while stack:
        node = stack.pop()
        n += 1
        for name in ("left", "right", "body"):
            child = getattr(node, name, None)
            if child is not None:
                stack.append(child)
    return n


def _count_ast(c, ast):
    c["resyntax.ast_nodes"] += _ast_nodes(ast)


def _count_tnfa(c, nfa):
    c["tnfa.states"] += nfa.n_states


def _count_determinize(c, tdfa):
    c["determinize.states"] += tdfa.n_states
    c["determinize.raw_registers"] += tdfa.register_count()
    c["determinize.raw_ops"] += tdfa.op_count()


def _count_cfg(c, cfg):
    c["optimizer.cfg_blocks"] += len(cfg.blocks)


def _count_optimized(c, tdfa):
    c["optimizer.registers"] += tdfa.register_count()
    c["optimizer.ops"] += tdfa.op_count()


def _count_minimized(c, tdfa):
    c["optimizer.min_states"] += tdfa.n_states


def _count_multipass(c, mp):
    c["multipass.states"] += mp.n_states
    c["multipass.backlinks"] += sum(len(links) for _, links in mp.delta.values())


# (module, attribute path, span name, size counter run on the result)
HOOKS = [
    ("tdfa", "compile", "api.compile", None),
    ("tdfa.resyntax", "parse_regex", "resyntax.parse", _count_ast),
    ("tdfa.resyntax", "find_fixed_tags", "resyntax.fixed_tags", None),
    ("tdfa.resyntax", "strip_fixed_tags", "resyntax.fixed_tags", None),
    ("tdfa.tnfa", "build_tnfa", "tnfa.build", _count_tnfa),
    ("tdfa.tnfa", "simulate", "tnfa.simulate", None),
    ("tdfa", "determinize", "determinize.time", _count_determinize),
    ("tdfa", "optimize", "optimizer.optimize", _count_optimized),
    ("tdfa.optimizer", "add_fallback_regops", "optimizer.fallback", None),
    ("tdfa.optimizer", "build_cfg", "optimizer.build_cfg", _count_cfg),
    ("tdfa.optimizer", "compaction", "optimizer.compaction", None),
    ("tdfa.optimizer", "liveness_analysis", "optimizer.liveness", None),
    ("tdfa.optimizer", "dead_code_elimination", "optimizer.dce", None),
    ("tdfa.optimizer", "interference_analysis", "optimizer.interference", None),
    ("tdfa.optimizer", "register_allocation", "optimizer.allocation", None),
    ("tdfa.optimizer", "renaming", "optimizer.renaming", None),
    ("tdfa.optimizer", "normalization", "optimizer.normalization", None),
    ("tdfa", "_minimize", "optimizer.minimize", _count_minimized),
    ("tdfa", "exec_tdfa", "runtime.exec", None),
    ("tdfa.multipass", "determinize_multipass", "multipass.determinize", _count_multipass),
    ("tdfa.multipass", "match_forward", "multipass.forward", None),
    ("tdfa.multipass", "extract_offsets", "multipass.offsets", None),
    ("tdfa.multipass", "extract_offset_lists", "multipass.lists", None),
    ("tdfa.multipass", "extract_tstring", "multipass.tstring", None),
]
# Pattern.match is named after the engine it dispatches to; its self time
# is the per-call cost around the engine's own loop.
MATCH_SPAN = {"tdfa": "runtime.call", "multipass": "multipass.call", "simulation": "simulation.call"}


def _resolve(module: str, path: str):
    mod = sys.modules.get(module) or importlib.import_module(module)
    owner = mod
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            raise HookMissing(f"{module}.{path} no longer exists")
    if not hasattr(owner, attr):
        raise HookMissing(f"{module}.{path} no longer exists")
    return owner, attr


def _constant(name: str):
    return lambda *args, **kwargs: name


class Tracer:
    def __init__(self):
        # Spans: [name, start, end, parent index, operation id].
        self.spans: list = []
        self.unstored = 0
        self.opened: dict = defaultdict(int)  # span name -> times opened
        self.self_time: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list = []  # [span record, child seconds, stored index]
        self._next_op = 0

    def install(self):
        """Wrap every hook of the currently imported tdfa; raises
        HookMissing naming the first one that is gone."""
        targets = [(_resolve(m, p), name, count) for m, p, name, count in HOOKS]
        pattern_owner, _ = _resolve("tdfa", "Pattern.match")
        det_owner, _ = _resolve("tdfa.determinize", "Determinizer.map_states")
        for (owner, attr), name, count in targets:
            setattr(owner, attr, self._wrap(getattr(owner, attr), _constant(name), count))
        pattern_owner.match = self._wrap(pattern_owner.match, lambda p, *a, **k: MATCH_SPAN[p.engine], None)
        det_owner.map_states = self._count_calls(det_owner.map_states)

    def _open(self, name: str, t0: float):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op = self._next_op
            self._next_op += 1
        else:
            op = parent[0][4]
        rec = [name, t0, 0.0, parent[2] if parent else -1, op]
        self.opened[name] += 1
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append(rec)
        else:
            self.unstored += 1
        frame = [rec, 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t1: float):
        self._stack.pop()
        rec = frame[0]
        rec[2] = t1
        duration = t1 - rec[1]
        self.self_time[rec[0]] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, fn, span_name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(span_name(*args, **kwargs), time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, time.perf_counter())
            if count is not None:
                cf = tracer._open("trace.count", time.perf_counter())
                try:
                    count(tracer.counts, result)
                finally:
                    tracer._close(cf, time.perf_counter())
            return result

        return wrapper

    def _count_calls(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["determinize.map_attempts"] += 1
            if result is not None:
                counts["determinize.map_hits"] += 1
            return result

        return wrapper

    def snapshot(self) -> tuple[dict, dict]:
        return dict(self.self_time), dict(self.counts)

    def check_opened(self, names):
        """Raise HookMissing naming the spans never opened: the library
        still defines the wrapped function but no longer calls it through
        the wrapped name, so its time would read 0."""
        never = [n for n in names if not self.opened[n]]
        if never:
            raise HookMissing("span(s) never opened: " + ", ".join(never))
