"""tdfa benchmark: compile latency and match throughput, checked outputs.

    python3 perfbench/run.py --workload long-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src.  The
load is a closed loop: one caller, one process, one thread, each call
issued after the previous one returned.  The run generates its inputs from
the seed (untimed), then repeats passes over the workload until --seconds
have elapsed, with set-ups (import, compile, one warm-up match per
compiled pattern) spread over that time.  Every timed output is compared
with an answer known without tdfa; wrong answers and exceptions count as
failed operations.  Timings are scaled by the machine's slowdown, which a
control loop measures between steps (see Pacer).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced iterations of one set-up plus one pass, and prints per-layer
metrics (medians over the traced iterations, unscaled) and the tracing
overhead (median traced minus median untraced iteration, both scaled).
The last line of standard output is one JSON object; the lines before it
are a readable report.  Full details go to .perfbench-out/.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import corpus
import workloads
from tracer import HookMissing, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
N_SETUP = 16
# Other tenants of a shared host slow every process on it by up to a third,
# in phases longer than a run.  A fixed pure-Python control loop, timed
# between steps, measures that slowdown; the metrics are scaled to the
# speed at which the loop takes CONTROL_NOMINAL_S, and the raw values are
# reported beside them.
CONTROL_NOMINAL_S = 0.0009

# The three ways every compile-corpus pattern is compiled; the compile_ms
# metrics sample these (and only these) on every workload.
THREE_WAYS = {
    "tdfa": {},
    "tdfa_min": {"use_minimize": True, "fixed_tags": True},
    "multipass": {"engine": "multipass"},
}

END_TO_END = [
    ("setup_s", "s"),
    ("tdfa_full_mbps", "MB/s"),
    ("tdfa_prefix_mbps", "MB/s"),
    ("multipass_offsets_mbps", "MB/s"),
    ("multipass_lists_mbps", "MB/s"),
    ("multipass_tstring_mbps", "MB/s"),
    ("simulation_mbps", "MB/s"),
    ("match_us_p50", "us"),
    ("match_us_p99", "us"),
    ("multipass_match_us_p50", "us"),
    ("compile_ms_p50", "ms"),
    ("compile_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
]

# Span names whose self time is a per-layer metric (name + "_s").
LAYER_TIMES = [
    "resyntax.parse", "resyntax.fixed_tags", "tnfa.build", "tnfa.simulate",
    "optimizer.fallback", "optimizer.build_cfg", "optimizer.compaction", "optimizer.liveness",
    "optimizer.dce", "optimizer.interference", "optimizer.allocation", "optimizer.renaming",
    "optimizer.normalization", "optimizer.minimize", "runtime.exec", "runtime.call",
    "multipass.determinize", "multipass.forward", "multipass.offsets", "multipass.lists",
    "multipass.tstring",
]
LAYER_COUNTS = [
    "resyntax.ast_nodes", "tnfa.states", "determinize.states", "determinize.map_attempts",
    "determinize.map_hits", "determinize.raw_registers", "determinize.raw_ops",
    "optimizer.cfg_blocks", "optimizer.registers", "optimizer.ops", "optimizer.min_states",
    "runtime.transitions", "multipass.states", "multipass.backlinks",
]
PER_LAYER = (
    [(n + "_s", "s") for n in LAYER_TIMES]
    + [("determinize.time_s", "s")]
    + [(n, "count") for n in LAYER_COUNTS]
    + [("determinize.map_hit_ratio", "ratio"), ("runtime.ops_per_byte", "ops/B"),
       ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
)


def _control_loop() -> int:
    """Dict, list and integer work, like the library's own loops.  It
    allocates almost no objects the cyclic collector tracks, so it does
    not move collections into the timed calls."""
    counts: dict = {}
    acc = 0
    for i in range(5000):
        k = i & 255
        counts[k] = counts.get(k, 0) + 1
        acc += i ^ k
    return acc + sum([j * 2 for j in range(4000)])


def control_seconds() -> float:
    """The median of nine timings of the control loop."""
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        _control_loop()
        times.append(time.perf_counter() - t0)
    return median(times)


def load_tdfa():
    """Import tdfa afresh from ./src, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "tdfa" or m.startswith("tdfa.")]:
        del sys.modules[name]
    mod = importlib.import_module("tdfa")
    if Path(mod.__file__).resolve().parent != SRC / "tdfa":
        raise ImportError(f"tdfa imported from {mod.__file__}, not from {SRC}")
    return mod


def use_sources() -> bool:
    """Put ./src first on the import path and check that tdfa imports
    from there; says why on standard error when it does not."""
    if not (SRC / "tdfa" / "__init__.py").is_file():
        print(f"perfbench: no tdfa sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    try:
        load_tdfa()
    except ImportError as e:
        print(f"perfbench: cannot import tdfa: {e}", file=sys.stderr)
        return False
    return True


def configs(spec) -> dict:
    out = {way: dict(kw, multi=spec.multi) if way != "multipass" else kw for way, kw in THREE_WAYS.items()}
    if spec.fixed_variant:
        out["tdfa_fixed"] = {"multi": spec.multi, "fixed_tags": True}
    out["simulation"] = {"engine": "simulation"}
    return out


class Samples:
    """Timings of one kind, as measured and scaled by the slowdown at the
    moment each was taken, with the index where each pass ended."""

    def __init__(self):
        self.raw = array("d")
        self.scaled = array("d")
        self.cuts: list = []

    def add(self, seconds: float, slowdown: float):
        self.raw.append(seconds)
        self.scaled.append(seconds / slowdown)

    def cut(self):
        self.cuts.append(len(self.raw))

    def __len__(self):
        return len(self.raw)

    def values(self, raw: bool):
        return self.raw if raw else self.scaled

    def median(self, raw: bool, unit: float) -> tuple[float, int]:
        """The median over every sample, and the sample count."""
        return median(self.values(raw)) * unit, len(self.raw)

    def tail(self, q: float, raw: bool, unit: float) -> tuple[float, int]:
        """The q-th percentile of each pass, median over passes, and the
        sample count.  A tail is set by the few slowest patterns, each met
        once per pass, so a pass's percentile falls on one of them; pooled
        over passes it could fall between two and take the extreme of
        either."""
        xs = self.values(raw)
        bounds = [0, *self.cuts]
        if bounds[-1] != len(xs):
            bounds.append(len(xs))
        per_pass = [percentile(xs[a:b], q) for a, b in zip(bounds, bounds[1:]) if b > a]
        return median(per_pass) * unit, len(xs)


class Stats:
    """Samples, pass timings and the operation and failure counts."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.exceptions = 0
        # Compiles of the limit probes, kept apart from the workload's
        # operations (see run_probes).
        self.probe_attempted = 0
        self.probe_failed = 0
        self.cross_checked_only = 0
        self.re_checked = 0
        self.problems: list = []
        self.slowdown = 1.0  # the Pacer's current estimate
        self.passes = 0
        self.match_s = Samples()  # tdfa engine, every mode and variant
        self.mp_match_s = Samples()  # multipass engine, offsets
        self.compile_s = Samples()
        self.setup_s = Samples()
        # (view, pattern key) -> per pass (raw seconds, scaled seconds)
        self.pass_times: dict = defaultdict(list)
        self.pass_bytes: dict = {}  # (view, pattern key) -> bytes per pass
        self.fingerprints: dict = {}

    @property
    def failed(self) -> int:
        return self.wrong + self.exceptions

    def problem(self, kind: str, what: str):
        if kind == "wrong":
            self.wrong += 1
        else:
            self.exceptions += 1
        if len(self.problems) < 50:
            self.problems.append(f"{kind}: {what}")


def expected_views(wl) -> list:
    specs = {s.key: s for s in wl.specs}
    out = []
    for row in wl.rows:
        spec = specs[row.key]
        lists, last = workloads.views(row.tokens, spec.tags)
        out.append((workloads.tdfa_values(row.tokens, spec), lists, last))
    return out


def setup(wl, tracer=None):
    """Import tdfa, compile every pattern of the workload in each
    configuration its rows use, and warm each one up with one match.
    Returns (seconds, compiled patterns by key and configuration, compile
    seconds of the three ways, the tdfa module)."""
    t0 = time.perf_counter()
    tdfa = load_tdfa()
    if tracer is not None:
        tracer.install()
    compiled = {}
    compile_s = []
    for spec in wl.specs:
        pats = {}
        for way, kw in configs(spec).items():
            c0 = time.perf_counter()
            pats[way] = tdfa.compile(spec.regex, **kw)
            if way in THREE_WAYS:
                compile_s.append(time.perf_counter() - c0)
        for p in pats.values():
            p.match(spec.warm)
        compiled[spec.key] = pats
    return time.perf_counter() - t0, compiled, compile_s, tdfa


def run_pass(wl, compiled, expected, st: Stats, counters=None, tick=None):
    """One pass over the workload's rows; tick() runs before each call."""
    sums: dict = defaultdict(lambda: [0.0, 0.0, 0])  # raw s, scaled s, bytes

    def call(view, key, nbytes, what, fn, samples=None):
        if tick is not None:
            tick()
        st.attempted += 1
        try:
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        except Exception as e:  # counted, the run goes on
            st.problem("exception", f"{what}: {e!r}")
            return None
        acc = sums[view, key]
        acc[0] += dt
        acc[1] += dt / st.slowdown
        acc[2] += nbytes
        if samples is not None:
            samples.add(dt, st.slowdown)
        return out

    for row, (values, lists, last) in zip(wl.rows, expected):
        pats = compiled[row.key]
        if row.scan:
            for way in ("tdfa", "tdfa_fixed"):
                p = pats.get(way)
                if p is None:
                    continue
                for mode, data, kind in (("full", row.data, "match"), ("prefix", row.prefix, "prefix")):
                    what = f"{row.key} {way} {mode} on {len(data)} bytes"
                    out = call("tdfa_" + mode, row.key, len(data), what,
                               lambda: p.match(data, mode=mode, counters=counters), st.match_s)
                    if out is not None and (out.kind != kind or out.end != len(row.data) or out.values != values):
                        st.problem("wrong", what)
            p = pats["multipass"]
            for repr_, want in (("offsets", last), ("lists", lists), ("tstring", row.tokens)):
                what = f"{row.key} multipass {repr_} on {len(row.data)} bytes"
                out = call("multipass_" + repr_, row.key, len(row.data), what,
                           lambda: p.match(row.data, repr_=repr_),
                           st.mp_match_s if repr_ == "offsets" else None)
                if out is not None and (out.kind != "match" or (out.tstring if repr_ == "tstring" else out.values) != want):
                    st.problem("wrong", what)
        if row.simulate:
            what = f"{row.key} simulation on {len(row.data)} bytes"
            out = call("simulation", row.key, len(row.data), what, lambda: pats["simulation"].match(row.data))
            if out is not None and (out.kind != "match" or out.values != last):
                st.problem("wrong", what)
    for k, (raw, scaled, nbytes) in sums.items():
        st.pass_times[k].append((raw, scaled))
        st.pass_bytes[k] = nbytes
    st.match_s.cut()
    st.mp_match_s.cut()


# -- the compile corpus -------------------------------------------------------


def fingerprint(p) -> list:
    a = p.tdfa
    return [a.n_states, a.register_count(), a.op_count(), hashlib.sha256(a.to_json().encode()).hexdigest()]


def _last(v):
    if isinstance(v, list):
        return v[-1] if v and v[-1] != -1 else None
    return v


def check_item(item, way, p, ref, st: Stats):
    """Check one compiled corpus pattern on its check inputs (untimed).

    Against `re` where the pattern is outside the divergence classes, else
    against the default tdfa configuration's outputs (`ref`, filled in by
    the first way)."""

    def agree(out, want) -> bool:
        if want is None:
            return out.kind == "none"
        kind, end, vals = want
        return out.kind == kind and out.end == end and {t: _last(v) for t, v in out.values.items()} == vals

    for i, data in enumerate(item.inputs):
        if way == "multipass":
            outs = {"offsets": p.match(data), "lists": p.match(data, repr_="lists"),
                    "tstring": p.match(data, repr_="tstring")}
            if outs["tstring"]:
                outs["tstring"].values = workloads.views(outs["tstring"].tstring, tuple(item.tagmap))[1]
                if workloads.data_of(outs["tstring"].tstring) != data:
                    st.problem("wrong", f"{item.key} multipass tstring symbols")
            modes = [("full", o) for o in outs.values()]
        else:
            modes = [("full", p.match(data)), ("prefix", p.match(data, mode="prefix"))]
            for _, out in modes:
                if out and any(isinstance(v, list) != (t in item.multi_tags) for t, v in out.values.items()):
                    st.problem("wrong", f"{item.key} {way}: multi-valued tags differ from multi=auto")
        for mode, out in modes:
            if item.re_regex is not None:
                if (i, mode) not in ref:
                    answer = corpus.oracle(item, data)
                    ref[i, mode] = answer if mode == "prefix" else _full(answer, data)
                want = ref[i, mode]
                st.re_checked += 1
            elif way == "tdfa":
                ref[i, mode] = None if not out else (out.kind, out.end, {t: _last(v) for t, v in out.values.items()})
                st.cross_checked_only += 1
                continue
            else:
                want = ref.get((i, mode))
                st.cross_checked_only += 1
            if not agree(out, want):
                st.problem("wrong", f"{item.key} {way} {mode} on {data!r}")


def _full(answer, data):
    """The full-mode answer from a longest-prefix one."""
    return answer if answer is not None and answer[1] == len(data) else None


def run_corpus(tdfa, wl, st: Stats, first: bool, refs: dict, tick=None):
    """Compile every corpus pattern three ways; check the outputs of the
    first pass and the fingerprints of every pass."""
    clock = time.perf_counter
    for item in wl.corpus:
        for way, kw in THREE_WAYS.items():
            if tick is not None:
                tick()
            st.attempted += 1
            try:
                t0 = clock()
                p = tdfa.compile(item.regex, **kw)
                dt = clock() - t0
            except Exception as e:
                st.problem("exception", f"compile {item.key} {way}: {type(e).__name__}")
                continue
            st.compile_s.add(dt, st.slowdown)
            if way != "multipass":
                fp = fingerprint(p)
                seen = st.fingerprints.setdefault(item.key, {}).setdefault(way, fp)
                if seen != fp:
                    st.problem("wrong", f"{item.key} {way}: automaton differs between passes")
            if first:
                check_item(item, way, p, refs.setdefault(item.key, {}), st)
    st.compile_s.cut()


def run_probes(tdfa, wl, st: Stats) -> dict:
    """Compile each limit probe three ways once; a probe that compiles is
    matched once and checked.

    The probes are within the documented limits, but most of their
    compiles fail today (RecursionError).  Their compiles are counted in
    st.probe_attempted and st.probe_failed, which failed_ratio includes,
    and not in st.attempted and st.failed, which hold the workload's own
    operations.  The match of a probe that compiles is a workload
    operation like any other."""
    results = {}
    for probe in wl.probes:
        for way, kw in THREE_WAYS.items():
            st.probe_attempted += 1
            t0 = time.perf_counter()
            try:
                p = tdfa.compile(probe.regex, **kw)
            except Exception as e:
                results[f"{probe.key} {way}"] = [type(e).__name__, time.perf_counter() - t0]
                st.probe_failed += 1
                continue
            results[f"{probe.key} {way}"] = ["ok", time.perf_counter() - t0]
            st.attempted += 1
            try:
                got = {t: _last(v) for t, v in p.match(probe.data).values.items()}
            except Exception as e:
                st.problem("exception", f"probe {probe.key} {way} match: {e!r}")
                continue
            if got != probe.values:
                st.problem("wrong", f"probe {probe.key} {way}")
    return results


# -- metrics ------------------------------------------------------------------


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def percentile(xs, q: float):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def throughput(st: Stats, view: str, raw: bool) -> tuple[float, int]:
    """Geometric mean over patterns of bytes per pass / median pass time."""
    i = 0 if raw else 1
    rates = [st.pass_bytes[k] / median([t[i] for t in times]) / 1e6
             for k, times in st.pass_times.items() if k[0] == view]
    n = sum(len(times) for k, times in st.pass_times.items() if k[0] == view)
    if not rates:
        return float("nan"), 0
    return math.exp(sum(math.log(r) for r in rates) / len(rates)), n


def end_to_end(st: Stats, raw: bool = False) -> dict:
    """The end-to-end metrics, scaled to the nominal machine speed, or as
    measured with raw=True."""
    m = {"setup_s": st.setup_s.median(raw, 1.0)}
    for view in ("tdfa_full", "tdfa_prefix", "multipass_offsets", "multipass_lists",
                 "multipass_tstring", "simulation"):
        m[view + "_mbps"] = throughput(st, view, raw)
    m["match_us_p50"] = st.match_s.median(raw, 1e6)
    m["match_us_p99"] = st.match_s.tail(0.99, raw, 1e6)
    m["multipass_match_us_p50"] = st.mp_match_s.median(raw, 1e6)
    m["compile_ms_p50"] = st.compile_s.median(raw, 1e3)
    m["compile_ms_p95"] = st.compile_s.tail(0.95, raw, 1e3)
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    attempted = st.attempted + st.probe_attempted
    m["failed_ratio"] = ((st.failed + st.probe_failed) / attempted, attempted)
    return m


def per_layer(iterations: list, untraced: list) -> dict:
    """Medians over traced iterations of self times and counts; the
    overhead compares them with the untraced iterations' median."""
    def med(f):
        return median([f(it) for it in iterations]), len(iterations)

    m = {}
    for name in LAYER_TIMES:
        m[name + "_s"] = med(lambda it: it["self"].get(name, 0.0))
    m["determinize.time_s"] = med(lambda it: it["self"].get("determinize.time", 0.0))
    for name in LAYER_COUNTS:
        m[name] = med(lambda it: it["counts"].get(name, 0))
    m["determinize.map_hit_ratio"] = med(
        lambda it: it["counts"].get("determinize.map_hits", 0) / max(1, it["counts"].get("determinize.map_attempts", 0)))
    m["runtime.ops_per_byte"] = med(
        lambda it: it["counts"].get("runtime.operations", 0) / max(1, it["counts"].get("runtime.transitions", 0)))
    traced = median([it["wall"] for it in iterations])
    plain = median(untraced)
    n = len(iterations) + len(untraced)
    m["trace.overhead_s"] = (traced - plain, n)
    m["trace.overhead_share"] = ((traced - plain) / plain, n)
    return m


# -- measurement --------------------------------------------------------------


class Pacer:
    """Called before each timed call or compile.

    Every 50 ms it times the control loop and sets st.slowdown to the
    median of the last nine control times over CONTROL_NOMINAL_S; and it
    runs each of the n_setup set-ups when its turn comes, so that they
    spread evenly over the run."""

    def __init__(self, wl, st: Stats, seconds: float, n_setup: int):
        self.wl = wl
        self.st = st
        self.seconds = seconds
        self.n_setup = n_setup
        self.control_s = array("d")
        self.start = time.perf_counter()
        self._last = float("-inf")
        self.compiled = self.tdfa = None

    def setup(self, compile_samples: bool):
        dt, self.compiled, compile_s, self.tdfa = setup(self.wl)
        self.st.setup_s.add(dt, self.st.slowdown)
        if compile_samples:
            for c in compile_s:
                self.st.compile_s.add(c, self.st.slowdown)
            self.st.compile_s.cut()
        # The previous import's modules and patterns are cyclic garbage;
        # collect it here, untimed, rather than inside a timed call.
        gc.collect()

    def __call__(self):
        now = time.perf_counter()
        if now - self._last >= 0.05:
            t0 = time.perf_counter()
            _control_loop()
            self._last = time.perf_counter()
            self.control_s.append(self._last - t0)
            self.st.slowdown = median(self.control_s[-9:]) / CONTROL_NOMINAL_S
        due = len(self.st.setup_s) * self.seconds / self.n_setup
        if len(self.st.setup_s) < self.n_setup and now - self.start >= due:
            # Without a corpus, the compile metrics sample the set-ups.
            self.setup(compile_samples=not self.wl.corpus)


def measure(wl, seconds: float, st: Stats) -> dict:
    expected = expected_views(wl)
    pace = Pacer(wl, st, seconds, N_SETUP)
    pace()
    refs: dict = {}
    while st.passes < 2 or time.perf_counter() - pace.start < seconds or len(st.setup_s) < N_SETUP:
        if wl.corpus:
            run_corpus(pace.tdfa, wl, st, st.passes == 0, refs, pace)
        for _ in range(wl.row_passes):
            run_pass(wl, pace.compiled, expected, st, tick=pace)
        st.passes += 1
    gc.collect()  # so that peak memory does not depend on when it last ran
    probes = run_probes(pace.tdfa, wl, st)
    control = median(pace.control_s)
    return {"metrics": end_to_end(st), "raw": end_to_end(st, raw=True), "passes": st.passes,
            "setups": len(st.setup_s), "control_ms": control * 1e3,
            "slowdown": control / CONTROL_NOMINAL_S, "probes": probes}


def measure_traced(wl, seconds: float, st: Stats) -> dict:
    expected = expected_views(wl)

    def iteration(tracer, counters):
        """Seconds of one set-up plus pass, scaled by the slowdown that the
        control loop shows just before and just after it."""
        gc.collect()  # the previous iteration's import and patterns, untimed
        before = control_seconds()
        t0 = time.perf_counter()
        _, compiled, _, tdfa = setup(wl, tracer)
        if wl.corpus:
            run_corpus(tdfa, wl, st, False, {})
        run_pass(wl, compiled, expected, st, counters)
        wall = time.perf_counter() - t0
        return wall * 2 * CONTROL_NOMINAL_S / (before + control_seconds())

    def traced():
        self0, counts0 = tracer.snapshot()
        counters: dict = {}
        wall = iteration(tracer, counters)
        self1, counts1 = tracer.snapshot()
        counts = {k: v - counts0.get(k, 0) for k, v in counts1.items()}
        counts["runtime.transitions"] = counters.get("transitions", 0)
        counts["runtime.operations"] = counters.get("operations", 0)
        iterations.append({"wall": wall, "self": {k: v - self0.get(k, 0.0) for k, v in self1.items()},
                           "counts": counts})

    tracer = Tracer()
    untraced, iterations = [], []
    # The first iteration in a process also pays for growing the heap; it
    # is not counted.  Then untraced and traced iterations alternate, in
    # turn first and second, so that both meet the same drift in the
    # machine's speed.
    iteration(None, None)
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        traced_first = len(iterations) % 2 == 1
        if traced_first:
            traced()
        untraced.append(iteration(None, None))
        if not traced_first:
            traced()
    tracer.check_opened(LAYER_TIMES + ["determinize.time"])
    # The probes run on a fresh, untraced import: a RecursionError inside
    # the wrappers would leave spans open.
    probes = run_probes(load_tdfa(), wl, st)
    return {"metrics": per_layer(iterations, untraced), "passes": len(iterations), "probes": probes,
            "untraced_s": untraced, "traced_s": [it["wall"] for it in iterations], "spans": tracer.spans, "spans_not_stored": tracer.unstored}


def environment(args) -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not use_sources():
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    # The generated inputs and answers are large and live for the whole
    # run; frozen, they stay out of the collections the library triggers.
    gc.collect()
    gc.freeze()
    st = Stats()
    try:
        res = (measure_traced if args.trace else measure)(wl, args.seconds, st)
    except HookMissing as e:
        print(f"perfbench: TRACE HOOK MISSING: {e}; the per-layer metrics that depend on it "
              "cannot be measured. Update perfbench/tracer.py.", file=sys.stderr)
        return 3
    metrics = res["metrics"]
    env = environment(args)
    env.update(setups=res.get("setups", 1), passes=res["passes"], rows=len(wl.rows),
               corpus_patterns=len(wl.corpus))
    if "raw" in res:
        env.update(control_ms=round(res["control_ms"], 4), slowdown=round(res["slowdown"], 4))
    raw = res.get("raw", metrics)

    units = dict(PER_LAYER if args.trace else END_TO_END + [("failed_ratio", "ratio")])
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {'metric':<32} {'value':>14} {'raw':>14} {'unit':<6} samples")
    for name, (value, n) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {raw[name][0]:>14.6g} {units[name]:<6} {n}")
    print(f"# checks: attempted={st.attempted} failed={st.failed} (wrong={st.wrong} "
          f"exceptions={st.exceptions}) re_checked={st.re_checked} "
          f"cross_checked_only={st.cross_checked_only}")
    if st.probe_attempted:
        print(f"# limit probe compiles: attempted={st.probe_attempted} failed={st.probe_failed} "
              "(in failed_ratio, not in the workload's attempted/failed)")
    for name, (outcome, secs) in res["probes"].items():
        print(f"# probe {name}: {outcome} after {secs:.3f}s")
    for p in st.problems[:10]:
        print(f"# {p}")

    OUT.mkdir(exist_ok=True)
    detail = {"environment": env,
              "metrics": {k: {"value": v, "raw": raw[k][0], "unit": units[k], "samples": n}
                          for k, (v, n) in metrics.items()},
              "attempted": st.attempted, "failed": st.failed, "wrong": st.wrong,
              "exceptions": st.exceptions, "probe_attempted": st.probe_attempted,
              "probe_failed": st.probe_failed, "re_checked": st.re_checked,
              "cross_checked_only": st.cross_checked_only, "problems": st.problems,
              "probes": res["probes"], "fingerprints": st.fingerprints,
              "throughput_rows": {f"{v} {k}": [st.pass_bytes[v, k], times]
                                  for (v, k), times in st.pass_times.items()}}
    if args.trace:
        detail.update(untraced_s=res["untraced_s"], traced_s=res["traced_s"], spans_not_stored=res["spans_not_stored"],
                      span_fields=["name", "start", "end", "parent", "op"], spans=res["spans"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, separators=(",", ":")))

    reported = [n for n, _ in PER_LAYER] if args.trace else [n for n, _ in END_TO_END]
    print(json.dumps({
        "correct": st.wrong == 0,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n]} for n in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
