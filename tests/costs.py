"""Exact interpreter costs of a match, counted from outside the library.

`cost(fn)` calls fn once with `sys.settrace` (`f_trace_opcodes`) and
`sys.setprofile` set on the calling thread only, and returns the vector
of that call: "bytecodes", the Python bytecodes that frames of the tdfa
package ran, and one count per C function those frames called, by name
(`bytes.find`, `list.append`, ...).  Nothing in the package changes, and
the counts do not depend on the host or on PYTHONHASHSEED.  They differ
between Python minor versions, and `f_trace_opcodes` does not report
EXTENDED_ARG (use `dis` for that).  A traced call runs 20-100 times
slower, so it is never timed.

The rows are the match shapes of perfbench's three workloads, on small
seeded inputs generated here: per pattern, the tdfa engine in full and
prefix mode (short records also with fixed tags) and the multipass engine
with offsets.  Each row's vector is of one call, after a warm-up call has
built the match plan.  tests/cost_pins.json pins them with the Python
version they were taken on:

    PYTHONPATH=src python tests/costs.py           # print every row
    PYTHONPATH=src python tests/costs.py --pin     # rewrite the pins
"""

import json
import os
import sys
from pathlib import Path
from random import Random

import tdfa

PACKAGE = os.path.dirname(tdfa.__file__) + os.sep
PINS = Path(__file__).parent / "cost_pins.json"


def cost(fn) -> dict:
    """The vector of one call of fn: bytecodes and C calls by name."""
    counts = {"bytecodes": 0}

    def local(frame, event, arg):
        if event == "opcode":
            counts["bytecodes"] += 1
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            frame.f_trace_opcodes = True
            return local
        return None

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename.startswith(PACKAGE):
            name = getattr(arg, "__qualname__", None) or repr(arg)
            counts[name] = counts.get(name, 0) + 1

    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return counts


# -- inputs of the workloads' shapes -----------------------------------------


def alt(chars: bytes) -> str:
    return "(?:" + "|".join(chr(c) for c in chars) + ")"


def pick(rng: Random, letters: bytes, lo: int, hi: int) -> bytes:
    return bytes(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def csv_record(rng: Random, n: int, letters: bytes, max_field: int) -> bytes:
    fields = [pick(rng, letters, 1, max_field)]
    while sum(map(len, fields)) + len(fields) - 1 < n:
        fields.append(pick(rng, letters, 1, max_field))
    return b",".join(fields)


def kv_record(rng: Random, n: int) -> bytes:
    out = b""
    while len(out) < n:
        out += pick(rng, b"keyabc", 1, 8) + b"=" + pick(rng, b"val012", 0, 10) + b";"
    return out


LOG_LETTERS = b"abcdefghijklmnopqrstuvwxyz "


def log_record(rng: Random, n: int) -> bytes:
    head = b"%02d:%02d:%02d %s " % (rng.randrange(24), rng.randrange(60), rng.randrange(60),
                                    rng.choice([b"INFO", b"WARN", b"ERROR"]))
    return head + pick(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 1) + pick(rng, LOG_LETTERS, n - len(head), n - len(head))


CSV3 = "((?:a|b|c)+)(?:,((?:a|b|c)+))*"
CSV_LETTERS = b"abcdef012345"
_D = alt(b"0123456789")


def shapes():
    """(name, pattern, compile options, input, prefix-mode tail) of every
    workload shape: the long-scan patterns on about 1 KB, the
    short-records ones on one record each and the two compile-corpus
    families at k = 10."""
    rng = Random(2026)
    n = 1000
    ab = bytes(rng.choice(b"ab") for _ in range(n))
    yield "long-scan/ab_star", "(?:a|b)*", {}, ab, b"c"
    yield "long-scan/ab_tag_ab", "(?:a|b)*#(?:a|b)*", {"multi": "none"}, ab, b"c"
    csv = csv_record(rng, n, b"abc", 8)
    yield "long-scan/csv_none", CSV3, {"multi": "none"}, csv, b",d"
    yield "long-scan/csv_auto", CSV3, {}, csv, b",d"
    yield "long-scan/tag_star", "(?:#a)*", {}, b"a" * n, b"b"
    yield "long-scan/golden", "(a)*#(?:a|#b)#b*", {}, b"a" * (n // 2) + b"b" * (n - n // 2), b"c"
    yield "long-scan/tag_star_a100", "(?:#a)*a{100}", {}, b"a" * (n // 15 + 100), b"b"
    csv = "(" + alt(CSV_LETTERS) + "+)(?:,(" + alt(CSV_LETTERS) + "+))*"
    kv = "(?:(" + alt(b"keyabc") + "+)=(" + alt(b"val012") + "*);)+"
    log = f"({_D}{{2}}:{_D}{{2}}:{_D}{{2}}) (INFO|WARN|ERROR) ({alt(LOG_LETTERS)}+)"
    yield "short-records/csv", csv, {}, csv_record(rng, 120, CSV_LETTERS, 10), b",!"
    yield "short-records/kv", kv, {}, kv_record(rng, 120), b"k=!"
    yield "short-records/log", log, {}, log_record(rng, 120), b"\n"
    yield "compile-corpus/tag_star_a10", "(?:#a)*a{10}", {}, b"a" * 50, b"b"
    yield "compile-corpus/ab_tag_a10", "(a|b)*(?:#a){10}", {}, ab[:40] + b"a" * 10, b"bc"


def rows():
    """(row name, call) for every pinned row."""
    for name, pattern, kw, data, tail in shapes():
        configs = [("tdfa", kw)]
        if name.startswith("short-records/"):
            configs.append(("tdfa fixed", dict(kw, fixed_tags=True)))
        for label, kw_ in configs:
            p = tdfa.compile(pattern, **kw_)
            for mode, text in (("full", data), ("prefix", data + tail)):
                yield f"{name} {label} {mode}", (lambda p=p, text=text, mode=mode: p.match(text, mode))
        mp = tdfa.compile(pattern, engine="multipass")
        yield f"{name} multipass offsets", (lambda mp=mp, data=data: mp.match(data))


def measure() -> dict:
    out = {}
    for name, call in rows():
        assert call(), name  # every row matches; this call also builds the plan
        out[name] = cost(call)
    return out


def version() -> str:
    return "%d.%d" % sys.version_info[:2]


if __name__ == "__main__":
    vectors = measure()
    if sys.argv[1:] == ["--pin"]:
        PINS.write_text(json.dumps({"python": version(), "rows": vectors}, indent=1, sort_keys=True) + "\n")
    else:
        for name, vector in vectors.items():
            print(name, json.dumps(vector, sort_keys=True))
