"""Byte-identity gate for the TNFA, determinization, the optimizer and
minimizer.

tests/identity_pins.json pins sha256 hashes for the golden pattern, the
first 50 patterns of gen_pattern(Random(2024)) and the larger patterns in
EXTRA, each as [pattern, optimized (default options), minimized
(use_minimize=True, fixed_tags=True), unoptimized (opt="none"),
multipass, tnfa].  The first three hash Tdfa.to_json(); the multipass hash
is of the canonical JSON below; the tnfa hash is of tnfa_to_dot, the text
`tdfa compile --dump=tnfa` writes, so it also sees a renumbering of TNFA
states that leaves every automaton built from it unchanged.  TNFA_LARGE
pins counted repetitions large enough to run the unrolling loops.  The
small fuzz patterns leave register allocation few choices; the EXTRA
automata change when the allocator visits registers or classes in another
order.  A change that alters any
automaton fails here; if the change is intended, say why and re-record the
pins.
"""

import hashlib
import json
from pathlib import Path
from random import Random

import tdfa
from tdfa.fuzz import gen_pattern
from tdfa.resyntax import parse_regex
from tdfa.tnfa import build_tnfa, tnfa_to_dot

GOLDEN = "(a)*#(?:a|#b)#b*"
EXTRA = ["(?:#a)*a{20}", "(a|b)*(?:#a){8}", "((a)|(b))*#(a|b){3}", "((?:a|b|c)+)(?:,((?:a|b|c)+))*"]
# Many-class patterns: three perfbench-style records (22-27 classes, 28-33
# with one class per byte), the short-records `log` pattern (12 classes, 46
# with one per byte) and two gen_pattern outputs over `abcdefgh`.
# Determinization and minimization visit classes per state, so these pin
# the order in which states and registers are numbered there.
_D = "(?:0|1|2|3|4|5|6|7|8|9)"
_L = "(?:" + "|".join("abcdefghijklmnopqrstuvwxyz ") + ")"
EXTRA += [
    "(?:;((?:g|e|c)+))?-(?:,((?:3|5|6)+))* #(?:i|o|n)+:((?:NOTE|KEEP|OK|DROP))/((?:1|0|6|3){4,11})"
    "=(?:;((?:c|f|h)+))?",
    "#(?:l|n|i)+:((?:HEAD|WARN|PATCH|DROP|INFO))/((?:0|4|6|5){10,29})=(?:;((?:e|c|f)+))?-(?:,((?:3|1|0)+))*",
    "((?:3|0|5|9){10,29})=(?:;((?:f|b|e)+))?-(?:,((?:4|1|3)+))* #(?:i|o|l)+:((?:SEND|PUT|ERROR|KEEP|DROP))"
    "/((?:8|2|1|5){6,17})=(?:(x)|y)*",
    f"({_D}{{2}}:{_D}{{2}}:{_D}{{2}}) (INFO|WARN|ERROR) ({_L}+)",
    "f{2,2}(db(?:e|c*))f?|(h?#|dgd#)",
    "e*ac(?:g?c*d*|(?:eh(?:e)c|#)){1,3}|b",
]
# Large automata: hundreds of states whose rows repeat across states, so
# these pin what determinization does when states share rows.
EXTRA += ["(?:#a)*a{300}", "(?:a?){300}"]
# The slowest compile of the compile corpus: its allocator coalesces about
# two thousand registers into 189 classes.
EXTRA += ["(a|b)*(?:#a){61}"]
PINS = json.loads((Path(__file__).parent / "identity_pins.json").read_text())
TNFA_LARGE = {
    "(?:a{100}){100}": "2404f421275b6587fcd00a82099d8627fe5d8f584845ccceee14b21d4db5f8ad",
    "(a{2,5}){0,3}": "54b12adde8230d76dc270c2b3c6a29ae6476ae2253cbfc8cd26bae773166f785",
    "(?:(a)|b){3,}": "f74b25f0bb1cd446323d6f1aad794ba3e2b249e96719a37aac157fb3cfb52332",
    "(?:#a)*a{1000}": "7e26640d458c2af340e34ccffaa14b39f3e6deb36ca879bc5ef45456c2fee1ea",
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_pinned_corpus_is_golden_fuzz_seed_2024_and_extra():
    rng = Random(2024)
    assert [p for p, *_ in PINS] == [GOLDEN] + [gen_pattern(rng) for _ in range(50)] + EXTRA


def multipass_json(mp) -> str:
    """The multipass automaton as canonical JSON: states, start, finals,
    transitions and final backlinks, sorted.  As in Tdfa.to_json(), a
    transition is written once per byte (`per_byte_delta`)."""
    return json.dumps({
        "n_states": mp.n_states,
        "s0": mp.s0,
        "finals": sorted(mp.phi),
        "delta": mp.per_byte_delta()[1],
        "phi": [[s, i, l] for s, (i, l) in sorted(mp.phi.items())],
    })


def test_optimized_and_minimized_automata_byte_identical():
    differ = []
    for pattern, opt, minimized, _, _, _ in PINS:
        got_opt = sha(tdfa.compile(pattern).tdfa.to_json())
        got_min = sha(tdfa.compile(pattern, use_minimize=True, fixed_tags=True).tdfa.to_json())
        if (got_opt, got_min) != (opt, minimized):
            differ.append(pattern)
    assert differ == []


def test_unoptimized_and_multipass_automata_byte_identical():
    differ = []
    for pattern, _, _, none, multipass, _ in PINS:
        got_none = sha(tdfa.compile(pattern, opt="none").tdfa.to_json())
        got_mp = sha(multipass_json(tdfa.compile(pattern, engine="multipass").mp))
        if (got_none, got_mp) != (none, multipass):
            differ.append(pattern)
    assert differ == []


def test_tnfa_byte_identical():
    pins = {pattern: tnfa for pattern, *_, tnfa in PINS} | TNFA_LARGE
    got = {p: sha(tnfa_to_dot(build_tnfa(parse_regex(p)))) for p in pins}
    assert [p for p in pins if got[p] != pins[p]] == []
