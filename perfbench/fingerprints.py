"""Record or check the automata that the compile corpus produces.

    python3 perfbench/fingerprints.py --write   # record the baseline
    python3 perfbench/fingerprints.py           # compare with it

For every pattern of the compile corpus of seed 1, the optimized
automaton (default options) and the minimized one (use_minimize=True,
fixed_tags=True) are fingerprinted by states, registers, operations and
the sha256 of Tdfa.to_json().  The check exits 1 when any fingerprint differs from the recorded baseline in
perfbench/baseline/, so a change that alters the automata shows.
"""

import argparse
import json
import sys
from pathlib import Path

import run
import workloads

SEED = 1
BASELINE = Path(__file__).resolve().parent / "baseline" / f"fingerprints-seed{SEED}.json"


def compute() -> dict:
    tdfa = run.load_tdfa()
    out: dict = {}
    for item in workloads.compile_corpus(SEED).corpus:
        for way in ("tdfa", "tdfa_min"):
            p = tdfa.compile(item.regex, **run.THREE_WAYS[way])
            out.setdefault(item.key, {})[way] = run.fingerprint(p)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="record the baseline instead of checking it")
    args = ap.parse_args(argv)
    if not run.use_sources():
        return 2
    got = compute()
    if args.write:
        BASELINE.parent.mkdir(exist_ok=True)
        BASELINE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(got)} patterns in {BASELINE.name}")
        return 0
    recorded = json.loads(BASELINE.read_text())
    differ = sorted(k for k in set(recorded) | set(got) if recorded.get(k) != got.get(k))
    for key in differ:
        print(f"differs: {key}: recorded {recorded.get(key)} now {got.get(key)}")
    print(f"{len(got) - len(differ)} of {len(got)} patterns match {BASELINE.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
