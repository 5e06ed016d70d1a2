"""The per-state walks of determinization and minimization against dense
references that visit every class of the alphabet (tests/helpers.py)."""

from random import Random

import tdfa
from tdfa.determinize import Determinizer
from tdfa.fuzz import gen_pattern
from tdfa.multipass import _Multipass, MultipassTdfa
from tdfa.optimizer import minimize
from tdfa.resyntax import parse_regex
from tdfa.tnfa import build_tnfa

from helpers import dense_minimize_partition, dense_seeds, state_rows


def corpus():
    """200 patterns `(?:p)(?:s)|(?:q)(?:s)` from gen_pattern over abcdefgh:
    the shared suffix gives minimization states to merge (in about a third
    of the optimized automata)."""
    rng = Random(13)
    out = []
    for _ in range(200):
        p, q, s = (gen_pattern(rng, max_nodes=8, max_tags=2, alphabet="abcdefgh") for _ in range(3))
        out.append(f"(?:{p})(?:{s})|(?:{q})(?:{s})")
    return out


def test_seeds_per_state_equal_the_dense_scan():
    for pattern in corpus():
        nfa = build_tnfa(parse_regex(pattern))
        for d in (Determinizer(nfa), _Multipass(nfa, MultipassTdfa(nfa.tags, nfa.alphabet, nfa.byte_to_class), 100_000, nfa.q0)):
            d.run()
            for state in d.states:
                assert d.seeds(state) == dense_seeds(nfa, state_rows(state), nfa.alphabet), pattern


def test_minimize_partition_equals_the_dense_refinement():
    for pattern in corpus():
        for kw in ({}, {"fixed_tags": True}, {"opt": "none"}):
            a = tdfa.compile(pattern, **kw).tdfa
            part = dense_minimize_partition(a)
            m = minimize(a)
            assert m.n_states == max(part) + 1 and m.s0 == part[a.s0], pattern
            assert m.phi.keys() == {part[s] for s in a.phi}, pattern
            want = {(part[s], c): (part[t], ops) for (s, c), (t, ops) in a.delta.items()}
            assert m.delta == want, pattern
