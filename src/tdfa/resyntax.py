"""Regular expression front end: concrete syntax, tagging, fixed-tag analysis.

The pattern language is byte oriented.  Atoms are literal bytes, ``#`` (a
standalone submatch marker), capturing groups ``(...)`` that expand to a
marker pair, and plain groups ``(?:...)``.  Postfix operators are ``*``,
``+``, ``?`` and counted repetition ``{n}``, ``{n,}``, ``{n,m}``.
Alternation ``|`` binds loosest and empty branches are allowed.
Metacharacters are escaped with a backslash.

Markers ("tags") are numbered 1..n in textual order; tag 0 is reserved for
the rightmost-position pseudo base used by the fixed-tag analysis.

Nodes are immutable, so one node may stand at several places in a tree:
the parser shares one `Sym` per byte, made on first use, and
`strip_fixed_tags` returns every subtree that holds no fixed tag as the
same object.  The parser reads a run of plain bytes, and a run of
single-byte branches, with one `re` match each, and the walks dispatch on
`type(node)`: on these trees both are several times faster than a byte at
a time and `match` class patterns.
"""

import functools
import itertools
import re
from dataclasses import dataclass

MAX_REPEAT = 1000

# Pseudo base tag: evaluates to the total match length.
RIGHTMOST = 0

_METACHARS = set(b"|()*+?{}#\\")

NAN = float("nan")


def isnan(x) -> bool:
    return x != x


@dataclass(frozen=True, slots=True)
class Empty:
    pass


@dataclass(frozen=True, slots=True)
class Sym:
    code: int  # byte value


@dataclass(frozen=True, slots=True)
class Tag:
    tid: int


@dataclass(frozen=True, slots=True)
class Alt:
    left: "TaggedRegex"
    right: "TaggedRegex"


@dataclass(frozen=True, slots=True)
class Cat:
    left: "TaggedRegex"
    right: "TaggedRegex"


@dataclass(frozen=True, slots=True)
class Rep:
    body: "TaggedRegex"
    lo: int
    hi: int | None  # None = unbounded


TaggedRegex = Empty | Sym | Tag | Alt | Cat | Rep

_sym = functools.cache(Sym)
# A run of bytes that are no metacharacter, read in one match; it stops
# before a byte that a postfix operator follows, which the operator takes.
_PLAIN = re.compile(rb"(?:[^|()*+?{}#\\](?![*+?{]))*")
# A run of branches of one such byte each, `a|b|`, read in one match.
_SINGLES = re.compile(rb"(?:[^|()*+?{}#\\]\|)*")
_DIGITS = re.compile(rb"[0-9]*")
_POSTFIX = {ord("*"): (0, None), ord("+"): (1, None), ord("?"): (0, 1)}  # (lo, hi)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


def _fold(node, parts: list) -> TaggedRegex:
    # Balanced fold: keeps tree depth logarithmic so the structural
    # recursions elsewhere handle very long concatenations and alternations.
    def fold(lo, hi):
        mid = (lo + hi) // 2
        left = fold(lo, mid) if mid - lo > 1 else parts[lo]
        return node(left, fold(mid, hi) if hi - mid > 1 else parts[mid])

    return parts[0] if len(parts) == 1 else fold(0, len(parts))


class _Parser:
    def __init__(self, data: bytes):
        self.data = data
        self.i = 0
        self.ntags = 0

    def error(self, message: str):
        raise ParseError(message, self.i)

    def peek(self) -> int | None:
        return self.data[self.i] if self.i < len(self.data) else None

    def next_tag(self) -> int:
        self.ntags += 1
        return self.ntags

    def parse(self) -> TaggedRegex:
        node = self.alternation()
        if self.i < len(self.data):
            self.error(f"unexpected {chr(self.data[self.i])!r}")
        return node

    def alternation(self) -> TaggedRegex:
        data, branches = self.data, []
        while True:
            end = _SINGLES.match(data, self.i).end()
            branches += map(_sym, data[self.i : end : 2])
            self.i = end
            branches.append(self.concatenation())
            if data[self.i : self.i + 1] != b"|":
                return _fold(Alt, branches)
            self.i += 1

    def concatenation(self) -> TaggedRegex:
        data, parts, i = self.data, [], self.i
        while True:
            end = _PLAIN.match(data, i).end()
            parts += map(_sym, data[i:end])
            if end == len(data) or data[end] in b"|)":
                break
            self.i = end
            parts.append(self.postfix())
            i = self.i
        self.i = end
        return _fold(Cat, parts) if parts else Empty()

    def postfix(self) -> TaggedRegex:
        node = self.atom()
        while (c := self.peek()) is not None and c in b"*+?{":
            if c == ord("{"):
                node = Rep(node, *self.bounds())
            else:
                self.i += 1
                node = Rep(node, *_POSTFIX[c])
        return node

    def atom(self) -> TaggedRegex:
        # Called at a byte that is neither `|` nor `)`.
        c = self.data[self.i]
        if c in b"*+?{":
            self.error("nothing to repeat")
        if c == ord("}"):
            self.error("unbalanced '}'")
        self.i += 1
        if c == ord("#"):
            return Tag(self.next_tag())
        if c == ord("\\"):
            e = self.peek()
            if e is None or e not in _METACHARS:
                self.error("unknown escape")
            self.i += 1
            return _sym(e)
        if c == ord("("):
            capturing = self.data[self.i : self.i + 2] != b"?:"
            self.i += 0 if capturing else 2
            open_tag = self.next_tag() if capturing else None
            inner = self.alternation()
            if self.peek() != ord(")"):
                self.error("expected ')'")
            self.i += 1
            if not capturing:
                return inner
            return Cat(Tag(open_tag), Cat(inner, Tag(self.next_tag())))
        return _sym(c)

    def bounds(self) -> tuple[int, int | None]:
        start = self.i
        self.i += 1  # '{'
        lo = self.number()
        c = self.peek()
        if c == ord("}"):
            self.i += 1
            return lo, lo
        if c != ord(","):
            self.error("expected ',' or '}' in repetition bounds")
        self.i += 1
        if self.peek() == ord("}"):
            self.i += 1
            return lo, None
        hi = self.number()
        if self.peek() != ord("}"):
            self.error("expected '}' in repetition bounds")
        self.i += 1
        if hi < lo:
            self.i = start
            self.error(f"bad repetition bounds {{{lo},{hi}}}")
        return lo, hi

    def number(self) -> int:
        start, self.i = self.i, _DIGITS.match(self.data, self.i).end()
        if self.i == start:
            self.error("expected a number")
        n = int(self.data[start : self.i])
        if n > MAX_REPEAT:
            self.error(f"repetition bound {n} exceeds limit {MAX_REPEAT}")
        return n


def parse_regex(pattern: str | bytes) -> TaggedRegex:
    """Parse the concrete syntax into a tagged AST."""
    data = pattern.encode() if isinstance(pattern, str) else bytes(pattern)
    return _Parser(data).parse()


def tag_analysis(e: TaggedRegex) -> tuple[tuple[int, ...], frozenset[int]]:
    """All tag ids in the AST, ascending, and the tags that can match more
    than once: those under a repetition with hi > 1."""
    tags, multi = [], []

    def walk(n, reps):
        t = type(n)
        if t is Cat or t is Alt:
            walk(n.left, reps)
            walk(n.right, reps)
        elif t is Tag:
            tags.append(n.tid)
            if reps:
                multi.append(n.tid)
        elif t is Rep:
            walk(n.body, reps or n.hi is None or n.hi > 1)

    walk(e, False)
    return tuple(sorted(tags)), frozenset(multi)


def auto_tag(e: TaggedRegex) -> TaggedRegex:
    """Surround every subexpression with a fresh tag pair (full parsing).

    Tag ids are assigned in pre-order (open on entry, close on exit), which
    keeps them contiguous 1..2n.  The input must not contain tags already.
    """
    if tag_analysis(e)[0]:
        raise ValueError("auto_tag requires an untagged expression")
    fresh = itertools.count(1).__next__

    def wrap(n: TaggedRegex) -> TaggedRegex:
        o = fresh()
        match n:
            case Alt(l, r) | Cat(l, r):
                n = type(n)(wrap(l), wrap(r))
            case Rep(b, lo, hi):
                n = Rep(wrap(b), lo, hi)
        c = fresh()
        return Cat(Tag(o), Tag(c)) if isinstance(n, Empty) else Cat(Tag(o), Cat(n, Tag(c)))

    return wrap(e)


def fixed_tags(e, base, dist, level, fixes):
    """Structural recursion locating tags at fixed distance from a base.

    ``base`` is the current base tag id (None when there is none on this
    level), ``dist`` the distance to it and ``level`` the distance to the
    start of the current level; unknown distances are NAN and absorb any
    arithmetic.  Fixations are recorded into ``fixes`` as tag -> (base,
    distance).  Returns the updated (base, dist, level).
    """
    t = type(e)
    if t is Cat:
        base, dist, level = fixed_tags(e.right, base, dist, level, fixes)
        return fixed_tags(e.left, base, dist, level, fixes)
    if t is Sym:
        return base, dist + 1, level + 1
    if t is Alt:
        _, _, k1 = fixed_tags(e.left, None, NAN, 0, fixes)
        _, _, k2 = fixed_tags(e.right, None, NAN, 0, fixes)
        k = k1 if k1 == k2 else NAN
        return base, dist + k, level + k
    if t is Tag:
        if base is not None and not isnan(dist):
            fixes[e.tid] = (base, dist)
            return base, dist, level
        return e.tid, 0, level
    if t is Rep:
        _, _, k1 = fixed_tags(e.body, None, NAN, 0, fixes)
        k = e.lo * k1 if e.hi == e.lo else NAN
        return base, dist + k, level + k
    if t is Empty:
        return base, dist, level
    raise TypeError(f"not a regex node: {e!r}")


def find_fixed_tags(e: TaggedRegex) -> dict[int, tuple[int, int]]:
    """Run the fixed-tag analysis from the top level.

    The initial base is the rightmost-position pseudo tag, whose value is
    the total match length.  A base tag is never itself fixed: a tag either
    becomes the base of its level or gets fixed, never both.
    """
    fixes: dict[int, tuple[int, int]] = {}
    fixed_tags(e, RIGHTMOST, 0, 0, fixes)
    for base, _ in fixes.values():
        assert base not in fixes, "a base tag must never itself be fixed"
    return fixes


def strip_fixed_tags(e: TaggedRegex, fixed: set[int]) -> TaggedRegex:
    """Remove fixed tags from the AST before automaton construction.  A
    subtree that holds no fixed tag comes back as the same object."""
    if not fixed:
        return e

    def strip(n):
        t = type(n)
        if t is Cat or t is Alt:
            left, right = strip(n.left), strip(n.right)
            return n if left is n.left and right is n.right else t(left, right)
        if t is Tag:
            return Empty() if n.tid in fixed else n
        if t is Rep:
            body = strip(n.body)
            return n if body is n.body else Rep(body, n.lo, n.hi)
        return n

    return strip(e)


def apply_fixed_tags(values: dict, fixes: dict[int, tuple[int, int]], length: int) -> dict:
    """Fill in values of fixed tags from their bases.

    A fixed tag is nil when its base is nil, else base - distance; the
    rightmost pseudo base evaluates to the input length.  List values
    (multi-valued bases) are mapped elementwise.
    """
    out = dict(values)
    for t, (base, dist) in fixes.items():
        bv = length if base == RIGHTMOST else out.get(base)
        if isinstance(bv, list):
            out[t] = [x - dist if x is not None and x >= 0 else x for x in bv]
        elif bv is None:
            out[t] = None
        else:
            out[t] = bv - dist
    return out


def ast_to_json(e: TaggedRegex):
    match e:
        case Empty():
            return {"kind": "empty"}
        case Sym(c):
            return {"kind": "sym", "byte": c}
        case Tag(t):
            return {"kind": "tag", "tag": t}
        case Alt(l, r):
            return {"kind": "alt", "left": ast_to_json(l), "right": ast_to_json(r)}
        case Cat(l, r):
            return {"kind": "cat", "left": ast_to_json(l), "right": ast_to_json(r)}
        case Rep(b, lo, hi):
            return {"kind": "rep", "lo": lo, "hi": hi, "body": ast_to_json(b)}
    raise TypeError(f"not a regex node: {e!r}")
