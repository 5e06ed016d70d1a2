"""Regular expression front end: concrete syntax, tagging, fixed-tag analysis.

The pattern language is byte oriented.  Atoms are literal bytes, ``#`` (a
standalone submatch marker), capturing groups ``(...)`` that expand to a
marker pair, and plain groups ``(?:...)``.  Postfix operators are ``*``,
``+``, ``?`` and counted repetition ``{n}``, ``{n,}``, ``{n,m}``.
Alternation ``|`` binds loosest and empty branches are allowed.
Metacharacters are escaped with a backslash.

Markers ("tags") are numbered 1..n in textual order; tag 0 is reserved for
the rightmost-position pseudo base used by the fixed-tag analysis.
"""

from dataclasses import dataclass

MAX_REPEAT = 1000

# Pseudo base tag: evaluates to the total match length.
RIGHTMOST = 0

_METACHARS = set(b"|()*+?{}#\\")

NAN = float("nan")


def isnan(x) -> bool:
    return x != x


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Sym:
    code: int  # byte value


@dataclass(frozen=True)
class Tag:
    tid: int


@dataclass(frozen=True)
class Alt:
    left: "TaggedRegex"
    right: "TaggedRegex"


@dataclass(frozen=True)
class Cat:
    left: "TaggedRegex"
    right: "TaggedRegex"


@dataclass(frozen=True)
class Rep:
    body: "TaggedRegex"
    lo: int
    hi: int | None  # None = unbounded


TaggedRegex = Empty | Sym | Tag | Alt | Cat | Rep


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


def _fold(node, parts: list) -> TaggedRegex:
    # Balanced fold: keeps tree depth logarithmic so the structural
    # recursions elsewhere handle very long concatenations and alternations.
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return node(_fold(node, parts[:mid]), _fold(node, parts[mid:]))


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
        branches = [self.concatenation()]
        while self.peek() == ord("|"):
            self.i += 1
            branches.append(self.concatenation())
        return _fold(Alt, branches)

    def concatenation(self) -> TaggedRegex:
        parts = []
        while True:
            c = self.peek()
            if c is None or c in (ord("|"), ord(")")):
                break
            parts.append(self.postfix())
        if not parts:
            return Empty()
        return _fold(Cat, parts)

    def postfix(self) -> TaggedRegex:
        node = self.atom()
        while True:
            c = self.peek()
            if c == ord("*"):
                self.i += 1
                node = Rep(node, 0, None)
            elif c == ord("+"):
                self.i += 1
                node = Rep(node, 1, None)
            elif c == ord("?"):
                self.i += 1
                node = Rep(node, 0, 1)
            elif c == ord("{"):
                lo, hi = self.bounds()
                node = Rep(node, lo, hi)
            else:
                return node

    def atom(self) -> TaggedRegex:
        c = self.peek()
        if c is None:
            self.error("expected an atom")
        if c in (ord("*"), ord("+"), ord("?"), ord("{")):
            self.error("nothing to repeat")
        if c == ord("}"):
            self.error("unbalanced '}'")
        if c == ord("#"):
            self.i += 1
            return Tag(self.next_tag())
        if c == ord("\\"):
            self.i += 1
            e = self.peek()
            if e is None or e not in _METACHARS:
                self.error("unknown escape")
            self.i += 1
            return Sym(e)
        if c == ord("("):
            self.i += 1
            capturing = True
            if self.data[self.i : self.i + 2] == b"?:":
                capturing = False
                self.i += 2
            open_tag = self.next_tag() if capturing else None
            inner = self.alternation()
            if self.peek() != ord(")"):
                self.error("expected ')'")
            self.i += 1
            if not capturing:
                return inner
            return Cat(Tag(open_tag), Cat(inner, Tag(self.next_tag())))
        self.i += 1
        return Sym(c)

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
        start = self.i
        while (c := self.peek()) is not None and ord("0") <= c <= ord("9"):
            self.i += 1
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


def collect_tags(e: TaggedRegex) -> tuple[int, ...]:
    """All tag ids in the AST, ascending."""
    out = []

    def walk(n):
        match n:
            case Tag(t):
                out.append(t)
            case Alt(l, r) | Cat(l, r):
                walk(l)
                walk(r)
            case Rep(b, _, _):
                walk(b)

    walk(e)
    return tuple(sorted(out))


def auto_tag(e: TaggedRegex) -> TaggedRegex:
    """Surround every subexpression with a fresh tag pair (full parsing).

    Tag ids are assigned in pre-order (open on entry, close on exit), which
    keeps them contiguous 1..2n.  The input must not contain tags already.
    """
    if collect_tags(e):
        raise ValueError("auto_tag requires an untagged expression")
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    def wrap(n: TaggedRegex) -> TaggedRegex:
        o = fresh()
        inner = visit(n)
        c = fresh()
        if isinstance(n, Empty):
            return Cat(Tag(o), Tag(c))
        return Cat(Tag(o), Cat(inner, Tag(c)))

    def visit(n: TaggedRegex) -> TaggedRegex:
        match n:
            case Alt(l, r):
                return Alt(wrap(l), wrap(r))
            case Cat(l, r):
                return Cat(wrap(l), wrap(r))
            case Rep(b, lo, hi):
                return Rep(wrap(b), lo, hi)
            case _:
                return n

    return wrap(e)


def default_multi_tags(e: TaggedRegex) -> frozenset[int]:
    """Tags that can match more than once: under a repetition with hi > 1."""
    out = set()

    def walk(n, reps):
        match n:
            case Tag(t):
                if reps:
                    out.add(t)
            case Alt(l, r) | Cat(l, r):
                walk(l, reps)
                walk(r, reps)
            case Rep(b, _, hi):
                walk(b, reps or hi is None or hi > 1)

    walk(e, False)
    return frozenset(out)


def fixed_tags(e, base, dist, level, fixes):
    """Structural recursion locating tags at fixed distance from a base.

    ``base`` is the current base tag id (None when there is none on this
    level), ``dist`` the distance to it and ``level`` the distance to the
    start of the current level; unknown distances are NAN and absorb any
    arithmetic.  Fixations are recorded into ``fixes`` as tag -> (base,
    distance).  Returns the updated (base, dist, level).
    """
    match e:
        case Empty():
            return base, dist, level
        case Sym(_):
            return base, dist + 1, level + 1
        case Alt(l, r):
            _, _, k1 = fixed_tags(l, None, NAN, 0, fixes)
            _, _, k2 = fixed_tags(r, None, NAN, 0, fixes)
            if k1 == k2:
                return base, dist + k1, level + k1
            return base, NAN, NAN
        case Cat(l, r):
            base, dist, level = fixed_tags(r, base, dist, level, fixes)
            return fixed_tags(l, base, dist, level, fixes)
        case Rep(b, lo, hi):
            _, _, k1 = fixed_tags(b, None, NAN, 0, fixes)
            if hi is not None and lo == hi:
                return base, dist + lo * k1, level + lo * k1
            return base, NAN, NAN
        case Tag(t):
            if base is not None and not isnan(dist):
                fixes[t] = (base, dist)
                return base, dist, level
            return t, 0, level
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
    """Remove fixed tags from the AST before automaton construction."""
    match e:
        case Tag(t) if t in fixed:
            return Empty()
        case Alt(l, r):
            return Alt(strip_fixed_tags(l, fixed), strip_fixed_tags(r, fixed))
        case Cat(l, r):
            return Cat(strip_fixed_tags(l, fixed), strip_fixed_tags(r, fixed))
        case Rep(b, lo, hi):
            return Rep(strip_fixed_tags(b, fixed), lo, hi)
        case _:
            return e


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
