"""Register operations shared by determinization, optimization and execution.

An operation is a plain tuple:

    ("s", dest, v)        set dest to nil ("n") or the current position ("p")
    ("c", dest, src)      copy src to dest
    ("a", dest, src, h)   copy src to dest appending history h (string of n/p)

Destinations are unique within one operation list.
"""

SET = "s"
COPY = "c"
APPEND = "a"


def format_op(op: tuple) -> str:
    kind = op[0]
    if kind == SET:
        return f"r{op[1]} <- {op[2]}"
    if kind == COPY:
        return f"r{op[1]} <- r{op[2]}"
    return f"r{op[1]} <- r{op[2]}.{op[3]}"


def format_ops(ops) -> str:
    return "; ".join(format_op(o) for o in ops)


def remove_duplicates(ops: list) -> list:
    seen = set()
    out = []
    for op in ops:
        if op not in seen:
            seen.add(op)
            out.append(op)
    return out


def topological_sort(ops: list) -> tuple[list, bool]:
    """Order operations so sources are read before they are overwritten.

    Treats the list as a parallel assignment.  Trivial cycles (self appends
    i <- i.h) are tolerated; returns (ordered ops, False) when a nontrivial
    cycle remains, in which case the cyclic tail is left in input order.
    """
    indeg: dict[int, int] = {}
    for op in ops:
        if op[0] != SET:
            indeg.setdefault(op[1], 0)
            indeg.setdefault(op[2], 0)
    for op in ops:
        if op[0] != SET and op[1] != op[2]:
            indeg[op[2]] += 1

    pending = list(ops)
    out = []
    nontrivial = False
    while pending:
        rest = []
        moved = False
        for op in pending:
            if indeg.get(op[1], 0) == 0:
                out.append(op)
                moved = True
                if op[0] != SET and op[1] != op[2]:
                    indeg[op[2]] -= 1
            else:
                rest.append(op)
        pending = rest
        if not moved and pending:
            nontrivial = any(op[0] != SET and op[1] != op[2] for op in pending)
            out.extend(pending)
            break
    return out, not nontrivial
