"""Register operations shared by determinization, optimization and execution.

An operation is a plain tuple:

    ("s", dest, v)        set dest to nil ("n") or the current position ("p")
    ("c", dest, src)      copy src to dest
    ("a", dest, src, h)   copy src to dest appending history h (string of n/p)

Destinations are unique within one operation list.
"""

from math import inf

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


def topological_sort(ops: list) -> tuple[list, bool]:
    """Order operations so sources are read before they are overwritten.

    Treats the list as a parallel assignment.  Trivial cycles (self appends
    i <- i.h) are tolerated.  An operation runs in round 1, and no earlier
    than each reader of its destination, one round later if the reader
    comes later in the list; operations are stably sorted by round.
    Returns (ordered ops, False) when a nontrivial cycle remains, in which
    case the operations on or behind it go last, in input order.
    """
    written = set()
    for op in ops:
        if op[0] != SET and op[1] != op[2] and op[2] in written:
            break
        written.add(op[1])
    else:  # every reader comes before the writers it reads: all round 1
        return list(ops), True
    readers: dict[int, list[int]] = {}
    for k, op in enumerate(ops):
        if op[0] != SET and op[1] != op[2]:
            readers.setdefault(op[2], []).append(k)
    read_by = [readers.get(op[1], ()) for op in ops]  # per op, the readers of its dest
    # Rounds by an iterative DFS from each operation in list order (chains
    # run 1,000 deep): 0 unvisited, -1 on the DFS path (a reader there
    # closes a cycle), inf on or behind a cycle.
    rounds = [0] * len(ops)
    stack = list(reversed(range(len(ops))))
    while stack:
        i = stack[-1]
        if rounds[i] == 0:
            rounds[i] = -1
            if read_by[i]:
                stack += [p for p in read_by[i] if rounds[p] == 0]
                continue
        stack.pop()
        if rounds[i] == -1:
            r = 1
            for p in read_by[i]:
                r = max(r, inf if rounds[p] == -1 else rounds[p] + (p > i))
            rounds[i] = r
    order = sorted(range(len(ops)), key=rounds.__getitem__)
    return [ops[k] for k in order], inf not in rounds
