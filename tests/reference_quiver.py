"""Reference root descent kept only as a test oracle.

descend is quiver._descend as it was before it kept its memo of
visited vectors: every call walks from its input down to a simple root
(or to where the greedy descent stops) and stores nothing, so it shares
no state with any earlier call.  classify_root and root_expression must
agree with it on every input, in any order of calls.
"""

from typing import List

from quiverforge.errors import DomainError
from quiverforge.quiver import (
    IMAGINARY,
    NOT_A_ROOT,
    REAL,
    SIMPLE,
    DimVector,
    Quiver,
    _connected_support,
    _sym_with_unit,
    check_dimvec,
    reflect,
    support,
)


def descend(q: Quiver, a: DimVector):
    """(tag, word, target_vertex), as quiver._descend returns them."""
    check_dimvec(q, a)
    cur = dict(a)
    if all(x == 0 for x in cur.values()) or any(x < 0 for x in cur.values()):
        raise DomainError("root classification needs a nonzero non-negative vector")
    word: List = []
    while True:
        sup = support(cur)
        if len(sup) == 1:
            v = next(iter(sup))
            if cur[v] == 1:
                return (SIMPLE if not word else REAL), tuple(word), v
        pick = next((i for i in q.vertices if _sym_with_unit(q, cur, i) > 0), None)
        if pick is None:
            if _connected_support(q, cur):
                return IMAGINARY, tuple(word), None
            return NOT_A_ROOT, tuple(word), None
        nxt = reflect(q, pick, cur)
        if any(x < 0 for x in nxt.values()):
            return NOT_A_ROOT, tuple(word), None
        word.append(pick)
        cur = nxt
