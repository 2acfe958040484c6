"""Reference implementations kept only as test oracles.

greedy_complement is the original incremental row-space scan behind
linalg.image_complement: reduce each column of the span into a growing
echelon set, then try e_1, e_2, ... in ascending order and keep each
one that raises the rank.  It returns the kept coordinate indices.
"""


class _RowSpace:
    """Incremental row-space tracker."""

    def __init__(self, field):
        self.field = field
        self.rows = []  # reduced rows, each with a recorded pivot index
        self.pivots = []

    def add(self, vec) -> bool:
        """Reduce vec against the space; absorb it if independent.

        Returns True when the rank increased.
        """
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if f:
                for c in range(len(v)):
                    if row[c]:
                        v[c] = v[c] - f * row[c]
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is None:
            return False
        pv = v[pc]
        if pv != self.field.one():
            v = [x / pv for x in v]
        self.rows.append(v)
        self.pivots.append(pc)
        return True


def greedy_complement(span, ambient_dim: int) -> list:
    space = _RowSpace(span.field)
    for j in range(span.cols):
        space.add(span.data[i][j] for i in range(span.rows))
    z, o = span.field.zero(), span.field.one()
    chosen = []
    for k in range(ambient_dim):
        if len(space.pivots) == ambient_dim:
            break
        e = [z] * ambient_dim
        e[k] = o
        if space.add(e):
            chosen.append(k)
    return chosen

