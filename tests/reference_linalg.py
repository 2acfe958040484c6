"""Reference implementations kept only as test oracles.

Fp and _rref are the scalar class and the dense elimination linalg used
while F_p scalars were objects: every Fp operation reduces mod p and
allocates a new Fp, so no reduction is left to Mat.  _rref is the dense
column sweep: for each column in turn it takes the topmost remaining
row with a nonzero there as the pivot row.  ref_pivot_columns,
ref_kernel_basis, ref_mat_solve and ref_complement run the old rank,
pivot, kernel, solve and complement code on a matrix over QQ or GF(p)
and return values laid out like Mat.data, to be compared with linalg.
ref_cokernel composes them as the functors once did: image basis, then
complement, then the bottom rows of the inverse of [image | complement].
Over GF(p) they run on Fp lifts of the residues and return plain
residues; over QQ they run on Fraction lifts of the entries.

ref_mul is the dense product of the old Mat, cell by cell over every
cell, zeros included, on the same lifts.

greedy_complement is the original incremental row-space scan behind
the complement of linalg.cokernel: reduce each column of the span into
a growing echelon set, then try e_1, e_2, ... in ascending order and
keep each one that raises the rank.  It returns the kept coordinate
indices.
"""

from fractions import Fraction
from types import SimpleNamespace


class Fp:
    """Element of the prime field F_p, stored as a residue in [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return Fp(self.v + other.v, self.p)

    def __sub__(self, other):
        return Fp(self.v - other.v, self.p)

    def __mul__(self, other):
        return Fp(self.v * other.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        return isinstance(other, Fp) and self.v == other.v and self.p == other.p

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class _FpField:
    """The part of the old GF(p) that _rref reads."""

    def __init__(self, p: int):
        self.p = p

    def one(self):
        return Fp(1, self.p)


def _rref(data, nc: int, field):
    """Reduced row echelon form of the rows in data, each of length nc.

    Returns (rows, pivot_cols) where rows is a list of lists.  Pivoting:
    leftmost nonzero column, topmost remaining row, no size heuristics.
    """
    rows = [list(r) for r in data]
    nr = len(rows)
    pivots = []
    pr = 0
    for pc in range(nc):
        hit = None
        for i in range(pr, nr):
            if rows[i][pc]:
                hit = i
                break
        if hit is None:
            continue
        if hit != pr:
            rows[pr], rows[hit] = rows[hit], rows[pr]
        pv = rows[pr][pc]
        if pv != field.one():
            inv_row = rows[pr]
            for c in range(pc, nc):
                if inv_row[c]:
                    inv_row[c] = inv_row[c] / pv
        prow = rows[pr]
        for i in range(nr):
            if i == pr:
                continue
            f = rows[i][pc]
            if f:
                irow = rows[i]
                for c in range(pc, nc):
                    if prow[c]:
                        irow[c] = irow[c] - f * prow[c]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return rows, pivots


def _ref_rref(data, nc: int, field):
    """_rref on Fp lifts over GF(p), or on Fractions over QQ (an int
    entry is lifted too, since int / int is a float)."""
    p = getattr(field, "p", None)
    if p is None:
        return _rref([[Fraction(x) for x in row] for row in data], nc, field)
    return _rref([[Fp(x, p) for x in row] for row in data], nc, _FpField(p))


def _value(x):
    return x.v if isinstance(x, Fp) else x


def _lift(m) -> list:
    """The dense rows of m as Fp lifts over GF(p), as Fractions over QQ."""
    p = getattr(m.field, "p", None)
    return [[Fp(x, p) if p else Fraction(x) for x in row] for row in m.data]


def _lower(rows) -> tuple:
    return tuple(tuple(_value(x) for x in row) for row in rows)


def ref_mul(a, b) -> tuple:
    p = getattr(a.field, "p", None)
    zero = Fp(0, p) if p else Fraction(0)
    la, lb = _lift(a), _lift(b)
    out = []
    for row in la:
        acc = [zero] * b.cols
        for k, x in enumerate(row):
            acc = [s + x * y for s, y in zip(acc, lb[k])]
        out.append(acc)
    return _lower(out)


def ref_pivot_columns(m) -> list:
    return _ref_rref(m.data, m.cols, m.field)[1]


def ref_kernel_basis(m) -> tuple:
    rows, pivots = _ref_rref(m.data, m.cols, m.field)
    cols = []
    for j in range(m.cols):
        if j in pivots:
            continue
        v = [0] * m.cols
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = _value(-rows[r][j])
        cols.append(v)
    return tuple(tuple(c[i] for c in cols) for i in range(m.cols))


def ref_mat_solve(m, b):
    rows, pivots = _ref_rref([r + s for r, s in zip(m.data, b.data)], m.cols + b.cols, m.field)
    if any(pc >= m.cols for pc in pivots):
        return None
    out = [(0,) * b.cols for _ in range(m.cols)]
    for r, pc in enumerate(pivots):
        out[pc] = tuple(_value(x) for x in rows[r][m.cols:])
    return tuple(out)


def ref_complement(span, n: int) -> list:
    reversed_cols = [col[::-1] for col in zip(*span.data)]
    hit = {n - 1 - pc for pc in _ref_rref(reversed_cols, n, span.field)[1]}
    return [k for k in range(n) if k not in hit]


def ref_cokernel(m) -> tuple:
    """(comp, proj) of linalg.cokernel from three eliminations: pivot
    columns, complement, and the solve of [img | comp] x = I."""
    n, z, o = m.rows, m.field.zero(), m.field.one()
    pivots = ref_pivot_columns(m)
    img = [[row[c] for c in pivots] for row in m.data]
    chosen = ref_complement(SimpleNamespace(data=img, field=m.field), n)
    comp = [[o if i == k else z for k in chosen] for i in range(n)]
    basis = SimpleNamespace(data=[a + c for a, c in zip(img, comp)], cols=n, field=m.field)
    ident = SimpleNamespace(data=[[o if i == j else z for j in range(n)] for i in range(n)], cols=n)
    return tuple(map(tuple, comp)), ref_mat_solve(basis, ident)[len(pivots):]


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
        of = self.field.of
        v = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            f = v[pc]
            if f:
                for c in range(len(v)):
                    if row[c]:
                        v[c] = of(v[c] - f * row[c])
        pc = next((c for c, x in enumerate(v) if x), None)
        if pc is None:
            return False
        pv = v[pc]
        if pv != self.field.one():
            inv = of(Fraction(1, pv))
            v = [of(x * inv) for x in v]
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
