"""Representations, morphism spaces and extensions via the delta map.

delta: C^0(X,Y) -> C^1(X,Y) has kernel Hom(X,Y) and cokernel Ext^1(X,Y).
It is built straight from X and Y in two sparse forms, never dense (it
is about 0.2% nonzero on catalog roots) and never above DELTA_NNZ_LIMIT
nonzeros: read as rows (delta_matrix, one per C^1 unit) for Hom's kernel
and rank, and as columns (in homext, one per C^0 unit) for the Ext^1
complement.  Its coordinates are matrix units:
C^0 = sum_i Hom(X_i, Y_i) has units (vertex, row, col), 0-based, listed
by _c0_units, and C^1 = sum_a Hom(X_{t(a)}, Y_{h(a)}) has units
(arrow id, col, row), 1-based as homext returns them.  Blocks follow the
quiver's vertex and arrow order; inside a block the column (source
index) ascends, then the row (target index)."""

from __future__ import annotations

import itertools
from bisect import bisect
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, InputError
from .linalg import (
    Mat,
    PrimeField,
    QQ,
    _echelon,
    cokernel,
    complement_coordinates,
    hstack,
    kernel_vectors,
    mat_solve,
    rank,
)
from .quiver import Quiver, check_dimvec, ringel_form, unit_vector
from .trees import is_acyclic


class Representation:
    """A dimension vector plus one matrix per arrow (head dim x tail dim)."""

    def __init__(self, quiver: Quiver, dims, mats: Dict[object, Mat], field=QQ):
        check_dimvec(quiver, dims)
        if any(x < 0 for x in dims.values()):
            raise InputError("negative dimension")
        for a in quiver.arrows:
            if a.id not in mats:
                raise InputError(f"missing matrix for arrow {a.id!r}")
            m = mats[a.id]
            if (m.rows, m.cols) != (dims[a.head], dims[a.tail]):
                raise InputError(
                    f"arrow {a.id!r}: expected {dims[a.head]}x{dims[a.tail]}, "
                    f"got {m.rows}x{m.cols}"
                )
            if m.field != field:
                raise InputError(f"arrow {a.id!r} matrix is over the wrong field")
        self.quiver = quiver
        self.dims = dict(dims)
        self.mats = dict(mats)
        self.field = field

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"Representation(dims={self.dims})"


@dataclass
class Morphism:
    source: Representation
    target: Representation
    parts: Dict[object, Mat]

    def is_valid(self) -> bool:
        for a in self.source.quiver.arrows:
            lhs = self.parts[a.head].mul(self.source.mats[a.id])
            rhs = self.target.mats[a.id].mul(self.parts[a.tail])
            if lhs != rhs:
                return False
        return True

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other (other first)."""
        parts = {v: self.parts[v].mul(other.parts[v]) for v in self.parts}
        return Morphism(other.source, self.target, parts)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.parts.values())

    def __eq__(self, other):
        return isinstance(other, Morphism) and self.parts == other.parts


def identity_morphism(x: Representation) -> Morphism:
    parts = {v: Mat.identity(x.dims[v], x.field) for v in x.quiver.vertices}
    return Morphism(x, x, parts)


def simple_rep(q: Quiver, i, field=QQ) -> Representation:
    dims = unit_vector(q, i)
    mats = {a.id: Mat.zeros(dims[a.head], dims[a.tail], field) for a in q.arrows}
    return Representation(q, dims, mats, field)


def block_sum(summands: Sequence[Representation], couplings=()) -> Representation:
    """Direct sum of the summands, in order, glued by unit couplings.

    A coupling (arrow id, target summand k, source summand l, row, col)
    puts a one at the 1-based (row, col) of the block of that arrow's
    matrix mapping summand l into summand k.
    """
    q, field = summands[0].quiver, summands[0].field
    if any(x.quiver != q or x.field != field for x in summands):
        raise InputError("direct sum needs the same quiver and field")
    offsets = {v: list(itertools.accumulate((x.dims[v] for x in summands), initial=0))
               for v in q.vertices}
    dims = {v: offsets[v][-1] for v in q.vertices}
    grids = {}
    for a in q.arrows:
        grid = grids[a.id] = [{} for _ in range(dims[a.head])]
        for x, ro, co in zip(summands, offsets[a.head], offsets[a.tail]):
            for r, row in enumerate(x.mats[a.id].entries, ro):
                for c, val in row.items():
                    grid[r][co + c] = val
    for aid, k, l, row, col in couplings:
        a = q.arrow(aid)
        grids[aid][offsets[a.head][k] + row - 1][offsets[a.tail][l] + col - 1] = field.one()
    mats = {a.id: Mat(dims[a.head], dims[a.tail], grids[a.id], field, canonical=True) for a in q.arrows}
    return Representation(q, dims, mats, field)


def _c0_units(x: Representation, y: Representation) -> List[Tuple[object, int, int]]:
    """The coordinates of C^0(X,Y) in order, as the module docstring lays out."""
    return [(v, r, c) for v in x.quiver.vertices
            for c in range(x.dims[v]) for r in range(y.dims[v])]


DELTA_NNZ_LIMIT = 2_000_000  # raising it is the one edit that admits bigger delta maps


def delta_nnz(x: Representation, y: Representation) -> int:
    """delta(X, Y)'s nonzero count, sum_a nnz(X_a) dim Y_h(a) + nnz(Y_a) dim X_t(a);
    InputError above DELTA_NNZ_LIMIT or for reps of different quivers or fields."""
    if x.quiver != y.quiver or x.field != y.field:
        raise InputError("delta needs the same quiver and field")
    nnz = 0
    for a in x.quiver.arrows:
        if x.dims[a.tail] and y.dims[a.head]:  # else both terms are 0
            nnz += (sum(map(len, x.mats[a.id].entries)) * y.dims[a.head]
                    + sum(map(len, y.mats[a.id].entries)) * x.dims[a.tail])
    if nnz > DELTA_NNZ_LIMIT:
        raise InputError(f"the delta map would have {nnz:,} nonzeros, above the limit of {DELTA_NNZ_LIMIT:,}")
    return nnz


_EMPTY_ROW: dict = {}  # every zero row of delta: Mat rows are never changed


def delta_matrix(x: Representation, y: Representation) -> Mat:
    """Matrix of delta: C^0(X,Y) -> C^1(X,Y), phi |-> (phi_h(a) X_a - Y_a phi_t(a))_a,
    built from sparse rows: one {C^0 index: value} dict per C^1 unit.

    The row of the C^1 unit (a, s, r) is entry (r, s) of the image; with
    s, r made 0-based it holds +X_a[k][s] at the C^0 unit (h(a), r, k) and
    -Y_a[r][k] at (t(a), k, s).  A quiver has no loops, so h(a) != t(a)
    and no two terms share a cell.  In the layout of _c0_units the unit
    (v, r, c) has index off_v + c dim Y_v + r, off_v being the start of
    vertex v's block.  Each arrow's nonzeros are listed once, per column
    of X_a and per row of -Y_a, with the part of that index they fix, and
    every row is built from those lists.  The entries are X's and
    field.of(-Y) (over F_p, -v is not reduced mod p), negated once per
    arrow, so the rows are canonical and Mat takes them unchecked.
    """
    delta_nnz(x, y)
    vertices, of = x.quiver.vertices, x.field.of
    sizes = [x.dims[v] * y.dims[v] for v in vertices]
    off = dict(zip(vertices, itertools.accumulate(sizes, initial=0)))
    rows = []
    # the rows follow the C^1 units: arrows in quiver order, then s, then r
    for a in x.quiver.arrows:
        yh, yt = y.dims[a.head], y.dims[a.tail]
        x_cols = [[] for _ in range(x.dims[a.tail])]
        for k, xrow in enumerate(x.mats[a.id].entries):
            for s, val in xrow.items():
                x_cols[s].append((off[a.head] + k * yh, val))
        y_rows = [[(off[a.tail] + k, of(-val)) for k, val in yrow.items()] for yrow in y.mats[a.id].entries]
        for s, x_col in enumerate(x_cols):
            for r, y_row in enumerate(y_rows):
                if not (x_col or y_row):
                    rows.append(_EMPTY_ROW)
                    continue
                row = {}
                for i, val in x_col:
                    row[i + r] = val
                for i, val in y_row:
                    row[i + s * yt] = val
                rows.append(row)
    return Mat(len(rows), sum(sizes), rows, x.field, canonical=True)


def _hom_blocks(x: Representation, y: Representation) -> List[dict]:
    """The kernel vectors of delta(X, Y), each read back through the C^0
    units as {vertex: rows}: row r of the vertex-v block is row r of
    phi_v: X_v -> Y_v as a {col: value} dict of its nonzeros."""
    units = _c0_units(x, y)
    out = []
    for vec in kernel_vectors(delta_matrix(x, y)).values():
        blocks = {v: [{} for _ in range(y.dims[v])] for v in x.quiver.vertices}
        for i, val in vec.items():
            v, r, c = units[i]
            blocks[v][r][c] = val
        out.append(blocks)
    return out


def hom_dim(x: Representation, y: Representation) -> int:
    d = delta_matrix(x, y)
    return d.cols - rank(d)


class HomExt(NamedTuple):
    hom: int
    ext: int
    ext_units: List[Tuple[object, int, int]]


def homext(x: Representation, y: Representation) -> HomExt:
    """dim Hom(X,Y), dim Ext^1(X,Y) and an Ext^1 unit basis from delta's columns.

    The column of the C^0 unit (v, r, c) holds +X_a[c][s] at the C^1 unit
    (a, s, r) for each arrow a into v and -Y_a[r'][r] at (a, c, r') for
    each arrow out of v, the C^1 index k written as n1 - 1 - k for
    complement_coordinates.  Only nonzero columns are built, from each
    arrow's rows of X_a and columns of field.of(-Y_a), listed once.  The
    units are the greedy ascending complement of im(delta), reproducible
    bit for bit, and dim Hom = dim C^0 - rank(delta).
    """
    delta_nnz(x, y)
    arrows, of, xd, yd = x.quiver.arrows, x.field.of, x.dims, y.dims
    offs = list(itertools.accumulate((xd[a.tail] * yd[a.head] for a in arrows), initial=0))
    n0, n1 = sum(xd[v] * yd[v] for v in x.quiver.vertices), offs[-1]
    if not n1:
        return HomExt(n0, 0, [])
    ins, outs = {}, {}  # per vertex, the arrows into / out of it with a nonempty C^1 block
    for a, off, end in zip(arrows, offs, offs[1:]):
        if off == end:
            continue
        yh, top = yd[a.head], n1 - 1 - off
        if xd[a.head]:
            ins.setdefault(a.head, []).append([[(top - s * yh, val) for s, val in row.items()]
                                               for row in x.mats[a.id].entries])
        if yd[a.tail]:
            y_cols = [[] for _ in range(yd[a.tail])]
            for r, row in enumerate(y.mats[a.id].entries):
                for k, val in row.items():
                    y_cols[k].append((top - r, of(-val)))
            outs.setdefault(a.tail, []).append((yh, y_cols))
    cols = []
    for v in x.quiver.vertices:
        if v not in ins and v not in outs:
            continue
        x_blocks, y_blocks = ins.get(v, ()), outs.get(v, ())
        y_hit = sorted({r for _, y_cols in y_blocks for r, col in enumerate(y_cols) if col})
        for c in range(xd[v]):
            x_col = [e for x_rows in x_blocks for e in x_rows[c]]
            for r in range(yd[v]) if x_col else y_hit:
                col = {i - r: val for i, val in x_col}
                for yh, y_cols in y_blocks:
                    shift = c * yh
                    for i, val in y_cols[r]:
                        col[i - shift] = val
                cols.append(col)
    units = []
    for k in complement_coordinates(cols, n1, x.field):
        i = bisect(offs, k) - 1
        s, r = divmod(k - offs[i], yd[arrows[i].head])
        units.append((arrows[i].id, s + 1, r + 1))
    return HomExt(n0 - n1 + len(units), len(units), units)


def end_dim(x: Representation) -> int:
    return hom_dim(x, x)


def euler_form_check(x: Representation, y: Representation, he: HomExt) -> bool:
    """dim Hom - dim Ext^1 = <dim X, dim Y>, with dim Hom from the kernel
    of delta and dim Ext^1 from he = homext(x, y), the complement of its
    image.

    he alone would satisfy the identity by rank-nullity, whatever the
    matrices; two eliminations of delta make it a check that they agree.
    """
    return hom_dim(x, y) - he.ext == ringel_form(x.quiver, x.dims, y.dims)


class Certificate(NamedTuple):
    end_dim: int
    verdict: str  # indecomposable | decomposable | inconclusive
    idempotent: Optional[Morphism] = None


def certify_indecomposable(x: Representation) -> Certificate:
    """dim End(X) and an indecomposability verdict over a prime field,
    from one elimination of delta(X, X) and vector-matrix products.

    The End basis is read by _hom_blocks.  Each basis element b gets a
    scalar lambda_b (see _scalar_candidates); let N = {b - lambda_b}.
    Endomorphisms are block-diagonal and commute with the arrows, so on
    row vectors each b_v keeps U_v = ann (JX)_v, the dual of the top
    (X/JX)_v (J is the arrow ideal).  At each vertex the chain U_v,
    U_v N, U_v N^2, ... runs under the transposes, one forward
    elimination of the images per step.  If it reaches 0 after k steps
    at every vertex, every product of k elements of N maps X into JX, so
    every product of kL of them maps X into J^L X, which is 0 for
    L = dim X when the coefficient quiver has no oriented cycle
    (trees.is_acyclic), as for a tree module.  Where it has one, the
    chains start from all of X_v^*.
    Either way every long enough product of elements of N vanishes, so
    N spans a nilpotent subalgebra of End that misses 1; with
    End = k.1 + span N it is an ideal of codimension 1, End is local and
    X is indecomposable.  If X is absolutely indecomposable, each
    b - lambda_b is in the radical, so the chains reach 0: the test is
    complete for such X, which every X_alpha of the construction is.  A
    chain from U_v stalls exactly when the one from X_v^* does, so the
    start changes no verdict.

    When a chain stalls, or some b has no unique lambda_b, the Fitting
    split X_v = im n_v^d + ker n_v^d of n = b - lambda is tried for each
    candidate lambda of each b and for lambda = 0 (a kernel vector is
    zero at every other free coordinate, so b itself is often singular);
    the first non-trivial one gives the "decomposable" idempotent, one
    solve per vertex, checked to be an idempotent endomorphism other than
    0 and 1.  If none is found the verdict is "inconclusive".
    """
    field = x.field
    if not isinstance(field, PrimeField):
        raise InputError("indecomposability certificate requires a prime-field representation")
    if x.total_dim() == 0:
        raise DomainError("zero representation is neither")
    basis = _hom_blocks(x, x)
    candidates = [_scalar_candidates(x, b) for b in basis]
    if all(len(lams) == 1 for lams in candidates):
        lams = [lam for (lam,) in candidates]
        top = is_acyclic(x)
        if all(_chain_reaches_zero([b[v] for b in basis], lams, _chain_start(x, v, top), field)
               for v in x.quiver.vertices):
            return Certificate(len(basis), "indecomposable")
    for b, lams in zip(basis, candidates):
        for lam in dict.fromkeys([*lams, 0]):
            e = _fitting_idempotent(x, b, lam)
            if e is not None:
                return Certificate(len(basis), "decomposable", e)
    return Certificate(len(basis), "inconclusive")


def _chain_start(x: Representation, v, top: bool) -> Sequence[dict]:
    """A basis of U_v = ann (JX)_v as rows if top, else the unit rows of X_v^*."""
    if not top:
        return [{j: 1} for j in range(x.dims[v])]
    ins = [x.mats[a.id] for a in x.quiver.arrows if a.head == v]
    return cokernel(hstack(ins, rows=x.dims[v], field=x.field))[1].entries


def _minus_scalar(rows, lam, field) -> Mat:
    """b_v - lam.1 as a Mat, b_v given by its rows."""
    d = len(rows)
    return Mat(d, d, [{**row, r: row.get(r, 0) - lam} for r, row in enumerate(rows)], field)


def _scalar_candidates(x: Representation, b) -> list:
    """The lambda in F_p that can make b - lambda nilpotent.

    At the first vertex v with p not dividing d_v this is tr(b_v) / d_v
    alone.  If p divides every d_v (so p <= d_v), it is every lambda with
    b_v - lambda singular at the first v with d_v > 0, found by at most p
    ranks; a local End needs exactly one.
    """
    p = x.field.p
    for v in x.quiver.vertices:
        d = x.dims[v]
        if d % p:
            return [sum(row.get(r, 0) for r, row in enumerate(b[v])) * pow(d, -1, p) % p]
    v = next(v for v in x.quiver.vertices if x.dims[v])
    return [lam for lam in range(p) if rank(_minus_scalar(b[v], lam, x.field)) < x.dims[v]]


def _chain_reaches_zero(blocks, lams, layer, field) -> bool:
    """Whether W, WN, WN^2, ... reaches 0 from W spanned by the independent
    rows layer, N being the b_v - lambda_b acting on row vectors, each b_v
    given by its rows, and WN inside W; each step keeps the echelon rows
    of the images as the basis of the next space: only its dimension is
    compared, and they span it."""
    p = field.p
    while layer:
        images = []
        for rows, lam in zip(blocks, lams):
            for w in layer:
                img = {j: -lam * a for j, a in w.items()} if lam else {}
                for j, a in w.items():
                    for c, val in rows[j].items():
                        img[c] = img.get(c, 0) + a * val
                img = {c: val % p for c, val in img.items() if val % p}
                if img:  # _echelon skips it too, but passing it on costs a few percent more
                    images.append(img)
        nxt = list(_echelon(images, field).values())
        if len(nxt) == len(layer):  # WN is inside W, so equal sizes mean WN = W != 0
            return False
        layer = nxt
    return True


def _fitting_idempotent(x: Representation, b, lam) -> Optional[Morphism]:
    """The projection onto im P along ker P at each vertex, P = n_v^k for
    n = b - lam and k >= d_v, past the Fitting index; None when the split
    is trivial, as for nilpotent or invertible n.  rank P^2 = rank P, so
    y P^2 = P has a solution y, and y P fixes im P and kills ker P."""
    parts = {}
    for v in x.quiver.vertices:
        d, power, k = x.dims[v], _minus_scalar(b[v], lam, x.field), 1
        while k < d:
            power, k = power.mul(power), 2 * k
        parts[v] = mat_solve(power.mul(power).transpose(), power.transpose()).transpose().mul(power)
    e = Morphism(x, x, parts)
    trivial = e.is_zero() or e == identity_morphism(x)
    return None if trivial or not e.is_valid() or e.compose(e) != e else e
