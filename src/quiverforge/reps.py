"""Representations, morphism spaces and extensions via the delta map.

Coordinate conventions (fixed once, everything downstream depends on
them): C^0(X,Y) = sum_i Hom(X_i, Y_i) with vertex blocks in quiver
vertex order, C^1(X,Y) = sum_a Hom(X_{t(a)}, Y_{h(a)}) with arrow blocks
in quiver arrow order.  Inside a block, matrix units are ordered column
(source index) ascending, then row (target index) ascending.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, InputError
from .linalg import Mat, PrimeField, QQ, image_complement, kernel_basis, rank
from .quiver import Quiver, check_dimvec, ringel_form, unit_vector


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

    def add(self, other: "Morphism") -> "Morphism":
        parts = {v: self.parts[v].add(other.parts[v]) for v in self.parts}
        return Morphism(self.source, self.target, parts)

    def scale(self, c) -> "Morphism":
        return Morphism(self.source, self.target, {v: m.scale(c) for v, m in self.parts.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.parts.values())

    def __eq__(self, other):
        return isinstance(other, Morphism) and self.parts == other.parts


@dataclass
class HomSpace:
    source: Representation
    target: Representation
    basis: List[Morphism]

    @property
    def dim(self) -> int:
        return len(self.basis)


def zero_morphism(x: Representation, y: Representation) -> Morphism:
    parts = {v: Mat.zeros(y.dims[v], x.dims[v], x.field) for v in x.quiver.vertices}
    return Morphism(x, y, parts)


def identity_morphism(x: Representation) -> Morphism:
    parts = {v: Mat.identity(x.dims[v], x.field) for v in x.quiver.vertices}
    return Morphism(x, x, parts)


def simple_rep(q: Quiver, i, field=QQ) -> Representation:
    dims = unit_vector(q, i)
    mats = {a.id: Mat.zeros(dims[a.head], dims[a.tail], field) for a in q.arrows}
    return Representation(q, dims, mats, field)


def zero_rep(q: Quiver, field=QQ) -> Representation:
    dims = {v: 0 for v in q.vertices}
    mats = {a.id: Mat.zeros(0, 0, field) for a in q.arrows}
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
    z = field.zero()
    grids = {}
    for a in q.arrows:
        grid = grids[a.id] = [[z] * dims[a.tail] for _ in range(dims[a.head])]
        for x, ro, co in zip(summands, offsets[a.head], offsets[a.tail]):
            for r, row in enumerate(x.mats[a.id].data):
                grid[ro + r][co:co + len(row)] = row
    for aid, k, l, row, col in couplings:
        a = q.arrow(aid)
        grids[aid][offsets[a.head][k] + row - 1][offsets[a.tail][l] + col - 1] = field.one()
    mats = {a.id: Mat(dims[a.head], dims[a.tail], grids[a.id], field) for a in q.arrows}
    return Representation(q, dims, mats, field)


def direct_sum(x: Representation, y: Representation) -> Representation:
    return block_sum([x, y])


def _c0_layout(x: Representation, y: Representation):
    """(offsets per vertex, total) for C^0(X,Y)."""
    off, total = {}, 0
    for v in x.quiver.vertices:
        off[v] = total
        total += x.dims[v] * y.dims[v]
    return off, total


def _c1_layout(x: Representation, y: Representation):
    """(offsets per arrow id, total) for C^1(X,Y)."""
    off, total = {}, 0
    for a in x.quiver.arrows:
        off[a.id] = total
        total += x.dims[a.tail] * y.dims[a.head]
    return off, total


def c1_index_to_unit(x: Representation, y: Representation, idx: int):
    """Map a flat C^1 coordinate to its matrix unit (arrow id, col, row), 1-based."""
    off, total = _c1_layout(x, y)
    if not 0 <= idx < total:
        raise InputError("C^1 index out of range")
    # the last block starting at or before idx; empty blocks share its offset
    a = next(a for a in reversed(x.quiver.arrows) if off[a.id] <= idx)
    col, row = divmod(idx - off[a.id], y.dims[a.head])
    return a.id, col + 1, row + 1


def delta_matrix(x: Representation, y: Representation) -> Mat:
    """Matrix of delta: C^0(X,Y) -> C^1(X,Y), phi |-> (phi_j X_a - Y_a phi_i)."""
    if x.quiver != y.quiver or x.field != y.field:
        raise InputError("delta needs the same quiver and field")
    q = x.quiver
    c0_off, c0_tot = _c0_layout(x, y)
    c1_off, c1_tot = _c1_layout(x, y)
    z = x.field.zero()
    cols = [[z] * c0_tot for _ in range(c1_tot)]
    for v in q.vertices:
        xd, yd = x.dims[v], y.dims[v]
        for s in range(xd):
            for t in range(yd):
                col = c0_off[v] + s * yd + t
                # phi is the unit with one in row t, column s at vertex v
                for a in q.arrows:
                    h_rows = y.dims[a.head]
                    base = c1_off[a.id]
                    if a.head == v:
                        # phi_head X_a contributes row t = row s of X_a
                        xa = x.mats[a.id]
                        for c in range(xa.cols):
                            val = xa.data[s][c]
                            if val:
                                cols[base + c * h_rows + t][col] = (
                                    cols[base + c * h_rows + t][col] + val
                                )
                    if a.tail == v:
                        # -Y_a phi_tail contributes column s = -(column t of Y_a)
                        ya = y.mats[a.id]
                        for r in range(ya.rows):
                            val = ya.data[r][t]
                            if val:
                                cols[base + s * h_rows + r][col] = (
                                    cols[base + s * h_rows + r][col] - val
                                )
    return Mat(c1_tot, c0_tot, cols, x.field)


def hom_basis(x: Representation, y: Representation) -> HomSpace:
    """Basis of Hom(X,Y) as the kernel of the delta matrix."""
    d = delta_matrix(x, y)
    k = kernel_basis(d)
    basis = []
    c0_off, _ = _c0_layout(x, y)
    for j in range(k.cols):
        parts = {}
        for v in x.quiver.vertices:
            xd, yd = x.dims[v], y.dims[v]
            base = c0_off[v]
            rows = [
                [k.data[base + s * yd + t][j] for s in range(xd)] for t in range(yd)
            ]
            parts[v] = Mat(yd, xd, rows, x.field)
        basis.append(Morphism(x, y, parts))
    return HomSpace(x, y, basis)


def hom_dim(x: Representation, y: Representation) -> int:
    d = delta_matrix(x, y)
    return d.cols - rank(d)


class HomExt(NamedTuple):
    hom: int
    ext: int
    ext_units: List[Tuple[object, int, int]]


def homext(x: Representation, y: Representation) -> HomExt:
    """dim Hom(X,Y), dim Ext^1(X,Y) and an Ext^1 unit basis from one delta map.

    dim Ext^1 = dim C^1 - rank(delta) is the size of the greedy complement
    of im(delta), and dim Hom = dim C^0 - rank(delta).  The units are
    matrix units whose classes form a basis of coker(delta), chosen by
    the greedy ascending scan of image_complement, so the selection is
    reproducible bit for bit.  Units are (arrow id, column, row) with
    1-based indices into Hom(X_{t(a)}, Y_{h(a)}).
    """
    d = delta_matrix(x, y)
    comp = image_complement(d, d.rows)
    units = []
    for j in range(comp.cols):
        idx = next(i for i in range(comp.rows) if comp.data[i][j])
        units.append(c1_index_to_unit(x, y, idx))
    return HomExt(d.cols - d.rows + comp.cols, comp.cols, units)


def ext_dim(x: Representation, y: Representation) -> int:
    return homext(x, y).ext


def ext_unit_basis(x: Representation, y: Representation) -> List[Tuple[object, int, int]]:
    return homext(x, y).ext_units


def end_dim(x: Representation) -> int:
    return hom_dim(x, x)


def euler_form_check(x: Representation, y: Representation) -> bool:
    """dim Hom - dim Ext^1 = <dim X, dim Y>, with dim Hom from the kernel
    of delta and dim Ext^1 from the complement of its image.

    homext alone would satisfy the identity by rank-nullity, whatever the
    matrices; two eliminations of delta make it a check that they agree.
    """
    return hom_dim(x, y) - homext(x, y).ext == ringel_form(x.quiver, x.dims, y.dims)


@dataclass
class OracleResult:
    verdict: str  # indecomposable | decomposable | inconclusive
    idempotent: Optional[Morphism] = None


def is_indecomposable_oracle(x: Representation, budget: int) -> OracleResult:
    """Exhaustive idempotent search in End(X) over a prime field.

    Decomposable iff some e with e^2 = e, e != 0, e != id exists among
    all p^(dim End) coefficient combinations; inconclusive when that
    count exceeds the budget.
    """
    if not isinstance(x.field, PrimeField):
        raise InputError("indecomposability oracle requires a prime-field representation")
    if x.total_dim() == 0:
        raise DomainError("zero representation is neither")
    basis = hom_basis(x, x).basis
    d = len(basis)
    p = x.field.p
    if p**d > budget:
        return OracleResult("inconclusive")
    ident = identity_morphism(x)
    zero = zero_morphism(x, x)
    for coeffs in itertools.product(range(p), repeat=d):
        e = zero
        for c, b in zip(coeffs, basis):
            if c:
                e = e.add(b.scale(c))
        if e == zero or e == ident:
            continue
        if e.compose(e) == e:
            return OracleResult("decomposable", e)
    return OracleResult("indecomposable")
