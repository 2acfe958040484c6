"""Reference delta map kept only as a test oracle.

These are the delta_matrix and hom_basis that reps used while each of
them wrote out the C^0/C^1 coordinate order itself: the offset tables
_c0_layout and _c1_layout, the four-deep loop of delta_matrix that
accumulates each term into its cell, the inverse offset arithmetic of
c1_index_to_unit and the reshape of the kernel columns in hom_basis.
ext_units labels the greedy complement of the image like the homext of
that time.  reps now reads both orders from one list each, and must
agree with these bit for bit.

The delta matrix here is dense, and hom_dim, hom_basis and ext_units
eliminate it with the dense column sweep of reference_linalg, so the
whole path shares no elimination with the sparse delta rows of reps.

fitting_idempotent is the certificate's Fitting witness as reps built it
from a pivot scan, a kernel basis and a matrix inverse, before it became
one solve; the unique projection must come out the same either way.

certify_indecomposable is the certificate as reps ran it while every
vertex's nilpotency chain started from all of X_v^*, the unit rows, on
cyclic and acyclic coefficient quivers alike; reps now starts it from
the annihilator of (JX)_v where the coefficient quiver is acyclic, and
must return the same dim End, verdict and witness.

is_indecomposable_oracle is the exhaustive idempotent search over all
p^(dim End) elements of End(X) that reps shipped, as an opt-in
cross-check, until the certificate decided every catalog root; it stays
here as the certificate's agreement oracle.  hom_morphisms is the Hom
basis as Morphisms it read, and combination the sums of scaled
morphisms it and find_isomorphism build.

zero_rep and nonzero_count are test helpers too.  nonzero_count reads
the stored entries of the arrow matrices directly, so it stays a count
independent of trees, whose nonzero_count and export_dot edge lines
tests compare with it.
"""

import itertools
from dataclasses import dataclass
from typing import List, Optional

from quiverforge.errors import DomainError, InputError
from quiverforge.linalg import Mat, PrimeField, QQ, _echelon
from quiverforge.quiver import Quiver
from quiverforge.reps import (
    Certificate,
    Morphism,
    Representation,
    _fitting_idempotent,
    _hom_blocks,
    _scalar_candidates,
    identity_morphism,
)
from reference_linalg import ref_complement, ref_kernel_basis, ref_mat_solve, ref_pivot_columns


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


def hom_dim(x: Representation, y: Representation) -> int:
    d = delta_matrix(x, y)
    return d.cols - len(ref_pivot_columns(d))


def hom_basis(x: Representation, y: Representation) -> List[Morphism]:
    """Basis of Hom(X,Y) as the kernel of the delta matrix."""
    k = ref_kernel_basis(delta_matrix(x, y))  # rows laid out like Mat.data
    basis = []
    c0_off, _ = _c0_layout(x, y)
    for j in range(len(k[0]) if k else 0):
        parts = {}
        for v in x.quiver.vertices:
            xd, yd = x.dims[v], y.dims[v]
            base = c0_off[v]
            rows = [
                [k[base + s * yd + t][j] for s in range(xd)] for t in range(yd)
            ]
            parts[v] = Mat(yd, xd, rows, x.field)
        basis.append(Morphism(x, y, parts))
    return basis


def ext_units(x: Representation, y: Representation):
    d = delta_matrix(x, y)
    return [c1_index_to_unit(x, y, idx) for idx in ref_complement(d, d.rows)]


def fitting_idempotent(x: Representation, b, lam):
    """At each vertex, P = (b_v - lam)^k with k >= d_v, and the projection
    [image | 0] [image | kernel]^-1 onto im P along ker P, the image being
    P's pivot columns; None when the split is trivial or the result is
    not an idempotent endomorphism.  b is given as {vertex: rows}."""
    f = x.field
    parts = {}
    for v in x.quiver.vertices:
        d = x.dims[v]
        power = Mat(d, d, [{**row, r: row.get(r, 0) - lam} for r, row in enumerate(b[v])], f)
        k = 1
        while k < d:
            power, k = power.mul(power), 2 * k
        pivots, kernel, dense = ref_pivot_columns(power), ref_kernel_basis(power), power.data
        image = [[row[c] for c in pivots] for row in dense]
        basis = Mat(d, d, [im + list(ker) for im, ker in zip(image, kernel)], f)
        keep = Mat(d, d, [im + [0] * (d - len(pivots)) for im in image], f)
        parts[v] = keep.mul(Mat(d, d, ref_mat_solve(basis, Mat.identity(d, f)), f))
    e = Morphism(x, x, parts)
    if e.is_zero() or e == identity_morphism(x) or not e.is_valid() or e.compose(e) != e:
        return None
    return e


def chain_reaches_zero(blocks, lams, d: int, field) -> bool:
    """Whether W, WN, WN^2, ... reaches 0 from W = F^d, N being the
    b_v - lambda_b acting on row vectors, each b_v given by its rows."""
    p = field.p
    layer = [{j: 1} for j in range(d)]
    while layer:
        images = []
        for rows, lam in zip(blocks, lams):
            for w in layer:
                img = {j: -lam * a for j, a in w.items()} if lam else {}
                for j, a in w.items():
                    for c, val in rows[j].items():
                        img[c] = img.get(c, 0) + a * val
                img = {c: val % p for c, val in img.items() if val % p}
                if img:
                    images.append(img)
        nxt = list(_echelon(images, field).values())
        if len(nxt) == len(layer):  # WN is inside W, so equal sizes mean WN = W != 0
            return False
        layer = nxt
    return True


def certify_indecomposable(x: Representation) -> Certificate:
    """The full-start certificate: each chain runs on all of X_v^*."""
    basis = _hom_blocks(x, x)
    candidates = [_scalar_candidates(x, b) for b in basis]
    if all(len(lams) == 1 for lams in candidates):
        lams = [lam for (lam,) in candidates]
        if all(chain_reaches_zero([b[v] for b in basis], lams, x.dims[v], x.field)
               for v in x.quiver.vertices):
            return Certificate(len(basis), "indecomposable")
    for b, lams in zip(basis, candidates):
        for lam in dict.fromkeys([*lams, 0]):
            e = _fitting_idempotent(x, b, lam)
            if e is not None:
                return Certificate(len(basis), "decomposable", e)
    return Certificate(len(basis), "inconclusive")


def hom_morphisms(x: Representation, y: Representation) -> List[Morphism]:
    """Basis of Hom(X,Y) as Morphisms, one Mat per vertex, read from
    reps._hom_blocks."""
    return [Morphism(x, y, {v: Mat(y.dims[v], x.dims[v], rows, x.field, canonical=True)
                            for v, rows in b.items()})
            for b in _hom_blocks(x, y)]


def combination(x: Representation, y: Representation, terms) -> Morphism:
    """The sum of c f over the pairs (c, f) of terms, morphisms X -> Y;
    Mat normalises the sums and drops what cancels."""
    parts = {}
    for v in x.quiver.vertices:
        rows = [{} for _ in range(y.dims[v])]
        for c, f in terms:
            for row, f_row in zip(rows, f.parts[v].entries):
                for j, val in f_row.items():
                    row[j] = row.get(j, 0) + c * val
        parts[v] = Mat(y.dims[v], x.dims[v], rows, x.field)
    return Morphism(x, y, parts)


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
    basis = hom_morphisms(x, x)
    p = x.field.p
    if p ** len(basis) > budget:
        return OracleResult("inconclusive")
    ident = identity_morphism(x)
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        e = combination(x, x, [(c, b) for c, b in zip(coeffs, basis) if c])
        if e.is_zero() or e == ident:
            continue
        if e.compose(e) == e:
            return OracleResult("decomposable", e)
    return OracleResult("indecomposable")


def zero_rep(q: Quiver, field=QQ) -> Representation:
    dims = {v: 0 for v in q.vertices}
    mats = {a.id: Mat.zeros(0, 0, field) for a in q.arrows}
    return Representation(q, dims, mats, field)


def nonzero_count(x: Representation) -> int:
    return sum(len(row) for a in x.quiver.arrows for row in x.mats[a.id].entries)
