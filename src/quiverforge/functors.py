"""Constructive functors: image-vertex insertion and collapse, BGP
reflections, universal extension functors and their inverses, membership
predicates, and the maximal-rank-type checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Sequence, Tuple

from .errors import ConstructionError, DomainError, InputError
from .linalg import (
    Mat,
    cokernel,
    hstack,
    inverse,
    kernel_basis,
    mat_solve,
    pivot_columns,
    rank,
    vstack,
)
from .quiver import Arrow, Quiver
from .reps import (
    Morphism,
    Representation,
    block_sum,
    hom_basis,
    hom_dim,
    homext,
    identity_morphism,
)


@dataclass
class InsertionResult:
    new_quiver: Quiver
    new_rep: Representation
    z_vertex: object
    inclusion: Mat
    original: Representation
    vertex: object
    arrow_ids: Tuple[object, ...]


@dataclass
class MembershipReport:
    hom_x_s: int
    hom_s_x: int
    ext_s_x: int
    ext_x_s: int

    @property
    def in_minus_upper(self) -> bool:
        """X in M^{-S}: Hom(X, S) = 0."""
        return self.hom_x_s == 0

    @property
    def in_minus_lower(self) -> bool:
        """X in M_{-S}: Hom(S, X) = 0."""
        return self.hom_s_x == 0


@dataclass
class RankViolation:
    vertex: object
    arrow_ids: Tuple[object, ...]
    side: str  # "in" | "out"
    achieved: int
    required: int

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "arrows": sorted(map(str, self.arrow_ids)),
            "side": self.side,
            "achieved": self.achieved,
            "required": self.required,
        }


def _blocks(sizes) -> list:
    """The (start, stop) ranges of consecutive blocks of the given sizes."""
    ends = list(accumulate(sizes))
    return list(zip([0] + ends, ends))


def _fresh_vertex(q: Quiver, base="z"):
    name = base
    k = 0
    while name in q.vertices:
        k += 1
        name = f"{base}{k}"
    return name


def insert_image_vertex(x: Representation, i, arrow_ids: Sequence) -> InsertionResult:
    """Attach a new vertex carrying the image of the stacked map into i.

    The subset must consist of arrows with head i.  The image basis is
    the set of pivot columns of the column-stacked matrix, and the
    stacked map is refactored through the inclusion by one solve.
    """
    q = x.quiver
    aset = []
    for a in q.arrows:
        if a.id in set(arrow_ids):
            if a.head != i:
                raise InputError(f"arrow {a.id!r} does not point into vertex {i!r}")
            aset.append(a)
    if len(aset) != len(set(arrow_ids)):
        raise InputError("unknown arrow id in subset")
    stacked = hstack([x.mats[a.id] for a in aset], rows=x.dims[i], field=x.field)
    inclusion = stacked.columns(pivot_columns(stacked))
    hats = mat_solve(inclusion, stacked)
    if hats is None:
        raise ConstructionError("factorization through the image failed")
    z = _fresh_vertex(q)
    keep = [a for a in q.arrows if a not in aset]
    gammas = [Arrow(f"g_{a.id}", a.tail, z) for a in aset]
    delta = Arrow("ins_delta", z, i)
    new_q = Quiver(tuple(q.vertices) + (z,), tuple(keep + gammas + [delta]))
    dims = dict(x.dims)
    dims[z] = inclusion.cols
    mats = {a.id: x.mats[a.id] for a in keep}
    for g, (lo, hi) in zip(gammas, _blocks(x.dims[a.tail] for a in aset)):
        mats[g.id] = hats.submatrix(0, hats.rows, lo, hi)
    mats[delta.id] = inclusion
    new_rep = Representation(new_q, dims, mats, x.field)
    return InsertionResult(new_q, new_rep, z, inclusion, x, i, tuple(a.id for a in aset))


def collapse(y: Representation, data: InsertionResult) -> Representation:
    """Compose each gamma arrow with delta, recovering a representation of
    the original quiver."""
    if y.quiver != data.new_quiver:
        raise InputError("representation does not live over the inserted quiver")
    q = data.original.quiver
    dims = {v: y.dims[v] for v in q.vertices}
    mats = {}
    subset = set(data.arrow_ids)
    delta = y.mats["ins_delta"]
    for a in q.arrows:
        if a.id in subset:
            mats[a.id] = delta.mul(y.mats[f"g_{a.id}"])
        else:
            mats[a.id] = y.mats[a.id]
    return Representation(q, dims, mats, y.field)


def _subsets_binary(arrows: List[Arrow]):
    """Nonempty subsets in binary-counter order over the arrow list."""
    n = len(arrows)
    for mask in range(1, 1 << n):
        yield [arrows[k] for k in range(n) if mask >> k & 1]


def maximal_rank_report(x: Representation) -> List[RankViolation]:
    """All (vertex, subset) maximal-rank violations, incoming and outgoing:
    one rank per nonempty subset, 2^k - 1 for a vertex side with k arrows."""
    q = x.quiver
    violations = []
    for i in q.vertices:
        for side, arrows, stack in (("in", q.incoming(i), hstack), ("out", q.outgoing(i), vstack)):
            for sub in _subsets_binary(arrows):
                stacked = stack([x.mats[a.id] for a in sub], x.dims[i], x.field)
                required = min(stacked.rows, stacked.cols)
                achieved = rank(stacked)
                if achieved != required:
                    violations.append(
                        RankViolation(i, tuple(a.id for a in sub), side, achieved, required)
                    )
    return violations


def is_maximal_rank_type(x: Representation) -> bool:
    return not maximal_rank_report(x)


def _reversed_at(q: Quiver, i) -> Quiver:
    arrows = [
        Arrow(a.id, a.head, a.tail) if i in (a.head, a.tail) else a for a in q.arrows
    ]
    return Quiver(q.vertices, arrows)


def bgp_reflect(x: Representation, i, direction: str) -> Representation:
    """BGP reflection functor at a sink (plus) or source (minus).

    The result lives over the quiver with all arrows at i reversed; its
    dimension vector is s_i(dim x) for indecomposables other than S(i).
    """
    q = x.quiver
    if x.dims[i] == x.total_dim() and x.dims[i] > 0:
        raise DomainError("reflection functor is undefined on representations "
                          "concentrated at the reflection vertex")
    if direction == "plus":
        if q.outgoing(i):
            raise DomainError(f"vertex {i!r} is not a sink")
        arrows = q.incoming(i)
        ker = kernel_basis(hstack([x.mats[a.id] for a in arrows], rows=x.dims[i], field=x.field))
        blocks = _blocks(x.dims[a.tail] for a in arrows)
        dim, parts = ker.cols, [ker.submatrix(lo, hi, 0, ker.cols) for lo, hi in blocks]
    elif direction == "minus":
        if q.incoming(i):
            raise DomainError(f"vertex {i!r} is not a source")
        arrows = q.outgoing(i)
        _, proj = cokernel(vstack([x.mats[a.id] for a in arrows], cols=x.dims[i], field=x.field))
        blocks = _blocks(x.dims[a.head] for a in arrows)
        dim, parts = proj.rows, [proj.submatrix(0, proj.rows, lo, hi) for lo, hi in blocks]
    else:
        raise InputError("direction must be 'plus' or 'minus'")
    mats = {a.id: x.mats[a.id] for a in q.arrows if a not in arrows}
    mats.update(zip([a.id for a in arrows], parts))
    return Representation(_reversed_at(q, i), {**x.dims, i: dim}, mats, x.field)


def assert_exceptional(s: Representation) -> None:
    he = homext(s, s)
    if he.hom != 1 or he.ext != 0:
        raise DomainError(
            f"representation is not exceptional: dim End = {he.hom}, dim Ext = {he.ext}"
        )


def membership(x: Representation, s: Representation) -> MembershipReport:
    if x.quiver != s.quiver or x.field != s.field:
        raise InputError("membership needs the same quiver and field")
    assert_exceptional(s)
    xs, sx = homext(x, s), homext(s, x)
    return MembershipReport(hom_x_s=xs.hom, hom_s_x=sx.hom, ext_s_x=sx.ext, ext_x_s=xs.ext)


def _require_no_hom(dim: int, what: str) -> None:
    if dim != 0:
        raise DomainError(f"{what} = 0 is required, got dim {dim}")


def _extend(s: Representation, x: Representation, below, above) -> Representation:
    """t = len(below) copies of S, then X, then r = len(above) copies of S.
    The k-th unit of Ext(X,S) in below couples X into S copy k, and the
    k-th unit of Ext(S,X) in above couples S copy t + k + 1 into X."""
    t = len(below)
    couplings = [(aid, k, t, row, col) for k, (aid, col, row) in enumerate(below)]
    couplings += [(aid, t, t + k + 1, row, col) for k, (aid, col, row) in enumerate(above)]
    return block_sum([s] * t + [x] + [s] * len(above), couplings)


def sigma_bar(s: Representation, x: Representation) -> Representation:
    """Universal extension on top: 0 -> X -> Z -> S^r -> 0 with r = dim Ext(S,X).

    Requires Hom(X,S) = 0 and S exceptional.  Basis order: basis of X,
    then r copies of the basis of S; couplings are the matrix units
    selected by homext(S, X).ext_units.
    """
    assert_exceptional(s)
    _require_no_hom(hom_dim(x, s), "sigma_bar: Hom(X,S)")
    return _extend(s, x, (), homext(s, x).ext_units)


def sigma_under(s: Representation, y: Representation) -> Representation:
    """Universal extension below: 0 -> S^t -> U -> Y -> 0 with t = dim Ext(Y,S).

    Requires Hom(S,Y) = 0 and S exceptional.  Basis order: t copies of
    the basis of S, then the basis of Y.
    """
    assert_exceptional(s)
    _require_no_hom(hom_dim(s, y), "sigma_under: Hom(S,Y)")
    return _extend(s, y, homext(y, s).ext_units, ())


def sigma(s: Representation, x: Representation) -> Representation:
    """sigma_S = sigma_under o sigma_bar on M^{-S} cap M_{-S}, built as the
    one block sum S^t + X + S^r with t = dim Ext(X,S), r = dim Ext(S,X).

    Builds three delta maps, (S,S), (S,X) and (X,S), and none of
    Z = sigma_bar(S,X): Hom(S,Z) = 0 as the connecting map
    Hom(S,S^r) -> Ext(S,X) is onto, and restriction C^1(Z,S) -> C^1(X,S)
    is an isomorphism on cokernels, so Ext(Z,S) has the units of Ext(X,S).
    dim out = x - (x, s) s holds by arithmetic: homext's hom - ext is the
    Euler form, so with both Homs zero t + r = -<x,s> - <s,x> = -(x, s).
    """
    assert_exceptional(s)
    sx = homext(s, x)
    _require_no_hom(sx.hom, "sigma: Hom(S,X)")
    xs = homext(x, s)
    _require_no_hom(xs.hom, "sigma: Hom(X,S)")
    return _extend(s, x, xs.ext_units, sx.ext_units)


def sigma_bar_inv(s: Representation, z: Representation) -> Representation:
    """Intersection of the kernels of all maps Z -> S, with restricted maps."""
    assert_exceptional(s)
    phis = hom_basis(z, s)
    q = z.quiver
    incl = {}
    for v in q.vertices:
        stacked = vstack([p.parts[v] for p in phis], cols=z.dims[v], field=z.field)
        incl[v] = kernel_basis(stacked)
    dims = {v: incl[v].cols for v in q.vertices}
    mats = {}
    for a in q.arrows:
        rhs = z.mats[a.id].mul(incl[a.tail])
        m = mat_solve(incl[a.head], rhs)
        if m is None:
            raise ConstructionError("kernel subspace is not arrow-stable")
        mats[a.id] = m
    return Representation(q, dims, mats, z.field)


def sigma_under_inv(s: Representation, u: Representation) -> Representation:
    """Quotient of U by the sum of images of all maps S -> U."""
    assert_exceptional(s)
    psis = hom_basis(s, u)
    q = u.quiver
    rep_inj, proj = {}, {}
    for v in q.vertices:
        rep_inj[v], proj[v] = cokernel(hstack([p.parts[v] for p in psis], rows=u.dims[v], field=u.field))
    dims = {v: proj[v].rows for v in q.vertices}
    mats = {a.id: proj[a.head].mul(u.mats[a.id]).mul(rep_inj[a.tail]) for a in q.arrows}
    return Representation(q, dims, mats, u.field)


def sigma_inv(s: Representation, x: Representation) -> Representation:
    y = sigma_under_inv(s, x)
    return sigma_bar_inv(s, y)


def find_isomorphism(x: Representation, y: Representation):
    """A mutually inverse pair of morphisms, or None.

    Scans deterministic linear combinations sum_k t^k f_k of the Hom
    basis; when an isomorphism exists, the non-invertible t form a
    finite root set, so enough sample points always hit one.
    """
    if x.dims != y.dims:
        return None
    fwd = hom_basis(x, y)
    if not fwd:
        return None
    idx = identity_morphism(x)
    bad_bound = sum(x.dims.values()) * max(1, len(fwd) - 1)
    for t in range(bad_bound + 2):
        c = x.field.of(1)
        f = fwd[0]
        for m in fwd[1:]:
            c = c * x.field.of(t)
            f = f.add(m.scale(c))
        try:
            parts = {v: inverse(f.parts[v]) for v in x.quiver.vertices}
        except InputError:
            continue
        g = Morphism(y, x, parts)
        if g.compose(f) == idx and g.is_valid():
            return f, g
    return None
