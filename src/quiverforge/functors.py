"""Constructive functors: BGP reflections, plus at a sink and minus at a
source as the quiver shows, the universal extension functors sigma_bar,
sigma_under and sigma = sigma_under o sigma_bar, and the maximal-rank
report, as its JSON objects, from one pruned subset walk per vertex side.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List

from .errors import DomainError
from . import linalg  # the walk calls linalg._echelon, so a patched one counts it
from .linalg import _sparse_transpose, cokernel, hstack, kernel_basis, vstack
from .quiver import Arrow, Quiver
from .reps import Representation, block_sum, hom_dim, homext


def _blocks(sizes) -> list:
    """The (start, stop) ranges of consecutive blocks of the given sizes."""
    ends = list(accumulate(sizes))
    return list(zip([0] + ends, ends))


def _side_violations(d: int, blocks: list, field) -> list:
    """(bits, achieved, required) of each subset of blocks whose rank is
    below min(d, its number of vectors); a block is an arrow's bit and its
    nonempty sequence of sparse vectors in k^d.

    Depth-first over the subsets in block order; a child extends a copy of
    its parent's echelon store by one block.  A violation is recorded and
    the walk goes on below it.  Rank never falls along a branch, so a
    subset of rank d ends its subtree, every superset being onto too, and
    so does a subtree whose largest subset has at most d vectors and is
    injective, every subset then being injective too."""
    n, sizes = len(blocks), [len(vs) for _, vs in blocks]
    rest = list(accumulate(reversed(sizes), initial=0))[::-1]
    found = []

    def walk(store, bits, size, k):
        # store: the echelon of a subset of size vectors, last block k - 1
        r, required = len(store), min(d, size)
        if r != required:
            found.append((bits, r, required))
        elif r == d or k == n or size + rest[k] <= d and len(
                linalg._echelon([v for _, vs in blocks[k:] for v in vs], field, dict(store))) == size + rest[k]:
            return
        for j in range(k, n):
            walk(linalg._echelon(blocks[j][1], field, dict(store)), bits | blocks[j][0], size + sizes[j], j + 1)

    walk({}, 0, 0, 0)
    return found


def maximal_rank_report(x: Representation) -> List[dict]:
    """All (vertex, subset) maximal-rank violations, incoming and outgoing,
    each vertex side's in binary-counter order over its arrows, as the JSON
    objects {vertex, arrows, side, achieved, required}, arrows as sorted
    strings.

    rank(hstack) at vertex i is the rank of the columns of its incoming
    maps, rank(vstack) that of the rows of its outgoing ones.  An arrow with
    a zero-dimensional end stays out of the walk: it adds no vector, so a
    violating subset S stands for S with any set of such arrows too."""
    q, violations = x.quiver, []
    sides = {(i, side): [] for i in q.vertices for side in ("in", "out")}
    for a in q.arrows:
        sides[a.head, "in"].append(a)
        sides[a.tail, "out"].append(a)
    for (i, side), arrows in sides.items():
        blocks, idle = [], []
        for k, a in enumerate(arrows):
            m = x.mats[a.id]
            if not (m.rows and m.cols):
                idle.append(1 << k)
            else:
                blocks.append((1 << k, _sparse_transpose(m.entries, m.cols) if side == "in" else m.entries))
        found = _side_violations(x.dims[i], blocks, x.field) if blocks else []
        if found:
            for z in idle:
                found += [(bits | z, r, required) for bits, r, required in found]
            violations += [{"vertex": i, "arrows": sorted(str(a.id) for k, a in enumerate(arrows) if bits >> k & 1),
                            "side": side, "achieved": r, "required": required}
                           for bits, r, required in sorted(found)]
    return violations


def _reversed_at(q: Quiver, i) -> Quiver:
    arrows = [
        Arrow(a.id, a.head, a.tail) if i in (a.head, a.tail) else a for a in q.arrows
    ]
    return Quiver(q.vertices, arrows)


def bgp_reflect(x: Representation, i) -> Representation:
    """BGP reflection functor at i: plus at a sink, minus at a source (an
    isolated vertex is a sink); DomainError at a vertex that is neither.

    The result lives over the quiver with all arrows at i reversed; its
    dimension vector is s_i(dim x) for indecomposables other than S(i).
    """
    q = x.quiver
    if x.dims[i] == x.total_dim() and x.dims[i] > 0:
        raise DomainError("reflection functor is undefined on representations "
                          "concentrated at the reflection vertex")
    if not q.outgoing(i):
        arrows = q.incoming(i)
        ker = kernel_basis(hstack([x.mats[a.id] for a in arrows], rows=x.dims[i], field=x.field))
        blocks = _blocks(x.dims[a.tail] for a in arrows)
        dim, parts = ker.cols, [ker.submatrix(lo, hi, 0, ker.cols) for lo, hi in blocks]
    elif not q.incoming(i):
        arrows = q.outgoing(i)
        _, proj = cokernel(vstack([x.mats[a.id] for a in arrows], cols=x.dims[i], field=x.field))
        blocks = _blocks(x.dims[a.head] for a in arrows)
        dim, parts = proj.rows, [proj.submatrix(0, proj.rows, lo, hi) for lo, hi in blocks]
    else:
        raise DomainError(f"vertex {i!r} is neither a sink nor a source")
    mats = {a.id: x.mats[a.id] for a in q.arrows if a not in arrows}
    mats.update(zip([a.id for a in arrows], parts))
    return Representation(_reversed_at(q, i), {**x.dims, i: dim}, mats, x.field)


def assert_exceptional(s: Representation) -> None:
    he = homext(s, s)
    if he.hom != 1 or he.ext != 0:
        raise DomainError(
            f"representation is not exceptional: dim End = {he.hom}, dim Ext = {he.ext}"
        )


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
