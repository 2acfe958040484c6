"""Reference functors kept only for the tests' round trips.

The paper builds X_alpha from BGP reflections and sigma_S alone; these
undo or re-express those steps so the tests can check them: image-vertex
insertion and its collapse, the inverse universal extensions
sigma_bar^-1 and sigma_under^-1, an isomorphism search, and the
Hom/Ext membership report for the subcategories M^{-S} and M_{-S}.

maximal_rank_report is the maximal-rank check as it was before the
pruned walk: a fresh stacked matrix and a rank for every nonempty
subset of the arrows at each vertex side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from quiverforge import linalg
from quiverforge.errors import ConstructionError, InputError
from quiverforge.functors import _blocks, assert_exceptional
from quiverforge.linalg import Mat, PrimeField, cokernel, hstack, kernel_basis, mat_solve, rank, vstack
from quiverforge.quiver import Arrow, Quiver
from quiverforge.reps import Morphism, Representation, homext, identity_morphism
from reference_reps import combination, hom_morphisms


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
    # the pivot columns of stacked, picked through linalg._echelon by
    # attribute so that a patched _echelon counts this elimination
    pivots = sorted(linalg._echelon(stacked.entries, stacked.field))
    cols = stacked.transpose().entries
    inclusion = Mat(len(pivots), stacked.rows, [cols[j] for j in pivots], x.field, canonical=True).transpose()
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


def membership(x: Representation, s: Representation) -> MembershipReport:
    if x.quiver != s.quiver or x.field != s.field:
        raise InputError("membership needs the same quiver and field")
    assert_exceptional(s)
    xs, sx = homext(x, s), homext(s, x)
    return MembershipReport(hom_x_s=xs.hom, hom_s_x=sx.hom, ext_s_x=sx.ext, ext_x_s=xs.ext)


def sigma_bar_inv(s: Representation, z: Representation) -> Representation:
    """Intersection of the kernels of all maps Z -> S, with restricted maps."""
    assert_exceptional(s)
    phis = hom_morphisms(z, s)
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
    psis = hom_morphisms(s, u)
    q = u.quiver
    rep_inj, proj = {}, {}
    for v in q.vertices:
        rep_inj[v], proj[v] = cokernel(hstack([p.parts[v] for p in psis], rows=u.dims[v], field=u.field))
    dims = {v: proj[v].rows for v in q.vertices}
    mats = {a.id: proj[a.head].mul(u.mats[a.id]).mul(rep_inj[a.tail]) for a in q.arrows}
    return Representation(q, dims, mats, u.field)


def find_isomorphism(x: Representation, y: Representation):
    """A mutually inverse pair of morphisms, or None.

    Scans deterministic linear combinations sum_k t^k f_k of the Hom
    basis for t = 0, 1, 2, ...  When some t gives an isomorphism, the
    non-invertible t are the roots of a nonzero polynomial of degree at
    most bad_bound, so bad_bound + 1 distinct sample points always hit
    one.  That holds over Q, or over F_p when p > bad_bound + 1.  Over
    F_p only p values of t are distinct, so the scan stops after
    min(bad_bound + 2, p) of them; a later t would repeat a combination.
    """
    if x.dims != y.dims:
        return None
    fwd = hom_morphisms(x, y)
    if not fwd:
        return None
    idx = identity_morphism(x)
    bad_bound = sum(x.dims.values()) * max(1, len(fwd) - 1)
    samples = bad_bound + 2
    if isinstance(x.field, PrimeField):
        samples = min(samples, x.field.p)
    for t in range(samples):
        f = combination(x, y, [(x.field.of(t**k), m) for k, m in enumerate(fwd)])
        parts = {v: mat_solve(f.parts[v], Mat.identity(x.dims[v], x.field)) for v in x.quiver.vertices}
        if None in parts.values():
            continue
        g = Morphism(y, x, parts)
        if g.compose(f) == idx and g.is_valid():
            return f, g
    return None


def _subsets_binary(arrows: List[Arrow]):
    """Nonempty subsets in binary-counter order over the arrow list."""
    n = len(arrows)
    for mask in range(1, 1 << n):
        yield [arrows[k] for k in range(n) if mask >> k & 1]


def maximal_rank_report(x: Representation) -> List[dict]:
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
                    violations.append({"vertex": i, "arrows": sorted(str(a.id) for a in sub),
                                       "side": side, "achieved": achieved, "required": required})
    return violations
