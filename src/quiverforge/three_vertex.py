"""The three-vertex family: quiver construction, the word calculus of
<s_1, s_2> on plain tuples of letters (reduce_word, star_form and
sigma_root, with the kind of each block read off its reduced word), and
the full pipeline building the unique indecomposable for every positive
real root.

Vertices are 1, 2, 3; arrows are la1..laf (1 -> 2), mu1..mug (2 -> 3)
and nu1..nuh (3 -> 2), in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

from .errors import ConstructionError, DomainError, InputError
from .linalg import QQ, Mat
from .quiver import Arrow, Quiver, apply_word, reflect, ringel_form, root_expression, unit_vector
from .reps import Representation, simple_rep
from .functors import bgp_reflect, sigma


@dataclass(frozen=True)
class FamilyParams:
    f: int
    g: int
    h: int

    def __post_init__(self):
        if min(self.f, self.g, self.h) < 1:
            raise InputError("family parameters must all be >= 1")


_FAMILIES: dict = {}


def build_family(p: FamilyParams) -> Quiver:
    """The quiver Q(f, g, h), built once: equal params share one Quiver."""
    if p not in _FAMILIES:
        arrows = [Arrow(f"la{k}", 1, 2) for k in range(1, p.f + 1)]
        arrows += [Arrow(f"mu{k}", 2, 3) for k in range(1, p.g + 1)]
        arrows += [Arrow(f"nu{k}", 3, 2) for k in range(1, p.h + 1)]
        _FAMILIES[p] = Quiver((1, 2, 3), arrows)
    return _FAMILIES[p]


def build_subquiver(f: int) -> Quiver:
    """The two-vertex subquiver with f parallel arrows 1 -> 2."""
    return Quiver((1, 2), [Arrow(f"la{k}", 1, 2) for k in range(1, f + 1)])


# ---------------------------------------------------------------------------
# Words in s_1, s_2 and the star form
#
# A block is a reduced word in s_1, s_2, a tuple of letters: () is the
# identity, an odd word of length 2n + 1 starting with i is zeta_i(n), and
# a non-empty even word is a rho.


def reduce_word(w: Sequence[int], f: int) -> Tuple[int, ...]:
    """The reduced word of the element a word in s_1, s_2 equals: equal
    neighbours cancel (s_i^2 = 1), and for f = 1 the braid relation
    (s_1 s_2)^3 = 1 leaves at most three letters, where 4 and 5 become 2
    and 1 starting on the other letter and 121 = 212 is zeta_1(1)."""
    out: List[int] = []
    for c in w:
        if out and out[-1] == c:
            out.pop()
        else:
            out.append(c)
    if f == 1:
        L, a = len(out) % 6, out[0] if out else 1
        if L > 3:
            L, a = 6 - L, 3 - a
        out = [1, 2, 1] if L == 3 else [a, 3 - a][:L]
    return tuple(out)


def star_form(blocks: Sequence[Tuple[int, ...]], f: int) -> List[Tuple[int, ...]]:
    """The star form chi_m, ..., chi_1 of the blocks chi'_m, ..., chi'_1 of
    a word split on s_3 (left to right).

    Descending pass over the blocks: a zeta block is kept, and a rho block
    chi becomes chi s_1 while the block to its right takes s_1 on its left,
    as s_1 commutes with s_3 (no arrow joins vertices 1 and 3).  The form
    has two or more blocks, a head that is () or a zeta and zeta interior
    blocks, where s_1 = zeta_1(0) is no zeta here; anything else raises
    ConstructionError.
    """
    blocks = list(blocks)
    for k in range(len(blocks) - 1):  # chi'_m .. chi'_2, left to right
        if blocks[k] and len(blocks[k]) % 2 == 0:
            blocks[k] = reduce_word(blocks[k] + (1,), f)
            blocks[k + 1] = reduce_word((1,) + blocks[k + 1], f)

    def zeta(b):
        return len(b) % 2 == 1 and b != (1,)

    if len(blocks) < 2 or blocks[0] and not zeta(blocks[0]) or not all(map(zeta, blocks[1:-1])):
        raise ConstructionError(f"rewriting produced an out-of-grammar form {blocks}")
    return blocks


# ---------------------------------------------------------------------------
# Construction pipeline


@dataclass
class Stage:
    s_dims: Optional[dict]  # dims of the reflecting module, None for the base
    dims: dict
    predicted_end: int

    @property
    def tag(self) -> str:
        """The stage's module named from its dims, entries in vertex order:
        base S(v) or sigma S(v) for a simple, else base subquiver X_(a,b,0)
        or sigma X_(a, b, c)."""
        dims = self.dims if self.s_dims is None else self.s_dims
        if sum(dims.values()) == 1:
            name = f"S({next(v for v, d in dims.items() if d)})"
        elif self.s_dims is None:
            name = f"subquiver X_({','.join(map(str, dims.values()))})"
        else:
            name = f"X_{tuple(dims.values())}"
        return ("base " if self.s_dims is None else "sigma ") + name

    def to_json(self, q: Quiver) -> dict:
        return {
            "tag": self.tag,
            "s_dims": None if self.s_dims is None else [self.s_dims[v] for v in q.vertices],
            "dims": [self.dims[v] for v in q.vertices],
            "predicted_end_dim": self.predicted_end,
        }


@dataclass
class ConstructionTrace:
    quiver: Quiver
    stages: List[Stage] = dc_field(default_factory=list)

    def base(self, dims: dict) -> Stage:
        """Append stage 0, a base module of dimension vector dims and End 1."""
        self.stages.append(Stage(None, dict(dims), 1))
        return self.stages[-1]

    def extend(self, s_dims: dict) -> Stage:
        """Append sigma_S of the last stage for an exceptional S with dims
        s = s_dims: dims become dims - (dims, s) s, and by Ringel's End
        formula the predicted End grows by <dims, s><s, dims>."""
        q, prev = self.quiver, self.stages[-1].dims
        a, b = ringel_form(q, prev, s_dims), ringel_form(q, s_dims, prev)
        dims = {v: prev[v] - (a + b) * s_dims[v] for v in q.vertices}
        end = self.stages[-1].predicted_end + a * b
        self.stages.append(Stage(dict(s_dims), dims, end))
        return self.stages[-1]

    def to_json(self) -> dict:
        return {"stages": [s.to_json(self.quiver) for s in self.stages]}

    @classmethod
    def from_json(cls, q: Quiver, obj) -> "ConstructionTrace":
        """Read a trace written by to_json, replaying it through base and
        extend: stage 0 is a base (s_dims null, End 1), and each later
        stage must have the dims and End that extend computes, and each
        stage the tag its dims give.  A break raises InputError naming the
        stage."""
        def vec(k, raw):
            if not (isinstance(raw, list) and len(raw) == len(q.vertices)
                    and all(type(v) is int for v in raw)):
                raise InputError(f"trace stage {k}: {raw!r} is not a dimension vector")
            return dict(zip(q.vertices, raw))

        trace = cls(q)
        try:
            for k, st in enumerate(obj["stages"]):
                dims = vec(k, st["dims"])
                s = None if st["s_dims"] is None else vec(k, st["s_dims"])
                if (s is None) != (k == 0):
                    raise InputError(f"trace stage {k}: only stage 0 is a base (s_dims null)")
                if type(st["predicted_end_dim"]) is not int:
                    raise InputError(f"trace stage {k}: predicted_end_dim "
                                     f"{st['predicted_end_dim']!r} is not an integer")
                got = trace.base(dims) if s is None else trace.extend(s)
                if got.dims != dims:
                    raise InputError(f"trace stage {k}: dims are not stage {k - 1}'s "
                                     f"reflected by s_dims")
                if st["predicted_end_dim"] != got.predicted_end:
                    raise InputError(f"trace stage {k}: predicted_end_dim should be "
                                     f"{got.predicted_end}")
                if st["tag"] != got.tag:
                    raise InputError(f"trace stage {k}: tag should be {got.tag!r}")
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed trace JSON: {exc!r}") from exc
        if not trace.stages:
            raise InputError("trace has no stages")
        return trace


def predicted_end_dim(trace: ConstructionTrace) -> int:
    """The endomorphism dimension a trace that plan did not build predicts,
    checked by replaying its stages through ConstructionTrace.from_json;
    a trace from plan already holds it in stages[-1].predicted_end."""
    try:
        return ConstructionTrace.from_json(trace.quiver, trace.to_json()).stages[-1].predicted_end
    except InputError as exc:
        raise ConstructionError(f"trace bookkeeping is inconsistent: {exc}", trace) from exc


# Kept for the life of the process: each module of a reflection chain by
# (f, field, whether its arrows point 1 -> 2, dims).
_CHAINS: dict = {}


def kronecker_rep(alpha: Tuple[int, int], f: int, field=QQ) -> Representation:
    """The unique indecomposable of the f-arrow two-vertex quiver for a
    real root (a, b), built with reflection functors.

    Intermediate steps live over alternating orientations; the parity of
    the reflection word is used to land back on arrows 1 -> 2.  The
    descent is deterministic, so the chain of a root the descent visits
    is the start of this chain: a call starts from the deepest step an
    earlier call stored, and stores each step it builds once that step's
    orientation and dims check.  After a failed check it stores nothing
    more and raises.
    """
    qk = build_subquiver(f)
    word, j = root_expression(qk, {1: alpha[0], 2: alpha[1]})
    n, d, keys = len(word), unit_vector(qk, j), []
    for k, i in enumerate(reversed(word), 1):
        d = reflect(qk, i, d)
        keys.append((f, field, (n - k) % 2 == 0, d[1], d[2]))
    start = next((k for k in range(n, 0, -1) if keys[k - 1] in _CHAINS), 0)
    if start:
        x = _CHAINS[keys[start - 1]]
    else:
        start_q = qk if n % 2 == 0 else Quiver((1, 2), [Arrow(ar.id, 2, 1) for ar in qk.arrows])
        x = simple_rep(start_q, j, field)
    ok = True
    for k in range(start, n):
        i = word[n - 1 - k]
        x = bgp_reflect(x, i)
        ok = ok and (x.quiver == qk, x.dims[1], x.dims[2]) == keys[k][2:]
        if ok:
            _CHAINS[keys[k]] = x
    if x.quiver != qk:
        raise ConstructionError("reflection parity did not return to the base orientation")
    if not ok:
        raise ConstructionError(f"a reflection step towards {alpha} built the wrong module")
    return x


def embed_subquiver_rep(x: Representation, p: FamilyParams) -> Representation:
    """Extend a two-vertex representation by a zero space at vertex 3."""
    q = build_family(p)
    dims = {1: x.dims[1], 2: x.dims[2], 3: 0}
    mats = {a.id: x.mats[a.id] if a.tail == 1 else Mat.zeros(dims[a.head], dims[a.tail], x.field)
            for a in q.arrows}
    return Representation(q, dims, mats, x.field)


def sigma_root(q: Quiver, w: Tuple[int, ...]) -> dict:
    """The subquiver real root chi' with sigma_w = sigma_{X_chi'} for a
    zeta word w.

    w is a palindrome u s_j u^-1, with u its first n letters and j its
    middle letter, so w is the reflection in the root chi' = u(e_j).
    """
    n = len(w) // 2
    return apply_word(q, w[:n], unit_vector(q, w[n]))


def plan(alpha: dict, p: FamilyParams) -> ConstructionTrace:
    """The construction of X_alpha for a positive real root as a trace,
    with no field and no matrices.

    The descent word is split on the letter 3 and brought to the star form
    chi_m s_3 ... s_3 chi_1.  Stage 0 is X_{chi_1(e_j)}: a subquiver module,
    or S(3) then sigma_{X_chi'} when j = 3; each further block chi adds
    sigma_{S(3)} and then sigma_{X_chi'}.
    """
    q = build_family(p)
    word, j = root_expression(q, alpha)
    cuts = [k for k, c in enumerate(word) if c == 3]
    blocks = [reduce_word(word[a + 1:b], p.f) for a, b in zip([-1] + cuts, cuts + [len(word)])]
    # pre-normalize the tail so that chi_1(e_j) is never e_1 (absorbed via
    # s_3(e_1) = e_1) nor a vector the extension stage cannot start from
    while len(blocks) >= 2 and apply_word(q, blocks[-1], unit_vector(q, j)) == unit_vector(q, 1):
        blocks, j = blocks[:-1], 1
    # a leading bare s_1 commutes across the separator (no arrows join
    # vertices 1 and 3), so fold it into the next block
    if len(blocks) >= 2 and blocks[0] == (1,):
        blocks = [(), reduce_word((1,) + blocks[1], p.f)] + blocks[2:]
    if len(blocks) >= 2:
        blocks = star_form(blocks, p.f)
    chi1 = blocks[-1]
    first = apply_word(q, chi1, unit_vector(q, j))
    if any(x < 0 for x in first.values()):
        raise DomainError(f"the word {chi1} takes e_{j} to no positive root")
    trace = ConstructionTrace(q)

    def extend_zeta(chi):  # sigma_{X_chi'}; the identity adds no stage
        if chi:
            trace.extend(sigma_root(q, chi))

    # s_1 fixes e_3, so a rho tail (non-empty: the identity adds no stage)
    # acts on it as the zeta chi_1 s_1
    if j == 3:
        trace.base(unit_vector(q, 3))
        extend_zeta(reduce_word(chi1 + (1,), p.f) if chi1 and len(chi1) % 2 == 0 else chi1)
    else:
        trace.base(first)
    for chi in reversed(blocks[:-1]):
        trace.extend(unit_vector(q, 3))
        extend_zeta(chi)
    if trace.stages[-1].dims != alpha:
        raise ConstructionError(f"plan ends at dims {trace.stages[-1].dims}, not {alpha}", trace)
    return trace


def _module(dims: dict, p: FamilyParams, field) -> Representation:
    """The exceptional module of a stage: S(3), or a two-vertex subquiver
    module built by reflection functors."""
    q = build_family(p)
    if dims == unit_vector(q, 3):
        return simple_rep(q, 3, field)
    if dims[3] != 0:
        raise ConstructionError(f"no stage module has dims {dims}")
    return embed_subquiver_rep(kronecker_rep((dims[1], dims[2]), p.f, field), p)


# Kept for the life of the process: stage modules by (family, field,
# dims), and each realised plan prefix by (family, field, prefix) as its
# packed nonzeros, which for these tree modules number total dim - 1.
_MODULES: dict = {}
_PREFIXES: dict = {}


def _pack(x: Representation) -> tuple:
    """Per arrow, x's nonzeros as one flat (row, col, value, ...) tuple."""
    return tuple(tuple(v for i, row in enumerate(x.mats[a.id].entries)
                       for j, c in row.items() for v in (i, j, c))
                 for a in x.quiver.arrows)


def _unpack(packed: tuple, q: Quiver, dims: dict, field) -> Representation:
    """The representation _pack packed, each row in its packed order."""
    mats = {}
    for a, flat in zip(q.arrows, packed):
        rows = [{} for _ in range(dims[a.head])]
        for k in range(0, len(flat), 3):
            rows[flat[k]][flat[k + 1]] = flat[k + 2]
        mats[a.id] = Mat(dims[a.head], dims[a.tail], rows, field, canonical=True)
    return Representation(q, dims, mats, field)


def realise(trace: ConstructionTrace, p: FamilyParams, field=QQ) -> Representation:
    """Build the representation a plan describes: the base module, then
    sigma_S for each later stage, checking every stage's dims.  A
    ConstructionError without a trace gets the stages up to the failing one.
    Stage modules and realised plan prefixes are kept for the life of the
    process: a call starts from the deepest prefix of its trace that an
    earlier call stored, short of the whole trace, so it always runs its
    own last sigma, and stores each stage it builds once its dims check."""
    q, stages = trace.quiver, trace.stages
    mods = [st.dims if st.s_dims is None else st.s_dims for st in stages]
    vecs = [tuple(dims[v] for v in q.vertices) for dims in mods]
    keys, key = [], (p, field)
    for st, vec in zip(stages, vecs):
        key += ((st.s_dims is None, vec),)
        keys.append(key)
    start = next((k + 1 for k in range(len(stages) - 2, -1, -1) if keys[k] in _PREFIXES), 0)
    x = _unpack(_PREFIXES[keys[start - 1]], q, stages[start - 1].dims, field) if start else None
    for k in range(start, len(stages)):
        st = stages[k]
        try:
            mkey = (p, field, vecs[k])
            if mkey not in _MODULES:
                _MODULES[mkey] = _module(mods[k], p, field)
            m = _MODULES[mkey]
            x = m if st.s_dims is None else sigma(m, x)
            if x.dims != st.dims:
                raise ConstructionError(f"stage {k} built dims {x.dims}, planned {st.dims}")
        except ConstructionError as exc:
            if exc.trace is None:
                exc.trace = ConstructionTrace(q, stages[:k + 1])
            raise
        _PREFIXES[keys[k]] = _pack(x)
    return x


def construct(alpha: dict, p: FamilyParams, field=QQ) -> Tuple[Representation, ConstructionTrace]:
    """Build the unique indecomposable X_alpha for a positive real root,
    with the trace of its construction: realise(plan(alpha, p))."""
    trace = plan(alpha, p)
    return realise(trace, p, field), trace
