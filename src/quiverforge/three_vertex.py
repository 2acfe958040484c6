"""The three-vertex family: quiver construction, the alternating elements
zeta/rho of <s_1, s_2> with one word reduction naming them, the star-form
rewriting algorithm, and the full pipeline building the unique
indecomposable for every positive real root.

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
# The alternating elements zeta/rho and their word calculus


@dataclass(frozen=True)
class EElement:
    kind: str  # zeta1 | zeta2 | rho1 | rho2 | id
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("zeta1", "zeta2", "rho1", "rho2", "id"):
            raise InputError(f"unknown element kind {self.kind!r}")
        if self.kind == "id" and self.n != 0:
            raise InputError("identity carries n = 0")
        if self.kind in ("rho1", "rho2") and self.n < 1:
            raise InputError("rho elements need n >= 1; use kind 'id' for n = 0")
        if self.n < 0:
            raise InputError("negative exponent")

    def __str__(self):
        return "1" if self.kind == "id" else f"{self.kind}({self.n})"


IDENTITY_E = EElement("id", 0)


def word_of(e: EElement) -> Tuple[int, ...]:
    if e.kind == "id":
        return ()
    if e.kind == "zeta1":
        return tuple([1, 2] * e.n + [1])
    if e.kind == "zeta2":
        return tuple([2, 1] * e.n + [2])
    if e.kind == "rho1":
        return tuple([1, 2] * e.n)
    return tuple([2, 1] * e.n)


def recognize_E(w: Sequence[int]) -> Optional[EElement]:
    """Syntactic match of a letter sequence against the five shapes."""
    w = tuple(w)
    if not w:
        return IDENTITY_E
    if any(c not in (1, 2) for c in w):
        return None
    for a, b in zip(w, w[1:]):
        if a == b:
            return None
    L = len(w)
    if w[0] == 1:
        return EElement("zeta1", (L - 1) // 2) if L % 2 else EElement("rho1", L // 2)
    return EElement("zeta2", (L - 1) // 2) if L % 2 else EElement("rho2", L // 2)


def reduce_word(w: Sequence[int], f: int) -> EElement:
    """The element of E a word in s_1, s_2 equals: equal neighbours cancel
    (s_i^2 = 1), and for f = 1 the braid relation (s_1 s_2)^3 = 1 leaves at
    most three letters, where 4 and 5 become 2 and 1 starting on the other
    letter and 121 = 212 is zeta1(1)."""
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
    return recognize_E(out)


def apply_e(q: Quiver, e: EElement, v) -> dict:
    return apply_word(q, word_of(e), v)


# ---------------------------------------------------------------------------
# Star form and the five-case rewriting algorithm


@dataclass
class StarForm:
    """Blocks chi_m, ..., chi_1 (left to right) with implicit s_3 separators."""

    chis: Tuple[EElement, ...]

    def flatten(self) -> Tuple[int, ...]:
        out: List[int] = []
        for k, chi in enumerate(self.chis):
            if k:
                out.append(3)
            out.extend(word_of(chi))
        return tuple(out)

    def grammar_ok(self, f: int) -> bool:
        """Two or more blocks; the head is 1 or a zeta, every interior block a
        zeta, where zeta1(0) = s_1 is no zeta here; f = 1 allows n <= 1 only."""
        def zeta_ok(e):
            return (e.kind == "zeta1" and e.n >= 1) or e.kind == "zeta2"

        return (len(self.chis) >= 2
                and (self.chis[0].kind == "id" or zeta_ok(self.chis[0]))
                and all(zeta_ok(e) for e in self.chis[1:-1])
                and not (f == 1 and any(e.n > 1 for e in self.chis)))


def segment_word(w: Sequence[int], p: FamilyParams, strict: bool = True) -> List[EElement]:
    """Split a word on the letter 3 into blocks chi'_m, ..., chi'_1.

    Raises InputError when a block is not an alternating 1-2 pattern.
    Strict mode also rejects a word with no letter 3, a trivial interior
    block and a leading block s_1; non-strict mode returns a word with no
    letter 3 as one block.  For f = 1 blocks are first reduced modulo the
    braid relation.
    """
    w = list(w)
    if any(c not in (1, 2, 3) for c in w):
        raise InputError("letters must be vertices 1, 2 or 3")
    if strict and 3 not in w:
        raise InputError("word contains no letter 3; it lies in the element set E")
    chunks: List[List[int]] = [[]]
    for c in w:
        if c == 3:
            chunks.append([])
        else:
            chunks[-1].append(c)
    blocks = []
    for chunk in chunks:
        if recognize_E(chunk) is None:
            raise InputError(f"block {''.join(map(str, chunk))!r} is not an alternating pattern")
        blocks.append(reduce_word(chunk, p.f))
    if strict:
        for idx, e in enumerate(blocks[:-1]):  # the tail block chi'_1 may be anything
            if e == EElement("zeta1", 0):
                raise InputError(f"block {idx} is the bare s_1, not segmentable")
            if idx and e.kind == "id":
                raise InputError(f"interior block {idx} is trivial, not segmentable")
    return blocks


def to_star_form(blocks: Sequence[EElement], p: FamilyParams) -> StarForm:
    """Rewrite the blocks chi'_m, ..., chi'_1 of a segmentable word, as
    segment_word returns them, into the star normal form.

    Descending pass over the blocks: zeta blocks are kept, and a rho
    block chi becomes chi s_1 while the block to its right takes s_1 on
    its left, as s_1 commutes with s_3 (no arrow joins vertices 1 and 3).
    """
    blocks = list(blocks)
    for j in range(len(blocks) - 1):  # positions chi'_m .. chi'_2, left to right
        if blocks[j].kind in ("rho1", "rho2"):
            blocks[j] = reduce_word(word_of(blocks[j]) + (1,), p.f)
            blocks[j + 1] = reduce_word((1,) + word_of(blocks[j + 1]), p.f)
    form = StarForm(tuple(blocks))
    if not form.grammar_ok(p.f):
        raise ConstructionError(f"rewriting produced an out-of-grammar form {list(map(str, blocks))}")
    return form


# ---------------------------------------------------------------------------
# Construction pipeline


@dataclass
class Stage:
    tag: str
    s_dims: Optional[dict]  # dims of the reflecting module, None for the base
    dims: dict
    predicted_end: int

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

    def base(self, dims: dict, tag: Optional[str] = None) -> Stage:
        """Append stage 0, a base module of dimension vector dims and End 1."""
        if tag is None:
            tag = "base " + _module_name(dims, base=True)
        self.stages.append(Stage(tag, None, dict(dims), 1))
        return self.stages[-1]

    def extend(self, s_dims: dict, tag: Optional[str] = None) -> Stage:
        """Append sigma_S of the last stage for an exceptional S with dims
        s = s_dims: dims become dims - (dims, s) s, and by Ringel's End
        formula the predicted End grows by <dims, s><s, dims>."""
        q, prev = self.quiver, self.stages[-1].dims
        a, b = ringel_form(q, prev, s_dims), ringel_form(q, s_dims, prev)
        dims = {v: prev[v] - (a + b) * s_dims[v] for v in q.vertices}
        end = self.stages[-1].predicted_end + a * b
        if tag is None:
            tag = "sigma " + _module_name(s_dims, base=False)
        self.stages.append(Stage(tag, dict(s_dims), dims, end))
        return self.stages[-1]

    def to_json(self) -> dict:
        return {"stages": [s.to_json(self.quiver) for s in self.stages]}

    @classmethod
    def from_json(cls, q: Quiver, obj) -> "ConstructionTrace":
        """Read a trace written by to_json, replaying it through base and
        extend: stage 0 is a base (s_dims null, End 1), and each later
        stage must have the dims and End that extend computes.  A break
        raises InputError naming the stage; the file's tags are kept."""
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
                if type(st["tag"]) is not str:
                    raise InputError(f"trace stage {k}: tag {st['tag']!r} is not a string")
                if type(st["predicted_end_dim"]) is not int:
                    raise InputError(f"trace stage {k}: predicted_end_dim "
                                     f"{st['predicted_end_dim']!r} is not an integer")
                got = trace.base(dims, st["tag"]) if s is None else trace.extend(s, st["tag"])
                if got.dims != dims:
                    raise InputError(f"trace stage {k}: dims are not stage {k - 1}'s "
                                     f"reflected by s_dims")
                if st["predicted_end_dim"] != got.predicted_end:
                    raise InputError(f"trace stage {k}: predicted_end_dim should be "
                                     f"{got.predicted_end}")
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


def _module_name(dims: dict, base: bool) -> str:
    """S(v) for a simple, subquiver X_(a,b,0) for a base, else X_(a, b, c)."""
    if sum(dims.values()) == 1:
        return f"S({next(v for v, d in dims.items() if d)})"
    if base:
        return f"subquiver X_({dims[1]},{dims[2]},0)"
    return f"X_{(dims[1], dims[2], dims[3])}"


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
        direction = "plus" if not x.quiver.outgoing(i) else "minus"
        x = bgp_reflect(x, i, direction)
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


def sigma_zeta_root(i: int, n: int, p: FamilyParams) -> dict:
    """The subquiver real root chi' with sigma_{zeta_i(n)} = sigma_{X_chi'}.

    The word of zeta_i(n) is a palindrome u s_j u^-1, with u its first n
    letters and j its middle letter, so zeta_i(n) is the reflection in the
    root chi' = u(e_j).
    """
    if i not in (1, 2):
        raise InputError("zeta index must be 1 or 2")
    if i == 1 and n < 1:
        raise InputError("zeta_1 functor needs n >= 1")
    if i == 2 and n < 0:
        raise InputError("zeta_2 functor needs n >= 0")
    if p.f == 1 and n > 1:
        raise InputError("f = 1 restricts exponents to n <= 1")
    q = build_family(p)
    w = word_of(EElement(f"zeta{i}", n))
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
    blocks = segment_word(word, p, strict=False)
    # pre-normalize the tail so that chi_1(e_j) is never e_1 (absorbed via
    # s_3(e_1) = e_1) nor a vector the extension stage cannot start from
    while len(blocks) >= 2 and apply_e(q, blocks[-1], unit_vector(q, j)) == unit_vector(q, 1):
        blocks = blocks[:-1]
        j = 1
    # a leading bare s_1 commutes across the separator (no arrows join
    # vertices 1 and 3), so fold it into the next block
    if len(blocks) >= 2 and blocks[0] == EElement("zeta1", 0):
        blocks = [IDENTITY_E, reduce_word((1,) + word_of(blocks[1]), p.f)] + blocks[2:]
    if len(blocks) >= 2:
        blocks = list(to_star_form(blocks, p).chis)
    chi1 = blocks[-1]
    first = apply_e(q, chi1, unit_vector(q, j))
    if any(x < 0 for x in first.values()):
        raise DomainError(f"{chi1}(e_{j}) is not a positive root")
    trace = ConstructionTrace(q)

    def extend_zeta(chi: EElement):  # sigma_{X_chi'}; the identity adds no stage
        if chi.kind != "id":
            trace.extend(sigma_zeta_root(1 if chi.kind == "zeta1" else 2, chi.n, p))

    if j == 3:  # s_1 fixes e_3, so a rho tail acts on it as the zeta chi_1 s_1
        trace.base(unit_vector(q, 3))
        extend_zeta(reduce_word(word_of(chi1) + (1,), p.f) if chi1.kind in ("rho1", "rho2") else chi1)
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
