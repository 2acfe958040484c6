"""Quivers, dimension vectors, the Ringel form and root combinatorics.

Dimension vectors are plain dicts keyed exactly by the quiver's vertex
set.  Weyl words are tuples of vertex ids; the rightmost letter acts
first, so apply_word(q, (i1, ..., ik), a) computes s_{i1}(...(s_{ik}(a))).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .errors import DomainError, InputError

DimVector = Dict[object, int]

SIMPLE = "simple"
REAL = "real"
IMAGINARY = "imaginary"
NOT_A_ROOT = "not_a_root"


@dataclass(frozen=True)
class Arrow:
    id: object
    tail: object
    head: object


class Quiver:
    """Finite loop-free directed multigraph with ordered vertices and arrows."""

    def __init__(self, vertices: Sequence, arrows: Sequence[Arrow]):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        if len({a.id for a in self.arrows}) != len(self.arrows):
            raise InputError("duplicate arrow ids")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.tail not in vset or a.head not in vset:
                raise InputError(f"arrow {a.id} references unknown vertex")
            if a.tail == a.head:
                raise InputError(f"arrow {a.id} is a loop")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._arrow_by_id = {a.id: a for a in self.arrows}

    def index(self, v) -> int:
        if v not in self._index:
            raise InputError(f"unknown vertex {v!r}")
        return self._index[v]

    def arrow(self, aid) -> Arrow:
        if aid not in self._arrow_by_id:
            raise InputError(f"unknown arrow {aid!r}")
        return self._arrow_by_id[aid]

    def incoming(self, i) -> List[Arrow]:
        self.index(i)
        return [a for a in self.arrows if a.head == i]

    def outgoing(self, i) -> List[Arrow]:
        self.index(i)
        return [a for a in self.arrows if a.tail == i]

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver(vertices={self.vertices}, arrows={len(self.arrows)})"


def check_dimvec(q: Quiver, d: DimVector) -> None:
    if set(d.keys()) != set(q.vertices):
        raise InputError("dimension vector keys do not match the vertex set")


def unit_vector(q: Quiver, i) -> DimVector:
    q.index(i)
    return {v: (1 if v == i else 0) for v in q.vertices}


def dv_tuple(q: Quiver, d: DimVector) -> Tuple[int, ...]:
    return tuple(d[v] for v in q.vertices)


def height(d: DimVector) -> int:
    return sum(d.values())


def support(d: DimVector) -> set:
    return {v for v, x in d.items() if x != 0}


def ringel_form(q: Quiver, a: DimVector, b: DimVector) -> int:
    """The Euler form <a, b> = sum_i a[i] b[i] - sum_{arrows} a[tail] b[head]."""
    check_dimvec(q, a)
    check_dimvec(q, b)
    total = sum(a[v] * b[v] for v in q.vertices)
    total -= sum(a[arr.tail] * b[arr.head] for arr in q.arrows)
    return total


def _sym_with_unit(q: Quiver, a: DimVector, i) -> int:
    """(a, e_i) = 2 a_i - sum, over the arrows at i, of a at the other end."""
    return 2 * a[i] - sum(a[b.head] if b.tail == i else a[b.tail] for b in q.arrows if i in (b.tail, b.head))


def reflect(q: Quiver, i, a: DimVector) -> DimVector:
    """Simple reflection s_i(a) = a - (a, e_i) e_i."""
    check_dimvec(q, a)
    q.index(i)
    return {**a, i: a[i] - _sym_with_unit(q, a, i)}


def apply_word(q: Quiver, w: Sequence, a: DimVector) -> DimVector:
    """Apply a Weyl word; the last letter acts first."""
    out = dict(a)
    for i in reversed(list(w)):
        out = reflect(q, i, out)
    return out


def _connected_support(q: Quiver, d: DimVector) -> bool:
    sup = support(d)
    if not sup:
        return False
    adj = {v: set() for v in sup}
    for a in q.arrows:
        if a.tail in sup and a.head in sup:
            adj[a.tail].add(a.head)
            adj[a.head].add(a.tail)
    seen = set()
    queue = deque([next(iter(sorted(sup, key=q.index)))])
    while queue:
        v = queue.popleft()
        if v in seen:
            continue
        seen.add(v)
        queue.extend(adj[v] - seen)
    return seen == sup


# Kept for the life of the process: per quiver, each vector a descent
# visited, keyed by its dv_tuple, with the (tag, word, target) of its own
# descent, which is the rest of the visiting descent.
_DESCENTS: dict = {}


def _descend(q: Quiver, a: DimVector):
    """Greedy height descent by simple reflections.

    Returns (tag, word, target_vertex).  The word records the applied
    reflections so that apply_word(q, word, e_target) recovers the input
    when the tag is simple or real.  The descent is deterministic, so it
    stops at the first vector an earlier descent visited and takes the
    rest from there.
    """
    check_dimvec(q, a)
    cur = dict(a)
    if all(x == 0 for x in cur.values()) or any(x < 0 for x in cur.values()):
        raise DomainError("root classification needs a nonzero non-negative vector")
    memo = _DESCENTS.setdefault(q, {})
    word: List = []
    path: List[Tuple[int, ...]] = []
    rest, target = (), None
    while True:
        key = dv_tuple(q, cur)
        if key in memo:
            tag, rest, target = memo[key]
            break
        path.append(key)
        sup = support(cur)
        if len(sup) == 1:
            v = next(iter(sup))
            if cur[v] == 1:
                tag, target = SIMPLE, v
                break
        pick = next((i for i in q.vertices if _sym_with_unit(q, cur, i) > 0), None)
        if pick is None:
            tag = IMAGINARY if _connected_support(q, cur) else NOT_A_ROOT
            break
        nxt = reflect(q, pick, cur)
        if any(x < 0 for x in nxt.values()):
            tag = NOT_A_ROOT
            break
        word.append(pick)
        cur = nxt
    word = tuple(word) + rest
    for k, key in enumerate(path):
        memo[key] = ((REAL if word[k:] else SIMPLE) if tag in (SIMPLE, REAL) else tag), word[k:], target
    return memo[path[0]] if path else (tag, rest, target)


def classify_root(q: Quiver, a: DimVector) -> str:
    """One of simple / real / imaginary / not_a_root."""
    return _descend(q, a)[0]


def root_expression(q: Quiver, a: DimVector):
    """Express a real root as (word, j) with apply_word(q, word, e_j) = a."""
    tag, word, j = _descend(q, a)
    if tag not in (SIMPLE, REAL):
        raise DomainError(f"vector is {tag}, not a real root")
    return word, j


def enumerate_real_roots(q: Quiver, height_bound: int) -> List[DimVector]:
    """All positive real roots of coordinate sum <= height_bound.

    Breadth-first closure of the simple roots under all reflections,
    pruned to non-negative vectors within the bound; output sorted
    lexicographically in the quiver's vertex order.
    """
    if height_bound < 1:
        raise InputError("height bound must be >= 1")
    seen = set()
    queue = deque()
    for v in q.vertices:
        e = unit_vector(q, v)
        seen.add(dv_tuple(q, e))
        queue.append(e)
    while queue:
        cur = queue.popleft()
        for i in q.vertices:
            nxt = reflect(q, i, cur)
            if any(x < 0 for x in nxt.values()) or height(nxt) > height_bound:
                continue
            key = dv_tuple(q, nxt)
            if key not in seen:
                seen.add(key)
                queue.append(nxt)
    out = sorted(seen)
    return [{v: t[k] for k, v in enumerate(q.vertices)} for t in out]


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"id": a.id, "tail": a.tail, "head": a.head} for a in q.arrows],
    }


def quiver_from_json(obj: dict) -> Quiver:
    try:
        for key in ("vertices", "arrows"):
            if type(obj[key]) is not list:
                raise InputError(f"quiver {key} {obj[key]!r} is not a list")
        arrows = [Arrow(a["id"], a["tail"], a["head"]) for a in obj["arrows"]]
        return Quiver(obj["vertices"], arrows)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed quiver JSON: {exc}") from exc


def dimvec_to_json(q: Quiver, d: DimVector) -> dict:
    return {str(v): d[v] for v in q.vertices}


def dimvec_from_json(q: Quiver, obj: dict) -> DimVector:
    if type(obj) is not dict:
        raise InputError(f"dimension vector {obj!r} is not an object")
    by_name = {str(v): v for v in q.vertices}
    out = {}
    for key, val in obj.items():
        if key not in by_name:
            raise InputError(f"unknown vertex {key!r} in dimension vector")
        if type(val) is not int:
            raise InputError(f"dimension {val!r} at vertex {key!r} is not an integer")
        out[by_name[key]] = val
    if set(out) != set(q.vertices):
        raise InputError("dimension vector misses vertices")
    return out
