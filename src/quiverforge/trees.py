"""Tree certification and DOT export of X's coefficient quiver: a node
(v, i) per basis vector of X_v, an edge (t(a), c) -> (h(a), r) per
nonzero X_a[r][c], read by _edges and never built as a graph.  It is
relative to the basis the matrices are written in; for pipeline output,
the one accumulated by the block constructions.  reps.certify_indecomposable
grades X from the same edges and does not ask is_tree."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple

if TYPE_CHECKING:
    from .quiver import Arrow
    from .reps import Representation


def _edges(x: Representation) -> Iterator[Tuple[Arrow, int, int, object]]:
    """(arrow, c, r, X_a[r][c]) per nonzero: arrows in quiver order, then rows."""
    for a in x.quiver.arrows:
        for r, row in enumerate(x.mats[a.id].entries):
            for c, val in row.items():
                yield a, c, r, val


def nonzero_count(x: Representation) -> int:
    """The coefficient quiver's edge count: the stored nonzeros of X."""
    return sum(len(row) for a in x.quiver.arrows for row in x.mats[a.id].entries)


def is_tree(x: Representation) -> bool:
    """Whether the coefficient quiver is a tree: total dim - 1 edges,
    counted before any node is named, none closing a cycle by union-find
    with path halving (Tarjan and van Leeuwen, J. ACM 1984)."""
    n = x.total_dim()
    if n == 0 or nonzero_count(x) != n - 1:
        return False
    parent = {}  # non-roots only

    def find(u):
        while u in parent:
            p = parent[u]
            if p in parent:
                parent[u] = p = parent[p]
            u = p
        return u

    for a, c, r, _ in _edges(x):
        s, t = find((a.tail, c)), find((a.head, r))
        if s == t:
            return False
        parent[s] = t
    return True


def export_dot(x: Representation) -> str:
    """DOT text: nodes v{vertex}_{index}, then per arrow, by source and
    then target index, edges labelled {arrow}:{coefficient}."""
    lines = ["digraph coefficient_quiver {"]
    lines += [f'  "v{v}_{i + 1}";' for v in x.quiver.vertices for i in range(x.dims[v])]
    order = {a.id: k for k, a in enumerate(x.quiver.arrows)}
    for a, c, r, val in sorted(_edges(x), key=lambda e: (order[e[0].id], e[1], e[2])):
        lines.append(f'  "v{a.tail}_{c + 1}" -> "v{a.head}_{r + 1}" [label="{a.id}:{val}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
