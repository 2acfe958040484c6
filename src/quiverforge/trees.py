"""Coefficient quivers, tree certification and DOT export.

Certification is relative to the basis in which a representation's
matrices are written; for pipeline output that is the basis accumulated
by the block constructions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

from .reps import Representation


@dataclass
class CoeffQuiver:
    nodes: List[Tuple[str, object]]  # (basis id, home vertex)
    edges: List[Tuple[object, str, str, object]]  # (arrow id, src id, dst id, coefficient)


def _node_id(vertex, index: int) -> str:
    return f"v{vertex}_{index + 1}"


def coefficient_quiver(x: Representation) -> CoeffQuiver:
    """One node per basis element, one edge per nonzero matrix entry."""
    nodes = []
    for v in x.quiver.vertices:
        for k in range(x.dims[v]):
            nodes.append((_node_id(v, k), v))
    edges = []
    for a in x.quiver.arrows:
        for s, col in enumerate(x.mats[a.id].transpose().entries):
            for t, val in col.items():
                edges.append((a.id, _node_id(a.tail, s), _node_id(a.head, t), val))
    return CoeffQuiver(nodes, edges)


def is_tree(c: CoeffQuiver) -> bool:
    """Connected with edge count = node count - 1 (undirected)."""
    if not c.nodes:
        return False
    if len(c.edges) != len(c.nodes) - 1:
        return False
    adj = {n: set() for n, _ in c.nodes}
    for _, src, dst, _ in c.edges:
        adj[src].add(dst)
        adj[dst].add(src)
    seen = set()
    queue = deque([c.nodes[0][0]])
    while queue:
        n = queue.popleft()
        if n in seen:
            continue
        seen.add(n)
        queue.extend(adj[n] - seen)
    return len(seen) == len(c.nodes)


def export_dot(c: CoeffQuiver) -> str:
    """Deterministic DOT text; node labels v{vertex}_{index}, edge labels
    {arrow}:{coefficient}."""
    lines = ["digraph coefficient_quiver {"]
    for name, _ in c.nodes:
        lines.append(f'  "{name}";')
    for aid, src, dst, val in c.edges:
        lines.append(f'  "{src}" -> "{dst}" [label="{aid}:{val}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
