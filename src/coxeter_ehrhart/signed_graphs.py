"""Signed graphs encoding subsets of classical positive roots.

The dictionary, on vertex set {1, ..., n}:

    e_i - e_j   <->   positive edge ij     ("pos", i, j)
    e_i + e_j   <->   negative edge ij     ("neg", i, j)
    e_j         <->   halfedge at j        ("half", j)
    2 e_j       <->   negative loop at j   ("loop", j)

Edges are tagged tuples with i < j, so graphs are hashable values.  A pair
of parallel edges of opposite sign is allowed (it forms a 2-cycle with one
negative edge, hence an unbalanced cycle); duplicate identical edges cannot
occur because the edge container is a set.

``classify`` reads the component census of one graph from scratch.  The
forest census in ``ehrhart`` counts the same components, weighted, into
Ehrhart coefficients without building graphs, and the tests check it
against the coefficients read off ``classify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

POS = "pos"
NEG = "neg"
HALF = "half"
LOOP = "loop"


def _check_vertex(i) -> None:
    if isinstance(i, bool) or not isinstance(i, int) or i < 1:
        raise ValueError(f"vertices are positive integers, got {i!r}")


def positive_edge(i: int, j: int) -> Tuple:
    _check_vertex(i)
    _check_vertex(j)
    if not i < j:
        raise ValueError(f"edge endpoints must satisfy i < j, got ({i}, {j})")
    return (POS, i, j)


def negative_edge(i: int, j: int) -> Tuple:
    _check_vertex(i)
    _check_vertex(j)
    if not i < j:
        raise ValueError(f"edge endpoints must satisfy i < j, got ({i}, {j})")
    return (NEG, i, j)


def halfedge(j: int) -> Tuple:
    _check_vertex(j)
    return (HALF, j)


def negative_loop(j: int) -> Tuple:
    _check_vertex(j)
    return (LOOP, j)


@dataclass(frozen=True)
class SignedGraph:
    """A signed graph on vertices {1, ..., n} with halfedges and loops."""

    n: int
    edges: FrozenSet[Tuple]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for item in self.edges:
            kind = item[0]
            if kind in (POS, NEG):
                _, i, j = item
                if not (1 <= i < j <= self.n):
                    raise ValueError(f"edge {item!r} out of range for n={self.n}")
            elif kind in (HALF, LOOP):
                _, j = item
                if not 1 <= j <= self.n:
                    raise ValueError(f"item {item!r} out of range for n={self.n}")
            else:
                raise ValueError(f"unknown edge item {item!r}")


@dataclass(frozen=True)
class ComponentStats:
    """Component census of a signed graph all of whose components are
    trees, halfedge-trees, loop-trees, or unbalanced pseudotrees."""

    tc: int  # tree components
    hc: int  # halfedge-tree components
    lc: int  # loop-tree components
    pc: int  # unbalanced pseudotree components
    edge_count: int  # total items, halfedges and loops included
    all_trees_even: bool  # every tree component has an even vertex count

    @property
    def components(self) -> int:
        return self.tc + self.hc + self.lc + self.pc


def classify(graph: SignedGraph) -> Optional[ComponentStats]:
    """Component census, or None when the graph is not a pseudoforest.

    Allowed components: trees; trees plus one halfedge; trees plus one
    negative loop; and connected graphs whose unique cycle is unbalanced
    (odd number of negative edges, parallel opposite-sign pairs included).
    Any component with two or more of {independent cycle, halfedge, loop},
    or with a balanced cycle, disqualifies the whole graph.
    """
    n = graph.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    regular = []  # (u, v, sign)
    half_at = {}
    loop_at = {}
    for item in graph.edges:
        kind = item[0]
        if kind in (POS, NEG):
            _, u, v = item
            regular.append((u, v, 1 if kind == POS else -1))
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        elif kind == HALF:
            half_at[item[1]] = half_at.get(item[1], 0) + 1
        else:
            loop_at[item[1]] = loop_at.get(item[1], 0) + 1

    comp_vertices = {}
    for v in range(1, n + 1):
        comp_vertices.setdefault(find(v), []).append(v)
    comp_edges = {}
    for u, v, sign in regular:
        comp_edges.setdefault(find(u), []).append((u, v, sign))

    tc = hc = lc = pc = 0
    all_trees_even = True
    for root, vertices in comp_vertices.items():
        edges = comp_edges.get(root, [])
        halves = sum(half_at.get(v, 0) for v in vertices)
        loops = sum(loop_at.get(v, 0) for v in vertices)
        cycle_rank = len(edges) - len(vertices) + 1
        extras = cycle_rank + halves + loops
        if extras == 0:
            tc += 1
            if len(vertices) % 2:
                all_trees_even = False
        elif extras > 1:
            return None
        elif halves:
            hc += 1
        elif loops:
            lc += 1
        else:
            if _unique_cycle_is_balanced(vertices, edges):
                return None
            pc += 1
    return ComponentStats(tc, hc, lc, pc, len(graph.edges), all_trees_even)


def _unique_cycle_is_balanced(vertices, edges) -> bool:
    """Balance of the single cycle in a connected component of cycle rank 1.

    Vertices get potentials in {+1, -1} along a BFS tree (crossing a
    negative edge flips the potential); the one non-tree edge closes the
    cycle, which is balanced exactly when the edge sign matches the product
    of its endpoint potentials.
    """
    adjacency = {v: [] for v in vertices}
    for idx, (u, v, sign) in enumerate(edges):
        adjacency[u].append((idx, v, sign))
        adjacency[v].append((idx, u, sign))
    start = vertices[0]
    potential = {start: 1}
    used = set()
    queue = [start]
    while queue:
        u = queue.pop()
        for idx, v, sign in adjacency[u]:
            if idx in used:
                continue
            if v not in potential:
                used.add(idx)
                potential[v] = potential[u] * sign
                queue.append(v)
    extra = next(i for i in range(len(edges)) if i not in used)
    u, v, sign = edges[extra]
    return potential[u] * potential[v] * sign == 1
