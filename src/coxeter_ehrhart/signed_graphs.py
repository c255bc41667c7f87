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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

POS = "pos"
NEG = "neg"
HALF = "half"
LOOP = "loop"


def _check_vertex(i) -> None:
    if not isinstance(i, int) or i < 1:
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
        if not isinstance(self.n, int) or self.n < 1:
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


def root_item(vec) -> Tuple:
    """The signed-graph item of one classical positive root."""
    support = [(i, e) for i, e in enumerate(vec, start=1) if e]
    if len(support) == 2:
        (i, a), (j, b) = support
        if a == 1 and b == -1:
            return positive_edge(i, j)
        if a == 1 and b == 1:
            return negative_edge(i, j)
    elif len(support) == 1:
        ((j, a),) = support
        if a == 1:
            return halfedge(j)
        if a == 2:
            return negative_loop(j)
    raise ValueError(f"{vec!r} is not a classical positive root")


# Component states of root subsets, for counting subsets per state.  A state
# is a tuple with one code per vertex 1..n (index 0 is vertex 1):
#     first << 3 | flipped << 2 | extra
# where ``first`` is the lowest vertex index of the vertex's component,
# ``flipped`` its switching potential relative to that vertex (every
# spanning-tree edge uv of sign s has flipped[u] ^ flipped[v] == (s < 0)),
# and ``extra`` its component's one halfedge (1), negative loop (2) or
# unbalanced cycle (3), 0 for a tree.  Potentials only matter in trees, so
# a component with an extra keeps flipped = 0.  The code is a function of
# the subset's signed graph, so subsets that reach one state in any order
# share it, and the independence of a further root depends on nothing else.

_EXTRA = {HALF: 1, LOOP: 2, POS: 3, NEG: 3}


def empty_state(n: int) -> Tuple[int, ...]:
    """The state of the empty subset: n single-vertex trees."""
    return tuple(v << 3 for v in range(n))


def extend_state(state: Tuple[int, ...], item: Tuple) -> Optional[Tuple[int, ...]]:
    """The state after adding one root item, or None when the item is
    dependent: it closes a balanced cycle or gives a component a second
    halfedge, loop or unbalanced cycle (signed-graphic matroid)."""
    u, v = item[1] - 1, item[-1] - 1  # u == v for a halfedge or loop
    cu, cv = state[u], state[v]
    fu, fv = cu >> 3, cv >> 3
    if fu == fv:
        if cu & 3 or (u != v and (cu ^ cv) >> 2 & 1 == (item[0] == NEG)):
            return None
        code = fu << 3 | _EXTRA[item[0]]
        return tuple([code if c >> 3 == fu else c for c in state])
    if cu & 3 and cv & 3:
        return None
    lo, hi = (fu, fv) if fu < fv else (fv, fu)
    if cu & 3 or cv & 3:
        code = lo << 3 | (cu | cv) & 3
        return tuple([code if c >> 3 == fu or c >> 3 == fv else c for c in state])
    # relabel the higher tree into the lower one, switching it when the
    # potentials do not already fit uv's sign
    switch = ((cu ^ cv) >> 2 & 1) ^ (item[0] == NEG)
    delta = (hi ^ lo) << 3 | switch << 2
    return tuple([c ^ delta if c >> 3 == hi else c for c in state])


def state_key(state: Tuple[int, ...]) -> Tuple[int, int, int, int, int, bool]:
    """``(edge_count, tc, hc, lc, pc, all_trees_even)``, as ``classify``
    reports it for every subset that reaches ``state``.

    A component with an extra has one code, ``first << 3 | extra``, and a
    tree has ``first << 3`` and maybe ``first << 3 | 4``, so each component
    shows up once among the distinct codes with ``flipped`` = 0.  Only a
    tree has fewer items than vertices, by one, so edge_count = n - tc."""
    codes = set(state)
    kinds = [c & 7 for c in codes]
    tc = kinds.count(0)
    even = True
    for c in codes:
        if not c & 7 and (state.count(c) + state.count(c | 4)) & 1:
            even = False
            break
    return (len(state) - tc, tc, kinds.count(1), kinds.count(2), kinds.count(3), even)


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
