"""Shared brute-force helpers used as independent oracles in the tests.

Besides the small enumerators, this module holds the direct reference
paths that the package's walks are checked against: the subset stream and
the gcd of maximal minors behind the generic route, the per-subset lattice
test, and the root-subset <-> signed-graph dictionary behind the census.
"""

import itertools
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterator, List, Optional, Sequence, Tuple

from coxeter_ehrhart.ehrhart import QuasiPolynomial
from coxeter_ehrhart.linalg import (
    IntegerEchelon,
    IntVector,
    common_dim,
    dot,
    int_vector,
    integer_kernel_basis,
    rank,
    rat_vector,
)
from coxeter_ehrhart.roots import positive_roots
from coxeter_ehrhart.signed_graphs import (
    HALF,
    LOOP,
    NEG,
    POS,
    SignedGraph,
    _check_vertex,
    classify,
    root_item,
)


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def relative_volume(vectors: Sequence[Sequence[int]]) -> int:
    """gcd of the maximal minors of the matrix whose columns are ``vectors``.

    For linearly independent integer vectors this equals the number of
    lattice points in the half-open parallelepiped they span, counted in
    the lattice of their linear span.  The empty set is rejected; callers
    treat it as contributing 1 to Ehrhart sums.
    """
    vecs = [int_vector(v) for v in vectors]
    if not vecs:
        raise ValueError("relative volume of the empty set is undefined")
    d = common_dim(vecs)
    k = len(vecs)
    if rank(vecs) != k:
        raise ValueError("vectors are linearly dependent")
    g = 0
    for rows in combinations(range(d), k):
        minor = determinant([[vecs[j][i] for j in range(k)] for i in rows])
        g = gcd(g, minor)
        if g == 1:
            return 1
    return g


def chi(v: Sequence, vectors: Sequence[Sequence[int]], t: int) -> int:
    """1 if the affine flat ``t*v + span(vectors)`` meets the integer lattice.

    Decided by duality: the flat meets ``Z^d`` exactly when ``<f, t*v>`` is an
    integer for every ``f`` in a saturated basis of the integer vectors
    orthogonal to ``span(vectors)``.
    """
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {t!r}")
    shift = rat_vector(v)
    basis = integer_kernel_basis(vectors, dim=len(shift))
    for f in basis:
        if (t * dot(f, shift)).denominator != 1:
            return 0
    return 1


def independent_subsets(generators: Sequence[Sequence[int]], dim: Optional[int] = None) -> Iterator[Tuple[IntVector, ...]]:
    """All linearly independent subsets of a generator multiset, the empty
    set included, in depth-first order of ascending generator index.

    Repeated generators are treated as distinct members, so each copy shows
    up in its own singleton (two parallel copies never appear together,
    being dependent).
    """
    gens = [int_vector(g) for g in generators]
    if not gens:
        yield ()
        return
    d = common_dim(gens, dim)

    def walk(start: int, chosen: List[IntVector], echelon: IntegerEchelon):
        yield tuple(chosen)
        for i in range(start, len(gens)):
            extended = echelon.try_add(gens[i])
            if extended is not None:
                chosen.append(gens[i])
                yield from walk(i + 1, chosen, extended)
                chosen.pop()

    yield from walk(0, [], IntegerEchelon(d))


def graph_from_roots(roots: Sequence[IntVector], n: Optional[int] = None) -> SignedGraph:
    """Encode a set of classical positive roots as a signed graph.

    ``n`` is inferred from the vectors when any are given.  Duplicate roots
    are rejected; they would silently collapse in the edge set.
    """
    vecs = [tuple(v) for v in roots]
    if n is None:
        if not vecs:
            raise ValueError("vertex count is required for an empty root list")
        n = len(vecs[0])
    items = []
    for vec in vecs:
        if len(vec) != n:
            raise ValueError(f"dimension mismatch: {len(vec)} vs {n}")
        items.append(root_item(vec))
    edges = frozenset(items)
    if len(edges) != len(items):
        raise ValueError("duplicate roots in input")
    return SignedGraph(n, edges)


_KIND_ORDER = {POS: 0, NEG: 1, HALF: 2, LOOP: 2}


def roots_from_graph(graph: SignedGraph) -> Tuple[IntVector, ...]:
    """Decode a signed graph back to positive root vectors, in the standard
    order (differences, then sums, then singles/doubles)."""
    n = graph.n
    out = []
    for item in sorted(graph.edges, key=lambda e: (_KIND_ORDER[e[0]], e[1:])):
        kind = item[0]
        if kind == POS:
            _, i, j = item
            out.append(tuple(1 if k == i - 1 else (-1 if k == j - 1 else 0) for k in range(n)))
        elif kind == NEG:
            _, i, j = item
            out.append(tuple(1 if k in (i - 1, j - 1) else 0 for k in range(n)))
        elif kind == HALF:
            _, j = item
            out.append(tuple(1 if k == j - 1 else 0 for k in range(n)))
        else:
            _, j = item
            out.append(tuple(2 if k == j - 1 else 0 for k in range(n)))
    return tuple(out)


def all_tree_components_even(graph: SignedGraph) -> bool:
    """Whether every tree component has an even number of vertices.

    Components that carry a halfedge, loop, or unbalanced cycle do not
    count as tree components; graphs that are not pseudoforests are
    rejected.
    """
    stats = classify(graph)
    if stats is None:
        raise ValueError("graph is not a pseudoforest")
    return stats.all_trees_even


def vertex_switch(graph: SignedGraph, m: int) -> SignedGraph:
    """Switch the graph at vertex ``m``: flip the sign of every ordinary
    edge incident to ``m``.  Halfedges and loops are unchanged (in root
    language they change sign, which does not move their spanned line).
    Switching preserves cycle balance, so it maps pseudoforests to
    pseudoforests with the same component census."""
    _check_vertex(m)
    if m > graph.n:
        raise ValueError(f"vertex {m} out of range for n={graph.n}")
    flipped = []
    for item in graph.edges:
        kind = item[0]
        if kind in (POS, NEG) and m in item[1:]:
            flipped.append((NEG if kind == POS else POS, item[1], item[2]))
        else:
            flipped.append(item)
    return SignedGraph(graph.n, frozenset(flipped))


def acyclic(n, edges):
    """True when the given edges on vertices 0..n-1 contain no cycle."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def forest_counts_by_edges(n):
    """Number of k-edge forests on n labeled vertices, for k = 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    counts = [0] * n
    for k in range(n):
        counts[k] = sum(1 for es in itertools.combinations(pairs, k) if acyclic(n, es))
    return counts


def count_parallelepiped_points(vectors):
    """Lattice points in the half-open cell {sum lam_i v_i : 0 <= lam_i < 1}.

    For independent integer vectors this count equals the index of the
    subgroup they generate inside the saturated lattice of their span, which
    is exactly the gcd of the maximal minors.  Solved exactly with Cramer's
    rule on the Gram matrix.
    """
    k = len(vectors)
    d = len(vectors[0])
    gram = [[dot(u, w) for w in vectors] for u in vectors]
    g = determinant(gram)
    if g == 0:
        raise ValueError("vectors must be independent")
    lows = [sum(min(v[j], 0) for v in vectors) for j in range(d)]
    highs = [sum(max(v[j], 0) for v in vectors) for j in range(d)]
    count = 0
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        rhs = [dot(v, point) for v in vectors]
        lambdas = []
        for i in range(k):
            m = [list(row) for row in gram]
            for r in range(k):
                m[r][i] = rhs[r]
            lambdas.append(Fraction(determinant(m), g))
        if any(lam < 0 or lam >= 1 for lam in lambdas):
            continue
        if all(
            sum(lam * v[j] for lam, v in zip(lambdas, vectors)) == point[j] for j in range(d)
        ):
            count += 1
    return count


def classify_key(roots, n):
    """Census key of a root subset, by classifying its signed graph from scratch."""
    stats = classify(graph_from_roots(roots, n))
    return (stats.edge_count, stats.tc, stats.hc, stats.lc, stats.pc, stats.all_trees_even)


def reference_census(family, n):
    """Forest census counts the direct way: every echelon-independent root
    subset, encoded as a signed graph and classified from scratch."""
    counts = {}
    for subset in independent_subsets(positive_roots(family, n).roots, dim=n):
        key = classify_key(subset, n)
        counts[key] = counts.get(key, 0) + 1
    return counts


def reference_almost_integral(zonotope):
    """Ehrhart quasipolynomial of a shifted zonotope the direct way: every
    echelon-independent generator subset, its volume from the maximal
    minors, and the lattice test ``chi`` (a fresh saturated kernel) at one
    dilation per residue class of the shift denominator."""
    c = zonotope.shift_denominator
    coeffs = [[0] * (zonotope.dim + 1) for _ in range(c)]
    for subset in independent_subsets(zonotope.generators, dim=zonotope.dim):
        volume = relative_volume(subset) if subset else 1
        for r in range(c):
            if chi(zonotope.shift, subset, r or c):
                coeffs[r][len(subset)] += volume
    return QuasiPolynomial.from_residue_polys(coeffs)
