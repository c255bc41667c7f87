"""Shared brute-force helpers used as independent oracles in the tests.

Besides the small enumerators, this module holds the direct reference
paths that the package's walks are checked against: the integer echelon
behind the rank and independence references, the saturated integer
kernel (``integer_kernel_basis``) and ``dot``, the subset stream and
the gcd of maximal minors behind the generic route, the per-subset lattice
test, the rational point membership test behind the oracle's line scan
(``zonotope_contains``, with its own facet search ``_geometry`` over the
ambient zonotope), the root-subset <-> signed-graph dictionary
behind the census, the labeled census (``census_counts``: one pass over
the roots, counting subsets per labeled component state), the reading of
census keys into Ehrhart coefficients (``census_quasipolynomial``) that
the package's weighted census over unlabeled component multisets is
checked against, and the classifier-based structure enumeration
(``reference_structures``) behind the oracle's depth-first growth.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from coxeter_ehrhart.ehrhart import QuasiPolynomial, ZonotopeSpec
from coxeter_ehrhart.linalg import (
    IntVector,
    common_dim,
    echelon,
    int_vector,
    rank,
    rat_vector,
)
from coxeter_ehrhart.oracle import GEOMETRY_CACHE_SIZE
from coxeter_ehrhart.roots import _positive, is_integral, positive_roots
from signed_graphs_reference import (
    HALF,
    LOOP,
    NEG,
    POS,
    SignedGraph,
    _check_vertex,
    classify,
    halfedge,
    negative_edge,
    negative_loop,
    positive_edge,
)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def integer_kernel_basis(vectors: Sequence[Sequence[int]], dim: Optional[int] = None) -> List[IntVector]:
    """Lattice basis of all integer vectors orthogonal to every input.

    The returned basis generates the full intersection lattice
    ``Z^d ∩ span(vectors)^perp`` (it is saturated): the basis vectors are
    columns of a unimodular transform that column-eliminates the input
    matrix, so any integer vector orthogonal to the inputs is an integer
    combination of them.  ``dim`` is required when ``vectors`` is empty.
    """
    vecs = [int_vector(v) for v in vectors]
    d = common_dim(vecs, dim)
    k = len(vecs)
    # column j of the input matrix, then column j of the transform
    rows = [[v[j] for v in vecs] + [int(i == j) for i in range(d)] for j in range(d)]
    basis = []
    for row in rows[echelon(rows, k) :]:
        col = row[k:]
        lead = next(e for e in col if e)
        if lead < 0:
            col = [-e for e in col]
        basis.append(tuple(col))
    return basis


def _content(entries: Sequence[int]) -> int:
    g = 0
    for e in entries:
        g = gcd(g, e)
        if g == 1:
            return 1
    return g


class IntegerEchelon:
    """Mutually reduced integer echelon rows with distinct pivot columns.

    Every stored row is primitive, its first nonzero entry (the pivot) is
    positive, and it vanishes on the pivot columns of all other rows.  That
    makes :meth:`residual` a single pass, and :meth:`try_add` returns a new
    instance so enumerations can backtrack by simply keeping the old one.
    """

    __slots__ = ("dim", "rows", "pivots")

    def __init__(self, dim: int, rows: Tuple[IntVector, ...] = (), pivots: Tuple[int, ...] = ()):
        self.dim = dim
        self.rows = rows
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, vector: Sequence[int]) -> List[int]:
        """Eliminate every pivot coordinate; the zero list means dependent.

        The result is an integer vector proportional to the true residual
        (scaled by positive pivot products, then divided by its content).
        """
        w = list(vector)
        for row, p in zip(self.rows, self.pivots):
            if w[p]:
                a, b = row[p], w[p]
                w = [a * wi - b * ri for wi, ri in zip(w, row)]
                g = _content(w)
                if g > 1:
                    w = [wi // g for wi in w]
        return w

    def try_add(self, vector: Sequence[int]) -> Optional["IntegerEchelon"]:
        """Echelon extended by ``vector``, or None if it is dependent."""
        w = self.residual(vector)
        pivot = next((i for i, e in enumerate(w) if e), None)
        if pivot is None:
            return None
        if w[pivot] < 0:
            w = [-e for e in w]
        new_rows = []
        for row in self.rows:
            if row[pivot]:
                a, b = w[pivot], row[pivot]
                row = [a * ri - b * wi for ri, wi in zip(row, w)]
                g = _content(row)
                if g > 1:
                    row = [e // g for e in row]
                row = tuple(row)
            new_rows.append(row)
        new_rows.append(tuple(w))
        return IntegerEchelon(self.dim, tuple(new_rows), self.pivots + (pivot,))


def echelon_rank(vectors: Sequence[Sequence[int]], dim: int) -> int:
    """Dimension of the rational span by :class:`IntegerEchelon`, not by the kernel."""
    reduced = IntegerEchelon(dim)
    for v in vectors:
        reduced = reduced.try_add(v) or reduced
    return reduced.rank


def hermite_form(rows: Sequence[Sequence[int]], width: int) -> List[Tuple[int, ...]]:
    """Row Hermite normal form of the lattice the rows span: its nonzero
    rows, pivots positive and the entries above each pivot reduced into
    [0, pivot).  Two row sets span one lattice exactly when their forms
    are equal.  Each column's rows are combined two at a time by the
    extended Euclidean algorithm, with no pivot search by size, so this is
    not ``linalg.echelon``."""
    rows = [list(row) for row in rows]
    form: List[List[int]] = []
    for col in range(width):
        pivot = None
        for i, row in enumerate(rows):
            if not row[col]:
                continue
            if pivot is None:
                pivot = i
                continue
            a, b = rows[pivot][col], row[col]
            g, x, y = _extended_gcd(a, b)
            # [[x, y], [b/g, -a/g]] has determinant -1
            rows[pivot], rows[i] = (
                [x * p + y * q for p, q in zip(rows[pivot], row)],
                [b // g * p - a // g * q for p, q in zip(rows[pivot], row)],
            )
        if pivot is not None:
            top = rows.pop(pivot)
            if top[col] < 0:
                top = [-e for e in top]
            for above in form:
                k = above[col] // top[col]
                above[:] = [p - k * q for p, q in zip(above, top)]
            form.append(top)
    return [tuple(row) for row in form]


def _extended_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """``(g, x, y)`` with ``g = gcd(a, b) = x*a + y*b``."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - k * x1, y0 - k * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


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

    def walk(start: int, chosen: List[IntVector], reduced: IntegerEchelon):
        yield tuple(chosen)
        for i in range(start, len(gens)):
            extended = reduced.try_add(gens[i])
            if extended is not None:
                chosen.append(gens[i])
                yield from walk(i + 1, chosen, extended)
                chosen.pop()

    yield from walk(0, [], IntegerEchelon(d))


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


def census_quasipolynomial(counts, family, n, variant):
    """Ehrhart quasipolynomial of a permutahedron read off census keys.

    The integral variant, and the standard variant of the integral cases,
    count every forest ``2^(pc + lc)`` times at ``t^(n - tc)``.  The
    standard variant of family B and of family A on even n has period 2:
    even dilations count every forest ``2^pc`` times, odd dilations only
    the forests all of whose tree components have an even vertex count."""
    if variant == "integral" or is_integral(family, n):
        coeffs = [0] * (n + 1)
        for (_, tc, _, lc, pc, _), count in counts.items():
            coeffs[n - tc] += count * 2 ** (pc + lc)
        return QuasiPolynomial.from_residue_polys([coeffs])
    even = [0] * (n + 1)
    odd = [0] * (n + 1)
    for (_, tc, _, _, pc, trees_even), count in counts.items():
        weight = count * 2**pc
        even[n - tc] += weight
        if trees_even:
            odd[n - tc] += weight
    return QuasiPolynomial.from_residue_polys([even, odd])


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


def census_counts(roots: Sequence[Sequence[int]], n: int) -> Dict[Tuple[int, int, int, int, int, bool], int]:
    """Census keys of the independent subsets of classical roots on n
    coordinates, counted per component state (transfer-matrix method).

    One pass over the roots keeps, for the roots seen so far, the number of
    independent subsets that reach each labeled component state above.
    Each root leaves every state as it is (the root is skipped) and adds
    the state's count to ``extend_state`` of it where the root is
    independent.  The key is read once per final state, so the work follows
    the number of states, not the number of subsets."""
    frontier: Dict[Tuple[int, ...], int] = {empty_state(n): 1}
    for item in map(root_item, roots):
        added: Dict[Tuple[int, ...], int] = {}
        for state, count in frontier.items():
            extended = extend_state(state, item)
            if extended is not None:
                added[extended] = added.get(extended, 0) + count
        for state, count in added.items():
            frontier[state] = frontier.get(state, 0) + count
    counts: Dict[Tuple[int, int, int, int, int, bool], int] = {}
    for state, count in frontier.items():
        key = state_key(state)
        counts[key] = counts.get(key, 0) + count
    return counts


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a point membership test.

    A negative verdict always carries a witness: the violated affine-hull
    functional or facet inequality, together with the two sides of the
    failed comparison.
    """

    verdict: bool
    witness: Optional[Tuple] = None

    def __bool__(self) -> bool:
        return self.verdict


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _geometry(zonotope: ZonotopeSpec):
    """Shift-independent facial data of the generator configuration.

    Returns ``(kernel, facets)``: kernel is a saturated basis of the integer
    vectors orthogonal to all generators, and facets lists the primitive
    normals h of hyperplanes spanned by (rank-1)-subsets of the generators,
    within their span and in both orientations, each with its positive
    generator sum ``sum_g max(<h, g>, 0)``.  At rank 1 the only subset is
    the empty one and its normal line is the span itself; at rank 0 there
    are no generators and no facets.
    """
    gens = zonotope.generators
    d = zonotope.dim
    kernel = tuple(integer_kernel_basis(gens, dim=d))
    r = d - len(kernel)
    normals = {}
    for picked in combinations(range(len(gens)), r - 1) if r else ():
        # a dependent subset leaves a kernel of two or more vectors
        line = integer_kernel_basis([gens[i] for i in picked] + list(kernel), dim=d)
        if len(line) == 1:
            normals[line[0]] = None
    facets = []
    for h in normals:
        for sign in (1, -1):
            vec = tuple(sign * e for e in h)
            facets.append((vec, sum(max(dot(vec, g), 0) for g in gens)))
    return kernel, tuple(facets)


def zonotope_contains(zonotope: ZonotopeSpec, t: int, point) -> MembershipCertificate:
    """Whether an integer point lies in the t-th dilate of the zonotope.

    The test is geometric and exact over the rationals: the point must lie
    on the affine hull (checked against the integer kernel of the
    generators) and satisfy every facet inequality ``<h, p - t*shift> <= t *
    sum_g max(<h, g>, 0)`` for the facet normals of ``_geometry``, a
    facet search over the ambient zonotope of its own.  This is the
    reference that the integer scan of ``oracle.count_points`` is tested
    against.
    """
    _positive(t, "dilation factor")
    p = int_vector(point)
    if len(p) != zonotope.dim:
        raise ValueError(f"point has dimension {len(p)}, expected {zonotope.dim}")
    kernel, facets = _geometry(zonotope)
    target = tuple(Fraction(a) - t * b for a, b in zip(p, zonotope.shift))
    for f in kernel:
        value = dot(f, target)
        if value != 0:
            return MembershipCertificate(False, ("affine-hull", f, value))
    for h, positive_sum in facets:
        lhs = dot(h, target)
        rhs = t * positive_sum
        if lhs > rhs:
            return MembershipCertificate(False, ("facet", h, lhs, rhs))
    return MembershipCertificate(True)


def reference_structures(kind: str, n: int) -> int:
    """Connected structures on n labeled vertices, counted the direct way.

    Unsigned kinds ("tree": acyclic connected; "pseudotree": connected with
    exactly one cycle, necessarily of length >= 3 in a simple graph) range
    over plain graphs.  Signed kinds range over edge sets with both signs
    available (plus halfedges or negative loops where the kind calls for
    them) and go through the signed-graph classifier; a signed pseudotree
    requires its unique cycle to be unbalanced.  Only edge sets of the one
    feasible size are enumerated: n-1 items for trees, n items for the
    one-extra-feature kinds.
    """
    pairs = list(combinations(range(1, n + 1), 2))
    if not kind.startswith("signed_"):
        size = n - 1 if kind == "tree" else n
        return sum(1 for chosen in combinations(pairs, size) if _connected(n, chosen))
    items = [positive_edge(i, j) for i, j in pairs] + [negative_edge(i, j) for i, j in pairs]
    if kind == "signed_halfedge_tree":
        items += [halfedge(v) for v in range(1, n + 1)]
    elif kind == "signed_loop_tree":
        items += [negative_loop(v) for v in range(1, n + 1)]
    size = n - 1 if kind == "signed_tree" else n
    wanted = {
        "signed_tree": lambda s: s.tc == 1 and s.hc == s.lc == s.pc == 0,
        "signed_halfedge_tree": lambda s: s.hc == 1 and s.tc == s.lc == s.pc == 0,
        "signed_loop_tree": lambda s: s.lc == 1 and s.tc == s.hc == s.pc == 0,
        "signed_pseudotree": lambda s: s.pc == 1 and s.tc == s.hc == s.lc == 0,
    }[kind]
    count = 0
    for chosen in combinations(items, size):
        stats = classify(SignedGraph(n, frozenset(chosen)))
        if stats is not None and wanted(stats):
            count += 1
    return count


def _connected(n: int, edges) -> bool:
    """Whether the edges join all n vertices.

    With n - 1 edges a connected simple graph is a tree, and with n edges
    it has exactly one cycle, so connectivity alone decides either kind.
    """
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1
