"""Shared brute-force helpers used as independent oracles in the tests."""

import itertools
from fractions import Fraction

from coxeter_ehrhart.ehrhart import QuasiPolynomial, independent_subsets
from coxeter_ehrhart.linalg import chi, determinant, dot, relative_volume
from coxeter_ehrhart.roots import positive_roots
from coxeter_ehrhart.signed_graphs import classify, graph_from_roots


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
