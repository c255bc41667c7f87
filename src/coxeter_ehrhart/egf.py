"""Exponential generating functions for the labeled structures behind the
permutahedron Ehrhart formulas, and the whole quasipolynomial read off with
a marker on tree components.

The connected building blocks, with x marking labeled vertices, are counted
in closed form.  By Cayley's formula rho(n, k) = k n^(n-k-1) forests on n
labeled vertices are rooted at k given vertices (rho(n, n) = 1), so

    tree                   t_n = n^(n-2)
    pseudotree             p_n = 1/2 sum_{k>=3} C(n,k) (k-1)! rho(n,k)
    signed tree            st_n = 2^(n-1) n^(n-2)
    signed pseudotree      sp_n = 2^(n-2) sum_{k>=2} C(n,k) (k-1)! rho(n,k)
    signed halfedge-tree   sh_n = (2n)^(n-1); also counts loop-trees

A pseudotree is a cycle on k >= 3 of its vertices, (k-1)!/2 ways, with a
forest rooted on the cycle.  A signed pseudotree has one unbalanced cycle
on k >= 2 vertices (a pair of opposite edges when k = 2).  For k >= 3 half
of the 2^n signings of its n edges unbalance the cycle, and the two
directions of the cycle halve that again; for k = 2 the pair's signs are
fixed and the n - 2 forest edges take any signs.  Either way a directed
cycle carries 2^(n-2) signings.  The paper writes the same series through
the Lambert W function; the test suite checks the counts against those
expressions.  Everything is integer arithmetic.

In the quasipolynomial each tree component weighs 1/t.  The period-1
constituent reads every coefficient from that Lambert W form as one finite
sum, by Bürmann's form of Lagrange inversion.  The odd constituent of a
half-integral request keeps only the trees with an even vertex count, so
its forests cover an even number of vertices; it sums over the number of
trees by a binomial convolution indexed by vertex pairs, and reads the
tree-free part exp(R) from the same Lagrange sum.
"""

from __future__ import annotations

from math import comb, perm
from operator import mul
from typing import List, Tuple

from .ehrhart import EnumerationLimitError, QuasiPolynomial
from .roots import _positive, is_half_integral

SEQUENCE_KINDS = (
    "tree",
    "pseudotree",
    "signed_tree",
    "signed_pseudotree",
    "signed_halfedge_tree",
    "signed_loop_tree",
)

# Ceiling on the coordinate count of egf_ehrhart_quasipolynomial.  Its
# period-1 constituent is about n^2/4 products of numbers of up to about
# n log10(8n) digits: n = 1,000 takes 2.7-3.4 s of CPU (A, C) and 2.8-4.1 s
# wall in every family and output format, for 1.7-1.8 MB of output; C700
# takes about 1 s wall (CPython 3.11, one core of an x86-64 Xeon).
COORDINATE_BOUND = 1000
# Ceiling on the coordinate count of a half-integral request, whose odd
# constituent is the vertex-pair convolution of _odd_constituent, about
# n^3/48 big-integer products: n = 200 takes 0.12 s of CPU for A and 0.16 s
# for B (0.2-0.3 s wall for the whole request), B250 0.5-0.55 s and B300
# 1.0-1.2 s (CPython 3.11, one core of an x86-64 Xeon).
PARITY_BOUND = 200


def _rooted_cycles(n: int, shortest: int) -> int:
    """Directed cycles on k >= shortest of n labeled vertices with a forest
    rooted on the cycle: sum_k C(n,k) (k-1)! rho(n,k), whose terms are
    n!/(n-k)! n^(n-k-1).  Horner's rule in n sums the falling factorials."""
    total, falling = 0, perm(n, shortest - 1)
    for k in range(shortest, n + 1):
        falling *= n - k + 1
        total = total * n + falling
    return total // n


def _connected_count(kind: str, n: int) -> int:
    """Connected structures of the kind on n >= 1 labeled vertices."""
    if kind in ("tree", "signed_tree"):
        trees = n ** (n - 2) if n > 1 else 1
        return trees << (n - 1) if kind == "signed_tree" else trees
    if kind in ("signed_halfedge_tree", "signed_loop_tree"):
        return (2 * n) ** (n - 1)
    if kind == "pseudotree":
        # each undirected cycle of length >= 3 has two directions
        directed = _rooted_cycles(n, 3)
        half, remainder = divmod(directed, 2)
        if remainder:
            raise ArithmeticError(f"directed cycle count {directed} on {n} vertices is odd")
        return half
    return _rooted_cycles(n, 2) << (n - 2) if n > 1 else 0


def component_counts(kind: str, order: int) -> Tuple[int, ...]:
    """m! [x^m] of the kind's component EGF for m = 0..order: the number of
    connected structures on m labeled vertices (none on zero vertices)."""
    if kind not in SEQUENCE_KINDS:
        raise ValueError(f"unknown structure kind {kind!r}")
    _positive(order, "order")
    return (0,) + tuple(_connected_count(kind, n) for n in range(1, order + 1))


# Weight of a halfedge-tree (family B) or loop-tree (family C) component.
_HALFEDGE_WEIGHT = {"B": 1, "C": 2, "D": 0}


def _sigma(family: str, n: int) -> List[int]:
    """sigma_0..sigma_n of _polynomial_by_lagrange on n coordinates."""
    if family == "A":
        step, shift, tail = 2, 2 * n - 2, 4 * n
    else:
        big_n = 2 * n + _HALFEDGE_WEIGHT[family] - 1
        step, shift, tail = 4, 2 * big_n - 2, 8 * big_n
    sigma = [1, shift]
    for m in range(1, n):
        sigma.append((step * m + shift) * sigma[m] - tail * m * sigma[m - 1])
    return sigma


def _polynomial_by_lagrange(family: str, n: int) -> List[int]:
    """Ascending coefficients of the family's period-1 count on n
    coordinates, every tree weighing 1/t, each coefficient one finite sum.

    The paper writes the exponent through the tree function w = x e^w,
    taken at lam x, with lam = 1 for A and 2 for B, C and D: T = (w -
    w^2/2)/lam, and exp(R) is 1 for A and (1 - w)^(-1/2) e^((eps-1)w/2)
    for B, C and D, eps being the halfedge weight.  Bürmann's form of
    Lagrange inversion, [x^n] H(w(x)) = [w^n] H(w) (1 - w) e^(nw), turns the
    coefficient n! [x^n] T^k/k! exp(R) of t^r, r = n - k, into

        C(n, k) / 2^r  sum_{i <= min(k, r)} (-lam)^i C(k, i) r!/(r-i)! sigma_(r-i)

    with sigma_m = (2 lam)^m m! [w^m] S for S = (1 - w) e^(nw) (so sigma_m =
    2^m (n^m - m n^(m-1)) for A) and S = (1 - w)^(1/2) e^(Nw/2), N = 2n +
    eps - 1, for B, C and D.  Comparing coefficients in (1 - w) S' = (beta(1 -
    w) - alpha) S, for S = (1 - w)^alpha e^(beta w), gives sigma_0 = 1 and
    sigma_(m+1) = 2 lam (m + beta - alpha) sigma_m - 4 lam^2 beta m
    sigma_(m-1).  The division by 2^r is exact.
    """
    lam = 1 if family == "A" else 2
    sigma = _sigma(family, n)
    coeffs = []
    for r in range(n + 1):
        k = n - r
        total, weight = 0, 1  # weight = (-lam)^i C(k, i) r!/(r-i)!
        for i in range(min(k, r) + 1):
            total += weight * sigma[r - i]
            weight = weight * (-lam * (k - i) * (r - i)) // (i + 1)
        scaled = comb(n, k) * total
        coeff, remainder = divmod(scaled, 1 << r)
        if remainder:
            raise ArithmeticError(f"scaled forest count {scaled} is not divisible by 2^{r}")
        coeffs.append(coeff)
    return coeffs


def _odd_constituent(family: str, n: int) -> List[int]:
    """Ascending coefficients of the odd constituent of a half-integral
    request on n coordinates: the coefficient of t^(n-k) is n! [x^n]
    E^k/k! exp(R), E = (T(x) + T(-x))/2 keeping the trees with an even
    vertex count.

    A forest of k such trees covers an even number of vertices, at least 2k,
    so the forests are indexed by vertex pairs: ``forests[a]`` is (2a)!
    [x^(2a)] E^k/k!, and t^(n-k) has coefficient 0 for k > n/2.
    Multiplying by E adds one more tree, which counts each forest of k + 1
    trees k + 1 times, so the division by k + 1 is exact.  E mixes w(x)
    with w(-x), and no one-variable form for _polynomial_by_lagrange to sum
    is known.  But exp(R) is 1 for A, and for B its count m! [x^m] exp(R)
    is the tree-free term of that sum on m coordinates, sigma_m / 2^m.
    """
    tree = component_counts("tree" if family == "A" else "signed_tree", n)
    h = n // 2
    # Both convolutions pair forests[b] with a weight fixed before the loop
    # over k: n! [x^n] (forests) exp(R) with outer[b] = C(n, 2b) m! [x^m]
    # exp(R), m = n - 2b, and (2a)! [x^(2a)] E (forests) with joins[a][b] =
    # C(2a, 2b) t_(2a-2b), b < a.
    outer = []
    for b in range(h + 1):
        m = n - 2 * b
        outer.append(comb(n, 2 * b) * (int(m == 0) if family == "A" else _sigma(family, m)[m] >> m))
    joins = [[comb(2 * a, 2 * b) * tree[2 * (a - b)] for b in range(a)] for a in range(h + 1)]
    coeffs = [0] * (n + 1)
    forests = [1] + [0] * h
    for k in range(h + 1):
        # k trees cover at least k pairs, so forests[b] = 0 for b < k
        coeffs[n - k] = sum(map(mul, outer[k:], forests[k:]))
        if k == h:
            break
        grown = [0] * (h + 1)
        for a in range(k + 1, h + 1):
            total = sum(map(mul, joins[a][k:], forests[k:a]))
            grown[a], remainder = divmod(total, k + 1)
            if remainder:
                raise ArithmeticError(f"forest count {total} is not divisible by {k + 1}")
        forests = grown
    return coeffs


def egf_ehrhart_quasipolynomial(family: str, n: int, variant: str = "standard") -> QuasiPolynomial:
    """Ehrhart quasipolynomial of the family's permutahedron on n
    coordinates, every coefficient at once.

    Marking tree components by y turns the count into n! [x^n]
    exp(y T(x) + R(x)), so the coefficient of t^(n-k) is n! [x^n]
    T^k/k! exp(R).  The period-1 constituent (the only one of C, D, the
    integral variant and A at odd n, and the even one of a half-integral
    request) comes from Lagrange inversion, _polynomial_by_lagrange.  The
    odd constituent of a half-integral standard permutahedron keeps only
    the trees with an even vertex count, the parity obstruction of its odd
    dilates, and comes from the vertex-pair convolution of
    _odd_constituent.
    Coordinate counts above COORDINATE_BOUND, and half-integral ones above
    PARITY_BOUND, are refused.
    """
    half_integral = is_half_integral(family, n, variant)
    if n > COORDINATE_BOUND:
        raise EnumerationLimitError(
            f"the {family}{n} generating functions are above the coordinate bound of {COORDINATE_BOUND}"
        )
    if half_integral and n > PARITY_BOUND:
        raise EnumerationLimitError(
            f"the odd constituent of {family}{n} is above the parity bound of {PARITY_BOUND}"
        )
    polys = [_polynomial_by_lagrange(family, n)]
    if half_integral:
        polys.append(_odd_constituent(family, n))
    return QuasiPolynomial.from_residue_polys(polys)
