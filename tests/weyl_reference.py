"""Weyl permutahedra built from Cartan matrices, and a type-free orbit sum.

The tests check the subset walk on the exceptional groups G2, F4 and E6
with this module.  It reads nothing from the package, so its orbit sum is
independent of the walk.

Everything is in simple-root coordinates.  ``cartan_matrix(kind, n)`` is
the Cartan matrix in Bourbaki's labelling, with the convention
``A[i][j] = <alpha_i^vee, alpha_j> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)``,
so a short root's row carries the -2 (or -3) of a multiple bond.
The positive roots come from the matrix by root strings.  The permutahedron
conv(W rho) is the Minkowski sum of the segments [-beta/2, beta/2] over
the positive roots beta, and its lattice is the root lattice Q, which is
Z^n in these coordinates.  For B_n that is the lattice Z^n of the
classical coordinates, and for A_n the sum-zero points of Z^(n+1), so
``orbit_sum`` matches the census there.  For C_n and D_n the root lattice
has index 2 in Z^n, so it does not (D4 at t = 1 gives 601, not 1,001).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Tuple

Cartan = Tuple[Tuple[int, ...], ...]

# |W| of the irreducible types whose root count and rank do not fix the
# order by a formula, keyed by (rank, root count, simply laced).  E6 and
# B6/C6 both have 36 positive roots at rank 6; only the lacing tells them apart.
_EXCEPTIONAL_ORDERS = {
    (2, 6, False): 12,  # G2
    (4, 24, False): 1152,  # F4
    (6, 36, True): 51840,  # E6
    (7, 63, True): 2903040,  # E7
    (8, 120, True): 696729600,  # E8
}


def cartan_matrix(kind: str, n: int) -> Cartan:
    """The Cartan matrix of type ``kind`` and rank ``n``, Bourbaki labels:
    B_n's and C_n's last root is the short and the long one, E_n's root 2
    hangs off root 4 of the chain 1, 3, 4, ..., n, F4's roots 1 and 2 are
    long, and G2's root 1 is short."""
    chain = [(i, i + 1, -1, -1) for i in range(1, n)]
    bonds = {
        "A": chain,
        "B": chain[:-1] + [(n - 1, n, -1, -2)],
        "C": chain[:-1] + [(n - 1, n, -2, -1)],
        "D": chain[:-1] + [(n - 2, n, -1, -1)],
        "E": [(1, 3, -1, -1), (2, 4, -1, -1)] + chain[2:],
        "F": [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)],
        "G": [(1, 2, -3, -1)],
    }[kind]
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, a_ij, a_ji in bonds:
        a[i - 1][j - 1], a[j - 1][i - 1] = a_ij, a_ji
    return tuple(map(tuple, a))


@lru_cache(maxsize=None)
def positive_roots(cartan: Cartan) -> Tuple[Tuple[int, ...], ...]:
    """The positive roots by height, by root strings: beta + alpha_i is a
    root exactly when q = p - <beta, alpha_i^vee> > 0, where p counts the
    roots beta - alpha_i, beta - 2 alpha_i, ..., all of lower height."""
    n = len(cartan)
    layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = list(layer)
    known = set(roots)
    while layer:
        above = []
        for beta in layer:
            for i in range(n):
                p = 0
                while tuple(b - (p + 1) * (k == i) for k, b in enumerate(beta)) in known:
                    p += 1
                if p - sum(c * a for c, a in zip(beta, cartan[i])) > 0:
                    up = tuple(b + (k == i) for k, b in enumerate(beta))
                    if up not in known:
                        known.add(up)
                        above.append(up)
        roots += above
        layer = above
    return tuple(roots)


def two_rho(cartan: Cartan) -> Tuple[int, ...]:
    """The sum of the positive roots, twice the Weyl vector rho."""
    return tuple(map(sum, zip(*positive_roots(cartan))))


def _component_order(cartan: Cartan) -> int:
    """|W| of a connected Dynkin diagram, named by rank, root count and
    lacing: A_k, D_k and E_k are the simply laced ones."""
    k = len(cartan)
    count = len(positive_roots(cartan))
    laced = all(a >= -1 for row in cartan for a in row)
    if laced and count == k * (k + 1) // 2:
        return factorial(k + 1)  # A_k
    if laced and count == k * (k - 1):
        return 2 ** (k - 1) * factorial(k)  # D_k
    if not laced and count == k * k:
        return 2**k * factorial(k)  # B_k and C_k
    return _EXCEPTIONAL_ORDERS[k, count, laced]


@lru_cache(maxsize=None)
def weyl_order(cartan: Cartan, nodes: Tuple[int, ...]) -> int:
    """|W_J| of the parabolic subgroup on ``nodes`` (sorted): the product
    of its connected components' orders.  The cache key holds the matrix,
    since one set of nodes names different subgroups in different types."""
    order, left = 1, set(nodes)
    while left:
        frontier = [left.pop()]
        component = set(frontier)
        while frontier:
            i = frontier.pop()
            near = {j for j in left if cartan[i][j]}
            left -= near
            component |= near
            frontier += near
        part = sorted(component)
        order *= _component_order(tuple(tuple(cartan[i][j] for j in part) for i in part))
    return order


def _inverse(cartan: Cartan):
    """A^-1 in Fractions, by Gauss-Jordan elimination."""
    n = len(cartan)
    rows = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(cartan)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def orbit_sum(cartan: Cartan, t: int, strict: bool = False) -> int:
    """Points of Q in conv(W t rho) (its interior when ``strict``), t >= 1,
    counted over the dominant weights mu = sum m_k omega_k, m >= 0.

    mu has simple-root coordinates c = A^-1 m.  It lies in Q when c is
    integral, and in conv(W t rho) when t rho - c >= 0 (> 0 for the
    interior).  Each such mu stands for its orbit, |W| / |W_J| points, J the
    nodes with m_k = 0.  Every entry of A^-1 is positive for an irreducible
    type, so raising any m_k raises every c_j, and the walk over m_1, m_2,
    ... stops each m_k at the first c past the bound."""
    n = len(cartan)
    inverse = _inverse(cartan)
    if any(e <= 0 for row in inverse for e in row):
        raise ValueError("orbit_sum needs an irreducible type: A^-1 has a non-positive entry")
    den = lcm(*(e.denominator for row in inverse for e in row))
    # 2 den c = columns @ m and 2 den t rho = den t (2 rho), both integral
    columns = [[int(2 * den * inverse[j][k]) for j in range(n)] for k in range(n)]
    bound = [den * t * r for r in two_rho(cartan)]
    order = weyl_order(cartan, tuple(range(n)))
    total = 0

    def fits(c):
        return all(x < b if strict else x <= b for x, b in zip(c, bound))

    def walk(k, c, zeros):
        nonlocal total
        if k == n:
            if all(x % (2 * den) == 0 for x in c):
                total += order // weyl_order(cartan, zeros)
            return
        walk(k + 1, c, zeros + (k,))
        column = columns[k]
        c = [x + y for x, y in zip(c, column)]
        while fits(c):
            walk(k + 1, c, zeros)
            c = [x + y for x, y in zip(c, column)]

    walk(0, [0] * n, ())
    return total

