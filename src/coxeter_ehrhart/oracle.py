"""Brute-force ground truth, kept independent of the formula routes.

Lattice points of a dilated zonotope are counted by scanning the free
coordinates level by level, in integers over the shift denominator: the
affine hull's integrality is echeloned modulo that denominator into one
congruence per level, so each level runs over one arithmetic progression
between its facet inequalities.  The facet normals come from a
depth-first walk over the generators that carries the exterior product of
the subset so far and reads each hyperplane's normal as the Hodge dual of
a (d-1)-fold product, so the facet search shares no row reduction with the
formula routes.  Lattice points of a dilated
permutahedron are counted by Weyl orbits, summing the orbit sizes of the
dominant points that Rado's majorization test admits; and small labeled
structures are counted by growing their item sets depth first, one item
at a time, with each vertex's component and switching sign.  These are
the oracles the closed-form routes are tested against; none of them
consult the Ehrhart formulas.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm, prod
from operator import itemgetter, mul
from typing import Tuple

from .egf import SEQUENCE_KINDS
from .ehrhart import EnumerationLimitError, ZonotopeSpec, _readable
from .linalg import dot, echelon, integer_kernel_basis
from .roots import _positive, is_half_integral

# Ceilings on the two phases of a count, each checked before its phase.
# FACET_BOUND is on the generator subsets that one facet search tries,
# C(m, i) at scan level i for the m nonzero projections onto its i+1 free
# coordinates; its walk takes about 5-11 us per subset.  SCAN_BOUND is on
# sum_i rows_i * prod_{j<i} width_j, where rows_i counts the facet rows of
# level i and width_j the range of free coordinate j: level i has at most
# prod_{j<i} width_j nodes, so this bounds the rows the scan reads, at about
# 0.11-0.16 us each (CPython 3.11, one core of an x86-64 Xeon).  Both admit
# the zonotope of every permutahedron with n <= 8, read from a file, at
# every dilation whose bounding box holds at most 10^7 points; C6 at t = 1
# comes nearest, at 376,992 subsets and 185,197,040 rows.
FACET_BOUND = 400_000
SCAN_BOUND = 200_000_000
# Ceiling on the orbit sum's work, counted as it runs: one unit per value
# layer and one per placement (a state and a multiplicity tried), at about
# 0.4-1 us each, so a refusal takes about a second.  At t = 1 it admits A
# up to n = 47, B and C up to 31 and D up to 32; at t = 2 A35, B23, C23 and
# D24; A3 up to t = 653.
ORBIT_BOUND = 1_500_000
# Generator sets whose facets stay cached; one count needs one entry per
# free coordinate (the projections of the dilate onto its prefixes).
GEOMETRY_CACHE_SIZE = 128


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _facets(generators: Tuple[Tuple[int, ...], ...], d: int):
    """Facets of the zonotope of ``generators``, which span R^d.

    The facet normals are the primitive normals h of the hyperplanes
    spanned by (d-1)-subsets of the generators, in both orientations, each
    with its positive generator sum ``sum_g max(<h, g>, 0)``: the facet is
    ``<h, x - shift> <= sum_g max(<h, g>, 0)`` at any shift.

    The subsets are grown depth first, one generator per level in index
    order, carrying the exterior product of the generators so far: its
    Plücker coordinates, one per k-subset of the d axes.  Wedging with g is
    linear in g, so each node writes that map once as a matrix (from
    :func:`_wedges`) and pays one row-by-g product per coordinate for each
    child.  A product
    of 0 is a dependent prefix, which spans no hyperplane with any
    extension, and its branch stops.  A (d-1)-subset's normal is the Hodge
    dual of its product, which the last level's matrix reads directly, made
    primitive by its gcd with the first nonzero entry positive.  Each
    normal's pairings with the generators are taken once, and give both
    orientations' sums.  At d = 1 the only subset is the empty one, whose
    product is the scalar 1 and whose normal line is the axis.
    """
    wedges = _wedges(d)
    last = len(wedges) - 1
    m = len(generators)
    normals = {}

    def grow(start, product, k):
        # product: the k-vector of the generators so far, all before start
        signed = product + [-e for e in product] + [0]
        rows = [pick(signed) for pick in wedges[k]]
        if k < last:
            for i in range(start, m - last + k):
                g = generators[i]
                child = [sum(map(mul, row, g)) for row in rows]
                if any(child):
                    grow(i + 1, child, k + 1)
            return
        for g in generators[start:]:
            h = [sum(map(mul, row, g)) for row in rows]
            q = gcd(*h)
            if q:
                if next(e for e in h if e) < 0:
                    q = -q
                normals[tuple(e // q for e in h)] = None

    if d == 1:
        normals[(1,)] = None
    else:
        grow(0, [1], 0)
    facets = []
    for h in normals:
        pairings = [sum(map(mul, h, g)) for g in generators]
        up = sum(p for p in pairings if p > 0)
        facets += [(h, up), (tuple(-e for e in h), up - sum(pairings))]
    return tuple(facets)


@lru_cache(maxsize=None)
def _wedges(d: int):
    """For k = 0..d-2, the map from a k-vector P of R^d to the matrix of
    ``g -> P ^ g``, as one ``itemgetter`` per row over ``P + (-P) + [0]``.

    Coordinates are indexed by the subsets of the axes in ``combinations``
    order.  Coordinate S = {s_0 < ... < s_k} of ``P ^ g`` is
    ``sum_t (-1)^(k-t) P[S - s_t] g[s_t]``.  The last map (k = d-2) gives
    the Hodge dual instead, ``h_j = (-1)^j (P ^ g)[axes - j]``, so that
    ``<h, x>`` is the product's wedge with x up to sign.
    """
    maps = []
    for k in range(d - 1):
        index = {s: i for i, s in enumerate(combinations(range(d), k))}
        n = len(index)
        rows = []
        for subset in combinations(range(d), k + 1):
            row = [2 * n] * d
            for t, axis in enumerate(subset):
                row[axis] = index[subset[:t] + subset[t + 1 :]] + n * ((k - t) % 2)
            rows.append(row)
        if k == d - 2:
            # row j of the dual is (-1)^j times the row of the subset without
            # j: odd rows swap the P and -P halves
            rows = [
                [(e + n) % (2 * n) if j % 2 and e < 2 * n else e for e in row]
                for j, row in enumerate(reversed(rows))
            ]
        maps.append([itemgetter(*row) for row in rows])
    return maps


def count_points(zonotope: ZonotopeSpec, t: int) -> int:
    """Number of lattice points in the t-th dilate, counted line by line.

    Every point of the dilate satisfies, coordinate by coordinate,
    ``t*shift_i + t*sum_g min(g_i, 0) <= x_i <= t*shift_i + t*sum_g
    max(g_i, 0)``; that bounding box gives each coordinate its range, which
    orders the coordinates and sizes the scan.

    One Gauss-Jordan pass over a saturated basis of the integer kernel of
    the generators (:func:`_solve_dependent`) picks ``d - rank`` dependent
    coordinates, taking the widest ranges first, and solves them as an
    integer affine function of the ``rank`` free ones over one common
    denominator, so only free coordinates are scanned.  The projection of
    the dilate onto the free coordinates is one-to-one, and scan level i
    runs over the lattice points of its projection onto the first i+1 of
    them, bounded by that projection's :func:`_facets`.  Integrality of the
    dependent coordinates is a system of congruences modulo the common
    denominator, echeloned once together with the denominator times each
    unit vector, the free columns taken from the last back: each level
    carries one congruence, on its own coordinate, whose coefficient there
    divides the denominator, and a congruence with no coefficient left
    decides the count by its constant.  So each level runs over one
    arithmetic progression between its facet bounds.  The outer levels step
    through it; the last free coordinate, the widest, is the line, which
    adds its number of terms.
    All arithmetic is exact ``int``: with c the shift denominator, t*shift
    is an integer vector over c, so the bounding box and the facet
    right-hand sides are floor divisions by c.  The tests check the count
    against a per-point rational membership test with its own facet search.

    Raises :class:`EnumerationLimitError` before any facet search when one
    level's search would try more than FACET_BOUND generator subsets, and
    before the scan when it could read more than SCAN_BOUND facet rows.
    """
    _positive(t, "dilation factor")
    # the dilated shift is target / c: every bound below is an integer over c
    c = zonotope.shift_denominator
    target = [t * s.numerator * (c // s.denominator) for s in zonotope.shift]
    widths = []
    for i, base in enumerate(target):
        low = -(-base // c) + t * sum(min(g[i], 0) for g in zonotope.generators)
        high = base // c + t * sum(max(g[i], 0) for g in zonotope.generators)
        if low > high:
            return 0
        widths.append(high - low + 1)
    kernel = integer_kernel_basis(zonotope.generators, dim=zonotope.dim)
    if len(kernel) == zonotope.dim:
        # no generators: the box is the single point t*shift, and it is integral
        return 1
    outer, line, den, solved = _solve_dependent(kernel, widths, target, c)
    free = outer + [line]
    last = len(free) - 1

    shadows = []
    for i in range(len(free)):
        shadow = (tuple(g[j] for j in free[: i + 1]) for g in zonotope.generators)
        shadows.append(tuple(g for g in shadow if any(g)))
        subsets = comb(len(shadows[i]), i)
        if subsets > FACET_BOUND:
            raise EnumerationLimitError(
                f"the facet search of scan level {i} would try "
                f"{_readable(subsets, 'a {}-digit number of')} generator subsets, "
                f"above the facet bound of {FACET_BOUND}"
            )
    # x_J is integral when "solved . (x_free, 1) == 0 (mod den)".  Unimodular
    # row operations and multiples of den keep that system: echeloned with
    # the rows den * e_j and the columns taken from the line back, row
    # last - i has its last nonzero coefficient a_i on level i, a divisor of
    # den, and a row past those has no coefficient left and holds at every
    # point or at none.  Any multiple of row last - i that is free of level i
    # lies in the span of the outer levels' rows and of den * e_i, so once
    # the outer levels keep their congruences, a_i divides what is left of
    # level i's, and level i steps by den / |a_i|.
    units = [[den * (i == j) for j in free] + [0] for i in free]
    congruences = [row[-2::-1] + row[-1:] for row in solved] + units
    echelon(congruences, len(free))

    # Scan level i runs x_free[i] over one arithmetic progression.  Its rows
    # are inequalities "coeffs . x_free <= rhs" whose last nonzero coefficient
    # is on free[i]: the facets of the projection of the dilate onto
    # free[:i+1].  The projections are exact and bounded, so a row without
    # weight on free[i] never cuts and is dropped, and the others bound the
    # level from both sides.  Its congruence "coeffs . x_free == rhs (mod
    # den)" leaves x_free[i] one class modulo den / |a_i|.  One list of
    # right-hand sides holds every level's rows, upper bounds first and the
    # congruence last: each level reads its own and subtracts its coordinate
    # from the rest.
    rows, levels, reads = [], [], 0
    for i, shadow in enumerate(shadows):
        base = [target[j] for j in free[: i + 1]]
        padding = (0,) * (last - i)
        facets = [(h + padding, sum(map(mul, h, base)) // c + t * up) for h, up in _facets(shadow, i + 1)]
        ups = [row for row in facets if row[0][i] > 0]
        downs = [row for row in facets if row[0][i] < 0]
        used = len(ups) + len(downs)
        congruence = congruences[last - i]
        coeffs, rhs = congruence[-2::-1], -congruence[-1]
        levels.append([[h[i] for h, _ in ups], [-h[i] for h, _ in downs], used, coeffs[i], den // abs(coeffs[i])])
        rows += ups + downs + [(coeffs, rhs)]
        reads += used * prod(widths[j] for j in free[:i])
    if reads > SCAN_BOUND:
        raise EnumerationLimitError(
            f"the box scan could read {_readable(reads, 'a {}-digit number of')} facet rows, "
            f"above the scan bound of {SCAN_BOUND}"
        )
    if any(row[-1] % den for row in congruences[len(free) :]):
        return 0
    start = [rhs for _, rhs in rows]
    for i, level in enumerate(levels):
        rows = rows[level[2] + 1 :]
        level.append([coeffs[i] for coeffs, _ in rows])

    def scan(level, values):
        ups, downs, used, a, n, step = levels[level]
        hi = min([v // u for v, u in zip(values, ups)])
        lo = max([-(v // u) for v, u in zip(values[len(ups) :], downs)])
        progression = range(lo + (values[used] // a - lo) % n, hi + 1, n)
        if level == last:
            return len(progression)
        values = values[used + 1 :]
        return sum(scan(level + 1, [v - s * y for v, s in zip(values, step)]) for y in progression)

    return scan(0, start)


def _solve_dependent(kernel, widths, target, c):
    """Choose the dependent coordinates J and solve the kernel equations for x_J.

    One Gauss-Jordan elimination over the integers, each row kept primitive,
    reduces the equations ``<f, x> = <f, target> / c`` with the columns
    taken from the widest range down.  Its pivot columns J index a nonzero
    minor of the kernel, so the equations solve for x_J, and they are the
    greedy basis of the column matroid: the one with the largest product of
    ranges.  The first non-pivot column is the line, the widest free
    coordinate.  The other non-pivot columns, the outer coordinates, then
    have the smallest product of ranges: they are an independent set of the
    dual matroid, the lightest of their size by log-range, and greedy finds
    those too.

    Returns ``(outer, line, den, rows)`` with ``den * x_J[i] = sum_c
    rows[i][c] * x_free[c] + rows[i][-1]`` for ``x_free`` in the order
    ``outer + [line]``, cleared to the least common denominator ``den``; J
    holds the other coordinates, widest first and ties by index.
    """
    order = sorted(range(len(widths)), key=lambda i: -widths[i])
    rows = [[f[i] for i in order] + [dot(f, target)] for f in kernel]
    free, pivots = [], []
    for col in range(len(order)):
        k = len(pivots)
        p = next((j for j in range(k, len(rows)) if rows[j][col]), None)
        if p is None:
            free.append(col)
            continue
        pivot = rows[p]
        rows[p], rows[k] = rows[k], pivot
        pivots.append(col)
        a = pivot[col]
        for j, row in enumerate(rows):
            if j != k and row[col]:
                b = row[col]
                row = [a * x - b * y for x, y in zip(row, pivot)]
                q = gcd(*row)
                rows[j] = [x // q for x in row]
    free = free[1:] + free[:1]  # the outer columns, then the line
    # row k reads a*x_J[k] + sum_c b_c*x_c = r/c: x_J[k] = (r - c*sum_c b_c*x_c) / (c*a)
    fractions = []
    for col, row in zip(pivots, rows):
        over = c * row[col]
        tops = [-c * row[j] for j in free] + [row[-1]]
        q = gcd(over, *tops) * (1 if over > 0 else -1)
        fractions.append((over // q, [e // q for e in tops]))
    den = lcm(1, *(over for over, _ in fractions))
    solved = [[e * (den // over) for e in tops] for over, tops in fractions]
    return [order[j] for j in free[:-1]], order[free[-1]], den, solved


def _orbit_sum(family: str, n: int, variant: str, t: int) -> int:
    """Number of lattice points in the t-th dilate of the family's
    permutahedron on n coordinates, summed over Weyl orbits.

    Up to a lattice translation the dilate is conv(W λ) with λ = tρ, ρ half
    the sum of the positive roots, and 2ρ is (n-1, n-3, ..., 1-n) for A,
    (2n-1, ..., 1) for B, (2n, ..., 2) for C and (2n-2, ..., 2, 0) for D.
    The standard variant counts the points of Z^n in it, the integral
    variant those of Z^n - λ.  In doubled coordinates y = 2x both are the
    points of one parity: even, or for the integral variant that of 2λ.
    By Rado's theorem y lies in the dilate exactly when y (for A) or |y|
    (for B, C and D), sorted decreasingly, has every prefix sum at most the
    matching prefix sum of 2λ, with equal totals for A; D's λ ends in 0, so
    its orbit is B's.

    The dominant points, those sorted sequences, are built one value at a
    time from the top down, in a dynamic program over (positions filled,
    prefix sum).  A value v placed k times after position i weighs
    C(n - i, k), the positions it takes among those left, times 2^k for the
    signs in B, C and D when v != 0; the weights multiply to the orbit size.
    The prefix sums of 2λ are concave, so a block of k values passes the
    test at every position once it passes at its last, and the first
    multiplicity that fails ends the block.  For A a state that can no
    longer reach 2λ's total, every later value being below v, is dropped.

    Raises :class:`EnumerationLimitError` once the work, one unit per value
    layer and one per placement tried, passes ORBIT_BOUND.
    """
    _positive(t, "dilation factor")
    is_half_integral(family, n, variant)  # rejects an unknown family, n or variant
    top = t * {"A": n - 1, "B": 2 * n - 1, "C": 2 * n, "D": 2 * n - 2}[family]
    limits = [k * top - t * k * (k - 1) for k in range(n + 1)]  # prefix sums of 2λ
    total = limits[n]
    reach = family == "A"  # whether the total must be met
    v = top - top % 2 if variant == "standard" else top
    bottom = -top if reach else 0
    # weights[m][k]: C(m, k), times 2^k in the signed tables
    plain = [[comb(m, k) for k in range(m + 1)] for m in range(n + 1)]
    signed = [[c << k for k, c in enumerate(row)] for row in plain]
    # states[i]: prefix sum -> ways, over the dominant prefixes of i values
    states = [{0: 1}] + [{} for _ in range(n - 1)]
    count = work = 0
    while v >= bottom and any(states):
        work += 1
        weights = signed if v and not reach else plain
        # needs[j]: the least prefix sum from which j values, each below v,
        # can still reach the total (every prefix sum is at least 0 in B, C, D)
        needs = [total - j * (v - 2) for j in range(n + 1)] if reach else [0] * (n + 1)
        stepped = [{} for _ in range(n)]
        for i, row in enumerate(states):
            left = n - i
            weight, caps, need, targets = weights[left], limits[i:], needs[left::-1], stepped[i:]
            for s, ways in row.items():
                for k in range(left + 1):
                    if s > caps[k]:
                        break
                    if s >= need[k]:
                        if k == left:
                            count += ways * weight[k]
                        else:
                            target = targets[k]
                            target[s] = target.get(s, 0) + ways * weight[k]
                    s += v
                work += k + 1
                if work > ORBIT_BOUND:
                    raise EnumerationLimitError(
                        f"the orbit sum of the {family}{n} dilation {_readable(t, 'of {} digits')} "
                        f"passed {work} value layers and placements, above the orbit bound of {ORBIT_BOUND}"
                    )
        states = stepped
        v -= 2
    return count


UNSIGNED_STRUCTURE_MAX = 5
SIGNED_STRUCTURE_MAX = 4

# the signs a kind's one closed cycle may have; the other kinds close none
_CYCLE_SIGNS = {"pseudotree": (1,), "signed_pseudotree": (-1,)}


def brute_force_structures(kind: str, n: int) -> int:
    """Count connected structures on n labeled vertices by enumeration.

    The items are the edges between distinct vertices, with both signs for
    the signed kinds, plus one halfedge or negative loop per vertex for the
    kinds that carry one; those join nothing and close no cycle, so the two
    kinds enumerate alike.  Item sets of the one feasible size, n-1 items
    for trees and n for the one-extra-feature kinds, grow depth first, one
    item per level in the item order, with a component label and a
    switching sign per vertex (an edge's sign is the product of its ends').
    An edge across two components merges them, flipping one side's signs
    as needed; an edge within one closes a cycle of sign its own times its
    ends', which must be allowed: never for the trees, and for a pseudotree
    its one cycle, which in a signed pseudotree must be unbalanced (an odd
    number of negative edges, parallel opposite-sign pairs included).  A
    branch stops once more components are left than its items can join,
    and a full set counts when its edges join all n vertices.
    """
    if kind not in SEQUENCE_KINDS:
        raise ValueError(f"unknown structure kind {kind!r}")
    _positive(n, "vertex count")
    signed = kind.startswith("signed_")
    limit = SIGNED_STRUCTURE_MAX if signed else UNSIGNED_STRUCTURE_MAX
    if n > limit:
        raise EnumerationLimitError(
            f"brute-force enumeration of {kind} is limited to n <= {limit}"
        )
    # an item (u, v, sign) is an edge of sign +1 or -1, or with sign 0 a
    # halfedge or negative loop at u == v
    items = [(u, v, s) for s in ((1, -1) if signed else (1,)) for u, v in combinations(range(n), 2)]
    if kind in ("signed_halfedge_tree", "signed_loop_tree"):
        items += [(v, v, 0) for v in range(n)]
    cycle_signs = _CYCLE_SIGNS.get(kind, ())

    def grow(start, left, label, sign, components):
        # the sets of `left` more items from items[start:] that leave one
        # component; with more components than items left, each must join two
        count = 0
        joins_only = components > left
        for i in range(start, len(items) - left + 1):
            u, v, s = items[i]
            if s and label[u] != label[v]:
                if left == 1:
                    count += components == 2
                else:
                    old, new, flip = label[u], label[v], sign[u] * s * sign[v]
                    merged = [new if l == old else l for l in label]
                    signs = [g * flip if l == old else g for l, g in zip(label, sign)]
                    count += grow(i + 1, left - 1, merged, signs, components - 1)
            elif not joins_only and (not s or s * sign[u] * sign[v] in cycle_signs):
                count += components == 1 if left == 1 else grow(i + 1, left - 1, label, sign, components)
        return count

    size = n - 1 if kind in ("tree", "signed_tree") else n
    # the one-vertex tree is the empty set
    return grow(0, size, list(range(n)), [1] * n, n) if size else 1
