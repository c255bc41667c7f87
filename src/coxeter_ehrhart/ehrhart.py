"""Ehrhart quasipolynomials of integer zonotopes with rational shifts.

Two formula routes live here.  The generic route works for any
almost-integral zonotope: sum, over linearly independent subsets W of the
generators, of ``vol(W) * t^|W|`` gated by whether the shifted span of W
meets the lattice at dilation t.  It is one depth-first walk over the
generators that carries, for the subset so far, ``vol(W)`` and one integer
matrix: a row per vector of a saturated integer basis of ``span(W)^perp``,
its pairings with the untried generators and, last, with c times the shift,
c the shift denominator.  Only the root reduces that column mod c: the gates
read it only through gcds with a divisor of c.  A row reduction at the root
leaves ``rank - |W|`` rows, and each step runs the same reduction on one
column.  Before it steps, a node merges the columns that are parallel in
its frame into one, their primitive direction times their summed content,
as deletion and contraction do for the arithmetic Tutte polynomial.  At
four rows the minors of the merged columns and the last column score the
last four levels in closed form; a root of rank 3 or less (zero rows pad
one of rank below 3) is scored so at three rows, by cross products.  Below
a node whose gate is already the full one, the walk computes no gates.
The census route is specific to the classical permutahedra: it counts the
signed-graph forests of the positive roots straight into the coefficients,
each forest weighted by the power of 2 its loops and unbalanced cycles give
it.  It adds the vertices one at a time and counts the weighted independent
subsets per multiset of component sizes and extras, so it never visits a
subset on its own.  Each route has its own size guard: the walk refuses
generator sets whose subset count could pass SUBSET_BOUND (a permutahedron
before its roots are built), the census refuses once its partial merges pass
MERGE_BOUND.  The walk also refuses shift denominators above PERIOD_BOUND.
"""

from __future__ import annotations

import json
from collections import defaultdict, namedtuple
from fractions import Fraction
from math import comb, gcd, lcm, log10
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import IntVector, RatVector, echelon, int_vector, kernel_step, rat_vector
from .roots import _positive, is_half_integral, positive_roots, root_count_and_rank


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive enumeration would be infeasibly large."""


# Ceiling for the independent-subset walk, checked against
# sum_{k <= rank} C(m, k), which bounds the independent subsets of m
# generators.  It admits the permutahedra up to A8, B6, C6 and D6, which
# take 0.12 / 0.11 / 0.10-0.11 / 0.08-0.09 s with ``--route generic`` (wall
# time with start-up, median of 3 in each of two sets of runs, CPython 3.11
# on a shared 2-core x86-64 Xeon host).
SUBSET_BOUND = 2_500_000
# Ceiling for the forest census, on its partial merges (the entries of each
# ``grown`` dict in ``_vertex_census``), which cost 1.4-2.1 us each in every
# family (CPython 3.11, one core of an x86-64 Xeon).  It admits the
# permutahedra up to A25, B16, C16 and D18, in about 2 s each.
MERGE_BOUND = 1_000_000
# Ceiling for the shift denominator c of the subset walk, which keeps one
# coefficient list per residue class mod c; the period can be c itself, and
# then every request prints c constituents.  At c = 50,000 a ``zonotope``
# request takes 0.23-0.24 s and 57 MB in human, 0.33-0.34 s and 50 MB in
# JSON and 0.62 s and 50 MB in CSV format (wall time with start-up and
# peak RSS, three runs each, CPython 3.11 on a shared 2-core x86-64 Xeon).
PERIOD_BOUND = 50_000
# Numbers in refusal messages print in full up to this many digits; longer
# ones print as their digit count.
SHOWN_DIGITS = 15


class ZonotopeSpec(namedtuple("ZonotopeSpec", "generators shift dim")):
    """An integer zonotope translated by a rational shift.

    The body is ``shift + sum of [0, g] over generators``.  Generators form
    a multiset: a repeated generator lengthens the corresponding segment and
    is counted separately by the subset enumeration.

    Every entry is checked once, the generators' by ``int_vector`` and the
    shift's by ``rat_vector``.  ``dim`` defaults to the length of the first
    generator, or of the shift when there are no generators, and ``shift``
    to the origin.
    """

    __slots__ = ()
    generators: Tuple[IntVector, ...]
    shift: RatVector
    dim: int

    def __new__(cls, generators, shift=None, dim: Optional[int] = None) -> "ZonotopeSpec":
        gens = tuple(int_vector(g, f"generators[{i}]") for i, g in enumerate(generators))
        if shift is not None:
            shift = rat_vector(shift, "shift")
        if dim is None:
            if not gens and shift is None:
                raise ValueError("dimension is required when generators and shift are both absent")
            dim = len(gens[0] if gens else shift)
        if type(dim) is not int or dim < 1:
            raise ValueError(f"ambient dimension must be positive and an int, got {dim!r}")
        if shift is None:
            shift = (Fraction(0),) * dim
        elif len(shift) != dim:
            raise ValueError(f"shift has dimension {len(shift)}, expected {dim}")
        for i, g in enumerate(gens):
            if len(g) != dim:
                raise ValueError(f"generators[{i}]: generator {g} has dimension {len(g)}, expected {dim}")
            if not any(g):
                raise ValueError(f"generators[{i}]: zero generators are not allowed")
        return super().__new__(cls, gens, shift, dim)

    @classmethod
    def _make(cls, iterable) -> "ZonotopeSpec":
        """Build through the constructor, so ``_replace`` checks entries too."""
        return cls(*iterable)

    @staticmethod
    def make(generators: Sequence[Sequence[int]], shift=None, dim: Optional[int] = None) -> "ZonotopeSpec":
        """``ZonotopeSpec(generators, shift, dim)``, under its older name."""
        return ZonotopeSpec(generators, shift, dim)

    @property
    def shift_denominator(self) -> int:
        return lcm(*(f.denominator for f in self.shift)) if self.shift else 1


class QuasiPolynomial(namedtuple("QuasiPolynomial", "period constituents")):
    """A quasipolynomial with minimal integer period.

    ``constituents[r]`` is the coefficient tuple (ascending powers) that
    applies to arguments ``t ≡ r (mod period)``; the representative of the
    residue class 0 is t = period, so every constituent describes positive
    dilations.  All constituents are padded to a common length.
    """

    __slots__ = ()
    period: int
    constituents: Tuple[Tuple[int, ...], ...]

    def __new__(cls, period: int, constituents) -> "QuasiPolynomial":
        if period < 1 or len(constituents) != period:
            raise ValueError("constituent count must equal the period")
        return super().__new__(cls, period, constituents)

    @staticmethod
    def from_residue_polys(polys: Sequence[Sequence[int]]) -> "QuasiPolynomial":
        """Build from one coefficient list per residue class, minimizing the
        period by folding equal constituents."""
        if not polys:
            raise ValueError("no constituents: need one coefficient list per residue class")
        length = max(1, max(_trimmed_len(p) for p in polys))
        padded = [tuple(p) + (0,) * (length - len(p)) if len(p) < length else tuple(p[:length]) for p in polys]
        c = len(padded)
        for p in range(1, c + 1):
            if c % p == 0 and all(padded[r] == padded[r % p] for r in range(c)):
                return QuasiPolynomial(p, tuple(padded[:p]))
        raise AssertionError("unreachable: the full period always folds")

    @property
    def degree(self) -> int:
        return len(self.constituents[0]) - 1

    def constituent_for(self, t: int) -> Tuple[int, ...]:
        _positive(t, "dilation factor")
        return self.constituents[t % self.period]

    def evaluate(self, t: int) -> int:
        """L(t) from the constituent for t, by Horner's rule."""
        value = 0
        for c in reversed(self.constituent_for(t)):
            value = value * t + c
        return value


def _trimmed_len(coeffs: Sequence[int]) -> int:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return n


def _readable(number: int, long_form: str) -> str:
    """``number`` in full while it is short enough to read; past that,
    ``long_form`` with the number's digit count filled in."""
    if number < 10**SHOWN_DIGITS:
        return str(number)
    # the bit length fixes the digit count up to one
    digits = int(number.bit_length() * log10(2)) + 1
    if 10 ** (digits - 1) > number:
        digits -= 1
    return long_form.format(digits)


def _directions(columns) -> Dict[IntVector, int]:
    """The nonzero columns of a list of equal-length tuples by primitive
    direction up to sign, first nonzero entry positive, each with the summed
    content (gcd) of its columns."""
    lengths: Dict[IntVector, int] = {}
    zero = (0,) * len(columns[0])
    for col in columns:
        g = gcd(*col)
        if g:
            if col < zero:  # the first nonzero entry is negative
                g = -g
            p = col if g == 1 else tuple([e // g for e in col])
            lengths[p] = lengths.get(p, 0) + abs(g)
    return lengths


def _check_subsets(m: int, r: int) -> None:
    """Refuse m generators of rank r whose independent subsets, bounded by
    sum_{k <= r} C(m, k), could pass SUBSET_BOUND."""
    subsets = sum(comb(m, k) for k in range(r + 1))
    if subsets > SUBSET_BOUND:
        raise EnumerationLimitError(
            f"{m} generators of rank {r} allow up to {_readable(subsets, 'a {}-digit number of')} "
            f"independent subsets, above the subset bound of {SUBSET_BOUND}"
        )


def ehrhart_almost_integral(zonotope: ZonotopeSpec) -> QuasiPolynomial:
    """Ehrhart quasipolynomial of a shifted integer zonotope.

    Each independent generator subset W contributes ``vol(W) * t^|W|`` to
    the constituents of exactly those residue classes where the dilated
    shift keeps the affine span of W on the lattice.  One depth-first walk
    over the generators, in index order, carries ``vol(W)`` (the gcd of the
    maximal minors of W) and one integer matrix for the subset W so far: a
    row per vector f_i of a saturated integer basis of ``span(W)^perp``,
    holding ``<f_i, g_j>`` for the generators not yet tried and, last,
    ``q_i = c*<f_i, shift>``, with c the shift denominator.

    At the empty subset the f_i are the unit vectors.  ``linalg.echelon``
    reduces the rows to ``rank`` rows independent on the generators and
    ``d - rank`` that vanish on all of them; the latter stay in every
    subset's basis, so their q_i fold once into ``g0 = gcd(c, q_i)``.  The
    flat ``t*shift + span(W)`` meets Z^d exactly when ``D | t``, for
    ``D = c // gcd(g0, q)`` (``c // g0`` for the bases), so volumes are
    summed per ``|W|`` and gate ``gcd(g0, q)`` and spread over the residue
    classes once at the end.  ``linalg.kernel_step`` runs the same
    ``echelon`` on the column of one generator to extend the matrix by it,
    or reports it dependent.  The child keeps that column, all 0, as its
    first, so the root gets one leading zero column and the walk steps from
    the second.  Only the root reduces q mod c: every gate is ``gcd(g0, .)``
    of an integer linear form in q, and g0 divides c, so multiples of c
    change no gate.  For the same reason, once g0 divides every q_i of a
    node (from the root when c = 1, and wherever span(W) holds the shift up
    to a lattice vector), every subset below it is at the full gate
    ``c // g0``, and the walk stops computing gates there.

    Before it steps, a node replaces the columns that are parallel up to
    sign by one, their primitive direction p times n, the sum of their
    contents (gcds).  That is exact: such generators are dependent modulo
    ``span(W)``, so a subset below holds at most one of them; a column's
    content scales every volume that uses it, since ``vol(W + S)`` is
    ``vol(W)`` times the gcd of the maximal minors of the columns of S; and
    the gates read only spans.

    A node of four rows (``|W| = rank - 4``, so roots of rank 4 or more)
    steps no further: minors of its merged directions p, of weight n, and of
    its last column q score every subset below it.  In Z^4 the saturated
    span of k independent vectors has the primitive k-vector ``w / h``, for
    w their wedge product and h = gcd(w), and q pairs with a saturated basis
    of its kernel to the gcd of the (k+1)x(k+1) minors ``(w ^ q) / h``.  So
    a single p scores ``vol(W) * n`` at the gate of the 2x2 minors of
    ``[p q]``.  A pair scores ``vol(W) * n_i * n_j * h``, for the six
    Pluecker coordinates ``pi = p_i ^ p_j`` and h = gcd(pi), at the gate of
    the four 3x3 minors ``(pi ^ q) / h``.  A triple, with ``nu = pi ^ p_k``
    (four 3x3 minors) and h_3 = gcd(nu), scores
    ``vol(W) * n_i * n_j * n_k * h_3`` at the gate of the 4x4 minor
    ``(nu ^ q) / h_3``, and a basis ``vol(W) * n_i * n_j * n_k * n_l *
    |nu ^ p_l|`` at the full gate, 0 when the four are dependent.  For each
    p the later directions b are first grouped by their plane with p, the
    primitive bivector ``(p ^ b) / h`` up to sign, each plane weighted by
    its summed ``n_b * h``: h is b's content modulo p, and the directions of
    one plane are parallel modulo p, so this is the merge above made in the
    frame of ``W + p`` without stepping into it.  Two planes are never
    parallel, so the triple of p and one member b, b' of each is
    independent, with ``nu = (plane ^ b') / h'``, and a basis through three
    planes scores ``|nu ^ b''| / h''``.

    A root of rank 3 or less is scored in the same way at three rows, where
    the wedges are cross products: a root of rank below 3 gets zero rows, q
    entry included, up to three.  A column ``g * p``, g the gcd and p
    primitive, leaves the saturated kernel ``p^perp = p x Z^3`` of Z^3, so
    ``W + g_j`` scores ``vol(W) * g`` at the gate of ``p x q``.  Columns of
    one direction up to sign are merged by the same rule as above, into one
    direction p with n the sum of their |g|.  Two directions p_i, p_j leave
    the one row ``nu / h``, for ``nu = p_i x p_j`` and h = gcd(nu), with q
    entry ``nu.q / h``; their pairs score ``vol(W) * n_i * n_j * h`` at that
    gate, and ``n_i * n_j * nu`` is kept for the triples.  Three directions
    score ``vol(W) * n_i * n_j * n_k * |nu_ij . p_k|`` at the bases' gate, 0
    when they are coplanar.  At a padded root the padding rows are zero,
    so every triple is coplanar and none is formed, and every pair is a
    basis, with ``nu = (0, 0, det)`` and q entry 0, summed at the full gate:
    the work stays within the C(m, 2) pairs that ``_check_subsets`` bounds.
    A shift denominator above PERIOD_BOUND is refused before the walk.
    """
    gens, d = zonotope.generators, zonotope.dim
    c = zonotope.shift_denominator
    if c > PERIOD_BOUND:
        raise EnumerationLimitError(
            f"the shift denominator {_readable(c, 'of {} digits')} "
            f"is above the period bound of {PERIOD_BOUND}"
        )
    m = len(gens)
    rows = [[g[i] for g in gens] + [s.numerator * (c // s.denominator)] for i, s in enumerate(zonotope.shift)]
    r = echelon(rows, m)
    _check_subsets(m, r)
    g0 = gcd(c, *(row[m] for row in rows[r:]))
    top = max(r, 3)
    pad = top - r
    # per |W|, the summed vol(W) of each gate gcd(g0, q)
    sums: List[Dict[int, int]] = [defaultdict(int) for _ in range(top + 1)]
    zero6 = (0,) * 6

    def walk(rows: Tuple, volume: int, gated: bool) -> None:
        size = top - len(rows)
        *cols, q = zip(*rows)
        g = gcd(g0, *q) if gated else g0
        gated = g != g0
        sums[size][g] += volume
        if len(rows) == 4:
            q0, q1, q2, q3 = q
            ones, twos, threes = sums[size + 1], sums[size + 2], sums[size + 3]
            bases = 0
            directions = list(_directions(cols).items())
            for i, ((a0, a1, a2, a3), n) in enumerate(directions):
                g = gcd(g0, a0 * q1 - a1 * q0, a0 * q2 - a2 * q0, a0 * q3 - a3 * q0,
                        a1 * q2 - a2 * q1, a1 * q3 - a3 * q1, a2 * q3 - a3 * q2) if gated else g0
                on = g != g0
                ones[g] += volume * n
                # plane with p, a primitive bivector up to sign -> [summed
                # n_b * h, one member b, its h], h = b's content modulo p
                planes = {}
                for b, k in directions[i + 1 :]:
                    b0, b1, b2, b3 = b
                    pi = (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0,
                          a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)
                    h = gcd(*pi)
                    s = -h if pi < zero6 else h
                    if s != 1:
                        pi = (pi[0] // s, pi[1] // s, pi[2] // s, pi[3] // s, pi[4] // s, pi[5] // s)
                    if pi in planes:
                        planes[pi][0] += k * h
                    else:
                        planes[pi] = [k * h, b, h]
                seen, triples = [], []
                for (u01, u02, u03, u12, u13, u23), (nb, (b0, b1, b2, b3), h) in planes.items():
                    k = n * nb
                    g = gcd(g0, u01 * q2 - u02 * q1 + u12 * q0, u01 * q3 - u03 * q1 + u13 * q0,
                            u02 * q3 - u03 * q2 + u23 * q0, u12 * q3 - u13 * q2 + u23 * q1) if on else g0
                    twos[g] += volume * k
                    if triples:
                        bases += nb * sum([abs(x * b3 - y * b2 + z * b1 - w * b0) for x, y, z, w in triples]) // h
                    for v01, v02, v03, v12, v13, v23, weight in seen:
                        x = v01 * b2 - v02 * b1 + v12 * b0
                        y = v01 * b3 - v03 * b1 + v13 * b0
                        z = v02 * b3 - v03 * b2 + v23 * b0
                        w = v12 * b3 - v13 * b2 + v23 * b1
                        if h != 1:
                            x, y, z, w = x // h, y // h, z // h, w // h
                        h3 = gcd(x, y, z, w)
                        weight *= k
                        g = gcd(g0, (x * q3 - y * q2 + z * q1 - w * q0) // h3) if on else g0
                        threes[g] += volume * weight * h3
                        triples.append((weight * x, weight * y, weight * z, weight * w))
                    seen.append((u01, u02, u03, u12, u13, u23, nb))
            sums[r][g0] += volume * bases
        elif len(rows) == 3:
            qu, qv, qw = q
            ones, twos = sums[size + 1], sums[size + 2]
            bases, seen, pairs = 0, [], []
            for (a, b, e), n in _directions(cols).items():
                g = gcd(g0, b * qw - e * qv, e * qu - a * qw, a * qv - b * qu) if gated else g0
                ones[g] += volume * n
                if pad:
                    # every pair is a basis, nu = (0, 0, det) at the full gate
                    bases += n * sum(k * abs(x * b - y * a) for x, y, _, k in seen)
                else:
                    if pairs:
                        bases += n * sum(abs(x * a + y * b + z * e) for x, y, z in pairs)
                    for x, y, z, k in seen:
                        u, v, w = y * e - z * b, z * a - x * e, x * b - y * a
                        h = gcd(u, v, w)
                        k *= n
                        g = gcd(g0, (u * qu + v * qv + w * qw) // h) if gated else g0
                        twos[g] += volume * k * h
                        pairs.append((k * u, k * v, k * w))
                seen.append((a, b, e, n))
            sums[r][g0] += volume * bases
        else:
            merged = (tuple([n * e for e in p]) for p, n in _directions(cols).items())
            rows = tuple(zip(cols[0], *merged, q))
            for j in range(1, len(rows[0]) - 1):
                step = kernel_step(rows, j)
                if step is not None:
                    factor, extended = step
                    walk(extended, volume * factor, gated)

    root = tuple((0, *row[:m], row[m] % c) for row in rows[:r]) + ((0,) * (m + 2),) * pad
    walk(root, 1, True)
    coeffs = [[0] * (d + 1) for _ in range(c)]
    for size, gates in enumerate(sums):
        for g, volume in gates.items():
            # the flat meets the lattice when c // g divides t: r = 0 is t = c
            for residue in range(0, c, c // g):
                coeffs[residue][size] += volume
    return QuasiPolynomial.from_residue_polys(coeffs)


# The extras a new vertex may take on its own, each with its weight: none,
# its halfedge (B), or its negative loop (C), which counts twice.
_OWN_EXTRAS = {"A": ((0, 1),), "B": ((0, 1), (1, 1)), "C": ((0, 1), (1, 2)), "D": ((0, 1),)}


def _vertex_census(family: str, n: int) -> Tuple[List[int], List[int]]:
    """Ehrhart coefficients of the family's integral permutahedron on n
    coordinates as weighted forest counts (transfer-matrix method): one
    list over all forests, one over the forests whose tree components all
    have an even vertex count.

    Every independent subset of the positive roots is a signed-graph
    forest, counted ``2^(loop trees + unbalanced pseudotrees)`` times at
    ``t^(n - tree components)``.  Vertices 1..n join one at a time, each
    with its roots to the earlier vertices and its own halfedge or loop.
    A state is the sorted multiset of ``(size, extra)`` components of a
    subset of the roots seen so far, extra 0 for a tree and 1 for a
    component with its one halfedge, loop or unbalanced cycle; the weight 2
    of a loop or a cycle goes into the ways at the step that creates it, so
    subsets that differ by a signed relabelling of the vertices or by the
    kind of their extras share a state and extend the same number of ways.
    The new vertex may take its own extra, and then each component of size
    s is skipped, joins it by one edge (s ways, 2s in the signed families)
    or, if it is a tree in a signed family, by two edges that close an
    unbalanced cycle (s^2 ways: s(s-1) over two endpoints and s opposite
    pairs at one, each weighted 2).  The merged component keeps at most one
    extra.  Choices that differ only in which of several equal components
    they take reach one partial merge, so their ways add up to the binomial
    coefficients by themselves.

    The partial merges are the census's work; once they pass MERGE_BOUND,
    counted after each state, the census is refused."""
    signed = family != "A"
    frontier: Dict[Tuple[Tuple[int, int], ...], int] = {(): 1}
    merges = 0
    for vertex in range(1, n + 1):
        stepped: Dict[Tuple[Tuple[int, int], ...], int] = {}
        for state, count in frontier.items():
            # (merged size, merged extra, components left) -> ways
            partial = {(1, own, ()): count * weight for own, weight in _OWN_EXTRAS[family]}
            for s, x in state:
                grown: Dict[Tuple, int] = {}
                for (size, extra, left), ways in partial.items():
                    key = (size, extra, left + ((s, x),))
                    grown[key] = grown.get(key, 0) + ways
                    if not (extra and x):
                        key = (size + s, extra or x, left)
                        grown[key] = grown.get(key, 0) + ways * (2 * s if signed else s)
                    if signed and not (extra or x):
                        key = (size + s, 1, left)
                        grown[key] = grown.get(key, 0) + ways * 2 * s * s
                partial = grown
                merges += len(grown)
            if merges > MERGE_BOUND:
                raise EnumerationLimitError(
                    f"the {family}{n} census passed {merges} partial merges at vertex {vertex}, "
                    f"above the merge bound of {MERGE_BOUND}"
                )
            for (size, extra, left), ways in partial.items():
                key = tuple(sorted(left + ((size, extra),)))
                stepped[key] = stepped.get(key, 0) + ways
        frontier = stepped
    forests = [0] * (n + 1)
    even = [0] * (n + 1)
    for state, count in frontier.items():
        trees = [s for s, x in state if not x]
        forests[n - len(trees)] += count
        if all(s % 2 == 0 for s in trees):
            even[n - len(trees)] += count
    return forests, even


def ehrhart_coxeter(family: str, n: int, variant: str = "standard") -> QuasiPolynomial:
    """Ehrhart quasipolynomial of the family's permutahedron on n
    coordinates, read off the weighted forest counts of ``_vertex_census``.

    In the half-integral cases (the standard variant of family B, and of
    family A on even n) the period is 2: even dilations count every forest,
    odd dilations only the forests all of whose tree components have an
    even vertex count (these families have no loops).
    """
    half_integral = is_half_integral(family, n, variant)
    forests, even = _vertex_census(family, n)
    return QuasiPolynomial.from_residue_polys([forests, even] if half_integral else [forests])


def ehrhart_coxeter_generic(family: str, n: int, variant: str = "standard") -> QuasiPolynomial:
    """The independent-subset walk on the family's permutahedron on n
    coordinates.  The subset bound is checked from the closed-form root
    count and rank before any root is built."""
    is_half_integral(family, n, variant)  # an unknown variant is refused first on every route
    _check_subsets(*root_count_and_rank(family, n))
    return ehrhart_almost_integral(coxeter_zonotope(family, n, variant))


def coxeter_zonotope(family: str, n: int, variant: str = "standard") -> ZonotopeSpec:
    """The permutahedron as a shifted zonotope (up to a lattice translation)."""
    half_integral = is_half_integral(family, n, variant)
    rs = positive_roots(family, n)
    return ZonotopeSpec(rs.roots, rs.shift if half_integral else None, n)


class ZonotopeFormatError(ValueError):
    """Raised for malformed zonotope input documents."""


def parse_zonotope_document(text: str) -> ZonotopeSpec:
    """Parse a zonotope description.

    The document is JSON with a required ``generators`` field (list of
    integer vectors) and an optional ``shift`` field (list of rationals
    written as integers, or as strings like ``"-3"`` or ``"1/2"``); a
    missing shift means the origin.  Rationals are reduced on read, so
    ``"2/4"`` is accepted.  Only the JSON structure is checked here; the
    entries are checked by ``ZonotopeSpec``, whose ``ValueError`` becomes
    a ZonotopeFormatError, as does a JSON integer past the int-digit limit.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ZonotopeFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ZonotopeFormatError("the document nests too deeply to parse") from exc
    except ValueError as exc:
        raise ZonotopeFormatError(f"an entry is too long to read: {exc}") from exc
    if not isinstance(doc, dict):
        raise ZonotopeFormatError("top level must be an object")
    unknown = set(doc) - {"generators", "shift"}
    if unknown:
        raise ZonotopeFormatError(f"unknown fields: {', '.join(sorted(unknown))}")
    if "generators" not in doc:
        raise ZonotopeFormatError("missing required field 'generators'")
    generators, shift = doc["generators"], doc.get("shift")
    if not isinstance(generators, list):
        raise ZonotopeFormatError("'generators' must be a list of integer vectors")
    for idx, raw in enumerate(generators):
        if not isinstance(raw, list) or not raw:
            raise ZonotopeFormatError(f"generators[{idx}]: expected a non-empty list")
    if "shift" in doc and not isinstance(shift, list):
        raise ZonotopeFormatError("'shift' must be a list of rationals")
    try:
        return ZonotopeSpec(generators, shift)
    except ValueError as exc:
        raise ZonotopeFormatError(str(exc)) from exc


def load_zonotope_file(path) -> ZonotopeSpec:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ZonotopeFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_zonotope_document(text)
