"""Exact linear algebra over the integer lattice.

Vectors are plain tuples (ints for lattice vectors, ``fractions.Fraction``
for rational ones), so every value is hashable and safe to share.  All
arithmetic is arbitrary precision; nothing in this package touches floating
point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

IntVector = Tuple[int, ...]
RatVector = Tuple[Fraction, ...]


def int_vector(entries: Iterable) -> IntVector:
    """Coerce to a tuple of ints, rejecting non-integer entries."""
    out = []
    for e in entries:
        i = int(e)
        if i != e:
            raise ValueError(f"non-integer entry {e!r} in lattice vector")
        out.append(i)
    return tuple(out)


def rat_vector(entries: Iterable) -> RatVector:
    return tuple(Fraction(e) for e in entries)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def common_dim(vectors: Sequence[Sequence], dim: Optional[int] = None) -> int:
    """Shared length of the given vectors, validated against ``dim`` if set."""
    for v in vectors:
        if dim is None:
            dim = len(v)
        elif len(v) != dim:
            raise ValueError(f"dimension mismatch: {len(v)} vs {dim}")
    if dim is None:
        raise ValueError("ambient dimension cannot be inferred from no vectors")
    if dim < 1:
        raise ValueError("ambient dimension must be positive")
    return dim


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


def rank(vectors: Sequence[Sequence[int]], dim: Optional[int] = None) -> int:
    """Dimension of the rational span; 0 for the empty list."""
    vecs = [int_vector(v) for v in vectors]
    if not vecs:
        return 0
    d = common_dim(vecs, dim)
    ech = IntegerEchelon(d)
    for v in vecs:
        nxt = ech.try_add(v)
        if nxt is not None:
            ech = nxt
    return ech.rank


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
    acols = [[vecs[i][j] for i in range(k)] for j in range(d)]
    ucols = [[1 if i == j else 0 for i in range(d)] for j in range(d)]
    fixed = 0
    for r in range(k):
        while True:
            nonzero = [j for j in range(fixed, d) if acols[j][r]]
            if len(nonzero) <= 1:
                if nonzero:
                    j = nonzero[0]
                    acols[fixed], acols[j] = acols[j], acols[fixed]
                    ucols[fixed], ucols[j] = ucols[j], ucols[fixed]
                    fixed += 1
                break
            jmin = min(nonzero, key=lambda j: abs(acols[j][r]))
            a = acols[jmin][r]
            for j in nonzero:
                if j == jmin:
                    continue
                q = acols[j][r] // a
                if q:
                    acols[j] = [x - q * y for x, y in zip(acols[j], acols[jmin])]
                    ucols[j] = [x - q * y for x, y in zip(ucols[j], ucols[jmin])]
    basis = []
    for j in range(fixed, d):
        col = ucols[j]
        lead = next(e for e in col if e)
        if lead < 0:
            col = [-e for e in col]
        basis.append(tuple(col))
    return basis


def kernel_step(
    rows: Sequence[IntVector], residues: Sequence[int], modulus: int, column: int
) -> Optional[Tuple[int, Tuple[IntVector, ...], Tuple[int, ...]]]:
    """Extend a subset W by the generator g behind ``column`` of the pairing rows.

    ``rows[i]`` holds the pairings ``<f_i, g_j>`` of a saturated integer
    basis f_1..f_k of ``span(W)^perp`` with the generators still to try, one
    column per generator, and ``residues[i]`` an integer attached to f_i
    modulo ``modulus`` (the walk in ``ehrhart`` uses ``c*<f_i, shift> mod
    c``).  Returns None when g lies in ``span(W)``, that is when the column
    ``a_i = <f_i, g>`` is all 0.  Otherwise returns ``(gcd(a), rows',
    residues')``: pairing with a saturated kernel maps Z^d onto Z^k with
    kernel ``Z^d ∩ span(W)``, so the relative volume grows by the factor
    gcd(a).  Unimodular operations on the rows (and on the residues, mod
    ``modulus``) reduce the column to a single nonzero entry; the other
    rows are the pairings of the saturated kernel of ``W + g``.  They are
    returned cut to the columns after ``column``.
    """
    a = [row[column] for row in rows]
    nonzero = [i for i, e in enumerate(a) if e]
    if not nonzero:
        return None
    tails = [row[column + 1 :] for row in rows]
    res = list(residues)
    while len(nonzero) > 1:
        p = min(nonzero, key=lambda i: abs(a[i]))
        ap, tp, rp = a[p], tails[p], res[p]
        for i in nonzero:
            if i != p:
                q = a[i] // ap
                a[i] -= q * ap
                tails[i] = tuple(x - q * y for x, y in zip(tails[i], tp))
                res[i] = (res[i] - q * rp) % modulus
        nonzero = [i for i in nonzero if a[i]]
    p = nonzero[0]
    return abs(a[p]), tuple(tails[:p] + tails[p + 1 :]), tuple(res[:p] + res[p + 1 :])
