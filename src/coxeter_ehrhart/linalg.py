"""Exact linear algebra over the integer lattice.

Vectors are plain tuples (ints for lattice vectors, ``fractions.Fraction``
for rational ones), so every value is hashable and safe to share.  All
arithmetic is arbitrary precision; nothing in this package touches floating
point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import log10
from typing import Iterable, List, Optional, Sequence, Tuple

IntVector = Tuple[int, ...]
RatVector = Tuple[Fraction, ...]

# A rational entry written as a string: an integer or p/q in ASCII digits, and
# none of the other spellings Fraction reads ("0.5", "1e2", " 1/2", "1_000/3").
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _shown(entry) -> str:
    """The entry's ``repr`` for a message, cut to a prefix and its length when
    long.  Past the interpreter's int-digit limit no ``repr`` can be formed,
    so the entry shows as its type and, for an int or Fraction, the digit
    count of its longer part, from the bit length, up to one."""
    try:
        text = repr(entry)
    except ValueError:
        kind = type(entry).__name__
        if not isinstance(entry, (int, Fraction)):
            return f"{kind} too long to show"
        size = max(abs(entry.numerator), entry.denominator)
        return f"{kind} of about {int(size.bit_length() * log10(2)) + 1} digits"
    return text if len(text) <= 40 else f"{text[:32]}... ({len(text)} characters)"


def int_vector(entries: Iterable, name: str = "lattice vector") -> IntVector:
    """The entries as a tuple of ints.  Any other entry (``bool``, float and
    Fraction among them) is refused, with ``name`` in the message."""
    vector = tuple(entries)
    for e in vector:
        if type(e) is not int:
            raise ValueError(f"non-integer entry {_shown(e)} in {name}: expected integer entries")
    return vector


def rat_vector(entries: Iterable, name: str = "rational vector") -> RatVector:
    """The entries as a tuple of Fractions, each an ``int``, a ``Fraction`` or
    a _RATIONAL_TEXT string with a nonzero denominator.  Any other entry
    (``bool`` and float among them) is refused, with ``name`` and the
    entry's index in the message, as is a string with more digits than the
    interpreter's int-digit limit lets ``Fraction`` read."""
    out = []
    for i, e in enumerate(entries):
        if not (type(e) in (int, Fraction) or type(e) is str and _RATIONAL_TEXT.fullmatch(e)):
            raise ValueError(f"non-rational entry {_shown(e)} in {name}[{i}]: expected an integer or a 'p/q' string")
        try:
            out.append(Fraction(e))
        except ZeroDivisionError:
            raise ValueError(f"non-rational entry {_shown(e)} in {name}[{i}]: zero denominator") from None
        except ValueError as exc:
            # past the int-digit limit: name the entry without echoing its digits
            raise ValueError(f"entry {name}[{i}] is too long to read: {exc}") from None
    return tuple(out)


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


def rank(vectors: Sequence[Sequence[int]], dim: Optional[int] = None) -> int:
    """Dimension of the rational span; 0 for the empty list.

    The count of rows ``echelon`` leaves independent on the vectors themselves.
    """
    vecs = [int_vector(v) for v in vectors]
    if not vecs:
        return 0
    return echelon(vecs, common_dim(vecs, dim))


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


def echelon(rows: List[Sequence[int]], width: int) -> int:
    """Unimodular row operations, in place, until the first ``rank`` rows are
    independent on the first ``width`` columns and the others vanish there;
    returns ``rank``.  Entries past ``width`` are carried, not eliminated.
    A reduced row is a new list put in place of the old one in ``rows``; the
    row objects passed in are never changed.

    Column by column, the rows not yet fixed are split once into live rows,
    nonzero on the column, and dead ones.  Each round reduces the live rows
    by the one of least absolute entry, which stays live, and drops those
    left 0; the last live row is the column's pivot, or none is."""
    fixed = 0
    for col in range(width):
        live = [i for i in range(fixed, len(rows)) if rows[i][col]]
        while len(live) > 1:
            p = min(live, key=lambda i: abs(rows[i][col]))
            pivot = rows[p]
            a = pivot[col]
            kept = [p]
            for i in live:
                if i != p:
                    q = rows[i][col] // a
                    row = rows[i] = [x - q * y for x, y in zip(rows[i], pivot)]
                    if row[col]:
                        kept.append(i)
            live = kept
        if live:
            i = live[0]
            rows[fixed], rows[i] = rows[i], rows[fixed]
            fixed += 1
    return fixed


def kernel_step(rows: Sequence[Sequence[int]], column: int) -> Optional[Tuple[int, Tuple[Sequence[int], ...]]]:
    """Extend a subset W by the generator g behind ``column`` of the pairing rows.

    ``rows[i]`` holds the pairings ``<f_i, g_j>`` of a saturated integer
    basis f_1..f_k of ``span(W)^perp`` with the generators still to try, one
    column per generator, and may carry more columns after them (the walk
    in ``ehrhart`` carries the shift's pairings ``c*<f_i, shift>`` last).
    ``echelon`` reduces the rows, cut to start at ``column``, on their first
    column.  Rank 0 means that the column ``a_i = <f_i, g>`` is all 0, so g
    lies in ``span(W)``, and the step returns None.  Otherwise it returns
    ``(|pivot|, rows')``: pairing with a saturated kernel maps Z^d onto Z^k
    with kernel ``Z^d ∩ span(W)``, so the relative volume grows by the
    factor gcd(a), the pivot up to sign.  ``rows'``, the rows but the
    pivot's, are the pairings of a saturated kernel of ``W + g``, from
    ``column`` on: their first column is 0.  ``rows`` is left as it is.
    """
    tails = [row[column:] for row in rows]
    if not echelon(tails, 1):
        return None
    return abs(tails[0][0]), tuple(tails[1:])
