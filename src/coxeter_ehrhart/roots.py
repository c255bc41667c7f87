"""Positive roots and standard shifts of the classical reflection families.

Everything here is indexed by the number of ambient coordinates ``n``.
Family ``A`` on ``n`` coordinates is the rank ``n - 1`` system (its
permutahedron lives in a hyperplane), while families B, C and D on ``n``
coordinates have rank ``n``.  Reference tables that label type-A rows by
coordinate count follow the same convention; sources that index type A by
rank are off by one from ours.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Tuple

from .linalg import IntVector, RatVector

FAMILIES = ("A", "B", "C", "D")
VARIANTS = ("standard", "integral")


def _positive(value, what: str) -> None:
    """Reject anything but a positive ``int``; ``bool`` is not read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def _check(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    _positive(n, "coordinate count")


class PositiveRootSet(namedtuple("PositiveRootSet", "family n roots shift")):
    """Positive roots of one classical family on ``n`` coordinates.

    ``shift`` places the standard (origin-centered) permutahedron relative
    to the integral one: up to an integer translation, the standard
    permutahedron is ``shift`` plus the Minkowski sum of ``[0, root]``
    segments over ``roots``.
    """

    __slots__ = ()
    family: str
    n: int
    roots: Tuple[IntVector, ...]
    shift: RatVector


def standard_shift(family: str, n: int) -> RatVector:
    """Translation part of the standard permutahedron, reduced mod Z^n.

    Always either the zero vector or the all-halves vector: the halves show
    up exactly for family B and for family A on an even number of
    coordinates.
    """
    _check(family, n)
    if is_integral(family, n):
        return tuple(Fraction(0) for _ in range(n))
    return tuple(Fraction(1, 2) for _ in range(n))


def is_integral(family: str, n: int) -> bool:
    """Whether the standard permutahedron has integer vertices.

    True for C and D always, and for A exactly on an odd number of
    coordinates; false for B and for A on an even number of coordinates.
    """
    _check(family, n)
    if family == "A":
        return n % 2 == 1
    return family in ("C", "D")


def is_half_integral(family: str, n: int, variant: str) -> bool:
    """Whether the variant's permutahedron has period 2: the standard one
    where it is not integral, never the integral one.  Unknown variants are
    rejected here for every route."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return not is_integral(family, n) and variant == "standard"


def positive_roots(family: str, n: int) -> PositiveRootSet:
    """Positive roots, ordered by kind (differences, sums, singles/doubles)
    and within each kind lexicographically by the index pair (i, j)."""
    _check(family, n)

    def unit(i, scale=1):
        return tuple(scale if k == i else 0 for k in range(n))

    diffs = []
    sums = []
    for i in range(n):
        for j in range(i + 1, n):
            diffs.append(tuple(1 if k == i else (-1 if k == j else 0) for k in range(n)))
            sums.append(tuple(1 if k in (i, j) else 0 for k in range(n)))

    if family == "A":
        roots = diffs
    elif family == "B":
        roots = diffs + sums + [unit(i) for i in range(n)]
    elif family == "C":
        roots = diffs + sums + [unit(i, 2) for i in range(n)]
    else:
        roots = diffs + sums
    return PositiveRootSet(family, n, tuple(roots), standard_shift(family, n))


def root_count_and_rank(family: str, n: int) -> Tuple[int, int]:
    """The number of positive roots and their rank, in closed form, without
    building the roots: n(n-1)/2 and n - 1 for A, n^2 and n for B and C,
    n(n-1) and n for D (no roots, rank 0, at D1)."""
    _check(family, n)
    if family == "A":
        return n * (n - 1) // 2, n - 1
    count = n * (n - 1) if family == "D" else n * n
    return count, n if count else 0


def table_label(family: str, n: int) -> str:
    """Row label used by the reference tables (coordinate-count indexed)."""
    _check(family, n)
    return f"{family}_{n}"


def rank_label(family: str, n: int) -> str:
    """Conventional rank-indexed name of the root system."""
    _check(family, n)
    if family == "A":
        return f"A_{n - 1}"
    return f"{family}_{n}"
