"""Exponential generating functions for the labeled structures behind the
permutahedron Ehrhart formulas, the value-by-dimension assemblies, and the
whole quasipolynomial read off with a marker on tree components.

The connected building blocks, with x marking labeled vertices:

    tree                   t_n = n^(n-2)
    pseudotree             connected, one cycle of length >= 3
    signed tree            st_n = 2^(n-1) n^(n-2)
    signed pseudotree      connected signed graph, one unbalanced cycle
    signed halfedge-tree   sh_n = (2n)^(n-1); also counts loop-trees

All formulas are algebraic expressions in the Lambert W series, evaluated
with exact rational coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import List, Tuple

from .ehrhart import QuasiPolynomial
from .roots import is_integral
from .series import RatSeries, lambert_w

SEQUENCE_KINDS = (
    "tree",
    "pseudotree",
    "signed_tree",
    "signed_pseudotree",
    "signed_halfedge_tree",
    "signed_loop_tree",
)

# Series orders whose component series stay cached.
COMPONENT_CACHE_SIZE = 16

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class ComponentEgfs:
    """The five distinct component series (loop-trees share the halfedge
    series, since a loop-tree is a halfedge-tree with the halfedge doubled)."""

    tree: RatSeries
    pseudotree: RatSeries
    signed_tree: RatSeries
    signed_pseudotree: RatSeries
    signed_halfedge_tree: RatSeries

    def for_kind(self, kind: str) -> RatSeries:
        if kind not in SEQUENCE_KINDS:
            raise ValueError(f"unknown structure kind {kind!r}")
        if kind == "signed_loop_tree":
            return self.signed_halfedge_tree
        return getattr(self, kind)


@lru_cache(maxsize=COMPONENT_CACHE_SIZE)
def component_egfs(order: int) -> ComponentEgfs:
    """All component series truncated at the given order."""
    if order < 1:
        raise ValueError("order must be at least 1")
    w = lambert_w(order)
    wm = w.scale_arg(-1)  # W(-x), with -W(-x) the rooted tree series
    w2 = w.scale_arg(-2)  # W(-2x)
    tree = -wm - _HALF * (wm * wm)
    pseudotree = _HALF * wm - _QUARTER * (wm * wm) - _HALF * wm.log1p()
    signed_tree = -_HALF * w2 - _QUARTER * (w2 * w2)
    signed_pseudotree = _QUARTER * (w2 - w2.log1p())
    signed_halfedge_tree = -_HALF * w2
    return ComponentEgfs(tree, pseudotree, signed_tree, signed_pseudotree, signed_halfedge_tree)


def _as_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer value, got {value}")
    return int(value)


def _integer_coefficients(series: RatSeries) -> List[int]:
    """m! [x^m] for m = 0..order: the labeled counts of an EGF."""
    return [_as_int(series.egf_value(m)) for m in range(series.order + 1)]


def structure_counts(kind: str, nmax: int) -> List[int]:
    """Counts of connected structures on 1..nmax labeled vertices."""
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    return _integer_coefficients(component_egfs(nmax).for_kind(kind))[1:]


def _exponent_parts(family: str, order: int, odd: bool) -> Tuple[RatSeries, RatSeries]:
    """The family's tree series T and the rest R of its exponent.

    The t-th dilate of the integral permutahedron on n coordinates has
    n! [x^n] exp(T(tx)/t + R(tx)) lattice points: a tree component weighs
    1/t, an unbalanced pseudotree 2, a halfedge-tree 1 (family B), a
    loop-tree 2 (family C).
    With ``odd`` the tree series keeps only even vertex counts, which is
    the parity obstruction of odd dilates in the half-integral cases.
    """
    if family not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown family {family!r}")
    comps = component_egfs(order)
    if family == "A":
        tree, rest = comps.tree, RatSeries.zero(order)
    else:
        tree, rest = comps.signed_tree, 2 * comps.signed_pseudotree
        if family == "B":
            rest = rest + comps.signed_halfedge_tree
        elif family == "C":
            rest = rest + 2 * comps.signed_halfedge_tree
    return (tree.even_part() if odd else tree), rest


def _check_dilation(t: int, nmax: int) -> None:
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {t!r}")
    if nmax < 1:
        raise ValueError("nmax must be at least 1")


def _dilated_counts(family: str, t: int, nmax: int, odd: bool) -> List[int]:
    tree, rest = _exponent_parts(family, nmax, odd)
    ts = Fraction(t)
    return _integer_coefficients(((1 / ts) * tree.scale_arg(ts) + rest.scale_arg(ts)).exp())


def egf_ehrhart_values(family: str, t: int, nmax: int) -> List[int]:
    """Lattice point counts of the dilated integral permutahedra.

    Entry n (for n = 0..nmax) is the count for the family's integral
    permutahedron on n coordinates, dilated by t.  The whole list comes
    from one exponential of weighted component series (see
    :func:`_exponent_parts`).
    """
    _check_dilation(t, nmax)
    return _dilated_counts(family, t, nmax, odd=False)


def egf_ehrhart_standard_odd(family: str, t: int, nmax: int) -> List[int]:
    """Lattice point counts of odd dilates of the standard permutahedra in
    the half-integral cases (family B, and family A on even coordinate
    counts).

    Entry n is the count for n coordinates.  Restricting the tree series to
    even vertex counts implements the parity obstruction: a tree component
    with an odd vertex count pushes the half-integral shift off the lattice.
    For family A every structure is a forest of trees, so odd entries of
    the returned list are zero; only the even entries are meaningful.
    """
    _check_dilation(t, nmax)
    if t % 2 == 0:
        raise ValueError("this route only covers odd dilation factors")
    if family in ("C", "D"):
        raise ValueError("families C and D are integral; the single constituent covers all t")
    return _dilated_counts(family, t, nmax, odd=True)


def _polynomial_by_tree_count(family: str, n: int, odd: bool) -> List[int]:
    """Ascending coefficients of the count on n coordinates as a polynomial
    in t: the coefficient of t^(n-k) is n! [x^n] T^k/k! exp(R).

    Works on integer EGF coefficients.  ``forests[m]`` is m! [x^m] T^k/k!,
    the number of ways to cover m labeled vertices by k trees.  Multiplying
    by T adds one more tree, which counts each forest of k + 1 trees k + 1
    times, so the division by k + 1 is exact.
    """
    tree_series, rest_series = _exponent_parts(family, n, odd)
    tree = _integer_coefficients(tree_series)
    rest = _integer_coefficients(rest_series)
    binom = [[comb(m, j) for j in range(m + 1)] for m in range(n + 1)]
    # exp(R) by the integer form of the recurrence E' = R' E
    rest_exp = [1] + [0] * n
    for m in range(1, n + 1):
        row = binom[m - 1]
        rest_exp[m] = sum(row[s - 1] * rest[s] * rest_exp[m - s] for s in range(1, m + 1) if rest[s])
    coeffs = [0] * (n + 1)
    forests = [1] + [0] * n
    for k in range(n + 1):
        row = binom[n]
        coeffs[n - k] = sum(row[j] * forests[j] * rest_exp[n - j] for j in range(k, n + 1))
        if k == n:
            break
        grown = [0] * (n + 1)
        for m in range(k + 1, n + 1):
            row = binom[m]
            total = sum(row[s] * tree[s] * forests[m - s] for s in range(1, m - k + 1) if tree[s])
            grown[m], remainder = divmod(total, k + 1)
            if remainder:
                raise ArithmeticError(f"forest count {total} is not divisible by {k + 1}")
        forests = grown
    return coeffs


def egf_ehrhart_quasipolynomial(family: str, n: int, variant: str = "standard") -> QuasiPolynomial:
    """Ehrhart quasipolynomial of the family's permutahedron on n
    coordinates, every coefficient at once.

    Marking tree components by y turns the count into n! [x^n]
    exp(y T(x) + R(x)), so the coefficient of t^(n-k) is n! [x^n]
    T^k/k! exp(R).  The odd constituent of a half-integral standard
    permutahedron uses the even part of T.
    """
    if variant not in ("standard", "integral"):
        raise ValueError(f"unknown variant {variant!r}")
    half_integral = not is_integral(family, n) and variant == "standard"
    parities = (False, True) if half_integral else (False,)
    return QuasiPolynomial.from_residue_polys(
        [_polynomial_by_tree_count(family, n, odd) for odd in parities]
    )
