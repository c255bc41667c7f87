"""Reference generating functions for the tests: the paper's Lambert W
expressions, evaluated literally as truncated rational power series.

A :class:`RatSeries` holds coefficients a_0 .. a_N of a series truncated at
order N.  Arithmetic between two series truncates to the smaller order.
Everything is exact ``fractions.Fraction`` arithmetic.

The package reads its component counts from closed forms
(:func:`coxeter_ehrhart.egf.component_counts`); the series here are the
independent reference those counts and the package's quasipolynomials are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul
from typing import List, Sequence, Tuple

from coxeter_ehrhart.egf import SEQUENCE_KINDS


@dataclass(frozen=True)
class RatSeries:
    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @staticmethod
    def zero(order: int) -> "RatSeries":
        return RatSeries((Fraction(0),) * (order + 1))

    @staticmethod
    def identity(order: int) -> "RatSeries":
        """The series x."""
        if order < 1:
            raise ValueError("order must be at least 1 for the identity series")
        return RatSeries((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def egf_value(self, n: int) -> Fraction:
        """n! times the n-th coefficient."""
        return factorial(n) * self.coefficient(n)

    def truncate(self, order: int) -> "RatSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return RatSeries(self.coeffs[: order + 1])

    def __neg__(self) -> "RatSeries":
        return RatSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other: "RatSeries") -> "RatSeries":
        n = min(self.order, other.order)
        return RatSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[: n + 1])

    def __sub__(self, other: "RatSeries") -> "RatSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RatSeries):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return RatSeries(tuple(out))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "RatSeries":
        c = Fraction(c)
        return RatSeries(tuple(c * a for a in self.coeffs))

    def scale_arg(self, c) -> "RatSeries":
        """The series f(c*x)."""
        c = Fraction(c)
        out = []
        power = Fraction(1)
        for a in self.coeffs:
            out.append(a * power)
            power *= c
        return RatSeries(tuple(out))

    def exp(self) -> "RatSeries":
        """exp(f) for a series with zero constant term."""
        if self.coeffs[0]:
            raise ValueError("exp needs a zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    acc += k * self.coeffs[k] * out[m - k]
            out[m] = acc / m
        return RatSeries(tuple(out))

    def log1p(self) -> "RatSeries":
        """log(1 + f) for a series with zero constant term."""
        if self.coeffs[0]:
            raise ValueError("log1p needs a zero constant term")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            acc = m * self.coeffs[m]
            for j in range(1, m):
                acc -= (m - j) * self.coeffs[j] * out[m - j]
            out[m] = acc / m
        return RatSeries(tuple(out))

    def pow1p(self, exponent) -> "RatSeries":
        """(1 + f) ** exponent for rational exponents, f with zero constant
        term."""
        return (Fraction(exponent) * self.log1p()).exp()

    def even_part(self) -> "RatSeries":
        """The series keeping only even powers: (f(x) + f(-x)) / 2."""
        return Fraction(1, 2) * (self + self.scale_arg(-1))


def lambert_w(order: int) -> RatSeries:
    """Series of the Lambert W function, W(x) = sum (-n)^(n-1) x^n / n!.

    Satisfies W(x) * exp(W(x)) = x; the signed reversal -W(-x) is the
    exponential generating function of rooted labeled trees, n^(n-1).
    """
    coeffs = [Fraction(0)]
    for n in range(1, order + 1):
        coeffs.append(Fraction((-n) ** (n - 1), factorial(n)))
    return RatSeries(tuple(coeffs))


# Orders whose reference component series stay cached.
SERIES_CACHE_SIZE = 16

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


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def component_egfs(order: int) -> ComponentEgfs:
    """All component series truncated at the given order, as the paper
    writes them through the Lambert W series."""
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


def _polynomial_by_tree_count(tree: Sequence[int], rest: Sequence[int], n: int) -> List[int]:
    """Ascending coefficients of the count on n coordinates as a polynomial
    in t: the coefficient of t^(n-k) is n! [x^n] T^k/k! exp(R).

    ``forests[m]`` is m! [x^m] T^k/k!, the number of ways to cover m
    labeled vertices by k trees.  Multiplying by T adds one more tree, which
    counts each forest of k + 1 trees k + 1 times, so the division by k + 1
    is exact.

    A general binomial convolution over vertex counts, for any tree series
    and rest: the reference for the package's period-1 sum
    (egf._polynomial_by_lagrange) on the full tree series, and for its odd
    constituent (egf._odd_constituent) on the even-tree series (T(x) +
    T(-x))/2.
    """
    binom = [[comb(m, j) for j in range(m + 1)] for m in range(n + 1)]
    # exp(R) by the integer form of the recurrence E' = R' E
    rest_exp = [1] + [0] * n
    for m in range(1, n + 1):
        row = binom[m - 1]
        rest_exp[m] = sum(row[s - 1] * rest[s] * rest_exp[m - s] for s in range(1, m + 1) if rest[s])
    # Both convolutions pair forests[j] with a weight fixed before the loop
    # over k: n! [x^n] (forests) exp(R) with outer[j] = C(n, j) rest_exp[n-j],
    # and m! [x^m] T (forests) with joins[m][j] = C(m, m-j) t_(m-j), j < m.
    outer = [c * e for c, e in zip(binom[n], reversed(rest_exp))]
    joins = [
        [c * t for c, t in zip(reversed(binom[m][1:]), reversed(tree[1 : m + 1]))] for m in range(n + 1)
    ]
    coeffs = [0] * (n + 1)
    forests = [1] + [0] * n
    for k in range(n + 1):
        # k trees cover at least k vertices, so forests[j] = 0 for j < k
        coeffs[n - k] = sum(map(mul, outer[k:], forests[k:]))
        if k == n:
            break
        grown = [0] * (n + 1)
        for m in range(k + 1, n + 1):
            total = sum(map(mul, joins[m][k:], forests[k:m]))
            grown[m], remainder = divmod(total, k + 1)
            if remainder:
                raise ArithmeticError(f"forest count {total} is not divisible by {k + 1}")
        forests = grown
    return coeffs
