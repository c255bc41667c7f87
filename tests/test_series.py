"""Tests for truncated rational power series and the Lambert W series."""

from fractions import Fraction
from math import factorial

import pytest

from series_reference import RatSeries, lambert_w


def one(order):
    return RatSeries((Fraction(1),) + (Fraction(0),) * order)


def test_basic_accessors():
    f = RatSeries((1, "1/2", 3))
    assert f.order == 2
    assert f.coefficient(1) == Fraction(1, 2)
    assert f.egf_value(2) == 6
    with pytest.raises(ValueError):
        f.coefficient(3)
    with pytest.raises(ValueError):
        RatSeries(())


def test_arithmetic():
    x = RatSeries.identity(4)
    sq = x * x
    assert sq.coeffs == (0, 0, 1, 0, 0)
    assert (sq + x).coeffs == (0, 1, 1, 0, 0)
    assert (sq - sq).coeffs == (0,) * 5
    assert (3 * x).coeffs == (0, 3, 0, 0, 0)
    assert (-x).coeffs == (0, -1, 0, 0, 0)


def test_truncation_rules():
    f = RatSeries((1, 2, 3, 4))
    assert f.truncate(2).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        f.truncate(7)
    # products and sums shrink to the smaller order
    g = RatSeries((1, 1))
    assert (f * g).order == 1
    assert (f + g).order == 1


def test_scale_arg():
    f = RatSeries((1, 1, 1, 1))
    assert f.scale_arg(2).coeffs == (1, 2, 4, 8)
    assert f.scale_arg(-1).coeffs == (1, -1, 1, -1)
    assert f.scale_arg(Fraction(1, 2)).coeffs == (1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def test_even_part():
    f = RatSeries((1, 2, 3, 4, 5))
    assert f.even_part().coeffs == (1, 0, 3, 0, 5)


def test_exp_matches_exponential_series():
    x = RatSeries.identity(8)
    e = x.exp()
    for n in range(9):
        assert e.coefficient(n) == Fraction(1, factorial(n))
    with pytest.raises(ValueError):
        RatSeries((1, 1)).exp()


def test_exp_log_round_trip():
    f = RatSeries((0, 1, Fraction(-1, 2), Fraction(1, 3), 2, 0, Fraction(7, 5), 0, 1))
    g = f.exp()
    assert (g - one(f.order)).log1p().coeffs == f.coeffs
    h = f.log1p()  # log(1 + f)
    assert (h.exp() - one(f.order)).coeffs == f.coeffs


def test_pow1p():
    x = RatSeries.identity(6)
    inv_sqrt = x.pow1p(Fraction(-1, 2))
    assert (inv_sqrt * inv_sqrt * (one(6) + x)).coeffs == one(6).coeffs
    assert x.pow1p(2).coeffs == (1, 2, 1, 0, 0, 0, 0)


def test_lambert_w_series():
    w = lambert_w(12)
    assert w.coefficient(0) == 0
    assert w.coefficient(1) == 1
    assert w.coefficient(2) == -1
    assert w.coefficient(3) == Fraction(3, 2)
    # the defining identity: W exp(W) = x
    assert (w * w.exp()).coeffs == RatSeries.identity(12).coeffs


def test_lambert_w_functional_inverse():
    # substituting W into x exp(x) is the identity as well, checked via
    # the EGF values n^(n-1) of rooted labeled trees in -W(-x)
    w = lambert_w(9)
    rooted = -w.scale_arg(-1)
    for n in range(1, 10):
        assert rooted.egf_value(n) == n ** (n - 1)
