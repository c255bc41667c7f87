"""Tests for the generating-function route."""

from fractions import Fraction

import pytest

from coxeter_ehrhart import egf
from coxeter_ehrhart.egf import SEQUENCE_KINDS, component_counts, egf_ehrhart_quasipolynomial
from coxeter_ehrhart.ehrhart import ehrhart_coxeter
from coxeter_ehrhart.roots import is_integral
from series_reference import (
    RatSeries,
    _exponent_parts,
    _integer_coefficients,
    _polynomial_by_tree_count,
    component_egfs,
    egf_ehrhart_standard_odd,
    egf_ehrhart_values,
    lambert_w,
)


def one(order):
    return RatSeries((Fraction(1),) + (Fraction(0),) * order)


def test_closed_form_sequences():
    assert component_counts("tree", 8) == (0, *(n ** max(n - 2, 0) for n in range(1, 9)))
    assert component_counts("signed_tree", 8) == (
        0,
        *(2 ** (n - 1) * n ** max(n - 2, 0) for n in range(1, 9)),
    )
    expected_halfedge = (0, *((2 * n) ** (n - 1) for n in range(1, 9)))
    assert component_counts("signed_halfedge_tree", 8) == expected_halfedge
    assert component_counts("signed_loop_tree", 8) == expected_halfedge


def test_pinned_cycle_bearing_sequences():
    assert component_counts("pseudotree", 5) == (0, 0, 0, 1, 15, 222)
    assert component_counts("signed_pseudotree", 5) == (0, 0, 1, 16, 312, 7552)


def test_signed_pseudotree_identity():
    # SP(x) = P(2x)/2 + W(-2x)^2/8: doubling edge signs in an unsigned
    # structure accounts for everything except the unbalanced 2-cycles
    order = 10
    comps = component_egfs(order)
    w2 = lambert_w(order).scale_arg(-2)
    rhs = Fraction(1, 2) * comps.pseudotree.scale_arg(2) + Fraction(1, 8) * (w2 * w2)
    assert comps.signed_pseudotree.coeffs == rhs.coeffs


def test_closed_form_counts_match_lambert_w_series():
    # the paper's Lambert W expressions, evaluated as rational series, give
    # the same component counts as the package's closed forms
    order = 60
    comps = component_egfs(order)
    for kind in SEQUENCE_KINDS:
        assert list(component_counts(kind, order)) == _integer_coefficients(comps.for_kind(kind)), kind


def test_component_series_have_integer_counts():
    comps = component_egfs(9)
    for kind in SEQUENCE_KINDS:
        series = comps.for_kind(kind)
        for n in range(1, 10):
            value = series.egf_value(n)
            assert value == int(value) and value >= 0


def test_integral_values_match_forest_census():
    for family in "ABCD":
        values = {t: egf_ehrhart_values(family, t, 5) for t in (1, 2, 3, 4)}
        assert all(row[0] == 1 for row in values.values())
        for n in range(1, 6):
            census = ehrhart_coxeter(family, n, "integral")
            assert egf_ehrhart_quasipolynomial(family, n, "integral") == census
            for t, row in values.items():
                assert row[n] == census.evaluate(t)


def by_convolution(family, n, odd=False):
    """The period-1 constituent by the binomial convolution on the full tree
    series; with ``odd``, the odd constituent, on the even-tree series."""
    if family == "A":
        tree, rest = component_counts("tree", n), [0] * (n + 1)
    else:
        # an unbalanced pseudotree weighs 2, a halfedge-tree 1 (B), a loop-tree 2 (C)
        tree, weight = component_counts("signed_tree", n), {"B": 1, "C": 2, "D": 0}[family]
        pseudo = component_counts("signed_pseudotree", n)
        halfedge = component_counts("signed_halfedge_tree", n)
        rest = [2 * p + weight * e for p, e in zip(pseudo, halfedge)]
    if odd:
        tree = [c if m % 2 == 0 else 0 for m, c in enumerate(tree)]
    return _polynomial_by_tree_count(tree, rest, n)


def test_lagrange_sum_equals_the_convolution():
    for family in "ABCD":
        for n in range(1, 31):
            assert egf._polynomial_by_lagrange(family, n) == by_convolution(family, n), (family, n)


def test_lagrange_sum_equals_the_convolution_up_to_the_parity_bound():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(st.sampled_from("ABCD"), st.integers(1, egf.PARITY_BOUND))
    @hypothesis.example("C", egf.PARITY_BOUND)
    def check(family, n):
        assert egf._polynomial_by_lagrange(family, n) == by_convolution(family, n)

    check()


def test_odd_constituent_equals_the_convolution():
    # half-integral requests: B at every n, A at even n
    for n in range(1, 61):
        for family in "AB" if n % 2 == 0 else "B":
            assert egf._odd_constituent(family, n) == by_convolution(family, n, odd=True), (family, n)


def test_odd_constituent_equals_the_convolution_up_to_the_parity_bound():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(st.sampled_from("AB"), st.integers(1, egf.PARITY_BOUND))
    @hypothesis.example("A", egf.PARITY_BOUND)
    @hypothesis.example("B", egf.PARITY_BOUND)
    def check(family, n):
        hypothesis.assume(family == "B" or n % 2 == 0)  # A is half-integral at even n only
        assert egf._odd_constituent(family, n) == by_convolution(family, n, odd=True)

    check()


def test_lagrange_sum_matches_lambert_w_series():
    # coefficient of t^(n-k): n! [x^n] T^k/k! exp(R), with T and R the
    # paper's Lambert W expressions evaluated as rational series
    order = 8
    for family in "ABCD":
        tree, rest = _exponent_parts(family, order, odd=False)
        exp_rest = rest.exp()
        expected = [[0] * (n + 1) for n in range(order + 1)]
        power = one(order)  # T^k/k!
        for k in range(order + 1):
            forests = power * exp_rest
            for n in range(k, order + 1):
                expected[n][n - k] = forests.egf_value(n)
            power = Fraction(1, k + 1) * (power * tree)
        for n in range(1, order + 1):
            assert egf._polynomial_by_lagrange(family, n) == expected[n], (family, n)


def test_type_a_values_count_forests():
    # at t = 1 the dilate contains one lattice point per forest
    assert egf_ehrhart_values("A", 1, 6) == [1, 1, 2, 7, 38, 291, 2932]


def test_integral_closed_forms():
    """The assembled exponentials collapse to Lambert W expressions."""
    order = 8
    for t in (1, 2, 3):
        w = lambert_w(order).scale_arg(-t)
        wm = lambert_w(order).scale_arg(-2 * t)
        expected_a = ((w + Fraction(1, 2) * (w * w)) * Fraction(-1, t)).exp()
        values = egf_ehrhart_values("A", t, order)
        assert [expected_a.egf_value(n) for n in range(order + 1)] == values

        sqrt_part = wm.pow1p(Fraction(-1, 2))
        quad = Fraction(-1, 4 * t) * (wm * wm)
        for family, linear in (
            ("B", Fraction(-1, 2 * t)),
            ("C", Fraction(-t - 1, 2 * t)),
            ("D", Fraction(t - 1, 2 * t)),
        ):
            closed = (linear * wm + quad).exp() * sqrt_part
            values = egf_ehrhart_values(family, t, order)
            assert [closed.egf_value(n) for n in range(order + 1)] == values


def test_odd_dilation_values_match_forest_census():
    for family in ("A", "B"):
        values = {t: egf_ehrhart_standard_odd(family, t, 4) for t in (1, 3, 5)}
        for n in range(1, 5):
            if is_integral(family, n):
                continue
            census = ehrhart_coxeter(family, n)
            assert egf_ehrhart_quasipolynomial(family, n) == census
            for t, row in values.items():
                assert row[n] == census.evaluate(t)


def test_quasipolynomial_beyond_census_matches_values():
    n = 30
    for family in "ABCD":
        qp = egf_ehrhart_quasipolynomial(family, n)
        assert qp.period == (2 if family in "AB" else 1)
        for t in range(1, 6):
            if qp.period == 1 or t % 2 == 0:
                expected = egf_ehrhart_values(family, t, n)[n]
            else:
                expected = egf_ehrhart_standard_odd(family, t, n)[n]
            assert qp.evaluate(t) == expected, (family, t)


def test_odd_dilation_type_a_vanishes_in_odd_sizes():
    # a half-integral type-A dilate in an odd number of coordinates is the
    # integral case, which this route does not produce
    values = egf_ehrhart_standard_odd("A", 3, 7)
    for n in range(1, 8, 2):
        assert values[n] == 0


def test_odd_dilation_closed_form():
    order = 8
    for t in (1, 3):
        wm = lambert_w(order).scale_arg(-2 * t)
        wp = lambert_w(order).scale_arg(2 * t)
        exponent = Fraction(-1, 4 * t) * (wm + wp) + Fraction(-1, 8 * t) * (wm * wm + wp * wp)
        closed = exponent.exp() * wm.pow1p(Fraction(-1, 2))
        values = egf_ehrhart_standard_odd("B", t, order)
        assert [closed.egf_value(n) for n in range(order + 1)] == values


def test_odd_dilation_input_validation():
    with pytest.raises(ValueError):
        egf_ehrhart_standard_odd("A", 2, 4)
    with pytest.raises(ValueError):
        egf_ehrhart_standard_odd("C", 1, 4)
    with pytest.raises(ValueError):
        egf_ehrhart_standard_odd("D", 3, 4)


def test_component_counts_validates_kind():
    with pytest.raises(ValueError):
        component_counts("forest", 4)
    # bool is an int subclass; True must not pass for an order
    with pytest.raises(ValueError):
        component_counts("tree", True)
