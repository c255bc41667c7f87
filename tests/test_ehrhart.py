"""Tests for quasipolynomials, subset enumeration, and the census routes."""

import json
import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from coxeter_ehrhart import egf, ehrhart
from coxeter_ehrhart.ehrhart import (
    EnumerationLimitError,
    QuasiPolynomial,
    ZonotopeFormatError,
    ZonotopeSpec,
    coxeter_zonotope,
    ehrhart_almost_integral,
    ehrhart_coxeter,
    ehrhart_coxeter_generic,
    parse_zonotope_document,
    load_zonotope_file,
)
from coxeter_ehrhart.egf import component_counts, egf_ehrhart_quasipolynomial
from coxeter_ehrhart.linalg import integer_kernel_basis, rank
from coxeter_ehrhart.roots import is_integral, positive_roots, root_count_and_rank
from helpers import (
    IntegerEchelon,
    census_counts,
    census_quasipolynomial,
    classify_key,
    empty_state,
    extend_state,
    independent_subsets,
    reference_almost_integral,
    reference_census,
    root_item,
    state_key,
)
from series_reference import component_egfs


def test_independent_subsets_distinguishes_repeated_generators():
    subsets = list(independent_subsets([(1, 0), (1, 0)]))
    assert len(subsets) == 3  # empty set plus each copy alone
    assert subsets[0] == ()


def test_independent_subsets_of_rank_two_configuration():
    roots = positive_roots("B", 2).roots
    subsets = list(independent_subsets(roots))
    sizes = sorted(len(s) for s in subsets)
    # every pair of the four roots is independent, no triple can be
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


def test_independent_subsets_empty_input():
    assert list(independent_subsets([], dim=2)) == [()]


def test_quasipolynomial_folding():
    qp = QuasiPolynomial.from_residue_polys([(1, 2), (1, 2, 0)])
    assert qp.period == 1
    assert qp.constituents == ((1, 2),)
    qp = QuasiPolynomial.from_residue_polys([(1,), (0, 1)])
    assert qp.period == 2
    qp = QuasiPolynomial.from_residue_polys([(1, 2), (0, 2), (0, 2), (1, 2), (0, 2), (0, 2)])
    assert qp.period == 3


def test_quasipolynomial_needs_constituents():
    with pytest.raises(ValueError, match="no constituents"):
        QuasiPolynomial.from_residue_polys([])


def test_quasipolynomial_folding_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def trim(coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    def direct(polys, t):
        return sum(c * t**k for k, c in enumerate(polys[t % len(polys)]))

    constituents = st.lists(st.lists(st.integers(-3, 3), max_size=4), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(constituents, st.integers(0, 3), st.integers(2, 3))
    def check(polys, zeros, repeats):
        qp = QuasiPolynomial.from_residue_polys(polys)
        c = len(polys)
        # the period is the smallest divisor of c at which the residue
        # polynomials repeat
        assert c % qp.period == 0
        assert all(trim(polys[r]) == trim(qp.constituents[r % qp.period]) for r in range(c))
        for p in range(1, qp.period):
            if qp.period % p == 0:
                assert any(qp.constituents[r] != qp.constituents[r % p] for r in range(qp.period))
        padded = QuasiPolynomial.from_residue_polys([list(p) + [0] * zeros for p in polys])
        repeated = QuasiPolynomial.from_residue_polys(polys * repeats)
        assert padded == repeated == qp
        for t in range(1, 2 * c * repeats + 1):
            assert qp.evaluate(t) == padded.evaluate(t) == repeated.evaluate(t) == direct(polys, t)

    check()


def test_quasipolynomial_evaluation():
    qp = QuasiPolynomial.from_residue_polys([(1, 4, 7), (0, 2, 7)])
    assert qp.degree == 2
    assert qp.evaluate(1) == 9
    assert qp.evaluate(2) == 37
    assert qp.constituent_for(4) == (1, 4, 7)
    assert qp.constituent_for(7) == (0, 2, 7)
    with pytest.raises(ValueError):
        qp.evaluate(0)


def test_evaluation_of_a_long_constituent_past_64_bits():
    coeffs = [(-1) ** k * (3**k + k) for k in range(41)]
    qp = QuasiPolynomial.from_residue_polys([[0] * 41, coeffs])
    t = 2**64 + 1
    assert qp.evaluate(t) == sum(c * t**k for k, c in enumerate(coeffs))
    assert qp.evaluate(t + 1) == 0


def test_zonotope_spec_validation():
    with pytest.raises(ValueError):
        ZonotopeSpec.make([(0, 0)])
    with pytest.raises(ValueError):
        ZonotopeSpec.make([(1, 0), (1,)])
    with pytest.raises(ValueError):
        ZonotopeSpec.make([], dim=None)
    with pytest.raises(ValueError):
        ZonotopeSpec.make([(1, 0)], shift=(Fraction(1, 2),))
    spec = ZonotopeSpec.make([], dim=2)
    assert spec.dim == 2 and spec.shift == (0, 0)
    assert ZonotopeSpec.make([(1, 2)]).shift_denominator == 1
    assert ZonotopeSpec.make([(1, 2)], shift=("1/2", "2/3")).shift_denominator == 6


def test_segment_quasipolynomial():
    # one generator of length two, shifted by a third of a unit
    qp = ehrhart_almost_integral(ZonotopeSpec.make([(2,)], shift=("1/3",)))
    assert qp.period == 3
    assert qp.constituents == ((1, 2), (0, 2), (0, 2))
    assert [qp.evaluate(t) for t in (1, 2, 3, 4, 5, 6)] == [2, 4, 7, 8, 10, 13]


def test_integer_shift_behaves_like_no_shift():
    plain = ehrhart_almost_integral(ZonotopeSpec.make([(1, 0), (1, 2)]))
    moved = ehrhart_almost_integral(ZonotopeSpec.make([(1, 0), (1, 2)], shift=(5, -3)))
    assert plain == moved
    assert plain.period == 1
    assert plain.constituents == ((1, 2, 2),)


def test_integer_moves_of_the_shift_leave_the_walk_unchanged():
    """The walk reduces the shift's pairings mod c only at the root; the
    steps below it carry them as plain integers, so a large integer move of
    the shift must not change any gate."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def moved_zonotopes(draw):
        d = draw(st.integers(4, 5))
        c = draw(st.integers(1, 6))
        entries = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
        gens = draw(st.lists(entries, min_size=4, max_size=8))
        hypothesis.assume(rank(gens, d) >= 4)
        shift = [Fraction(draw(st.integers(-2 * c, 2 * c)), c) for _ in range(d)]
        move = draw(st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d))
        return gens, shift, move

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(moved_zonotopes())
    @hypothesis.example(
        (
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 1], [1, 0, -1, 1]],
            [Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 6)],
            [10**6, -(10**6), 999_999, -999_999],
        )
    )
    def check(case):
        gens, shift, move = case
        moved = [s + k for s, k in zip(shift, move)]
        expected = ehrhart_almost_integral(ZonotopeSpec(gens, shift))
        assert ehrhart_almost_integral(ZonotopeSpec(gens, moved)) == expected

    check()


def test_lower_dimensional_zonotope():
    qp = ehrhart_almost_integral(ZonotopeSpec.make([(1, 1, 0), (0, 0, 2)]))
    assert qp.period == 1
    # the plane spanned by the generators carries a segment lattice count
    assert qp.constituents == ((1, 3, 2),)


def test_shifted_plane_zonotope():
    # the half-shift is along the span, so odd dilates lose the offset points
    qp = ehrhart_almost_integral(
        ZonotopeSpec.make([(1, 0), (0, 1), (1, 1)], shift=("1/2", 0))
    )
    assert qp.period == 2
    assert qp.constituents == ((1, 3, 3), (0, 1, 3))


def test_forest_census_totals():
    qp = ehrhart_coxeter("A", 4, "integral")
    assert qp.evaluate(1) == 38  # one point per forest at dilation one
    assert qp.constituents[0][3] == 16  # spanning trees
    assert sum(census_counts(positive_roots("B", 2).roots, 2).values()) == 11
    # the one unbalanced cycle of B2, {e1 - e2, e1 + e2}, counts twice
    assert ehrhart_coxeter("B", 2, "integral").evaluate(1) == 12


def assert_census_reads(counts, family, n):
    """Both census readers equal the census keys ``counts`` read the
    reference way."""
    assert ehrhart_coxeter(family, n, "integral") == census_quasipolynomial(counts, family, n, "integral")
    assert ehrhart_coxeter(family, n) == census_quasipolynomial(counts, family, n, "standard")


@pytest.mark.parametrize(
    "family, n",
    [("A", n) for n in range(1, 7)]
    + [(f, n) for f in "BC" for n in range(1, 5)]
    + [("D", n) for n in range(1, 6)],
)
def test_forest_census_matches_classify_reference(family, n):
    assert_census_reads(reference_census(family, n), family, n)


def test_extend_state_agrees_with_echelon_and_classify():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from("ABCD"), st.integers(1, 5), st.data())
    def check(family, n, data):
        roots = data.draw(st.permutations(positive_roots(family, n).roots))
        roots = roots[: data.draw(st.integers(0, len(roots)))]
        state, echelon, accepted = empty_state(n), IntegerEchelon(n), []
        for root in roots:
            stepped = extend_state(state, root_item(root))
            extended = echelon.try_add(root)
            assert (stepped is None) == (extended is None)
            if stepped is not None:
                state, echelon = stepped, extended
                accepted.append(root)
        assert state_key(state) == classify_key(accepted, n)

    check()


def test_forest_census_is_independent_of_root_order():
    # another root order merges components in another order, so a
    # relabelling that gave two different states one code would miscount
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from("ABCD"), st.data())
    def check(family, data):
        n = data.draw(st.integers(1, 5 if family == "A" else 4))
        roots = data.draw(st.permutations(positive_roots(family, n).roots))
        assert census_counts(roots, n) == reference_census(family, n)

    check()


@pytest.mark.parametrize(
    "family, n",
    [("A", n) for n in range(1, 9)] + [(f, n) for f in "BCD" for n in range(1, 7)],
)
def test_forest_census_matches_labeled_reference(family, n):
    # the labeled pass tracks every vertex's component and switching
    # potential, so it checks that a state can forget the vertex labels
    assert_census_reads(census_counts(positive_roots(family, n).roots, n), family, n)


@pytest.mark.parametrize("family, top", [("A", 15), ("B", 10), ("C", 10), ("D", 12)])
def test_census_route_matches_egf_route(family, top):
    # well past the labeled references, for both variants
    for n in range(1, top + 1):
        assert ehrhart_coxeter(family, n, "integral") == egf_ehrhart_quasipolynomial(family, n, "integral"), n
        assert ehrhart_coxeter(family, n) == egf_ehrhart_quasipolynomial(family, n, "standard"), n


def test_forest_census_total_beyond_reference_range():
    # a type-D independent subset is a forest of signed trees and unbalanced
    # pseudotrees, so there are 6! [x^6] exp(signed trees + pseudotrees)
    comps = component_egfs(6)
    total = (comps.signed_tree + comps.signed_pseudotree).exp().egf_value(6)
    assert sum(census_counts(positive_roots("D", 6).roots, 6).values()) == total == 360280


@pytest.mark.parametrize(
    "family, n, kinds, total",
    [
        ("A", 7, ("tree",), 36961),
        ("B", 5, ("signed_tree", "signed_pseudotree", "signed_halfedge_tree"), 38174),
        ("C", 5, ("signed_tree", "signed_pseudotree", "signed_loop_tree"), 38174),
        ("D", 5, ("signed_tree", "signed_pseudotree"), 13038),
        ("A", 8, ("tree",), 561948),
        ("B", 6, ("signed_tree", "signed_pseudotree", "signed_halfedge_tree"), 1023477),
        ("C", 6, ("signed_tree", "signed_pseudotree", "signed_loop_tree"), 1023477),
        ("D", 6, ("signed_tree", "signed_pseudotree"), 360280),
    ],
)
def test_forest_census_total_matches_component_counts(family, n, kinds, total):
    # an independent subset is a forest of the family's components, so there
    # are n! [x^n] exp(A) of them for A the sum of the component series
    counts = [sum(column) for column in zip(*(component_counts(kind, n) for kind in kinds))]
    exp = [1]  # m! [x^m] exp(A) by E_m = sum_s C(m-1, s-1) A_s E_(m-s)
    for m in range(1, n + 1):
        exp.append(sum(comb(m - 1, s - 1) * counts[s] * exp[m - s] for s in range(1, m + 1)))
    assert sum(census_counts(positive_roots(family, n).roots, n).values()) == exp[n] == total


def test_census_limit_guard(monkeypatch):
    # the census counts its partial merges, A9 957 of them, B7 2,761 and
    # A12 4,669; a lowered bound keeps the refusals cheap
    monkeypatch.setattr(ehrhart, "MERGE_BOUND", 1_000)
    assert ehrhart_coxeter("A", 9, "integral") == egf_ehrhart_quasipolynomial("A", 9, "integral")
    with pytest.raises(EnumerationLimitError, match="merge bound of 1000"):
        ehrhart_coxeter("B", 7, "integral")
    with pytest.raises(EnumerationLimitError):
        ehrhart_coxeter("A", 12)


def test_integral_census_matches_reference_rows():
    expected = {
        ("A", 1): (1,),
        ("A", 2): (1, 1),
        ("A", 3): (1, 3, 3),
        ("A", 4): (1, 6, 15, 16),
        ("B", 1): (1, 1),
        ("B", 2): (1, 4, 7),
        ("B", 3): (1, 9, 39, 87),
        ("B", 4): (1, 16, 126, 608, 1553),
        ("C", 1): (1, 2),
        ("C", 2): (1, 6, 14),
        ("C", 3): (1, 12, 66, 172),
        ("C", 4): (1, 20, 192, 1080, 3036),
        ("D", 2): (1, 2, 2),
        ("D", 3): (1, 6, 18, 32),
        ("D", 4): (1, 12, 72, 280, 636),
    }
    for (family, n), coeffs in expected.items():
        qp = ehrhart_coxeter(family, n, "integral")
        assert qp.period == 1
        assert qp.constituents == (coeffs,)


def test_standard_census_matches_reference_rows():
    expected = {
        ("A", 2): ((1, 1), (0, 1)),
        ("A", 4): ((1, 6, 15, 16), (0, 0, 3, 16)),
        ("B", 1): ((1, 1), (0, 1)),
        ("B", 2): ((1, 4, 7), (0, 2, 7)),
        ("B", 3): ((1, 9, 39, 87), (0, 0, 6, 87)),
        ("B", 4): ((1, 16, 126, 608, 1553), (0, 0, 12, 212, 1553)),
    }
    for (family, n), (even, odd) in expected.items():
        qp = ehrhart_coxeter(family, n)
        assert qp.period == 2
        assert qp.constituents == (even, odd)


def test_standard_census_of_integral_families_has_period_one():
    for family, n in [("A", 3), ("C", 3), ("D", 3)]:
        qp = ehrhart_coxeter(family, n)
        assert qp.period == 1
        assert qp == ehrhart_coxeter(family, n, "integral")


def test_coxeter_zonotope_variants():
    std = coxeter_zonotope("B", 2, "standard")
    assert std.shift == (Fraction(1, 2), Fraction(1, 2))
    integral = coxeter_zonotope("B", 2, "integral")
    assert integral.shift == (0, 0)
    assert std.generators == integral.generators
    with pytest.raises(ValueError):
        coxeter_zonotope("B", 2, "centered")


def test_generic_route_agrees_with_census():
    for family in "ABCD":
        for n in range(1, 6):
            for variant in ("standard", "integral"):
                census = ehrhart_coxeter(family, n, variant)
                generic = ehrhart_almost_integral(coxeter_zonotope(family, n, variant))
                assert census == generic, (family, n, variant)


def test_generic_walk_matches_subset_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def shifted_zonotopes(draw):
        d = draw(st.integers(1, 5))
        entries = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        # combinations of at most `rank` spanning vectors: often rank-deficient
        rank = draw(st.integers(1, d))
        spanning = draw(st.lists(entries, min_size=rank, max_size=rank))
        mix = st.lists(st.integers(-1, 1), min_size=rank, max_size=rank)
        gens = [
            tuple(sum(m * v[j] for m, v in zip(coeffs, spanning)) for j in range(d))
            for coeffs in draw(st.lists(mix, max_size=7))
        ]
        gens = [g for g in gens if any(g)]
        if gens:
            # repeated (factor 1) and parallel copies of drawn generators
            copy = st.tuples(st.integers(0, len(gens) - 1), st.sampled_from([-2, -1, 1, 2]))
            copies = draw(st.lists(copy, max_size=2))
            gens += [tuple(k * x for x in gens[i]) for i, k in copies]
        den = draw(st.integers(1, 6))
        shift = [Fraction(draw(st.integers(-2 * den, 2 * den)), den) for _ in range(d)]
        return ZonotopeSpec.make(gens, shift, dim=d)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(shifted_zonotopes())
    @hypothesis.example(ZonotopeSpec.make([(1, 0), (1, 0), (-2, 0)], ("1/2", "1/3")))
    @hypothesis.example(
        ZonotopeSpec.make([(2, 0, 2), (0, 2, 0), (1, 1, 1), (1, 1, 1)], ("1/6", "1/2", "1/3"))
    )
    # d = 1: two zero rows pad the single row to three; its columns share one
    # direction of weight sum |entries|
    @hypothesis.example(ZonotopeSpec.make([(2,), (-3,), (1,)], ("1/2",)))
    # rank 2 in Z^3 (the plane x - y + z = 0): the root reduction leaves two
    # rows and one vanishing row, and one zero row pads the root to three
    @hypothesis.example(
        ZonotopeSpec.make([(1, 1, 0), (0, 1, 1), (1, 2, 1), (2, 0, -2)], ("1/2", "1/3", "1/6"))
    )
    # (1, 0) and (2, 0) share a direction at the padded root: no pair, weight 3
    @hypothesis.example(ZonotopeSpec.make([(1, 0), (2, 0), (0, 1)], ("1/2", "1/4")))
    # (0, 4, 2) is a column of gcd 2 at the three-row root: direction weight 2
    @hypothesis.example(ZonotopeSpec.make([(1, 0, 0), (0, 4, 2), (1, 2, 4)], ("1/3", "1/2", 0)))
    # (2, 2, 1, 0) = 2 * (1, 0, 0, 0) + (0, 2, 1, 0): at the four-row root,
    # modulo either summand it lies in one plane with the other
    @hypothesis.example(
        ZonotopeSpec.make(
            [(1, 0, 0, 0), (0, 2, 1, 0), (2, 2, 1, 0), (0, 0, 1, 1), (1, 0, 0, 2)], ("1/2", "1/3", 0, "1/2")
        )
    )
    # one basis: at the three-row root the triple e_1, e_2, (0, 0, 3) has det 3
    @hypothesis.example(ZonotopeSpec.make([(1, 0, 0), (0, 1, 0), (0, 0, 3)], ("1/2", "1/3", "1/3")))
    # no generators: only the empty subset, gated by the shift alone (the
    # root is three zero rows of padding with no entries)
    @hypothesis.example(ZonotopeSpec.make([], ("1/2", "1/3"), dim=2))
    # rank 2: one zero row pads the root to the three-row level
    @hypothesis.example(ZonotopeSpec.make([(1, 2), (2, 1), (1, -1), (3, 0), (2, 4)], ("1/2", "1/3")))
    # rank 1 in Z^3: two zero rows pad the single row, the two vanishing rows gate it
    @hypothesis.example(ZonotopeSpec.make([(1, 2, -1), (-2, -4, 2), (3, 6, -3)], ("1/2", "1/4", 0)))
    # generators in z = 0 and shift z = 1/2: the vanishing row e_3 gates
    # every subset, the bases too, to even dilations
    @hypothesis.example(ZonotopeSpec.make([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0)], ("1/3", 0, "1/2")))
    # c = 6: the child {(2, 0)} reads p x q for the column's direction
    # p = (1, 0, 0), (0, 0, 3), with gate 2; the column itself would give
    # (0, 0, 6) and gate 1
    @hypothesis.example(ZonotopeSpec.make([(2, 0), (1, 1), (1, -2)], ("1/3", "1/2")))
    # rank 3: the root is already the three-row level; (2, 0, -2) and
    # (0, 3, 3) are columns of gcd 2 and 3
    @hypothesis.example(
        ZonotopeSpec.make(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, -1, 2), (2, 0, -2), (0, 3, 3)], ("1/2", "1/3", "1/6")
        )
    )
    # rank 4: modulo (1, 0, 0, 0) the columns of (0, 1, 0, 0) and (1, -2, 0, 0)
    # are parallel, of contents 1 and 2: one plane with it, of weight 3
    @hypothesis.example(
        ZonotopeSpec.make(
            [(1, 0, 0, 0), (0, 1, 0, 0), (1, -2, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 1, -1)],
            ("1/2", "1/3", 0, "1/2"),
        )
    )
    # (1, 0, 0), (0, 1, 0) and (1, 1, 0) are distinct coplanar directions:
    # det 0, no basis; each pair of them with (1, 0, -1) has det -1, -1 or 1
    @hypothesis.example(ZonotopeSpec.make([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, -1)], ("1/2", 0, "1/3")))
    # c = 6, q = (0, 1, 3): the pair (1, 0, 0), (1, 2, 0) has nu = (0, 0, 2),
    # h = 2 and residue nu.q / h = 3, so gate 2, while each single has gate 6;
    # nu.q = 6 itself would give gate 1
    @hypothesis.example(ZonotopeSpec.make([(1, 0, 0), (1, 2, 0), (0, 0, 1)], (0, "1/6", "1/2")))
    # rank 2 in Z^4: one zero row pads the root beside two vanishing rows,
    # and the pair (1, 1, 0, 0), (1, -1, -2, 0) spans an index-2 sublattice
    @hypothesis.example(
        ZonotopeSpec.make(
            [(1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0), (1, -1, -2, 0), (-1, -1, 0, 0)], ("1/2", "1/3", "1/6", "1/2")
        )
    )
    # rank 1 in Z^2, c = 6: two zero rows pad the root; the columns 2, -1 and 3
    # of (2, 4), (-1, -2) and (3, 6) share one direction of weight 6
    @hypothesis.example(ZonotopeSpec.make([(2, 4), (-1, -2), (3, 6)], ("1/6", "1/3")))
    # rank 4, so the root is the four-row level: modulo e_1 the later columns
    # e_2, (1, 2, 0, 0) and (-1, 1, 0, 0) lie in one plane with e_1, of
    # contents 1, 2 and 1, and are scored as one of weight 4
    @hypothesis.example(
        ZonotopeSpec.make(
            [(1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 0, 0), (-1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (1, 0, 1, -1)],
            ("1/2", "1/3", 0, "1/2"),
        )
    )
    # c = 6, q = (0, 1, 3, 0): the pair e_1, (1, 2, 0, 0) has h = 2 and minors
    # with q (6, 0, 0, 0), so gate gcd(6, 6 / 2) = 3 (span(e_1, e_2) + t * shift
    # meets the lattice at even t); without the division it would read 6
    @hypothesis.example(ZonotopeSpec.make([(1, 0, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], (0, "1/6", "1/2", 0)))
    # e_1, e_2, (1, 1, 0, 0) is a dependent triple, and e_1, e_2, e_3,
    # (1, 1, 1, 0) a dependent quadruple whose triples are all independent
    @hypothesis.example(
        ZonotopeSpec.make(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)], ("1/2", 0, "1/3", "1/2")
        )
    )
    # rank 4 in Z^5: the vanishing row e_5 pairs with c * shift = 3 at c = 6,
    # so g0 = 3 and every subset, the bases too, counts at even dilations only
    @hypothesis.example(
        ZonotopeSpec.make(
            [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 0), (0, 1, 1, -1, 0), (2, 0, 1, 0, 0)],
            ("1/3", 0, "1/2", 0, "1/2"),
        )
    )
    def check(zonotope):
        assert ehrhart_almost_integral(zonotope) == reference_almost_integral(zonotope)

    check()


def test_walk_merges_parallel_columns_and_stops_gating_below_a_full_gate():
    # Nodes of more than four rows merge the columns parallel in their frame
    # into one, of the summed content; below a node at the full gate g0 the
    # walk computes no gates.  Rank 5 and 6 reach such nodes at the root and,
    # for rank 6, one step below it.
    e = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    cases = [
        # at the node {e_1} the columns of e_2, e_1 + e_2 and e_1 + 2 e_2 are
        # e_2, e_2 and 2 e_2: one column of content 4, where dropping any
        # member's content gives 3 or 2; the shift e_1 / 2 makes that node's
        # gate full, and the root's is not
        ZonotopeSpec([*e, (1, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0)], ("1/2", 0, 0, 0, 0, 0)),
        # rank 5, period 1: e_3, -2 e_3 and 3 e_3 merge at the root, content 6
        ZonotopeSpec([v[:5] for v in e[:5]] + [(0, 0, -2, 0, 0), (0, 0, 3, 0, 0)], (0, 1, 0, -1, 0)),
    ]
    rng = random.Random(3434)
    while len(cases) < 26:
        r = rng.choice((5, 6))
        d = rng.choice((r, 6))
        gens = [tuple(rng.randint(-1, 1) for _ in range(d)) for _ in range(r)]
        if rank(gens, d) < r:
            continue
        while len(gens) < r + 3:
            a, b = rng.choice(gens), rng.choice(gens)
            # a multiple, a negation or a sum of generators already drawn
            g = rng.choice((tuple(2 * x for x in a), tuple(-x for x in a), tuple(x + y for x, y in zip(a, b))))
            if any(g):
                gens.append(g)
        if rng.random() < 0.5:
            shift = [rng.randint(-2, 2) for _ in range(d)]
        else:
            # a rational point of the span of one or two generators, moved by
            # an integer vector: the gate is full once they are in W
            den = rng.choice((2, 3, 4))
            shift = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            for g in rng.sample(gens, rng.randint(1, 2)):
                share = Fraction(rng.randint(1, den - 1), den)
                shift = [s + share * x for s, x in zip(shift, g)]
        cases.append(ZonotopeSpec(gens, shift, d))
    for zonotope in cases:
        assert ehrhart_almost_integral(zonotope) == reference_almost_integral(zonotope), zonotope


def test_walk_steps_only_above_four_rows(monkeypatch):
    # A node of four rows scores every subset below it from minors, so the
    # walk steps only from nodes of five rows or more.
    rows_seen = []
    step = ehrhart.kernel_step

    def recording_step(rows, column):
        rows_seen.append(len(rows))
        return step(rows, column)

    monkeypatch.setattr(ehrhart, "kernel_step", recording_step)
    assert ehrhart_almost_integral(coxeter_zonotope("D", 5)) == ehrhart_coxeter("D", 5)
    assert ehrhart_almost_integral(coxeter_zonotope("A", 6, "integral")) == ehrhart_coxeter("A", 6, "integral")
    rng = random.Random(3535)
    cases = 0
    while cases < 8:
        r = rng.choice((5, 6))
        d = rng.choice((r, r + 1))
        # in Z^(r + 1) the last row vanishes on every generator
        gens = [tuple(rng.randint(-1, 1) for _ in range(r)) + (0,) * (d - r) for _ in range(r + 3)]
        if not all(map(any, gens)) or rank(gens, d) < r:
            continue
        shift = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(d)]
        zonotope = ZonotopeSpec(gens, shift, d)
        assert ehrhart_almost_integral(zonotope) == reference_almost_integral(zonotope), zonotope
        cases += 1
    assert rows_seen and min(rows_seen) > 4, sorted(set(rows_seen))


def test_generic_walk_rank_two_stays_within_pairs():
    # 2,235 directions (1, k) in Z^2 are just admitted by the subset bound.
    # The padded root sums their C(2235, 2) pairs as bases and forms none of
    # the C(2235, 3) ~ 1.9e9 coplanar triples.
    n = 2235
    assert sum(comb(n, k) for k in range(3)) <= ehrhart.SUBSET_BOUND
    zonotope = ZonotopeSpec.make([(1, k) for k in range(n)], (0, 0))
    start = time.process_time()
    qp = ehrhart_almost_integral(zonotope)
    elapsed = time.process_time() - start
    # the pair (1, i), (1, j) has det j - i, and sum_{i < j} (j - i) = C(n + 1, 3)
    assert qp == QuasiPolynomial.from_residue_polys([[1, n, comb(n + 1, 3)]])
    assert elapsed < 5, elapsed


def test_period_matches_integrality():
    from coxeter_ehrhart.roots import is_integral

    for family in "ABCD":
        for n in range(1, 5):
            qp = ehrhart_coxeter(family, n)
            assert qp.period == (1 if is_integral(family, n) else 2), (family, n)


def test_evaluations_are_monotone_nonnegative_integers():
    # both polytope variants contain the origin, so dilates nest
    for family in "ABCD":
        for n in range(1, 5):
            for qp in (ehrhart_coxeter(family, n), ehrhart_coxeter(family, n, "integral")):
                values = [qp.evaluate(t) for t in range(1, 8)]
                assert all(isinstance(v, int) and v >= 0 for v in values)
                assert all(a <= b for a, b in zip(values, values[1:])), (family, n)


def test_constituent_constant_terms():
    # the even class contains the empty subset, the odd class never does:
    # an isolated vertex is an odd tree component
    for family in "ABCD":
        for n in range(1, 5):
            qp = ehrhart_coxeter(family, n)
            assert qp.constituents[0][0] == 1
            if qp.period == 2:
                assert qp.constituents[1][0] == 0


def test_parse_zonotope_document():
    spec = parse_zonotope_document('{"generators": [[1, 0], [0, 2]], "shift": ["1/2", 1]}')
    assert spec.generators == ((1, 0), (0, 2))
    assert spec.shift == (Fraction(1, 2), Fraction(1))
    spec = parse_zonotope_document('{"generators": [[3]]}')
    assert spec.shift == (0,)


def test_parse_zonotope_document_errors():
    cases = {
        "not json": "line 1",
        "[1, 2]": "object",
        '{"shift": [1]}': "generators",
        '{"generators": [[1, 0]], "extra": 1}': "extra",
        '{"generators": [[1, "x"]]}': "generators[0]",
        '{"generators": [[1, 0], [1]]}': "generators[1]",
        '{"generators": [[0, 0]]}': "generators[0]",
        '{"generators": [[1, 0]], "shift": [true, 0]}': "shift[0]",
        '{"generators": [[1, 0]], "shift": ["1/2"]}': "shift",
        '{"generators": [[1, 0]], "shift": ["x", 0]}': "shift[0]",
        '{"generators": []}': "generators",
    }
    for text, needle in cases.items():
        with pytest.raises(ZonotopeFormatError) as err:
            parse_zonotope_document(text)
        assert needle in str(err.value), text


def test_parse_zonotope_document_refuses_integers_past_the_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in (
            '{"generators": [[%s, 0]]}' % ("1" * 701),
            '{"generators": [[1, 0]], "shift": [%s, 0]}' % ("2" * 701),
        ):
            with pytest.raises(ZonotopeFormatError, match="too long"):
                parse_zonotope_document(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_library_and_file_read_entries_by_one_rule():
    # ZonotopeSpec refuses exactly the entries a zonotope file refuses, and
    # both build the same spec otherwise; a Fraction goes into the file as
    # its "p/q" text
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    texts = ["1/2", "2/4", "-3", "+07", "0.5", "1e2", " 1/2", "1_000/3", "1/0", "\u0661/2"]
    entry = st.one_of(
        st.integers(-3, 3),
        st.fractions(max_denominator=4),
        st.booleans(),
        st.floats(),
        st.sampled_from(texts),
        st.text(max_size=3),
    )

    def documents(d):
        vector = st.lists(entry, min_size=d, max_size=d)
        return st.tuples(st.lists(vector, max_size=3), st.none() | vector)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(1, 3).flatmap(documents))
    @hypothesis.example(([[1, 0]], ["1e2", " 1/2"]))
    @hypothesis.example(([[1, 0]], [0.5, 0]))
    @hypothesis.example(([[2.0, 0]], None))
    @hypothesis.example(([[1, 0]], [Fraction(4, 2), "2/4"]))
    def check(case):
        generators, shift = case
        document = {"generators": generators}
        if shift is not None:
            document["shift"] = shift
        text = json.dumps(document, default=str)
        try:
            spec = ZonotopeSpec.make(generators, shift)
        except ValueError:
            with pytest.raises(ZonotopeFormatError):
                parse_zonotope_document(text)
        else:
            assert parse_zonotope_document(text) == spec

    check()


def test_zonotope_spec_refuses_a_dimension_that_is_not_a_positive_int():
    for dim in (True, 2.0, 0):
        with pytest.raises(ValueError, match=f"ambient dimension must be positive and an int, got {dim!r}"):
            ZonotopeSpec([], dim=dim)


def test_zonotope_spec_make_and_replace_check_entries_as_the_constructor_does():
    spec = ZonotopeSpec([(1, 0)], ("1/2", 0))
    assert spec._replace(shift=("1/3", 1)) == ZonotopeSpec([(1, 0)], ("1/3", 1))
    assert ZonotopeSpec._make(spec) == spec
    for bad in (
        lambda: spec._replace(shift=(0.5, "x")),
        lambda: spec._replace(generators=[(True, 0)]),
        lambda: spec._replace(generators=[(0, 0)]),
        lambda: spec._replace(dim=3),
        lambda: ZonotopeSpec._make(([(2.0, 0)], None, 2)),
        lambda: ZonotopeSpec._make(([(1, 0)], ("1/0", 0), 2)),
    ):
        with pytest.raises(ValueError):
            bad()


def test_load_zonotope_file(tmp_path):
    path = tmp_path / "zono.json"
    path.write_text('{"generators": [[1, -1], [1, 1]], "shift": ["1/2", "1/2"]}')
    spec = load_zonotope_file(str(path))
    qp = ehrhart_almost_integral(spec)
    # both generators pair integrally with the half-half shift, the empty
    # subset does not, so only the constant term is parity-sensitive
    assert qp.period == 2
    assert qp.constituents == ((1, 2, 2), (0, 2, 2))


def test_generator_count_guard():
    # the bound counts subsets up to the rank: 28 unit vectors allow 2^28
    units = [tuple(int(i == j) for j in range(28)) for i in range(28)]
    with pytest.raises(EnumerationLimitError):
        ehrhart_almost_integral(ZonotopeSpec.make(units))
    # while 29 parallel copies allow only the empty set and 29 singletons
    assert ehrhart_almost_integral(ZonotopeSpec.make([(1, 0)] * 29)).constituents == ((1, 29),)


def test_period_and_coordinate_guards_admit_their_bound(monkeypatch):
    # lowered bounds: the walk keeps one list per residue mod the shift
    # denominator, and the egf route's cost grows with the coordinate count,
    # faster for the odd constituent of a half-integral request
    monkeypatch.setattr(ehrhart, "PERIOD_BOUND", 6)
    monkeypatch.setattr(egf, "COORDINATE_BOUND", 7)
    monkeypatch.setattr(egf, "PARITY_BOUND", 4)
    assert ehrhart_almost_integral(ZonotopeSpec.make([(1,)], shift=(Fraction(1, 6),))).period == 6
    with pytest.raises(EnumerationLimitError, match="period bound of 6"):
        ehrhart_almost_integral(ZonotopeSpec.make([(1,)], shift=(Fraction(1, 7),)))
    assert egf_ehrhart_quasipolynomial("A", 7) == ehrhart_coxeter("A", 7)
    assert egf_ehrhart_quasipolynomial("A", 6, "integral") == ehrhart_coxeter("A", 6, "integral")
    for family, n, variant in (("A", 8, "integral"), ("C", 8, "standard")):
        with pytest.raises(EnumerationLimitError, match="coordinate bound of 7"):
            egf_ehrhart_quasipolynomial(family, n, variant)
    assert egf_ehrhart_quasipolynomial("B", 4) == ehrhart_coxeter("B", 4)
    for family, n in (("B", 5), ("A", 6)):
        with pytest.raises(EnumerationLimitError, match="parity bound of 4"):
            egf_ehrhart_quasipolynomial(family, n)


def test_zonotope_spec_is_an_immutable_value():
    spec = ZonotopeSpec.make([(1, 0), (1, 1)], shift=("1/2", 0))
    same = ZonotopeSpec([[1, 0], [1, 1]], (Fraction(1, 2), 0), 2)
    assert spec == same and hash(spec) == hash(same)
    assert spec.generators == ((1, 0), (1, 1)) and spec.shift == (Fraction(1, 2), Fraction(0))
    assert spec != ZonotopeSpec.make([(1, 0), (1, 1)])
    assert spec.shift_denominator == 2
    with pytest.raises(AttributeError):
        spec.dim = 3
    for args, message in (
        (((), (), 0), "ambient dimension must be positive"),
        ((((1, 0),), (0,), 2), "shift has dimension 1, expected 2"),
        ((((1, 0, 0),), (0, 0), 2), r"generator \(1, 0, 0\) has dimension 3, expected 2"),
        ((((0, 0),), (0, 0), 2), "zero generators are not allowed"),
        ((((1, 0.5),), (0, 0), 2), "non-integer entry 0.5"),
        ((((True, 0),), (0, 0), 2), "non-integer entry True"),
    ):
        with pytest.raises(ValueError, match=message):
            ZonotopeSpec(*args)
    with pytest.raises(ValueError, match="dimension is required"):
        ZonotopeSpec.make([])


def test_quasipolynomial_is_an_immutable_value():
    qp = QuasiPolynomial(2, ((1, 4, 7), (0, 2, 7)))
    assert qp == QuasiPolynomial.from_residue_polys([[1, 4, 7], [0, 2, 7]]) == ehrhart_coxeter("B", 2)
    assert hash(qp) == hash(ehrhart_coxeter("B", 2))
    assert {qp: "B2"}[egf_ehrhart_quasipolynomial("B", 2)] == "B2"
    assert qp != QuasiPolynomial(1, ((1, 4, 7),))
    assert (qp.degree, qp.evaluate(3)) == (2, 69)
    with pytest.raises(AttributeError):
        qp.period = 1
    for period, constituents in ((0, ()), (2, ((1,),)), (1, ((1,), (1,)))):
        with pytest.raises(ValueError, match="constituent count must equal the period"):
            QuasiPolynomial(period, constituents)


# The largest permutahedron of each family under the subset bound.
_SUBSET_REACH = {"A": 8, "B": 6, "C": 6, "D": 6}


@pytest.mark.parametrize("family", sorted(_SUBSET_REACH))
def test_generic_route_guard_reads_the_walks_own_verdict(family, monkeypatch):
    reach = _SUBSET_REACH[family]
    for n in range(1, reach + 2):
        # the walk's verdict comes from the generators it is given and their
        # rank; the early one from the closed form
        gens = coxeter_zonotope(family, n).generators
        assert root_count_and_rank(family, n) == (len(gens), n - len(integer_kernel_basis(gens, n)))
        try:
            ehrhart._check_subsets(*root_count_and_rank(family, n))
        except EnumerationLimitError:
            assert n == reach + 1
        else:
            assert n <= reach
    with pytest.raises(EnumerationLimitError, match="subset bound") as walk:
        ehrhart_almost_integral(coxeter_zonotope(family, reach + 1))
    monkeypatch.setattr(ehrhart, "positive_roots", None)
    with pytest.raises(EnumerationLimitError) as early:
        ehrhart_coxeter_generic(family, reach + 1)
    assert str(early.value) == str(walk.value)


def test_refusals_give_long_numbers_as_digit_counts():
    for denominator, shown in (
        (10**15 - 1, "999999999999999"),
        (10**15, "of 16 digits"),
        (2**60, "of 19 digits"),
        (10**5000 + 1, "of 5001 digits"),
    ):
        with pytest.raises(EnumerationLimitError) as err:
            ehrhart_almost_integral(ZonotopeSpec.make([(1,)], shift=(Fraction(1, denominator),)))
        assert str(err.value) == (
            f"the shift denominator {shown} is above the period bound of {ehrhart.PERIOD_BOUND}"
        )
