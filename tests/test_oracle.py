"""Tests for the brute-force membership, counting, and enumeration oracles."""

import itertools
import math
import re
from fractions import Fraction

import pytest

from coxeter_ehrhart import linalg, oracle
from coxeter_ehrhart.egf import SEQUENCE_KINDS, component_counts, egf_ehrhart_quasipolynomial
from coxeter_ehrhart.ehrhart import (
    EnumerationLimitError,
    ZonotopeSpec,
    coxeter_zonotope,
    ehrhart_almost_integral,
    ehrhart_coxeter,
)
from coxeter_ehrhart.roots import positive_roots
from coxeter_ehrhart.oracle import (
    SIGNED_STRUCTURE_MAX,
    ORBIT_BOUND,
    UNSIGNED_STRUCTURE_MAX,
    _facets,
    _orbit_sum,
    _solve_dependent,
    brute_force_structures,
    count_points,
)
from helpers import _geometry, dot, echelon_rank, integer_kernel_basis, reference_structures, zonotope_contains


def test_count_points_reference_values():
    assert count_points(coxeter_zonotope("B", 2, "standard"), 1) == 9
    assert count_points(coxeter_zonotope("C", 2, "standard"), 1) == 21
    assert count_points(coxeter_zonotope("D", 2, "standard"), 1) == 5
    assert count_points(coxeter_zonotope("A", 3, "standard"), 1) == 7
    assert count_points(coxeter_zonotope("B", 2, "integral"), 1) == 12


def test_count_points_tracks_quasipolynomial():
    qp = ehrhart_coxeter("B", 2)
    spec = coxeter_zonotope("B", 2, "standard")
    for t in range(1, 6):
        assert count_points(spec, t) == qp.evaluate(t)


def test_membership_certificates_full_dimensional():
    spec = ZonotopeSpec.make([(1, 0), (0, 1)])
    inside = zonotope_contains(spec, 2, (1, 1))
    assert inside and inside.verdict
    assert inside.witness is None
    outside = zonotope_contains(spec, 2, (3, 0))
    assert not outside
    assert outside.witness[0] == "facet"


def test_membership_certificates_segment():
    spec = ZonotopeSpec.make([(2, 4)])
    assert zonotope_contains(spec, 1, (1, 2))
    assert zonotope_contains(spec, 1, (0, 0)) and zonotope_contains(spec, 1, (2, 4))
    off_line = zonotope_contains(spec, 1, (1, 1))
    assert not off_line and off_line.witness[0] == "affine-hull"
    past_end = zonotope_contains(spec, 1, (3, 6))
    assert not past_end and past_end.witness[0] == "facet"
    _, _, lhs, rhs = past_end.witness
    assert lhs > rhs


def test_membership_certificates_point():
    spec = ZonotopeSpec.make([], shift=("1/2",), dim=1)
    assert zonotope_contains(spec, 2, (1,))
    assert not zonotope_contains(spec, 2, (0,))
    assert count_points(spec, 1) == 0
    assert count_points(spec, 2) == 1


def _membership_scan(spec, t):
    """Points of the bounding box that the rational membership test accepts."""
    low = [
        math.ceil(t * s + t * sum(min(g[i], 0) for g in spec.generators))
        for i, s in enumerate(spec.shift)
    ]
    high = [
        math.floor(t * s + t * sum(max(g[i], 0) for g in spec.generators))
        for i, s in enumerate(spec.shift)
    ]
    return sum(
        1
        for point in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(low, high)))
        if zonotope_contains(spec, t, point)
    )


def test_count_agrees_with_membership_scan():
    specs = [
        coxeter_zonotope("B", 2, "standard"),
        ZonotopeSpec.make([(1, 1, 0), (0, 0, 2)]),
        ZonotopeSpec.make([(2,)], shift=("1/3",)),
        ZonotopeSpec.make([(1, 0), (1, 2), (0, 1)], shift=("1/2", "1/3")),
        ZonotopeSpec.make([], shift=("1/3", 2), dim=2),
        ZonotopeSpec.make([(2, 4), (-1, -2), (1, 2)], shift=("1/2", 1)),
        # the (rank-1)-subset {(1,0,0), (2,0,0)} spans no hyperplane
        ZonotopeSpec.make([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)], shift=("1/2", 0, "1/3")),
        # rank 2 in Z^4 and rank 1 in Z^3: two dependent coordinates
        ZonotopeSpec.make([(1, 1, 0, 0), (0, 1, 1, 2)], shift=("1/2", 0, 0, "1/3")),
        ZonotopeSpec.make([(1, 2, -1)], shift=(0, "1/2", 0)),
        # kernel (2, 4, -1): the dependent coordinate's minor is 4, so the
        # line coordinate must satisfy a congruence mod 4 that some lines miss
        ZonotopeSpec.make([(-2, 1, 0), (-1, 1, 2)]),
        # the facets with normals e_0 and e_1 have zero weight on the line x_2
        ZonotopeSpec.make([(1, 0, 0), (0, 1, 0), (0, 0, 3), (1, 1, 0)], shift=("1/2", 0, "1/3")),
        # an outer level carries a congruence of its own: a scan whose outer
        # levels ignore it counts 24, 125 and 364, not 16, 75 and 208
        ZonotopeSpec.make([(0, -2, 1, 1), (-2, 2, 0, 1), (0, 1, 2, 2)]),
        # a congruence left with no coefficient fails at odd t, so the
        # count is 0 there; without that check it is 3 at t = 1
        ZonotopeSpec.make([(2, 4, 6, 2)], shift=(0, "1/2", 0, 0)),
        # copies of g and -g: one direction for the facet search, but each
        # copy moves the facets by its own length
        ZonotopeSpec.make([(1, 1, 0), (-1, -1, 0), (1, 1, 0), (0, 1, 2), (0, -2, -4), (1, 0, 1)], shift=("1/2", 0, "1/3")),
    ]
    for spec in specs:
        for t in (1, 2, 3):
            assert count_points(spec, t) == _membership_scan(spec, t), (spec, t)
            # the scan reads the facets of oracle._facets on each projection,
            # the membership test those of helpers._geometry on the zonotope,
            # and the formula reads no facets
            assert count_points(spec, t) == ehrhart_almost_integral(spec).evaluate(t), (spec, t)


def test_a_pivot_sharing_a_factor_with_den_steps_the_outer_level_it_constrains():
    # rank 3 in Z^4 with shift denominator 4.  At t = 2 the one congruence
    # mod den = 2 reads 2*x_3 - 7*x_2 - 6*x_0 + 9: its coefficient on the
    # line x_3 shares the factor 2 with den, so it says only that x_2 is
    # odd.  Echeloned with the rows den * e_j it becomes x_2 + 6*x_0 - 9 on
    # level x_2, which then steps through odd values, and the line steps by
    # den / 2 = 1.  At t = 1 a row is left with no coefficient and the
    # constant 18, not 0 mod den = 4, so the count is 0.
    spec = ZonotopeSpec(
        [(1, -1, 0, 2), (0, -1, 0, -1), (-1, 1, 0, -2), (1, 2, -2, -2), (-1, 2, 0, -1), (-1, 2, 0, -1), (-1, 2, 0, -1)],
        ("1/4", "1/4", "1/2", "1/2"),
    )
    formula = ehrhart_almost_integral(spec)
    counts = [count_points(spec, t) for t in range(1, 5)]
    assert counts == [formula.evaluate(t) for t in range(1, 5)] == [0, 144, 0, 1005]


def test_count_matches_membership_and_formula_on_random_zonotopes():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def zonotopes(draw):
        d = draw(st.integers(1, 3))
        entry = st.integers(-2, 2)
        generator = st.tuples(*[entry] * d).filter(any)
        gens = draw(st.lists(generator, max_size=4))
        shift = [
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(d)
        ]
        return ZonotopeSpec.make(gens, shift=shift, dim=d)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(zonotopes(), st.integers(1, 3))
    def check(spec, t):
        expected = ehrhart_almost_integral(spec).evaluate(t)
        assert count_points(spec, t) == _membership_scan(spec, t) == expected

    check()


def test_count_matches_formula_in_dimensions_four_and_five():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def zonotopes(draw):
        d = draw(st.integers(4, 5))
        entry = st.integers(-2, 2)
        if draw(st.booleans()):
            generator = st.tuples(*[entry] * d).filter(any)
            gens = draw(st.lists(generator, max_size=6))
            shift = [
                Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(d)
            ]
            return ZonotopeSpec.make(gens, shift=shift, dim=d)
        # 2 to d - 2 vectors and integer combinations of them: two or more
        # dependent coordinates, whose congruences can fall on outer levels,
        # and a shift in their rational span, so that the affine hull meets
        # the lattice at some dilations
        vector = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
        pool = draw(st.lists(vector, min_size=2, max_size=d - 2))
        mix = st.lists(entry, min_size=len(pool), max_size=len(pool))
        gens = pool + [
            tuple(sum(k * v[j] for k, v in zip(coeffs, pool)) for j in range(d))
            for coeffs in draw(st.lists(mix, max_size=6 - len(pool)))
        ]
        b = draw(st.integers(1, 4))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(pool), max_size=len(pool)))
        shift = [sum(Fraction(k, b) * v[j] for k, v in zip(coeffs, pool)) for j in range(d)]
        return ZonotopeSpec.make([g for g in gens if any(g)], shift=shift, dim=d)

    # The rational membership scan is too slow here; the formula is not.
    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(zonotopes(), st.integers(1, 3))
    # rank 2 in Z^4: the outer level and the line each step by 2
    @hypothesis.example(ZonotopeSpec.make([(-1, -1, 2, 0), (1, -2, 0, 2)]), 2)
    # rank 2 in Z^5: the rows kept after the first dependent coordinate must
    # not carry its unit vector, or the next circuit solves two coordinates
    @hypothesis.example(ZonotopeSpec.make([(0, 0, 2, 0, 1), (0, 2, 0, 3, 2), (0, -2, 2, -3, -1)]), 1)
    def check(spec, t):
        expected = ehrhart_almost_integral(spec).evaluate(t)
        assert count_points(spec, t) == expected

    check()


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: count_points(spec, True),
        lambda spec: zonotope_contains(spec, True, (0, 0)),
        lambda spec: ehrhart_coxeter("B", 2).evaluate(True),
        lambda spec: _orbit_sum("B", 2, "standard", True),
    ],
    ids=["count_points", "zonotope_contains", "QuasiPolynomial.evaluate", "_orbit_sum"],
)
def test_bool_dilation_is_rejected(call):
    spec = coxeter_zonotope("B", 2, "standard")
    with pytest.raises(ValueError, match="dilation factor must be a positive integer, got True"):
        call(spec)


def test_equal_zonotopes_share_one_geometry_entry():
    # the cache key is the generators and d: not the shift, nor any identity
    _facets.cache_clear()
    count_points(coxeter_zonotope("B", 3, "integral"), 2)
    misses = _facets.cache_info().misses
    assert misses > 0
    # the same generators under another shift, then an equal value built afresh
    count_points(coxeter_zonotope("B", 3, "standard"), 2)
    count_points(ZonotopeSpec.make(positive_roots("B", 3).roots, shift=(0, 0, 0)), 2)
    assert _facets.cache_info().misses == misses
    roots = positive_roots("B", 3).roots
    first = _facets(tuple(roots), 3)
    assert _facets(tuple(tuple(list(g)) for g in roots), 3) is first
    assert _facets(coxeter_zonotope("C", 3).generators, 3) is not first
    assert _facets.cache_info().misses == misses + 2


def test_facet_search_matches_the_reference_geometry():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def spanning(draw):
        d = draw(st.integers(1, 6))
        entry = st.integers(-2, 2)
        gens = draw(st.lists(st.tuples(*[entry] * d).filter(any), min_size=d, max_size=8))
        # parallel and negated copies, so that many subsets are dependent or
        # span one hyperplane
        for _ in range(draw(st.integers(0, 8 - len(gens)))):
            g = draw(st.sampled_from(gens))
            k = draw(st.sampled_from((-2, -1, 1, 2)))
            gens.insert(draw(st.integers(0, len(gens))), tuple(k * e for e in g))
        hypothesis.assume(not integer_kernel_basis(gens, dim=d))
        return d, tuple(gens)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(spanning())
    # the first d-1 generators are dependent, so the walk prunes that branch
    @hypothesis.example((4, ((1, 0, 0, 0), (-2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))))
    # d = 1: the empty subset's normal line is the axis
    @hypothesis.example((1, ((2,), (-1,), (3,))))
    # each normal of B3 is spanned by several pairs of roots
    @hypothesis.example((3, tuple(positive_roots("B", 3).roots)))
    def check(case):
        d, gens = case
        kernel, reference = _geometry(ZonotopeSpec.make(gens, dim=d))
        assert kernel == ()
        assert set(_facets(gens, d)) == set(reference)

    check()


def test_facet_search_runs_no_row_reduction(monkeypatch):
    # the walk's kernels come from linalg.echelon; the facet search must not
    def refuse(*args, **kwargs):
        raise AssertionError("the facet search ran a row reduction")

    roots = tuple(positive_roots("D", 4).roots)
    _, reference = _geometry(ZonotopeSpec(roots))
    _facets.cache_clear()
    monkeypatch.setattr(oracle, "echelon", refuse)
    monkeypatch.setattr(linalg, "echelon", refuse)
    for d in range(1, 5):
        shadow = tuple(g[:d] for g in roots if any(g[:d]))
        facets = _facets(shadow, d)
        assert len(facets) == len(set(facets))
    assert set(facets) == set(reference)


def test_facet_search_stops_at_a_dependent_prefix(monkeypatch):
    # The same generators in two orders, in Z^5.  With a + b right after a
    # and b, the branch through all three is dependent and stops before its
    # leaves; with a + b last, that triple is never a branch.  Everything
    # else is the same work.  (g and -g are one direction, never a branch.)
    products = []

    def counted(a, b):
        products.append(None)
        return a * b

    monkeypatch.setattr(oracle, "mul", counted)
    a, b, ab = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 0, 0, 0)
    rest = [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, 0, 1, 1, 1), (0, 1, -1, 2, 1)]
    work, found = [], []
    for gens in ([a, b, ab] + rest, [a, b] + rest + [ab]):
        products.clear()
        found.append(set(_facets.__wrapped__(tuple(gens), 5)))
        work.append(len(products))
    assert found[0] == found[1]
    assert work[0] < work[1]


def test_facet_search_skips_a_sibling_of_an_earlier_flat(monkeypatch):
    # Directions a, b, c = a + b, e3, e4, f in Z^4; one row-by-g product is
    # d = 4 mul calls.  The root (4 rows) tries a, b, c, e3: 4 * 16 = 64.
    # The second level (6 rows) tries 4 + 3 + 2 + 1 children: 10 * 24 = 240.
    # Under a, the child a ^ c spans a ^ b's plane and is skipped, so 9
    # nodes reach the last level (4 rows), where a ^ b, a ^ e3, a ^ e4,
    # b ^ c, b ^ e3, b ^ e4, c ^ e3, c ^ e4 and e3 ^ e4 try the 4, 2, 1, 3,
    # 2, 1, 2, 1 and 1 directions after them: 17 * 16 = 272.  The 10
    # normals pair with the 6 generators: 10 * 24 = 240.  In all 816;
    # growing a ^ c too would add its 3 leaves, 48 more.
    products = []

    def counted(a, b):
        products.append(None)
        return a * b

    monkeypatch.setattr(oracle, "mul", counted)
    gens = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))
    facets = _facets.__wrapped__(gens, 4)
    assert len(products) == 816
    _, reference = _geometry(ZonotopeSpec.make(gens, dim=4))
    assert set(facets) == set(reference)


def test_count_matches_formula_under_large_integer_moves_of_the_shift():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # negative shift entries far from the origin: every bound is a floor
    # division of a negative numerator by the shift denominator
    @st.composite
    def zonotopes(draw):
        d = draw(st.integers(1, 4))
        entry = st.integers(-2, 2)
        gens = draw(st.lists(st.tuples(*[entry] * d).filter(any), max_size=5))
        shift = [
            Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 12))) + draw(st.integers(-(10**6), 10**6))
            for _ in range(d)
        ]
        return ZonotopeSpec.make(gens, shift=shift, dim=d)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(zonotopes(), st.integers(1, 3))
    @hypothesis.example(ZonotopeSpec.make([(1, 0), (1, 2), (0, 1)], shift=("-1000001/12", "-7/5")), 3)
    def check(spec, t):
        assert count_points(spec, t) == ehrhart_almost_integral(spec).evaluate(t)

    check()


def test_facet_bound_counts_the_directions_of_each_level():
    # 1,200 generators in three directions: C(1200, 2) raw pairs at the last
    # level, above the facet bound, but only C(3, 2) pairs of directions
    spec = ZonotopeSpec([(1, 0, 0)] * 400 + [(0, 1, 0)] * 400 + [(1, 1, 1)] * 400, (Fraction(1, 2), 0, 0))
    assert math.comb(len(spec.generators), 2) > oracle.FACET_BOUND
    assert count_points(spec, 1) == ehrhart_almost_integral(spec).evaluate(1)


def test_facet_bound_refuses_before_any_facet_search(monkeypatch):
    def search(generators, d):
        raise AssertionError("the facet search ran")

    monkeypatch.setattr(oracle, "_facets", search)
    with pytest.raises(EnumerationLimitError, match="facet bound"):
        count_points(coxeter_zonotope("A", 9), 1)


def test_scan_bound_refuses_before_the_scan(monkeypatch):
    spec = coxeter_zonotope("C", 3, "standard")
    monkeypatch.setattr(oracle, "SCAN_BOUND", 10)
    # the verdict reads the facet rows, searched afresh and then cached
    _facets.cache_clear()
    for _ in range(2):
        with pytest.raises(EnumerationLimitError, match="scan bound"):
            count_points(spec, 1)
    assert _facets.cache_info().hits > 0
    monkeypatch.undo()
    assert count_points(spec, 1) == 251  # 1 + 12 + 66 + 172


@pytest.mark.parametrize(
    "spec, t",
    [
        (coxeter_zonotope("A", 6), 3),
        (ZonotopeSpec.make([(1, 2, -1)], shift=(0, "1/2", 0)), 10**12),
    ],
    ids=["A6", "rank-1"],
)
def test_large_boxes_with_little_work_are_counted(spec, t):
    # bounding boxes of 11,390,625 and about 2 * 10^36 points
    assert count_points(spec, t) == ehrhart_almost_integral(spec).evaluate(t)


def test_a_line_of_more_points_than_a_c_size_is_counted():
    # the last level's progression is counted arithmetically, not by len(range)
    spec = ZonotopeSpec([(2**70,)])
    assert count_points(spec, 1) == 2**70 + 1 == ehrhart_almost_integral(spec).evaluate(1)


def test_orbit_sum_equals_the_box_scan_on_every_family():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # every permutahedron whose box scan takes well under a second
    @st.composite
    def permutahedra(draw):
        family = draw(st.sampled_from("ABCD"))
        n = draw(st.integers(1, 6 if family == "A" else 4))
        return family, n, draw(st.sampled_from(("standard", "integral"))), draw(st.integers(1, 3))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(permutahedra())
    @hypothesis.example(("A", 6, "integral", 3))
    @hypothesis.example(("C", 4, "standard", 3))
    def check(case):
        family, n, variant, t = case
        assert _orbit_sum(family, n, variant, t) == count_points(coxeter_zonotope(family, n, variant), t)

    check()


@pytest.mark.parametrize(
    "family, n, variant, t",
    [
        ("A", 30, "standard", 1),
        ("B", 20, "standard", 1),
        ("C", 20, "standard", 1),
        ("D", 30, "standard", 1),
        ("A", 12, "standard", 3),
        ("A", 30, "integral", 1),
        ("B", 12, "integral", 3),
    ],
)
def test_orbit_sum_equals_the_generating_functions(family, n, variant, t):
    assert _orbit_sum(family, n, variant, t) == egf_ehrhart_quasipolynomial(family, n, variant).evaluate(t)


def test_orbit_bound_is_counted_as_the_sum_runs(monkeypatch):
    monkeypatch.setattr(oracle, "ORBIT_BOUND", 1000)
    with pytest.raises(EnumerationLimitError, match="above the orbit bound of 1000") as err:
        _orbit_sum("D", 18, "standard", 1)
    passed = int(re.search(r"passed (\d+) ", str(err.value)).group(1))
    # checked after each state's placements, at most n + 1 of them
    assert 1000 < passed <= 1000 + 19
    monkeypatch.undo()
    with pytest.raises(EnumerationLimitError, match=f"the A3 dilation of 31 digits passed .* {ORBIT_BOUND}$"):
        _orbit_sum("A", 3, "standard", 10**30)


def test_solve_dependent_picks_greedy_pivots_and_solves_the_kernel():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def systems(draw):
        d = draw(st.integers(2, 6))
        entry = st.integers(-3, 3)
        # integer combinations of a small pool keep the generators
        # rank-deficient, so the kernel is never empty
        pool = draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=d - 1))
        mix = st.lists(st.integers(-2, 2), min_size=len(pool), max_size=len(pool))
        gens = [
            tuple(sum(k * v[j] for k, v in zip(coeffs, pool)) for j in range(d))
            for coeffs in draw(st.lists(mix, min_size=1, max_size=6))
        ]
        kernel = integer_kernel_basis(gens, dim=d)
        hypothesis.assume(len(kernel) < d)
        # few distinct widths, so ties are common
        widths = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
        target = [Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))) for _ in range(d)]
        free_values = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
        return d, gens, kernel, widths, target, free_values

    def independent(columns, k):
        return echelon_rank(columns, k) == len(columns)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(systems())
    def check(system):
        d, gens, kernel, widths, target, free_values = system
        c = math.lcm(*(s.denominator for s in target))
        free, den, rows = _solve_dependent(gens, widths, [int(s * c) for s in target], c)
        line = free[-1]
        dependent = [i for i in sorted(range(d), key=lambda i: -widths[i]) if i not in free]
        k = len(kernel)
        column = [tuple(f[i] for f in kernel) for i in range(d)]
        assert sorted(dependent + free) == list(range(d))
        assert len(dependent) == k
        assert independent([column[j] for j in dependent], k)
        for i in free:
            wider = [column[j] for j in dependent if widths[j] >= widths[i]]
            assert not independent(wider + [column[i]], k)
        assert widths[line] == max(widths[i] for i in free)
        # den * x_J from the rows satisfies <f, x> = <f, target> for any x_free
        x = [None] * d
        for i, value in zip(free, free_values):
            x[i] = den * value
        for j, row in zip(dependent, rows):
            x[j] = dot(row[:-1], free_values[: len(free)]) + row[-1]
        for f in kernel:
            assert dot(f, x) == den * dot(f, target)
        # den is the least common denominator of the solution
        assert math.gcd(den, *(e for row in rows for e in row)) == 1

    check()


def test_component_counts_by_enumeration():
    pinned = {
        "tree": (0, 1, 1, 3, 16),
        "pseudotree": (0, 0, 0, 1, 15),
        "signed_tree": (0, 1, 2, 12),
        "signed_pseudotree": (0, 0, 1, 16),
        "signed_halfedge_tree": (0, 1, 4, 36),
        "signed_loop_tree": (0, 1, 4, 36),
    }
    for kind, counts in pinned.items():
        order = len(counts) - 1
        assert (0, *(brute_force_structures(kind, n) for n in range(1, order + 1))) == counts, kind
        assert component_counts(kind, order) == counts, kind


def test_structure_enumeration_matches_the_classifier(monkeypatch):
    # one past each bound, where the depth-first growth is deepest
    monkeypatch.setattr(oracle, "SIGNED_STRUCTURE_MAX", SIGNED_STRUCTURE_MAX + 1)
    monkeypatch.setattr(oracle, "UNSIGNED_STRUCTURE_MAX", UNSIGNED_STRUCTURE_MAX + 1)
    for kind in SEQUENCE_KINDS:
        limit = SIGNED_STRUCTURE_MAX if kind.startswith("signed_") else UNSIGNED_STRUCTURE_MAX
        for n in range(1, limit + 2):
            assert brute_force_structures(kind, n) == reference_structures(kind, n), (kind, n)


def test_structure_enumeration_matches_the_generating_functions_at_five(monkeypatch):
    monkeypatch.setattr(oracle, "SIGNED_STRUCTURE_MAX", 5)
    for kind in SEQUENCE_KINDS:
        if kind.startswith("signed_"):
            assert [brute_force_structures(kind, n) for n in range(1, 6)] == list(
                component_counts(kind, 5)[1:]
            )


def test_structure_count_multiplicative_identities():
    for n in range(1, 5):
        trees = brute_force_structures("tree", n)
        signed = brute_force_structures("signed_tree", n)
        # each of the n-1 edges carries an independent sign
        assert signed == 2 ** (n - 1) * trees
        # a halfedge-tree is a signed tree plus a choice of attachment vertex
        assert brute_force_structures("signed_halfedge_tree", n) == n * signed


def test_structure_enumeration_guards():
    with pytest.raises(EnumerationLimitError):
        brute_force_structures("tree", UNSIGNED_STRUCTURE_MAX + 1)
    with pytest.raises(EnumerationLimitError):
        brute_force_structures("signed_tree", SIGNED_STRUCTURE_MAX + 1)
    with pytest.raises(ValueError):
        brute_force_structures("thicket", 3)
    with pytest.raises(ValueError):
        brute_force_structures("tree", True)
