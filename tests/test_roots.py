"""Tests for the classical positive root configurations."""

from fractions import Fraction

import pytest

from coxeter_ehrhart.ehrhart import ehrhart_coxeter
from coxeter_ehrhart.linalg import rank
from coxeter_ehrhart.roots import (
    FAMILIES,
    VARIANTS,
    is_integral,
    positive_roots,
    rank_label,
    root_count_and_rank,
    standard_shift,
    table_label,
)
from signed_graphs_reference import SignedGraph, halfedge


def test_root_counts():
    for n in range(1, 9):
        assert len(positive_roots("A", n).roots) == n * (n - 1) // 2
        assert len(positive_roots("B", n).roots) == n * n
        assert len(positive_roots("C", n).roots) == n * n
        assert len(positive_roots("D", n).roots) == n * (n - 1)


def test_roots_are_distinct_integer_vectors():
    for family in FAMILIES:
        for n in range(1, 8):
            rs = positive_roots(family, n)
            assert len(set(rs.roots)) == len(rs.roots)
            for root in rs.roots:
                assert len(root) == n
                assert all(isinstance(e, int) and -1 <= e <= 2 for e in root)
                nonzero = [e for e in root if e]
                assert nonzero and nonzero[0] > 0


def test_rank_of_each_configuration():
    for n in range(1, 7):
        assert positive_roots("A", n).rank == n - 1
        assert positive_roots("B", n).rank == n
        assert positive_roots("C", n).rank == n
        assert positive_roots("D", n).rank == (0 if n == 1 else n)


def test_integrality_pattern():
    for n in range(1, 8):
        assert is_integral("A", n) == (n % 2 == 1)
        assert not is_integral("B", n)
        assert is_integral("C", n)
        assert is_integral("D", n)


def test_standard_shift_values():
    half = Fraction(1, 2)
    assert standard_shift("A", 4) == (half,) * 4
    assert standard_shift("A", 5) == (Fraction(0),) * 5
    assert standard_shift("B", 3) == (half,) * 3
    assert standard_shift("C", 3) == (Fraction(0),) * 3
    assert standard_shift("D", 4) == (Fraction(0),) * 4


def test_shift_is_half_root_sum_mod_lattice():
    # the center of the standard permutahedron is minus half the sum of the
    # positive roots; the stored shift is its representative in {0, 1/2}^n
    for family in FAMILIES:
        for n in range(1, 7):
            rs = positive_roots(family, n)
            total = [sum(root[i] for root in rs.roots) for i in range(n)]
            for i in range(n):
                assert rs.shift[i] in (0, Fraction(1, 2))
                assert (rs.shift[i] + Fraction(total[i], 2)).denominator == 1


def test_shift_matches_integrality():
    for family in FAMILIES:
        for n in range(1, 7):
            rs = positive_roots(family, n)
            assert is_integral(family, n) == all(s == 0 for s in rs.shift)


def test_labels():
    assert table_label("A", 4) == "A_4"
    assert rank_label("A", 4) == "A_3"
    assert table_label("B", 3) == rank_label("B", 3) == "B_3"
    assert rank_label("D", 2) == "D_2"


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        positive_roots("E", 3)
    with pytest.raises(ValueError):
        positive_roots("A", 0)
    with pytest.raises(ValueError):
        root_count_and_rank("E", 3)
    with pytest.raises(ValueError):
        root_count_and_rank("A", 0)
    # bool is an int subclass; True must not pass for a coordinate count
    with pytest.raises(ValueError):
        positive_roots("B", True)
    with pytest.raises(ValueError):
        rank_label("A", True)
    with pytest.raises(ValueError):
        halfedge(True)
    with pytest.raises(ValueError):
        SignedGraph(True, frozenset())
    # the census reader validates before the census reads its family table
    for variant in VARIANTS:
        with pytest.raises(ValueError):
            ehrhart_coxeter("E", 3, variant)
        with pytest.raises(ValueError):
            ehrhart_coxeter("A", 0, variant)
        ehrhart_coxeter("A", 1, variant)
        with pytest.raises(ValueError):
            ehrhart_coxeter("A", True, variant)  # not read as the A_1 census


def test_roots_span_check_against_linalg_rank():
    for family in FAMILIES:
        for n in range(1, 6):
            rs = positive_roots(family, n)
            assert rs.rank == rank(rs.roots, dim=n)
            assert root_count_and_rank(family, n) == (len(rs.roots), rank(rs.roots, dim=n))


def test_positive_root_set_is_an_immutable_value():
    rs = positive_roots("B", 2)
    assert rs == positive_roots("B", 2) and hash(rs) == hash(positive_roots("B", 2))
    assert rs != positive_roots("C", 2)
    assert (rs.family, rs.n, rs.rank, rs.shift) == ("B", 2, 2, (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(AttributeError):
        rs.roots = ()
