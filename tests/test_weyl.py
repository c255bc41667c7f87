"""The subset walk on Weyl permutahedra built from Cartan matrices, against
the type-free orbit sum of ``weyl_reference``, which reads no walk code."""

from fractions import Fraction

import pytest

from coxeter_ehrhart.ehrhart import ZonotopeSpec, ehrhart_almost_integral, ehrhart_coxeter
from coxeter_ehrhart.oracle import count_points
from weyl_reference import cartan_matrix, orbit_sum, positive_roots, two_rho, weyl_order


def weyl_zonotope(kind, n):
    """conv(W rho) as the positive roots' zonotope, shifted by rho mod Z^n."""
    cartan = cartan_matrix(kind, n)
    return ZonotopeSpec(positive_roots(cartan), [Fraction(r, 2) % 1 for r in two_rho(cartan)])


def reciprocal(qp, rank, t):
    """(-1)^rank L(-t), from the constituent of -t; ``evaluate`` takes t >= 1 only."""
    return (-1) ** rank * sum(a * (-t) ** k for k, a in enumerate(qp.constituents[(-t) % qp.period]))


@pytest.mark.parametrize(
    "kind, n, roots, order",
    [
        ("G", 2, 6, 12),
        ("F", 4, 24, 1152),
        ("E", 6, 36, 51840),
        ("B", 6, 36, 46080),
        ("C", 6, 36, 46080),
        ("D", 6, 30, 23040),
        ("A", 6, 21, 5040),
        ("B", 2, 4, 8),
    ],
)
def test_root_counts_and_weyl_group_orders(kind, n, roots, order):
    # E6 and B6/C6 share rank 6 and 36 positive roots; only the lacing names them
    cartan = cartan_matrix(kind, n)
    assert len(positive_roots(cartan)) == roots
    assert weyl_order(cartan, tuple(range(n))) == order


def test_cartan_convention_puts_the_multiple_bond_in_the_short_roots_row():
    # A[i][j] = <alpha_i^vee, alpha_j>: B3's short root is alpha_3, C3's is alpha_1 and alpha_2
    assert cartan_matrix("B", 3) == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert cartan_matrix("C", 3) == tuple(zip(*cartan_matrix("B", 3)))
    assert cartan_matrix("G", 2) == ((2, -3), (-1, 2))
    assert positive_roots(cartan_matrix("G", 2))[-1] == (3, 2)
    assert positive_roots(cartan_matrix("F", 4))[-1] == (2, 3, 4, 2)


@pytest.mark.parametrize(
    "kind, n, closed, interior",
    [
        ("G", 2, (31, 109), (19, 85)),
        ("F", 4, (15145, 219529), (10369, 181609)),
        ("E", 6, (1246933, 67503457), (653941, 48866833)),
    ],
)
def test_exceptional_walk_matches_the_orbit_sum(kind, n, closed, interior):
    cartan = cartan_matrix(kind, n)
    qp = ehrhart_almost_integral(weyl_zonotope(kind, n))
    assert qp.period == 1
    assert qp.constituents[0][1] == len(positive_roots(cartan))
    assert tuple(qp.evaluate(t) for t in (1, 2)) == closed
    assert tuple(orbit_sum(cartan, t) for t in (1, 2)) == closed
    # Ehrhart-Macdonald reciprocity: the interior of the t-th dilate
    assert tuple(reciprocal(qp, n, t) for t in (1, 2)) == interior
    assert tuple(orbit_sum(cartan, t, strict=True) for t in (1, 2)) == interior
    for t in (0, -1):
        with pytest.raises(ValueError, match="dilation factor"):
            qp.evaluate(t)


def test_f4_box_scan_matches_the_walk():
    assert count_points(weyl_zonotope("F", 4), 1) == 15145


@pytest.mark.parametrize("kind, n", [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4)])
def test_orbit_sum_matches_the_census_on_a_and_b(kind, n):
    # Q is Z^n for B_n and the sum-zero points of Z^(n+1) for A_n, the census's
    # lattices; the census indexes A by its n + 1 coordinates
    cartan = cartan_matrix(kind, n)
    qp = ehrhart_coxeter(kind, n + 1 if kind == "A" else n)
    ts = (1, 2, 3)
    assert tuple(orbit_sum(cartan, t) for t in ts) == tuple(qp.evaluate(t) for t in ts)
    assert tuple(orbit_sum(cartan, t, strict=True) for t in ts) == tuple(reciprocal(qp, n, t) for t in ts)


def test_orbit_sum_reference_values():
    assert [orbit_sum(cartan_matrix("A", 3), t) for t in (1, 2, 3)] == [19, 201, 459]
    assert [orbit_sum(cartan_matrix("B", 3), t) for t in (1, 2, 3)] == [93, 871, 2403]


@pytest.mark.parametrize("kind, n", [("C", 3), ("D", 4)])
def test_orbit_sum_counts_the_root_lattice_of_c_and_d(kind, n):
    # Q has index 2 in Z^n for C_n and D_n: the orbit sum is the walk on the
    # roots in simple-root coordinates, not the census on Z^n
    cartan = cartan_matrix(kind, n)
    qp = ehrhart_almost_integral(weyl_zonotope(kind, n))
    assert tuple(orbit_sum(cartan, t) for t in (1, 2)) == tuple(qp.evaluate(t) for t in (1, 2))
    assert orbit_sum(cartan, 1) < ehrhart_coxeter(kind, n).evaluate(1)
    if kind == "D":
        assert (orbit_sum(cartan, 1), ehrhart_coxeter(kind, n).evaluate(1)) == (601, 1001)
