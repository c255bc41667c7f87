"""End-to-end acceptance checks.

Each test prints one ``[PASS]``/``[FAIL]`` line naming its criterion; run
``pytest -s tests/test_acceptance.py`` to see them.  The checks pin exact
integer values throughout — there are no tolerances anywhere.
"""

import contextlib
import io
import itertools
import random
import time
from fractions import Fraction
from math import lcm

from coxeter_ehrhart.cli import main as cli_main
from coxeter_ehrhart.egf import component_counts, egf_ehrhart_quasipolynomial
from coxeter_ehrhart.ehrhart import (
    ZonotopeSpec,
    coxeter_zonotope,
    ehrhart_almost_integral,
    ehrhart_coxeter,
)
from coxeter_ehrhart.linalg import rank
from coxeter_ehrhart.oracle import brute_force_structures, count_points
from coxeter_ehrhart.roots import is_integral, positive_roots
from helpers import (
    all_tree_components_even,
    chi,
    forest_counts_by_edges,
    graph_from_roots,
    relative_volume,
)
from series_reference import (
    RatSeries,
    egf_ehrhart_standard_odd,
    egf_ehrhart_values,
    lambert_w,
)
from signed_graphs_reference import classify


class _criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({self.elapsed:.1f}s)")
        return False


INTEGRAL_TABLE = {
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

STANDARD_TABLE = {
    ("A", 2): ((1, 1), (0, 1)),
    ("A", 4): ((1, 6, 15, 16), (0, 0, 3, 16)),
    ("B", 1): ((1, 1), (0, 1)),
    ("B", 2): ((1, 4, 7), (0, 2, 7)),
    ("B", 3): ((1, 9, 39, 87), (0, 0, 6, 87)),
    ("B", 4): ((1, 16, 126, 608, 1553), (0, 0, 12, 212, 1553)),
}

SMALL_STANDARD_POLYS = {
    ("A", 3): lambda t: 1 + 3 * t + 3 * t * t,
    ("B", 2): lambda t: (1 + 4 * t + 7 * t * t) if t % 2 == 0 else (2 * t + 7 * t * t),
    ("C", 2): lambda t: 1 + 6 * t + 14 * t * t,
    ("D", 2): lambda t: 1 + 2 * t + 2 * t * t,
}


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def test_criterion_1_integral_table():
    with _criterion("criterion 1: integral permutahedra table (15 rows)") as c:
        code, out = _run_cli(["tables", "table1"])
        assert code == 0
        assert out.count("match") == 16 and "MISMATCH" not in out  # 15 rows + summary
        for (family, n), coeffs in INTEGRAL_TABLE.items():
            qp = ehrhart_coxeter(family, n, "integral")
            assert qp.period == 1 and qp.constituents == (coeffs,), (family, n)
        assert c.elapsed < 30.0


def test_criterion_2_standard_table():
    with _criterion("criterion 2: half-integral permutahedra table (6 rows)") as c:
        code, out = _run_cli(["tables", "table2"])
        assert code == 0
        assert out.count("match") == 7 and "MISMATCH" not in out  # 6 rows + summary
        for (family, n), (even, odd) in STANDARD_TABLE.items():
            qp = ehrhart_coxeter(family, n)
            assert qp.period == 2 and qp.constituents == (even, odd), (family, n)
        assert c.elapsed < 30.0


def test_criterion_3_small_rank_point_counts():
    with _criterion("criterion 3: rank-two and rank-three point counts vs box scan"):
        for (family, n), poly in SMALL_STANDARD_POLYS.items():
            qp = ehrhart_coxeter(family, n)
            spec = coxeter_zonotope(family, n, "standard")
            for t in (1, 2, 3):
                expected = poly(t)
                assert qp.evaluate(t) == expected, (family, n, t)
                assert count_points(spec, t) == expected, (family, n, t)


def test_criterion_4_three_routes_agree():
    with _criterion("criterion 4: census, subset, and series routes agree (n <= 4)"):
        for family in "ABCD":
            for n in range(1, 5):
                for variant in ("standard", "integral"):
                    census = ehrhart_coxeter(family, n, variant)
                    subset = ehrhart_almost_integral(coxeter_zonotope(family, n, variant))
                    assert census == subset, (family, n, variant)
                    series = egf_ehrhart_quasipolynomial(family, n, variant)
                    assert series == census, (family, n, variant)
                    for t in (1, 2, 3, 4):
                        if variant == "integral" or is_integral(family, n) or t % 2 == 0:
                            series_value = egf_ehrhart_values(family, t, n)[n]
                        else:
                            series_value = egf_ehrhart_standard_odd(family, t, n)[n]
                        assert series_value == census.evaluate(t), (family, n, variant, t)


def test_criterion_5_brute_force_oracle():
    with _criterion("criterion 5: box-scan counts equal evaluations") as c:
        for family in "ABCD":
            for n in range(1, 4):
                for variant in ("standard", "integral"):
                    qp = ehrhart_coxeter(family, n, variant)
                    spec = coxeter_zonotope(family, n, variant)
                    for t in (1, 2, 3):
                        assert count_points(spec, t) == qp.evaluate(t), (family, n, variant, t)
        for family in "BCD":
            qp = ehrhart_coxeter(family, 4)
            spec = coxeter_zonotope(family, 4, "standard")
            for t in (1, 2):
                assert count_points(spec, t) == qp.evaluate(t), (family, t)
        assert c.elapsed < 300.0


def test_criterion_6_forest_counts():
    with _criterion("criterion 6: coefficients count forests by edges (n <= 6)"):
        for n in range(1, 7):
            qp = ehrhart_coxeter("A", n, "integral")
            coeffs = list(qp.constituents[0])
            expected = forest_counts_by_edges(n)
            assert coeffs == expected, n
            assert coeffs[-1] == n ** max(n - 2, 0)  # spanning trees on top


def test_criterion_7_structure_sequences():
    with _criterion("criterion 7: component counting sequences"):
        # component_counts(kind, m)[n] counts the structures on n vertices
        assert component_counts("tree", 8)[1:] == tuple(n ** max(n - 2, 0) for n in range(1, 9))
        assert component_counts("signed_tree", 8)[1:] == tuple(
            2 ** (n - 1) * n ** max(n - 2, 0) for n in range(1, 9)
        )
        halfedge_like = tuple((2 * n) ** (n - 1) for n in range(1, 9))
        assert component_counts("signed_halfedge_tree", 8)[1:] == halfedge_like
        assert component_counts("signed_loop_tree", 8)[1:] == halfedge_like
        assert component_counts("pseudotree", 5)[1:] == tuple(
            brute_force_structures("pseudotree", n) for n in range(1, 6)
        )
        assert component_counts("pseudotree", 4)[1:] == (0, 0, 1, 15)
        assert component_counts("signed_pseudotree", 4)[1:] == tuple(
            brute_force_structures("signed_pseudotree", n) for n in range(1, 5)
        )
        assert component_counts("signed_pseudotree", 4)[1:] == (0, 1, 16, 312)


def test_criterion_8_lambert_series():
    with _criterion("criterion 8: Lambert W series identity to order 12"):
        w = lambert_w(12)
        assert (w * w.exp()).coeffs == RatSeries.identity(12).coeffs
        assert [w.coefficient(n) for n in (0, 1, 2, 3)] == [0, 1, -1, Fraction(3, 2)]


def test_criterion_9_forest_dictionary():
    with _criterion("criterion 9: subset independence matches the forest dictionary"):
        for family, n in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
            rs = positive_roots(family, n)
            for size in range(len(rs.roots) + 1):
                for subset in itertools.combinations(rs.roots, size):
                    stats = classify(graph_from_roots(subset, n=n))
                    independent = rank(subset, dim=n) == len(subset)
                    assert independent == (stats is not None), (family, subset)
                    if stats is None:
                        continue
                    assert len(subset) == n - stats.tc
                    if subset:
                        assert relative_volume(subset) == 2 ** (stats.pc + stats.lc)
                    if not is_integral(family, n):
                        expected = all_tree_components_even(graph_from_roots(subset, n=n))
                        for t in (1, 3):
                            assert chi(rs.shift, subset, t) == int(expected), (family, subset)


def test_criterion_10_random_zonotopes():
    with _criterion("criterion 10: random shifted zonotopes vs box scan"):
        rng = random.Random(271828)
        produced = 0
        while produced < 20:
            d = rng.randint(1, 3)
            m = rng.randint(1, 4)
            generators = []
            while len(generators) < m:
                vec = tuple(rng.randint(-2, 2) for _ in range(d))
                if any(vec):
                    generators.append(vec)
            denominators = [rng.choice((1, 2, 3)) for _ in range(d)]
            shift = tuple(
                Fraction(rng.randrange(den), den) for den in denominators
            )
            spec = ZonotopeSpec.make(generators, shift=shift)
            qp = ehrhart_almost_integral(spec)
            assert lcm(1, *(s.denominator for s in shift)) % qp.period == 0
            for t in (1, 2, 3, 4):
                assert qp.evaluate(t) == count_points(spec, t), (spec, t)
            produced += 1
