"""Exact Ehrhart theory for Coxeter permutahedra and shifted integer zonotopes.

The permutahedron of a classical root system (families A, B, C, D) is the
Minkowski sum of the line segments spanned by its positive roots, centered
so that the segment midpoints add up to a possibly half-integral point.
This package computes the lattice-point counting quasipolynomial of that
polytope — and of any integer zonotope translated by a rational vector —
exactly, in mutually independent ways:

* a weighted census of the pseudoforests hiding inside the root
  configuration (:mod:`~coxeter_ehrhart.ehrhart`),
* Stanley's sum over the independent generator subsets, gated by the
  shift, for any shifted integer zonotope (:mod:`~coxeter_ehrhart.ehrhart`),
* coefficient extraction from the exponential generating functions of
  the connected components, whose counts come in closed form from Cayley's
  rooted-forest formula (:mod:`~coxeter_ehrhart.egf`),
* a brute-force lattice-point count that scans the free coordinates of
  the dilate a line at a time, deciding membership from the affine hull
  and the facet inequalities (:mod:`~coxeter_ehrhart.oracle`), beside a
  Weyl-orbit sum over the dominant points of a dilated permutahedron and a
  direct enumeration of the small labeled structures the generating
  functions count.

All arithmetic is exact (integers and :class:`fractions.Fraction`).
"""

from .egf import SEQUENCE_KINDS, component_counts, egf_ehrhart_quasipolynomial
from .ehrhart import (
    EnumerationLimitError,
    QuasiPolynomial,
    ZonotopeFormatError,
    ZonotopeSpec,
    coxeter_zonotope,
    ehrhart_almost_integral,
    ehrhart_coxeter,
    load_zonotope_file,
    parse_zonotope_document,
)
from .linalg import (
    int_vector,
    rank,
    rat_vector,
)
from .oracle import (
    brute_force_structures,
    count_points,
)
from .roots import (
    FAMILIES,
    PositiveRootSet,
    is_integral,
    positive_roots,
    rank_label,
    standard_shift,
    table_label,
)

__version__ = "0.1.0"

__all__ = [
    "EnumerationLimitError",
    "FAMILIES",
    "PositiveRootSet",
    "QuasiPolynomial",
    "SEQUENCE_KINDS",
    "ZonotopeFormatError",
    "ZonotopeSpec",
    "brute_force_structures",
    "component_counts",
    "count_points",
    "coxeter_zonotope",
    "egf_ehrhart_quasipolynomial",
    "ehrhart_almost_integral",
    "ehrhart_coxeter",
    "int_vector",
    "is_integral",
    "load_zonotope_file",
    "parse_zonotope_document",
    "positive_roots",
    "rank",
    "rank_label",
    "rat_vector",
    "standard_shift",
    "table_label",
]
