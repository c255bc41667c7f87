"""Brute-force ground truth, kept independent of the formula routes.

Membership in a dilated zonotope is decided from first principles (affine
hull plus facet inequalities), lattice points are counted by scanning a
bounding box, and small labeled structures are counted by direct
enumeration.  These are the oracles the closed-form routes are tested
against; none of them consult the Ehrhart formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, floor, lcm
from typing import Optional, Tuple

from .egf import SEQUENCE_KINDS
from .ehrhart import EnumerationLimitError, ZonotopeSpec
from .linalg import dot, int_vector, integer_kernel_basis
from .signed_graphs import (
    SignedGraph,
    classify,
    halfedge,
    negative_edge,
    negative_loop,
    positive_edge,
)

DEFAULT_MAX_BOX = 10_000_000
# Zonotopes whose facet data stay cached; one CLI run needs a single entry.
GEOMETRY_CACHE_SIZE = 128


class BoxLimitError(RuntimeError):
    """Raised when a bounding-box scan would visit too many points."""


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a point membership test.

    A negative verdict always carries a witness: the violated affine-hull
    functional or facet inequality, together with the two sides of the
    failed comparison.
    """

    verdict: bool
    witness: Optional[Tuple] = None

    def __bool__(self) -> bool:
        return self.verdict


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _geometry(zonotope: ZonotopeSpec):
    """Shift-independent facial data of the generator configuration.

    Returns ``(kernel, facets)``: kernel is a saturated basis of the integer
    vectors orthogonal to all generators, and facets lists the primitive
    normals h of hyperplanes spanned by (rank-1)-subsets of the generators,
    within their span and in both orientations, each with its positive
    generator sum ``sum_g max(<h, g>, 0)``.  At rank 1 the only subset is
    the empty one and its normal line is the span itself; at rank 0 there
    are no generators and no facets.
    """
    gens = zonotope.generators
    d = zonotope.dim
    kernel = tuple(integer_kernel_basis(gens, dim=d))
    r = d - len(kernel)
    normals = {}
    for picked in combinations(range(len(gens)), r - 1) if r else ():
        # a dependent subset leaves a kernel of two or more vectors
        line = integer_kernel_basis([gens[i] for i in picked] + list(kernel), dim=d)
        if len(line) == 1:
            normals[line[0]] = None
    facets = []
    for h in normals:
        for sign in (1, -1):
            vec = tuple(sign * e for e in h)
            facets.append((vec, sum(max(dot(vec, g), 0) for g in gens)))
    return kernel, tuple(facets)


def zonotope_contains(zonotope: ZonotopeSpec, t: int, point) -> MembershipCertificate:
    """Whether an integer point lies in the t-th dilate of the zonotope.

    The test is geometric and exact over the rationals: the point must lie
    on the affine hull (checked against the integer kernel of the
    generators) and satisfy every facet inequality ``<h, p - t*shift> <= t *
    sum_g max(<h, g>, 0)`` for the facet normals of :func:`_geometry`.
    This is the reference that the integer scan of :func:`count_points` is
    tested against.
    """
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {t!r}")
    p = int_vector(point)
    if len(p) != zonotope.dim:
        raise ValueError(f"point has dimension {len(p)}, expected {zonotope.dim}")
    kernel, facets = _geometry(zonotope)
    target = tuple(Fraction(a) - t * b for a, b in zip(p, zonotope.shift))
    for f in kernel:
        value = dot(f, target)
        if value != 0:
            return MembershipCertificate(False, ("affine-hull", f, value))
    for h, positive_sum in facets:
        lhs = dot(h, target)
        rhs = t * positive_sum
        if lhs > rhs:
            return MembershipCertificate(False, ("facet", h, lhs, rhs))
    return MembershipCertificate(True)


def count_points(zonotope: ZonotopeSpec, t: int, max_box: int = DEFAULT_MAX_BOX) -> int:
    """Number of lattice points in the t-th dilate, by exhaustive scan.

    Every point of the dilate satisfies, coordinate by coordinate,
    ``t*shift_i + t*sum_g min(g_i, 0) <= x_i <= t*shift_i + t*sum_g
    max(g_i, 0)``, so scanning that box is exhaustive.  Each point gets the
    membership test of :func:`zonotope_contains` in integer form: the
    affine data are scaled by the denominator of ``t*shift``.  Aborts with
    :class:`BoxLimitError` when the box holds more than ``max_box`` points.
    """
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"dilation factor must be a positive integer, got {t!r}")
    ranges = []
    volume = 1
    for i in range(zonotope.dim):
        base = t * zonotope.shift[i]
        low = ceil(base + t * sum(min(g[i], 0) for g in zonotope.generators))
        high = floor(base + t * sum(max(g[i], 0) for g in zonotope.generators))
        if low > high:
            return 0
        ranges.append(range(low, high + 1))
        volume *= high - low + 1
        if volume > max_box:
            raise BoxLimitError(
                f"bounding box holds {volume}+ points, above the limit of {max_box}"
            )
    kernel, facets = _geometry(zonotope)
    den = lcm(*((t * s).denominator for s in zonotope.shift))
    shifted = tuple(int(den * t * s) for s in zonotope.shift)
    kernel_rows = [(f, dot(f, shifted)) for f in kernel]
    facet_rows = [(h, dot(h, shifted) + den * t * s) for h, s in facets]
    count = 0
    for p in product(*ranges):
        ok = True
        for f, rhs in kernel_rows:
            if den * dot(f, p) != rhs:
                ok = False
                break
        if ok:
            for h, bound in facet_rows:
                if den * dot(h, p) > bound:
                    ok = False
                    break
        if ok:
            count += 1
    return count


UNSIGNED_STRUCTURE_MAX = 5
SIGNED_STRUCTURE_MAX = 4

def brute_force_structures(kind: str, n: int) -> int:
    """Count connected structures on n labeled vertices by enumeration.

    Unsigned kinds ("tree": acyclic connected; "pseudotree": connected with
    exactly one cycle, necessarily of length >= 3 in a simple graph) range
    over plain graphs.  Signed kinds range over edge sets with both signs
    available (plus halfedges or negative loops where the kind calls for
    them) and go through the signed-graph classifier; a signed pseudotree
    requires its unique cycle to be unbalanced.  Only edge sets of the one
    feasible size are enumerated: n-1 items for trees, n items for the
    one-extra-feature kinds.
    """
    if kind not in SEQUENCE_KINDS:
        raise ValueError(f"unknown structure kind {kind!r}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex count must be a positive integer, got {n!r}")
    signed = kind.startswith("signed_")
    limit = SIGNED_STRUCTURE_MAX if signed else UNSIGNED_STRUCTURE_MAX
    if n > limit:
        raise EnumerationLimitError(
            f"brute-force enumeration of {kind} is limited to n <= {limit}"
        )
    pairs = list(combinations(range(1, n + 1), 2))
    if not signed:
        size = n - 1 if kind == "tree" else n
        count = 0
        for chosen in combinations(pairs, size):
            if _connected_and_unicyclic_ok(n, chosen, want_cycle=(kind == "pseudotree")):
                count += 1
        return count
    items = [positive_edge(i, j) for i, j in pairs] + [negative_edge(i, j) for i, j in pairs]
    if kind == "signed_halfedge_tree":
        items += [halfedge(v) for v in range(1, n + 1)]
    elif kind == "signed_loop_tree":
        items += [negative_loop(v) for v in range(1, n + 1)]
    size = n - 1 if kind == "signed_tree" else n
    wanted = {
        "signed_tree": lambda s: s.tc == 1 and s.hc == s.lc == s.pc == 0,
        "signed_halfedge_tree": lambda s: s.hc == 1 and s.tc == s.lc == s.pc == 0,
        "signed_loop_tree": lambda s: s.lc == 1 and s.tc == s.hc == s.pc == 0,
        "signed_pseudotree": lambda s: s.pc == 1 and s.tc == s.hc == s.lc == 0,
    }[kind]
    count = 0
    for chosen in combinations(items, size):
        stats = classify(SignedGraph(n, frozenset(chosen)))
        if stats is not None and wanted(stats):
            count += 1
    return count


def _connected_and_unicyclic_ok(n: int, edges, want_cycle: bool) -> bool:
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cycles = 0
    components = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            cycles += 1
        else:
            parent[ru] = rv
            components -= 1
    if components != 1:
        return False
    return cycles == (1 if want_cycle else 0)
