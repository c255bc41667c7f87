"""Reference answers for the benchmark's requests, and the output checker.

The references come from routes other than the one a request exercises:

* Permutahedra (families A-D): an integer recurrence over labeled set
  partitions, built from closed-form counts of the connected components
  (trees s^(s-2), signed trees 2^(s-1) s^(s-2), halfedge- and loop-trees
  (2s)^(s-1), unbalanced signed pseudotrees by cycle length).  It shares no
  code with the forest census, the subset formula or the series route; it
  reproduces both built-in tables and the census for A up to n = 7 and for
  B, C and D up to n = 5.
* Zonotope files: quasipolynomials recorded in ``pool.json``, each
  cross-checked against the box-scan oracle at small dilations when it was
  recorded (see ``record_pool.py``).  Requests use lattice-equivalent copies
  of these zonotopes, which have the same quasipolynomial.
* Structure sequences: the same closed-form component counts.

Only mathematical content is compared: period, constituents, evaluations,
oracle values, match flags and sequence values.  Provenance strings, notes
and labels are ignored.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

Poly = Tuple[int, ...]


def _rooted_forests(n: int, k: int) -> int:
    """Forests on n labeled vertices whose k given vertices are the roots."""
    return 1 if k == n else k * n ** (n - k - 1)


def tree_count(s: int) -> int:
    return 1 if s == 1 else s ** (s - 2)


def unicyclic_count(s: int) -> int:
    """Connected simple graphs on s labeled vertices with one cycle."""
    return sum(
        comb(s, k) * factorial(k - 1) * _rooted_forests(s, k) for k in range(3, s + 1)
    ) // 2


def signed_tree_count(s: int) -> int:
    return 2 ** (s - 1) * tree_count(s)


def signed_pseudotree_count(s: int) -> int:
    """Connected signed graphs on s vertices whose one cycle is unbalanced.

    A cycle on k >= 2 vertices has (k-1)!/2 shapes (one for k = 2, the pair
    of opposite-sign parallel edges) and 2^(k-1) unbalanced sign patterns,
    which gives (k-1)! 2^(k-2) in both cases; every tree edge has 2 signs.
    """
    return 2 ** (s - 2) * sum(
        comb(s, k) * factorial(k - 1) * _rooted_forests(s, k) for k in range(2, s + 1)
    ) if s >= 2 else 0


def halfedge_tree_count(s: int) -> int:
    return (2 * s) ** (s - 1)


SEQUENCES = {
    "tree": tree_count,
    "pseudotree": unicyclic_count,
    "signed_tree": signed_tree_count,
    "signed_pseudotree": signed_pseudotree_count,
    "signed_halfedge_tree": halfedge_tree_count,
    "signed_loop_tree": halfedge_tree_count,
}


def _components(family: str, s: int, even_trees_only: bool) -> Tuple[int, int]:
    """(tree components, weighted other components) on s labeled vertices.

    Tree components are marked by t^(s-1), the others by t^s; the weights
    are 2 per unbalanced pseudotree and per loop-tree, 1 per halfedge-tree.
    """
    if family == "A":
        trees, rest = tree_count(s), 0
    else:
        trees = signed_tree_count(s)
        rest = 2 * signed_pseudotree_count(s)
        if family == "B":
            rest += halfedge_tree_count(s)
        elif family == "C":
            rest += 2 * halfedge_tree_count(s)
    if even_trees_only and s % 2:
        trees = 0
    return trees, rest


@lru_cache(maxsize=None)
def _forest_polynomial(family: str, n: int, even_trees_only: bool) -> Poly:
    """Weighted pseudoforest count on n vertices, t^(n - tree components)."""
    table: List[List[int]] = [[1]]
    for m in range(1, n + 1):
        acc = [0] * (m + 1)
        for s in range(1, m + 1):
            trees, rest = _components(family, s, even_trees_only)
            ways = comb(m - 1, s - 1)
            for k, c in enumerate(table[m - s]):
                if c:
                    acc[k + s - 1] += ways * trees * c
                    acc[k + s] += ways * rest * c
        table.append(acc)
    return _trim(table[n])


def _trim(coeffs: Sequence) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def half_integral(family: str, n: int) -> bool:
    return family == "B" or (family == "A" and n % 2 == 0)


def permutahedron_qp(family: str, n: int, variant: str) -> Tuple[int, Tuple[Poly, ...]]:
    """(period, constituents) of the family's permutahedron on n coordinates."""
    full = _forest_polynomial(family, n, False)
    if variant == "integral" or not half_integral(family, n):
        return 1, (full,)
    odd = _forest_polynomial(family, n, True)
    return (1, (full,)) if odd == full else (2, (full, odd))


def evaluate(qp: Tuple[int, Sequence[Sequence]], t: int) -> Fraction:
    period, constituents = qp
    return sum(Fraction(c) * t**k for k, c in enumerate(constituents[t % period]))


# ---------------------------------------------------------------- checker


class Mismatch(Exception):
    """The output disagrees with the reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _check_qp(doc: Dict, qp, required: bool) -> None:
    if "constituents" not in doc and not required:
        return
    _require("constituents" in doc and "period" in doc, "constituents missing")
    period, constituents = qp
    _require(doc["period"] == period, f"period {doc['period']} != {period}")
    got = [_trim(Fraction(c) for c in entry["coefficients"]) for entry in doc["constituents"]]
    want = [_trim(Fraction(c) for c in poly) for poly in constituents]
    _require(got == want, "constituents differ")


def _check_evaluations(doc: Dict, qp, ts: Sequence[int], oracle: bool) -> None:
    evaluations = doc.get("evaluations") or []
    _require(sorted(e["t"] for e in evaluations) == sorted(ts), "dilations differ")
    for entry in evaluations:
        want = evaluate(qp, entry["t"])
        _require(Fraction(entry["value"]) == want, f"ehr({entry['t']}) = {entry['value']} != {want}")
        if oracle:
            _require(Fraction(entry["oracle"]) == want, f"oracle({entry['t']}) != {want}")
            _require(entry["match"] is True, "match flag not set")


def check(expect: Dict, doc: Dict) -> None:
    """Raise :class:`Mismatch` unless ``doc`` carries the expected answer.

    ``expect`` describes the request: ``kind`` is one of "qp" (a
    quasipolynomial or its values), "tables" or "sequences".
    """
    kind = expect["kind"]
    if kind == "qp":
        qp = expect["qp"]
        _check_qp(doc, qp, expect["constituents_required"])
        _check_evaluations(doc, qp, expect["t"], expect["oracle"])
    elif kind == "tables":
        rows = doc.get("rows") or []
        _require(len(rows) == expect["rows"], f"{len(rows)} table rows, expected {expect['rows']}")
        for row in rows:
            _require(row["match"] is True, f"row {row['label']} does not match")
            period, constituents = permutahedron_qp(row["family"], row["coordinates"], expect["variant"])
            if "computed" in row:
                got = [row["computed"]]
            else:
                got = [row["computed_even"], row["computed_odd"]]
            got = [_trim(int(c) for c in poly) for poly in got]
            want = list(constituents) * (len(got) // period)
            _require(got == want, f"row {row['label']} differs from the reference")
    elif kind == "sequences":
        count = SEQUENCES[expect["sequence"]]
        rows = doc.get("rows") or []
        _require([r["n"] for r in rows] == list(range(1, expect["nmax"] + 1)), "sequence length differs")
        for row in rows:
            want = count(row["n"])
            _require(row["egf"] == want, f"{expect['sequence']}({row['n']}) = {row['egf']} != {want}")
            if "oracle" in row:
                _require(row["oracle"] == want and row["match"] is True, f"oracle({row['n']}) != {want}")
    else:
        raise ValueError(f"unknown expectation kind {kind!r}")


def qp_expectation(
    qp, ts: Sequence[int] = (), oracle: bool = False, constituents_required: bool = True
) -> Dict:
    return {
        "kind": "qp",
        "qp": qp,
        "t": sorted(set(ts)),
        "oracle": oracle,
        "constituents_required": constituents_required,
    }


def permutahedron_expectation(
    family: str, n: int, variant: str, ts: Sequence[int] = (), constituents_required: bool = True
) -> Dict:
    return qp_expectation(permutahedron_qp(family, n, variant), ts, False, constituents_required)


def count_expectation(family: str, n: int, variant: str, t: int) -> Dict:
    """One value, checked together with the oracle's count of it."""
    return qp_expectation(permutahedron_qp(family, n, variant), [t], True, False)


def parse_qp(recorded: Dict) -> Tuple[int, Tuple[Tuple[Fraction, ...], ...]]:
    return recorded["period"], tuple(
        tuple(Fraction(c) for c in poly) for poly in recorded["constituents"]
    )


def egf_dilations(family: str, n: int) -> int:
    """m such that dilations 1..m determine every constituent (degree + 1
    points in each parity class)."""
    degree = n - 1 if family == "A" else n
    return 2 * (degree + 1)
