"""The four workloads: fixed CLI request lists and the seeded zonotope files.

Every request runs in a fresh interpreter, so each one pays for its own
cold caches, as a CLI user does.  Each workload mixes a few large requests,
which set ``wall_s``, with many small ones, which set ``req_p50_s``.  Each
list keeps several requests of similar latency around its median, so that
``req_p50_s`` does not jump across a gap in the latency distribution.

The seed orders each request list and generates the zonotope files.  A
zonotope file is a lattice-equivalent copy of a member of ``pool.json``:
the coordinates are permuted and sign-flipped, some generators are negated
and the shift moves by an integer vector.  Each of these maps the lattice to
itself, or translates the body by a lattice vector, so the quasipolynomial
recorded for the member stays exact for every copy.  The work done also
stays nearly the same, which keeps runs with different seeds comparable.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence

from reference import (
    count_expectation,
    egf_dilations,
    parse_qp,
    permutahedron_expectation,
    qp_expectation,
)

POOL_FILE = Path(__file__).with_name("pool.json")

WORKLOADS = ("census", "generic", "egf", "oracle")


def _ehrhart(family: str, n: int, variant: str = "standard", route: str = "forest", ts=()) -> Dict:
    argv = ["ehrhart", family, str(n), "--variant", variant, "--route", route]
    if ts:
        argv += ["--t", *map(str, ts)]
    required = route != "egf" or len(ts) >= egf_dilations(family, n)
    return {"argv": argv, "expect": permutahedron_expectation(family, n, variant, ts, required)}


def _census() -> List[Dict]:
    requests = [_ehrhart(f, n) for f, n in (("A", 7), ("B", 5), ("C", 5), ("D", 5))]
    for family, n in (("A", 6), ("B", 4), ("C", 4), ("D", 4), ("A", 5)):
        requests.append(_ehrhart(family, n))
        requests.append(_ehrhart(family, n, "integral"))
    for family, n in (("A", 6), ("B", 4), ("C", 4), ("D", 4)):
        requests.append(_ehrhart(family, n, ts=range(1, 6)))
    for table, variant, rows in (("table1", "integral", 15), ("table2", "standard", 6)):
        requests.append(
            {"argv": ["tables", table], "expect": {"kind": "tables", "variant": variant, "rows": rows}}
        )
    return requests


def _egf() -> List[Dict]:
    requests = []
    for family, n in (
        ("B", 40), ("A", 40), ("C", 30), ("D", 30), ("B", 30), ("A", 24),
        ("B", 22), ("C", 22), ("D", 22), ("A", 20), ("B", 20), ("C", 20), ("D", 20),
    ):
        requests.append(_ehrhart(family, n, route="egf", ts=range(1, 2 * n + 3)))
    for family, n, t in (("B", 80, 3), ("A", 100, 2), ("C", 50, 1), ("D", 50, 5), ("A", 50, 7)):
        requests.append(_ehrhart(family, n, route="egf", ts=[t]))
    for kind, nmax in (
        ("signed_pseudotree", 150), ("pseudotree", 80), ("signed_halfedge_tree", 70),
        ("tree", 60), ("signed_tree", 60),
    ):
        requests.append(
            {
                "argv": ["sequences", kind, str(nmax)],
                "expect": {"kind": "sequences", "sequence": kind, "nmax": nmax},
            }
        )
    return requests


def _oracle_counts() -> List[Dict]:
    requests = []
    for family, n, t in (
        ("D", 4, 2), ("B", 3, 5), ("C", 3, 3), ("D", 3, 5), ("B", 3, 3),
        ("A", 4, 3), ("A", 3, 6), ("B", 2, 9), ("C", 2, 8), ("A", 5, 2),
    ):
        requests.append(
            {
                "argv": ["count", family, str(n), "--t", str(t), "--oracle"],
                "expect": count_expectation(family, n, "standard", t),
            }
        )
    return requests


def _generic_permutahedra() -> List[Dict]:
    requests = [_ehrhart(f, n, route="generic") for f, n in (("D", 5), ("B", 4), ("C", 4))]
    for family, n in (("A", 6), ("B", 4), ("C", 4)):
        requests.append(_ehrhart(family, n, "integral", route="generic"))
    for variant in ("standard", "integral"):
        requests.append(_ehrhart("C", 4, variant, route="generic", ts=range(1, 5)))
    return requests


def _fraction_text(value: Fraction):
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def equivalent_copy(rng: random.Random, generators: Sequence[Sequence[int]], shift: Sequence[Fraction]):
    """A lattice-equivalent copy: same lattice-point count at every dilation."""
    d = len(shift)
    order = list(range(d))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(d)]

    def move(vector):
        return [signs[i] * vector[order[i]] for i in range(d)]

    gens = [move(g) for g in generators]
    gens = [[-e for e in g] if rng.random() < 0.5 else g for g in gens]
    rng.shuffle(gens)
    new_shift = [s + rng.randint(-1, 1) for s in move(list(shift))]
    return gens, new_shift


def _zonotope_requests(rng: random.Random, workload: str, directory: Path, root: Path) -> List[Dict]:
    pool = json.loads(POOL_FILE.read_text(encoding="utf-8"))
    requests = []
    for member in pool[workload]:
        gens, shift = equivalent_copy(
            rng, member["generators"], [Fraction(s) for s in member["shift"]]
        )
        path = directory / f"{member['name']}.json"
        document = {"generators": gens, "shift": [_fraction_text(s) for s in shift]}
        path.write_text(json.dumps(document) + "\n", encoding="utf-8")
        argv = ["zonotope", str(path.relative_to(root)), "--t", *map(str, member["t"])]
        verify = workload == "oracle"
        if verify:
            argv.append("--verify")
        requests.append(
            {"argv": argv, "expect": qp_expectation(parse_qp(member), member["t"], verify)}
        )
    return requests


def build(workload: str, seed: int, directory: Path, root: Path) -> List[Dict]:
    """The workload's requests in seeded order, each with a unique id.

    Zonotope files are written to ``directory``; request paths are relative
    to ``root``, where the requests run.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        requests = _census()
    elif workload == "egf":
        requests = _egf()
    elif workload == "generic":
        directory.mkdir(parents=True, exist_ok=True)
        requests = _zonotope_requests(rng, "generic", directory, root) + _generic_permutahedra()
    elif workload == "oracle":
        directory.mkdir(parents=True, exist_ok=True)
        requests = _zonotope_requests(rng, "oracle", directory, root) + _oracle_counts()
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    for index, request in enumerate(requests):
        request["id"] = f"{workload}-{index:02d}"
    rng.shuffle(requests)
    return requests
