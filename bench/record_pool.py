"""Record ``pool.json``: the zonotopes behind the generic and oracle workloads.

Usage, from the repository root::

    python3 bench/record_pool.py

Members are drawn from a fixed seed with the shapes listed below (entries in
[-2, 2], shift denominators from {1, 2, 3, 4, 6}).  Each quasipolynomial
comes from the independent-subset route and is then cross-checked against a
lattice-point count by scanning the bounding box: the package's box oracle
when the box is small, and otherwise a vectorised scan written here against
facet normals computed here (needs NumPy; full-rank zonotopes only).  A
member is recorded only if every dilation it was checked at agrees, and the
checked counts are stored with it.  The benchmark itself never runs this.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coxeter_ehrhart import ZonotopeSpec, count_points, ehrhart_almost_integral, rank  # noqa: E402

# (name, dimension, generators, shift denominator, dilations requested)
GENERIC = [
    ("g6x14d2", 6, 14, 2), ("g6x13d1", 6, 13, 1), ("g6x12d3", 6, 12, 3),
    ("g5x12d4", 5, 12, 4), ("g5x12d1", 5, 12, 1), ("g5x11d2", 5, 11, 2),
    ("g5x11d6", 5, 11, 6), ("g5x10d6", 5, 10, 6), ("g5x10d3", 5, 10, 3),
    ("g5x10d1", 5, 10, 1), ("g5x9d2", 5, 9, 2), ("g4x10d1", 4, 10, 1),
    ("g4x10d2", 4, 10, 2), ("g4x9d4", 4, 9, 4), ("g4x8d3", 4, 8, 3),
    ("g3x10d6", 3, 10, 6), ("g3x9d2", 3, 9, 2), ("g3x12d4", 3, 12, 4),
]
GENERIC_T = [1, 2, 3]

# (name, dimension, rank, generators, shift denominator, dilation, box points
# allowed at that dilation).  Rank 1 runs the oracle's segment path; the
# others are rank-deficient and run its integer path with a kernel test.
ORACLE = [
    ("s3r1a", 3, 1, 3, 2, 6, (25_000, 52_000)), ("s3r1b", 3, 1, 4, 3, 5, (30_000, 50_000)),
    ("s3r1c", 3, 1, 2, 4, 4, (3_000, 8_000)), ("s2r1d", 2, 1, 3, 6, 9, (1_000, 4_000)),
    ("f3r2a", 3, 2, 6, 2, 4, (60_000, 110_000)), ("f3r2b", 3, 2, 5, 3, 5, (60_000, 110_000)),
    ("f4r2c", 4, 2, 6, 2, 2, (45_000, 90_000)), ("f4r2d", 4, 2, 5, 4, 2, (45_000, 90_000)),
    ("f4r3e", 4, 3, 7, 4, 2, (25_000, 60_000)), ("f4r3f", 4, 3, 6, 6, 2, (25_000, 60_000)),
]

ORACLE_BOX = 300_000  # largest box scanned with the package's (pure Python) oracle
NUMPY_BOX = 6_000_000


def _entry(rng: random.Random) -> int:
    return 0 if rng.random() < 0.5 else rng.choice((-2, -1, 1, 2))


def _shift(rng: random.Random, dim: int, den: int):
    while True:
        shift = [Fraction(rng.randrange(den), den) for _ in range(dim)]
        if lcm(*(s.denominator for s in shift)) == den:
            return shift


def draw_generic(rng: random.Random, dim: int, count: int, den: int):
    while True:
        gens = []
        while len(gens) < count:
            g = [_entry(rng) for _ in range(dim)]
            if any(g):
                gens.append(g)
        if rank(gens) == dim:
            return gens, _shift(rng, dim, den)


def draw_deficient(rng: random.Random, dim: int, r: int, count: int, den: int):
    """``count`` generators of rank ``r``: small combinations of r base
    vectors.  A rank-1 direction has no zero entry, so its box is not flat."""
    while True:
        if r == 1:
            base = [[rng.choice((-2, -1, 1, 2)) for _ in range(dim)]]
        else:
            base = [[_entry(rng) for _ in range(dim)] for _ in range(r)]
        if rank(base) != r:
            continue
        gens = []
        for _ in range(50 * count):
            coeffs = [rng.choice((-1, 0, 1)) for _ in range(r)]
            g = [sum(c * b[i] for c, b in zip(coeffs, base)) for i in range(dim)]
            if any(g) and max(map(abs, g)) <= 2:
                gens.append(g)
                if len(gens) == count:
                    break
        if len(gens) == count and rank(gens) == r:
            return gens, _shift(rng, dim, den)


def box_points(gens, shift, t: int) -> int:
    volume = 1
    for i, s in enumerate(shift):
        low = ceil(t * s + t * sum(min(g[i], 0) for g in gens))
        high = floor(t * s + t * sum(max(g[i], 0) for g in gens))
        volume *= max(high - low + 1, 0)
    return volume


def numpy_count(gens, shift, t: int) -> int:
    """Lattice points of the full-rank t-th dilate, by a vectorised box scan."""
    import numpy as np

    d = len(shift)
    normals = set()
    for subset in itertools.combinations(gens, d - 1):
        m = np.array(subset, dtype=float)
        h = [round((-1) ** i * np.linalg.det(np.delete(m, i, axis=1))) for i in range(d)]
        g = 0
        for e in h:
            g = gcd(g, e)
        if g:
            h = tuple(e // g for e in h)
            normals.add(max(h, tuple(-e for e in h)))
    H = np.array(sorted(normals), dtype=float)
    scale = lcm(*(s.denominator for s in shift))
    # scale * <h, x - t*shift> must lie in [scale * t * low_h, scale * t * high_h]
    offset = np.array([float(scale * t * sum(h_i * s for h_i, s in zip(h, shift))) for h in H.astype(int).tolist()])
    gh = H @ np.array(gens, dtype=float).T
    low = scale * t * np.minimum(gh, 0).sum(axis=1) + offset
    high = scale * t * np.maximum(gh, 0).sum(axis=1) + offset
    axes = []
    for i, s in enumerate(shift):
        lo = ceil(t * s + t * sum(min(g[i], 0) for g in gens))
        hi = floor(t * s + t * sum(max(g[i], 0) for g in gens))
        axes.append(np.arange(lo, hi + 1, dtype=float))
    grid = np.stack(np.meshgrid(*axes[:-1], indexing="ij"), axis=-1).reshape(-1, d - 1)
    last = axes[-1]
    total = 0
    step = max(1, 4096 // len(last))
    for start in range(0, len(grid), step):
        head = np.repeat(grid[start:start + step], len(last), axis=0)
        tail = np.tile(last, len(head) // len(last))[:, None]
        points = np.hstack([head, tail])
        values = scale * (points @ H.T)
        inside = np.all((values >= low) & (values <= high), axis=1)
        total += int(inside.sum())
    return total


def cross_check(gens, shift, qp, dilations, full_rank: bool):
    """Counts at each dilation the scan can afford; raises on disagreement."""
    spec = ZonotopeSpec.make(gens, shift)
    checked = {}
    for t in dilations:
        size = box_points(gens, shift, t)
        if size <= ORACLE_BOX:
            counted = count_points(spec, t)
        elif full_rank and size <= NUMPY_BOX:
            counted = numpy_count(gens, shift, t)
        else:
            continue
        if counted != qp.evaluate(t):
            raise AssertionError(f"{gens} {shift}: scan {counted} != {qp.evaluate(t)} at t={t}")
        checked[str(t)] = counted
    if not checked:
        raise AssertionError(f"{gens} {shift}: no dilation could be cross-checked")
    return checked


def _member(name, gens, shift, ts, full_rank: bool):
    spec = ZonotopeSpec.make(gens, shift)
    qp = ehrhart_almost_integral(spec)
    dilations = sorted(set(ts) | set(range(1, qp.period + 1)))
    checked = cross_check(gens, shift, qp, dilations, full_rank)
    print(f"{name}: period {qp.period}, checked at t = {', '.join(checked)}", flush=True)
    return {
        "name": name,
        "generators": gens,
        "shift": [str(s) for s in shift],
        "t": ts,
        "period": qp.period,
        "constituents": [[str(c) for c in poly] for poly in qp.constituents],
        "box_checked": checked,
    }


def main() -> None:
    rng = random.Random("coxeter-ehrhart benchmark pool")
    pool = {"generic": [], "oracle": []}
    for name, dim, count, den in GENERIC:
        gens, shift = draw_generic(rng, dim, count, den)
        pool["generic"].append(_member(name, gens, shift, GENERIC_T, True))
    for name, dim, r, count, den, t, (low, high) in ORACLE:
        for _ in range(100_000):  # a box of the intended size, and a dilate with points in it
            gens, shift = draw_deficient(rng, dim, r, count, den)
            if low <= box_points(gens, shift, t) <= high:
                if ehrhart_almost_integral(ZonotopeSpec.make(gens, shift)).evaluate(t) > 0:
                    break
        else:
            raise AssertionError(f"{name}: no draw has a box of {low}..{high} points at t={t}")
        pool["oracle"].append(_member(name, gens, shift, [t], False))
    out = Path(__file__).with_name("pool.json")
    out.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
