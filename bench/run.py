"""Benchmark of the coxeter-ehrhart command line, one workload per run.

Usage, from the repository root::

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  Requests run one at a time,
each in a fresh interpreter (see ``child.py``), and every output is checked
against a reference from another route (see ``reference.py``).  A pass runs
the workload's whole request list; passes repeat while the next one is
expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: total latency of the request list, taking each request at
  its median over the passes.
* ``req_p50_s``: median request latency over the list, each request again
  at its median over the passes.
* ``setup_s``: median time to import the package in a fresh interpreter,
  over every request process of the run.
* ``peak_rss_mb``: highest peak RSS of any request process.
* ``ok_frac``: requests that succeeded / requests attempted, i.e.
  1 - fail_frac.  A request fails on an unexpected exit code, an exception,
  or an output that disagrees with the reference.

The three timings are scaled to a reference host speed (see ``PROBE``); the
summary lines also print them as timed.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes (median over passes), with the
tracing overhead as traced minus untraced ``wall_s``.  Spans are written to
``.bench_work/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from reference import Mismatch, check
from workloads import WORKLOADS, build

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
WORK = ".bench_work"
HARD_LIMIT_S = 170  # a run ends within this, whatever --seconds says

# On a shared host the speed of every process drifts by up to 40% for
# minutes at a time, which moves all timings of a run together.  A fixed
# probe (importing a set of standard modules in a fresh interpreter) is timed
# before every other request, and the reported times are scaled to the host
# speed at which the probe takes this long.
PROBE_REFERENCE_S = 0.014
PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import argparse, csv, dataclasses, fractions, json, typing\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = {
    "wall_s": "s",
    "req_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Per-layer metrics and units; ratios are derived below from their bases.
PER_LAYER = {
    "signed_graphs.graph_from_roots.calls": "count",
    "signed_graphs.graph_from_roots.s": "s",
    "signed_graphs.classify.calls": "count",
    "signed_graphs.classify.s": "s",
    "linalg.try_add.calls": "count",
    "linalg.try_add.s": "s",
    "linalg.try_add.accept_ratio": "ratio",
    "linalg.relative_volume.calls": "count",
    "linalg.relative_volume.s": "s",
    "linalg.determinant.calls": "count",
    "linalg.integer_kernel_basis.calls": "count",
    "linalg.integer_kernel_basis.s": "s",
    "linalg.int_vector.calls": "count",
    "linalg.dot.calls": "count",
    "ehrhart.forest_census.s": "s",
    "ehrhart.forest_census.self_s": "s",
    "ehrhart.forest_census.subsets": "count",
    "ehrhart.ehrhart_almost_integral.s": "s",
    "ehrhart.ehrhart_almost_integral.self_s": "s",
    "ehrhart.independent_subsets.yielded": "count",
    "series.mul.calls": "count",
    "series.mul.s": "s",
    "series.exp.calls": "count",
    "series.exp.s": "s",
    "series.log1p.s": "s",
    "series.scale_arg.s": "s",
    "egf.component_egfs.calls": "count",
    "egf.component_egfs.s": "s",
    "egf.component_egfs.hit_ratio": "ratio",
    "egf.egf_ehrhart_values.calls": "count",
    "egf.egf_ehrhart_values.s": "s",
    "egf.egf_ehrhart_standard_odd.s": "s",
    "oracle.count_points.calls": "count",
    "oracle.count_points.s": "s",
    "oracle.zonotope_contains.calls": "count",
    "oracle.zonotope_contains.s": "s",
    "oracle.box_points": "points_computed",
    "oracle.accept_ratio": "ratio",
    "cli.main.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# ratio -> (numerator counter, base counter)
RATIOS = {
    "linalg.try_add.accept_ratio": ("linalg.try_add.accepted", "linalg.try_add.calls"),
    "egf.component_egfs.hit_ratio": ("egf.component_egfs.hits", "egf.component_egfs.calls"),
    "oracle.accept_ratio": ("oracle.points_counted", "oracle.box_points"),
}


def probe_s() -> float:
    """Import time of a fixed set of standard modules in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, check=True)
    return float(done.stdout)


class Runner:
    """Runs request processes for one workload and keeps their results."""

    def __init__(self, root: Path, workload: str, requests: List[Dict], hard_deadline: float):
        self.root = root
        self.requests = requests
        self.hard_deadline = hard_deadline
        self.spans_dir = root / WORK / "spans" / workload
        self.failures: List[str] = []
        self.attempted = 0
        self.probes: List[float] = []

    def child(self, argv: List[str], request_id: str, traced: bool) -> Dict:
        spans = str(self.spans_dir / f"{request_id}.tsv") if traced else "-"
        command = [sys.executable, str(CHILD), str(self.root / "src"), spans, request_id, *argv]
        timeout = max(self.hard_deadline - time.monotonic(), 1.0)
        done = subprocess.run(
            command, cwd=self.root, capture_output=True, text=True, timeout=timeout, check=False
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"request process exited {done.returncode}: {done.stderr.strip()[-500:]}")
        result = json.loads(lines[-1])
        if not result["package"]:
            raise RuntimeError("the request process imported coxeter_ehrhart from outside src/")
        return result

    def warm_up(self) -> None:
        """Import once so later processes find the bytecode cache filled.
        A package that cannot be imported shows up as failed requests."""
        try:
            self.child([], "warm-up", False)
        except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired):
            pass

    def run_pass(self, traced: bool) -> List[Dict]:
        if traced:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
        results = []
        for index, request in enumerate(self.requests):
            if index % 2 == 0:
                self.probes.append(probe_s())
            self.attempted += 1
            try:
                result = self.child(request["argv"], request["id"], traced)
                if "error" in result:
                    raise RuntimeError(result["error"].strip().splitlines()[-1])
                if result["rc"] != 0:
                    raise RuntimeError(f"exit code {result['rc']}: {result['stderr'].strip()}")
                check(request["expect"], json.loads(result["stdout"]))
            except (RuntimeError, Mismatch, ValueError, KeyError, TypeError, subprocess.TimeoutExpired) as exc:
                self.failures.append(f"{request['id']} {' '.join(request['argv'])}: {exc}")
                continue
            result["id"] = request["id"]
            results.append(result)
        return results

    def speed(self) -> float:
        """How much faster than the reference speed the host ran (median)."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def _median(values):
    return statistics.median(values) if values else 0.0


def request_latencies(passes: List[List[Dict]]) -> List[float]:
    """Each request's latency at its median over the passes, so that one
    slow pass or a burst of load from outside counts less."""
    latencies: Dict[str, List[float]] = {}
    for results in passes:
        for result in results:
            latencies.setdefault(result["id"], []).append(result["main_s"])
    return [statistics.median(values) for values in latencies.values()]


def end_to_end(passes: List[List[Dict]], attempted: int, failed: int) -> Dict[str, float]:
    results = [r for p in passes for r in p]
    latencies = request_latencies(passes)
    return {
        "wall_s": sum(latencies),
        "req_p50_s": _median(latencies),
        "setup_s": _median([r["import_s"] for r in results]),
        "peak_rss_mb": max((r["peak_rss_kb"] for r in results), default=0) / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(traced: List[List[Dict]], untraced: List[List[Dict]]) -> Dict[str, float]:
    per_pass = []
    for results in traced:
        totals: Dict[str, float] = {}
        for result in results:
            for key, value in result["trace"].items():
                totals[key] = totals.get(key, 0) + value
        for ratio, (numerator, base) in RATIOS.items():
            totals[ratio] = totals.get(numerator, 0) / totals[base] if totals.get(base) else 0.0
        per_pass.append(totals)
    metrics = {name: _median([p.get(name, 0) for p in per_pass]) for name in PER_LAYER}
    metrics["trace.untraced_wall_s"] = sum(request_latencies(untraced))
    metrics["trace.overhead_s"] = sum(request_latencies(traced)) - metrics["trace.untraced_wall_s"]
    return metrics


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    started = time.monotonic()
    requests = build(workload, seed, root / WORK / f"{workload}-{seed}", root)
    runner = Runner(root, workload, requests, started + HARD_LIMIT_S)
    runner.warm_up()
    deadline = time.monotonic() + seconds
    modes = [False, True] if trace else [False]
    passes: Dict[bool, List[List[Dict]]] = {False: [], True: []}
    took: Dict[bool, float] = {}
    count = 0
    while True:
        traced = modes[count % len(modes)]
        began = time.monotonic()
        passes[traced].append(runner.run_pass(traced))
        took[traced] = time.monotonic() - began
        count += 1
        ends = time.monotonic() + took.get(modes[count % len(modes)], took[traced])
        if (count >= len(modes) and ends > deadline) or ends > runner.hard_deadline:
            break
    failed = len(runner.failures)
    speed = runner.speed()
    raw: Dict[str, float] = {}
    if trace:
        metrics = per_layer(passes[True], passes[False])
        units = PER_LAYER
    else:
        raw = end_to_end(passes[False], runner.attempted, failed)
        metrics = {k: v * speed if END_TO_END[k] == "s" else v for k, v in raw.items()}
        units = END_TO_END
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{workload}: seed {seed}, {count} passes of {len(requests)} requests, "
        f"{failed}/{runner.attempted} failed (fail_frac = {failed / runner.attempted}), "
        f"host speed {speed:.4f}"
    )
    for name, value in metrics.items():
        note = f" (as timed: {raw[name]} s)" if units[name] == "s" and name in raw else ""
        print(f"  {name} = {value} {units[name]}{note}")
    absent = sorted({name for results in passes[True] for r in results for name in r["absent"]})
    if absent:
        print(f"  absent from the package, so read as 0: {', '.join(absent)}")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "coxeter_ehrhart" / "cli.py").is_file():
        print(f"error: {root} holds no src/coxeter_ehrhart; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
