"""Spans and counters recorded around the package's public functions.

The tracer wraps functions from outside the program: each wrapper replaces
the function in every ``coxeter_ehrhart`` module namespace that holds it
(methods are replaced on their class).  A span records (name, start, end,
parent); the request id is added when the spans are written out.  Hot
functions that the metrics only need counted get a counting wrapper, which
costs less than a span.  A function that no longer exists is listed in
``absent`` and its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
from math import ceil, floor
from time import perf_counter
from typing import Callable, Dict, List, Optional

PACKAGE = "coxeter_ehrhart"

# metric prefix -> (module, attribute path)
SPANS = {
    "signed_graphs.graph_from_roots": ("signed_graphs", "graph_from_roots"),
    "signed_graphs.classify": ("signed_graphs", "classify"),
    "linalg.try_add": ("linalg", "IntegerEchelon.try_add"),
    "linalg.relative_volume": ("linalg", "relative_volume"),
    "linalg.integer_kernel_basis": ("linalg", "integer_kernel_basis"),
    "ehrhart.forest_census": ("ehrhart", "forest_census"),
    "ehrhart.ehrhart_almost_integral": ("ehrhart", "ehrhart_almost_integral"),
    "series.mul": ("series", "RatSeries.__mul__"),
    "series.exp": ("series", "RatSeries.exp"),
    "series.log1p": ("series", "RatSeries.log1p"),
    "series.scale_arg": ("series", "RatSeries.scale_arg"),
    "egf.component_egfs": ("egf", "component_egfs"),
    "egf.egf_ehrhart_values": ("egf", "egf_ehrhart_values"),
    "egf.egf_ehrhart_standard_odd": ("egf", "egf_ehrhart_standard_odd"),
    "oracle.count_points": ("oracle", "count_points"),
    "oracle.zonotope_contains": ("oracle", "zonotope_contains"),
    "cli.main": ("cli", "main"),
}
COUNTED = {
    "linalg.determinant": ("linalg", "determinant"),
    "linalg.int_vector": ("linalg", "int_vector"),
    "linalg.dot": ("linalg", "dot"),
}
YIELDS = {"ehrhart.independent_subsets": ("ehrhart", "independent_subsets")}


def box_points(zonotope, t: int) -> int:
    """Points in the bounding box that ``count_points`` scans (computed here)."""
    volume = 1
    for i in range(zonotope.dim):
        base = t * zonotope.shift[i]
        low = ceil(base + t * sum(min(g[i], 0) for g in zonotope.generators))
        high = floor(base + t * sum(max(g[i], 0) for g in zonotope.generators))
        if low > high:
            return 0
        volume *= high - low + 1
    return volume


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.absent: List[str] = []

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -------------------------------------------------------------- wrappers

    def _span(self, name: str, fn: Callable, record: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack
        # Series times a scalar is scaling, not a series multiplication.
        series_only = name == "series.mul"

        def wrapper(*args, **kwargs):
            if series_only and not isinstance(args[1], type(args[0])):
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if record is not None:
                record(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".yielded"

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                yield item

        return wrapper

    def _recorder(self, name: str, fn: Callable) -> Optional[Callable]:
        """Counters that need the arguments or the result of a call."""
        if name == "linalg.try_add":
            return lambda args, result: self.add("linalg.try_add.accepted", result is not None)
        if name == "ehrhart.forest_census":
            computed: List[object] = []  # a cache hit returns an object seen before

            def census(args, result):
                if not any(result is seen for seen in computed):
                    computed.append(result)
                    self.add("ehrhart.forest_census.subsets", getattr(result, "total", 0))

            return census
        if name == "egf.component_egfs":
            info = getattr(fn, "cache_info", None)
            if info is None:
                return None
            last = [info().hits]

            def egfs(args, result):
                hits = info().hits
                self.add("egf.component_egfs.hits", hits - last[0])
                last[0] = hits

            return egfs
        if name == "oracle.count_points":

            def scan(args, result):
                self.add("oracle.box_points", box_points(args[0], args[1]))
                self.add("oracle.points_counted", result)

            return scan
        return None

    # ----------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every listed function that exists in the loaded package."""
        for table, make in ((SPANS, None), (COUNTED, self._counter), (YIELDS, self._yield_counter)):
            for name, (module_name, path) in table.items():
                original, owner, attribute = _resolve(module_name, path)
                if original is None:
                    self.absent.append(name)
                    continue
                if make is None:
                    wrapper = self._span(name, original, self._recorder(name, original))
                else:
                    wrapper = make(name, original)
                if owner is not None:
                    setattr(owner, attribute, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] != PACKAGE:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    # ------------------------------------------------------------- results

    def summary(self) -> Dict[str, float]:
        """Per-name calls, total span time and self time, plus the counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = dict(self.counts)
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + duration
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + duration - covered[index]
        return out

    def write(self, path, request_id: str) -> None:
        """Write the spans as tab-separated lines: request, id, parent, name,
        start and end (seconds on the request's perf_counter clock)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("request\tspan\tparent\tname\tstart\tend\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{request_id}\t{index}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _resolve(module_name: str, path: str):
    """(function, owning class or None, attribute name); function None if gone."""
    try:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None, None, None
    owner_name, _, attribute = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else None
    if owner_name and owner is None:
        return None, None, None
    original = getattr(owner if owner is not None else module, attribute, None)
    if not callable(original):
        return None, None, None
    return original, owner, attribute
