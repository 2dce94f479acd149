"""Spans around the calls into furstlab's layers, recorded from outside.

``install`` replaces each traced public function (in every furstlab module
that holds a reference to it) and each traced method with a wrapper that
records a span: layer name, start, end and the enclosing span.  A layer's
self time is the sum of its spans' durations minus the parts their child
spans cover.  Counters are taken from the arguments and results at the same
boundaries.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict
from time import perf_counter

#: layer -> its self-time metric
TIME_METRICS = {
    "dyadic.tree": "dyadic.tree_s",
    "dyadic.audit": "dyadic.audit_s",
    "family.curves": "family.curves_s",
    "family.embed": "family.embed_s",
    "family.pairwise": "family.pairwise_s",
    "config.build": "config.build_s",
    "config.union": "config.union_s",
    "config.mainlem": "config.mainlem_s",
    "incidence.fine": "incidence.fine_s",
    "incidence.coarse": "incidence.coarse_s",
    "incidence.cube": "incidence.cube_s",
    "fourier.lift": "fourier.lift_s",
    "fourier.decay": "fourier.decay_s",
    "cli.csv": "cli.csv_s",
}
#: counters, with their units
COUNT_METRICS = {
    "dyadic.tree_cells": "count",
    "dyadic.audit_calls": "count",
    "family.curves_n": "count",
    "family.pairwise_pairs": "count",
    "config.union_squares": "count",
    "incidence.fine_hits": "count",
    "incidence.coarse_hits": "count",
    "incidence.cube_pairs": "count",
    "fourier.gemm_gflop": "GFLOP",
    "cli.csv_bytes": "bytes",
}
#: every metric ``Tracer.metrics`` reports, with its unit
UNITS = {
    **{metric: "s" for metric in TIME_METRICS.values()},
    **COUNT_METRICS,
    "fourier.gemm_gflops": "GFLOP/s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, layer, start, end, parent
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def wrap(self, layer: str, fn, count=None):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.self_s[layer] += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start
                self.spans.append((span_id, layer, start, end, parent[0] if parent else -1))
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        out = {metric: self.self_s.get(layer, 0.0) for layer, metric in TIME_METRICS.items()}
        out.update({name: self.counts.get(name, 0.0) for name in COUNT_METRICS})
        decay = out["fourier.decay_s"]
        out["fourier.gemm_gflops"] = out["fourier.gemm_gflop"] / decay if decay > 0 else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,layer,start_s,end_s,parent\n")
            t0 = min((span[2] for span in self.spans), default=0.0)
            for span_id, layer, start, end, parent in sorted(self.spans):
                fh.write(f"{span_id},{layer},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _add(name: str, value_of):
    def count(counts, args, result):
        counts[name] += value_of(args, result)
    return count


def _gemm_gflop(args, report) -> float:
    """Computed complex-GEMM work of one decay_slope call: 8 flops per multiply-add."""
    atoms = len(args[0].points)
    side = 2 * int(math.floor(report.R_list[-1] / report.h + 1e-9)) + 1
    return 8.0 * atoms * side * side / 1e9


def _pairwise_counter(tracer: Tracer, gen_fn):
    """Count the pairs a pairwise generator yields (no span: it runs lazily)."""
    def counted(*args, **kwargs):
        for item in gen_fn(*args, **kwargs):
            tracer.counts["family.pairwise_pairs"] += len(item[0])
            yield item
    return counted


def install(tracer: Tracer) -> None:
    """Wrap furstlab's layer entry points with spans recorded by ``tracer``."""
    from furstlab import cli, config, dyadic, family, fourier, incidence

    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "furstlab"]

    def function(mod, name, layer, count=None):
        orig = getattr(mod, name, None)
        if orig is None:
            tracer.missing.append(f"{mod.__name__}.{name}")
            return
        traced = tracer.wrap(layer, orig, count)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, traced)

    def method(cls, name, layer, count=None):
        orig = cls.__dict__.get(name)
        if orig is None:
            tracer.missing.append(f"{cls.__name__}.{name}")
        elif isinstance(orig, property):
            setattr(cls, name, property(tracer.wrap(layer, orig.fget, count)))
        else:
            setattr(cls, name, tracer.wrap(layer, orig, count))

    function(dyadic, "generate_delta_set_indices", "dyadic.tree",
             _add("dyadic.tree_cells", lambda a, r: r.shape[0] * r.shape[1]))
    function(dyadic, "delta_set_constant", "dyadic.audit",
             _add("dyadic.audit_calls", lambda a, r: 1))
    for ctor in ("affine_curve", "quadratic_translate_curve"):
        function(family, ctor, "family.curves", _add("family.curves_n", lambda a, r: 1))
    Family = family.TransversalFamily
    method(Family, "__init__", "family.curves")
    method(Family, "embedding_images", "family.embed")
    method(Family, "t_const", "family.pairwise")
    method(Family, "min_pair_distance", "family.pairwise")
    gen = Family.__dict__.get("pairwise_defect_and_dist")
    if gen is None:
        tracer.missing.append("TransversalFamily.pairwise_defect_and_dist")
    else:
        Family.pairwise_defect_and_dist = _pairwise_counter(tracer, gen)
    function(config, "build_nice_configuration", "config.build")
    method(config.NiceConfiguration, "union_square_count", "config.union",
           _add("config.union_squares", lambda a, r: r))
    function(config, "build_uniform_line_family", "config.mainlem")
    method(config.MainlemEvaluator, "__init__", "config.mainlem")
    method(config.MainlemEvaluator, "sweep", "config.mainlem")
    function(incidence, "incidences", "incidence.fine",
             _add("incidence.fine_hits", lambda a, r: r.count))
    function(incidence, "high_low_report", "incidence.coarse",
             _add("incidence.coarse_hits", lambda a, r: r.coarse_count))
    function(incidence, "cube_incidence_counts", "incidence.cube",
             _add("incidence.cube_pairs", lambda a, r: int(r[0].sum())))
    function(fourier, "uniform_grid_lift", "fourier.lift")
    function(fourier, "decay_slope", "fourier.decay", _add("fourier.gemm_gflop", _gemm_gflop))
    function(cli, "write_csv", "cli.csv", _add("cli.csv_bytes", lambda a, r: os.path.getsize(a[0])))
