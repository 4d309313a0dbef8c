"""Per-layer tracing of tverlab from outside the package.

Layers are the modules of ``src/tverlab``.  The tracer wraps the public
functions at the places where one module imports them from another (a
``from .feasibility import hulls_common_point`` binds a name in the
importing module, so that is the attribute to replace), records one span per
call (name, start, end, parent) and a few counts at the same boundaries, and
derives every per-layer metric from them.  No file under ``src/`` is edited;
:meth:`Tracer.uninstall` puts every original back.

Self time is a span's duration minus the durations of its direct child
spans.  The program is single-threaded, so children never overlap.  Counts
and times are totals over every round of the traced execution; times are
as measured (not rescaled like ``wall_s``) and include the speed probes'
share, about 1%.  ``trace.overhead_s`` is a difference of two ``wall_s``
values and reads below zero when the overhead is smaller than their noise.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter
from pathlib import Path


def _bits(value) -> int:
    return max(int(value.numerator).bit_length(), int(value.denominator).bit_length())


def _after_lp(tracer, args, result):
    rows = args[0]
    status, vector = result
    tracer.lp_cols.append(len(rows[0]) if rows else 0)
    if status == "infeasible":
        tracer.counts["feasibility.lp_infeasible"] += 1
    if vector:
        bits = max(_bits(v) for v in vector)
        if bits > tracer.counts["feasibility.cert_bits_max"]:
            tracer.counts["feasibility.cert_bits_max"] = bits


def _after_search_hulls(tracer, args, result):
    if not result.feasible:
        tracer.counts["search.hits"] += 1


def _after_parse_pointset(tracer, args, result):
    tracer.counts["pointset_io.bytes_in"] += len(args[0])


def _after_load_records(tracer, args, result):
    tracer.counts["pointset_io.bytes_in"] += len(args[0])
    tracer.counts["pointset_io.records_in"] += len(result)


def _after_to_json_line(tracer, args, result):
    # the timing value differs from run to run; leave it out of the count
    tracer.counts["pointset_io.bytes_out"] += len(result) - len(json.dumps(args[0].timing))


#: (module, attribute, span name, hook run on the result) for every import
#: site the workloads reach.  A span's layer is the part of its name before
#: the first dot.
SPANS = (
    ("tverlab.cli", "main", "cli.main", None),
    ("tverlab.cli", "parse_pointset", "pointset_io.parse_pointset", _after_parse_pointset),
    ("tverlab.cli", "load_records", "pointset_io.load_records", _after_load_records),
    ("tverlab.cli", "outcome_payload", "pointset_io.outcome_payload", None),
    ("tverlab.cli", "replay_record", "pointset_io.replay_record", None),
    ("tverlab.pointset_io.ReportRecord", "to_json_line", "pointset_io.to_json_line",
     _after_to_json_line),
    ("tverlab.search", "hulls_common_point", "feasibility.hulls_common_point",
     _after_search_hulls),
    ("tverlab.tolerance", "hulls_common_point", "feasibility.hulls_common_point", None),
    ("tverlab.feasibility", "solve_equality_feasibility", "feasibility.lp", _after_lp),
    ("tverlab.search", "verify_outcome", "feasibility.verify", None),
    ("tverlab.pointset_io", "verify_outcome", "feasibility.verify", None),
    ("tverlab.kernel", "det", "kernel.det", None),
    ("tverlab.ordertype", "orientation", "kernel.orientation", None),
    ("tverlab.cli", "is_order_homogeneous", "ordertype.is_order_homogeneous", None),
    ("tverlab.search", "is_order_homogeneous", "ordertype.is_order_homogeneous", None),
    ("tverlab.tolerance", "is_order_homogeneous", "ordertype.is_order_homogeneous", None),
    ("tverlab.cli", "moment_points", "ordertype.moment_points", None),
    ("tverlab.search", "moment_points", "ordertype.moment_points", None),
    ("tverlab.cli", "set_tolerance", "tolerance.set_tolerance", None),
    ("tverlab.search", "set_tolerance", "tolerance.set_tolerance", None),
    ("tverlab.cli", "scan_c_lower", "search.scan_c_lower", None),
    ("tverlab.cli", "t_line", "search.t_line", None),
)

#: Calls and yields that are counted without a span: they are many and cheap,
#: so their time stays with the caller's span.
COUNTED_CALLS = (
    ("tverlab.tolerance", "intervals_common_point", "feasibility.interval_calls"),
)
COUNTED_YIELDS = (
    ("tverlab.tolerance", "iter_partitions", "tolerance.partitions"),
    ("tverlab.search", "alpha_candidates", "search.candidates"),
)

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("feasibility.lp_solves", "count"),
    ("feasibility.lp_s", "s"),
    ("feasibility.lp_ms_p50", "ms"),
    ("feasibility.lp_ms_p95", "ms"),
    ("feasibility.lp_cols_mean", "count"),
    ("feasibility.infeasible_frac", "ratio"),
    ("feasibility.cert_bits_max", "bits"),
    ("feasibility.build_s", "s"),
    ("feasibility.verify_calls", "count"),
    ("feasibility.verify_s", "s"),
    ("feasibility.interval_calls", "count"),
    ("kernel.det_calls", "count"),
    ("kernel.det_s", "s"),
    ("ordertype.homog_calls", "count"),
    ("ordertype.homog_self_s", "s"),
    ("ordertype.moment_points_s", "s"),
    ("tolerance.partitions", "count"),
    ("tolerance.lp_per_partition", "ratio"),
    ("tolerance.self_s", "s"),
    ("search.candidates", "count"),
    ("search.hit_frac", "ratio"),
    ("search.self_s", "s"),
    ("pointset_io.records_in", "count"),
    ("pointset_io.bytes_in", "bytes"),
    ("pointset_io.bytes_out", "bytes"),
    ("pointset_io.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

#: Counts that must repeat exactly across two runs of one seed.
DETERMINISTIC = (
    "feasibility.lp_solves",
    "tolerance.partitions",
    "kernel.det_calls",
    "search.candidates",
    "pointset_io.bytes_out",
)


def _resolve(path: str):
    """Module or class named by a dotted path (``pkg.mod`` or ``pkg.mod.Class``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans and counts kept in memory while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.lp_cols = []
        self._stack = []
        self._originals = []

    def _span(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_yields(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _patch(self, path, attr, wrapper):
        owner = _resolve(path)
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for path, attr, name, after in SPANS:
            self._patch(path, attr, self._span(name, getattr(_resolve(path), attr), after))
        for path, attr, name in COUNTED_CALLS:
            self._patch(path, attr, self._count_calls(name, getattr(_resolve(path), attr)))
        for path, attr, name in COUNTED_YIELDS:
            self._patch(path, attr, self._count_yields(name, getattr(_resolve(path), attr)))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path):
        """Write the spans as CSV: name, start, end, parent (row index or -1)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")

    def layer_metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, derived from the recorded spans and counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = Counter()  # span name -> summed duration
        self_time = Counter()  # span name -> summed self time
        calls = Counter()
        lp_ms = []
        for (name, start, end, _), children in zip(self.spans, child_time):
            total[name] += end - start
            self_time[name] += end - start - children
            calls[name] += 1
            if name == "feasibility.lp":
                lp_ms.append((end - start) * 1000.0)
        layer_self = Counter()
        for name, value in self_time.items():
            layer_self[name.split(".", 1)[0]] += value

        c = self.counts
        solves = calls["feasibility.lp"]
        lp_ms.sort()
        values = {
            "feasibility.lp_solves": solves,
            "feasibility.lp_s": total["feasibility.lp"],
            "feasibility.lp_ms_p50": statistics.median(lp_ms) if lp_ms else 0.0,
            "feasibility.lp_ms_p95": lp_ms[int(0.95 * (len(lp_ms) - 1))] if lp_ms else 0.0,
            "feasibility.lp_cols_mean": statistics.fmean(self.lp_cols) if self.lp_cols else 0.0,
            "feasibility.infeasible_frac": c["feasibility.lp_infeasible"] / solves if solves else 0.0,
            "feasibility.cert_bits_max": c["feasibility.cert_bits_max"],
            "feasibility.build_s": self_time["feasibility.hulls_common_point"],
            "feasibility.verify_calls": calls["feasibility.verify"],
            "feasibility.verify_s": total["feasibility.verify"],
            "feasibility.interval_calls": c["feasibility.interval_calls"],
            "kernel.det_calls": calls["kernel.det"],
            "kernel.det_s": total["kernel.det"],
            "ordertype.homog_calls": calls["ordertype.is_order_homogeneous"],
            "ordertype.homog_self_s": self_time["ordertype.is_order_homogeneous"],
            "ordertype.moment_points_s": total["ordertype.moment_points"],
            "tolerance.partitions": c["tolerance.partitions"],
            "tolerance.lp_per_partition": (
                solves / c["tolerance.partitions"] if c["tolerance.partitions"] else 0.0
            ),
            "tolerance.self_s": layer_self["tolerance"],
            "search.candidates": c["search.candidates"],
            "search.hit_frac": (
                c["search.hits"] / c["search.candidates"] if c["search.candidates"] else 0.0
            ),
            "search.self_s": layer_self["search"],
            "pointset_io.records_in": c["pointset_io.records_in"],
            "pointset_io.bytes_in": c["pointset_io.bytes_in"],
            "pointset_io.bytes_out": c["pointset_io.bytes_out"],
            "pointset_io.self_s": layer_self["pointset_io"],
            "cli.self_s": layer_self["cli"],
            "trace.overhead_s": overhead_s,
            "trace.spans": len(self.spans),
        }
        return {name: {"value": values[name] if unit in ("count", "bits", "bytes") else float(values[name]),
                       "unit": unit}
                for name, unit in LAYER_METRICS}
