"""Per-layer spans for traced runs, recorded from outside the program.

The launcher of a traced op calls install(), which replaces each public
function in PATCHES by a wrapper under the name its caller looks it up by
(for example metriclines.search.enum_graphs).  A wrapper records one span,
[name, start, end, parent], and feeds its counter.  Spans stay in memory
until the op ends; dump() hands them to the launcher, which writes them to
its record file.  summarize() turns the records of one traced round into
the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans of an op add up to its cli.main
span, and the op's remainder (interpreter start, imports, exit) is its
time from process start to exit minus that span.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name, counter)
PATCHES = (
    ("metriclines.cli", "load_metric_text", "fileio.parse", "bytes_in"),
    ("metriclines.cli", "load_triples_text", "fileio.parse", "bytes_in"),
    ("metriclines.cli", "load_graph_text", "fileio.parse", "bytes_in"),
    ("metriclines.fileio", "validate_metric", "metric.validate", None),
    ("metriclines.feasibility", "validate_metric", "metric.validate", None),
    ("metriclines.cli", "line_family", "metric.line_family", "pairs"),
    ("metriclines.extremal", "line_family", "metric.line_family", "pairs"),
    ("metriclines.cli", "betweenness_triples", "triples.betweenness", None),
    ("metriclines.feasibility", "betweenness_triples", "triples.betweenness", None),
    ("metriclines.cli", "hyper_line_family", "triples.hyper_line_family", None),
    ("metriclines.search", "graph_dist_rows", "graphs.dist_rows", None),
    ("metriclines.extremal", "graph_dist_rows", "graphs.dist_rows", None),
    ("metriclines.search", "int_metric_line_masks", "graphs.masks", "masks"),
    ("metriclines.search", "onetwo_line_masks", "graphs.masks", "masks"),
    ("metriclines.extremal", "int_metric_line_masks", "graphs.masks", "masks"),
    ("metriclines.search", "enum_graphs", "enumeration.enum", None),
    ("metriclines.search", "enum_triple_systems", "enumeration.enum", None),
    ("metriclines.enumeration", "canonical_graph_cols", "enumeration.canonical", "candidates"),
    ("metriclines.enumeration", "canonical_triples_cols", "enumeration.canonical", "candidates"),
    ("metriclines.cli", "min_lines", "search.run", "instances"),
    ("metriclines.cli", "conjecture_scan", "search.run", "instances"),
    ("metriclines.cli", "check_bound", "extremal.check_bound", None),
    ("metriclines.extremal", "power_bound", "bounds.eval", None),
    ("metriclines.bounds", "PowerBound.sandwich", "bounds.eval", None),
    ("metriclines.bounds", "PowerBound.compare", "bounds.eval", None),
    ("metriclines.cli", "metrizable", "feasibility.metrizable", None),
    ("metriclines.feasibility", "maximize_scaled", "lp.solve", "lp_rows"),
)

ROOT = "cli.main"


def _bytes_in(args, result):
    return len(args[0].encode())


def _pairs(args, result):
    return result.pair_count


def _masks(args, result):
    return len(result)


def _instances(args, result):
    return result.instances_examined


def _lp_rows(args, result):
    return len(args[1])


_COUNTERS = {
    "bytes_in": _bytes_in,
    "pairs": _pairs,
    "masks": _masks,
    "instances": _instances,
    "lp_rows": _lp_rows,
}


class Tracer:
    """Spans and counters of one op, kept in memory until dump()."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.canonical_forms: set = set()
        self.missing: list[str] = []

    def wrap(self, fn, name: str, counter: str | None):
        spans, stack, counts = self.spans, self.stack, self.counts
        forms = self.canonical_forms
        add = _COUNTERS.get(counter)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter == "candidates":
                counts["candidates"] = counts.get("candidates", 0) + 1
                forms.add(result)
            elif add is not None:
                counts[counter] = counts.get(counter, 0) + add(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every name in PATCHES; names the program lacks are listed."""
        for module_name, attr, name, counter in PATCHES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(fn, name, counter))

    def run_root(self, fn, *args):
        return self.wrap(fn, ROOT, None)(*args)

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts["canonical_distinct"] = len(self.canonical_forms)
        return {"spans": self.spans, "counts": counts, "missing": self.missing}


# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "cli.self_s": (ROOT,),
    "fileio.parse_s": ("fileio.parse",),
    "metric.validate_s": ("metric.validate",),
    "metric.line_family_s": ("metric.line_family",),
    "triples.betweenness_s": ("triples.betweenness",),
    "triples.hyper_line_family_s": ("triples.hyper_line_family",),
    "graphs.dist_rows_s": ("graphs.dist_rows",),
    "graphs.masks_s": ("graphs.masks",),
    "enumeration.s": ("enumeration.enum", "enumeration.canonical"),
    "enumeration.canonical_s": ("enumeration.canonical",),
    "search.self_s": ("search.run",),
    "extremal.check_bound_self_s": ("extremal.check_bound",),
    "bounds.s": ("bounds.eval",),
    "feasibility.self_s": ("feasibility.metrizable",),
    "lp.s": ("lp.solve",),
}

COUNTS = {
    "fileio.bytes_in": "bytes_in",
    "metric.pairs": "pairs",
    "graphs.masks": "masks",
    "enumeration.candidates": "candidates",
    "search.instances": "instances",
    "lp.rows": "lp_rows",
}

UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in COUNTS},
    "fileio.bytes_in": "bytes",
    "enumeration.accept_ratio": "ratio",
    "feasibility.branches": "count",
    "feasibility.lp_free_branches": "count",
    "lp.calls": "count",
    "trace.remainder_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(ops: list[dict], baseline_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    Each op dict holds "seconds" (process start to exit, timed by the
    parent), "record" (the launcher's dump) and "branches" (assignments
    the metrizable verb reports, 0 for other verbs).  baseline_s is the
    summed op time of the untraced round run just before.
    """
    total: dict[str, float] = {name: 0.0 for name in UNITS}
    lp_calls = branches = distinct = 0
    traced_s = 0.0
    for op in ops:
        spans = op["record"]["spans"]
        counts = op["record"]["counts"]
        own = self_times(spans)
        by_name: dict[str, float] = {}
        for (name, start, end, _), t in zip(spans, own):
            by_name[name] = by_name.get(name, 0.0) + t
        for metric, names in SELF_TIMES.items():
            total[metric] += sum(by_name.get(n, 0.0) for n in names)
        for metric, key in COUNTS.items():
            total[metric] += counts.get(key, 0)
        lp_calls += sum(1 for s in spans if s[0] == "lp.solve")
        distinct += counts.get("canonical_distinct", 0)
        branches += op["branches"]
        total["trace.remainder_s"] += op["seconds"] - sum(own)
        total["trace.spans"] += len(spans)
        traced_s += op["seconds"]
    candidates = total["enumeration.candidates"]
    total["enumeration.accept_ratio"] = distinct / candidates if candidates else 0.0
    total["lp.calls"] = lp_calls
    total["feasibility.branches"] = branches
    total["feasibility.lp_free_branches"] = branches - lp_calls
    total["trace.overhead"] = traced_s / baseline_s - 1.0
    for name in COUNTS:
        total[name] = int(total[name])
    total["trace.spans"] = int(total["trace.spans"])
    return total
