"""Lines induced by metric betweenness, exactly.

A point w lies on the line through u and v when some arrangement of the
three points makes the triangle inequality tight.  This package computes
line families of finite metric spaces and 3-uniform hypergraphs with
rational arithmetic, checks the known lower bounds on their size, searches
small universes for minimum line counts, and decides whether a triple
system arises from any metric at all.

Importing the package loads none of its modules.  Each public name is
imported from its defining module (_EXPORTS) on first access and then
kept here, so ``metriclines.X`` is always the object ``metriclines.<module>.X``
and a program pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("bounds", "ALPHA BETA BOUND_IDS PowerBound int_nthroot power_bound"),
        ("enumeration", "MAX_GRAPH_N MAX_TRIPLES_N enum_graphs enum_triple_systems"),
        (
            "errors",
            "ArityMismatch AsymmetryError BadParams DegeneratePair DisconnectedGraph "
            "IndexOutOfRange MetricLinesError NonpositiveDistance NonzeroDiagonal "
            "NotOneTwoSpace ParseError PreconditionUnmet SizeCap SolverFailure "
            "TooFewPoints TooManyAssignments TriangleViolation XInsideT",
        ),
        (
            "extremal",
            "BoundReport balanced_group_space bucket_decomposition calculus_check "
            "check_bound complete_graph construct equal_line_class group_space "
            "path_graph pentagon predicted_group_lines",
        ),
        ("feasibility", "FeasibilityResult metrizable"),
        (
            "fileio",
            "CONSTRUCT_KINDS UNIVERSES dump_graph dump_metric dump_triples "
            "format_rational load_graph_text load_metric_text load_triples_text "
            "parse_rational",
        ),
        (
            "graphs",
            "Graph adjacency_from_rows are_twins diameter distinct_line_case find_twins "
            "geodesic_path graph_from_edges graph_metric graph_to_space is_connected "
            "max_clique_size maximal_twin_free space_to_graph",
        ),
        (
            "metric",
            "LineFamily MetricSpace between extremes line_family line_of uniform_space "
            "validate_metric",
        ),
        ("search", "ScanReport SearchReport conjecture_scan min_lines"),
        (
            "triples",
            "TripleSystem betweenness_triples complete_quadruple fano hyper_line "
            "hyper_line_family k34_condition triple_system vertex_signatures",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
