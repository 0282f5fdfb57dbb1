"""Command-line front end.

Every verb is a thin adapter over the library: load input, call one
function, serialize the result.  Output is TSV by default (metadata lines
start with '#') or a single canonical JSON document under --format json.

Exit codes: 0 success or bound pass, 1 bound fail or violator found,
2 usage error, 3 input error.

Importing this module loads only errors and fileio (and metric, which
fileio reads tables with); building the parser loads nothing more.  Each
verb imports the library modules it runs when it runs, so a call pays for
its own verb alone.  The library names the verbs call (_LIBRARY) are still
attributes of this module: the first access imports one from its defining
module, through the package, and keeps it here, and _lib looks a verb's
functions up here on every call, so a replacement set on this module (a
test's stub, a tracer's wrapper) is what the verb calls.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BadParams,
    EmptyUniverse,
    MetricLinesError,
    SizeCap,
)
from .fileio import (
    CONSTRUCT_KINDS,
    DEFAULT_EDGE_CAP,
    UNIVERSES,
    dump_graph,
    dump_metric,
    format_rational,
    load_graph_text,
    load_metric_text,
    load_triples_text,
    parse_rational,
)

# the library names the verbs call, imported through the package on first use
_LIBRARY = frozenset(
    "check_bound construct metrizable MetricSpace line_family conjecture_scan "
    "min_lines betweenness_triples hyper_line_family".split()
)

def __getattr__(name: str):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


def _lib(name: str):
    """The library object name as this module holds it, imported if it does not yet."""
    return getattr(sys.modules[__name__], name)


CHECKABLE_BOUNDS = ("range", "diam", "graphs_corollary", "onetwo_lower")
_METRIC_BOUNDS = ("range", "onetwo_lower")


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _points_str(points) -> str:
    return "{" + ",".join(str(p) for p in points) + "}"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _family_output(fam, fmt: str) -> str:
    universal = fam.has_universal()
    if fmt == "json":
        return _canonical_json(
            {
                "count": fam.count,
                "universal": universal,
                "lines": [list(pts) for pts in fam.lines],
            }
        )
    rows = [
        f"# count\t{fam.count}",
        f"# universal\t{'true' if universal else 'false'}",
        "index\tpoints",
    ]
    rows.extend(f"{i}\t{_points_str(pts)}" for i, pts in enumerate(fam.lines))
    return "\n".join(rows)


def _cmd_lines(args) -> int:
    space = load_metric_text(_read_text(args.file), source=args.file)
    _print(_family_output(_lib("line_family")(space), args.format))
    return 0


def _cmd_hyperlines(args) -> int:
    system = load_triples_text(_read_text(args.file), source=args.file)
    _print(_family_output(_lib("hyper_line_family")(system), args.format))
    return 0


def _cmd_triples(args) -> int:
    space = load_metric_text(_read_text(args.file), source=args.file)
    system = _lib("betweenness_triples")(space)
    edges = system.sorted_edges()
    if args.format == "json":
        # json writes a tuple as an array, so the triples go in as they are
        _print(_canonical_json({"n": system.n, "count": len(edges), "triples": edges}))
    else:
        rows = [f"# n\t{system.n}", f"# count\t{len(edges)}", "index\ttriple"]
        rows.extend(f"{i}\t{_points_str(e)}" for i, e in enumerate(edges))
        _print("\n".join(rows))
    return 0


def _cmd_check(args) -> int:
    text = _read_text(args.file)
    if args.bound_id in _METRIC_BOUNDS:
        instance = load_metric_text(text, source=args.file)
    else:
        instance = load_graph_text(text, source=args.file)
    report = _lib("check_bound")(instance, args.bound_id)
    doc = report.to_json_dict()
    if args.format == "json":
        _print(_canonical_json(doc))
    else:
        rows = ["field\tvalue"]
        for key in ("bound_id", "lines_found", "bound_lo", "bound_hi", "pass"):
            value = doc[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            rows.append(f"{key}\t{value}")
        for key, value in doc["params"].items():
            rows.append(f"param:{key}\t{value}")
        _print("\n".join(rows))
    return 0 if report.passed else 1


def _cmd_construct(args) -> int:
    params = [parse_rational(token) for token in args.params]
    instance = _lib("construct")(args.kind, *params)
    if isinstance(instance, _lib("MetricSpace")):
        text = dump_metric(instance)
    else:
        text = dump_graph(instance)
    _write_text(args.output, text)
    return 0


def _search_tsv(doc: dict) -> str:
    rows = []
    for key in (
        "universe",
        "n",
        "exclude_universal",
        "minimum",
        "instances_examined",
    ):
        value = doc[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        rows.append(f"{key}\t{value}")
    if "elapsed_ms" in doc:
        rows.append(f"elapsed_ms\t{doc['elapsed_ms']}")
    rows.append("witness\t" + ";".join(doc["witness"].splitlines()))
    return "\n".join(rows)


def _cmd_search(args) -> int:
    report = _lib("min_lines")(args.universe, args.n, args.exclude_universal)
    doc = report.to_json_dict(include_timing=args.timing)
    if args.format == "json":
        _print(_canonical_json(doc))
    else:
        _print(_search_tsv(doc))
    return 0


def _cmd_scan(args) -> int:
    report = _lib("conjecture_scan")(args.n_max)
    doc = report.to_json_dict(include_timing=args.timing)
    if args.format == "json":
        _print(_canonical_json(doc))
    else:
        rows = [f"n_max\t{report.n_max}", f"violators\t{len(report.violators)}"]
        for n in sorted(report.minima):
            rows.append(f"minimum:{n}\t{report.minima[n]}")
        rows.append(f"instances_examined\t{report.instances_examined}")
        if "elapsed_ms" in doc:
            rows.append(f"elapsed_ms\t{doc['elapsed_ms']}")
        _print("\n".join(rows))
    if report.violators:
        for i, g in enumerate(report.violators):
            path = f"{args.out_dir}/violator_n{g.n}_{i}.txt"
            _write_text(path, dump_graph(g))
            sys.stderr.write(f"violator written to {path}\n")
        return 1
    return 0


def _cmd_metrizable(args) -> int:
    system = load_triples_text(_read_text(args.file), source=args.file)
    result = _lib("metrizable")(
        system,
        normalization_cap=parse_rational(args.cap),
        max_edges=args.max_edges,
    )
    witness_text = dump_metric(result.witness) if result.witness else None
    if args.format == "json":
        _print(
            _canonical_json(
                {
                    "metrizable": result.metrizable,
                    "assignments_tried": result.assignments_tried,
                    "best_margin": format_rational(result.best_margin),
                    "witness": witness_text,
                }
            )
        )
    else:
        rows = [
            "metrizable" if result.metrizable else "infeasible",
            f"# assignments_tried\t{result.assignments_tried}",
            f"# best_margin\t{format_rational(result.best_margin)}",
        ]
        if witness_text is not None:
            rows.append(witness_text.rstrip("\n"))
        _print("\n".join(rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metric-lines",
        description="Lines in finite metric spaces and 3-uniform hypergraphs.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "tsv"),
        default="tsv",
        help="output format (default tsv; metadata lines start with '#')",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include elapsed_ms in search/scan reports (breaks byte determinism)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("lines", help="distinct lines of a metric space")
    p.add_argument("file", help="metric file, or - for stdin")
    p.set_defaults(func=_cmd_lines)

    p = sub.add_parser("hyperlines", help="distinct lines of a triple system")
    p.add_argument("file", help="triples file, or - for stdin")
    p.set_defaults(func=_cmd_hyperlines)

    p = sub.add_parser("triples", help="betweenness triples of a metric space")
    p.add_argument("file", help="metric file, or - for stdin")
    p.set_defaults(func=_cmd_triples)

    p = sub.add_parser("check", help="compare a line count against a bound")
    p.add_argument("bound_id", choices=CHECKABLE_BOUNDS)
    p.add_argument("file", help="metric file for range/onetwo_lower, graph file otherwise")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="write a named instance")
    p.add_argument("kind", choices=CONSTRUCT_KINDS)
    p.add_argument("params", nargs="*", help="construction parameters")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("search", help="minimum line count over a universe")
    p.add_argument("universe", choices=UNIVERSES)
    p.add_argument("n", type=int)
    p.add_argument(
        "--exclude-universal",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="exclude instances whose line family contains the whole set "
        "(default depends on the universe)",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("scan", help="scan connected graphs for conjecture violators")
    p.add_argument("n_max", type=int)
    p.add_argument("--out-dir", default=".", help="directory for violator files")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("metrizable", help="decide if a triple system has a metric")
    p.add_argument("file", help="triples file, or - for stdin")
    p.add_argument("--cap", default="1", help="distance normalization cap (rational)")
    p.add_argument("--max-edges", type=int, default=DEFAULT_EDGE_CAP, help="assignment budget cap")
    p.set_defaults(func=_cmd_metrizable)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse reads a negative parameter such as -1/2 as an unknown
        # option, and leaves parameters given after -o unclaimed; both come
        # back here in order, after the parameters it did claim
        if extra and args.verb == "construct" and all(
            not token.startswith("-") or token[1:2].isdigit() for token in extra
        ):
            args.params += extra
        elif extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (BadParams, SizeCap) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except EmptyUniverse as exc:
        sys.stderr.write(f"empty result: {exc}\n")
        return 1
    except MetricLinesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
