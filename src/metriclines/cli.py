"""Command-line front end.

Every verb is a thin adapter over the library: load input, call one
function, and render the record it returns.  The library's records are
plain values; this module alone knows the output format and reads the
clock.  Each verb builds one document from its record and prints it as TSV
by default (metadata lines start with '#') or as a single canonical JSON
document under --format json.  _emit writes either in pieces, a few
hundred list scalars or rows at a time, so the whole text is never held
as one string.  One writer, _write_rows, slices every text of rows: _emit's
TSV, construct's instance and scan's violator files.  Under --timing,
search and scan add elapsed_ms, the wall time of the library call as
measured here.

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
import time
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from itertools import chain, islice

from .errors import (
    BadParams,
    MetricLinesError,
    SizeCap,
)
from .fileio import (
    CONSTRUCT_KINDS,
    DEFAULT_EDGE_CAP,
    UNIVERSES,
    dump_graph,
    dump_metric,
    dump_triples,
    format_rational,
    graph_rows,
    load_graph_text,
    load_metric_text,
    load_triples_text,
    metric_rows,
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
# scalars of a list in a JSON document, or rows of TSV, encoded per write
_SLICE = 512


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _points_str(points) -> str:
    return "{" + ",".join(str(p) for p in points) + "}"


def _read_text(path: str) -> str:
    """The text of path, or of stdin for "-", as UTF-8 whatever the locale;
    a byte that is not UTF-8 becomes a lone surrogate, which the parser
    reports with its position."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8", "surrogateescape")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return fh.read()


def _write_rows(path: str | None, rows: Iterable[str]) -> None:
    """Write rows joined by newlines to path, or to stdout for None or "-",
    _SLICE rows at a time, and a newline unless the last row ends with one."""
    with nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", encoding="utf-8") as fh:
        rows = iter(rows)
        tail = sep = ""
        while chunk := list(islice(rows, _SLICE)):
            text = sep + "\n".join(chunk)
            fh.write(text)
            tail, sep = text[-1:] or tail, "\n"
        if tail != "\n":
            fh.write("\n")


def _field(value) -> str:
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


def _emit(args, doc: dict, tsv) -> None:
    """Print a verb's document: canonical JSON, or the TSV rows tsv(doc) gives.

    The text goes out in pieces and is never held whole.  JSON is written
    key by key in sorted order, and a list, tuple or iterator value as an
    array, in runs of whole elements that end once they hold _SLICE
    scalars: a nonempty list or tuple element counts as its length, any
    other as one.  The encoder keeps a string per scalar of a run, so a run
    of long lines costs about what a run of triples does.  The bytes are
    those of _canonical_json(doc), with each iterator read as a list, and a
    newline.  TSV rows go out through _write_rows.
    """
    write = sys.stdout.write
    if args.format == "json":
        write("{")
        for k, key in enumerate(sorted(doc)):
            write(("," if k else "") + _canonical_json(key) + ":")
            value = doc[key]
            if isinstance(value, (list, tuple, Iterator)):
                write("[")
                sep = ""
                chunk = []
                size = 0
                for item in value:
                    chunk.append(item)
                    size += (len(item) or 1) if isinstance(item, (list, tuple)) else 1
                    if size >= _SLICE:
                        write(sep + _canonical_json(chunk)[1:-1])
                        sep = ","
                        chunk = []
                        size = 0
                if chunk:
                    write(sep + _canonical_json(chunk)[1:-1])
                write("]")
            else:
                write(_canonical_json(value))
        write("}\n")
    else:
        _write_rows(None, tsv(doc))


def _timed(args, name: str, *params):
    """The library call name(*params), and {"elapsed_ms": its wall time} under --timing."""
    if not args.timing:
        return _lib(name)(*params), {}
    start = time.monotonic()
    report = _lib(name)(*params)
    return report, {"elapsed_ms": int((time.monotonic() - start) * 1000)}


def _family_doc(fam) -> dict:
    # json writes a tuple as an array, so the lines go in as they are
    return {"count": fam.count, "universal": fam.has_universal(), "lines": fam.lines}


def _family_tsv(doc: dict) -> Iterable[str]:
    rows = [f"# count\t{doc['count']}", f"# universal\t{_field(doc['universal'])}", "index\tpoints"]
    return chain(rows, (f"{i}\t{_points_str(pts)}" for i, pts in enumerate(doc["lines"])))


def _cmd_lines(args) -> int:
    # no name holds the space, so it is freed before the lines are written
    family = _lib("line_family")(load_metric_text(_read_text(args.file), source=args.file))
    _emit(args, _family_doc(family), _family_tsv)
    return 0


def _cmd_hyperlines(args) -> int:
    # no name holds the system, so it is freed before the lines are written
    family = _lib("hyper_line_family")(load_triples_text(_read_text(args.file), source=args.file))
    _emit(args, _family_doc(family), _family_tsv)
    return 0


def _triples_tsv(doc: dict) -> Iterable[str]:
    rows = [f"# n\t{doc['n']}", f"# count\t{doc['count']}", "index\ttriple"]
    return chain(rows, (f"{i}\t{_points_str(e)}" for i, e in enumerate(doc["triples"])))


def _cmd_triples(args) -> int:
    space = load_metric_text(_read_text(args.file), source=args.file)
    system = _lib("betweenness_triples")(space)
    doc = {"n": system.n, "count": system.edge_count(), "triples": system.iter_edges()}
    _emit(args, doc, _triples_tsv)
    return 0


def _check_tsv(doc: dict) -> list[str]:
    rows = ["field\tvalue"]
    rows.extend(f"{key}\t{_field(value)}" for key, value in doc.items() if key != "params")
    rows.extend(f"param:{key}\t{value}" for key, value in doc["params"].items())
    return rows


def _cmd_check(args) -> int:
    text = _read_text(args.file)
    if args.bound_id in _METRIC_BOUNDS:
        instance = load_metric_text(text, source=args.file)
    else:
        instance = load_graph_text(text, source=args.file)
    report = _lib("check_bound")(instance, args.bound_id)
    doc = {
        "bound_id": report.bound_id,
        "lines_found": report.lines_found,
        "bound_lo": format_rational(report.bound_lo),
        "bound_hi": format_rational(report.bound_hi),
        "pass": report.passed,
        "params": {k: format_rational(v) for k, v in report.params.items()},
    }
    _emit(args, doc, _check_tsv)
    return 0 if report.passed else 1


def _cmd_construct(args) -> int:
    params = [parse_rational(token) for token in args.params]
    instance = _lib("construct")(args.kind, *params)
    rows = metric_rows if isinstance(instance, _lib("MetricSpace")) else graph_rows
    _write_rows(args.output, rows(instance))
    return 0


def _search_tsv(doc: dict) -> list[str]:
    rows = [f"{key}\t{_field(value)}" for key, value in doc.items() if key != "witness"]
    rows.append("witness\t" + ";".join(doc["witness"].splitlines()))
    return rows


def _cmd_search(args) -> int:
    report, timing = _timed(args, "min_lines", args.universe, args.n, args.exclude_universal)
    dump = dump_triples if report.universe == "hypergraphs" else dump_graph
    # the TSV rows follow the order of the keys
    doc = {
        "universe": report.universe,
        "n": report.n,
        "exclude_universal": report.exclude_universal,
        "minimum": report.minimum,
        "instances_examined": report.instances_examined,
        **timing,
        "witness": dump(report.witness),
    }
    _emit(args, doc, _search_tsv)
    return 0


def _scan_tsv(doc: dict) -> list[str]:
    rows = [f"n_max\t{doc['n_max']}", f"violators\t{len(doc['violators'])}"]
    rows.extend(f"minimum:{n}\t{count}" for n, count in doc["minima"].items())
    rows.extend(f"{key}\t{doc[key]}" for key in ("instances_examined", "elapsed_ms") if key in doc)
    return rows


def _cmd_scan(args) -> int:
    report, timing = _timed(args, "conjecture_scan", args.n_max)
    violators = [dump_graph(g) for g in report.violators]
    doc = {
        "n_max": report.n_max,
        "violators": violators,
        "minima": {str(n): report.minima[n] for n in sorted(report.minima)},
        "instances_examined": report.instances_examined,
        **timing,
    }
    _emit(args, doc, _scan_tsv)
    for i, (g, text) in enumerate(zip(report.violators, violators)):
        path = f"{args.out_dir}/violator_n{g.n}_{i}.txt"
        _write_rows(path, [text])
        sys.stderr.write(f"violator written to {path}\n")
    return 1 if violators else 0


def _metrizable_tsv(doc: dict) -> list[str]:
    rows = [
        "metrizable" if doc["metrizable"] else "infeasible",
        f"# assignments_tried\t{doc['assignments_tried']}",
        f"# best_margin\t{doc['best_margin']}",
    ]
    if doc["witness"] is not None:
        rows.append(doc["witness"].rstrip("\n"))
    return rows


def _cmd_metrizable(args) -> int:
    system = load_triples_text(_read_text(args.file), source=args.file)
    result = _lib("metrizable")(
        system,
        normalization_cap=parse_rational(args.cap),
        max_edges=args.max_edges,
    )
    doc = {
        "metrizable": result.metrizable,
        "assignments_tried": result.assignments_tried,
        "best_margin": format_rational(result.best_margin),
        "witness": dump_metric(result.witness) if result.witness else None,
    }
    _emit(args, doc, _metrizable_tsv)
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
        help="add elapsed_ms, the wall time the CLI measures around the search, "
        "to search/scan output (breaks byte determinism)",
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
    except MetricLinesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
