"""The package's public names, its imports and records, and the names the
benchmark tracer patches.

bench/tracer.py wraps program functions under the names their callers look
them up by, and its counters read attributes of what those functions return.
A name that no longer resolves is only listed as missing in a traced run,
and its layer drops out of the per-layer metrics, so these tests catch it
first; a counter whose attribute is gone crashes the traced op.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metriclines
import metriclines.cli as cli
from metriclines.bounds import ALPHA
from metriclines.errors import Record
from metriclines.extremal import check_bound, path_graph, pentagon
from metriclines.feasibility import FeasibilityResult
from metriclines.metric import line_family
from metriclines.search import SearchReport, conjecture_scan
from metriclines.triples import fano

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
LAUNCH = ROOT / "bench" / "launch.py"
INPUTS = Path(__file__).parent / "golden" / "inputs"

# one traced CLI call per verb the benchmark runs, with the counter it fills
TRACED_OPS = (
    ("lines", ["lines", INPUTS / "pentagon.txt"], "pairs"),
    ("hyperlines", ["hyperlines", INPUTS / "triples3.txt"], "bytes_in"),
    ("check-diam", ["check", "diam", INPUTS / "cycle7.txt"], "masks"),
    ("search", ["search", "hypergraphs", "4"], "instances"),
    ("metrizable", ["metrizable", INPUTS / "triples3.txt"], "lp_rows"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    patches = load_tracer().PATCHES
    assert patches
    missing = []
    for module_name, attr, _, _ in patches:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_public_names_resolve_once():
    names = metriclines.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(metriclines, name)] == []


def test_public_names_are_the_imported_ones():
    """__all__ holds what the CLI takes through the package (its _LIBRARY)
    and what tests/ and bench/ import from it, so a public name that
    nothing imports fails here.  bench/tracer.py patches names on modules;
    those on the CLI are in _LIBRARY or imported by cli.py directly."""
    modules = {path.stem for path in Path(metriclines.__file__).parent.glob("*.py")}
    imported = set()
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "metriclines" and not node.level:
                imported |= {alias.name for alias in node.names}
    assert sorted(metriclines.__all__) == sorted((imported - modules) | cli._LIBRARY)


@pytest.mark.parametrize(
    "argv,counter", [op[1:] for op in TRACED_OPS], ids=[op[0] for op in TRACED_OPS]
)
def test_traced_counters_resolve(tmp_path, argv, counter):
    record = tmp_path / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    cmd = [sys.executable, str(LAUNCH), str(record), "1", "--format", "json", *map(str, argv)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(record.read_text(encoding="utf-8"))
    assert dump["missing"] == []
    assert dump["counts"][counter] > 0


def test_no_unused_imports():
    unused = []
    for path in sorted(Path(metriclines.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        # annotations are Name nodes too, postponed or not
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_test_imports_are_declared():
    """Every module the tests and the benchmark import, at any depth, is the
    standard library's, the package, a module of tests/ or bench/, or in the
    test extra of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as f:
        extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_") for req in extra}
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    local = {"metriclines"} | {path.stem for path in files}
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names - local - declared == set()


# recorded before the value classes moved onto Record; TripleSystem's since it holds links
REPRS = (
    (
        pentagon,
        "MetricSpace(n=5, scaled=((0, 1, 2, 2, 1), (1, 0, 1, 2, 2), (2, 1, 0, 1, 2), "
        "(2, 2, 1, 0, 1), (1, 2, 2, 1, 0)), scale=1)",
    ),
    (
        lambda: line_family(pentagon()),
        "LineFamily(n=5, lines=((0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), "
        "(0, 1, 4), (0, 2, 3, 4), (0, 3, 4), (1, 2, 3), (1, 2, 3, 4), (2, 3, 4)), "
        "pair_count=10)",
    ),
    (lambda: path_graph(2), "Graph(n=3, adj=(2, 5, 2))"),
    (
        fano,
        "TripleSystem(n=7, links={(0, 1): 8, (0, 2): 64, (0, 3): 2, (0, 4): 32, (0, 5): 16, "
        "(0, 6): 4, (1, 2): 16, (1, 3): 1, (1, 4): 4, (1, 5): 64, (1, 6): 32, (2, 3): 32, "
        "(2, 4): 2, (2, 5): 8, (2, 6): 1, (3, 4): 64, (3, 5): 4, (3, 6): 16, (4, 5): 1, "
        "(4, 6): 8, (5, 6): 2})",
    ),
    (lambda: ALPHA, "PowerBound(base=Fraction(1, 128), root=3, shift=Fraction(0, 1))"),
)


@pytest.mark.parametrize("make,text", REPRS, ids=[r[1].split("(")[0] for r in REPRS])
def test_value_reprs(make, text):
    assert repr(make()) == text


SEARCH_FIELDS = ("hypergraphs", 4, True, 3, fano(), 10)
FEASIBILITY_FIELDS = (True, pentagon(), 1, 1)


@pytest.mark.parametrize(
    "cls,values", [(SearchReport, SEARCH_FIELDS), (FeasibilityResult, FEASIBILITY_FIELDS)]
)
def test_record_construction(cls, values):
    record = cls(*values)
    assert record == cls(**dict(zip(cls._fields, values)))
    assert record == cls(*values[:2], **dict(zip(cls._fields[2:], values[2:])))
    assert hash(record) == hash(cls(*values))
    assert record != values and record != cls(*values[:-1], values[-1] * 2)
    with pytest.raises(TypeError):
        cls(*values[:-1])  # missing
    with pytest.raises(TypeError):
        cls(*values, extra=1)  # unknown
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one too many
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})  # repeated


def test_records_with_dict_fields_hash():
    # ScanReport.minima and BoundReport.params are dicts
    for make in (lambda: conjecture_scan(4), lambda: check_bound(pentagon(), "range")):
        first, second = make(), make()
        assert first == second and first is not second
        assert hash(first) == hash(second)


def test_no_record_field_is_a_float():
    # the records are exact values: a wall-clock time or any other float
    # belongs in the CLI's output, not in a report
    package = Path(metriclines.__file__).parent
    for path in package.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"metriclines.{path.stem}")
    records, todo = [], [Record]
    while todo:
        cls = todo.pop()
        records.append(cls)
        todo.extend(cls.__subclasses__())
    assert len(records) > 10
    floats = [
        f"{cls.__name__}.{name}"
        for cls in records
        for name, annotation in cls.__annotations__.items()
        if re.search(r"\bfloat\b", str(annotation))
    ]
    assert floats == []
