"""What importing the package and running one CLI verb load.

Each CLI call is a fresh process, so every module a verb imports is paid
for on every call.  The package imports its modules on first use of one of
their names, and the CLI imports a verb's modules when that verb runs; the
tests below pin both, and check that the lazy names are the same objects
as eager imports would give.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import metriclines
import metriclines.cli as cli
from metriclines import metric

INPUTS = Path(__file__).parent / "golden" / "inputs"
SRC = Path(metriclines.__file__).resolve().parents[1]

# no verb needs these; dataclasses alone cost a cold start about 10 ms
NEVER = ("dataclasses", "inspect")
# only verbs that build a Fraction need these; fractions imports decimal,
# 2-3 ms of a cold start
FRACTIONS = ("fractions", "decimal")
SEARCHES = ("enumeration", "search", "extremal", "bounds")
LINE_VERBS_SKIP = (*SEARCHES, "feasibility", "lp")

# (verb, argv, package modules and other modules the call must not load);
# the rational table, read in integers over its lcm, builds no Fraction
VERBS = (
    ("lines", ["lines", INPUTS / "rational12.txt"], LINE_VERBS_SKIP, FRACTIONS),
    ("triples", ["triples", INPUTS / "rational12.txt"], LINE_VERBS_SKIP, FRACTIONS),
    ("hyperlines", ["hyperlines", INPUTS / "triples3.txt"], LINE_VERBS_SKIP, FRACTIONS),
    ("metrizable", ["metrizable", INPUTS / "triples3.txt"], (*SEARCHES, "graphs"), ("graphlib",)),
    ("check", ["check", "diam", INPUTS / "cycle7.txt"], ("enumeration", "search", "feasibility"), ()),
    ("construct", ["construct", "pentagon"], ("enumeration", "search", "feasibility"), ()),
    ("search", ["search", "hypergraphs", "4"], ("extremal", "bounds", "feasibility"), FRACTIONS),
    ("scan", ["scan", "4"], ("extremal", "bounds", "feasibility"), FRACTIONS),
)

# runs one verb, then prints the names of every loaded module as its last line
CHILD = (
    "import sys\n"
    "from metriclines.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('\\n' + ' '.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


def loaded_modules(code: str, *args) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    # check exits 1 when the instance fails its bound
    assert proc.returncode in (0, 1), proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv,skip,other", [v[1:] for v in VERBS], ids=[v[0] for v in VERBS])
def test_verb_loads_only_its_modules(argv, skip, other):
    loaded = loaded_modules(CHILD, *argv)
    assert [m for m in (*NEVER, *other) if m in loaded] == []
    assert [m for m in skip if f"metriclines.{m}" in loaded] == []


def test_package_import_loads_no_module():
    code = "import sys, metriclines\nprint(' '.join(sorted(sys.modules)))\n"
    assert {m for m in loaded_modules(code) if m.startswith("metriclines.")} == set()


def test_public_names_are_their_modules_objects():
    for name in metriclines.__all__:
        module = import_module(f"metriclines.{metriclines._EXPORTS[name]}")
        assert getattr(metriclines, name) is getattr(module, name), name


def test_star_import_and_dir_cover_every_name():
    namespace: dict = {}
    exec("from metriclines import *", namespace)
    assert set(metriclines.__all__) <= set(namespace)
    listed = dir(metriclines)
    assert "__all__" in listed and set(metriclines.__all__) <= set(listed)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        metriclines.no_such_name
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(ImportError):
        exec("from metriclines import no_such_name", {})


def test_cli_calls_the_name_its_module_holds(monkeypatch, capsys):
    path = str(INPUTS / "pentagon.txt")
    # unbound: the first lookup imports the library's function
    monkeypatch.delitem(vars(cli), "line_family", raising=False)
    assert cli.line_family is metric.line_family
    # bound before the verb's first call: the verb calls the replacement
    monkeypatch.delitem(vars(cli), "line_family")
    stub = metric.LineFamily(5, ((0, 1),), 1)
    monkeypatch.setattr(cli, "line_family", lambda space: stub, raising=False)
    assert cli.main(["--format", "json", "lines", path]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert cli.line_family(None) is stub
