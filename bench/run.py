"""Benchmark of metric-lines CLI jobs, each in a fresh process.

    python3 bench/run.py --workload {search,lines} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The benchmark writes its inputs, runs the
workload's ops one at a time as `python bench/launch.py ... --format json
VERB ...` with PYTHONPATH=src, and checks every output (workloads.py).  It
first runs ops untimed for WARM_UP_S seconds.  Then a round is one pass over
the ops; rounds repeat until S seconds have passed, and at least one
always runs.

--trace 0 prints the end-to-end metrics: setup_s (median over ops of the
time from process start until metriclines.cli is imported), wall_s and
cpu_s (the run's summed op wall time and op CPU time, pool workers
included, over its number of rounds), peak_rss_mb (largest resident set
of any op process or worker) and op_geomean_ms (geometric mean of the op
times, process start to exit).

--trace 1 runs one untraced round and then one traced round, with the same
settings, and prints the per-layer metrics of the traced round together
with its overhead against the untraced one (tracer.py).  Its spans are
written to bench/runs/trace-WORKLOAD-seedN.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A copy with every op's figures goes to bench/runs/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
OP_DEADLINE_S = 170.0  # seconds from the start of a run by which every op must end
# untimed ops before the first round: without them the first round of a
# run took up to 50 % longer than the later ones
WARM_UP_S = 5.0
# The traced run keeps every LP call in the traced process.
TRACE_ENV = {"search": {"METRIC_LINES_THREADS": "1"}}


def child_env(extra: dict[str, str]) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("METRIC_LINES_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env.update(extra)
    return env


def kill_group(pgid: int) -> None:
    """Kill an op and its pool workers, which share its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_op(op: workloads.Op, workdir: Path, env: dict, trace: bool, deadline: float) -> dict:
    """Launch one op, wait for it, and return its figures and output."""
    record_path = workdir / "record.json"
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "launch.py"), str(record_path), "1" if trace else "0",
            "--format", "json", *op.args]
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=env, start_new_session=True)
        watchdog = threading.Timer(max(deadline - start, 1.0), kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "label": op.label,
        "seconds": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": proc.returncode,
    }
    # exit 1 is the CLI's verdict for a failed bound or a violator: an
    # answer to check, not a failed op
    if proc.returncode not in (0, 1) or not record_path.exists():
        tail = (workdir / "stderr").read_text(errors="replace")[-400:]
        result["error"] = f"exit {proc.returncode}: {tail}"
        return result
    record = json.loads(record_path.read_text())
    result["setup_s"] = record.pop("imported") - start
    result["max_rss_kb"] = record.pop("max_rss_kb")
    if trace:
        result["record"] = record
    try:
        doc = json.loads((workdir / "stdout").read_text())
        op.check(doc)
        result["doc"] = doc
    except (ValueError, KeyError, TypeError, workloads.CheckFailed) as exc:
        result["wrong"] = f"{type(exc).__name__}: {exc}"
    if proc.returncode != 0 and "wrong" not in result:
        result["wrong"] = f"exit {proc.returncode} with an output that passed its check"
    return result


def run_round(ops, workdir, env, trace, deadline) -> list[dict]:
    out = []
    for op in ops:
        res = run_op(op, workdir, env, trace, deadline)
        out.append(res)
        if "error" in res:
            break
    return out


def end_to_end(rounds: list[list[dict]]) -> dict[str, float]:
    done = [r for rnd in rounds for r in rnd if "error" not in r]
    # wall_s and cpu_s are means over the whole run, not medians over its
    # one to three rounds: the host's speed wanders from second to second,
    # and the mean over the longest window smooths that best
    return {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "wall_s": sum(r["seconds"] for r in done) / len(rounds),
        "cpu_s": sum(r["cpu_s"] for r in done) / len(rounds),
        "peak_rss_mb": max(r["max_rss_kb"] for r in done) / 1024,
        # the median op sat in the gap between lines' 1.3 s and 1.9 s jobs
        # and jumped across it from run to run; every op moves the
        # geometric mean by its relative change
        "op_geomean_ms": statistics.geometric_mean(r["seconds"] for r in done) * 1000,
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "op_geomean_ms": "ms",
}


def warm_up(ops, workdir, env, deadline) -> list[dict]:
    """Run ops in round order, untimed, until WARM_UP_S seconds have passed."""
    out, start = [], time.monotonic()
    for op in itertools.cycle(ops):
        out.append(run_op(op, workdir, env, False, deadline))
        if "error" in out[-1] or time.monotonic() - start >= WARM_UP_S:
            return out


def benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    started = time.monotonic()
    deadline = started + OP_DEADLINE_S
    ops = workloads.BUILDERS[workload](seed, workdir)
    env = child_env(TRACE_ENV.get(workload, {}) if trace else {})
    warm = warm_up(ops, workdir, env, deadline)
    prepare_s = time.monotonic() - started

    if trace:
        rounds = [run_round(ops, workdir, env, False, deadline)]
        if "error" not in rounds[0][-1]:
            rounds.append(run_round(ops, workdir, env, True, deadline))
    else:
        rounds = []
        t0 = time.monotonic()
        while not rounds or time.monotonic() - t0 < seconds:
            rounds.append(run_round(ops, workdir, env, False, deadline))
            if "error" in rounds[-1][-1]:
                break
    results = [r for rnd in rounds for r in rnd]
    failed = [r for r in results if "error" in r]
    # an op that fails in the warm-up fails again in the first round, where
    # it is counted; a wrong warm-up output makes the run incorrect
    wrong = [r for r in warm + results if "wrong" in r]
    for r in failed + wrong:
        sys.stderr.write(f"{r['label']}: {r.get('error') or r['wrong']}\n")

    metrics: dict[str, dict] = {}
    if not failed:
        if trace:
            traced = rounds[1]
            for r in traced:
                r["branches"] = r.get("doc", {}).get("assignments_tried", 0)
            baseline_s = sum(r["seconds"] for r in rounds[0])
            values = tracer.summarize(traced, baseline_s)
            metrics = {k: {"value": v, "unit": tracer.UNITS[k]} for k, v in values.items()}
            write_trace(workload, seed, traced)
            missing = sorted({name for r in traced for name in r["record"]["missing"]})
            if missing:
                sys.stderr.write("not traced, the program lacks: " + ", ".join(missing) + "\n")
        else:
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(rounds).items()}
    for r in results:
        r.pop("doc", None)
        r.pop("record", None)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "prepare_s": prepare_s,
        "warm_up": [[r["label"], r["seconds"]] for r in warm], "rounds": rounds,
    }
    (RUNS / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1))
    return {
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }


def write_trace(workload: str, seed: int, ops: list[dict]) -> None:
    """Every span of the traced round: [id, name, start, end, parent id],
    times in seconds of the op's own perf_counter clock."""
    out, base = [], 0
    for i, op in enumerate(ops):
        spans = op["record"]["spans"]
        out.append({
            "op": i,
            "label": op["label"],
            "seconds": op["seconds"],
            "missing": op["record"]["missing"],
            "spans": [[base + k, name, start, end, base + parent if parent >= 0 else -1]
                      for k, (name, start, end, parent) in enumerate(spans)],
        })
        base += len(spans)
    (RUNS / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "metriclines" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {ROOT / 'src' / 'metriclines'} is missing\n")
        return 2
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        summary = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
