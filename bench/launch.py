"""Run one metric-lines CLI call in this fresh process and stamp its import.

    python bench/launch.py RECORD TRACE [CLI ARGS...]

This does what the metric-lines console script does, sys.exit(main(args)),
after noting time.monotonic() once metriclines.cli is imported.  With TRACE
1 it first wraps the program's public functions (see tracer.py).  The import
stamp, the peak resident set, and the spans of a traced op go to the JSON
file RECORD when the CLI returns.

The peak is read here and not from the parent's wait4: a process started by
vfork, or fork and exec, inherits the launching process's high-water mark in
ru_maxrss, so the parent would see its own size.  VmHWM counts only the
pages this process touched since exec; pool workers, reaped by the time
main() returns, come in through RUSAGE_CHILDREN.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, children)


def main() -> int:
    record_path, trace, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import metriclines.cli as cli

    record = {"imported": time.monotonic()}
    if trace:
        import tracer

        spans = tracer.Tracer()
        spans.install()
        code = spans.run_root(cli.main, args)
        record.update(spans.dump())
    else:
        code = cli.main(args)
    sys.stdout.flush()
    record["max_rss_kb"] = peak_rss_kb()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
