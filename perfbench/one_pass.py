"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/one_pass.py WORKLOAD TRACE WORKDIR

Builds the workload's grounds (the set-up), then makes its public calls in
order with their standard output captured, and prints one JSON line: the
set-up and verdict times, peak RSS, every operation's exit code and output,
and with TRACE=1 the per-layer metrics.  The interpreter must find the
package under test on its path (run.py sets PYTHONPATH to the checkout's
``src``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from workloads import WORKLOADS


def run_op(op, grounds, bundle: str) -> dict:
    import fuzzint.cli

    record = {"name": op.name, "exit": None, "stdout": "", "file": None, "error": None}
    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if op.kind == "cli":
                record["exit"] = fuzzint.cli.main([bundle if a == "{bundle}" else a for a in op.argv])
            else:
                bounds = fuzzint.SearchBounds(max_tables=op.max_tables)
                print(fuzzint.count_interior_maps(grounds[-1], bounds))
                record["exit"] = 0
    except Exception:  # an operation that raises is a failed operation, not a crashed pass
        record["error"] = traceback.format_exc(limit=3)
    record["seconds"] = perf_counter() - start
    record["stdout"] = buf.getvalue()
    return record


def main(argv: list[str]) -> int:
    name, trace, workdir = argv[0], argv[1] == "1", argv[2]
    workload = WORKLOADS[name]
    bundle = os.path.join(workdir, f"bundle-{os.getpid()}.json")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    t0 = perf_counter()
    import fuzzint

    if os.path.commonpath([os.path.abspath(fuzzint.__file__), root]) != root:
        print(f"fuzzint imported from {fuzzint.__file__}, outside {root}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import fuzzint.cli  # noqa: F401  (the CLI's own imports are part of set-up)
    from fuzzint.search import SearchBounds, grounds_within

    grounds = [g for kwargs in workload.grounds for g in grounds_within(SearchBounds(**kwargs))]
    t1 = perf_counter()
    ops = [run_op(op, grounds, bundle) for op in workload.ops]
    t2 = perf_counter()
    for op, record in zip(workload.ops, ops):
        if "--out" in op.argv and os.path.exists(bundle):
            with open(bundle) as fh:
                record["file"] = fh.read()

    result = {
        "setup_s": t1 - t0,
        "verdict_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if os.path.exists(bundle):
        os.remove(bundle)
    if tracer is not None:
        result["layers"] = tracer.metrics((t1, t2))
        tracer.dump(os.path.join(workdir, f"spans-{name}.tsv"))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
