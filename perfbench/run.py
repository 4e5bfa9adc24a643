"""fuzzint benchmark: time to verdict on exhaustive search workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats passes of the workload until S seconds have gone by (three
passes at least).  Every pass is a fresh interpreter, so module-level caches
start cold as they do for a ``fuzzint`` command.  Every operation's exit
code and output are compared with the references pinned in
perfbench/references.json; an operation that raises or differs is failed.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
each a median over passes.  With --trace 1 it alternates traced and
untraced passes and reports the per-layer metrics, after checking that
traced and untraced outputs are identical, that every count repeats
exactly, and that the top-level spans cover the time to verdict.

The seed is recorded with the result.  The workloads are exhaustive over
fixed bounds, so it changes none of their inputs.

The last line of standard output is the JSON result; the lines before it
are a readable summary.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "out")
DEADLINE_S = 170  # a run must end within 180 s
MIN_PASSES = 3
COVERAGE_MIN = 0.95

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    """SHA-256 over the package sources, standing in for the commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fuzzint")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def pass_env() -> dict:
    """The environment of a pass: no FUZZINT_BOUNDS, which would change the
    workload's bounds, no inherited PYTHON* settings, and a fixed hash seed
    so that every run lays out its dicts and sets alike."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "FUZZINT_BOUNDS"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, trace: bool, env: dict, timeout: float) -> dict | None:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), workload, "1" if trace else "0", WORKDIR]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: pass of {workload} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: pass of {workload} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_failures(passes: list[dict], refs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations; an operation fails when it raised or
    when its exit code, output or written bundle differs from the reference."""
    attempted = failed = 0
    for p in passes:
        for op, ref in zip(p["ops"], refs):
            attempted += 1
            bad = op["error"] is not None or any(op[k] != ref[k] for k in ("exit", "stdout", "file"))
            if bad:
                failed += 1
                detail = op["error"] or f"exit {op['exit']}, output {op['stdout'][:200]!r}"
                print(f"perfbench: {op['name']} differs from its reference: {detail}", file=sys.stderr)
    return attempted, failed


def instances(p: dict) -> int:
    """Cases checked plus maps counted over the pass's operations."""
    total = 0
    for op in p["ops"]:
        try:
            doc = json.loads(op["stdout"])
        except ValueError:
            continue
        total += doc["instances_checked"] if isinstance(doc, dict) else doc
    return total


def end_to_end(passes: list[dict]) -> dict:
    verdict = statistics.median(p["verdict_s"] for p in passes)
    cases = statistics.median_low(instances(p) for p in passes)
    return {
        "verdict_s": verdict,
        "cases_per_s": cases / verdict,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "instances": cases,
    }


def per_layer(traced: list[dict], untraced: list[dict], problems: list[str]) -> dict:
    layers = [p["layers"] for p in traced]
    out = {}
    for key in layers[0]:
        values = [layer.get(key, 0) for layer in layers]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between traced passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    low = min(layer["coverage"] for layer in layers)
    if low < COVERAGE_MIN:
        problems.append(f"top-level spans cover only {low:.3f} of the time to verdict")
    out["trace.overhead"] = statistics.median(p["verdict_s"] for p in traced) / statistics.median(
        p["verdict_s"] for p in untraced
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fuzzint", "__init__.py")):
        return fail(f"no fuzzint sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)

    env = pass_env()
    started = time.monotonic()
    traced, untraced, problems = [], [], []
    crashed = False
    while True:
        elapsed = time.monotonic() - started
        done = len(traced) + len(untraced)
        enough = len(untraced) >= 1 and (not args.trace or len(traced) >= 2)
        if (elapsed >= args.seconds and done >= MIN_PASSES and enough) or elapsed >= DEADLINE_S:
            break
        trace = bool(args.trace) and len(traced) <= len(untraced)
        result = run_pass(args.workload, trace, env, DEADLINE_S - elapsed)
        if result is None:
            problems.append("a pass crashed or timed out")
            crashed = True
            break
        (traced if trace else untraced).append(result)
    passes = traced + untraced
    if not untraced or (args.trace and not traced):
        return fail("no complete pass: " + "; ".join(problems))

    attempted, failed = op_failures(passes, refs)
    if crashed:  # every operation of the pass that did not finish failed
        attempted += len(refs)
        failed += len(refs)
    outputs = [[(op["stdout"], op["file"]) for op in p["ops"]] for p in passes]
    if any(out != outputs[0] for out in outputs):
        problems.append("outputs differ between passes (traced and untraced passes must agree byte for byte)")
    metrics = per_layer(traced, untraced, problems) if args.trace else end_to_end(untraced)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "verdict_s_samples": sorted(p["verdict_s"] for p in untraced),
        "failed_share": failed / attempted if attempted else 1.0,
        "problems": problems,
    }
    with open(os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "metrics": report}, fh, indent=1, sort_keys=True)
    samples = info["verdict_s_samples"]
    print(f"# {json.dumps(info | {'verdict_s_samples': len(samples)}, sort_keys=True)}")
    print(f"# verdict_s p50 {statistics.median(samples):.4f} s, max {samples[-1]:.4f} s, n={len(samples)} passes")
    for i, op in enumerate(untraced[0]["ops"]):
        op_s = sorted(p["ops"][i]["seconds"] for p in untraced)
        print(f"#   {op['name']}: p50 {statistics.median(op_s):.4f} s, max {op_s[-1]:.4f} s")
    print(f"# failed_share {failed}/{attempted} = {info['failed_share']:.4f}")
    for name, m in report.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
