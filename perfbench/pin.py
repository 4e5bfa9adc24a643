"""Pin the reference outputs every run is checked against.

Usage: python3 perfbench/pin.py

Runs one untraced pass of every workload and writes each operation's exit
code, standard output and written bundle to perfbench/references.json.  Run
it only at a commit whose outputs are known good; the references in the
repository were pinned at the commit that added the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, WORKDIR, pass_env, run_pass
from workloads import WORKLOADS


def main() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    refs = {}
    for name in WORKLOADS:
        result = run_pass(name, False, pass_env(), 600)
        if result is None or any(op["error"] for op in result["ops"]):
            print(f"pin: {name} did not complete", file=sys.stderr)
            return 2
        refs[name] = [{k: op[k] for k in ("name", "exit", "stdout", "file")} for op in result["ops"]]
        print(f"{name}: {[(op['name'], op['exit'], len(op['stdout'])) for op in result['ops']]}")
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
