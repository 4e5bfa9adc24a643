"""The benchmark's tracer against the package: a traced pass of the
``morphisms`` workload must run, report its per-layer metrics, and leave
every operation's exit code, output and bundle as an untraced pass has
them.  The tracer unpacks ``search.PROPERTIES`` and wraps
``search.checker_for``, so a change to those breaks it here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def one_pass(trace: str, workdir: Path) -> dict:
    """``perfbench/one_pass.py morphisms TRACE WORKDIR`` in a fresh
    interpreter on this checkout's sources, with no bounds override."""
    env = {key: value for key, value in os.environ.items() if key != "FUZZINT_BOUNDS"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    argv = [sys.executable, str(PERFBENCH / "one_pass.py"), "morphisms", trace, str(workdir)]
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_pass_keeps_every_operation_as_an_untraced_pass(tmp_path):
    traced, untraced = one_pass("1", tmp_path), one_pass("0", tmp_path)
    assert "layers" in traced and "layers" not in untraced
    assert traced["layers"]["search.cases_timed"] > 0
    assert [op["error"] for op in traced["ops"] + untraced["ops"]] == [None] * (2 * len(untraced["ops"]))
    outputs = [[(op["name"], op["exit"], op["stdout"], op["file"]) for op in p["ops"]] for p in (traced, untraced)]
    assert outputs[0] == outputs[1]
