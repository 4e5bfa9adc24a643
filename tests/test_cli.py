import io
import contextlib
import json
from pathlib import Path

import pytest

from fuzzint import cli

HERE = Path(__file__).parent
FIXTURES = HERE / "data" / "fixtures"
GOLDEN = HERE / "data" / "golden"


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


GOLDEN_CASES = {
    "validate_godel3.txt": (0, ["validate", "godel3_monoid.json"]),
    "validate_godel3_json.txt": (0, ["validate", "godel3_monoid.json", "--json"]),
    "validate_pentagon.txt": (1, ["validate", "pentagon_gl.json"]),
    "validate_lattice.txt": (0, ["validate", "chain3_lattice.json"]),
    "tables_residuum.txt": (0, ["tables", "godel3_monoid.json", "--which", "residuum"]),
    "tables_residuum_json.txt": (
        0,
        ["tables", "godel3_monoid.json", "--which", "residuum", "--json"],
    ),
    "tables_interior.txt": (0, ["tables", "c3_topology.json", "--which", "interior"]),
    "tables_closure_ext.txt": (
        0,
        ["tables", "c3_topology.json", "--which", "closure", "--mode", "extensional"],
    ),
    "tables_closure_lit.txt": (
        0,
        ["tables", "c3_topology.json", "--which", "closure", "--mode", "literal"],
    ),
    "tables_backward.txt": (
        0,
        ["tables", "collapse_morphism.json", "--which", "powerset-op", "--op", "backward"],
    ),
    "tables_forward.txt": (
        0,
        ["tables", "collapse_morphism.json", "--which", "powerset-op", "--op", "forward"],
    ),
    "tables_right_adjoint.txt": (
        0,
        ["tables", "collapse_morphism.json", "--which", "powerset-op", "--op", "right-adjoint"],
    ),
    "check_continuity_ok.txt": (
        0,
        ["check", "continuity", "identity_morphism.json", "discrete_space.json", "least_space.json"],
    ),
    "check_continuity_fail.txt": (
        1,
        ["check", "continuity", "identity_morphism.json", "least_space.json", "discrete_space.json"],
    ),
    "check_openness_fail.txt": (
        1,
        ["check", "openness", "identity_morphism.json", "discrete_space.json", "least_space.json"],
    ),
    "check_initiality.txt": (0, ["check", "initiality", "two_arm_source.json"]),
    "check_trivial_literal.txt": (1, ["check", "trivial-literal"]),
    "check_trivial_literal_json.txt": (1, ["check", "trivial-literal", "--json"]),
    "examples_run.txt": (0, ["examples", "run", "all"]),
}


def resolve(argv):
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_CASES))
def test_golden_output_and_exit_codes(golden_name):
    expected_code, argv = GOLDEN_CASES[golden_name]
    code, text = run_cli(*resolve(argv))
    assert code == expected_code
    assert text == (GOLDEN / golden_name).read_text()


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_CASES))
def test_byte_identical_across_runs(golden_name):
    _, argv = GOLDEN_CASES[golden_name]
    first = run_cli(*resolve(argv))
    second = run_cli(*resolve(argv))
    assert first == second


def test_malformed_json_exits_2():
    code, text = run_cli("validate", str(FIXTURES / "malformed.json"))
    assert code == 2
    assert "error" in text


def test_missing_file_exits_2():
    code, _ = run_cli("validate", str(FIXTURES / "does_not_exist.json"))
    assert code == 2


def test_unknown_check_property_exits_2():
    code, text = run_cli("check", "definitely-not-a-property")
    assert code == 2


def test_search_counterexample_exits_1(tmp_path):
    out = tmp_path / "witness.json"
    code, text = run_cli(
        "search",
        "--property",
        "literal-meet-source-lift",
        "--max-x",
        "1",
        "--budget",
        "120s",
        "--out",
        str(out),
    )
    assert code == 1
    assert out.exists()
    replay_code, replay_text = run_cli("replay", str(out))
    assert replay_code == 1
    assert "counterexample" in replay_text


def test_search_clean_exits_0():
    code, text = run_cli(
        "search", "--property", "meet-interchange", "--max-x", "1", "--json"
    )
    assert code == 0
    report = json.loads(text)
    assert report["status"] == "no-counterexample"
    assert report["witness"] is None


def test_search_respects_env_bounds(monkeypatch):
    monkeypatch.setenv("FUZZINT_BOUNDS", "max_carrier=1,algebras=c2")
    code, text = run_cli("search", "--property", "literal-trivial-interior", "--json")
    assert code == 0  # no middle elements anywhere within these bounds
    report = json.loads(text)
    assert report["instances_checked"] == 1


def test_examples_write_reports(tmp_path):
    code, _ = run_cli("examples", "run", "2", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "example2.json").read_text())
    assert report["idempotent_exponents"] == [1, "inf"]


def test_check_registered_property_human_output_is_compact(monkeypatch):
    monkeypatch.setenv("FUZZINT_BOUNDS", "max_carrier=1")
    code, text = run_cli("check", "literal-meet-source-lift")
    assert code == 1
    lines = text.splitlines()
    assert lines[0] == "literal-meet-source-lift: counterexample"
    # the human line shows the violation, not the embedded instance
    assert "stage" in lines[1] and "tensor" not in lines[1]


def test_examples_json_mode():
    code, text = run_cli("examples", "run", "3", "--json")
    assert code == 0
    report = json.loads(text)
    assert report["example3"]["interior"] == {"0": "0", "1/2": "0", "1": "1"}
