import io
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_monoid import C3, DIAMOND, diamond_orthogonal_tensor

from fuzzint import cli
from fuzzint import io as fio
from fuzzint.interior import interior_from_topology

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
    # diamond-join, phi_op b |-> top: phi_op keeps joins but not meets, so
    # forward is not a left adjoint of backward
    "tables_backward_diamond_join.txt": (
        0,
        ["tables", "diamond_join_morphism.json", "--which", "powerset-op", "--op", "backward"],
    ),
    "tables_forward_diamond_join.txt": (
        0,
        ["tables", "diamond_join_morphism.json", "--which", "powerset-op", "--op", "forward"],
    ),
    "tables_right_adjoint_diamond_join.txt": (
        0,
        ["tables", "diamond_join_morphism.json", "--which", "powerset-op", "--op", "right-adjoint"],
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
    # two_arm_source.json with no arms: its lift is the least map, and all 20
    # directions at the test morphisms into godel3 with 1 point hold
    "check_initiality_empty_json.txt": (0, ["check", "initiality", "empty_source.json", "--json"]),
    "check_trivial_literal.txt": (1, ["check", "trivial-literal"]),
    "check_trivial_literal_json.txt": (1, ["check", "trivial-literal", "--json"]),
    "examples_run.txt": (0, ["examples", "run", "all"]),
    "examples_run_3_json.txt": (0, ["examples", "run", "3", "--json"]),
    # two points over godel3: L^X is not a chain, the pseudo-complement is
    # not involutive, and the open family is not join-closed
    "tables_interior_pair.txt": (0, ["tables", "godel3_pair_topology.json", "--which", "interior"]),
    "tables_closure_ext_pair.txt": (
        0,
        ["tables", "godel3_pair_topology.json", "--which", "closure", "--mode", "extensional"],
    ),
    "tables_closure_lit_pair.txt": (
        0,
        ["tables", "godel3_pair_topology.json", "--which", "closure", "--mode", "literal"],
    ),
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


def test_search_refuses_the_removed_workers_flag(capsys):
    # a search always runs in one process; a script still passing the flag
    # must fail with a usage error rather than have it silently ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--property", "meet-interchange", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_search_refuses_the_removed_max_l_flag(capsys):
    # the named algebras alone decide the grounds; no flag filters them by size
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--property", "meet-interchange", "--max-l", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-l 3" in capsys.readouterr().err


COMMANDS = ["validate", "tables", "check", "search", "replay", "examples"]
# every help, and usage errors of the top-level parser and of each
# subcommand's: a missing argument, an unknown flag after a complete
# command (reported by the top-level parser, with its usage line), a bad
# choice and a flag without its value
PARSER_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--bogus"],
    ["-h", "search"],
    *([name, "-h"] for name in COMMANDS),
    *([name] for name in COMMANDS),
    ["validate", "x.json", "--bogus"],
    ["tables", "x.json", "--which", "nope"],
    ["tables", "x.json", "--which", "residuum", "--op"],
    ["check", "continuity", "--bogus"],
    ["search", "--property", "meet-interchange", "--max-x"],
    ["search", "--property", "meet-interchange", "--workers", "2"],
    ["replay", "x.json", "extra"],
    ["examples", "run", "9"],
    ["examples", "walk"],
]


def _parsed(argv, capsys):
    """Exit code, stdout and stderr of ``cli.main`` on a usage error or a
    help request."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_usage_errors_and_help_match_the_full_parser(argv, capsys, monkeypatch):
    # main builds only the subcommand named first; what any parse that
    # stops prints and returns is the full parser's, byte for byte
    alone = _parsed(argv, capsys)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full(None))
    assert alone == _parsed(argv, capsys)


@pytest.mark.parametrize("command", COMMANDS)
def test_main_builds_only_the_subcommand_it_runs(command):
    subcommands = next(a for a in cli._build_parser(command)._actions if a.dest == "command")
    assert list(subcommands.choices) == [command]
    assert list(next(a for a in cli._build_parser()._actions if a.dest == "command").choices) == COMMANDS


def test_search_respects_env_bounds(monkeypatch):
    monkeypatch.setenv("FUZZINT_BOUNDS", "max_carrier=1,algebras=c2")
    code, text = run_cli("search", "--property", "literal-trivial-interior", "--json")
    assert code == 0  # no middle elements anywhere within these bounds
    report = json.loads(text)
    assert report["instances_checked"] == 1


def _clean(instances: int) -> dict:
    return {"instances_checked": instances, "property": "preservation-idempotent", "status": "no-counterexample", "witness": None}


@pytest.mark.parametrize(
    "flag, key, value, default, code, report",
    [
        # godel3 with two points has 20 functions at each point, and a
        # sample lists only those, not the 400 maps
        ("--max-tables", "max_tables", "19", "100000", 1, {
            "status": "error",
            "error": "BoundsExceeded",
            "detail": "bounds exceeded: more than 19 functions at one point of this ground",
        }),
        ("--max-tables", "max_tables", "20", "100000", 0, _clean(132)),
        ("--algebras", "algebras", "c2+lukasiewicz3", "c2+godel3", 0, _clean(100)),
        ("--max-x", "max_carrier", "1", "2", 0, _clean(12)),
        ("--sample", "operator_sample", "2", "4", 0, _clean(108)),
        # the key takes the trailing "s" the flag takes
        ("--budget", "time_budget", "60s", "300s", 0, _clean(132)),
    ],
    ids=["max-tables-19", "max-tables-20", "algebras-c2-lukasiewicz3", "max-x-1", "sample-2", "budget-60s"],
)
def test_search_flag_moves_its_bound_as_its_env_key_does(monkeypatch, flag, key, value, default, code, report):
    # in one process: the flag alone and the FUZZINT_BOUNDS key alone give
    # the same report, and the flag at the default value wins over the key
    argv = ("search", "--property", "preservation-idempotent", "--json")
    unmoved = (0, json.dumps(_clean(132), sort_keys=True) + "\n")
    monkeypatch.delenv("FUZZINT_BOUNDS", raising=False)
    assert run_cli(*argv) == unmoved
    moved = run_cli(*argv, flag, value)
    assert (moved[0], json.loads(moved[1])) == (code, report)
    monkeypatch.setenv("FUZZINT_BOUNDS", f"{key}={value}")
    assert run_cli(*argv) == moved
    assert run_cli(*argv, flag, default) == unmoved


def test_named_algebra_is_searched_whatever_its_size(monkeypatch):
    # godel4 has four elements; the algebra list alone decides the grounds
    monkeypatch.setenv("FUZZINT_BOUNDS", "algebras=godel4")
    assert run_cli("search", "--property", "meet-interchange") == (
        0,
        "meet-interchange: no-counterexample after 80 instances\n",
    )


def test_budget_spent_inside_a_walk_reports_the_cases_checked(monkeypatch):
    # the 1,023 families of pentagon-meet's 10 maps on 1 point take a few
    # milliseconds; listing the 600,593,049 maps on 2 points takes over a
    # minute, so the budget runs out inside that walk, after those cases
    monkeypatch.setenv("FUZZINT_BOUNDS", "algebras=pentagon-meet,max_tables=1000000000,time_budget=0.3")
    assert run_cli("search", "--property", "operator-lattice-closure") == (
        1,
        "error: bounds exceeded: time budget 0.3s exhausted after 1023 cases\n",
    )


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


GODEL3_POINT = {"points": ["p1"], "algebra": {"builtin": "godel", "n": 3}}
# 1/2 |-> 1 breaks contraction
EXPANDING = [[["0"], ["0"]], [["1/2"], ["1"]], [["1"], ["1"]]]
# no row for 1/2
MISSING_ROW = [[["0"], ["0"]], [["1"], ["1"]]]


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_space_failing_the_axioms_exits_1(tmp_path):
    space = write(tmp_path, "space.json", {"ground": GODEL3_POINT, "interior": {"table": EXPANDING}})
    argv = ["check", "continuity", str(FIXTURES / "identity_morphism.json"), space, space]
    code, text = run_cli(*argv)
    assert code == 1
    assert text.startswith("error: not an interior map: ")
    assert "'axiom': 'I1'" in text and "'u': {'p1': '1/2'}" in text
    code, text = run_cli(*argv, "--json")
    assert code == 1
    report = json.loads(text)
    assert report["status"] == "error"
    assert report["error"] == "NotAnInteriorMap"


def test_tensor_not_join_distributive_exits_1(tmp_path):
    lattice = {"elements": list(DIAMOND), "leq": [["bot", "a"], ["bot", "b"], ["a", "top"], ["b", "top"]], "closure": True}
    tensor = [[x, y, z] for (x, y), z in diamond_orthogonal_tensor().items()]
    monoid = write(tmp_path, "monoid.json", {"lattice": lattice, "tensor": tensor})
    detail = "tensor does not distribute over the join of ('a', 'b') with a"
    assert run_cli("validate", monoid) == (1, f"error: {detail}\n")
    code, text = run_cli("validate", monoid, "--json")
    assert code == 1
    assert json.loads(text) == {"status": "error", "error": "NotJoinDistributive", "detail": detail}


def test_interior_file_missing_a_row_exits_1(tmp_path):
    interior = write(tmp_path, "interior.json", {"ground": GODEL3_POINT, "table": MISSING_ROW})
    code, text = run_cli("validate", interior)
    assert code == 1
    assert text == "error: carrier mismatch: no row for (1,)\n"
    code, text = run_cli("validate", interior, "--json")
    assert code == 1
    assert json.loads(text) == {
        "status": "error",
        "error": "CarrierMismatch",
        "detail": "carrier mismatch: no row for (1,)",
    }


def test_interior_tables_of_an_interior_file_match_its_topologys(tmp_path):
    topology = fio.load_any(FIXTURES / "c3_topology.json")[1]
    interior = write(tmp_path, "interior.json", fio.interior_to_json(interior_from_topology(topology)))
    assert run_cli("tables", interior, "--which", "interior") == (0, (GOLDEN / "tables_interior.txt").read_text())


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["tables", "c3_topology.json", "--which", "residuum"], "residuum tables need a GL-monoid file"),
        (["tables", "godel3_monoid.json", "--which", "interior"], "interior tables need a topology or interior file"),
        (["tables", "godel3_monoid.json", "--which", "closure"], "closure tables need a topology file"),
        (["tables", "c3_topology.json", "--which", "powerset-op"], "powerset-op tables need a morphism file"),
        (["tables", "diamond_join_topology.json", "--which", "closure"], "closure tables need a GL-monoid ground"),
        (
            ["check", "continuity", "identity_morphism.json", "discrete_space.json"],
            "continuity needs MORPHISM SRC_SPACE DST_SPACE files",
        ),
        (["check", "initiality", "two_arm_source.json", "two_arm_source.json"], "initiality needs one SOURCE file"),
    ],
    ids=["residuum", "interior", "closure", "powerset-op", "closure-not-gl", "continuity-two-files", "initiality-two-files"],
)
def test_wrong_kind_of_input_exits_2(argv, detail):
    argv = resolve(argv)
    assert run_cli(*argv) == (2, f"error: cannot parse input: {detail}\n")
    code, text = run_cli(*argv, "--json")
    assert code == 2
    assert json.loads(text) == {"status": "error", "error": "parse-error", "detail": f"cannot parse input: {detail}"}


def test_interior_file_failing_the_axioms_exits_1(tmp_path):
    interior = write(tmp_path, "interior.json", {"ground": GODEL3_POINT, "table": EXPANDING})
    code, text = run_cli("validate", interior)
    assert code == 1
    assert text.startswith("error: not an interior map: ")


def test_space_with_a_row_off_the_ground_exits_1(tmp_path):
    rows = EXPANDING[:1] + [[["1/2"], ["0"]], [["1"], ["1"]], [["1", "1"], ["1", "1"]]]
    space = write(tmp_path, "space.json", {"ground": GODEL3_POINT, "interior": {"table": rows}})
    code, text = run_cli("validate", space)
    assert code == 1
    assert text == "error: carrier mismatch: row (2, 2) is not a value tuple on this ground\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["examples", "run", "3"],
        ["check", "continuity", "identity_morphism.json", "discrete_space.json", "least_space.json"],
    ],
)
def test_commands_that_do_not_search_ignore_bounds(monkeypatch, argv):
    monkeypatch.delenv("FUZZINT_BOUNDS", raising=False)
    expected = run_cli(*resolve(argv))
    monkeypatch.setenv("FUZZINT_BOUNDS", "bogus=1")
    assert run_cli(*resolve(argv)) == expected
    assert expected[0] == 0


def test_commands_that_search_reject_malformed_bounds(monkeypatch):
    monkeypatch.setenv("FUZZINT_BOUNDS", "bogus=1")
    code, text = run_cli("check", "initiality", str(FIXTURES / "two_arm_source.json"))
    assert code == 1
    assert text == "error: bounds exceeded: unknown bounds key 'bogus'\n"


@pytest.mark.parametrize(
    "rows, detail",
    [
        # a row that is not a [u, i(u)] pair
        ([[["0"], ["0"]], [["1/2"]], [["1"], ["1"]]], "table row [['1/2']] is not a [u, i(u)] pair of element lists"),
        # an image written as a bare string, not a list of names
        ([[["0"], ["0"]], [["1/2"], "1/2"], [["1"], ["1"]]], "table row [['1/2'], '1/2'] is not a [u, i(u)] pair of element lists"),
        # a table that is not a list of rows
        ("(0) -> (0)", "interior table must be a list of rows, got '(0) -> (0)'"),
    ],
    ids=["short-row", "bare-string-image", "table-not-a-list"],
)
def test_malformed_table_row_exits_2(tmp_path, rows, detail):
    interior = write(tmp_path, "interior.json", {"ground": GODEL3_POINT, "table": rows})
    code, text = run_cli("validate", interior)
    assert code == 2
    assert text == f"error: cannot parse input: {detail}\n"
    code, text = run_cli("validate", interior, "--json")
    assert code == 2
    assert json.loads(text) == {"status": "error", "error": "parse-error", "detail": f"cannot parse input: {detail}"}


def test_malformed_table_row_in_a_space_exits_2(tmp_path):
    rows = [[["0"], ["0"]], [["1/2"], "1/2"], [["1"], ["1"]]]
    space = write(tmp_path, "space.json", {"ground": GODEL3_POINT, "interior": {"table": rows}})
    argv = ["check", "continuity", str(FIXTURES / "identity_morphism.json"), space, space]
    code, text = run_cli(*argv)
    assert code == 2
    assert text.startswith("error: cannot parse input: table row ")


@pytest.mark.parametrize(
    "env, flags, detail",
    [
        (None, ["--sample", "1"], "operator_sample must be at least 2 (the least and the discrete map), got 1"),
        ("operator_sample=1", [], "operator_sample must be at least 2 (the least and the discrete map), got 1"),
        ("max_carrier=abc", [], "max_carrier must be an integer, got 'abc'"),
        # a flag that does not convert exits as its key does, not with argparse's 2
        (None, ["--max-x", "abc"], "max_carrier must be an integer, got 'abc'"),
        (None, ["--budget", "xyz"], "time_budget must be a number, got 'xyz'"),
        ("time_budget=nan", [], "time_budget must be positive, got nan"),
        ("max_lattice=4", [], "unknown bounds key 'max_lattice'"),
        # an empty algebra list quantifies over nothing, and two names of
        # one algebra would check its every case twice
        ("algebras=", [], "algebras must name at least one algebra"),
        (None, ["--algebras", ""], "algebras must name at least one algebra"),
        ("algebras=c2+godel2", [], "algebras 'c2' and 'godel2' build the same algebra"),
        (None, ["--algebras", "godel3+c2+c2"], "algebras 'c2' and 'c2' build the same algebra"),
        # an unknown name, a chain size int() cannot read, and a chain below
        # two elements are refused alike
        (None, ["--algebras", "c2+nope"], "unknown algebra name 'nope'"),
        (None, ["--algebras", "godel\u00b2"], "unknown algebra name 'godel\u00b2'"),
        ("algebras=godel1", [], "unknown algebra name 'godel1': a chain has at least 2 elements"),
        (None, ["--algebras", "godel0"], "unknown algebra name 'godel0': a chain has at least 2 elements"),
        (None, ["--algebras", "c2+lukasiewicz1"], "unknown algebra name 'lukasiewicz1': a chain has at least 2 elements"),
    ],
    ids=[
        "sample-flag-1",
        "sample-env-1",
        "carrier-env-abc",
        "carrier-flag-abc",
        "budget-flag-xyz",
        "budget-env-nan",
        "max-lattice-env-unknown",
        "algebras-env-empty",
        "algebras-flag-empty",
        "algebras-env-c2-godel2",
        "algebras-flag-c2-twice",
        "algebras-flag-unknown",
        "algebras-flag-superscript-digit",
        "algebras-env-godel1",
        "algebras-flag-godel0",
        "algebras-flag-lukasiewicz1",
    ],
)
def test_search_rejects_unusable_bounds(monkeypatch, env, flags, detail):
    if env is None:
        monkeypatch.delenv("FUZZINT_BOUNDS", raising=False)
    else:
        monkeypatch.setenv("FUZZINT_BOUNDS", env)
    code, text = run_cli("search", "--property", "composition-continuous", "--max-x", "1", *flags)
    assert code == 1
    assert text == f"error: bounds exceeded: {detail}\n"
    code, text = run_cli("search", "--property", "composition-continuous", "--max-x", "1", *flags, "--json")
    assert code == 1
    assert json.loads(text) == {"status": "error", "error": "BoundsExceeded", "detail": f"bounds exceeded: {detail}"}


@pytest.mark.parametrize(
    "phi_op",
    [
        [0, 5],  # an index past the end of L
        "01",  # a string, not to be read character by character
        [-2, -1],  # indices from the end of L
    ],
    ids=["index-past-end", "string", "negative-indices"],
)
def test_malformed_phi_op_exits_2(tmp_path, phi_op):
    morphism = {
        "dom": {"points": ["x"], "algebra": {"builtin": "godel", "n": 3}},
        "cod": {"points": ["y"], "algebra": {"builtin": "godel", "n": 2}},
        "f": {"x": "y"},
        "phi_op": phi_op,
    }
    path = write(tmp_path, "morphism.json", morphism)
    detail = f"cannot parse input: phi_op must be an {{element: element}} object or a list of element names, got {phi_op!r}"
    assert run_cli("validate", path) == (2, f"error: {detail}\n")
    code, text = run_cli("validate", path, "--json")
    assert code == 2
    assert json.loads(text) == {"status": "error", "error": "parse-error", "detail": detail}


@pytest.mark.parametrize(
    "f",
    [
        ["x"],  # a list of point names, not keyed by domain point
        3,
        None,
        "x",  # a string, not to be read character by character
    ],
    ids=["list", "number", "null", "string"],
)
def test_malformed_point_map_exits_2(tmp_path, f):
    morphism = {
        "dom": {"points": ["x"], "algebra": {"builtin": "godel", "n": 3}},
        "cod": {"points": ["y"], "algebra": {"builtin": "godel", "n": 2}},
        "f": f,
        "phi_op": {"0": "0", "1": "1"},
    }
    path = write(tmp_path, "morphism.json", morphism)
    detail = f"cannot parse input: f must be a {{point: point}} object, got {f!r}"
    assert run_cli("validate", path) == (2, f"error: {detail}\n")
    code, text = run_cli("validate", path, "--json")
    assert code == 2
    assert json.loads(text) == {"status": "error", "error": "parse-error", "detail": detail}


MORPHISM_TO_C2 = {
    "dom": {"points": ["x"], "algebra": {"builtin": "godel", "n": 3}},
    "cod": {"points": ["y"], "algebra": {"builtin": "godel", "n": 2}},
    "f": {"x": "y"},
    "phi_op": {"0": "0", "1": "1"},
}


@pytest.mark.parametrize(
    "doc, error, detail",
    [
        (
            {**MORPHISM_TO_C2, "f": {"x": "y", "z": "y"}},
            "CarrierMismatch",
            "carrier mismatch: point map defined on ['z'], not in the domain",
        ),
        (
            {**MORPHISM_TO_C2, "phi_op": {"0": "0", "1": "1", "1/2": "1"}},
            "UnknownElement",
            "unknown element '1/2'",
        ),
        (
            {"carrier": ["p1"], "values": {"p1": "1/2", "p2": "1"}, "algebra": {"builtin": "godel", "n": 3}},
            "CarrierMismatch",
            "carrier mismatch: values for points ['p2'] not on the carrier",
        ),
    ],
    ids=["point-map-off-the-domain", "phi-op-key-off-m", "values-off-the-carrier"],
)
def test_name_off_the_carrier_exits_1(tmp_path, doc, error, detail):
    path = write(tmp_path, "input.json", doc)
    assert run_cli("validate", path) == (1, f"error: {detail}\n")
    code, text = run_cli("validate", path, "--json")
    assert code == 1
    assert json.loads(text) == {"status": "error", "error": error, "detail": detail}


C2_LATTICE = {"elements": ["0", "1"], "leq": [["0", "1"]], "closure": True}
C3_LATTICE = {"elements": C3, "leq": [["0", "1/2"], ["1/2", "1"]], "closure": True}


@pytest.mark.parametrize(
    "doc, error, detail",
    [
        (
            {"lattice": C2_LATTICE, "tensor": [["0", "0", "0"], ["0", "1", "0"], ["1", "0", "0"]]},
            "CarrierMismatch",
            "carrier mismatch: tensor undefined at (1, 1)",
        ),
        ({**MORPHISM_TO_C2, "f": {}}, "CarrierMismatch", "carrier mismatch: point map undefined on ['x']"),
        ({**MORPHISM_TO_C2, "phi_op": {"1": "1"}}, "CarrierMismatch", "carrier mismatch: phi_op undefined on ['0']"),
        (
            {"carrier": ["p1", "p2"], "values": {"p1": "1/2"}, "algebra": {"builtin": "godel", "n": 3}},
            "CarrierMismatch",
            "carrier mismatch: no value for points ['p2']",
        ),
        ({"elements": [], "leq": []}, "NotAPartialOrder", "relation is not a partial order: nonempty carrier fails at ()"),
        (
            {"elements": ["a", "a"], "leq": []},
            "NotAPartialOrder",
            "relation is not a partial order: distinct element names fails at (('a', 'a'),)",
        ),
        ({"elements": ["a", "b"], "leq": [["a", "z"]], "closure": True}, "UnknownElement", "unknown element 'z'"),
        (
            {"elements": ["a", "b", "c"], "leq": [["a", "a"], ["b", "b"], ["c", "c"], ["a", "b"], ["b", "c"]]},
            "NotAPartialOrder",
            "relation is not a partial order: transitivity fails at ('a', 'b', 'c')",
        ),
        (
            # 0 (x) 0 = 1 but 1 (x) 0 = 0
            {"lattice": C2_LATTICE, "tensor": [["0", "0", "1"], ["0", "1", "1"], ["1", "0", "0"], ["1", "1", "1"]]},
            "NotIsotone",
            "tensor is not isotone: witness ('0', '1', '0', 'left')",
        ),
        (
            # a (x) b = max(0, a + b - 1/2): (0 (x) 0) (x) 1 = 1/2 but 0 (x) (0 (x) 1) = 0
            {
                "lattice": C3_LATTICE,
                "tensor": [[a, b, C3[min(2, max(0, i + j - 1))]] for i, a in enumerate(C3) for j, b in enumerate(C3)],
            },
            "NotAssociative",
            "tensor is not associative at ('0', '0', '1')",
        ),
        (
            # the join tensor, with top listed before bottom: top is a unit,
            # so 1 fails the zero law before 0 fails the unit law
            {"lattice": {**C2_LATTICE, "elements": ["1", "0"]}, "tensor": [[a, b, max(a, b)] for a in "01" for b in "01"]},
            "NoZero",
            "bottom is not a zero: 1 (x) bottom = 1",
        ),
    ],
    ids=[
        "tensor-undefined",
        "point-map-undefined",
        "phi-op-undefined",
        "values-undefined",
        "empty-lattice",
        "duplicate-names",
        "unknown-in-leq",
        "not-transitive",
        "not-left-isotone",
        "not-associative",
        "no-zero",
    ],
)
def test_an_incomplete_table_or_a_broken_law_exits_1(tmp_path, doc, error, detail):
    path = write(tmp_path, "input.json", doc)
    assert run_cli("validate", path) == (1, f"error: {detail}\n")
    code, text = run_cli("validate", path, "--json")
    assert code == 1
    assert json.loads(text) == {"status": "error", "error": error, "detail": detail}


GODEL3_PAIR = {"points": ["p1", "p2"], "algebra": {"builtin": "godel", "n": 3}}


def opens_file(tmp_path, kind, ground, opens):
    """A topology file, or a space file whose interior is given by opens."""
    if kind == "topology":
        return write(tmp_path, "topology.json", {"ground": ground, "opens": opens})
    return write(tmp_path, "space.json", {"ground": ground, "interior": {"opens": opens}})


@pytest.mark.parametrize("kind", ["topology", "space"])
@pytest.mark.parametrize(
    "ground, opens, code, detail",
    [
        # one value for two points
        (GODEL3_PAIR, [["1"], ["1", "1"]], 1, "carrier mismatch: open (2,) is not a value tuple on this ground"),
        # two values for one point
        (GODEL3_POINT, [["1", "0"], ["1"]], 1, "carrier mismatch: open (2, 0) is not a value tuple on this ground"),
        # opens written as a string
        (GODEL3_POINT, "10", 2, "cannot parse input: opens must be a list of element lists, got '10'"),
        # a row written as a bare string
        (GODEL3_POINT, ["1", ["0"]], 2, "cannot parse input: open '1' is not a list of element names"),
        # a row that is not a list
        (GODEL3_POINT, [["1"], 0], 2, "cannot parse input: open 0 is not a list of element names"),
        # an element that is not a name
        (GODEL3_POINT, [["1"], [["0"]]], 2, "cannot parse input: open [['0']] is not a list of element names"),
    ],
    ids=["short-row", "long-row", "opens-a-string", "row-a-string", "row-not-a-list", "element-not-a-name"],
)
def test_malformed_opens(tmp_path, kind, ground, opens, code, detail):
    path = opens_file(tmp_path, kind, ground, opens)
    commands = [["validate", path]]
    if kind == "topology":
        commands += [["tables", path, "--which", "interior"], ["tables", path, "--which", "closure"]]
    else:
        commands += [["check", "continuity", str(FIXTURES / "identity_morphism.json"), path, path]]
    for argv in commands:
        assert run_cli(*argv) == (code, f"error: {detail}\n")
        got_code, text = run_cli(*argv, "--json")
        assert got_code == code
        assert json.loads(text)["detail"] == detail


C2 = {"builtin": "godel", "n": 2}


@pytest.mark.parametrize(
    "name, doc, detail",
    [
        # points written as a string
        ("ground.json", {"points": "ab", "algebra": C2}, "points must be a list of point names, got 'ab'"),
        # a point that is not a name
        ("ground.json", {"points": ["a", 3], "algebra": C2}, "points must be a list of point names, got ['a', 3]"),
        # a space over a ground whose points are a string
        (
            "space.json",
            {"ground": {"points": "ab", "algebra": C2}, "interior": "discrete"},
            "points must be a list of point names, got 'ab'",
        ),
        # values written as a string
        (
            "fuzzyset.json",
            {"carrier": ["a", "b"], "values": "10", "algebra": C2},
            "values must be a {point: element} object or a list of element names, got '10'",
        ),
    ],
    ids=["points-a-string", "point-not-a-name", "space-points-a-string", "values-a-string"],
)
def test_string_where_a_list_is_expected_exits_2(tmp_path, name, doc, detail):
    path = write(tmp_path, name, doc)
    assert run_cli("validate", path) == (2, f"error: cannot parse input: {detail}\n")
    code, text = run_cli("validate", path, "--json")
    assert code == 2
    assert json.loads(text) == {"status": "error", "error": "parse-error", "detail": f"cannot parse input: {detail}"}


C2_LATTICE = {"elements": ["0", "1"], "leq": [["0", "1"]], "closure": True}
C2_TENSOR = [[a, b, min(a, b)] for a in "01" for b in "01"]
LEQ_PAIRS = "leq must be a list of [a, b] pairs of element names"
TENSOR_TRIPLES = "tensor must be a list of [a, b, a(x)b] triples of element names"
ARM_OBJECTS = "arms must be a list of {morphism, space} objects"
POINT_VALUES = "values must be a {point: element} object or a list of element names"


@pytest.mark.parametrize(
    "name, doc, detail",
    [
        # elements written as a string, not read character by character
        ("lattice.json", {**C2_LATTICE, "elements": "01"}, "elements must be a list of element names, got '01'"),
        ("lattice.json", {**C2_LATTICE, "elements": 5}, "elements must be a list of element names, got 5"),
        ("lattice.json", {**C2_LATTICE, "leq": 5}, f"{LEQ_PAIRS}, got 5"),
        ("lattice.json", {**C2_LATTICE, "leq": [["0", "1", "1"]]}, f"{LEQ_PAIRS}, got [['0', '1', '1']]"),
        # a string is not a truth value
        ("lattice.json", {**C2_LATTICE, "closure": "no"}, "closure must be true or false, got 'no'"),
        # an object keyed by two-character strings is not a list of triples
        (
            "monoid.json",
            {"lattice": C2_LATTICE, "tensor": {"00": "0", "01": "0", "10": "0", "11": "1"}},
            f"{TENSOR_TRIPLES}, got {{'00': '0', '01': '0', '10': '0', '11': '1'}}",
        ),
        ("monoid.json", {"lattice": C2_LATTICE, "tensor": 7}, f"{TENSOR_TRIPLES}, got 7"),
        ("monoid.json", {"lattice": C2_LATTICE, "tensor": [["0", "0"]]}, f"{TENSOR_TRIPLES}, got [['0', '0']]"),
        ("monoid.json", {"lattice": C2_LATTICE, "tensor": C2_TENSOR, "gl": "no"}, "gl must be true or false, got 'no'"),
        ("monoid.json", {"builtin": "godel", "n": [3]}, "n must be an integer, got [3]"),
        ("source.json", {"domain": {"points": ["x"], "algebra": C2}, "arms": 5}, f"{ARM_OBJECTS}, got 5"),
        ("source.json", {"domain": {"points": ["x"], "algebra": C2}, "arms": [5]}, f"{ARM_OBJECTS}, got [5]"),
        # a fuzzy set's value that is not an element name
        ("fuzzyset.json", {"carrier": ["p1"], "values": {"p1": [["0", "1"]]}, "algebra": C2}, f"{POINT_VALUES}, got {{'p1': [['0', '1']]}}"),
        ("fuzzyset.json", {"carrier": ["p1"], "values": {"p1": 5}, "algebra": C2}, f"{POINT_VALUES}, got {{'p1': 5}}"),
    ],
    ids=[
        "elements-a-string",
        "elements-a-number",
        "leq-a-number",
        "leq-row-of-three",
        "closure-a-string",
        "tensor-an-object",
        "tensor-a-number",
        "tensor-row-of-two",
        "gl-a-string",
        "n-a-list",
        "arms-a-number",
        "arm-a-number",
        "value-a-list",
        "value-a-number",
    ],
)
def test_wrong_shaped_lattice_monoid_or_source_exits_2(tmp_path, name, doc, detail):
    path = write(tmp_path, name, doc)
    assert run_cli("validate", path) == (2, f"error: cannot parse input: {detail}\n")
    code, text = run_cli("validate", path, "--json")
    assert code == 2
    assert json.loads(text) == {"status": "error", "error": "parse-error", "detail": f"cannot parse input: {detail}"}


@pytest.mark.parametrize("values", [{"a": "1", "b": "0"}, ["1", "0"]], ids=["object", "list"])
def test_fuzzy_set_values_as_object_or_name_list_stay_valid(tmp_path, values):
    path = write(tmp_path, "fuzzyset.json", {"carrier": ["a", "b"], "values": values, "algebra": C2})
    assert run_cli("validate", path) == (0, "ok: fuzzyset valid\n")


C2_POINT = {"points": ["p1"], "algebra": C2}
C2_PAIR = {"points": ["p1", "p2"], "algebra": C2}
PAIR_DISCRETE = {"ground": C2_PAIR, "table": [[[a, b], [a, b]] for a in "01" for b in "01"]}
PAIR_IDENTITY = {"dom": C2_PAIR, "cod": C2_PAIR, "f": {"p1": "p1", "p2": "p2"}, "phi_op": {"0": "0", "1": "1"}}
PAIR_LEAST = {"ground": C2_PAIR, "table": [[[a, b], [a, b] if a + b == "11" else ["0", "0"]] for a in "01" for b in "01"]}
POINT_DISCRETE = {"ground": C2_POINT, "table": [[[a], [a]] for a in "01"]}
POINT_TOP = {"carrier": ["p1"], "values": {"p1": "1"}, "algebra": C2}
OFF_CODOMAIN = "ground mismatch: morphism codomain differs from the target space"
# a source on one point whose arm starts at two
OFF_DOMAIN_SOURCE = {"domain": C2_POINT, "arms": [{"morphism": PAIR_IDENTITY, "interior": PAIR_DISCRETE}]}
OFF_DOMAIN = "ground mismatch: arm morphism does not start at the source domain"
GODEL4_POINT = {"points": ["p1"], "algebra": {"builtin": "godel", "n": 4}}
GODEL4_IDENTITY = {"dom": GODEL4_POINT, "cod": GODEL4_POINT, "f": {"p1": "p1"}, "phi_op": {a: a for a in ("0", "1/3", "2/3", "1")}}
# an interior map that is not idempotent: 2/3 drops to 1/3, which drops to 0
GODEL4_SLIP = {"ground": GODEL4_POINT, "table": [[["0"], ["0"]], [["1/3"], ["0"]], [["2/3"], ["1/3"]], [["1"], ["1"]]]}
# the composite fails because a leg does: least to discrete is not continuous,
# discrete to least is not open
LEG_WITNESS = "witness {'v': {'p1': '0', 'p2': '1'}, 'lhs': {'p1': '0', 'p2': '1'}, 'rhs': {'p1': '0', 'p2': '0'}}"


@pytest.mark.parametrize(
    "prop, case, error, detail",
    [
        (
            "operator-lattice-closure",
            {"kind": "subset", "ground": C2_POINT, "members": []},
            "MalformedBundle",
            "malformed witness bundle: an operator-lattice-closure case needs at least one member",
        ),
        (
            "operator-lattice-closure",
            {"kind": "subset", "ground": C2_POINT, "members": [PAIR_DISCRETE]},
            "GroundMismatch",
            "ground mismatch: a member lives on another ground than the case",
        ),
        ("initiality", OFF_DOMAIN_SOURCE, "GroundMismatch", OFF_DOMAIN),
        ("literal-meet-source-lift", OFF_DOMAIN_SOURCE, "GroundMismatch", OFF_DOMAIN),
        (
            # the meet of no arms is the constant-top map, not an interior map
            "literal-meet-source-lift",
            {"domain": C2_POINT, "arms": []},
            "MalformedBundle",
            "malformed witness bundle: a literal-meet-source-lift case needs at least one arm",
        ),
        (
            # both legs are open, yet the composite is not continuous
            "composition-continuous",
            {"open": True, "first": PAIR_IDENTITY, "second": PAIR_IDENTITY, "interiors": [PAIR_LEAST, PAIR_DISCRETE, PAIR_DISCRETE]},
            "MalformedBundle",
            "malformed witness bundle: open must be false for this property, got true",
        ),
        (
            "composition-open",
            {"open": False, "first": PAIR_IDENTITY, "second": PAIR_IDENTITY, "interiors": [PAIR_LEAST, PAIR_LEAST, PAIR_LEAST]},
            "MalformedBundle",
            "malformed witness bundle: open must be true for this property, got false",
        ),
        (
            "composition-continuous",
            {"open": False, "first": PAIR_IDENTITY, "second": PAIR_IDENTITY, "interiors": [PAIR_LEAST, PAIR_LEAST, PAIR_DISCRETE]},
            "NotContinuous",
            f"morphism is not continuous: {LEG_WITNESS}",
        ),
        (
            "composition-open",
            {"open": True, "first": PAIR_IDENTITY, "second": PAIR_IDENTITY, "interiors": [PAIR_DISCRETE, PAIR_DISCRETE, PAIR_LEAST]},
            "NotOpen",
            f"morphism is not open: {LEG_WITNESS}",
        ),
        (
            "open-preimage",
            {
                "morphism": PAIR_IDENTITY,
                "src": PAIR_LEAST,
                "dst": PAIR_LEAST,
                "v": {"carrier": ["p1", "p2"], "values": {"p1": "1", "p2": "0"}, "algebra": C2},
            },
            "PropertyPreconditionFailed",
            "target interior lacks openness of v: witness {'p1': '1', 'p2': '0'}",
        ),
        (
            "preservation-idempotent",
            {"morphism": GODEL4_IDENTITY, "interior": GODEL4_SLIP},
            "PropertyPreconditionFailed",
            "target interior lacks idempotency: witness {'u': {'p1': '2/3'}}",
        ),
        ("preservation-fully-productive", {"morphism": PAIR_IDENTITY, "interior": POINT_DISCRETE}, "GroundMismatch", OFF_CODOMAIN),
        (
            "open-preimage",
            {"morphism": PAIR_IDENTITY, "src": PAIR_LEAST, "dst": POINT_DISCRETE, "v": POINT_TOP},
            "GroundMismatch",
            OFF_CODOMAIN,
        ),
        (
            "open-preimage",
            {"morphism": PAIR_IDENTITY, "src": PAIR_LEAST, "dst": PAIR_LEAST, "v": POINT_TOP},
            "CarrierMismatch",
            "carrier mismatch: fuzzy set ground differs from the target space",
        ),
    ],
    ids=[
        "empty-family",
        "foreign-member",
        "initiality-off-domain",
        "meet-lift-off-domain",
        "meet-lift-no-arms",
        "continuous-case-marked-open",
        "open-case-marked-continuous",
        "second-leg-not-continuous",
        "second-leg-not-open",
        "v-not-open",
        "target-not-idempotent",
        "target-off-the-codomain",
        "dst-off-the-codomain",
        "v-off-the-dst-ground",
    ],
)
def test_replay_of_a_mismatched_bundle_exits_1(tmp_path, prop, case, error, detail):
    path = write(tmp_path, "bundle.json", {"property": prop, "case": case, "witness": {}})
    assert run_cli("replay", path) == (1, f"error: {detail}\n")
    code, text = run_cli("replay", path, "--json")
    assert code == 1
    assert json.loads(text) == {"status": "error", "error": error, "detail": detail}


@pytest.mark.parametrize(
    "prop, case, detail",
    [
        ("composition-continuous", {"open": False}, "case missing key 'first'"),
        ("composition-continuous", "abc", "a case or an arm must be an object, got 'abc'"),
        ("operator-lattice-closure", {"kind": "subset", "ground": C2_POINT, "members": 3}, "members must be a list, got 3"),
        ("operator-lattice-closure", {"kind": "subset", "ground": C2_POINT, "members": [3]}, "expected an object or a file name, got 3"),
        (
            "composition-continuous",
            {"open": False, "first": PAIR_IDENTITY, "second": PAIR_IDENTITY, "interiors": [PAIR_LEAST, PAIR_LEAST]},
            "interiors must list the three maps [src, mid, dst], got 2",
        ),
        ("composition-open", {"open": "yes"}, "open must be true or false, got 'yes'"),
        (
            "open-preimage",
            {"v": {"carrier": ["p1", "p2"], "values": {"p1": [["0", "1"]], "p2": "0"}, "algebra": C2}},
            f"{POINT_VALUES}, got {{'p1': [['0', '1']], 'p2': '0'}}",
        ),
    ],
    ids=[
        "missing-key",
        "case-not-an-object",
        "list-field-not-a-list",
        "member-not-an-object",
        "two-interiors",
        "open-not-a-boolean",
        "value-a-list",
    ],
)
def test_replay_of_a_malformed_case_exits_2(tmp_path, prop, case, detail):
    path = write(tmp_path, "bundle.json", {"property": prop, "case": case, "witness": {}})
    assert run_cli("replay", path) == (2, f"error: cannot parse input: {detail}\n")
    code, text = run_cli("replay", path, "--json")
    assert code == 2
    assert json.loads(text) == {"status": "error", "error": "parse-error", "detail": f"cannot parse input: {detail}"}


def test_replay_reads_case_files_beside_the_bundle(tmp_path, monkeypatch):
    # the literal trivial interior of godel3 on one point is not interior
    beside = tmp_path / "bundles"
    beside.mkdir()
    write(beside, "g.json", {"points": ["p1"], "algebra": {"builtin": "godel", "n": 3}})
    write(beside, "bundle.json", {"property": "literal-trivial-interior", "case": {"ground": "g.json"}, "witness": {}})
    monkeypatch.chdir(tmp_path)
    assert run_cli("replay", str(Path("bundles", "bundle.json"))) == (1, "literal-trivial-interior: counterexample\n")


def test_python_dash_m_fuzzint_runs_the_command_line():
    env = {key: value for key, value in os.environ.items() if key != "FUZZINT_BOUNDS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    argv = ["search", "--property", "operator-lattice-closure", "--algebras", "c2", "--max-x", "2", "--json"]
    done = subprocess.run([sys.executable, "-m", "fuzzint", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["status"] == "no-counterexample"
    assert report["instances_checked"] == 16



@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_a_closed_stdout_exits_141_quietly(flags, unbuffered):
    # the test closes its end of the pipe before the child writes: whether
    # the write fails at print or at the last flush, the child exits as a
    # SIGPIPE would, with nothing on stderr
    env = {key: value for key, value in os.environ.items() if key != "FUZZINT_BOUNDS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    env["PYTHONUNBUFFERED"] = unbuffered
    argv = [sys.executable, "-m", "fuzzint", "search", "--property", "initiality", *flags]
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    _, stderr = child.communicate(timeout=120)
    assert (child.returncode, stderr) == (141, b"")

C2_THIRTEEN = {"points": [f"p{k}" for k in range(1, 14)], "algebra": {"builtin": "godel", "n": 2}}
TOO_LARGE = "error: fuzzy powerset has 8192 elements, above the materialization limit 4096\n"


@pytest.mark.parametrize("kind", ["topology", "space"])
def test_opens_above_the_materialization_limit_exit_1(tmp_path, kind):
    path = opens_file(tmp_path, kind, C2_THIRTEEN, [["1"] * 13])
    commands = [["validate", path]]
    if kind == "topology":
        commands += [["tables", path, "--which", which] for which in ("interior", "closure")]
    for argv in commands:
        assert run_cli(*argv) == (1, TOO_LARGE)
        code, text = run_cli(*argv, "--json")
        assert code == 1
        assert json.loads(text)["error"] == "GroundTooLarge"


@pytest.mark.parametrize("op", ["backward", "forward", "right-adjoint"])
def test_powerset_op_tables_above_the_materialization_limit_exit_1(tmp_path, op):
    point = {"points": ["y"], "algebra": {"builtin": "godel", "n": 2}}
    morphism = {
        "dom": C2_THIRTEEN,
        "cod": point,
        "f": {x: "y" for x in C2_THIRTEEN["points"]},
        "phi_op": {"0": "0", "1": "1"},
    }
    path = write(tmp_path, "morphism.json", morphism)
    assert run_cli("validate", path) == (0, "ok: morphism valid\n")
    assert run_cli("tables", path, "--which", "powerset-op", "--op", op) == (1, TOO_LARGE)


@pytest.fixture(params=["directory", "not-utf8"])
def unreadable(request, tmp_path):
    """A path the loaders cannot read: a directory, or a file that is not UTF-8."""
    if request.param == "directory":
        return str(tmp_path)
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe\x00{}")
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "PATH"],
        ["tables", "PATH", "--which", "residuum"],
        ["check", "continuity", "PATH", "discrete_space.json", "least_space.json"],
        # a space file whose ground names the unreadable path
        ["check", "continuity", "identity_morphism.json", "NESTED", "NESTED"],
        ["replay", "PATH"],
    ],
    ids=["validate", "tables", "check-continuity", "check-continuity-nested", "replay"],
)
def test_unreadable_input_exits_2(tmp_path, unreadable, argv):
    nested = write(tmp_path, "nested_space.json", {"ground": unreadable, "interior": {"table": EXPANDING}})
    argv = [{"PATH": unreadable, "NESTED": nested}.get(a, a) for a in resolve(argv)]
    code, text = run_cli(*argv)
    assert code == 2
    assert text.startswith("error: cannot parse input: ") and unreadable in text
    code, text = run_cli(*argv, "--json")
    assert code == 2
    report = json.loads(text)
    assert report["status"] == "error" and report["error"] == "parse-error"
    assert report["detail"].startswith("cannot parse input: ") and unreadable in report["detail"]


@pytest.mark.parametrize(
    "argv, out",
    [
        (["search", "--property", "literal-meet-source-lift"], "missing/b.json"),
        (["search", "--property", "literal-meet-source-lift"], "."),
        (["examples", "run", "3"], "file"),
        (["examples", "run", "3"], "file/sub"),
    ],
    ids=["search-missing-directory", "search-directory", "examples-file", "examples-under-a-file"],
)
def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, argv, out):
    # the search finds its counterexample, or the example its report, and
    # only the write fails: one error line, or one JSON error report
    (tmp_path / "file").write_text("")
    argv = [*argv, "--out", str(tmp_path / out)]
    code, text = run_cli(*argv)
    assert code == 2
    assert text.startswith("error: cannot write output: ") and text.count("\n") == 1
    code, text = run_cli(*argv, "--json")
    assert code == 2
    report = json.loads(text)
    assert report["status"] == "error" and report["error"] == "write-error"
    assert report["detail"].startswith(f"cannot write output: {tmp_path}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("prop", [["x"], {"name": "x"}, 3], ids=["list", "object", "number"])
def test_replay_of_a_property_that_is_not_a_name_exits_2(tmp_path, prop):
    path = write(tmp_path, "bundle.json", {"property": prop, "case": {}, "witness": {}})
    code, text = run_cli("replay", path)
    assert code == 2
    assert text.startswith(f"error: unknown property {prop!r}; known: ")
    code, text = run_cli("replay", path, "--json")
    assert code == 2
    report = json.loads(text)
    assert report["status"] == "error" and report["error"] == "unknown-property"
    assert report["detail"].startswith(f"unknown property {prop!r}; known: ")


def test_search_refuses_a_chain_above_the_carrier_limit():
    code, text = run_cli("search", "--property", "meet-interchange", "--algebras", "godel2000")
    assert (code, text) == (1, "error: carrier size 2000 exceeds the configured limit 64\n")
