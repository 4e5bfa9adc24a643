"""Command-line front door.

Subcommands: validate, tables, check, search, replay, examples.  Exit
codes are 0 for a clean verdict; 1 for a property failure or for an input
that parses but breaks a definition, with the first witness in the report;
2 for unreadable input (missing file, a directory or a file that is not
UTF-8, JSON syntax, missing key, unknown property) or an ``--out`` path
that cannot be written; 141 when the reader closes stdout before the
output is written.  Output is deterministic for fixed inputs and flags:
rows are sorted and no timestamps are printed.  The FUZZINT_BOUNDS environment variable
overrides default search bounds; only the commands that search read it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import io as fio
from .continuity import initial_from_source, is_continuous, is_open_morphism, verify_initiality
from .errors import FuzzintError, ParseError, UnknownProperty, WriteError
from .gallery import (
    all_topologies,
    check_ij_continuity_claims,
    classical_interior,
    example2_idempotency_scan,
    example3_roundtrip,
    lsc_interior,
    validate_topology,
)
from .interior import check_interior_axioms, closure_from_topology, interior_from_topology, literal_trivial
from .monoid import GLMonoid, builtin_chain
from .powerset import Ground
from .search import (
    PROPERTIES,
    SearchBounds,
    bounds_from_env,
    builtin_algebra,
    grounds_within,
    parse_bound,
    replay,
    search,
)

TRIVIAL_NOTE = (
    "note: the widely quoted trivial interior operator (every nonzero set to"
    " the constant top) is not contractive; on the 3-chain the witness is"
    " u = 1/2.  The corrected least operator keeps top and sends every other"
    " set to the constant bottom."
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        try:
            code = args.handler(args)
        except ParseError as exc:
            _emit_error(args, str(exc), code="parse-error")
            code = 2
        except UnknownProperty as exc:
            _emit_error(args, str(exc), code="unknown-property")
            code = 2
        except WriteError as exc:
            _emit_error(args, str(exc), code="write-error")
            code = 2
        except FuzzintError as exc:
            _emit_error(args, str(exc), code=type(exc).__name__)
            code = 1
        sys.stdout.flush()  # a buffered write to a closed pipe fails only here
    except BrokenPipeError:
        # the reader closed stdout: the interpreter's last flush goes to
        # devnull, and the exit code is a SIGPIPE's, 128 + 13
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _emit_error(args, message: str, code: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"status": "error", "error": code, "detail": message}, sort_keys=True))
    else:
        print(f"error: {message}")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subcommand ``command`` only, when it names one:
    the metavar keeps the usage line the full parser's.  Otherwise, for
    help or an unknown command, the parser with every subcommand."""
    parser = argparse.ArgumentParser(prog="fuzzint")
    adds = dict(_COMMANDS)
    if command in adds:
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(adds) + "}")
        adds[command](sub)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in adds.values():
            add(sub)
    return parser


def _add_validate(sub) -> None:
    p = sub.add_parser("validate", help="validate a definition file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_validate)


def _add_tables(sub) -> None:
    p = sub.add_parser("tables", help="print a derived table")
    p.add_argument("path")
    p.add_argument(
        "--which",
        required=True,
        choices=["residuum", "interior", "closure", "powerset-op"],
    )
    p.add_argument("--mode", choices=["literal", "extensional"], default="extensional")
    p.add_argument("--op", choices=["backward", "forward", "right-adjoint"], default="backward")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_tables)


def _add_check(sub) -> None:
    p = sub.add_parser("check", help="check a property of supplied instances")
    p.add_argument("prop", metavar="property")
    p.add_argument("files", nargs="*")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_check)


def _add_search(sub) -> None:
    p = sub.add_parser("search", help="counterexample search over bounded instances")
    p.add_argument("--property", required=True, dest="prop")
    # each bound flag's dest is its SearchBounds field, so _bounds reads it
    # with parse_bound exactly as it reads that FUZZINT_BOUNDS key
    p.add_argument("--max-x", dest="max_carrier")
    p.add_argument("--max-tables", dest="max_tables")
    p.add_argument("--budget", dest="time_budget", help="time budget, e.g. 60s")
    p.add_argument("--algebras", help="plus-separated names, e.g. c2+godel3")
    p.add_argument("--sample", dest="operator_sample", help="interior maps per ground")
    p.add_argument("--out", default=None, help="write the witness bundle here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_search)


def _add_replay(sub) -> None:
    p = sub.add_parser("replay", help="re-evaluate a witness bundle")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_replay)


def _add_examples(sub) -> None:
    p = sub.add_parser("examples", help="run the worked example suites")
    p.add_argument("action", choices=["run"])
    p.add_argument("which", nargs="?", default="all", choices=["1", "2", "3", "all"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None, help="directory for JSON reports")
    p.set_defaults(handler=cmd_examples)


# each subcommand with what adds its parser, in the order the full parser
# lists them
_COMMANDS = (
    ("validate", _add_validate),
    ("tables", _add_tables),
    ("check", _add_check),
    ("search", _add_search),
    ("replay", _add_replay),
    ("examples", _add_examples),
)


def _bounds(args) -> SearchBounds:
    """Effective search bounds: defaults, then FUZZINT_BOUNDS, then flags.
    Only the commands that search read them."""
    bounds = bounds_from_env(os.environ.get("FUZZINT_BOUNDS"))
    flags = {
        name: parse_bound(name, getattr(args, name))
        for name in SearchBounds._fields
        if getattr(args, name, None) is not None
    }
    return bounds.replace(**flags)


# ----------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    kind, obj = fio.load_any(args.path)
    detail = {
        "lattice": lambda o: {"elements": len(o.elements), "distributive": o.distributive},
        "monoid": lambda o: {"gl": isinstance(o, GLMonoid), "elements": len(o.lattice)},
    }.get(kind, lambda o: {})(obj)
    if args.json:
        print(json.dumps({"status": "ok", "kind": kind, **detail}, sort_keys=True))
    else:
        extra = "".join(f" {k}={v}" for k, v in sorted(detail.items()))
        print(f"ok: {kind} valid{extra}")
    return 0


# ------------------------------------------------------------------- tables

def _format_values(ground, values) -> str:
    lat = ground.lattice
    return "(" + ",".join(lat.name(v) for v in values) + ")"


def _position_rows(dom, images, cod) -> list:
    """One row per position of ``dom``'s index: its value tuple and the
    value tuple at its image position in ``cod``'s index."""
    values = cod.index.values
    return [
        [_format_values(dom, u), _format_values(cod, values[image])] for u, image in zip(dom.index.values, images)
    ]


def cmd_tables(args) -> int:
    kind, obj = fio.load_any(args.path)
    rows = []
    if args.which == "residuum":
        if kind != "monoid" or not isinstance(obj, GLMonoid):
            raise ParseError("residuum tables need a GL-monoid file")
        lat = obj.lattice
        for a in range(len(lat)):
            for b in range(len(lat)):
                rows.append([lat.name(a), lat.name(b), lat.name(obj.residuum[a][b])])
        header = "a -> b = c"
    elif args.which == "interior":
        if kind == "topology":
            imap = interior_from_topology(obj)
        elif kind == "interior":
            imap = obj
        else:
            raise ParseError("interior tables need a topology or interior file")
        rows = _position_rows(imap.ground, imap.images, imap.ground)
        header = "u |-> i(u)"
    elif args.which == "closure":
        if kind != "topology":
            raise ParseError("closure tables need a topology file")
        if not isinstance(obj.ground.algebra, GLMonoid):
            raise ParseError("closure tables need a GL-monoid ground")
        rows = _position_rows(obj.ground, closure_from_topology(obj, args.mode), obj.ground)
        header = f"u |-> c(u) [{args.mode}]"
    else:  # powerset-op
        if kind != "morphism":
            raise ParseError("powerset-op tables need a morphism file")
        g = obj
        if args.op == "backward":
            rows = _position_rows(g.cod, g.backward, g.dom)
            header = "b |-> backward(b)"
        elif args.op == "forward":
            rows = _position_rows(g.dom, g.forward, g.cod)
            header = "a |-> forward(a)"
        else:
            rows = _position_rows(g.dom, g.right_adjoint, g.cod)
            header = "u |-> right_adjoint(u)"
    if args.json:
        print(json.dumps({"table": args.which, "rows": rows}, sort_keys=True))
    else:
        print(f"# {header}")
        for row in rows:
            print("  ".join(row))
    return 0


# -------------------------------------------------------------------- check

def cmd_check(args) -> int:
    prop, files = args.prop, args.files
    if prop in ("continuity", "openness"):
        if len(files) != 3:
            raise ParseError(f"{prop} needs MORPHISM SRC_SPACE DST_SPACE files")
        g = fio.morphism_from_json(fio.load_json(files[0]))
        src = fio.space_from_json(fio.load_json(files[1]))
        dst = fio.space_from_json(fio.load_json(files[2]))
        verdict = (is_continuous if prop == "continuity" else is_open_morphism)(g, src, dst)
        return _print_verdict(args, verdict.to_json())
    if prop == "initiality":
        if len(files) != 1:
            raise ParseError("initiality needs one SOURCE file")
        source = fio.source_from_json(fio.load_json(files[0]))
        lift = initial_from_source(source)
        verdict = verify_initiality(source, lift, test_grounds=grounds_within(_bounds(args)))
        return _print_verdict(args, verdict.to_json())
    if prop == "trivial-literal":
        ground = Ground(points=("p1",), algebra=builtin_algebra("godel3"))
        verdict = check_interior_axioms(literal_trivial(ground))
        report = verdict.to_json()
        report["property"] = "literal-trivial-interior"
        report["note"] = TRIVIAL_NOTE
        return _print_verdict(args, report)
    if prop in PROPERTIES:
        result = search(prop, _bounds(args))
        report = result.to_json()
        return _print_verdict(args, report, ok=result.ok)
    raise UnknownProperty(prop, ("continuity", "openness", "initiality", "trivial-literal") + tuple(PROPERTIES))


def _print_verdict(args, report: dict, ok: bool | None = None) -> int:
    if ok is None:
        ok = report.get("status") == "ok"
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        status = report.get("status")
        print(f"{report.get('property', 'check')}: {status}")
        witness = report.get("witness")
        if witness:
            if isinstance(witness, dict) and set(witness) == {"property", "case", "witness"}:
                witness = witness["witness"]  # show the violation, not the whole bundle
            print(f"witness: {json.dumps(witness, sort_keys=True)}")
        if report.get("note"):
            print(report["note"])
    return 0 if ok else 1


# ------------------------------------------------------------------- search

def cmd_search(args) -> int:
    result = search(args.prop, _bounds(args), out=args.out)
    if args.json:
        print(json.dumps(result.to_json(), sort_keys=True))
    else:
        print(f"{result.prop}: {result.status} after {result.instances} instances")
        if result.bundle is not None:
            print(f"witness: {json.dumps(result.bundle['witness'], sort_keys=True)}")
            if args.out:
                print(f"bundle written to {args.out}")
    return 0 if result.ok else 1


def cmd_replay(args) -> int:
    bundle = fio.load_json(args.path)
    result = replay(bundle, Path(args.path).parent)
    if args.json:
        print(json.dumps(result.to_json(), sort_keys=True))
    else:
        print(f"{result.prop}: {result.status}")
    return 0 if result.ok else 1


# ----------------------------------------------------------------- examples

def _example1_report() -> dict:
    grid = (0.0, 0.5, 1.0)
    crisp_agreements = 0
    crisp_checked = 0
    mismatch = None
    for n_points in (1, 2, 3):
        points = tuple(f"q{i + 1}" for i in range(n_points))
        for space in all_topologies(points):
            for mask in range(1 << n_points):
                subset = frozenset(points[i] for i in range(n_points) if mask >> i & 1)
                crisp = tuple(1.0 if p in subset else 0.0 for p in points)
                via_lsc = lsc_interior(space, crisp, grid)
                classical = classical_interior(space, subset)
                as_set = frozenset(p for p, v in zip(points, via_lsc) if v == 1.0)
                crisp_checked += 1
                if as_set == classical and all(v in (0.0, 1.0) for v in via_lsc):
                    crisp_agreements += 1
                elif mismatch is None:
                    mismatch = {"points": list(points), "subset": sorted(subset)}
    sierpinski = validate_topology(("p", "q"), [(), ("p",), ("p", "q")])
    s_interior = lsc_interior(sierpinski, {"p": 0.0, "q": 1.0}, grid)
    ij = check_ij_continuity_claims(sierpinski, ("t1", "t2"), grid)
    indiscrete = validate_topology(("p", "q"), [(), ("p", "q")])
    ij_indiscrete = check_ij_continuity_claims(indiscrete, ("t1", "t2"), grid)
    return {
        "crisp_checked": crisp_checked,
        "crisp_agreements": crisp_agreements,
        "crisp_matches_classical": mismatch is None,
        "first_mismatch": mismatch,
        "sierpinski_interior_of_(0,1)": list(s_interior),
        "into_compact_all_maps_continuous": ij["ij_all_maps_continuous"],
        "from_compact_nonconstant_findings": {
            "sierpinski": ij["ji_nonconstant_witnesses"],
            "indiscrete": ij_indiscrete["ji_nonconstant_witnesses"],
        },
    }


def _example2_report() -> dict:
    grid = tuple(i / 100 for i in range(101))
    return example2_idempotency_scan(8, grid)


def _example3_report() -> dict:
    m = builtin_chain("godel", 3)
    ground = Ground(points=("p1",), algebra=m)
    from .interior import ltopology

    topo = ltopology(ground, [(m.lattice.bottom,), (m.lattice.top,)])
    return example3_roundtrip(topo)


def cmd_examples(args) -> int:
    reports = {}
    if args.which in ("1", "all"):
        reports["example1"] = _example1_report()
    if args.which in ("2", "all"):
        reports["example2"] = _example2_report()
    if args.which in ("3", "all"):
        reports["example3"] = _example3_report()
    ok = True
    if "example1" in reports:
        ok = ok and reports["example1"]["crisp_matches_classical"]
    if "example2" in reports:
        ok = ok and reports["example2"]["idempotent_exponents"] == [1, "inf"]
        ok = ok and reports["example2"]["axioms_ok"]
    if "example3" in reports:
        ok = ok and reports["example3"]["closures"]["extensional"]["extensive"]
    if args.out:
        for name, report in reports.items():
            fio.save_json(os.path.join(args.out, f"{name}.json"), report, parents=True)
    if args.json:
        print(json.dumps(reports, sort_keys=True))
    else:
        for name, report in sorted(reports.items()):
            summary = {
                "example1": lambda r: f"crisp agreement {r['crisp_agreements']}/{r['crisp_checked']}",
                "example2": lambda r: f"idempotent exponents {r['idempotent_exponents']}",
                "example3": lambda r: "extensional closure extensive: "
                + str(r["closures"]["extensional"]["extensive"]),
            }[name](report)
            print(f"{name}: {summary}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
