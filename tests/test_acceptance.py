"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Bounds note: the cross-product suites (initiality, preservation,
composition) combine, per ground, the deterministic interior-map sample
described in SearchBounds (least + discrete + an even stride, 4 per ground
by default) because the full 400-map family on the two-point 3-chain ground
squares into an infeasible case count; every other axis (grounds,
morphisms, fuzzy sets, test objects) is exhaustive within the stated
bounds, and the operator-lattice suite itself enumerates all 400 maps.
"""

import time
from itertools import product

from fuzzint.interior import check_interior_axioms, discrete, least, literal_trivial, ltopology
from fuzzint.gallery import (
    all_topologies,
    classical_interior,
    example2_idempotency_scan,
    example3_roundtrip,
    lsc_interior,
)
from fuzzint.monoid import builtin_chain
from fuzzint.powerset import (
    Ground,
    PointMap,
    all_morphisms,
    classical_image,
    classical_preimage,
    powerset,
    vb_backward,
    vb_forward,
    vb_right_adjoint,
    verify_adjunction,
    verify_powerset_adjunction,
    zadeh_backward,
    zadeh_forward,
)
from fuzzint.search import (
    SearchBounds,
    builtin_algebra,
    count_interior_maps,
    enumerate_interior_maps,
    search,
)

from test_cli import GOLDEN, GOLDEN_CASES, resolve, run_cli
from test_search import naive_interior_maps


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_gl_chain_validation():
    start = time.monotonic()
    for n in range(2, 12):
        for kind in ("godel", "lukasiewicz"):
            m = builtin_chain(kind, n)  # validate_gl checks every axiom
            lat = m.lattice
            for a in range(len(lat)):
                for b in range(len(lat)):
                    for c in range(len(lat)):
                        assert lat.leq[m.tensor[a][b]][c] == lat.leq[a][m.residuum[b][c]]
    elapsed = time.monotonic() - start
    report(
        1,
        elapsed < 5.0,
        f"godel+lukasiewicz chains n=2..11 pass all axioms and the "
        f"residuation law on every triple in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_adjunction_suite():
    start = time.monotonic()
    algebras = [builtin_algebra(n) for n in ("c2", "godel3", "lukasiewicz3")]
    checked = 0

    # classical image/preimage adjunction over crisp subsets
    for nx, ny in product((1, 2), repeat=2):
        X = [f"x{i}" for i in range(nx)]
        Y = [f"y{i}" for i in range(ny)]
        for table in product(range(ny), repeat=nx):
            f = PointMap(tuple(X), tuple(Y), table)
            verdict = verify_adjunction(
                lambda A: classical_image(f, A),
                lambda B: classical_preimage(f, B),
                (frozenset(s) for s in powerset(X)),
                (frozenset(s) for s in powerset(Y)),
                lambda a, b: a <= b,
                lambda a, b: a <= b,
            )
            assert verdict.ok, verdict.witness
            checked += verdict.checked

    # fuzzy image/preimage adjunction, one algebra both sides
    for algebra in algebras:
        for nx, ny in product((1, 2), repeat=2):
            X = Ground(tuple(f"x{i}" for i in range(nx)), algebra)
            Y = Ground(tuple(f"y{i}" for i in range(ny)), algebra)
            for table in product(range(ny), repeat=nx):
                f = PointMap(X.points, Y.points, table)
                verdict = verify_powerset_adjunction(
                    lambda a: zadeh_forward(f, a), lambda b: zadeh_backward(f, b), X, Y
                )
                assert verdict.ok, verdict.witness
                checked += verdict.checked

    # variable-basis adjunction and the derived right adjoint of backward
    for l_alg, m_alg in product(algebras, repeat=2):
        for nx, ny in product((1, 2), repeat=2):
            X = Ground(tuple(f"x{i}" for i in range(nx)), l_alg)
            Y = Ground(tuple(f"y{i}" for i in range(ny)), m_alg)
            for g in all_morphisms(X, Y):
                forward = verify_powerset_adjunction(
                    lambda a: vb_forward(g, a), lambda b: vb_backward(g, b), X, Y
                )
                assert forward.ok, forward.witness
                backward = verify_powerset_adjunction(
                    lambda v: vb_backward(g, v), lambda u: vb_right_adjoint(g, u), Y, X
                )
                assert backward.ok, backward.witness
                checked += forward.checked + backward.checked

    elapsed = time.monotonic() - start
    report(
        2,
        elapsed < 60.0,
        f"classical, fuzzy and variable-basis adjunctions plus the right "
        f"adjoint of backward verified on {checked} instance pairs with "
        f"zero witnesses in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_3_operator_lattice():
    result = search("operator-lattice-closure", SearchBounds())
    assert result.ok, result.bundle

    counts = {}
    c2, godel3 = builtin_algebra("c2"), builtin_algebra("godel3")
    for points, algebra, label in (
        (("p1",), c2, "one-point/2-chain"),
        (("p1",), godel3, "one-point/3-chain"),
        (("p1", "p2"), c2, "two-point/2-chain"),
    ):
        ground = Ground(points, algebra)
        counts[label] = count_interior_maps(ground)
        oracle = naive_interior_maps(ground)
        assert counts[label] == len(oracle), label

    expected = {
        "one-point/2-chain": 1,
        "one-point/3-chain": 2,
        "two-point/2-chain": 4,
    }
    bounds_ok = True
    for ground in (
        Ground(("p1",), c2),
        Ground(("p1",), godel3),
        Ground(("p1", "p2"), c2),
        Ground(("p1", "p2"), godel3),
    ):
        maps = list(enumerate_interior_maps(ground))
        d, l = discrete(ground), least(ground)
        for imap in maps:
            for u in ground.all_value_tuples():
                bounds_ok &= ground.leq_values(imap.apply_values(u), d.apply_values(u))
                bounds_ok &= ground.leq_values(l.apply_values(u), imap.apply_values(u))

    report(
        3,
        counts == expected and bounds_ok,
        f"join/meet closure over {result.instances} subset cases, discrete "
        f"maximal and corrected-least minimal; enumeration counts {counts} "
        f"match the generate-and-filter oracle (note: the two-point/2-chain "
        f"count is 4 by both independent enumerators, not the sometimes "
        f"quoted 6)",
    )


def test_criterion_4_trivial_operator_regression():
    godel3 = builtin_algebra("godel3")
    ground = Ground(("p1",), godel3)
    literal = check_interior_axioms(literal_trivial(ground))
    corrected = check_interior_axioms(least(ground))
    below = all(
        ground.leq_values(least(ground).apply_values(u), imap.apply_values(u))
        for imap in enumerate_interior_maps(ground)
        for u in ground.all_value_tuples()
    )
    ok = (
        not literal.ok
        and literal.witness["axiom"] == "I1"
        and literal.witness["u"] == {"p1": "1/2"}
        and corrected.ok
        and below
    )
    report(
        4,
        ok,
        "the literal trivial operator fails contraction at u=1/2 on the "
        "3-chain; the corrected least operator passes and sits below every "
        "enumerated interior map",
    )


def test_criterion_5_initiality_suite():
    bounds = SearchBounds()
    result = search("initiality", bounds)
    interchange = search("meet-interchange", bounds)
    log = (
        "no meet-interchange failures within bounds"
        if interchange.ok
        else f"meet-interchange failures logged: {interchange.bundle['witness']}"
    )
    report(
        5,
        result.ok,
        f"every structured source within bounds ({result.instances} sources, "
        f"up to 2 arms) yields a lift passing the axioms, keeping every arm "
        f"continuous, and satisfying the universal property; {log}",
    )


def test_criterion_6_preservation_suite():
    idem = search("preservation-idempotent", SearchBounds())
    prod = search("preservation-fully-productive", SearchBounds())
    report(
        6,
        idem.ok and prod.ok,
        f"idempotency ({idem.instances} instances) and full productivity "
        f"({prod.instances} instances) transfer to initial operators with "
        f"zero witnesses",
    )


def test_criterion_7_composition_closure():
    cont = search("composition-continuous", SearchBounds())
    op = search("composition-open", SearchBounds())
    pre = search("open-preimage", SearchBounds())
    report(
        7,
        cont.ok and op.ok and pre.ok,
        f"composites of continuous ({cont.instances}) and open "
        f"({op.instances}) morphism pairs stay continuous/open; preimages of "
        f"open sets under continuous morphisms stay open ({pre.instances}); "
        f"zero witnesses",
    )


def test_criterion_8_examples():
    # power family scan
    grid = tuple(i / 100 for i in range(101))
    scan = example2_idempotency_scan(8, grid)
    scan_ok = scan["idempotent_exponents"] == [1, "inf"] and scan["axioms_ok"]

    # semicontinuous interior against the classical interior on crisp inputs
    crisp_ok = True
    lsc_grid = (0.0, 0.5, 1.0)
    for n in (1, 2, 3):
        points = tuple(f"q{i}" for i in range(n))
        for space in all_topologies(points):
            for mask in range(1 << n):
                subset = frozenset(points[i] for i in range(n) if mask >> i & 1)
                crisp = tuple(1.0 if p in subset else 0.0 for p in points)
                result = lsc_interior(space, crisp, lsc_grid)
                as_set = frozenset(p for p, v in zip(points, result) if v == 1.0)
                crisp_ok &= all(v in (0.0, 1.0) for v in result)
                crisp_ok &= as_set == classical_interior(space, subset)

    # interior/closure round trip over the 3-chain
    godel3 = builtin_algebra("godel3")
    ground = Ground(("p1",), godel3)
    tau = ltopology(ground, [(0,), (2,)])
    roundtrip = example3_roundtrip(godel3, tau)
    table_ok = roundtrip["interior"] == {"0": "0", "1/2": "0", "1": "1"}

    extensive_ok = True
    for algebra in (godel3, builtin_algebra("lukasiewicz3")):
        for nx in (1, 2):
            g = Ground(tuple(f"p{i+1}" for i in range(nx)), algebra)
            tuples = list(g.all_value_tuples())
            top = tuples[-1]
            for family in powerset(tuples):
                t = ltopology(g, set(family) | {top})
                from fuzzint.interior import closure_from_topology

                for u, cu in closure_from_topology(t, algebra, "extensional").items():
                    extensive_ok &= u.leq(cu)

    report(
        8,
        scan_ok and crisp_ok and table_ok and extensive_ok,
        "power-family scan finds exactly exponents {1, inf} idempotent at "
        "1e-12; semicontinuous interior matches the classical interior on "
        "all crisp inputs over <=3 points; the 3-chain two-open topology "
        "yields interior (0,1/2,1) -> (0,0,1); extensional closures are "
        "extensive on every enumerated instance",
    )


def test_criterion_9_cli_determinism():
    ok = True
    for name, (expected_code, argv) in sorted(GOLDEN_CASES.items()):
        code1, out1 = run_cli(*resolve(argv))
        code2, out2 = run_cli(*resolve(argv))
        golden = (GOLDEN / name).read_text()
        ok &= code1 == code2 == expected_code
        ok &= out1 == out2 == golden
    report(
        9,
        ok,
        f"{len(GOLDEN_CASES)} golden CLI invocations byte-identical across "
        f"runs with the contracted exit codes",
    )
