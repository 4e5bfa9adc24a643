import math
from itertools import product

import pytest

from conftest import all_value_tuples
from fuzzint.errors import EmptyCarrier, InvalidTopology
from fuzzint.gallery import (
    FLOAT_TOLERANCE,
    all_topologies,
    check_ij_continuity_claims,
    classical_interior,
    compact_min_interior,
    example2_idempotency_scan,
    example3_roundtrip,
    is_lower_semicontinuous,
    lsc_interior,
    power_interior,
    validate_topology,
)
from fuzzint.interior import ltopology
from fuzzint.powerset import Ground

GRID = (0.0, 0.5, 1.0)


# -- finite topologies ---------------------------------------------------------

def test_validate_topology_accepts_sierpinski():
    t = validate_topology(("p", "q"), [(), ("p",), ("p", "q")])
    assert frozenset({"p"}) in t.opens


def test_validate_topology_rejects_missing_union():
    with pytest.raises(InvalidTopology):
        validate_topology(
            ("a", "b", "c"),
            [(), ("a",), ("b",), ("a", "b", "c")],  # missing {a, b}
        )


def test_all_topologies_counts():
    # labeled topologies: 1 on one point, 4 on two, 29 on three
    assert sum(1 for _ in all_topologies(("p",))) == 1
    assert sum(1 for _ in all_topologies(("p", "q"))) == 4
    assert sum(1 for _ in all_topologies(("p", "q", "r"))) == 29


def test_classical_interior_matches_definition():
    t = validate_topology(("p", "q"), [(), ("p",), ("p", "q")])
    assert classical_interior(t, {"q"}) == frozenset()
    assert classical_interior(t, {"p", "q"}) == frozenset({"p", "q"})
    assert classical_interior(t, {"p"}) == frozenset({"p"})


# -- lower semicontinuous interior -----------------------------------------------

def test_lsc_constant_one_fixed():
    t = validate_topology(("p", "q"), [(), ("p",), ("p", "q")])
    assert lsc_interior(t, (1.0, 1.0), GRID) == (1.0, 1.0)


def test_lsc_discrete_topology_is_identity():
    points = ("p", "q")
    opens = [(), ("p",), ("q",), ("p", "q")]
    t = validate_topology(points, opens)
    for u in product(GRID, repeat=2):
        assert lsc_interior(t, u, GRID) == u


def test_lsc_sierpinski_example():
    t = validate_topology(("p", "q"), [(), ("p",), ("p", "q")])
    assert lsc_interior(t, {"p": 0.0, "q": 1.0}, GRID) == (0.0, 0.0)


def test_lsc_equals_brute_force_maximum():
    """Oracle: maximize pointwise over all grid-valued lsc minorants."""
    for points in (("p",), ("p", "q")):
        for space in all_topologies(points):
            for u in product(GRID, repeat=len(points)):
                best = [0.0] * len(points)
                for cand in product(GRID, repeat=len(points)):
                    if all(c <= x for c, x in zip(cand, u)) and is_lower_semicontinuous(
                        space, cand
                    ):
                        best = [max(b, c) for b, c in zip(best, cand)]
                assert lsc_interior(space, u, GRID) == tuple(best)


def test_lsc_crisp_agreement_with_classical_interior():
    for n in (1, 2, 3):
        points = tuple(f"q{i}" for i in range(n))
        for space in all_topologies(points):
            for mask in range(1 << n):
                subset = frozenset(points[i] for i in range(n) if mask >> i & 1)
                crisp = tuple(1.0 if p in subset else 0.0 for p in points)
                result = lsc_interior(space, crisp, GRID)
                assert all(v in (0.0, 1.0) for v in result)
                as_set = frozenset(p for p, v in zip(points, result) if v == 1.0)
                assert as_set == classical_interior(space, subset)


def test_lsc_satisfies_interior_axioms():
    for points in (("p",), ("p", "q")):
        for space in all_topologies(points):
            sets = list(product(GRID, repeat=len(points)))
            images = {u: lsc_interior(space, u, GRID) for u in sets}
            for u in sets:
                assert all(i <= x for i, x in zip(images[u], u))
                for v in sets:
                    if all(a <= b for a, b in zip(u, v)):
                        assert all(a <= b for a, b in zip(images[u], images[v]))
            assert images[tuple([1.0] * len(points))] == tuple([1.0] * len(points))


# -- compact minimum interior ------------------------------------------------------

def test_compact_min_constant_input():
    assert compact_min_interior((0.4, 0.4)) == (0.4, 0.4)


def test_compact_min_example():
    assert compact_min_interior((0.2, 0.7)) == (0.2, 0.2)


def test_compact_min_top():
    assert compact_min_interior((1.0, 1.0, 1.0)) == (1.0, 1.0, 1.0)


def test_compact_min_empty_carrier():
    with pytest.raises(EmptyCarrier):
        compact_min_interior(())


def test_compact_min_satisfies_interior_axioms():
    sets = list(product(GRID, repeat=2))
    for v in sets:
        iv = compact_min_interior(v)
        assert all(a <= b for a, b in zip(iv, v))
        for w in sets:
            if all(a <= b for a, b in zip(v, w)):
                assert all(
                    a <= b
                    for a, b in zip(iv, compact_min_interior(w))
                )
    assert compact_min_interior((1.0, 1.0)) == (1.0, 1.0)


# -- the two-family continuity claims ------------------------------------------------

def test_every_map_into_compact_target_passes():
    for points in (("p",), ("p", "q")):
        for space in all_topologies(points):
            report = check_ij_continuity_claims(space, ("t1", "t2"), GRID)
            assert report["ij_all_maps_continuous"]


def test_indiscrete_target_admits_nonconstant_reverse_maps():
    # with the indiscrete topology the semicontinuous interior collapses to
    # the constant minimum, so even non-constant maps pass the reverse
    # direction; the suite reports them as findings
    space = validate_topology(("p", "q"), [(), ("p", "q")])
    report = check_ij_continuity_claims(space, ("t1", "t2"), GRID)
    assert report["ji_nonconstant_witnesses"]


def test_discrete_target_only_constants_reverse():
    space = validate_topology(("p", "q"), [(), ("p",), ("q",), ("p", "q")])
    report = check_ij_continuity_claims(space, ("t1", "t2"), GRID)
    assert report["ji_nonconstant_witnesses"] == []
    assert report["ji_continuous_maps"]  # the constants


# -- power family --------------------------------------------------------------------

def test_power_interior_values():
    assert power_interior(2, 0.5) == 0.25
    assert power_interior(1, 0.73) == 0.73
    assert power_interior(math.inf, 0.999) == 0.0
    assert power_interior(math.inf, 1.0) == 1.0


def test_power_square_not_idempotent():
    t = 0.5
    assert abs(power_interior(2, power_interior(2, t)) - 0.0625) < FLOAT_TOLERANCE
    assert power_interior(2, t) == 0.25


def test_power_contraction_on_grid():
    grid = [i / 20 for i in range(21)]
    for n in (1, 2, 3, 8):
        for t in grid:
            assert power_interior(n, t) <= t + FLOAT_TOLERANCE


def test_idempotency_scan_identifies_one_and_infinity():
    grid = tuple(i / 100 for i in range(101))
    report = example2_idempotency_scan(8, grid)
    assert report["idempotent_exponents"] == [1, "inf"]
    assert report["axioms_ok"]


# -- interior/closure round trip -------------------------------------------------------

def test_example3_roundtrip_tables(godel3):
    ground = Ground(("p1",), godel3)
    tau = ltopology(ground, [(0,), (2,)])
    report = example3_roundtrip(tau)
    assert report["interior"] == {"0": "0", "1/2": "0", "1": "1"}
    ext = report["closures"]["extensional"]
    assert ext["extensive"]
    assert ext["table"]["0"] == "0"
    assert ext["table"]["1"] == "1"
    lit = report["closures"]["literal"]
    assert not lit["extensive"]


def test_example3_full_powerset_topology_is_identity(godel3):
    ground = Ground(("p1",), godel3)
    tau = ltopology(ground, list(all_value_tuples(ground)))
    report = example3_roundtrip(tau)
    assert all(k == v for k, v in report["interior"].items())
