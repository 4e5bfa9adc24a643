from itertools import combinations

import pytest

from conftest import frame_law_subset_witness, naive_glb, naive_lub
from fuzzint.errors import (
    CarrierTooLarge,
    MissingBound,
    NotAPartialOrder,
    TopEqualsBottom,
    UnknownElement,
)
from fuzzint.lattice import chain_lattice, diamond_lattice, pentagon_lattice, validate_lattice


def test_two_chain_valid():
    lat = chain_lattice(["0", "1"])
    assert lat.name(lat.top) == "1"
    assert lat.name(lat.bottom) == "0"
    assert lat.distributive


def test_pentagon_flags_distributivity_witness():
    lat = pentagon_lattice()
    assert not lat.distributive
    a, b, c = (lat.index(x) for x in lat.distributivity_witness)
    lhs = lat.meet2[lat.join2[a][b]][c]
    rhs = lat.join2[lat.meet2[a][c]][lat.meet2[b][c]]
    assert lhs != rhs
    # the classic violation: (b v a) ^ c = c while (b ^ c) v (a ^ c) = a
    i_a, i_b, i_c = lat.index("a"), lat.index("b"), lat.index("c")
    assert lat.meet2[lat.join2[i_b][i_a]][i_c] == i_c
    assert lat.join2[lat.meet2[i_b][i_c]][lat.meet2[i_a][i_c]] == i_a


def test_diamond_valid_and_distributive():
    lat = diamond_lattice()
    assert lat.distributive
    assert lat.distributivity_witness is None


def test_empty_join_and_meet():
    c3 = chain_lattice(["0", "1/2", "1"])
    assert c3.join([]) == "0"
    assert c3.meet([]) == "1"


def test_join_of_incomparable_pair_is_top():
    lat = diamond_lattice()
    assert lat.join(["a", "b"]) == "top"
    assert lat.meet(["a", "b"]) == "bot"


def test_unknown_element():
    c3 = chain_lattice(["0", "1/2", "1"])
    with pytest.raises(UnknownElement):
        c3.join(["0", "missing"])


def test_not_a_partial_order_cycle():
    with pytest.raises(NotAPartialOrder):
        validate_lattice(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])


def test_missing_reflexivity_without_closure():
    with pytest.raises(NotAPartialOrder):
        validate_lattice(["a", "b"], [("a", "b")])


def test_missing_bound():
    # two maximal elements: no least upper bound
    pairs = [("a", "a"), ("b", "b"), ("bot", "bot"), ("bot", "a"), ("bot", "b")]
    with pytest.raises(MissingBound):
        validate_lattice(["bot", "a", "b"], pairs)


def test_top_equals_bottom():
    with pytest.raises(TopEqualsBottom):
        validate_lattice(["x"], [("x", "x")])


def test_carrier_too_large():
    names = [f"e{i}" for i in range(65)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    with pytest.raises(CarrierTooLarge):
        validate_lattice(names, pairs)


def test_closure_option_builds_from_covers():
    lat = validate_lattice(["0", "a", "1"], [("0", "a"), ("a", "1")], closure=True)
    assert lat.leq_names("0", "1")
    assert lat.name(lat.top) == "1"


def test_join_meet_against_naive_oracle(lattice_zoo):
    for lat in lattice_zoo.values():
        n = len(lat)
        for size in range(min(n, 3) + 1):
            for subset in combinations(range(n), size):
                expected_join = naive_lub(lat, subset)
                expected_meet = naive_glb(lat, subset)
                assert lat.join_i(subset) == expected_join
                assert lat.meet_i(subset) == expected_meet


def test_binary_tables_match_subset_join(lattice_zoo):
    for lat in lattice_zoo.values():
        for a in range(len(lat)):
            for b in range(len(lat)):
                assert lat.join_i([a, b]) == lat.join2[a][b]
                assert lat.meet_i([a, b]) == lat.meet2[a][b]


def test_lattice_equations_on_zoo(lattice_zoo):
    """Idempotency, commutativity, associativity and absorption."""
    for lat in lattice_zoo.values():
        n = len(lat)
        for a in range(n):
            assert lat.join2[a][a] == a
            assert lat.meet2[a][a] == a
            for b in range(n):
                assert lat.join2[a][b] == lat.join2[b][a]
                assert lat.meet2[a][b] == lat.meet2[b][a]
                assert lat.join2[a][lat.meet2[a][b]] == a
                assert lat.meet2[a][lat.join2[a][b]] == a
                for c in range(n):
                    assert lat.join2[lat.join2[a][b]][c] == lat.join2[a][lat.join2[b][c]]
                    assert lat.meet2[lat.meet2[a][b]][c] == lat.meet2[a][lat.meet2[b][c]]


def test_frame_law_triple_scan_agrees_with_subset_oracle(lattice_zoo):
    for name, lat in lattice_zoo.items():
        if len(lat) > 5:
            continue
        triple = lat.distributivity_witness
        subset = frame_law_subset_witness(lat)
        assert (triple is None) == (subset is None), name


def test_bounds_ordering(lattice_zoo):
    for lat in lattice_zoo.values():
        for i in range(len(lat)):
            assert lat.leq[lat.bottom][i]
            assert lat.leq[i][lat.top]
        assert lat.top != lat.bottom
