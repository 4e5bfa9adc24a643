import tracemalloc
from fractions import Fraction

import pytest

from fuzzint.errors import (
    CarrierTooLarge,
    DistributivityViolation,
    NoZero,
    NotCommutative,
    NotDivisible,
    NotIntegral,
    NotIsotone,
    NotJoinDistributive,
    TopNotIdempotent,
)
from fuzzint.lattice import chain_lattice, diamond_lattice, pentagon_lattice
from fuzzint.monoid import (
    builtin_chain,
    godel_tensor,
    join_tensor,
    pointwise_power,
    residuum,
    validate_cqml,
    validate_gl,
)

C3 = ["0", "1/2", "1"]
DIAMOND = ("bot", "a", "b", "top")


def diamond_orthogonal_tensor() -> dict:
    """Top is the unit and every product of two elements below top is
    bot: isotone, commutative, associative, unital and zero at bot, but
    a (x) (a v b) = a while (a (x) a) v (a (x) b) = bot."""
    return {(x, y): y if x == "top" else x if y == "top" else "bot" for x in DIAMOND for y in DIAMOND}


def tensor_table(names, fn):
    return {(a, b): fn(a, b) for a in names for b in names}


def test_min_tensor_is_valid_cqml():
    lat = chain_lattice(C3)
    cq = validate_cqml(lat, tensor_table(C3, lambda a, b: min(a, b, key=C3.index)))
    assert cq.tensor_names("1/2", "1") == "1/2"


def test_constant_top_tensor_is_valid_cqml():
    lat = chain_lattice(C3)
    cq = validate_cqml(lat, tensor_table(C3, lambda a, b: "1"))
    assert cq.tensor_names("0", "0") == "1"


def test_non_isotone_tensor_rejected():
    lat = chain_lattice(C3)
    table = tensor_table(C3, lambda a, b: min(a, b, key=C3.index))
    table[("1/2", "1")] = "1"
    table[("1", "1")] = "1/2"
    with pytest.raises(NotIsotone):
        validate_cqml(lat, table)


def test_top_not_idempotent_rejected():
    lat = chain_lattice(["0", "1"])
    table = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "0", ("1", "1"): "0"}
    with pytest.raises(TopNotIdempotent):
        validate_cqml(lat, table)


def test_godel_chain_is_gl(godel3):
    assert godel3.lattice.elements == ("0", "1/2", "1")
    assert godel3.tensor_names("1/2", "1/2") == "1/2"


def test_lukasiewicz_chain_is_gl(luk3):
    assert luk3.tensor_names("1/2", "1/2") == "0"


def test_diamond_meet_tensor_is_divisible(diamond_gl):
    # alpha <= beta gives gamma = alpha with beta ^ alpha = alpha
    lat = diamond_gl.lattice
    a, top = lat.index("a"), lat.top
    assert diamond_gl.tensor[top][a] == a


def test_join_tensor_not_integral():
    with pytest.raises(NotIntegral):
        validate_gl(join_tensor(diamond_lattice()))


def test_pentagon_rejected_as_gl():
    with pytest.raises(DistributivityViolation):
        validate_gl(godel_tensor(pentagon_lattice()))


def test_gl_rejects_bad_axioms():
    lat = chain_lattice(["0", "1"])
    # non-commutative: 0 (x) 1 = 1 but 1 (x) 0 = 0; isotone fails first
    table = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "1", ("1", "1"): "1"}
    cq = validate_cqml(lat, {k: v for k, v in table.items()})
    # projection tensor is isotone with idempotent top but not commutative
    with pytest.raises(NotCommutative):
        validate_gl(cq)


def test_binary_join_witnesses_non_join_distributive_tensor():
    cq = validate_cqml(diamond_lattice(), diamond_orthogonal_tensor())
    with pytest.raises(NotJoinDistributive) as raised:
        validate_gl(cq)
    assert raised.value.witness == ("a", ("a", "b"))


def test_no_zero_detected():
    lat = chain_lattice(["0", "1"])
    cq = validate_cqml(lat, tensor_table(["0", "1"], lambda a, b: "1"))
    with pytest.raises((NoZero, NotIntegral)):
        validate_gl(cq)


def test_residuum_examples(godel3, luk3):
    assert residuum(godel3, "1", "1/2") == "1/2"
    assert residuum(luk3, "1/2", "0") == "1/2"
    # alpha <= beta forces top
    for m in (godel3, luk3):
        assert residuum(m, "0", "1/2") == "1"
        assert residuum(m, "1/2", "1") == "1"


def test_residuation_law_all_triples(godel3, luk3, diamond_gl):
    for m in (godel3, luk3, diamond_gl):
        lat = m.lattice
        for a in range(len(lat)):
            for b in range(len(lat)):
                for c in range(len(lat)):
                    assert lat.leq[m.tensor[a][b]][c] == lat.leq[a][m.residuum[b][c]]


def test_godel_residuum_closed_form_up_to_11():
    for n in range(2, 12):
        m = builtin_chain("godel", n)
        lat = m.lattice
        for a in range(len(lat)):
            for b in range(len(lat)):
                expected = lat.top if lat.leq[a][b] else b
                assert m.residuum[a][b] == expected


def test_builtin_chain_small_cases():
    two = builtin_chain("godel", 2)
    assert two.lattice.elements == ("0", "1")
    assert two.tensor_names("1", "1") == "1"
    luk = builtin_chain("lukasiewicz", 3)
    assert luk.tensor_names("1/2", "1/2") == "0"
    five = builtin_chain("godel", 5)
    assert len(five.lattice) == 5
    assert five.lattice.elements == tuple(str(Fraction(i, 4)) for i in range(5))


def test_builtin_chain_rejects_short():
    with pytest.raises(ValueError):
        builtin_chain("godel", 1)
    with pytest.raises(ValueError):
        builtin_chain("unknown", 3)


def test_pointwise_power_keeps_gl_axioms(godel3, luk3, c2):
    # lifting pointwise to L^X preserves every GL axiom (|X| <= 2, |L| <= 3)
    for m in (c2, godel3, luk3):
        for k in (1, 2):
            lifted = pointwise_power(m, k)
            assert len(lifted.lattice) == len(m.lattice) ** k
            assert type(lifted).__name__ == "GLMonoid"


def test_every_comparable_pair_divides(godel3, luk3, diamond_gl):
    # a <= b has a gamma with a = b (x) gamma
    for m in (godel3, luk3, diamond_gl):
        lat = m.lattice
        n = len(lat)
        for a in range(n):
            for b in range(n):
                if lat.leq[a][b]:
                    assert any(m.tensor[b][g] == a for g in range(n))


def test_not_divisible_witness():
    # the drastic tensor on a 4-chain: products without the unit collapse
    # to bottom, so nothing strictly between the bounds divides anything
    names = ["0", "a", "b", "1"]
    lat = chain_lattice(names)

    def drastic(p, q):
        if "1" in (p, q):
            return p if q == "1" else q
        return "0"

    cq = validate_cqml(lat, tensor_table(names, drastic))
    with pytest.raises(NotDivisible) as err:
        validate_gl(cq)
    assert err.value.witness == ("a", "b")


def test_lukasiewicz_four_chain_divisible():
    names = ["0", "a", "b", "1"]
    lat = chain_lattice(names)

    def luk(p, q):
        return names[max(0, names.index(p) + names.index(q) - 3)]

    m = validate_gl(validate_cqml(lat, tensor_table(names, luk)))
    assert m.residuum


@pytest.mark.parametrize(
    "build",
    [
        lambda: builtin_chain("godel", 2000),
        lambda: builtin_chain("lukasiewicz", 2000),
        lambda: chain_lattice(str(i) for i in range(2000)),
    ],
    ids=["godel", "lukasiewicz", "chain_lattice"],
)
def test_a_chain_above_the_carrier_limit_is_refused_before_it_is_built(build):
    # 2,000 names and their 2,001,000 order pairs would cost about 130 MB
    tracemalloc.start()
    try:
        with pytest.raises(CarrierTooLarge, match="^carrier size 2000 exceeds the configured limit 64$"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
