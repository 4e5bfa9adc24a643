from itertools import product

import pytest

from conftest import (
    all_value_tuples,
    join_values,
    naive_backward,
    naive_right_adjoint,
    naive_vb_forward,
    on_values,
    verify_powerset_adjunction,
)
from fuzzint.errors import (
    CarrierMismatch,
    JoinNotPreserved,
    TensorNotPreserved,
    TopNotPreserved,
    UnknownElement,
)
from fuzzint.powerset import (
    Ground,
    GroundMorphism,
    all_morphisms,
    all_phi_ops,
    identity_morphism,
    validate_ground_morphism,
)
from fuzzint.search import builtin_algebra


def point_morphism(X, Y, table):
    """The point map ``table`` with the identity phi_op: the classical
    image and preimage on c2, the Zadeh ones on any other algebra."""
    return GroundMorphism(dom=X, cod=Y, f=tuple(table), phi_op=tuple(range(len(X.lattice))))


def make_ground(algebra, n, prefix):
    return Ground(tuple(f"{prefix}{i}" for i in range(n)), algebra)


def forward_of(g, u):
    return on_values(g.forward, g.dom, g.cod)(u)


def backward_of(g, v):
    return on_values(g.backward, g.cod, g.dom)(v)


def right_adjoint_of(g, u):
    return on_values(g.right_adjoint, g.dom, g.cod)(u)


def forward_adjunction(g):
    """The first pair breaking forward -| backward, or None."""
    return verify_powerset_adjunction(lambda u: forward_of(g, u), lambda v: backward_of(g, v), g.dom, g.cod)


def right_adjunction(g):
    """The first pair breaking backward -| right_adjoint, or None."""
    return verify_powerset_adjunction(lambda v: backward_of(g, v), lambda u: right_adjoint_of(g, u), g.cod, g.dom)


# -- classical operators: the identity phi_op on c2 ------------------------------

def crisp(ground, u) -> set:
    return {x for x, v in zip(ground.points, u) if v == ground.lattice.top}


def test_classical_image_constant_map(c2):
    g = point_morphism(make_ground(c2, 2, "x"), make_ground(c2, 2, "y"), (0, 0))
    assert crisp(g.cod, forward_of(g, (1, 1))) == {"y0"}


def test_classical_preimage_empty(c2):
    g = point_morphism(make_ground(c2, 1, "x"), make_ground(c2, 1, "y"), (0,))
    assert crisp(g.dom, backward_of(g, (0,))) == set()


def test_classical_preimage_misses_unhit_target(c2):
    g = point_morphism(make_ground(c2, 2, "x"), make_ground(c2, 2, "y"), (0, 0))
    assert crisp(g.dom, backward_of(g, (0, 1))) == set()


def test_classical_adjunction_exhaustive(c2):
    for nx, ny in product((1, 2, 3), repeat=2):
        X, Y = make_ground(c2, nx, "x"), make_ground(c2, ny, "y")
        for table in product(range(ny), repeat=nx):
            assert forward_adjunction(point_morphism(X, Y, table)) is None


# -- zadeh operators: the identity phi_op ------------------------------------------

def test_zadeh_forward_join_over_fiber(godel3):
    g = point_morphism(make_ground(godel3, 2, "x"), make_ground(godel3, 1, "y"), (0, 0))
    assert forward_of(g, (1, 2)) == (2,)


def test_zadeh_forward_empty_fiber_gets_bottom(godel3):
    g = point_morphism(make_ground(godel3, 1, "x"), make_ground(godel3, 2, "y"), (0,))
    assert forward_of(g, (1,)) == (1, 0)


def test_zadeh_forward_of_bottom_is_bottom(godel3):
    g = point_morphism(make_ground(godel3, 2, "x"), make_ground(godel3, 1, "y"), (0, 0))
    assert g.forward[0] == 0


def test_zadeh_backward_constants(godel3):
    g = point_morphism(make_ground(godel3, 2, "x"), make_ground(godel3, 2, "y"), (0, 0))
    assert backward_of(g, (2, 2)) == (2, 2)
    assert backward_of(g, (1, 2)) == (1, 1)


def test_zadeh_adjunction_exhaustive(c2, godel3, luk3):
    for algebra in (c2, godel3, luk3):
        for nx, ny in product((1, 2), repeat=2):
            X, Y = make_ground(algebra, nx, "x"), make_ground(algebra, ny, "y")
            for table in product(range(ny), repeat=nx):
                assert forward_adjunction(point_morphism(X, Y, table)) is None


def test_forward_and_backward_on_c2_are_the_classical_image_and_preimage(c2):
    for nx, ny in product((1, 2, 3), repeat=2):
        X, Y = make_ground(c2, nx, "x"), make_ground(c2, ny, "y")
        for table in product(range(ny), repeat=nx):
            g = point_morphism(X, Y, table)
            for u in all_value_tuples(X):
                image = {Y.points[table[i]] for i, x in enumerate(X.points) if x in crisp(X, u)}
                assert crisp(Y, forward_of(g, u)) == image
            for v in all_value_tuples(Y):
                preimage = {x for i, x in enumerate(X.points) if Y.points[table[i]] in crisp(Y, v)}
                assert crisp(X, backward_of(g, v)) == preimage


# -- morphism validation ------------------------------------------------------

def test_identity_morphism_validates(one_point_c3):
    g = identity_morphism(one_point_c3)
    checked = validate_ground_morphism(
        one_point_c3, one_point_c3, {"p1": "p1"}, {"0": "0", "1/2": "1/2", "1": "1"}
    )
    assert checked == g


def test_collapse_phi_validates(c2, godel3):
    dom = Ground(("x",), c2)
    cod = Ground(("y",), godel3)
    g = validate_ground_morphism(dom, cod, {"x": "y"}, {"0": "0", "1/2": "0", "1": "1"})
    assert g.phi_op == (0, 0, 1)


def test_top_swap_rejected(godel3):
    g = Ground(("x",), godel3)
    with pytest.raises(TopNotPreserved):
        validate_ground_morphism(g, g, {"x": "x"}, {"0": "1", "1/2": "1/2", "1": "0"})


def test_tensor_violation_rejected(luk3, godel3):
    dom = Ground(("x",), godel3)
    cod = Ground(("y",), luk3)
    # 1/2 -> 1/2 breaks tensor preservation: 1/2 (x) 1/2 is 0 in the
    # codomain but min gives 1/2 in the domain
    with pytest.raises(TensorNotPreserved):
        validate_ground_morphism(dom, cod, {"x": "y"}, {"0": "0", "1/2": "1/2", "1": "1"})


def test_join_violation_rejected(godel3, diamond_gl):
    dom = Ground(("x",), godel3)
    cod = Ground(("y",), diamond_gl)
    # sending both atoms to 0 loses their join (the top is pinned)
    with pytest.raises(JoinNotPreserved):
        validate_ground_morphism(
            dom, cod, {"x": "y"}, {"bot": "0", "a": "0", "b": "0", "top": "1"}
        )


@pytest.mark.parametrize("phi_op", [(0, 5), (-2, -1), (0, None)], ids=["past-end", "negative", "not-an-index"])
def test_phi_op_index_outside_l_is_an_unknown_element(c2, godel3, phi_op):
    dom, cod = Ground(("x",), godel3), Ground(("y",), c2)
    with pytest.raises(UnknownElement):
        validate_ground_morphism(dom, cod, {"x": "y"}, phi_op)


def test_point_map_off_the_domain_is_a_carrier_mismatch(godel3):
    dom, cod = make_ground(godel3, 1, "x"), make_ground(godel3, 1, "y")
    with pytest.raises(CarrierMismatch):
        validate_ground_morphism(dom, cod, {"x0": "y0", "x1": "y0"}, (0, 1, 2))


def test_phi_op_key_off_m_is_an_unknown_element(godel3):
    dom, cod = make_ground(godel3, 1, "x"), make_ground(godel3, 1, "y")
    with pytest.raises(UnknownElement):
        validate_ground_morphism(dom, cod, {"x0": "y0"}, {"0": "0", "1/2": "1/2", "1": "1", "2": "1"})


def test_morphism_enumeration_counts(c2, godel3, luk3):
    assert len(all_phi_ops(godel3, godel3)) == 3
    assert len(all_phi_ops(godel3, c2)) == 1
    assert len(all_phi_ops(c2, godel3)) == 2
    assert len(all_phi_ops(luk3, luk3)) == 2
    # every enumerated table passes full validation
    dom = Ground(("x",), godel3)
    cod = Ground(("y", "z"), godel3)
    for g in all_morphisms(dom, cod):
        rebuilt = validate_ground_morphism(
            dom, cod, dict(zip(dom.points, (cod.points[i] for i in g.f))),
            {cod.lattice.name(b): dom.lattice.name(v) for b, v in enumerate(g.phi_op)},
        )
        assert rebuilt == g


# -- variable-basis operators ---------------------------------------------------

def test_backward_examples(godel3):
    X, Y = make_ground(godel3, 2, "x"), make_ground(godel3, 1, "y")
    g = GroundMorphism(dom=X, cod=Y, f=(0, 0), phi_op=(0, 1, 2))
    assert g.backward[-1] == len(X.index.values) - 1
    assert backward_of(g, (1,)) == (1, 1)


def test_forward_identity(godel3, diamond_join):
    for algebra in (godel3, diamond_join):
        ground = make_ground(algebra, 2, "p")
        assert identity_morphism(ground).forward == tuple(range(len(ground.index.values)))


def test_forward_bottom(godel3):
    X, Y = make_ground(godel3, 2, "x"), make_ground(godel3, 1, "y")
    g = GroundMorphism(dom=X, cod=Y, f=(0, 0), phi_op=(0, 1, 2))
    assert g.forward[0] == 0


def test_forward_collapse(c2, godel3):
    # pointwise, forward is the meet of every beta whose phi_op image lies
    # above the value: the star of phi_op
    g = validate_ground_morphism(make_ground(c2, 1, "x"), make_ground(godel3, 1, "y"), {"x0": "y0"}, {"0": "0", "1/2": "0", "1": "1"})
    assert [forward_of(g, (a,)) for a in range(2)] == [(0,), (2,)]


# the 1- and 2-point grounds over five bases, the pentagon on one point
SMALL_GROUNDS = [
    Ground(tuple(f"p{i + 1}" for i in range(n)), builtin_algebra(name))
    for n in (1, 2)
    for name in ("c2", "godel3", "lukasiewicz3", "diamond-meet", "diamond-join")
] + [Ground(("p1",), builtin_algebra("pentagon-meet"))]
SMALL_MORPHISMS = [g for dom, cod in product(SMALL_GROUNDS, repeat=2) for g in all_morphisms(dom, cod)]


def preserves_binary_meets(g) -> bool:
    l_meet, m_meet = g.dom.lattice.meet2, g.cod.lattice.meet2
    span = range(len(m_meet))
    return all(g.phi_op[m_meet[b1][b2]] == l_meet[g.phi_op[b1]][g.phi_op[b2]] for b1 in span for b2 in span)


def test_forward_matches_candidate_meet():
    # the small morphisms, then every morphism between 2-point grounds over
    # the chains and the meet-tensor diamond and pentagon
    names = ("c2", "godel3", "lukasiewicz3", "diamond-meet", "pentagon-meet")
    two_point = [
        g
        for l_name, m_name in product(names, repeat=2)
        for g in all_morphisms(Ground(("x1", "x2"), builtin_algebra(l_name)), Ground(("y1", "y2"), builtin_algebra(m_name)))
    ]
    for g in SMALL_MORPHISMS + two_point:
        for u in all_value_tuples(g.dom):
            assert forward_of(g, u) == naive_vb_forward(g, u)
    domain_sets = sum(len(g.dom.index.values) for g in SMALL_MORPHISMS)
    assert (len(SMALL_MORPHISMS), domain_sets) == (378, 3030)


def test_forward_is_left_adjoint_exactly_when_phi_op_preserves_meets():
    failures = one_point = one_point_failures = 0
    for g in SMALL_MORPHISMS:
        fails = forward_adjunction(g) is not None
        assert fails == (not preserves_binary_meets(g))
        failures += fails
        if len(g.dom.points) == len(g.cod.points) == 1:
            one_point += 1
            one_point_failures += fails
    assert (failures, one_point, one_point_failures) == (40, 69, 5)


def test_forward_adjunction_exhaustive(c2, godel3, luk3):
    for l_alg, m_alg in product((c2, godel3, luk3), repeat=2):
        for nx, ny in product((1, 2), repeat=2):
            X, Y = make_ground(l_alg, nx, "x"), make_ground(m_alg, ny, "y")
            for g in all_morphisms(X, Y):
                assert forward_adjunction(g) is None


def test_right_adjoint_identity(godel3):
    g = identity_morphism(make_ground(godel3, 1, "p"))
    assert g.right_adjoint == (0, 1, 2)
    assert right_adjunction(g) is None


def test_right_adjoint_empty_fiber_is_top(godel3):
    X, Y = make_ground(godel3, 1, "x"), make_ground(godel3, 2, "y")
    g = GroundMorphism(dom=X, cod=Y, f=(0,), phi_op=(0, 1, 2))
    assert right_adjoint_of(g, (0,)) == (0, 2)
    assert right_adjunction(g) is None


def test_right_adjoint_fiber_meet(godel3):
    X, Y = make_ground(godel3, 2, "x"), make_ground(godel3, 1, "y")
    g = GroundMorphism(dom=X, cod=Y, f=(0, 0), phi_op=(0, 1, 2))
    assert right_adjoint_of(g, (1, 2)) == (1,)


def test_backward_right_adjoint_galois(c2, godel3, luk3):
    for l_alg, m_alg in product((c2, godel3, luk3), repeat=2):
        for nx, ny in product((1, 2), repeat=2):
            X, Y = make_ground(l_alg, nx, "x"), make_ground(m_alg, ny, "y")
            for g in all_morphisms(X, Y):
                assert right_adjunction(g) is None
                for u in all_value_tuples(X):
                    assert right_adjoint_of(g, u) == naive_right_adjoint(g, u)
                for v in all_value_tuples(Y):
                    assert backward_of(g, v) == naive_backward(g, v)


def test_backward_distributes_over_joins(godel3, luk3):
    # phi_op preserves joins, so backward commutes with pointwise joins
    for algebra in (godel3, luk3):
        X, Y = make_ground(algebra, 1, "x"), make_ground(algebra, 2, "y")
        for g in all_morphisms(X, Y):
            tuples = list(all_value_tuples(Y))
            for v1 in tuples:
                for v2 in tuples:
                    joined = backward_of(g, join_values(Y, (v1, v2)))
                    assert joined == join_values(X, (backward_of(g, v1), backward_of(g, v2)))


def test_right_adjunction_fails_on_broken_phi(godel3):
    # a deliberately invalid phi_op (not join-preserving: it is not even
    # monotone) breaks the Galois condition and the adjunction oracle must
    # catch it
    X, Y = make_ground(godel3, 1, "x"), make_ground(godel3, 1, "y")
    bad = GroundMorphism(dom=X, cod=Y, f=(0,), phi_op=(0, 2, 0))  # 1/2 -> 1, 1 -> 0
    assert right_adjunction(bad) is not None
