from itertools import product

import pytest

from conftest import all_sets, fuzzy_join, naive_vb_forward, verify_powerset_adjunction
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
    PointMap,
    all_morphisms,
    all_phi_ops,
    classical_image,
    classical_preimage,
    identity_morphism,
    lift_phi_op,
    lift_star_phi,
    powerset,
    star_phi,
    validate_ground_morphism,
    vb_backward,
    vb_forward,
    vb_right_adjoint,
    verify_adjunction,
    zadeh_backward,
    zadeh_forward,
)
from fuzzint.search import builtin_algebra


# -- classical operators ------------------------------------------------------

def test_classical_image_constant_map():
    f = PointMap.from_dict({"x1": "y0", "x2": "y0"}, ["x1", "x2"], ["y0", "y1"])
    assert classical_image(f, {"x1", "x2"}) == frozenset({"y0"})


def test_classical_preimage_empty():
    f = PointMap.from_dict({"x1": "y0"}, ["x1"], ["y0"])
    assert classical_preimage(f, set()) == frozenset()


def test_classical_preimage_misses_unhit_target():
    f = PointMap.from_dict({"1": "a", "2": "a"}, ["1", "2"], ["a", "b"])
    assert classical_preimage(f, {"b"}) == frozenset()


def test_classical_adjunction_exhaustive():
    for nx, ny in product((1, 2, 3), repeat=2):
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
            assert verdict.ok


# -- zadeh operators ----------------------------------------------------------

def test_zadeh_forward_join_over_fiber(godel3):
    X = Ground(("x1", "x2"), godel3)
    f = PointMap(("x1", "x2"), ("y",), (0, 0))
    a = X.fuzzy({"x1": "1/2", "x2": "1"})
    assert zadeh_forward(f, a).as_dict() == {"y": "1"}


def test_zadeh_forward_empty_fiber_gets_bottom(godel3):
    X = Ground(("x1",), godel3)
    f = PointMap(("x1",), ("y1", "y2"), (0,))
    a = X.fuzzy({"x1": "1/2"})
    assert zadeh_forward(f, a).as_dict() == {"y1": "1/2", "y2": "0"}


def test_zadeh_forward_of_bottom_is_bottom(godel3):
    X = Ground(("x1", "x2"), godel3)
    f = PointMap(("x1", "x2"), ("y",), (0, 0))
    assert zadeh_forward(f, X.bottom_set()).values == (godel3.lattice.bottom,)


def test_zadeh_backward_constants(godel3):
    Y = Ground(("y1", "y2"), godel3)
    f = PointMap(("x1", "x2"), ("y1", "y2"), (0, 0))
    assert zadeh_backward(f, Y.top_set()).as_dict() == {"x1": "1", "x2": "1"}
    b = Y.fuzzy({"y1": "1/2", "y2": "1"})
    assert zadeh_backward(f, b).as_dict() == {"x1": "1/2", "x2": "1/2"}


def test_zadeh_adjunction_exhaustive(c2, godel3, luk3):
    for algebra in (c2, godel3, luk3):
        for nx, ny in product((1, 2), repeat=2):
            X = Ground(tuple(f"x{i}" for i in range(nx)), algebra)
            Y = Ground(tuple(f"y{i}" for i in range(ny)), algebra)
            for table in product(range(ny), repeat=nx):
                f = PointMap(X.points, Y.points, table)
                verdict = verify_powerset_adjunction(
                    lambda a: zadeh_forward(f, a), lambda b: zadeh_backward(f, b), X, Y
                )
                assert verdict.ok


def test_zadeh_coincides_with_classical_over_two_chain(c2):
    for nx, ny in product((1, 2, 3), repeat=2):
        X = Ground(tuple(f"x{i}" for i in range(nx)), c2)
        Y = Ground(tuple(f"y{i}" for i in range(ny)), c2)
        for table in product(range(ny), repeat=nx):
            f = PointMap(X.points, Y.points, table)
            for a in all_sets(X):
                crisp = {x for x, v in zip(X.points, a.values) if v == c2.lattice.top}
                image = zadeh_forward(f, a)
                assert {y for y, v in zip(Y.points, image.values) if v} == set(
                    classical_image(f, crisp)
                )
            for b in all_sets(Y):
                crisp = {y for y, v in zip(Y.points, b.values) if v == c2.lattice.top}
                back = zadeh_backward(f, b)
                assert {x for x, v in zip(X.points, back.values) if v} == set(
                    classical_preimage(f, crisp)
                )


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


# -- star and lifts -----------------------------------------------------------

def test_star_phi_identity(godel3):
    g = identity_morphism(Ground(("p1",), godel3))
    for name in godel3.lattice.elements:
        assert star_phi(g, name) == name


def test_star_phi_collapse(c2, godel3):
    dom = Ground(("x",), c2)
    cod = Ground(("y",), godel3)
    g = validate_ground_morphism(dom, cod, {"x": "y"}, {"0": "0", "1/2": "0", "1": "1"})
    assert star_phi(g, "1") == "1"
    assert star_phi(g, "0") == "0"


def test_star_phi_bottom(godel3):
    g = identity_morphism(Ground(("p1",), godel3))
    assert star_phi(g, "0") == "0"


def test_lifts_identity(godel3):
    ground = Ground(("p1", "p2"), godel3)
    g = identity_morphism(ground)
    for a in all_sets(ground):
        assert lift_star_phi(g, a).values == a.values
        assert lift_phi_op(g, a).values == a.values


def test_lift_phi_op_preserves_top(c2, godel3):
    dom = Ground(("x",), c2)
    cod = Ground(("y",), godel3)
    g = validate_ground_morphism(dom, cod, {"x": "y"}, {"0": "0", "1/2": "0", "1": "1"})
    m_ground = Ground(("x",), godel3)
    assert lift_phi_op(g, m_ground.top_set()).values == (c2.lattice.top,)


def test_star_lift_galois(c2, godel3, luk3):
    """lift_star_phi is left adjoint to lift_phi_op on every enumerated
    instance with chain carriers."""
    algebras = (c2, godel3, luk3)
    for l_alg in algebras:
        for m_alg in algebras:
            for nx in (1, 2):
                dom = Ground(tuple(f"x{i}" for i in range(nx)), l_alg)
                cod_alg_ground = Ground(dom.points, m_alg)
                for phi in all_phi_ops(l_alg, m_alg):
                    g = GroundMorphism(dom=dom, cod=Ground(("y",), m_alg), f=(0,) * nx, phi_op=phi)
                    verdict = verify_powerset_adjunction(
                        lambda a: lift_star_phi(g, a),
                        lambda b: lift_phi_op(g, b),
                        dom,
                        cod_alg_ground,
                    )
                    assert verdict.ok


# -- variable-basis operators ---------------------------------------------------

def test_vb_backward_examples(godel3):
    X = Ground(("x1", "x2"), godel3)
    Y = Ground(("y",), godel3)
    g = GroundMorphism(dom=X, cod=Y, f=(0, 0), phi_op=(0, 1, 2))
    assert vb_backward(g, Y.top_set()).values == X.top_set().values
    b = Y.fuzzy({"y": "1/2"})
    assert vb_backward(g, b).as_dict() == {"x1": "1/2", "x2": "1/2"}


def test_vb_forward_identity(godel3):
    ground = Ground(("p1",), godel3)
    g = identity_morphism(ground)
    for a in all_sets(ground):
        assert vb_forward(g, a).values == a.values


def test_vb_forward_bottom(godel3):
    X = Ground(("x1", "x2"), godel3)
    Y = Ground(("y",), godel3)
    g = GroundMorphism(dom=X, cod=Y, f=(0, 0), phi_op=(0, 1, 2))
    assert vb_forward(g, X.bottom_set()).values == Y.bottom_set().values


def test_vb_forward_enumeration_matches_fiber_formula():
    names = ("c2", "godel3", "lukasiewicz3", "diamond-meet", "pentagon-meet")
    non_chain = 0
    for l_name, m_name in product(names, repeat=2):
        X = Ground(("x1", "x2"), builtin_algebra(l_name))
        Y = Ground(("y1", "y2"), builtin_algebra(m_name))
        for g in all_morphisms(X, Y):
            non_chain += "-meet" in l_name + m_name
            for a in all_sets(X):
                assert vb_forward(g, a).values == naive_vb_forward(g, a)
    assert non_chain > 0


def test_vb_adjunction_exhaustive(c2, godel3, luk3):
    for l_alg, m_alg in product((c2, godel3, luk3), repeat=2):
        for nx, ny in product((1, 2), repeat=2):
            X = Ground(tuple(f"x{i}" for i in range(nx)), l_alg)
            Y = Ground(tuple(f"y{i}" for i in range(ny)), m_alg)
            for g in all_morphisms(X, Y):
                verdict = verify_powerset_adjunction(
                    lambda a: vb_forward(g, a), lambda b: vb_backward(g, b), X, Y
                )
                assert verdict.ok


def _right_adjunction(g):
    """The Galois condition of backward and its right adjoint."""
    return verify_powerset_adjunction(lambda v: vb_backward(g, v), lambda u: vb_right_adjoint(g, u), g.cod, g.dom)


def test_vb_right_adjoint_identity(godel3):
    ground = Ground(("p1",), godel3)
    g = identity_morphism(ground)
    for u in all_sets(ground):
        assert vb_right_adjoint(g, u).values == u.values
    assert _right_adjunction(g)


def test_vb_right_adjoint_empty_fiber_is_top(godel3):
    X = Ground(("x1",), godel3)
    Y = Ground(("y1", "y2"), godel3)
    g = GroundMorphism(dom=X, cod=Y, f=(0,), phi_op=(0, 1, 2))
    u = X.fuzzy({"x1": "0"})
    r = vb_right_adjoint(g, u)
    assert r.value("y2") == "1"
    assert _right_adjunction(g)


def test_vb_right_adjoint_fiber_meet(godel3):
    X = Ground(("x1", "x2"), godel3)
    Y = Ground(("y",), godel3)
    g = GroundMorphism(dom=X, cod=Y, f=(0, 0), phi_op=(0, 1, 2))
    u = X.fuzzy({"x1": "1/2", "x2": "1"})
    assert vb_right_adjoint(g, u).as_dict() == {"y": "1/2"}


def test_vb_backward_right_adjoint_galois(c2, godel3, luk3):
    for l_alg, m_alg in product((c2, godel3, luk3), repeat=2):
        for nx, ny in product((1, 2), repeat=2):
            X = Ground(tuple(f"x{i}" for i in range(nx)), l_alg)
            Y = Ground(tuple(f"y{i}" for i in range(ny)), m_alg)
            for g in all_morphisms(X, Y):
                verdict = verify_powerset_adjunction(
                    lambda v: vb_backward(g, v), lambda u: vb_right_adjoint(g, u), Y, X
                )
                assert verdict.ok


def test_vb_backward_distributes_over_joins(godel3, luk3):
    # phi_op preserves joins, so backward commutes with pointwise joins
    for algebra in (godel3, luk3):
        X = Ground(("x1",), algebra)
        Y = Ground(("y1", "y2"), algebra)
        for g in all_morphisms(X, Y):
            sets = list(all_sets(Y))
            for b1 in sets:
                for b2 in sets:
                    joined = vb_backward(g, fuzzy_join(b1, b2))
                    assert joined.values == fuzzy_join(vb_backward(g, b1), vb_backward(g, b2)).values


# -- generic adjunction checker --------------------------------------------------

def test_verify_adjunction_identity(godel3):
    names = list(godel3.lattice.elements)
    leq = godel3.lattice.leq_names
    verdict = verify_adjunction(lambda x: x, lambda x: x, names, names, leq, leq)
    assert verdict.ok


def test_verify_adjunction_constant_top_fails(godel3):
    names = list(godel3.lattice.elements)
    leq = godel3.lattice.leq_names
    verdict = verify_adjunction(lambda x: "1", lambda x: x, names, names, leq, leq)
    assert not verdict.ok
    assert verdict.witness is not None


def test_right_adjunction_fails_on_broken_phi(godel3):
    # a deliberately invalid phi_op (not join-preserving: it is not even
    # monotone) breaks the Galois condition and the adjunction check must
    # catch it
    X = Ground(("x1",), godel3)
    Y = Ground(("y",), godel3)
    bad = GroundMorphism(dom=X, cod=Y, f=(0,), phi_op=(0, 2, 0))  # 1/2 -> 1, 1 -> 0
    verdict = _right_adjunction(bad)
    assert not verdict.ok
    assert verdict.witness is not None


def test_carrier_mismatch_errors(godel3):
    X = Ground(("x1",), godel3)
    Y = Ground(("y",), godel3)
    g = GroundMorphism(dom=X, cod=Y, f=(0,), phi_op=(0, 1, 2))
    with pytest.raises(CarrierMismatch):
        vb_backward(g, X.top_set())
    with pytest.raises(CarrierMismatch):
        vb_forward(g, Y.top_set())
