from itertools import combinations, product

import pytest

from conftest import (
    all_value_tuples,
    continuity_constraints,
    leq_values,
    meet_values,
    naive_backward,
    naive_initiality_walk,
    naive_right_adjoint,
    naive_verify_initiality,
)
from fuzzint import io as fio
from fuzzint.continuity import (
    StructuredSource,
    compose,
    initial_from_source,
    initial_interior,
    initiality_violation,
    is_continuous,
    is_open_morphism,
    meet_interchange_report,
    preimage_of_open_is_open,
    preserves_full_productivity_check,
    preserves_idempotency_check,
    verify_initiality,
)
from fuzzint.errors import GroundMismatch, NotAnInteriorMap, NotContinuous, PropertyPreconditionFailed
from fuzzint.interior import (
    InteriorMap,
    check_interior_axioms,
    discrete,
    is_idempotent,
    join_interiors,
    least,
    meet_interiors,
    open_sets,
)
from fuzzint.powerset import (
    Ground,
    GroundMorphism,
    all_morphisms,
    identity_morphism,
    validate_ground_morphism,
)
from fuzzint.search import (
    CLAIMS,
    SearchBounds,
    SearchContext,
    _arm,
    _test_morphisms,
    builtin_algebra,
    checker_for,
    enumerate_interior_maps,
    grounds_within,
    interior_sample,
    replay,
    search,
)


@pytest.fixture(scope="module")
def small_bounds():
    return SearchBounds(operator_sample=3)


def spaces_on(ground):
    return list(enumerate_interior_maps(ground))


def meet_lift(s):
    """The uncorrected pointwise-meet lift of a nonempty source."""
    per_arm = [initial_interior(g, target) for g, target in s.arms]
    return InteriorMap.from_rule(
        s.domain, lambda u: meet_values(s.domain, (i.apply_values(u) for i in per_arm))
    )


# -- continuity and openness -----------------------------------------------------

def test_identity_continuous_same_space(one_point_c3):
    g = identity_morphism(one_point_c3)
    for space in spaces_on(one_point_c3):
        assert is_continuous(g, space, space)


def test_discrete_source_always_continuous(one_point_c3, two_point_c3):
    for dom, cod in ((one_point_c3, one_point_c3), (two_point_c3, one_point_c3)):
        src = discrete(dom)
        for g in all_morphisms(dom, cod):
            for dst in spaces_on(cod):
                assert is_continuous(g, src, dst)


def test_least_source_discrete_target_witness(one_point_c3):
    g = identity_morphism(one_point_c3)
    src = least(one_point_c3)
    dst = discrete(one_point_c3)
    verdict = is_continuous(g, src, dst)
    assert not verdict.ok
    assert verdict.witness["v"] == {"p1": "1/2"}
    assert verdict.witness["lhs"] == {"p1": "1/2"}
    assert verdict.witness["rhs"] == {"p1": "0"}


def test_openness_identity(one_point_c3):
    g = identity_morphism(one_point_c3)
    for space in spaces_on(one_point_c3):
        assert is_open_morphism(g, space, space)


def test_openness_witness_discrete_source_least_target(one_point_c3):
    g = identity_morphism(one_point_c3)
    src = discrete(one_point_c3)
    dst = least(one_point_c3)
    verdict = is_open_morphism(g, src, dst)
    assert not verdict.ok
    assert verdict.witness["v"] == {"p1": "1/2"}


def test_least_source_least_target_continuous(one_point_c3):
    g = identity_morphism(one_point_c3)
    space = least(one_point_c3)
    assert is_continuous(g, space, space)
    assert is_open_morphism(g, space, space)


def test_ground_mismatch(one_point_c3, two_point_c3):
    g = identity_morphism(one_point_c3)
    with pytest.raises(GroundMismatch):
        is_continuous(g, discrete(two_point_c3), discrete(one_point_c3))


# -- composition ------------------------------------------------------------------

def test_compose_identity(one_point_c3, two_point_c3):
    for g in all_morphisms(two_point_c3, one_point_c3):
        assert compose(identity_morphism(one_point_c3), g) == g
        assert compose(g, identity_morphism(two_point_c3)) == g


def test_backward_functoriality(c2, godel3):
    grounds = [Ground(("p1",), godel3), Ground(("p1", "p2"), c2), Ground(("p1", "p2"), godel3)]
    for X, Y, Z in product(grounds, repeat=3):
        for g1 in all_morphisms(X, Y):
            for g2 in all_morphisms(Y, Z):
                comp = compose(g2, g1)
                assert comp.backward == tuple(g1.backward[v] for v in g2.backward)


def test_composite_of_validated_morphisms_validates(c2, godel3):
    X, Y, Z = Ground(("p1",), c2), Ground(("p1", "p2"), godel3), Ground(("p1",), godel3)
    for g1 in all_morphisms(X, Y):
        for g2 in all_morphisms(Y, Z):
            comp = compose(g2, g1)
            rebuilt = validate_ground_morphism(
                X,
                Z,
                dict(zip(X.points, (Z.points[i] for i in comp.f))),
                {Z.lattice.name(b): X.lattice.name(v) for b, v in enumerate(comp.phi_op)},
            )
            assert rebuilt == comp


def test_composition_closure_continuity(one_point_c3, one_point_c2):
    grounds = (one_point_c3, one_point_c2)
    for X, Y, Z in product(grounds, repeat=3):
        for g1 in all_morphisms(X, Y):
            for g2 in all_morphisms(Y, Z):
                for sx, sy, sz in product(spaces_on(X), spaces_on(Y), spaces_on(Z)):
                    if is_continuous(g1, sx, sy) and is_continuous(g2, sy, sz):
                        assert is_continuous(compose(g2, g1), sx, sz)
                    if is_open_morphism(g1, sx, sy) and is_open_morphism(g2, sy, sz):
                        assert is_open_morphism(compose(g2, g1), sx, sz)


# -- initial interiors --------------------------------------------------------------

def test_initial_of_identity_transports_target(one_point_c3):
    g = identity_morphism(one_point_c3)
    for space in spaces_on(one_point_c3):
        lifted = initial_interior(g, space)
        assert lifted.images == space.images


def test_initial_always_interior_and_continuous(small_bounds):
    for dom in grounds_within(small_bounds):
        for cod in grounds_within(small_bounds):
            for g in all_morphisms(dom, cod):
                for target in spaces_on(cod):
                    lifted = initial_interior(g, target)
                    assert check_interior_axioms(lifted).ok
                    assert is_continuous(g, lifted, target)


def test_initial_is_least_continuous_structure(one_point_c3, one_point_c2):
    for dom in (one_point_c3, one_point_c2):
        for cod in (one_point_c3, one_point_c2):
            for g in all_morphisms(dom, cod):
                for target in spaces_on(cod):
                    lifted = initial_interior(g, target)
                    for candidate in enumerate_interior_maps(dom):
                        cont = is_continuous(g, candidate, target).ok
                        dominates = all(
                            leq_values(dom, lifted.apply_values(u), candidate.apply_values(u))
                            for u in all_value_tuples(dom)
                        )
                        assert cont == dominates


def test_initial_collapse_into_least_is_least(godel3):
    X = Ground(("x1", "x2"), godel3)
    Y = Ground(("y",), godel3)
    g = GroundMorphism(dom=X, cod=Y, f=(0, 0), phi_op=(0, 1, 2))
    lifted = initial_interior(g, least(Y))
    assert lifted.images == least(X).images


def test_initial_discrete_target_is_counit_composite(godel3):
    X = Ground(("x1", "x2"), godel3)
    Y = Ground(("y",), godel3)
    g = GroundMorphism(dom=X, cod=Y, f=(0, 0), phi_op=(0, 1, 2))
    lifted = initial_interior(g, discrete(Y))
    for u in all_value_tuples(X):
        expected = naive_backward(g, naive_right_adjoint(g, u))
        assert lifted.apply_values(u) == expected
        assert leq_values(X, expected, u)


# -- structured sources ---------------------------------------------------------------

def test_singleton_source_equals_initial(one_point_c3):
    g = identity_morphism(one_point_c3)
    for target in spaces_on(one_point_c3):
        s = StructuredSource(domain=one_point_c3, arms=((g, target),))
        assert initial_from_source(s).images == initial_interior(g, target).images


def test_duplicate_arms_same_as_singleton(one_point_c3):
    g = identity_morphism(one_point_c3)
    target = least(one_point_c3)
    s1 = StructuredSource(domain=one_point_c3, arms=((g, target),))
    s2 = StructuredSource(domain=one_point_c3, arms=((g, target), (g, target)))
    assert initial_from_source(s1).images == initial_from_source(s2).images


def test_empty_source_is_least(one_point_c3):
    s = StructuredSource(domain=one_point_c3, arms=())
    assert initial_from_source(s).images == least(one_point_c3).images


def test_two_arm_source_keeps_arms_continuous(one_point_c3):
    g = identity_morphism(one_point_c3)
    disc = discrete(one_point_c3)
    low = least(one_point_c3)
    s = StructuredSource(domain=one_point_c3, arms=((g, disc), (g, low)))
    lift = initial_from_source(s)
    assert check_interior_axioms(lift).ok
    for arm_g, space in s.arms:
        assert is_continuous(arm_g, lift, space)
    # the join of the discrete and least lifts is discrete
    assert lift.images == discrete(one_point_c3).images


def test_literal_meet_rule_loses_arm_continuity(one_point_c3):
    g = identity_morphism(one_point_c3)
    disc = discrete(one_point_c3)
    low = least(one_point_c3)
    s = StructuredSource(domain=one_point_c3, arms=((g, disc), (g, low)))
    meet_map = meet_lift(s)
    # the meet passes the interior axioms but the arm into the discrete
    # space stops being continuous
    assert check_interior_axioms(meet_map).ok
    verdicts = [is_continuous(arm_g, meet_map, space).ok for arm_g, space in s.arms]
    assert verdicts == [False, True]


# -- initiality verification -------------------------------------------------------------

def test_verify_initiality_accepts_canonical_lift(one_point_c3, one_point_c2, small_bounds):
    test_grounds = grounds_within(small_bounds)
    g = identity_morphism(one_point_c3)
    for target in spaces_on(one_point_c3):
        s = StructuredSource(domain=one_point_c3, arms=((g, target),))
        lift = initial_from_source(s)
        assert verify_initiality(s, lift, test_grounds=test_grounds)


def test_verify_initiality_rejects_discrete_when_too_big(one_point_c3, small_bounds):
    g = identity_morphism(one_point_c3)
    target = least(one_point_c3)
    s = StructuredSource(domain=one_point_c3, arms=((g, target),))
    verdict = verify_initiality(
        s, discrete(one_point_c3), test_grounds=grounds_within(small_bounds)
    )
    assert not verdict.ok
    assert verdict.witness["direction"] == "only-if"


def test_verify_initiality_rejects_too_small(one_point_c3, small_bounds):
    g = identity_morphism(one_point_c3)
    target = discrete(one_point_c3)
    s = StructuredSource(domain=one_point_c3, arms=((g, target),))
    verdict = verify_initiality(
        s, least(one_point_c3), test_grounds=grounds_within(small_bounds)
    )
    assert not verdict.ok


def test_verify_initiality_vacuous_without_test_objects(one_point_c3):
    g = identity_morphism(one_point_c3)
    target = least(one_point_c3)
    s = StructuredSource(domain=one_point_c3, arms=((g, target),))
    assert verify_initiality(s, discrete(one_point_c3), test_grounds=[])


def test_verify_initiality_refuses_a_lift_that_is_not_interior(one_point_c3):
    # the lift is its own initial interior along the identity, validated;
    # the constant-top map is not contractive
    s = StructuredSource(domain=one_point_c3, arms=((identity_morphism(one_point_c3), discrete(one_point_c3)),))
    top = InteriorMap(one_point_c3, (one_point_c3.set_count() - 1,) * one_point_c3.set_count())
    with pytest.raises(NotAnInteriorMap, match="I1"):
        verify_initiality(s, top, test_grounds=[one_point_c3])


def test_reduced_mode_agrees_with_enumeration():
    """The principal-filter kernel against literal enumeration of test
    interiors, on the empty, one- and two-arm sources over 1- and 2-point
    domains, for the join lift and the wrong ones: discrete, least and
    meet (the empty source's meet is the constant-top map, no interior
    map).  The empty source's lift is the least map, and discrete, which
    differs from it on every domain here, fails wherever a test morphism
    exists."""
    c2, godel3, luk3 = (builtin_algebra(n) for n in ("c2", "godel3", "lukasiewicz3"))
    one = lambda alg: Ground(("p1",), alg)
    two = lambda alg: Ground(("p1", "p2"), alg)
    settings = [
        # (domain, arm codomains, test grounds)
        (one(godel3), [one(c2), one(godel3)], [one(c2), one(godel3)]),
        (one(luk3), [one(c2), one(luk3)], [one(c2), one(luk3)]),
        (two(c2), [one(c2), two(c2)], [one(c2), two(c2)]),
        (two(luk3), [one(luk3)], [one(c2), one(luk3)]),
    ]
    sample = SearchBounds(operator_sample=3)
    seen = set()
    for dom, cods, test_grounds in settings:
        arms = [
            (g, i)
            for cod in cods
            for g in all_morphisms(dom, cod)
            for i in interior_sample(cod, sample)
        ]
        sources = [()] + [(a,) for a in arms] + list(combinations(arms, 2))
        for arm_pairs in sources:
            s = StructuredSource(domain=dom, arms=arm_pairs)
            lifts = {
                "join": initial_from_source(s),
                "meet": meet_lift(s) if arm_pairs else None,
                "discrete": discrete(dom),
                "least": least(dom),
            }
            for name, lift in lifts.items():
                if lift is None:
                    continue
                reduced = verify_initiality(s, lift, test_grounds=test_grounds)
                literal = naive_verify_initiality(s, lift, test_grounds)
                assert reduced.ok == (literal is None), (name, s)
                if name == "join":
                    assert reduced.ok
                if not arm_pairs:
                    assert reduced.ok == (name != "discrete")
                seen.add((len(arm_pairs), reduced.ok))
    assert seen == {(0, True), (0, False), (1, True), (1, False), (2, True), (2, False)}


def test_search_checker_agrees_with_verify_initiality():
    bounds = SearchBounds(max_carrier=1)
    ctx = SearchContext(bounds)
    generate = CLAIMS["initiality"][0]
    check = checker_for("initiality", ctx)
    cases = 0
    for case in generate(ctx):
        cases += 1
        s = StructuredSource(domain=case["domain"], arms=tuple((arm["morphism"], arm["interior"]) for arm in case["arms"]))
        verdict = verify_initiality(s, initial_from_source(s), test_grounds=grounds_within(bounds))
        assert (check(case) is None) == verdict.ok
    assert cases == search("initiality", bounds).instances


def test_packed_decision_agrees_with_the_per_test_loop(small_bounds):
    # the empty source on each domain and every 1- and 2-arm source of the
    # search, with its join-form lift and three lifts that are not initial
    # (the empty source's meet is no interior map), with the search's
    # memoised arms and floors; verify_initiality, which builds its own,
    # on the empty and 1-arm sources
    ctx = SearchContext(small_bounds)
    test_grounds = grounds_within(small_bounds)
    outcomes = set()
    empty = [{"domain": dom, "arms": []} for dom in ctx.grounds]
    for case in empty + list(CLAIMS["initiality"][0](ctx)):
        dom = case["domain"]
        s = StructuredSource(dom, tuple((arm["morphism"], arm["interior"]) for arm in case["arms"]))
        tests = ctx[_test_morphisms, dom]
        arms = [ctx[_arm, g, target] for g, target in s.arms]
        per_arm = [initial_interior(g, target) for g, target in s.arms]
        lifts = {"discrete": discrete(dom), "least": least(dom)}
        if per_arm:
            lifts.update(join=join_interiors(per_arm), meet=meet_interiors(per_arm))
        for name, lift in lifts.items():
            looped = naive_initiality_walk(tests, tuple(enumerate(lift.images)), arms)
            assert initiality_violation(tests, lift, arms, ctx.floors) == looped
            if not arms:
                # the empty source's lift is the least map, which the
                # discrete map is only on a two-set ground
                assert (looped is None) == (lift == least(dom))
            if len(arms) <= 1:
                verdict = verify_initiality(s, lift, test_grounds=test_grounds)
                assert verdict.witness == (looped and looped[1])
                directions = 2 * len(tests) if looped is None else 2 * looped[0] + 1 + (looped[1]["direction"] == "if")
                assert verdict.checked == directions
            outcomes.add((len(arms), name, looped and looped[1]["direction"]))
    assert {(arity, "join", None) for arity in (1, 2)} <= outcomes
    assert {(2, "meet", "if"), (2, "discrete", "only-if"), (2, "least", "if"), (1, "least", "if")} <= outcomes
    assert {(0, "least", None), (0, "discrete", "only-if")} <= outcomes


def test_zero_arm_initiality_bundle_replays_clean(one_point_c3):
    case = {"domain": fio.ground_to_json(one_point_c3), "arms": []}
    assert replay({"property": "initiality", "case": case, "witness": {}}).status == "no-counterexample"


def test_continuity_constraints_characterize(one_point_c3):
    g = identity_morphism(one_point_c3)
    values = one_point_c3.index.values
    for target in spaces_on(one_point_c3):
        pairs = continuity_constraints(g, target)
        for candidate in enumerate_interior_maps(one_point_c3):
            expected = is_continuous(g, candidate, target).ok
            derived = all(
                leq_values(one_point_c3, values[c], candidate.apply_values(values[w])) for w, c in pairs
            )
            assert expected == derived


# -- preservation ------------------------------------------------------------------------

def test_preserves_idempotency_identity(one_point_c3):
    g = identity_morphism(one_point_c3)
    assert preserves_idempotency_check(g, discrete(one_point_c3))


def test_preserves_idempotency_all_small(small_bounds):
    grounds = grounds_within(small_bounds)
    for dom in grounds:
        for cod in grounds:
            for g in all_morphisms(dom, cod):
                for target in spaces_on(cod):
                    if not is_idempotent(target):
                        continue
                    assert preserves_idempotency_check(g, target)


def test_preserves_precondition_failure(two_point_c3):
    from test_interior import slipping_map

    g = identity_morphism(two_point_c3)
    target = slipping_map(two_point_c3)
    with pytest.raises(PropertyPreconditionFailed):
        preserves_idempotency_check(g, target)


def test_preserves_full_productivity_small(one_point_c3, one_point_c2):
    for dom in (one_point_c3, one_point_c2):
        for cod in (one_point_c3, one_point_c2):
            for g in all_morphisms(dom, cod):
                for target in spaces_on(cod):
                    assert preserves_full_productivity_check(g, target)


# -- open sets under morphisms ---------------------------------------------------------------

def test_preimage_of_open_is_open_exhaustive(one_point_c3, one_point_c2):
    for dom in (one_point_c3, one_point_c2):
        for cod in (one_point_c3, one_point_c2):
            for g in all_morphisms(dom, cod):
                for src in spaces_on(dom):
                    for dst in spaces_on(cod):
                        if not is_continuous(g, src, dst):
                            continue
                        for v in open_sets(dst):
                            assert preimage_of_open_is_open(g, src, dst, v)


def test_preimage_check_requires_continuity(one_point_c3):
    g = identity_morphism(one_point_c3)
    src = least(one_point_c3)
    dst = discrete(one_point_c3)
    v = one_point_c3.index.position[one_point_c3.fuzzy(["1/2"]).values]
    with pytest.raises(NotContinuous):
        preimage_of_open_is_open(g, src, dst, v)


def test_preimage_check_refuses_a_position_off_the_codomain(one_point_c3):
    g = identity_morphism(one_point_c3)
    space = discrete(one_point_c3)
    for v in (-1, 3):
        with pytest.raises(GroundMismatch, match=f"position {v} is not on the codomain's index"):
            preimage_of_open_is_open(g, space, space, v)


# -- meet interchange -------------------------------------------------------------------------

def test_meet_interchange_holds_on_chains(c2, godel3, luk3):
    for l_alg, m_alg in product((c2, godel3, luk3), repeat=2):
        X = Ground(("x1",), l_alg)
        Y = Ground(("y1", "y2"), m_alg)
        for g in all_morphisms(X, Y):
            assert meet_interchange_report(g)


def test_meet_interchange_fails_on_join_tensor_diamond(diamond_join, godel3):
    # valid morphism (join and tensor coincide) that is not meet-preserving:
    # the two atoms land on 1/2 and 1, so their meet rises from bottom to 1/2
    from fuzzint.monoid import CQML
    from fuzzint.lattice import chain_lattice

    c3_join = CQML(lattice=chain_lattice(["0", "1/2", "1"]), tensor=chain_lattice(["0", "1/2", "1"]).join2)
    X = Ground(("x1",), c3_join)
    Y = Ground(("y1",), diamond_join)
    g = validate_ground_morphism(
        X, Y, {"x1": "y1"}, {"bot": "0", "a": "1/2", "b": "1", "top": "1"}
    )
    verdict = meet_interchange_report(g)
    assert not verdict.ok
    # every part of the witness names its elements
    assert verdict.witness == {
        "family": [{"y1": "a"}, {"y1": "b"}],
        "backward_of_meet": {"x1": "0"},
        "meet_of_backwards": {"x1": "1/2"},
    }


def test_study_canonical_lift_openness_reported(small_bounds, capsys):
    """The canonical lift provably makes its morphism continuous; whether it
    is also open is measured here and reported, never asserted."""
    open_count = 0
    total = 0
    for dom in grounds_within(small_bounds):
        for cod in grounds_within(small_bounds):
            for g in all_morphisms(dom, cod):
                for target in spaces_on(cod):
                    lifted = initial_interior(g, target)
                    total += 1
                    if is_open_morphism(g, lifted, target):
                        open_count += 1
    print(f"study: canonical lift open for {open_count}/{total} enumerated instances")
    assert total > 0


# -- the closing group remark ------------------------------------------------------------------

def test_bihomeomorphisms_close_under_composition_and_inverse(one_point_c3, two_point_c2):
    """Bijective morphisms continuous and open in both directions form a
    group on each space: closed under composition and inverses."""
    for ground in (one_point_c3, two_point_c2):
        for space in spaces_on(ground):
            autos = []
            n_pts, n_lat = len(ground.points), len(ground.lattice)
            for g in all_morphisms(ground, ground):
                if sorted(g.f) != list(range(n_pts)):
                    continue
                if sorted(g.phi_op) != list(range(n_lat)):
                    continue
                inv = GroundMorphism(
                    dom=ground,
                    cod=ground,
                    f=tuple(g.f.index(i) for i in range(n_pts)),
                    phi_op=tuple(g.phi_op.index(i) for i in range(n_lat)),
                )
                if (
                    is_continuous(g, space, space)
                    and is_open_morphism(g, space, space)
                    and is_continuous(inv, space, space)
                    and is_open_morphism(inv, space, space)
                ):
                    autos.append(g)
            keys = {a for a in autos}
            for a in autos:
                inv = GroundMorphism(
                    dom=ground,
                    cod=ground,
                    f=tuple(a.f.index(i) for i in range(n_pts)),
                    phi_op=tuple(a.phi_op.index(i) for i in range(n_lat)),
                )
                assert inv in keys
                for b in autos:
                    assert compose(a, b) in keys
