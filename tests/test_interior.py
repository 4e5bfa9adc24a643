import pytest
from conftest import unvalidated

from fuzzint.errors import CarrierMismatch, GroundMismatch, NotAnInteriorMap, NotGLGround, TopMissingFromTopology
from fuzzint.interior import (
    InteriorMap,
    check_interior_axioms,
    closure_from_topology,
    discrete,
    interior_from_topology,
    is_fully_productive,
    is_idempotent,
    is_productive,
    join_interiors,
    least,
    literal_trivial,
    ltopology,
    meet_interiors,
    open_sets,
)
from fuzzint.powerset import Ground, powerset
from fuzzint.search import enumerate_interior_maps


def fuzzy(ground, *names):
    return ground.fuzzy(list(names))


# -- axioms -------------------------------------------------------------------

def test_identity_passes(one_point_c3):
    verdict = check_interior_axioms(unvalidated(one_point_c3, lambda u: u))
    assert verdict.ok


def test_drop_half_passes(one_point_c3):
    table = {(0,): (0,), (1,): (0,), (2,): (2,)}
    assert check_interior_axioms(unvalidated(one_point_c3, table)).ok


def test_expand_half_fails_contraction(one_point_c3):
    table = {(0,): (0,), (1,): (2,), (2,): (2,)}
    verdict = check_interior_axioms(unvalidated(one_point_c3, table))
    assert not verdict.ok
    assert verdict.witness["axiom"] == "I1"
    assert verdict.witness["u"] == {"p1": "1/2"}


def test_monotonicity_violation_detected(two_point_c3):
    # keep (0,1) in place but drop the larger (1,1) to (0,0)
    table = {u: u for u in two_point_c3.all_value_tuples()}
    table[(1, 1)] = (0, 0)
    verdict = check_interior_axioms(unvalidated(two_point_c3, table))
    assert not verdict.ok
    assert verdict.witness["axiom"] == "I2"
    assert verdict.witness["u"] == {"p1": "0", "p2": "1/2"}
    assert verdict.witness["v"] == {"p1": "1/2", "p2": "1/2"}


def test_top_violation(one_point_c3):
    table = {(0,): (0,), (1,): (1,), (2,): (1,)}
    verdict = check_interior_axioms(unvalidated(one_point_c3, table))
    assert not verdict.ok
    assert verdict.witness["axiom"] == "I3"


def test_image_outside_the_powerset_rejected(one_point_c3):
    table = {(0,): (0,), (1,): (0, 0), (2,): (2,)}
    with pytest.raises(CarrierMismatch, match=r"image \(0, 0\) of \(1,\)"):
        InteriorMap.from_table(one_point_c3, table)


def test_missing_or_unknown_row_rejected(one_point_c3):
    with pytest.raises(CarrierMismatch, match=r"no row for \(1,\)"):
        InteriorMap.from_table(one_point_c3, {(0,): (0,), (2,): (2,)})
    with pytest.raises(CarrierMismatch, match=r"row \(1, 1\) is not"):
        InteriorMap.from_table(one_point_c3, {(0,): (0,), (1,): (0,), (2,): (2,), (1, 1): (0,)})


def test_table_failing_the_axioms_raises_with_witness(one_point_c3):
    with pytest.raises(NotAnInteriorMap) as error:
        InteriorMap.from_table(one_point_c3, {(0,): (0,), (1,): (2,), (2,): (2,)})
    assert error.value.witness == {"axiom": "I1", "u": {"p1": "1/2"}, "image": {"p1": "1"}}


# -- discrete / least / literal trivial ------------------------------------------

def test_discrete_is_identity(one_point_c3):
    d = discrete(one_point_c3)
    for u in one_point_c3.all_value_tuples():
        assert d.apply_values(u) == u
    assert check_interior_axioms(d).ok


def test_least_table(one_point_c3):
    l = least(one_point_c3)
    assert l.table() == {(0,): (0,), (1,): (0,), (2,): (2,)}
    assert check_interior_axioms(l).ok


def test_literal_trivial_fails_contraction_at_half(one_point_c3):
    verdict = check_interior_axioms(literal_trivial(one_point_c3))
    assert not verdict.ok
    assert verdict.witness["axiom"] == "I1"
    assert verdict.witness["u"] == {"p1": "1/2"}


def test_literal_trivial_degenerates_to_identity_on_two_chain(one_point_c2):
    # with no middle elements the uncorrected map happens to be harmless
    assert check_interior_axioms(literal_trivial(one_point_c2)).ok


def test_least_below_every_interior_map(one_point_c3, two_point_c2, two_point_c3):
    for ground in (one_point_c3, two_point_c2, two_point_c3):
        l = least(ground)
        d = discrete(ground)
        for imap in enumerate_interior_maps(ground):
            for u in ground.all_value_tuples():
                assert ground.leq_values(l.apply_values(u), imap.apply_values(u))
                assert ground.leq_values(imap.apply_values(u), d.apply_values(u))


def test_contraction_and_top_force_bottom_fixed(one_point_c3, two_point_c3):
    for ground in (one_point_c3, two_point_c3):
        bot = ground.bottom_set().values
        for imap in enumerate_interior_maps(ground):
            assert imap.apply_values(bot) == bot


# -- joins and meets of interior maps ---------------------------------------------

def test_join_singleton(one_point_c3):
    l = least(one_point_c3)
    assert join_interiors([l]).images == l.images


def test_meet_with_discrete_is_identity_on_argument(one_point_c3):
    for imap in enumerate_interior_maps(one_point_c3):
        met = meet_interiors([discrete(one_point_c3), imap])
        assert met.images == imap.images


def test_join_of_two_maps_pointwise(one_point_c3):
    a = InteriorMap.from_table(one_point_c3, {(0,): (0,), (1,): (0,), (2,): (2,)})
    b = InteriorMap.from_table(one_point_c3, {(0,): (0,), (1,): (1,), (2,): (2,)})
    j = join_interiors([a, b])
    assert j.apply_values((1,)) == (1,)
    assert check_interior_axioms(j).ok


def test_ground_mismatch_rejected(one_point_c3, two_point_c3):
    with pytest.raises(GroundMismatch):
        join_interiors([discrete(one_point_c3), discrete(two_point_c3)])
    with pytest.raises(GroundMismatch):
        join_interiors([])


def test_operator_lattice_complete(one_point_c3, two_point_c2):
    """Every subset of the enumerated maps has interior join and meet."""
    for ground in (one_point_c3, two_point_c2):
        maps = list(enumerate_interior_maps(ground))
        for family in powerset(maps):
            if not family:
                continue
            assert check_interior_axioms(join_interiors(family)).ok
            assert check_interior_axioms(meet_interiors(family)).ok


# -- predicates ---------------------------------------------------------------

def test_discrete_idempotent_fully_productive(two_point_c3):
    d = discrete(two_point_c3)
    assert is_idempotent(d)
    assert is_productive(d)
    assert is_fully_productive(d)


def test_least_idempotent(two_point_c3):
    assert is_idempotent(least(two_point_c3))


def test_drop_half_idempotent_and_fully_productive(one_point_c3):
    imap = InteriorMap.from_table(one_point_c3, {(0,): (0,), (1,): (0,), (2,): (2,)})
    assert is_idempotent(imap)
    assert is_fully_productive(imap)


def slipping_map(two_point_c3):
    """Valid interior map that drops the middle square one step down."""
    table = {u: u for u in two_point_c3.all_value_tuples()}
    table[(1, 0)] = (0, 0)
    table[(0, 1)] = (0, 0)
    table[(1, 1)] = (0, 1)
    return InteriorMap.from_table(two_point_c3, table)


def test_non_idempotent_witness(two_point_c3):
    imap = slipping_map(two_point_c3)
    verdict = is_idempotent(imap)
    assert not verdict.ok
    assert verdict.witness["u"] == {"p1": "1/2", "p2": "1/2"}


def test_productive_failure_witness(two_point_c3):
    imap = slipping_map(two_point_c3)
    verdict = is_productive(imap)
    assert not verdict.ok
    # (1/2,1) meet (1,1/2) lands on the slipped square
    assert not is_fully_productive(imap).ok


def test_fully_productive_equals_binary_within_bounds(one_point_c3, two_point_c2):
    for ground in (one_point_c3, two_point_c2):
        for imap in enumerate_interior_maps(ground):
            assert bool(is_productive(imap)) == bool(is_fully_productive(imap))


# -- open sets ------------------------------------------------------------------

def test_open_sets_discrete(two_point_c2):
    assert len(open_sets(discrete(two_point_c2))) == two_point_c2.set_count()


def test_open_sets_least(two_point_c3):
    opens = open_sets(least(two_point_c3))
    assert opens == frozenset({two_point_c3.top_set(), two_point_c3.bottom_set()})


def test_open_sets_of_topology_interior(one_point_c3):
    tau = ltopology(one_point_c3, [(0,), (2,)])
    assert tau.join_closed
    imap = interior_from_topology(tau)
    assert {s.values for s in open_sets(imap)} == {(0,), (2,)}


# -- topologies -----------------------------------------------------------------

def test_full_powerset_topology_gives_discrete(one_point_c3):
    tau = ltopology(one_point_c3, list(one_point_c3.all_value_tuples()))
    assert interior_from_topology(tau).images == discrete(one_point_c3).images


def test_two_element_topology_gives_least(one_point_c3):
    tau = ltopology(one_point_c3, [(0,), (2,)])
    assert interior_from_topology(tau).images == least(one_point_c3).images


def test_example_interior_table(one_point_c3):
    tau = ltopology(one_point_c3, [(0,), (2,)])
    imap = interior_from_topology(tau)
    assert imap.table() == {(0,): (0,), (1,): (0,), (2,): (2,)}


def test_topology_needs_top(one_point_c3):
    with pytest.raises(TopMissingFromTopology):
        ltopology(one_point_c3, [(0,)])


def test_topology_interiors_always_idempotent(one_point_c3, two_point_c2):
    for ground in (one_point_c3, two_point_c2):
        tuples = list(ground.all_value_tuples())
        top = tuples[-1]
        for family in powerset(tuples):
            opens = set(family) | {top}
            imap = interior_from_topology(ltopology(ground, opens))
            assert is_idempotent(imap)


def test_interior_from_open_sets_below_original(one_point_c3, two_point_c2):
    for ground in (one_point_c3, two_point_c2):
        for imap in enumerate_interior_maps(ground):
            tau = ltopology(ground, [s.values for s in open_sets(imap)])
            derived = interior_from_topology(tau)
            for u in ground.all_value_tuples():
                assert ground.leq_values(derived.apply_values(u), imap.apply_values(u))
            if is_idempotent(imap) and tau.join_closed:
                assert derived.images == imap.images


# -- closures -------------------------------------------------------------------

def test_closure_examples_extensional(one_point_c3, godel3):
    tau = ltopology(one_point_c3, [(0,), (2,)])
    table = closure_from_topology(tau, godel3, "extensional")
    bot = one_point_c3.bottom_set()
    top = one_point_c3.top_set()
    assert table[bot].values == bot.values
    assert table[top].values == top.values
    half = one_point_c3.fuzzy(["1/2"])
    assert table[half].values == top.values


def test_closure_literal_mode_not_extensive(one_point_c3, godel3):
    tau = ltopology(one_point_c3, [(0,), (2,)])
    table = closure_from_topology(tau, godel3, "literal")
    half = one_point_c3.fuzzy(["1/2"])
    # the literal reading sends 1/2 to 0: it is not above its argument
    assert table[half].values == (0,)


def test_closure_extensional_always_extensive(godel3, luk3):
    for algebra in (godel3, luk3):
        for nx in (1, 2):
            ground = Ground(tuple(f"p{i+1}" for i in range(nx)), algebra)
            tuples = list(ground.all_value_tuples())
            top = tuples[-1]
            for family in powerset(tuples):
                opens = set(family) | {top}
                tau = ltopology(ground, opens)
                table = closure_from_topology(tau, algebra, "extensional")
                for u, cu in table.items():
                    assert u.leq(cu)


def test_closure_requires_gl(one_point_c3, diamond_join):
    tau = ltopology(one_point_c3, [(2,)])
    with pytest.raises(NotGLGround):
        closure_from_topology(tau, diamond_join, "extensional")
