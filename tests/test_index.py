"""The powerset index against the value-tuple oracles: bitmask joins and
meets, the cover-edge axiom check and the index-based enumerator."""

from itertools import islice

import pytest
from conftest import (
    join_values,
    leq_values,
    meet_values,
    naive_check_interior_axioms,
    naive_enumerate_interior_maps,
    unvalidated,
)
from hypothesis import find, given, settings
from hypothesis import strategies as st

from fuzzint.errors import NotAnInteriorMap
from fuzzint.interior import InteriorMap, check_interior_axioms, discrete
from fuzzint.lattice import validate_lattice
from fuzzint.monoid import godel_tensor
from fuzzint.powerset import Ground
from fuzzint.search import builtin_algebra, count_interior_maps, enumerate_interior_maps

ALGEBRAS = ("c2", "godel3", "lukasiewicz3", "diamond-meet", "pentagon-meet")
GROUNDS = [
    Ground(points, builtin_algebra(name))
    for name in ALGEBRAS
    for points in (("p1",), ("p1", "p2"))
]
# a three-element chain whose elements are listed top first
TOP_FIRST = godel_tensor(validate_lattice(("1", "1/2", "0"), [("0", "1/2"), ("1/2", "1")], closure=True))
TOP_FIRST_GROUNDS = [Ground(points, TOP_FIRST) for points in (("p1",), ("p1", "p2"))]
# starting points for candidates: the least and discrete maps and a
# stride through the start of each ground's stream
BASES = {
    ground: [i.images for i in islice(enumerate_interior_maps(ground), 0, 2000, 50)]
    + [discrete(ground).images]
    for ground in GROUNDS + TOP_FIRST_GROUNDS
}
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@pytest.mark.parametrize("ground", GROUNDS, ids=repr)
def test_bitmask_join_and_meet_match_pointwise(ground):
    index = ground.index
    values = index.values
    assert values[index.join(())] == join_values(ground, ())
    assert values[index.meet(())] == meet_values(ground, ())
    for a, u in enumerate(values):
        for b, v in enumerate(values):
            assert values[index.join((a, b))] == join_values(ground, (u, v))
            assert values[index.meet((a, b))] == meet_values(ground, (u, v))


@PROPERTY
@given(st.sampled_from(GROUNDS).flatmap(lambda g: st.tuples(st.just(g), st.lists(st.sampled_from(range(g.set_count()))))))
def test_bitmask_join_and_meet_of_families(case):
    ground, family = case
    index = ground.index
    members = [index.values[a] for a in family]
    assert index.values[index.join(family)] == join_values(ground, members)
    assert index.values[index.meet(family)] == meet_values(ground, members)


@st.composite
def candidate_tables(draw, ground=None):
    """An interior map with one to four entries overwritten: mostly below
    the top and by another value below the argument, so that the
    monotonicity scan is reached, else anywhere and by any value.  The
    ground is drawn from ``GROUNDS`` unless one is given."""
    if ground is None:
        ground = draw(st.sampled_from(GROUNDS))
    values = ground.index.values
    top = len(values) - 1
    images = [values[i] for i in draw(st.sampled_from(BASES[ground]))]
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 4)):
            a = draw(st.integers(0, top - 1))
            pool = [v for v in values if leq_values(ground, v, values[a]) and v != images[a]]
        else:
            a = draw(st.integers(0, top))
            pool = list(values)
        if pool:
            images[a] = draw(st.sampled_from(pool))
    return ground, dict(zip(values, images))


def _axiom(verdict):
    return verdict.witness["axiom"] if verdict.witness else "pass"


@settings(PROPERTY, max_examples=300)
@given(candidate_tables())
def test_axiom_check_matches_pair_scan_oracle(case):
    ground, table = case
    expected = naive_check_interior_axioms(ground, table)
    candidate = unvalidated(ground, table)
    assert check_interior_axioms(candidate) == expected
    calls = []

    def rule(u):
        calls.append(u)
        return table[u]

    # from_rule calls the rule once per value tuple, in index order, and
    # then validates
    if expected.ok:
        assert InteriorMap.from_rule(ground, rule) == candidate
    else:
        with pytest.raises(NotAnInteriorMap) as error:
            InteriorMap.from_rule(ground, rule)
        assert error.value.witness == expected.witness
    assert calls == list(ground.index.values)


@pytest.mark.parametrize("axiom", ["I1", "I2", "I3", "pass"])
def test_candidate_tables_reach_every_verdict(axiom):
    found = find(
        candidate_tables(),
        lambda case: _axiom(naive_check_interior_axioms(*case)) == axiom,
        settings=PROPERTY,
    )
    assert found is not None


@pytest.mark.parametrize("ground", GROUNDS, ids=repr)
def test_enumeration_stream_matches_oracle_in_order(ground):
    values = ground.index.values
    limit = 500
    stream = [tuple(values[i] for i in m.images) for m in islice(enumerate_interior_maps(ground), limit)]
    assert stream == list(islice(naive_enumerate_interior_maps(ground), limit))


def test_lattice_listed_top_first_keeps_a_linear_extension():
    assert TOP_FIRST.lattice.ascending == (2, 1, 0)
    for points, count in ((("p1",), 2), (("p1", "p2"), 400)):
        ground = Ground(points, TOP_FIRST)
        assert ground.index.values[0] == (2,) * len(points)
        assert count_interior_maps(ground) == count
        for imap in enumerate_interior_maps(ground):
            assert naive_check_interior_axioms(ground, imap).ok
