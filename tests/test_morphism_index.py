"""The morphism layer on index positions against the fuzzy-set oracles:
continuity, openness, initial interiors and meet interchange."""

import pytest
from conftest import (
    naive_initial_interior,
    naive_is_continuous,
    naive_is_open_morphism,
    naive_meet_interchange_report,
)
from hypothesis import find, given, settings
from hypothesis import strategies as st
from test_index import BASES, GROUNDS, PROPERTY

from fuzzint.continuity import (
    initial_interior,
    is_continuous,
    is_open_morphism,
    meet_interchange_report,
)
from fuzzint.interior import InteriorMap
from fuzzint.lattice import chain_lattice, diamond_lattice
from fuzzint.monoid import join_tensor
from fuzzint.powerset import Ground, all_morphisms, vb_backward

# every pair of the 1-2-point grounds, with the morphisms between them
PAIRS = [(dom, cod, list(all_morphisms(dom, cod))) for dom in GROUNDS for cod in GROUNDS]
# join-tensor grounds, where backward need not preserve meets
C3_JOIN = join_tensor(chain_lattice(["0", "1/2", "1"]))
DIAMOND_JOIN = join_tensor(diamond_lattice())
JOIN_PAIRS = [
    (dom, cod, list(all_morphisms(dom, cod)))
    for dom, cod in (
        (Ground(("x1",), C3_JOIN), Ground(("y1",), DIAMOND_JOIN)),
        (Ground(("x1",), C3_JOIN), Ground(("y1", "y2"), DIAMOND_JOIN)),
        (Ground(("x1", "x2"), C3_JOIN), Ground(("y1",), DIAMOND_JOIN)),
    )
]
CHECKS = {
    "continuity": (is_continuous, naive_is_continuous),
    "openness": (is_open_morphism, naive_is_open_morphism),
}


@st.composite
def morphism_spaces(draw):
    """A morphism with an interior map on each end."""
    dom, cod, morphisms = draw(st.sampled_from(PAIRS))
    g = draw(st.sampled_from(morphisms))
    src = InteriorMap(dom, draw(st.sampled_from(BASES[dom])))
    dst = InteriorMap(cod, draw(st.sampled_from(BASES[cod])))
    return g, src, dst


def morphisms_of(pairs):
    return st.sampled_from(pairs).flatmap(lambda pair: st.sampled_from(pair[2]))


@settings(PROPERTY, max_examples=300)
@given(morphism_spaces())
def test_continuity_and_openness_match_oracle(case):
    for fast, naive in CHECKS.values():
        assert fast(*case) == naive(*case)


@pytest.mark.parametrize("prop", sorted(CHECKS))
@pytest.mark.parametrize("ok", [True, False])
def test_morphism_cases_reach_both_outcomes(prop, ok):
    naive = CHECKS[prop][1]
    assert find(morphism_spaces(), lambda case: naive(*case).ok == ok, settings=PROPERTY)


@settings(PROPERTY, max_examples=200)
@given(morphism_spaces())
def test_initial_interior_matches_oracle(case):
    g, _, dst = case
    assert initial_interior(g, dst).images == naive_initial_interior(g, dst).images


@settings(PROPERTY, max_examples=150)
@given(morphisms_of(PAIRS + JOIN_PAIRS))
def test_meet_interchange_matches_oracle(g):
    assert meet_interchange_report(g, max_family=2) == naive_meet_interchange_report(g, max_family=2)


@pytest.mark.parametrize("ok", [True, False])
def test_meet_interchange_cases_reach_both_outcomes(ok):
    assert find(
        morphisms_of(PAIRS + JOIN_PAIRS),
        lambda g: naive_meet_interchange_report(g, max_family=2).ok == ok,
        settings=PROPERTY,
    )


def test_meet_interchange_diamond_join_failures_match_oracle():
    failures = 0
    for _, _, morphisms in JOIN_PAIRS:
        for g in morphisms:
            expected = naive_meet_interchange_report(g, max_family=2)
            assert meet_interchange_report(g, max_family=2) == expected
            failures += not expected.ok
    assert failures


@pytest.mark.parametrize("pair", PAIRS[::7] + JOIN_PAIRS, ids=lambda p: f"{p[0]!r}->{p[1]!r}")
def test_backward_positions_match_vb_backward(pair):
    dom, cod, morphisms = pair
    for g in morphisms:
        for b, v in enumerate(cod.all_sets()):
            assert dom.index.values[g.backward[b]] == vb_backward(g, v).values
