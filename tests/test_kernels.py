"""The morphism-layer kernels against their oracles: the cover-edge sweep
for least interiors, the equality fast path of the initiality kernel, the
prefix fold of full productivity, and composites built once per search."""

from itertools import product

import pytest
from conftest import naive_initiality_violation, naive_is_fully_productive, naive_least_above
from hypothesis import find, given, settings
from hypothesis import strategies as st
from test_index import BASES, GROUNDS, PROPERTY
from test_morphism_index import PAIRS

from fuzzint.continuity import (
    Arm,
    StructuredSource,
    _least_above,
    compose,
    initial_from_source,
    initiality_violation,
)
from fuzzint.interior import (
    FULL_SUBSET_LIMIT,
    InteriorMap,
    check_interior_axioms,
    discrete,
    is_fully_productive,
    join_interiors,
    least,
    meet_interiors,
)
from fuzzint.powerset import Ground, GroundMorphism, all_morphisms
from fuzzint.search import SearchBounds, SearchContext, builtin_algebra, enumerate_interior_maps

HOMS = {(dom, cod): morphisms for dom, cod, morphisms in PAIRS}
# every interior map where the full subset scan runs, the bases elsewhere
MAPS = {
    ground: list(enumerate_interior_maps(ground))
    if 2 ** ground.set_count() <= FULL_SUBSET_LIMIT
    else [InteriorMap(ground, images) for images in BASES[ground]]
    for ground in GROUNDS
}


# -- least interiors above constraints --------------------------------------------

@st.composite
def constraint_sets(draw):
    """A ground and position pairs (w, c) with c below w."""
    ground = draw(st.sampled_from(GROUNDS))
    down = ground.index.down
    pairs = []
    for w in draw(st.lists(st.integers(0, ground.set_count() - 1), max_size=8)):
        below = [c for c in range(w + 1) if down[w] >> c & 1]
        pairs.append((w, draw(st.sampled_from(below))))
    return ground, pairs


@settings(PROPERTY, max_examples=400)
@given(constraint_sets())
def test_least_above_matches_pair_scan(case):
    ground, pairs = case
    images = _least_above(ground, pairs)
    assert images == naive_least_above(ground, pairs)
    assert check_interior_axioms(InteriorMap(ground, images)).ok
    down = ground.index.down
    assert all(down[images[w]] >> c & 1 for w, c in pairs)


# -- the initiality kernel ------------------------------------------------------

LIFTS = ("correct", "join", "meet", "least", "discrete")


@st.composite
def sources_with_test_morphisms(draw):
    """A one- or two-arm source, its join-form lift or a perturbation of
    it (joined or met with another map, or the least or discrete map), and
    a test morphism into the domain, from the domain itself in about half
    the draws."""
    domain = draw(st.sampled_from(GROUNDS))
    arms = []
    for _ in range(draw(st.integers(1, 2))):
        cod = draw(st.sampled_from(GROUNDS))
        g = draw(st.sampled_from(HOMS[domain, cod]))
        arms.append((g, InteriorMap(cod, draw(st.sampled_from(BASES[cod])))))
    lift = initial_from_source(StructuredSource(domain, tuple(arms)))
    how = draw(st.sampled_from(LIFTS))
    if how in ("join", "meet"):
        other = InteriorMap(domain, draw(st.sampled_from(BASES[domain])))
        lift = (join_interiors if how == "join" else meet_interiors)([lift, other])
    elif how != "correct":
        lift = (least if how == "least" else discrete)(domain)
    z = draw(st.sampled_from(GROUNDS) | st.just(domain))
    g_test = draw(st.sampled_from(HOMS[z, domain]))
    return g_test, tuple(enumerate(lift.images)), arms


def _kernel(case, violation):
    g_test, lift_pairs, arms = case
    return violation(g_test, lift_pairs, [Arm(g, target) for g, target in arms])


@settings(PROPERTY, max_examples=500)
@given(sources_with_test_morphisms())
def test_initiality_fast_path_matches_scans(case):
    assert _kernel(case, initiality_violation) == _kernel(case, naive_initiality_violation)


@pytest.mark.parametrize("direction", [None, "only-if", "if"])
def test_initiality_cases_reach_every_outcome(direction):
    def reaches(case):
        found = _kernel(case, naive_initiality_violation)
        return (found and found["direction"]) == direction

    assert find(sources_with_test_morphisms(), reaches, settings=PROPERTY)


# -- full productivity ----------------------------------------------------------

interior_maps = st.sampled_from(GROUNDS).flatmap(lambda ground: st.sampled_from(MAPS[ground]))


@settings(PROPERTY, max_examples=300)
@given(interior_maps)
def test_fully_productive_fold_matches_subset_scan(i):
    assert is_fully_productive(i) == naive_is_fully_productive(i)


@pytest.mark.parametrize("ok", [True, False])
def test_fully_productive_cases_reach_both_outcomes(ok):
    assert find(interior_maps, lambda i: naive_is_fully_productive(i).ok == ok, settings=PROPERTY)


# -- composites -----------------------------------------------------------------

C2_LUK3 = [Ground(points, builtin_algebra(name)) for name in ("c2", "lukasiewicz3") for points in (("p1",), ("p1", "p2"))]


def test_composite_backward_is_backward_of_the_legs():
    homs = {(a, b): list(all_morphisms(a, b)) for a in C2_LUK3 for b in C2_LUK3}
    pairs = 0
    for a, b, c in product(C2_LUK3, repeat=3):
        for g1, g2 in product(homs[a, b], homs[b, c]):
            assert compose(g2, g1).backward == tuple(g1.backward[v] for v in g2.backward)
            pairs += 1
    assert pairs == 468


def test_search_context_builds_one_composite_per_pair():
    ctx = SearchContext(SearchBounds(algebras=("c2", "lukasiewicz3")))
    for a, b, c in product(ctx.grounds, repeat=3):
        for g1, g2 in product(all_morphisms(a, b), all_morphisms(b, c)):
            first = ctx.composite(g2, g1)
            assert first == compose(g2, g1)
            # equal legs built afresh find the same object
            assert ctx.composite(*(GroundMorphism(g.dom, g.cod, g.f, g.phi_op) for g in (g2, g1))) is first
