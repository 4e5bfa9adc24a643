"""The morphism layer on index positions against the value-tuple oracles:
backward and its right adjoint, continuity, openness, initial interiors
and meet interchange."""

import pytest
from conftest import (
    all_value_tuples,
    naive_backward,
    naive_initial_interior,
    naive_is_continuous,
    naive_is_open_morphism,
    naive_meet_interchange_report,
    naive_right_adjoint,
)
from hypothesis import find, given, settings
from hypothesis import strategies as st
from test_index import BASES, GROUNDS, PROPERTY

from fuzzint.continuity import (
    _scan,
    continuity_bound,
    initial_interior,
    is_continuous,
    is_open_morphism,
    meet_interchange_report,
    openness_bound,
    passes_bound,
)
from fuzzint.interior import InteriorMap, discrete, least
from fuzzint.lattice import chain_lattice, diamond_lattice
from fuzzint.monoid import join_tensor
from fuzzint.powerset import Ground, all_morphisms
from fuzzint.search import (
    SearchBounds,
    _assembled,
    _point_functions,
    builtin_algebra,
    enumerate_interior_maps,
    grounds_within,
)

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
# the chains on one and two points, the five-element lattices on one
ADJOINT_GROUNDS = [ground for ground in GROUNDS if len(ground.lattice) <= 3 or len(ground.points) == 1]
ADJOINT_PAIRS = [pair for pair in PAIRS if pair[0] in ADJOINT_GROUNDS and pair[1] in ADJOINT_GROUNDS]
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


# the default grounds, and one point of each non-chain base: the grounds,
# and the (g, src, dst) count of each mode
WORD_GROUNDS = {
    "default": (grounds_within(SearchBounds()), 212_247),
    "non-chain": ([Ground(("p1",), builtin_algebra(name)) for name in ("diamond-join", "diamond-meet", "pentagon-meet")], 1_308),
}


def _padded_sources(dom: Ground, pad: int) -> list:
    """Each point's functions, the other points taking function ``pad`` of
    their list (0, the least function, or -1, the discrete one): every
    interior map on one point, one map per (point, function) on more."""
    functions = _point_functions(dom)
    padding = [listed[pad] for listed in functions]
    return [
        _assembled(dom, padding[:x] + [function] + padding[x + 1 :])
        for x, listed in enumerate(functions)
        for function in listed
    ]


@pytest.mark.parametrize("grounds, triples", WORD_GROUNDS.values(), ids=WORD_GROUNDS)
def test_word_tests_match_the_scan_on_every_triple(grounds, triples):
    # continuity: the source's upset word has no bit outside the floor's;
    # openness: its downset word has no bit outside the ceiling's.  Each
    # agrees with the scan on every (g, dst) over all interior maps, from
    # every source on one point.  Both are conjunctions over the domain's
    # points, so on more points each point's functions are checked alone:
    # the others take the discrete function, which passes every floor, for
    # continuity and the least, below every ceiling, for openness
    maps = {ground: list(enumerate_interior_maps(ground)) for ground in grounds}
    modes = {"continuity": (-1, 0, continuity_bound), "openness": (0, 1, openness_bound)}
    seen = dict.fromkeys(modes, 0)
    disagree = 0
    for dom in grounds:
        assert _assembled(dom, [listed[0] for listed in _point_functions(dom)]) == least(dom)
        assert _assembled(dom, [listed[-1] for listed in _point_functions(dom)]) == discrete(dom)
        sources = {prop: _padded_sources(dom, pad) for prop, (pad, _, _) in modes.items()}
        for cod in grounds:
            for g in all_morphisms(dom, cod):
                for dst in maps[cod]:
                    for prop, (_, which, build) in modes.items():
                        bound = build(g, dst)
                        for src in sources[prop]:
                            seen[prop] += 1
                            disagree += passes_bound(src.words[which], bound) != _scan(g, src, dst, prop).ok
    assert (seen, disagree) == (dict.fromkeys(modes, triples), 0)


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
    assert meet_interchange_report(g) == naive_meet_interchange_report(g, max_family=2)


@pytest.mark.parametrize("ok", [True, False])
def test_meet_interchange_cases_reach_both_outcomes(ok):
    assert find(
        morphisms_of(PAIRS + JOIN_PAIRS),
        lambda g: naive_meet_interchange_report(g, max_family=2).ok == ok,
        settings=PROPERTY,
    )


def test_meet_interchange_diamond_join_failures_match_oracle():
    # binary families decide: families of three members never add a failure
    failures = 0
    for _, _, morphisms in JOIN_PAIRS:
        for g in morphisms:
            expected = naive_meet_interchange_report(g, max_family=2)
            assert meet_interchange_report(g) == expected
            assert naive_meet_interchange_report(g, max_family=3).ok == expected.ok
            failures += not expected.ok
    assert failures


@pytest.mark.parametrize("pair", PAIRS[::7] + JOIN_PAIRS, ids=lambda p: f"{p[0]!r}->{p[1]!r}")
def test_backward_positions_match_naive_backward(pair):
    dom, cod, morphisms = pair
    for g in morphisms:
        for b, v in enumerate(all_value_tuples(cod)):
            assert dom.index.values[g.backward[b]] == naive_backward(g, v)


@pytest.mark.parametrize("pair", ADJOINT_PAIRS, ids=lambda p: f"{p[0]!r}->{p[1]!r}")
def test_right_adjoint_positions_match_naive_right_adjoint(pair):
    # the cached positions, and the Galois connection with backward:
    # backward(b) <= a iff b <= right_adjoint(a)
    dom, cod, morphisms = pair
    position, values = cod.index.position, dom.index.values
    dom_down, cod_down = dom.index.down, cod.index.down
    for g in morphisms:
        ra, bw = g.right_adjoint, g.backward
        assert ra == tuple(position[naive_right_adjoint(g, u)] for u in values)
        for a in range(len(values)):
            assert [dom_down[a] >> bw[b] & 1 for b in range(len(bw))] == [cod_down[ra[a]] >> b & 1 for b in range(len(bw))]
