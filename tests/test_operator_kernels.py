"""The interior-operator kernels against their oracles: the coatom-product
count, the counted and streamed sample, and the per-search verdict memo of
operator-lattice-closure."""

import pytest
from conftest import naive_check_operator_lattice, naive_interior_sample, unvalidated
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from test_index import BASES, GROUNDS, PROPERTY, TOP_FIRST, candidate_tables

import fuzzint.search as fsearch
from fuzzint.errors import BoundsExceeded
from fuzzint.interior import InteriorMap
from fuzzint.powerset import Ground
from fuzzint.search import (
    SearchBounds,
    SearchContext,
    _check_operator_lattice,
    builtin_algebra,
    count_interior_maps,
    enumerate_interior_maps,
    grounds_within,
    interior_sample,
    search,
)

ONE, TWO = ("p1",), ("p1", "p2")
COUNTED = (
    [
        Ground(points, builtin_algebra(name))
        for name in ("c2", "godel3", "lukasiewicz3", "godel4", "diamond-meet", "pentagon-meet")
        for points in (ONE, TWO)
        if (name, points) != ("pentagon-meet", TWO)
    ]
    + [Ground(("p1", "p2", "p3"), builtin_algebra("c2")), Ground(("p1", "p2", "p3", "p4"), builtin_algebra("c2"))]
    + [Ground(points, TOP_FIRST) for points in (ONE, TWO)]
)
WIDE = SearchBounds(max_tables=10**6)


# -- the coatom-product count --------------------------------------------------

@pytest.mark.parametrize("ground", COUNTED, ids=repr)
def test_count_matches_the_stream(ground):
    n = sum(1 for _ in enumerate_interior_maps(ground, WIDE))
    assert count_interior_maps(ground, WIDE) == n
    assert count_interior_maps(ground, SearchBounds(max_tables=n)) == n
    if n > 1:
        with pytest.raises(BoundsExceeded, match=f"more than {n - 1} interior maps"):
            count_interior_maps(ground, SearchBounds(max_tables=n - 1))


def test_count_and_stream_both_refuse_a_ground_past_the_cap():
    # pentagon-meet on two points has 600,593,049 interior maps
    ground = Ground(TWO, builtin_algebra("pentagon-meet"))
    capped = SearchBounds(max_tables=5000)
    with pytest.raises(BoundsExceeded, match="more than 5000 interior maps"):
        count_interior_maps(ground, capped)
    with pytest.raises(BoundsExceeded, match="more than 5000 interior maps"):
        sum(1 for _ in enumerate_interior_maps(ground, capped))


# -- the streamed sample -------------------------------------------------------

@pytest.mark.parametrize("ground", GROUNDS, ids=repr)
def test_sample_matches_list_and_stride(ground):
    bounds = SearchBounds()
    try:
        maps = list(enumerate_interior_maps(ground, bounds))
    except BoundsExceeded:
        with pytest.raises(BoundsExceeded):
            interior_sample(ground, bounds)
        return
    for size in (2, 3, 4, 8):
        sample = interior_sample(ground, SearchBounds(operator_sample=size))
        assert sample == naive_interior_sample(maps, size)
        assert sample[0].images == (0,) * (ground.set_count() - 1) + (ground.set_count() - 1,)
        assert sample[-1].images == tuple(range(ground.set_count()))


# -- the verdict memo ----------------------------------------------------------

# the other grounds with as many fuzzy sets, where the same image
# positions make another map
TWINS = {g: [h for h in GROUNDS if h != g and h.set_count() == g.set_count()] for g in GROUNDS}


@st.composite
def family_runs(draw):
    """Member families checked in turn by one search context: up to four
    families over the grounds, about half of them with a member broken by
    ``candidate_tables``, each now and then followed by the same image
    positions on a twin ground; then a run of picks among them, so that a
    family, failing or not, often comes round again."""
    families = []
    for _ in range(draw(st.integers(1, 4))):
        ground = draw(st.sampled_from(GROUNDS))
        members = [InteriorMap(ground, draw(st.sampled_from(BASES[ground]))) for _ in range(draw(st.integers(0, 3)))]
        if draw(st.booleans()) or not members:
            _, table = draw(candidate_tables(ground))
            members.insert(draw(st.integers(0, len(members))), unvalidated(ground, table))
        families.append((ground, members))
        if TWINS[ground] and draw(st.booleans()):
            twin = draw(st.sampled_from(TWINS[ground]))
            families.append((twin, [InteriorMap(twin, m.images) for m in members]))
    picks = draw(st.lists(st.integers(0, len(families) - 1), min_size=1, max_size=8))
    return [families[k] for k in picks]


@settings(PROPERTY, max_examples=200)
@given(family_runs())
def test_memoised_check_matches_fold_and_check_oracle(run):
    ctx = SearchContext(SearchBounds())
    for ground, members in run:
        case = {"kind": "subset", "_ground": ground, "_members": members}
        assert _check_operator_lattice(case, ctx) == naive_check_operator_lattice(ground, members)


def test_family_runs_meet_a_failing_family_twice():
    def repeats_a_failure(run):
        failing = [(ground, tuple(m.images for m in members)) for ground, members in run
                   if naive_check_operator_lattice(ground, members) is not None]
        return len(failing) > len(set(failing))

    assert find(family_runs(), repeats_a_failure, settings=settings(PROPERTY, phases=[Phase.generate])) is not None


def test_memo_tells_grounds_apart():
    # the same image positions: monotone and contractive on the chain, but
    # on the square they send (1, 0) to (0, 1)
    chain, square = Ground(ONE, builtin_algebra("godel4")), Ground(TWO, builtin_algebra("c2"))
    images = (0, 0, 1, 3)
    ctx = SearchContext(SearchBounds())
    for ground in (chain, square):
        members = [InteriorMap(ground, images)]
        found = _check_operator_lattice({"kind": "subset", "_ground": ground, "_members": members}, ctx)
        assert found == naive_check_operator_lattice(ground, members)
    assert found == {"operation": "join", "axiom": "I1", "u": {"p1": "1", "p2": "0"}, "image": {"p1": "0", "p2": "1"}}


def test_search_checks_each_combined_map_once(monkeypatch):
    checked = []
    real = fsearch.check_interior_axioms

    def counting(imap):
        checked.append((imap.ground, imap.images))
        return real(imap)

    monkeypatch.setattr(fsearch, "check_interior_axioms", counting)
    bounds = SearchBounds(algebras=("c2",), max_carrier=3)
    result = search("operator-lattice-closure", bounds)
    assert result.ok and result.instances == 7767
    assert len(checked) == len(set(checked))
    assert len(checked) <= sum(count_interior_maps(g) for g in grounds_within(bounds))
