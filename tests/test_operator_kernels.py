"""The interior-operator kernels against their oracles: the per-point
count, the counted and unranked sample, the packed upset and downset words,
and the per-search verdict memo and bulk pairs of operator-lattice-closure."""

import json
import time
from itertools import combinations, islice
from math import prod
from operator import itemgetter

import pytest
from conftest import (
    join_values,
    meet_values,
    naive_check_operator_lattice,
    naive_gen_operator_lattice,
    naive_initial_interior,
    naive_interior_sample,
    unvalidated,
)
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from test_index import BASES, GROUNDS, PROPERTY, TOP_FIRST, TOP_FIRST_GROUNDS, candidate_tables, ground_id

import fuzzint.search as fsearch
from fuzzint import io
from fuzzint.errors import BoundsExceeded
from fuzzint.continuity import StructuredSource, initial_from_source
from fuzzint.interior import (
    InteriorMap,
    check_interior_axioms,
    folded_word,
    join_interiors,
    least,
    map_of_word,
    meet_interiors,
)
from fuzzint.powerset import Ground, Verdict
from fuzzint.search import (
    SearchBounds,
    SearchContext,
    _check_operator_lattice,
    builtin_algebra,
    count_interior_maps,
    enumerate_interior_maps,
    grounds_within,
    interior_sample,
    replay,
    search,
)

ONE, TWO = ("p1",), ("p1", "p2")
SEVEN = tuple(f"p{i}" for i in range(1, 8))
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


# -- the per-point count --------------------------------------------------------

@pytest.mark.parametrize("ground", COUNTED, ids=ground_id)
def test_count_matches_the_stream(ground):
    # the axioms are pointwise: the maps are every combination of the
    # functions u -> I(u)(x) the stream shows at each point x
    values = ground.index.values
    shown = [set() for _ in ground.points]
    n = 0
    for imap in enumerate_interior_maps(ground, WIDE):
        n += 1
        for functions, column in zip(shown, zip(*itemgetter(*imap.images)(values))):
            functions.add(column)
    assert prod(map(len, shown)) == n
    assert count_interior_maps(ground, WIDE) == n
    assert count_interior_maps(ground, SearchBounds(max_tables=n)) == n
    if n > 1:
        with pytest.raises(BoundsExceeded, match=f"more than {n - 1} interior maps"):
            count_interior_maps(ground, SearchBounds(max_tables=n - 1))


@pytest.mark.parametrize(
    "name, points",
    [("c2", n) for n in (1, 2, 3, 4)]
    + [("godel3", n) for n in (1, 2, 3)]
    + [(name, 2) for name in ("godel4", "diamond-join", "diamond-meet")]
    + [("pentagon-meet", n) for n in (1, 2)],
)
def test_every_point_has_one_count_and_the_maps_number_its_power(name, points):
    # swapping two coordinates of L^X carries one point's functions onto
    # another's; each point's list is walked in full, coatoms included
    ground = Ground(tuple(f"p{i + 1}" for i in range(points)), builtin_algebra(name))
    up, per_point = fsearch._point_candidates(ground)
    covers = ground.index.covers
    lengths = {
        sum(1 for _ in fsearch._backtrack(candidates, up, covers, range(len(covers) - 1)))
        for candidates in per_point
    }
    assert len(lengths) == 1
    assert count_interior_maps(ground, SearchBounds(max_tables=10**10)) == lengths.pop() ** points


# Dedekind numbers: the monotone Boolean functions of 0..4 variables
DEDEKIND = (2, 3, 6, 20, 168)


@pytest.mark.parametrize("n, expected", [(1, 1), (2, 4), (3, 125), (4, 130_321), (5, 129_891_985_607)])
def test_c2_counts_match_the_dedekind_numbers(n, expected):
    # at a point x, I(u)(x) is 1 only if u(x) is: a monotone function of
    # the other n - 1 points that is 1 at top, any but the constant 0
    assert expected == (DEDEKIND[n - 1] - 1) ** n
    ground = Ground(tuple(f"p{i + 1}" for i in range(n)), builtin_algebra("c2"))
    assert count_interior_maps(ground, SearchBounds(max_tables=expected)) == expected
    if expected > 1:
        with pytest.raises(BoundsExceeded, match=f"more than {expected - 1} interior maps"):
            count_interior_maps(ground, SearchBounds(max_tables=expected - 1))


@pytest.mark.parametrize(
    "name, points, expected",
    [("pentagon-meet", 2, 600_593_049), ("godel3", 3, 7_645_373_000)],
)
def test_counts_beyond_enumeration_are_pinned_and_quick(name, points, expected):
    # 24,507 ** 2 and 1,970 ** 3: the stream would take minutes
    ground = Ground(tuple(f"p{i + 1}" for i in range(points)), builtin_algebra(name))
    start = time.monotonic()
    assert count_interior_maps(ground, SearchBounds(max_tables=expected)) == expected
    with pytest.raises(BoundsExceeded, match=f"more than {expected - 1} interior maps"):
        count_interior_maps(ground, SearchBounds(max_tables=expected - 1))
    assert time.monotonic() - start < 2.0


def test_count_and_stream_both_refuse_a_ground_past_the_cap():
    # pentagon-meet on two points has 600,593,049 interior maps
    ground = Ground(TWO, builtin_algebra("pentagon-meet"))
    capped = SearchBounds(max_tables=5000)
    with pytest.raises(BoundsExceeded, match="more than 5000 interior maps"):
        count_interior_maps(ground, capped)
    with pytest.raises(BoundsExceeded, match="more than 5000 interior maps"):
        sum(1 for _ in enumerate_interior_maps(ground, capped))


# -- the streamed sample -------------------------------------------------------

@pytest.mark.parametrize("ground", GROUNDS, ids=ground_id)
def test_sample_matches_list_and_stride(ground):
    bounds = SearchBounds()
    least_images = (0,) * (ground.set_count() - 1) + (ground.set_count() - 1,)
    discrete_images = tuple(range(ground.set_count()))
    try:
        maps = list(enumerate_interior_maps(ground, bounds))
    except BoundsExceeded:
        # the stream passes the cap, but a sample lists only each point's
        # functions, and refuses only once one point's count passes it
        per_point = fsearch._point_count(ground, bounds.max_tables, None)
        sample = interior_sample(ground, bounds)
        assert [sample[0].images, sample[-1].images] == [least_images, discrete_images]
        assert interior_sample(ground, SearchBounds(max_tables=per_point)) == sample
        with pytest.raises(BoundsExceeded, match=f"more than {per_point - 1} functions at one point of this ground"):
            interior_sample(ground, SearchBounds(max_tables=per_point - 1))
        return
    for size in (2, 3, 4, 8):
        sample = interior_sample(ground, SearchBounds(operator_sample=size))
        assert sample == naive_interior_sample(maps, size)
        assert [sample[0].images, sample[-1].images] == [least_images, discrete_images]


@pytest.mark.parametrize(
    "name, points",
    [("diamond-join", 2), ("diamond-meet", 2), ("pentagon-meet", 1), ("godel4", 2), ("lukasiewicz3", 2)],
)
def test_unranked_sample_matches_a_stride_through_the_stream(name, points):
    # a stride of the listed stream, taken in one walk of it
    ground = Ground(tuple(f"p{i + 1}" for i in range(points)), builtin_algebra(name))
    total = count_interior_maps(ground, WIDE)
    sizes = (2, 4, 64, 400)
    wanted = {size: naive_interior_sample(range(total), size) for size in sizes}
    kept = set().union(*wanted.values())
    stream = {k: imap for k, imap in enumerate(enumerate_interior_maps(ground, WIDE)) if k in kept}
    for size in sizes:
        sample = interior_sample(ground, SearchBounds(max_tables=10**6, operator_sample=size))
        assert sample == [stream[k] for k in wanted[size]]


def test_sample_builds_only_the_kept_maps(monkeypatch, two_point_c3):
    built = []

    class Counted(InteriorMap):
        __slots__ = ()

        def __init__(self, ground, images):
            built.append(images)
            super().__init__(ground, images)

    monkeypatch.setattr(fsearch, "InteriorMap", Counted)
    sample = interior_sample(two_point_c3, SearchBounds(operator_sample=4))
    assert count_interior_maps(two_point_c3) == 400
    assert [m.images for m in sample] == built
    assert len(built) == 4


# -- the packed words -----------------------------------------------------------

WORD_GROUNDS = GROUNDS + TOP_FIRST_GROUNDS


@st.composite
def word_families(draw):
    """One to four maps on a ground of ``WORD_GROUNDS``, each a start of
    its stream or a map broken by ``candidate_tables``."""
    ground = draw(st.sampled_from(WORD_GROUNDS))
    members = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            members.append(InteriorMap(ground, draw(st.sampled_from(BASES[ground]))))
        else:
            members.append(unvalidated(ground, draw(candidate_tables(ground))[1]))
    return ground, members


@settings(PROPERTY, max_examples=300)
@given(word_families())
def test_anded_words_decode_to_the_pointwise_join_and_meet(case):
    ground, members = case
    for how, oracle in (("join", join_values), ("meet", meet_values)):
        combined = map_of_word(ground, how, folded_word(members, how))
        assert combined.table() == pointwise(oracle, ground, members)


def pointwise(oracle, ground, members) -> dict:
    """{u: the oracle's join or meet of the members' images of u}."""
    tables = [m.table() for m in members]
    return {u: oracle(ground, [t[u] for t in tables]) for u in ground.index.values}


@st.composite
def interior_families(draw):
    """One to four interior maps on a ground of ``WORD_GROUNDS``."""
    ground = draw(st.sampled_from(WORD_GROUNDS))
    picks = draw(st.lists(st.sampled_from(BASES[ground]), min_size=1, max_size=4))
    return ground, [InteriorMap(ground, images) for images in picks]


@settings(PROPERTY, max_examples=100)
@given(interior_families())
def test_joins_and_meets_of_interior_maps_are_the_pointwise_ones(case):
    ground, members = case
    assert join_interiors(members).table() == pointwise(join_values, ground, members)
    assert meet_interiors(members).table() == pointwise(meet_values, ground, members)


LIFT_ARMS = {dom: fsearch._arm_family(SearchContext(SearchBounds()), dom) for dom in grounds_within(SearchBounds())}


@pytest.mark.parametrize("count", [1, 2])
@settings(PROPERTY, max_examples=50)
@given(data=st.data())
def test_the_initial_lift_is_the_pointwise_join_of_the_arms_initials(count, data):
    dom = data.draw(st.sampled_from(list(LIFT_ARMS)))
    arms = data.draw(st.lists(st.sampled_from(LIFT_ARMS[dom]), min_size=count, max_size=count))
    lift = initial_from_source(StructuredSource(dom, tuple((arm["morphism"], arm["interior"]) for arm in arms)))
    initials = [naive_initial_interior(arm["morphism"], arm["interior"]) for arm in arms]
    assert lift.table() == pointwise(join_values, dom, initials)


def test_word_families_hold_maps_that_fail_the_axioms():
    assert find(word_families(), lambda case: any(not check_interior_axioms(m).ok for m in case[1]), settings=PROPERTY)


# 81 and 128 fields: more than the 64 that words pack and cut per block
BLOCK_GROUNDS = [Ground(("p1", "p2", "p3", "p4"), builtin_algebra("godel3")), Ground(SEVEN, builtin_algebra("c2"))]


@pytest.mark.parametrize("ground", WORD_GROUNDS + BLOCK_GROUNDS, ids=ground_id)
def test_words_of_each_enumerated_map_decode_to_its_images(ground):
    # the first 5,000 maps where the stream is longer (pentagon-meet on two
    # points has 600,593,049)
    index = ground.index
    width = len(index.values)
    for imap in islice(enumerate_interior_maps(ground, WIDE), 5000):
        up, down = imap.words
        assert up == sum(index.up[image] << a * width for a, image in enumerate(imap.images))
        assert down == sum(index.down[image] << a * width for a, image in enumerate(imap.images))
        assert index.join_positions(up) == imap.images
        assert index.meet_positions(down) == imap.images


def test_word_memo_tells_grounds_apart():
    # images at bottom and top only pack into the same words on the chain and
    # on the square, and fail contraction at position 1 on both, which the
    # two grounds name differently
    chain, square = Ground(ONE, builtin_algebra("godel4")), Ground(TWO, builtin_algebra("c2"))
    images = (0, 3, 0, 3)
    assert InteriorMap(chain, images).words == InteriorMap(square, images).words
    ctx = SearchContext(SearchBounds())
    found = []
    for ground in (chain, square):
        members = [InteriorMap(ground, images)]
        found.append(_check_operator_lattice({"kind": "subset", "ground": ground, "members": members}, ctx))
        assert found[-1] == naive_check_operator_lattice(ground, members)
    assert found == [
        {"operation": "join", "axiom": "I1", "u": {"p1": "1/3"}, "image": {"p1": "1"}},
        {"operation": "join", "axiom": "I1", "u": {"p1": "0", "p2": "1"}, "image": {"p1": "1", "p2": "1"}},
    ]


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
        case = {"kind": "subset", "ground": ground, "members": members}
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
        found = _check_operator_lattice({"kind": "subset", "ground": ground, "members": members}, ctx)
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


# -- the pairs of operator-lattice-closure, decided a ground at a time ---------

@settings(PROPERTY, max_examples=300)
@given(candidate_tables())
def test_a_map_passes_iff_it_passes_at_each_point(case):
    # the lemma behind the bulk pairs: the axioms hold point by point, so a
    # map passes iff, at every point x, the map that agrees with it at x and
    # with the identity elsewhere passes (candidate_tables reaches every
    # verdict, see test_index)
    ground, table = case
    at = [unvalidated(ground, lambda u, x=x: u[:x] + table[u][x:x + 1] + u[x + 1:]) for x in range(len(ground.points))]
    assert check_interior_axioms(unvalidated(ground, table)).ok == all(check_interior_axioms(m).ok for m in at)


@pytest.mark.parametrize(
    "ground",
    [Ground(("p1", "p2", "p3"), builtin_algebra("c2")), Ground(TWO, builtin_algebra("godel3")), *TOP_FIRST_GROUNDS],
    ids=ground_id,
)
def test_near_maps_agree_with_the_identity_off_their_point(ground):
    maps = list(enumerate_interior_maps(ground))
    values = ground.index.values
    off = lambda x, a: values[a][:x] + values[a][x + 1:]  # noqa: E731
    assert fsearch._near_maps(SearchContext(SearchBounds()), ground) == [
        [m for m in maps if all(off(x, a) == off(x, b) for a, b in enumerate(m.images))] for x in range(len(ground.points))
    ]


def _distinct_near_maps(ground):
    """The maps near at some point, each once, in the order the search
    checks them as a family."""
    return list(dict.fromkeys(m for group in fsearch._near_maps(SearchContext(SearchBounds()), ground) for m in group))


@pytest.mark.parametrize(
    "ground",
    [
        Ground(("p1", "p2", "p3"), builtin_algebra("c2")),
        Ground(TWO, builtin_algebra("godel3")),
        Ground(TWO, builtin_algebra("lukasiewicz3")),
        Ground(ONE, builtin_algebra("diamond-join")),
        *TOP_FIRST_GROUNDS,
    ],
    ids=ground_id,
)
def test_near_maps_join_and_meet_to_the_whole_grounds(ground):
    # at each point the distinct near maps carry every function and the
    # projection, so their pointwise join and meet are those of every map
    near = _distinct_near_maps(ground)
    maps = list(enumerate_interior_maps(ground))
    assert join_interiors(near) == join_interiors(maps)
    assert meet_interiors(near) == meet_interiors(maps)


def _scanned(bounds, monkeypatch):
    """The search with one case per pair, as the oracle generates them."""
    _, *rest = fsearch.CLAIMS["operator-lattice-closure"]
    with monkeypatch.context() as patch:
        patch.setitem(fsearch.CLAIMS, "operator-lattice-closure", (naive_gen_operator_lattice, *rest))
        return search("operator-lattice-closure", bounds)


@pytest.mark.parametrize(
    "bounds",
    [
        SearchBounds(),
        SearchBounds(algebras=("c2",), max_carrier=3),
        SearchBounds(algebras=("godel3", "diamond-join", "diamond-meet", "pentagon-meet"), max_carrier=1),
    ],
    ids=["default", "c2-3-points", "1-point"],
)
def test_bulk_pairs_match_the_pair_scan(bounds, monkeypatch):
    result = search("operator-lattice-closure", bounds)
    assert result.ok
    assert result == _scanned(bounds, monkeypatch)


def test_a_ground_past_12_maps_is_decided_as_pairs_and_the_whole_ground(monkeypatch):
    # godel5 with 1 point has 14 maps: 91 pairs and the whole ground, where
    # every family would be 16,383
    bounds = SearchBounds(algebras=("godel5",), max_carrier=1)
    result = search("operator-lattice-closure", bounds)
    assert (result.ok, result.instances) == (True, 14 * 13 // 2 + 1)
    assert result == _scanned(bounds, monkeypatch)


def _rejecting(monkeypatch, ground, rejected):
    """Make the axiom check reject the map with these images on the ground."""
    real = fsearch.check_interior_axioms

    def rejecting(imap):
        if (imap.ground, imap.images) == (ground, rejected):
            return Verdict(False, "interior-axioms", {"axiom": "I2", "rejected": True}, 1)
        return real(imap)

    monkeypatch.setattr(fsearch, "check_interior_axioms", rejecting)


C2_UP_TO_3 = SearchBounds(algebras=("c2",), max_carrier=3)


def test_the_failing_near_pair_is_the_counterexample(monkeypatch):
    # the checker rejects the join of two maps that differ from the
    # identity at the last point only: that pair, the first whose join or
    # meet is rejected, is the counterexample, after the 1 + 15 families of
    # the smaller grounds
    ground = grounds_within(C2_UP_TO_3)[-1]
    index = ground.index
    values = index.values
    near = [m for m in enumerate_interior_maps(ground) if all(values[a][:-1] == values[b][:-1] for a, b in enumerate(m.images))]
    combined = lambda a, b: (tuple(map(index.join, zip(a.images, b.images))), tuple(map(index.meet, zip(a.images, b.images))))  # noqa: E731
    rejected = next(joined for a, b in combinations(near, 2) if (joined := combined(a, b)[0]) not in (a.images, b.images))
    pair = next([a, b] for a, b in combinations(near, 2) if rejected in combined(a, b))
    _rejecting(monkeypatch, ground, rejected)
    result = search("operator-lattice-closure", C2_UP_TO_3)
    assert (result.status, result.instances) == ("counterexample", 17)
    assert result.bundle["case"] == io.case_to_json({"kind": "pair", "ground": ground, "members": pair})
    assert result.bundle["witness"] == {"operation": "join", "axiom": "I2", "rejected": True}
    assert replay(json.loads(json.dumps(result.bundle))).bundle == result.bundle


def test_a_failing_whole_ground_is_the_near_family(monkeypatch):
    # only the meet of every map reaches the least map on three points, so
    # when the checker rejects it every near pair passes, and the family of
    # all distinct near maps is the counterexample
    ground = grounds_within(C2_UP_TO_3)[-1]
    _rejecting(monkeypatch, ground, least(ground).images)
    result = search("operator-lattice-closure", C2_UP_TO_3)
    assert (result.status, result.instances) == ("counterexample", 17)
    near = _distinct_near_maps(ground)
    assert result.bundle["case"] == io.case_to_json({"kind": "subset", "ground": ground, "members": near})
    assert result.bundle["witness"] == {"operation": "meet", "axiom": "I2", "rejected": True}
    assert replay(json.loads(json.dumps(result.bundle))).bundle == result.bundle
