import inspect
import json
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from conftest import all_value_tuples, leq_values
import fuzzint.search as fsearch
from fuzzint import io as fio
from fuzzint.errors import BoundsExceeded, MalformedBundle, UnknownProperty
from fuzzint.interior import InteriorMap, check_interior_axioms, discrete, least
from fuzzint.powerset import Ground, GroundMorphism
from fuzzint.search import (
    CLAIMS,
    SearchBounds,
    SearchContext,
    bounds_from_env,
    builtin_algebra,
    checker_for,
    count_interior_maps,
    enumerate_interior_maps,
    grounds_within,
    interior_sample,
    replay,
    search,
)


def naive_interior_maps(ground):
    """Generate-and-filter oracle over the full function space."""
    tuples = list(all_value_tuples(ground))
    top = tuples[-1]
    found = []
    for images in product(tuples, repeat=len(tuples)):
        table = dict(zip(tuples, images))
        if table[top] != top:
            continue
        if any(not leq_values(ground, table[u], u) for u in tuples):
            continue
        if any(
            leq_values(ground, u, v) and not leq_values(ground, table[u], table[v])
            for u in tuples
            for v in tuples
        ):
            continue
        found.append(tuple(table[u] for u in tuples))
    return found


# -- enumeration ---------------------------------------------------------------

def test_counts_match_pinned_values(one_point_c2, one_point_c3, two_point_c2, two_point_c3):
    assert count_interior_maps(one_point_c2) == 1
    assert count_interior_maps(one_point_c3) == 2
    assert count_interior_maps(two_point_c2) == 4
    assert count_interior_maps(two_point_c3) == 400


def test_enumeration_complete_and_duplicate_free(one_point_c2, one_point_c3, two_point_c2):
    for ground in (one_point_c2, one_point_c3, two_point_c2):
        enumerated = [i.images for i in enumerate_interior_maps(ground)]
        position = ground.index.position
        oracle = [tuple(position[v] for v in sig) for sig in naive_interior_maps(ground)]
        assert len(enumerated) == len(set(enumerated))
        assert sorted(enumerated) == sorted(oracle)


def test_every_enumerated_map_is_interior(two_point_c3):
    for imap in enumerate_interior_maps(two_point_c3):
        assert check_interior_axioms(imap).ok


def test_max_tables_caps_the_stream(two_point_c3):
    assert len(list(enumerate_interior_maps(two_point_c3, SearchBounds(max_tables=400)))) == 400
    with pytest.raises(BoundsExceeded):
        list(enumerate_interior_maps(two_point_c3, SearchBounds(max_tables=399)))


def test_sample_is_deterministic_spread(two_point_c3):
    bounds = SearchBounds(operator_sample=4)
    sample1 = [i.images for i in interior_sample(two_point_c3, bounds)]
    sample2 = [i.images for i in interior_sample(two_point_c3, bounds)]
    assert sample1 == sample2
    assert len(sample1) == 4
    full = [i.images for i in enumerate_interior_maps(two_point_c3)]
    assert sample1[0] == full[0]  # the least map
    assert sample1[-1] == full[-1]  # the discrete map


def test_grounds_within_defaults():
    grounds = grounds_within(SearchBounds())
    assert [(len(g.points), len(g.lattice)) for g in grounds] == [
        (1, 2),
        (1, 3),
        (2, 2),
        (2, 3),
    ]


def test_grounds_of_one_name_share_one_algebra():
    names = ("c2", "lukasiewicz3", "diamond-join")
    grounds = grounds_within(SearchBounds(algebras=names, max_carrier=3))
    # small carriers first: every len(names)-th ground has the same name
    for k in range(len(names)):
        assert len({id(g.algebra) for g in grounds[k :: len(names)]}) == 1
    assert len({id(g.algebra) for g in grounds}) == len(names)


@pytest.mark.parametrize(
    "algebras, first, second",
    [(("c2", "godel2"), "c2", "godel2"), (("c2", "c2"), "c2", "c2"), (("godel3", "lukasiewicz2", "c2"), "lukasiewicz2", "c2")],
    ids=["c2-godel2", "c2-twice", "lukasiewicz2-c2"],
)
def test_names_of_one_algebra_are_refused(algebras, first, second):
    # each would check every case of the two-element chain twice
    detail = f"^bounds exceeded: algebras '{first}' and '{second}' build the same algebra$"
    with pytest.raises(BoundsExceeded, match=detail):
        grounds_within(SearchBounds(algebras=algebras))
    with pytest.raises(BoundsExceeded, match=detail):
        search("meet-interchange", SearchBounds(algebras=algebras))


def test_builtin_algebra_names():
    assert len(builtin_algebra("godel4").lattice) == 4
    assert len(builtin_algebra("lukasiewicz5").lattice) == 5
    assert builtin_algebra("diamond-meet").lattice.elements == ("bot", "a", "b", "top")
    with pytest.raises(BoundsExceeded):
        builtin_algebra("nonsense")


def test_bounds_env_parsing():
    b = bounds_from_env("max_carrier=1,algebras=c2+godel3+lukasiewicz3,time_budget=10")
    assert b.max_carrier == 1
    assert b.algebras == ("c2", "godel3", "lukasiewicz3")
    assert b.time_budget == 10.0
    assert bounds_from_env(None) == SearchBounds()
    with pytest.raises(BoundsExceeded):
        bounds_from_env("bogus=3")


@pytest.mark.parametrize(
    "update",
    [{"time_budget": float("nan")}, {"operator_sample": 1}, {"operator_sample": 0}, {"max_tables": -1}, {"algebras": ()}],
    ids=["nan-budget", "sample-1", "sample-0", "negative-tables", "no-algebras"],
)
def test_bounds_refuse_values_that_cannot_bound_a_search(update):
    with pytest.raises(BoundsExceeded):
        SearchBounds(**update)


@pytest.mark.parametrize("text", ["max_carrier=abc", "max_tables=1e5", "time_budget=soon", "operator_sample="])
def test_bounds_env_values_that_do_not_convert(text):
    with pytest.raises(BoundsExceeded, match=text.partition("=")[0]):
        bounds_from_env(text)


def test_sample_of_two_keeps_the_least_and_discrete_maps(two_point_c3):
    maps = interior_sample(two_point_c3, SearchBounds(operator_sample=2))
    assert [i.images for i in maps] == [least(two_point_c3).images, discrete(two_point_c3).images]


# -- search ---------------------------------------------------------------------

def test_unknown_property():
    with pytest.raises(UnknownProperty):
        search("no-such-property")


@pytest.mark.parametrize("prop", [["x"], {"p": 1}, None], ids=repr)
def test_a_property_that_is_not_a_string_is_unknown(prop):
    with pytest.raises(UnknownProperty):
        search(prop)


def test_literal_trivial_search_finds_half_witness():
    result = search("literal-trivial-interior")
    assert result.status == "counterexample"
    witness = result.bundle["witness"]
    assert witness["axiom"] == "I1"
    assert witness["u"] == {"p1": "1/2"}


def test_literal_trivial_clean_only_on_degenerate_ground():
    # one point over the two-chain leaves nothing strictly between the
    # bounds, so the uncorrected map collapses to the identity there
    result = search(
        "literal-trivial-interior", SearchBounds(max_carrier=1, algebras=("c2",))
    )
    assert result.status == "no-counterexample"
    # a second point already creates middle elements in the powerset
    wider = search("literal-trivial-interior", SearchBounds(algebras=("c2",)))
    assert wider.status == "counterexample"
    assert wider.bundle["witness"]["axiom"] == "I1"


BUNDLES = Path(__file__).parent / "data" / "bundles"


@pytest.mark.parametrize("name", CLAIMS)
def test_each_claim_has_its_expected_outcome_at_default_bounds(name, tmp_path):
    # a claim that must fail writes the committed bundle byte for byte, and
    # that bundle replays to its own witness
    out = tmp_path / "bundle.json"
    result = search(name, SearchBounds(), out=out)
    expected = CLAIMS[name][3]
    assert result.status == {"holds": "no-counterexample", "fails": "counterexample"}[expected]
    if expected == "fails":
        committed = BUNDLES / f"{name}.json"
        assert out.read_text() == committed.read_text()
        bundle = json.loads(committed.read_text())
        assert replay(bundle, BUNDLES).bundle["witness"] == bundle["witness"]


def _grounds(value) -> list:
    """Every ground a case, or a value in it, lies on."""
    if isinstance(value, Ground):
        return [value]
    if isinstance(value, InteriorMap):
        return [value.ground]
    if isinstance(value, GroundMorphism):
        return [value.dom, value.cod]
    values = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return [g for v in values for g in _grounds(v)]


@pytest.mark.parametrize("path", sorted(BUNDLES.glob("*.json")), ids=lambda path: path.stem)
def test_each_committed_bundle_is_minimal(path):
    # its case lies on 1 point, the fewest any search generates, and a
    # source without any one of its arms passes the claim's checker
    bundle = json.loads(path.read_text())
    case = fio.case_from_json(bundle["case"], BUNDLES)
    check = checker_for(bundle["property"], SearchContext(SearchBounds()))
    assert check(case) == bundle["witness"]
    assert {len(g.points) for g in _grounds(case)} == {1}
    arms = case.get("arms", [])
    for k in range(len(arms)):
        assert check({**case, "arms": arms[:k] + arms[k + 1:]}) is None


def test_meet_interchange_counterexample_with_join_tensor_diamond():
    bounds = SearchBounds(
        max_carrier=1, algebras=("godel3", "diamond-join")
    )
    result = search("meet-interchange", bounds)
    # godel3 -> diamond-join morphisms can only hit join-irreducible chains,
    # which stay meet-safe; the diamond -> godel3 direction breaks
    assert result.status == "counterexample"
    assert result.bundle["witness"]["family"]


def test_literal_meet_source_lift_counterexample():
    result = search("literal-meet-source-lift", SearchBounds(max_carrier=1))
    assert result.status == "counterexample"
    assert result.bundle["witness"]["stage"] == "arm-continuity"


def test_small_initiality_search_clean():
    result = search("initiality", SearchBounds(max_carrier=1))
    assert result.ok
    assert result.instances > 0


def test_preservation_searches_clean_small():
    bounds = SearchBounds(max_carrier=1)
    assert search("preservation-idempotent", bounds).ok
    assert search("preservation-fully-productive", bounds).ok


def test_composition_searches_clean_small():
    bounds = SearchBounds(max_carrier=1)
    assert search("composition-continuous", bounds).ok
    assert search("composition-open", bounds).ok
    assert search("open-preimage", bounds).ok


def test_operator_lattice_search_clean_small():
    bounds = SearchBounds(max_carrier=1)
    result = search("operator-lattice-closure", bounds)
    assert result.ok
    # subsets of the 1-element and 2-element map families
    assert result.instances == (2**1 - 1) + (2**2 - 1)


NON_CHAIN = SearchBounds(max_carrier=1, algebras=("diamond-join", "diamond-meet", "pentagon-meet"))


@pytest.mark.parametrize(
    "prop, instances, witness",
    [
        ("literal-trivial-interior", 1, {"axiom": "I1", "image": {"p1": "top"}, "u": {"p1": "a"}}),
        ("operator-lattice-closure", 1053, None),
        ("composition-continuous", 9803, None),
        ("composition-open", 4094, None),
        ("open-preimage", 1020, None),
        ("initiality", 2572, None),
        (
            "literal-meet-source-lift",
            5,
            {
                "arm": {"f": {"p1": "p1"}, "phi_op": {"a": "a", "b": "b", "bot": "bot", "top": "top"}},
                "arm_index": 1,
                "meet_lift_at_w": {"p1": "bot"},
                "required": {"p1": "b"},
                "stage": "arm-continuity",
                "w": {"p1": "b"},
            },
        ),
        ("preservation-idempotent", 109, None),
        ("preservation-fully-productive", 120, None),
        (
            "meet-interchange",
            3,
            {"backward_of_meet": {"p1": "bot"}, "family": [{"p1": "a"}, {"p1": "b"}], "meet_of_backwards": {"p1": "a"}},
        ),
    ],
)
def test_searches_on_non_chain_bases_are_pinned(prop, instances, witness):
    # the two diamonds and the pentagon on one point: every search's
    # verdict, instance count and witness
    result = search(prop, NON_CHAIN)
    assert (result.status, result.instances) == ("no-counterexample" if witness is None else "counterexample", instances)
    assert (result.bundle and result.bundle["witness"]) == witness


def test_time_budget_enforced():
    with pytest.raises(BoundsExceeded):
        search("operator-lattice-closure", SearchBounds(time_budget=1e-9))


def test_time_budget_bounds_case_generation():
    # building and deciding every continuous leg of this suite takes about
    # 4 s (2,695,971,805 cases); the budget must stop it there, not after
    # the legs are built
    bounds = SearchBounds(
        time_budget=0.5, operator_sample=256, algebras=("c2", "godel3", "lukasiewicz3")
    )
    start = time.monotonic()
    with pytest.raises(BoundsExceeded):
        search("composition-continuous", bounds)
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize(
    "bounds, prop, status, instances",
    [
        ("algebras=godel4", "initiality", "no-counterexample", 27_360),
        ("algebras=godel4", "open-preimage", "no-counterexample", 3_857),
        ("algebras=godel4", "preservation-idempotent", "no-counterexample", 180),
        ("algebras=godel4", "preservation-fully-productive", "no-counterexample", 200),
        ("algebras=pentagon-meet", "initiality", "no-counterexample", 13_440),
        ("algebras=pentagon-meet", "preservation-idempotent", "no-counterexample", 126),
        ("max_carrier=3", "open-preimage", "no-counterexample", 18_432),
        ("max_carrier=3", "preservation-idempotent", "no-counterexample", 834),
        ("max_carrier=3", "preservation-fully-productive", "no-counterexample", 982),
        ("max_carrier=3", "literal-meet-source-lift", "counterexample", 2_084),
    ],
)
def test_sampled_searches_reach_grounds_whose_maps_pass_the_cap(bounds, prop, status, instances):
    # at the default max_tables: a sample lists each point's functions, 686
    # on godel4 and 24,507 on pentagon-meet with 2 points and 1,970 on
    # godel3 with 3, not the 470,596, 600,593,049 and 7,645,373,000 maps
    result = search(prop, bounds_from_env(bounds))
    assert (result.status, result.instances) == (status, instances)


def test_operator_lattice_closure_refuses_a_ground_before_listing_it(monkeypatch):
    # godel3 with 3 points has 7,645,373,000 maps: the count refuses the
    # ground, and its stream is never started; nor is the stream of a ground
    # with more than 12 maps, whose pairs are decided from its near maps
    listed = []
    stream = fsearch.enumerate_interior_maps

    def recorded(ground, *args):
        listed.append(ground)
        return stream(ground, *args)

    monkeypatch.setattr(fsearch, "enumerate_interior_maps", recorded)
    bounds = SearchBounds(max_carrier=3)
    grounds = grounds_within(bounds)
    with pytest.raises(BoundsExceeded, match="^bounds exceeded: more than 100000 interior maps on this ground$"):
        search("operator-lattice-closure", bounds)
    assert listed == [g for g in grounds[:-1] if count_interior_maps(g) <= 12]
    assert [count_interior_maps(g) for g in listed] == [1, 2, 4]


def test_operator_lattice_closure_keeps_its_memory_flat_until_the_budget_runs_out():
    # pentagon-meet with 2 points has 600,593,049 maps, within max_tables,
    # and 24,507 functions at each point: the search holds its near maps
    # and decides their pairs until the budget stops it.  tracemalloc's
    # peak counts only what the search allocates; a child's ru_maxrss
    # would start at this process's own peak
    bounds = SearchBounds(algebras=("pentagon-meet",), max_tables=10**9, time_budget=2)
    tracemalloc.start()
    try:
        with pytest.raises(BoundsExceeded) as refused:
            search("operator-lattice-closure", bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "bounds exceeded: time budget 2s exhausted after 1023 cases"
    assert peak < 64 * 2**20


SAMPLE_REFUSALS = {
    "max-tables": ({}, "more than 100000 functions at one point of this ground"),
    "time-budget": ({"max_tables": 10**9, "time_budget": 1}, "time budget 1s exhausted after 0 cases"),
}


@pytest.mark.parametrize("extra, message", SAMPLE_REFUSALS.values(), ids=SAMPLE_REFUSALS)
def test_a_sample_keeps_its_memory_flat_until_it_refuses(extra, message):
    # godel4 with 3 points has more than 100,000 functions at each point,
    # of about 570 bytes each: a sample counts one point's functions
    # before it lists any, so neither the cap nor the budget is reached
    # holding a list.  tracemalloc's peak counts only what the search
    # allocates; a child's ru_maxrss would start at this process's own
    # peak
    bounds = SearchBounds(algebras=("godel4",), max_carrier=3, **extra)
    tracemalloc.start()
    try:
        with pytest.raises(BoundsExceeded) as refused:
            search("composition-continuous", bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"bounds exceeded: {message}"
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "prop, changes",
    [
        pytest.param("composition-continuous", {}, id="composition-continuous"),
        pytest.param("operator-lattice-closure", {}, id="operator-lattice-closure"),
        pytest.param("composition-continuous", {"max_carrier": 2, "operator_sample": 10**6}, id="oversized-sample"),
    ],
)
def test_time_budget_bounds_counting_and_enumerating_maps(prop, changes):
    # godel4 on 2 points carries 470,596 interior maps, whose near pairs
    # take about a second to decide (for the families), and which a sample
    # of a million keeps, built one by one for about 20 s; on 3 points one
    # point's counting walk
    # (for the sample) had not finished after 90 s on a 2-core host,
    # far below max_tables, so no luck fits any of these loops in the
    # budget and the budget must stop each
    bounds = SearchBounds(algebras=("godel4",), max_carrier=3, max_tables=10**9, time_budget=0.05).replace(**changes)
    start = time.monotonic()
    with pytest.raises(BoundsExceeded, match="time budget"):
        search(prop, bounds)
    assert time.monotonic() - start < 2.0


def test_walks_over_interior_maps_read_the_deadline_every_1024_maps():
    bounds = SearchBounds(max_tables=10**12)
    reads = {"count": 0, "enumerate": 0, "sample": 0}

    def expire(walk):
        def read():
            reads[walk] += 1
        return read

    # the enumeration reads once per 1,024 maps it yields
    c2_cube = grounds_within(SearchBounds(algebras=("c2",), max_carrier=4))[-1]
    assert sum(1 for _ in enumerate_interior_maps(c2_cube, bounds, expire("enumerate"))) == 130_321
    assert reads["enumerate"] == -(-130_321 // 1024)
    # godel3 on 3 points: 7,645,373,000 = 1,970 ** 3 maps, every point
    # having 1,970 functions.  The count walks one point, leaving out the
    # coatoms: 1,132 leaves, read before the first and the 1,025th.  The
    # sample counts the same way, then lists each point's 1,970
    # functions, read before the first and the 1,025th, and builds its 4
    # kept maps, read before the first
    ground = grounds_within(SearchBounds(algebras=("godel3",), max_carrier=3))[-1]
    assert count_interior_maps(ground, bounds, expire("count")) == 1970**3
    assert reads["count"] == 2
    assert len(interior_sample(ground, bounds, expire("sample"))) == 4
    assert reads["sample"] == 2 + 3 * 2 + 1


def test_a_sample_past_the_stream_is_the_whole_stream():
    # the sample keeps each index of the stream once, without a pass per
    # index it asks for
    bounds = SearchBounds(algebras=("c2", "godel3", "godel4", "diamond-join"), max_carrier=1, operator_sample=10**12)
    for ground in grounds_within(bounds):
        assert interior_sample(ground, bounds) == list(enumerate_interior_maps(ground, bounds))


@pytest.mark.parametrize("listing", ["test-morphisms", "arms", "preservation"])
def test_morphism_lists_read_the_deadline_every_1024_items(monkeypatch, listing):
    # c2 with 6 points has 6**6 = 46,656 morphisms into itself; with a
    # sample of 2 maps they make 93,312 arms
    reads = []
    monkeypatch.setattr(fsearch.SearchContext, "expire", lambda ctx: reads.append(ctx))
    ground = grounds_within(SearchBounds(algebras=("c2",), max_carrier=6))[-1]
    ctx = fsearch.SearchContext(SearchBounds(algebras=("c2",)))
    ctx.grounds = [ground]
    ctx[fsearch._sample, ground] = [least(ground), discrete(ground)]
    if listing == "test-morphisms":
        assert len(fsearch._test_morphisms(ctx, ground)) == 46_656
    elif listing == "arms":
        assert len(fsearch._arm_family(ctx, ground)) == 93_312
    else:
        next(fsearch._gen_preservation(ctx, fsearch.is_idempotent))
    listed = 93_312 if listing == "arms" else 46_656
    assert len(reads) == -(-listed // 1024)


def test_a_sample_past_the_cap_lists_no_function(monkeypatch):
    # c2 with 4 points has 19 functions at each point: the count refuses
    # a cap of 18 before any point's functions are listed
    listed = []
    real = fsearch._point_functions
    monkeypatch.setattr(fsearch, "_point_functions", lambda *args: listed.append(args) or real(*args))
    ground = grounds_within(SearchBounds(algebras=("c2",), max_carrier=4))[-1]
    with pytest.raises(BoundsExceeded, match="^bounds exceeded: more than 18 functions at one point of this ground$"):
        interior_sample(ground, SearchBounds(max_tables=18))
    assert listed == []
    assert len(interior_sample(ground, SearchBounds(max_tables=19))) == 4
    assert len(listed) == 1


def test_near_maps_read_the_deadline_every_1024_functions(monkeypatch):
    # godel3 on 3 points: 1,970 functions at each point, read before the
    # first and the 1,025th while each point's functions are listed, and
    # again while its near maps are built from them
    reads = []
    monkeypatch.setattr(fsearch.SearchContext, "expire", lambda ctx: reads.append(ctx))
    ground = grounds_within(SearchBounds(algebras=("godel3",), max_carrier=3))[-1]
    near = fsearch._near_maps(fsearch.SearchContext(SearchBounds()), ground)
    assert [len(group) for group in near] == [1970] * 3
    assert len(reads) == 3 * 2 + 3 * 2


def test_no_module_level_caches_after_search():
    search("initiality", SearchBounds(max_carrier=1))
    search("composition-continuous", SearchBounds(max_carrier=1))
    registries = {
        ("search", "CLAIMS"),
        ("cli", "CLAIMS"),
        ("io", "LOADERS"),
        ("io", "CASE_LOADERS"),
    }
    held = []
    for name, module in sorted(sys.modules.items()):
        if name != "fuzzint" and not name.startswith("fuzzint."):
            continue
        short = name.rpartition(".")[2]
        for attr, value in vars(module).items():
            if attr.startswith("__") or (short, attr) in registries:
                continue
            if isinstance(value, dict) or hasattr(value, "cache_info"):
                held.append(f"{name}.{attr}")
    assert held == []


# -- bundles and replay ------------------------------------------------------------

def test_bundle_roundtrip_through_json(tmp_path):
    out = tmp_path / "witness.json"
    result = search("literal-trivial-interior", out=out)
    assert out.exists()
    bundle = json.loads(out.read_text())
    assert bundle == result.bundle
    replayed = replay(bundle)
    assert replayed.status == "counterexample"
    assert replayed.bundle["witness"] == result.bundle["witness"]


def test_replay_is_deterministic():
    result = search("literal-meet-source-lift", SearchBounds(max_carrier=1))
    first = replay(result.bundle)
    second = replay(json.loads(json.dumps(result.bundle)))
    assert first.bundle["witness"] == second.bundle["witness"]


def test_replay_of_quasi_monoidal_bundle(tmp_path):
    # the witness instance embeds a tensor-only algebra; replay must not
    # try to revalidate it as a GL-monoid
    bounds = SearchBounds(max_carrier=1, algebras=("godel3", "diamond-join"))
    result = search("meet-interchange", bounds)
    assert result.status == "counterexample"
    bundle = json.loads(json.dumps(result.bundle))
    assert replay(bundle).status == "counterexample"


def test_replay_rejects_summary():
    summary = search("meet-interchange", SearchBounds(max_carrier=1)).to_json()
    with pytest.raises(MalformedBundle):
        replay(summary)


def test_replay_rejects_garbage():
    with pytest.raises(MalformedBundle):
        replay({"property": "initiality"})
    with pytest.raises(MalformedBundle):
        replay("not a bundle")


def test_search_submodule_not_shadowed_by_the_function():
    import fuzzint
    import fuzzint.search as module

    assert inspect.ismodule(module)
    assert fuzzint.search is module
    assert inspect.isfunction(module.search)
    assert module.search is search
