"""The leg searches (composition-continuous, composition-open and
open-preimage) decide their cases leg by leg; here they are held to the
per-case stream of the ``conftest`` oracles, clean and with an injected
failure, and the bound each leg is decided by is held to every composite
it stands for."""

import pytest
from conftest import NAIVE_LEG_GENERATORS, naive_gen_composition
from test_search import NON_CHAIN

import fuzzint.continuity as fcontinuity
from fuzzint import search as fsearch
from fuzzint.continuity import compose, passes_bound
from fuzzint.powerset import Verdict, all_morphisms
from fuzzint.search import (
    SearchBounds,
    SearchContext,
    _legs,
    _onward_bound,
    _sample,
    search,
)

LEG_PROPS = sorted(NAIVE_LEG_GENERATORS)
LUK = SearchBounds(algebras=("c2", "lukasiewicz3"))
LEG_BOUNDS = {"default": SearchBounds(), "c2-lukasiewicz3": LUK, "non-chain": NON_CHAIN}


def _scanned(prop, bounds, monkeypatch):
    """The search with one case per leg pair or open set, as the oracle
    generates them, and the property's own checker."""
    _, *rest = fsearch.CLAIMS[prop]
    with monkeypatch.context() as patch:
        patch.setitem(fsearch.CLAIMS, prop, (NAIVE_LEG_GENERATORS[prop], *rest))
        return search(prop, bounds)


@pytest.mark.parametrize("bounds", LEG_BOUNDS.values(), ids=LEG_BOUNDS)
@pytest.mark.parametrize("prop", LEG_PROPS)
def test_leg_searches_match_the_per_case_stream(prop, bounds, monkeypatch):
    result = search(prop, bounds)
    assert result.ok
    assert result == _scanned(prop, bounds, monkeypatch)


@pytest.mark.parametrize("prop", LEG_PROPS)
def test_a_clean_leg_search_checks_no_case_one_by_one(prop, monkeypatch):
    # every leg passes its one word test, so no case reaches the checker
    # and no verdict is scanned
    checked = []
    generate, _, *rest = fsearch.CLAIMS[prop]
    monkeypatch.setitem(fsearch.CLAIMS, prop, (generate, lambda case, ctx: checked.append(case), *rest))
    monkeypatch.setattr(fcontinuity, "_scan", lambda *args: checked.append(args))
    assert search(prop, LUK).ok
    assert checked == []


def _inject_composite_failure(open_mode, monkeypatch):
    """Make the test reject one (composite, src, dst) taken from the middle
    of the oracle's stream, and fail the onward bound of every first leg
    with a composite equal to it into that dst, so those legs are checked
    case by case.  The property, the oracle's cases and the rejecting
    test."""
    prop = "composition-open" if open_mode else "composition-continuous"
    cases = list(naive_gen_composition(SearchContext(LUK), open_mode))
    target = cases[len(cases) // 2]
    src, _, dst = target["interiors"]
    bad = compose(target["second"], target["first"])
    name = "is_open_morphism" if open_mode else "is_continuous"
    real_test, real_bound = getattr(fsearch, name), fsearch._onward_bound

    def rejecting(g, a, b):
        if (g, a, b) == (bad, src, dst):
            return Verdict(False, "injected", {"injected": True}, 1)
        return real_test(g, a, b)

    def onward_bound(ctx, mode, g1, mid):
        onward = ctx[_legs, mode].get(mid, ())
        if any(compose(g2, g1) == bad and d == dst for g2, _, d in onward):
            return 0  # a bound no source passes
        return real_bound(ctx, mode, g1, mid)

    monkeypatch.setattr(fsearch, name, rejecting)
    monkeypatch.setattr(fsearch, "_onward_bound", onward_bound)
    return prop, cases, rejecting


@pytest.mark.parametrize("open_mode", [False, True], ids=["continuous", "open"])
def test_an_injected_composite_failure_is_the_oracles_first_counterexample(open_mode, monkeypatch):
    prop, cases, rejecting = _inject_composite_failure(open_mode, monkeypatch)
    result = search(prop, LUK)
    expected = _scanned(prop, LUK, monkeypatch)
    assert (result.status, result.bundle["witness"]) == ("counterexample", {"injected": True})
    assert result == expected
    rejected = [rejecting(compose(case["second"], case["first"]), *case["interiors"][::2]).ok for case in cases]
    assert result.instances == rejected.index(False) + 1 <= len(cases) // 2 + 1


@pytest.mark.parametrize(
    "open_mode, instances, one_by_one", [(False, 4_630, 2_362), (True, 1_748, 1_097)], ids=["continuous", "open"]
)
def test_each_case_of_a_failing_leg_is_checked_once(open_mode, instances, one_by_one, monkeypatch):
    # the cases of the legs that fail their bound reach the checker once
    # each, the failing one included, wherever the search calls it from
    prop, _, _ = _inject_composite_failure(open_mode, monkeypatch)
    calls, real = [], fsearch._check_composition

    def counted(case, ctx):
        calls.append(case)
        return real(case, ctx)

    generate, _, *rest = fsearch.CLAIMS[prop]
    monkeypatch.setattr(fsearch, "_check_composition", counted)
    monkeypatch.setitem(fsearch.CLAIMS, prop, (generate, counted, *rest))
    result = search(prop, LUK)
    assert (result.status, result.bundle["witness"], result.instances) == ("counterexample", {"injected": True}, instances)
    keys = [(c["first"], c["second"], *c["interiors"]) for c in calls]
    assert len(keys) == len(set(keys)) == one_by_one


def test_an_injected_open_set_failure_is_the_oracles_first_counterexample(monkeypatch):
    # one target map in the middle of the oracle's stream gains a set it
    # does not fix as an open set; the first continuous leg into it whose
    # source does not fix that set's backward image fails
    ctx = SearchContext(LUK)
    cases = list(NAIVE_LEG_GENERATORS["open-preimage"](ctx))
    target = cases[len(cases) // 2]["dst"]
    extra = next(a for a, image in enumerate(target.images) if image != a)
    real = fsearch.open_sets
    monkeypatch.setattr(fsearch, "open_sets", lambda i: tuple(sorted(real(i) + (extra,))) if i == target else real(i))
    result = search("open-preimage", LUK)
    assert result.status == "counterexample"
    assert result.bundle["witness"]["v"] == target.ground.named(target.ground.index.values[extra])
    assert result == _scanned("open-preimage", LUK, monkeypatch)


@pytest.mark.parametrize("bounds", [LUK.replace(max_carrier=1), NON_CHAIN], ids=["c2-lukasiewicz3", "non-chain"])
@pytest.mark.parametrize("open_mode", [False, True], ids=["continuous", "open"])
def test_an_onward_bound_decides_every_composite_through_its_leg(open_mode, bounds):
    # arbitrary onward lists, not only the legs that pass: one (g2, dst)
    # at a time, then all of them out of the middle ground; a source
    # passes the bound iff every composite passes the scan
    prop = "openness" if open_mode else "continuity"
    grounds = SearchContext(bounds).grounds
    outcomes = set()
    for mid_ground in grounds:
        samples = SearchContext(bounds)
        onward_all = [(g2, None, dst) for cod in grounds for g2 in all_morphisms(mid_ground, cod) for dst in samples[_sample, cod]]
        for onward in [[leg] for leg in onward_all] + [onward_all]:
            for dom in grounds:
                ctx = SearchContext(bounds)
                for mid in ctx[_sample, mid_ground]:
                    ctx[_legs, open_mode] = {mid: onward}
                    for g1 in all_morphisms(dom, mid_ground):
                        bound = ctx[_onward_bound, open_mode, g1, mid]
                        for src in ctx[_sample, dom]:
                            passes = passes_bound(src.words[open_mode], bound)
                            assert passes == all(fcontinuity._scan(compose(g2, g1), src, dst, prop).ok for g2, _, dst in onward)
                            outcomes.add(passes)
    assert outcomes == {True, False}
