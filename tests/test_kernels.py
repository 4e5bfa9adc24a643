"""The morphism-layer kernels against their oracles: initial interiors
along test morphisms against the pair scan for least interiors, with
backward left adjoint to its right adjoint, the equality fast path of the
initiality kernel, the meet-form lift's lost arm and the open-preimage
witness against scans on value tuples, binary productivity against the
walk over every family, leg bounds built once per search, and the
per-search verdict memos against fresh contexts."""

import sys
from itertools import combinations, product

import pytest
from conftest import (
    continuity_constraints,
    leq_values,
    naive_backward,
    naive_initiality_violation,
    naive_initiality_walk,
    naive_is_fully_productive,
    naive_least_above,
    transported,
)
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st
from test_index import BASES, GROUNDS, PROPERTY, ground_id
from test_morphism_index import PAIRS

from fuzzint import search as fsearch
from fuzzint.continuity import (
    Arm,
    StructuredSource,
    compose,
    initial_from_source,
    initial_interior,
    initiality_violation,
    is_continuous,
    open_preimage_witness,
    packed_floors,
)
from fuzzint.interior import (
    InteriorMap,
    check_interior_axioms,
    discrete,
    is_productive,
    join_interiors,
    least,
    meet_interiors,
    open_sets,
)
from fuzzint.powerset import Ground, GroundMorphism, all_morphisms, identity_morphism
from fuzzint.search import (
    CLAIMS,
    SearchBounds,
    SearchContext,
    _arm,
    _case_source,
    _combined,
    _composite,
    _floors,
    _folded_lift,
    _test_morphisms,
    _verdict,
    builtin_algebra,
    enumerate_interior_maps,
    grounds_within,
    interior_sample,
    search,
)

HOMS = {(dom, cod): morphisms for dom, cod, morphisms in PAIRS}
# the grounds where the walk over every family of fuzzy sets is affordable,
# with every interior map on each
WALKABLE = [ground for ground in GROUNDS if 2 ** ground.set_count() <= 4096]
MAPS = {ground: list(enumerate_interior_maps(ground)) for ground in WALKABLE}


# -- floors as initial interiors along test morphisms ------------------------------

ORACLE_ALGEBRAS = {
    ("p1",): ("c2", "godel3", "lukasiewicz3", "diamond-join", "diamond-meet", "pentagon-meet"),
    ("p1", "p2"): ("c2", "diamond-join"),
}
# the morphisms among the 1-point grounds of six algebras, three of them
# not chains, and among the 2-point grounds of c2 and diamond-join
ORACLE_GROUNDS = {points: [Ground(points, builtin_algebra(name)) for name in names] for points, names in ORACLE_ALGEBRAS.items()}
ORACLE_TESTS = [ground for grounds in ORACLE_GROUNDS.values() for ground in grounds]


def _adjoint(g: GroundMorphism) -> bool:
    """backward is left adjoint to right_adjoint: b <= ra(a) iff bw(b) <= a
    for every position b on the codomain and a on the domain."""
    down_cod, down_dom = g.cod.index.down, g.dom.index.down
    bw, ra = g.backward, g.right_adjoint
    return all(
        bool(down_cod[ra[a]] >> b & 1) == bool(down_dom[a] >> bw[b] & 1)
        for a in range(len(ra))
        for b in range(len(bw))
    )


@pytest.mark.parametrize("points", list(ORACLE_GROUNDS), ids=len)
def test_floors_are_the_least_interiors_above_the_moved_constraints(points):
    # the floor along h of an arm's initial interior, read back off its
    # packing along h, is backward(h) after that interior after ra(h); it
    # must be the least interior above the constraints transported along
    # h, found by the pair scan, on non-chain bases too, and both the
    # arm's morphism and h must satisfy backward -| ra
    bounds = SearchBounds(max_tables=1_000_000)
    tests = {dom: [h for z in ORACLE_TESTS for h in all_morphisms(z, dom)] for dom in ORACLE_GROUNDS[points]}
    assert all(_adjoint(h) for hs in tests.values() for h in hs)
    floors = 0
    for dom, cod in product(ORACLE_GROUNDS[points], repeat=2):
        for g in all_morphisms(dom, cod):
            assert _adjoint(g)
            for target in interior_sample(cod, bounds):
                initial = initial_interior(g, target)
                pairs = continuity_constraints(g, target)
                for h in tests[dom]:
                    floor = h.dom.index.join_positions(packed_floors(initial, [h]))
                    assert floor == naive_least_above(h.dom, transported(pairs, h))
                    floors += 1
    assert floors == {1: 3_420, 2: 8_000}[len(points)]


# -- the initiality kernel ------------------------------------------------------

LIFTS = ("correct", "join", "meet", "other", "least", "discrete")


def _source(draw, grounds, homs, bases):
    """A source of up to two arms over ``grounds``, as (domain, lift,
    arms): its join-form lift or a perturbation of it (joined or met with
    another map, that map itself, which need not be comparable with the
    lift, or the least or discrete map)."""
    domain = draw(st.sampled_from(grounds))
    arms = []
    for _ in range(draw(st.integers(0, 2))):
        cod = draw(st.sampled_from(grounds))
        g = draw(st.sampled_from(homs[domain, cod]))
        arms.append((g, InteriorMap(cod, draw(st.sampled_from(bases[cod])))))
    lift = initial_from_source(StructuredSource(domain, tuple(arms)))
    how = draw(st.sampled_from(LIFTS))
    if how in ("join", "meet", "other"):
        other = InteriorMap(domain, draw(st.sampled_from(bases[domain])))
        lift = other if how == "other" else (join_interiors if how == "join" else meet_interiors)([lift, other])
    elif how != "correct":
        lift = (least if how == "least" else discrete)(domain)
    return domain, lift, arms


@st.composite
def sources_with_test_morphisms(draw):
    """A source, its lift and a test morphism into the domain, from the
    domain itself in about half the draws."""
    domain, lift, arms = _source(draw, GROUNDS, HOMS, BASES)
    z = draw(st.sampled_from(GROUNDS) | st.just(domain))
    g_test = draw(st.sampled_from(HOMS[z, domain]))
    return g_test, lift, arms


def _kernel(case, violation):
    """``violation`` at the case's one test morphism: the kernel takes the
    lift as its own initial interior and packs the floors along that test,
    the oracle takes the lift as its (u, lift(u)) pairs."""
    g_test, lift, arms = case
    prepared = [Arm(g, target) for g, target in arms]
    if violation is initiality_violation:
        tests = [g_test]
        found = violation(tests, lift, prepared, lambda initial: packed_floors(initial, tests))
        return found and found[1]
    return violation(g_test, tuple(enumerate(lift.images)), prepared)


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


# -- the meet-form lift's lost arm and the open-preimage witness -------------------

# every arm the literal-meet-source-lift search draws on c2 and the
# join-tensor diamond up to 2 points, from 16 sampled targets per ground
MEET_BOUNDS = SearchBounds(algebras=("c2", "diamond-join"), operator_sample=16, time_budget=10**6)
MEET_ARMS = {dom: fsearch._arm_family(SearchContext(MEET_BOUNDS), dom) for dom in grounds_within(MEET_BOUNDS)}
meet_sources = st.sampled_from(list(MEET_ARMS)).flatmap(
    lambda dom: st.tuples(st.just(dom), st.lists(st.sampled_from(MEET_ARMS[dom]), min_size=2, max_size=2))
)


def _lost_arm_oracle(dom, arms):
    """The pointwise meet of the arms' initial interiors, and the first
    continuity pair (w, c) of the first arm it fails, c not below lift(w)
    on value tuples, as the search's witness."""
    lift = meet_interiors([initial_interior(arm["morphism"], arm["interior"]) for arm in arms])
    values = dom.index.values
    for index, arm in enumerate(arms):
        for w, c in continuity_constraints(arm["morphism"], arm["interior"]):
            at_w = lift.apply_values(values[w])
            if not leq_values(dom, values[c], at_w):
                return {
                    "stage": "arm-continuity",
                    "arm_index": index,
                    "arm": arm["morphism"].describe(),
                    "w": dom.named(values[w]),
                    "required": dom.named(values[c]),
                    "meet_lift_at_w": dom.named(at_w),
                }
    return None


def _lost_arm(source):
    dom, arms = source
    return fsearch._check_literal_meet_lift({"domain": dom, "arms": arms}, SearchContext(MEET_BOUNDS))


@settings(PROPERTY, max_examples=300)
@given(meet_sources)
def test_meet_lift_loses_the_arm_the_pair_scan_finds(source):
    assert _lost_arm(source) == _lost_arm_oracle(*source)


@pytest.mark.parametrize("algebra", ["c2", "diamond-join"])
def test_meet_lift_sources_lose_arms_on_each_base(algebra):
    def reaches(source):
        return source[0].lattice == builtin_algebra(algebra).lattice and _lost_arm(source) is not None

    assert find(meet_sources, reaches, settings=PROPERTY)


def test_an_arm_failing_its_word_test_but_no_position_is_an_internal_error(monkeypatch):
    # the word test and the scan decide the same order: when they disagree
    # the lost arm raises rather than move on to the next arm
    source = find(meet_sources, lambda source: _lost_arm(source) is not None, settings=PROPERTY)
    monkeypatch.setattr(fsearch, "first_failing_position", lambda *args: None)
    with pytest.raises(AssertionError, match="no position fails its scan"):
        _lost_arm(source)


def _open_preimage_oracle(g, src, v):
    """Backward of the fuzzy set at ``v`` on value tuples, and whether the
    source fixes it, as the search's witness."""
    u = g.cod.index.values[v]
    preimage = naive_backward(g, u)
    if src.apply_values(preimage) == preimage:
        return None
    return {"v": g.cod.named(u), "preimage": g.dom.named(preimage)}


# the legs whose initial interior is not the least map: only there can a
# source fail continuity
NARROW_LEGS = [
    (g, dst)
    for dom, cod, morphisms in PAIRS
    for g in morphisms
    for dst in (InteriorMap(cod, images) for images in BASES[cod])
    if initial_interior(g, dst) != least(dom)
]


@st.composite
def discontinuous_open_sets(draw):
    """A leg that is not continuous, where a backward image of an open set
    need not be open, and an open set of its target.  Its source is the
    meet of the initial interior with another map, continuous only when
    that map lies above the initial interior."""
    g, dst = draw(st.sampled_from(NARROW_LEGS))
    other = InteriorMap(g.dom, draw(st.sampled_from(BASES[g.dom])))
    src = meet_interiors([initial_interior(g, dst), other])
    assume(not is_continuous(g, src, dst))
    return g, src, draw(st.sampled_from(open_sets(dst)))


@settings(PROPERTY, max_examples=300)
@given(discontinuous_open_sets())
def test_open_preimage_witness_matches_the_value_oracle_off_continuity(case):
    assert open_preimage_witness(*case) == _open_preimage_oracle(*case)


def test_discontinuous_legs_reach_a_preimage_that_is_not_open():
    assert find(discontinuous_open_sets(), lambda case: open_preimage_witness(*case) is not None, settings=PROPERTY)


# -- full productivity ----------------------------------------------------------

interior_maps = st.sampled_from(WALKABLE).flatmap(lambda ground: st.sampled_from(MAPS[ground]))


@pytest.mark.parametrize("ground", WALKABLE, ids=ground_id)
def test_productive_decides_full_productivity(ground):
    # binary meets and the top axiom give every meet of a finite family
    for i in MAPS[ground]:
        assert is_productive(i).ok == naive_is_fully_productive(i).ok


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
            first = ctx[_composite, g2, g1]
            assert first == compose(g2, g1)
            # equal legs built afresh find the same object
            assert ctx[(_composite, *(GroundMorphism(g.dom, g.cod, g.f, g.phi_op) for g in (g2, g1)))] is first


def test_a_memo_hit_calls_nothing_but_the_keys_hashes():
    # once a value is built, looking it up again runs no build function,
    # helper or closure: the only Python code a hit runs is the __hash__ of
    # a Ground, GroundMorphism or InteriorMap in its key
    ctx = SearchContext(SearchBounds(algebras=("c2", "lukasiewicz3")))
    ground = ctx.grounds[-1]
    g, space = identity_morphism(ground), discrete(ground)
    word = space.words[0]

    def lookups():
        arm = ctx[_arm, g, space]
        return (
            arm,
            ctx[_floors, arm.initial],
            ctx[_combined, "join", ground, word],
            ctx[_verdict, is_productive, space],
            ctx[_test_morphisms, ground],
        )

    built = lookups()
    called = []

    def profile(frame, event, arg):
        if event == "call":
            called.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        found = lookups()
    finally:
        sys.setprofile(None)
    assert all(a is b for a, b in zip(found, built))
    assert set(called) == {"__hash__", "lookups"} and called[0] == "lookups"
    # the identity arm's initial interior equals the space, so the space
    # as a lift finds the arm's floors
    assert ctx[_floors, space] is built[1]
    assert [key for key in ctx if key[0] is _floors] == [(_floors, space)]


# -- per-search verdict memos ---------------------------------------------------

# c2 on two points and godel4 on one carry four fuzzy sets each, so one image
# tuple makes a map on both; the three tuples interior on both pass every
# predicate on both and join alike
C2_PAIR = Ground(("p1", "p2"), builtin_algebra("c2"))
GODEL4_POINT = Ground(("p1",), builtin_algebra("godel4"))
# c2 on three points and godel8 on one carry eight: of the 27 tuples
# interior on both, 9 are fully productive on one twin only, 13 are not
# idempotent (and the witnesses name the twins apart), and 60 of their
# pairs join differently
C2_CUBE = Ground(("p1", "p2", "p3"), builtin_algebra("c2"))
GODEL8_POINT = Ground(("p1",), builtin_algebra("godel8"))
TWIN = {C2_PAIR: GODEL4_POINT, GODEL4_POINT: C2_PAIR, C2_CUBE: GODEL8_POINT, GODEL8_POINT: C2_CUBE}
MEMO_GROUNDS = [Ground(("p1",), builtin_algebra("c2")), C2_PAIR, GODEL4_POINT, Ground(("p1",), builtin_algebra("lukasiewicz3"))]
MEMO_HOMS = {(a, b): list(all_morphisms(a, b)) for a in MEMO_GROUNDS for b in MEMO_GROUNDS}
MEMO_MAPS = {ground: list(enumerate_interior_maps(ground)) for ground in MEMO_GROUNDS + [C2_CUBE, GODEL8_POINT]}
# the images that make an interior map on both twins
SHARED = {
    ground: [i for i in MEMO_MAPS[ground] if check_interior_axioms(InteriorMap(TWIN[ground], i.images)).ok]
    for ground in TWIN
}
# the test grounds of the contexts include both twins
MEMO_BOUNDS = SearchBounds(algebras=("c2", "godel4"))
SOURCE_PROPS = ("initiality", "literal-meet-source-lift")
PRESERVATION_PROPS = ("preservation-idempotent", "preservation-fully-productive")


def _twin(prop, case):
    """The case along identities on the twin ground, with the same image
    positions."""
    if prop.startswith("composition"):
        ground = TWIN[case["first"].dom]
        ident = identity_morphism(ground)
        interiors = [InteriorMap(ground, i.images) for i in case["interiors"]]
        return prop, {"open": case["open"], "first": ident, "second": ident, "interiors": interiors}
    if prop.startswith("preservation"):
        ground = TWIN[case["morphism"].dom]
        return prop, {"morphism": identity_morphism(ground), "interior": InteriorMap(ground, case["interior"].images)}
    ground = TWIN[case["domain"]]
    arms = [
        {"morphism": identity_morphism(ground), "interior": InteriorMap(ground, arm["interior"].images)}
        for arm in case["arms"]
    ]
    return prop, {"domain": ground, "arms": arms}


@st.composite
def memo_case(draw):
    """A composition, preservation or source case, as (property, case).
    Legs are drawn without a continuity filter, so compositions often
    fail; about a third of the cases run along identities on a ground with
    a twin, with maps that are interior on both twins.  Returns the case
    and its twin, or None."""
    kind = draw(st.sampled_from(("composition", "preservation", "source")))
    on_twin = draw(st.integers(0, 2)) == 0
    if on_twin:
        ground = draw(st.sampled_from(list(TWIN)))
        ident = identity_morphism(ground)

    def pick(g):
        return draw(st.sampled_from(SHARED[ground] if on_twin else MEMO_MAPS[g]))

    if kind == "composition":
        prop = draw(st.sampled_from(("composition-continuous", "composition-open")))
        if on_twin:
            g1 = g2 = ident
            # interior or not: the check reads only the image positions
            src, mid, dst = (InteriorMap(ground, draw(st.sampled_from(MEMO_MAPS[ground])).images) for _ in range(3))
        else:
            a, b, c = (draw(st.sampled_from(MEMO_GROUNDS)) for _ in range(3))
            g1, g2 = draw(st.sampled_from(MEMO_HOMS[a, b])), draw(st.sampled_from(MEMO_HOMS[b, c]))
            src, mid, dst = pick(a), pick(b), pick(c)
        case = (prop, {"open": prop == "composition-open", "first": g1, "second": g2, "interiors": [src, mid, dst]})
    elif kind == "preservation":
        prop = draw(st.sampled_from(PRESERVATION_PROPS))
        dom = ground if on_twin else draw(st.sampled_from(MEMO_GROUNDS))
        cod = ground if on_twin else draw(st.sampled_from(MEMO_GROUNDS))
        g = ident if on_twin else draw(st.sampled_from(MEMO_HOMS[dom, cod]))
        case = (prop, {"morphism": g, "interior": pick(cod)})
    else:
        prop = draw(st.sampled_from(SOURCE_PROPS))
        dom = ground if on_twin else draw(st.sampled_from(MEMO_GROUNDS))
        arms = []
        for _ in range(draw(st.integers(1, 2))):
            cod = ground if on_twin else draw(st.sampled_from(MEMO_GROUNDS))
            g = ident if on_twin else draw(st.sampled_from(MEMO_HOMS[dom, cod]))
            arms.append({"morphism": g, "interior": pick(cod)})
        case = (prop, {"domain": dom, "arms": arms})
    return case, (_twin(*case) if on_twin else None)


@st.composite
def memo_runs(draw):
    """Cases checked in turn by one search context: up to four cases, each
    on a twin ground followed by its twin now and then; then a run of
    picks among them, so that a case, failing or not, often comes round
    again."""
    cases = []
    for _ in range(draw(st.integers(1, 4))):
        case, twin = draw(memo_case())
        cases.append(case)
        if twin is not None and draw(st.booleans()):
            cases.append(twin)
    picks = draw(st.lists(st.integers(0, len(cases) - 1), min_size=1, max_size=8))
    return [cases[k] for k in picks]


def _checked(prop, case, ctx):
    return CLAIMS[prop][1](case, ctx)


@settings(PROPERTY, max_examples=150)
@given(memo_runs())
def test_shared_context_matches_fresh_contexts(run):
    shared = SearchContext(MEMO_BOUNDS)
    for prop, case in run:
        assert _checked(prop, case, shared) == _checked(prop, case, SearchContext(MEMO_BOUNDS))


def _maps(case):
    if "interiors" in case:
        return case["interiors"]
    if "interior" in case:
        return [case["interior"]]
    return [arm["interior"] for arm in case["arms"]]


def test_memo_runs_repeat_failing_cases_and_meet_twins():
    quick = settings(PROPERTY, phases=[Phase.generate])
    ctx = SearchContext(MEMO_BOUNDS)

    def repeats_a_failure(run):
        failing = [id(case) for prop, case in run if _checked(prop, case, ctx) is not None]
        return len(failing) > len(set(failing))

    def meets_a_twin(run):
        seen = {(m[0].ground, tuple(i.images for i in m)) for m in (_maps(case) for _, case in run)}
        return any((TWIN.get(ground), images) in seen for ground, images in seen)

    assert find(memo_runs(), repeats_a_failure, settings=quick) is not None
    assert find(memo_runs(), meets_a_twin, settings=quick) is not None


def test_verdict_memo_tells_grounds_apart():
    # the identity from the least map to the discrete map fails continuity
    # at position 1 on both twins, which name it differently
    ctx = SearchContext(MEMO_BOUNDS)
    found = []
    for ground in (C2_PAIR, GODEL4_POINT):
        ident = identity_morphism(ground)
        src, dst = least(ground), discrete(ground)
        case = {"open": False, "first": ident, "second": ident, "interiors": [src, src, dst]}
        found.append(_checked("composition-continuous", case, ctx))
        assert found[-1] == _checked("composition-continuous", case, SearchContext(MEMO_BOUNDS))
    assert found[0]["v"] == {"p1": "0", "p2": "1"}
    assert found[0] != found[1]


@pytest.mark.parametrize("prop, differ", [("preservation-idempotent", 13), ("preservation-fully-productive", 9)])
def test_preservation_memo_tells_the_eight_set_twins_apart(prop, differ):
    # every tuple interior on both twins, along identities, in one context
    ctx = SearchContext(MEMO_BOUNDS)
    found = {}
    for images in (i.images for i in SHARED[C2_CUBE]):
        for ground in (C2_CUBE, GODEL8_POINT):
            case = {"morphism": identity_morphism(ground), "interior": InteriorMap(ground, images)}
            found[ground, images] = _checked(prop, case, ctx)
            assert found[ground, images] == _checked(prop, case, SearchContext(MEMO_BOUNDS))
    assert sum(found[C2_CUBE, images] != found[GODEL8_POINT, images] for _, images in found) == 2 * differ


def test_source_memos_tell_the_eight_set_twins_apart():
    # two identity arms into maps interior on both twins: one context folds
    # the lifts and packs the floors on both twins, another on one only
    shared = SearchContext(MEMO_BOUNDS)
    alone = {ground: SearchContext(MEMO_BOUNDS) for ground in (C2_CUBE, GODEL8_POINT)}
    lifts = {}
    for pair in combinations([i.images for i in SHARED[C2_CUBE]], 2):
        for ground, ctx in alone.items():
            arms = [{"morphism": identity_morphism(ground), "interior": InteriorMap(ground, images)} for images in pair]
            case = {"domain": ground, "arms": arms}
            for prop in SOURCE_PROPS:
                assert _checked(prop, case, shared) == _checked(prop, case, ctx)
            prepared = [shared[_arm, arm["morphism"], arm["interior"]] for arm in arms]
            lift, verdict = _folded_lift(shared, "join", ground, prepared)
            assert verdict.ok and lift == join_interiors([arm["interior"] for arm in arms])
            lifts[ground, pair] = lift.images
            for initial in [lift] + [arm.initial for arm in prepared]:
                assert shared.floors(initial) == packed_floors(initial, ctx[_test_morphisms, ground])
    assert sum(lifts[C2_CUBE, pair] != lifts[GODEL8_POINT, pair] for _, pair in lifts) == 2 * 60


@pytest.mark.parametrize("prop", ["composition-continuous", "composition-open", "open-preimage"])
def test_composition_searches_build_each_bound_once(prop, monkeypatch):
    # per (morphism, target): a leg's bound and a composite's
    built = []
    for name in ("continuity_bound", "openness_bound"):
        real = getattr(fsearch, name)
        monkeypatch.setattr(fsearch, name, lambda g, dst, real=real, name=name: built.append((name, g, dst)) or real(g, dst))
    result = search(prop, SearchBounds(algebras=("c2", "lukasiewicz3")))
    assert result.ok
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize(
    "algebras, instances, arms, packings, floors",
    [(("lukasiewicz3",), 876, 56, 26, 296), (SearchBounds().algebras, 5_202, 192, 31, 792)],
    ids=["lukasiewicz3", "default"],
)
def test_initiality_search_builds_each_floor_once(algebras, instances, arms, packings, floors, monkeypatch):
    # one arm per (morphism, target); arms' initial interiors and lifts
    # are one object per map, so the kernel meets each packing by
    # identity; one packing per distinct initial interior, an arm's or a
    # lift, and one floor per (initial interior, test morphism)
    built, packed, looked_up = [], [], []
    real_init, real_pack, real_floors = Arm.__init__, fsearch.packed_floors, SearchContext.floors

    def init(arm, g, target):
        real_init(arm, g, target)
        built.append(((g, target), arm))

    monkeypatch.setattr(Arm, "__init__", init)
    monkeypatch.setattr(fsearch, "packed_floors", lambda initial, tests: packed.append((initial, tests)) or real_pack(initial, tests))
    monkeypatch.setattr(SearchContext, "floors", lambda ctx, initial: looked_up.append(initial) or real_floors(ctx, initial))
    result = search("initiality", SearchBounds(algebras=algebras))
    assert result.ok and result.instances == instances
    assert len(built) == len({key for key, _ in built}) == arms
    assert len({id(initial) for initial in looked_up}) == packings
    assert len(packed) == len({initial for initial, _ in packed}) == packings
    assert sum(len(tests) for _, tests in packed) == floors


@st.composite
def memo_sources(draw):
    """A source over the grounds of the memo runs, whose test grounds hold
    both twins."""
    return _source(draw, MEMO_GROUNDS, MEMO_HOMS, {g: [i.images for i in maps] for g, maps in MEMO_MAPS.items()})


@settings(PROPERTY, max_examples=60)
@given(memo_sources())
def test_lift_floors_match_the_oracle_across_test_grounds(case):
    # one packing of the lift's floors meets every test morphism, from
    # both twins among them
    domain, lift, arms = case
    prepared = [Arm(g, target) for g, target in arms]
    tests = SearchContext(MEMO_BOUNDS)[_test_morphisms, domain]
    found = initiality_violation(tests, lift, prepared, lambda initial: packed_floors(initial, tests))
    assert found == naive_initiality_walk(tests, tuple(enumerate(lift.images)), prepared)


@pytest.mark.parametrize("bounds", [SearchBounds(), SearchBounds(algebras=("c2", "diamond-join"))], ids=["default", "c2+diamond-join"])
def test_join_form_lift_word_is_the_and_of_its_arms_initial_words(bounds):
    # the join-form lift lies above every arm's initial interior, so it keeps
    # every arm continuous and the initiality checker need not test that
    ctx = SearchContext(bounds)
    cases = 0
    for case in CLAIMS["initiality"][0](ctx):
        dom, arms = _case_source(case, ctx)
        lift, verdict = _folded_lift(ctx, "join", dom, arms)
        word = -1
        for arm in arms:
            word &= arm.initial.words[0]
        assert verdict.ok
        assert lift.words[0] == word
        cases += 1
    assert cases == search("initiality", bounds).instances
