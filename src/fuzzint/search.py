"""Bounded exhaustive enumeration and counterexample search.

Everything the suites claim "exhaustively" funnels through here: interior
maps are streamed in lexicographic order with monotonicity pruning, grounds
and morphisms are enumerated from named algebra families, and each
registered property pairs a deterministic case generator with a pure
checker.  A counterexample is returned as a replayable witness bundle that
embeds the full instance.

Verdicts are deterministic for fixed bounds and property regardless of the
worker count: cases are consumed in generation order and the first failing
case wins, whether chunks are evaluated inline or on a pool.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace
from itertools import combinations

from .continuity import (
    Arm,
    compose,
    initial_interior,
    initiality_violation,
    is_continuous,
    is_open_morphism,
    meet_interchange_report,
)
from .errors import BoundsExceeded, CarrierMismatch, MalformedBundle, UnknownProperty
from .interior import (
    InteriorMap,
    check_interior_axioms,
    is_fully_productive,
    is_idempotent,
    least,
    literal_trivial,
    open_sets,
)
from .lattice import diamond_lattice, pentagon_lattice
from .monoid import builtin_chain, godel_tensor, join_tensor
from .powerset import Ground, GroundMorphism, Verdict, all_morphisms
from . import io as fio

CHUNK = 256


# ---------------------------------------------------------------- bounds

@dataclass(frozen=True)
class SearchBounds:
    """Budget for the enumeration suites.

    ``max_tables`` caps the interior maps streamed on any single ground:
    the enumeration raises as soon as it would yield one more.
    ``operator_sample`` is how many interior maps per ground the
    cross-product suites combine (the least and discrete maps are always
    in the sample, so it is at least 2; the rest is an even stride
    through the full enumeration).  Every number must be positive; a NaN
    time budget would never expire and is refused too.
    """

    max_carrier: int = 2
    max_lattice: int = 3
    max_tables: int = 100_000
    time_budget: float = 300.0
    algebras: tuple[str, ...] = ("c2", "godel3")
    operator_sample: int = 4

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (int, float)) and not v > 0:  # NaN fails this too
                raise BoundsExceeded(f"{f.name} must be positive, got {v}")
        if self.operator_sample < 2:
            raise BoundsExceeded(
                f"operator_sample must be at least 2 (the least and the discrete map), got {self.operator_sample}"
            )


def parse_bound(key: str, text: str):
    """The value of a numeric bound written as text; BoundsExceeded when
    it does not convert."""
    kind = float if key == "time_budget" else int
    try:
        return kind(text)
    except ValueError:
        raise BoundsExceeded(f"{key} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def bounds_from_env(text: str | None, base: SearchBounds | None = None) -> SearchBounds:
    """Parse a FUZZINT_BOUNDS override, e.g.
    "max_carrier=2,max_lattice=3,algebras=c2+godel3,time_budget=120"."""
    bounds = base or SearchBounds()
    if not text:
        return bounds
    updates = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key == "algebras":
            updates[key] = tuple(value.split("+"))
        elif key in ("max_carrier", "max_lattice", "max_tables", "operator_sample", "time_budget"):
            updates[key] = parse_bound(key, value)
        else:
            raise BoundsExceeded(f"unknown bounds key {key!r}")
    return replace(bounds, **updates)


def builtin_algebra(name: str):
    """Resolve a named algebra: c2, godel<n>, lukasiewicz<n>, diamond-meet,
    diamond-join, pentagon-meet."""
    if name == "c2":
        return builtin_chain("godel", 2)
    for kind in ("godel", "lukasiewicz"):
        if name.startswith(kind) and name[len(kind):].isdigit():
            return builtin_chain(kind, int(name[len(kind):]))
    if name == "diamond-meet":
        return godel_tensor(diamond_lattice())
    if name == "diamond-join":
        return join_tensor(diamond_lattice())
    if name == "pentagon-meet":
        return godel_tensor(pentagon_lattice())
    raise BoundsExceeded(f"unknown algebra name {name!r}")


def grounds_within(bounds: SearchBounds):
    """All grounds (carrier x algebra) inside the bounds, small first."""
    out = []
    for size in range(1, bounds.max_carrier + 1):
        points = tuple(f"p{i + 1}" for i in range(size))
        for name in bounds.algebras:
            algebra = builtin_algebra(name)
            if len(algebra.lattice) <= bounds.max_lattice:
                out.append(Ground(points=points, algebra=algebra))
    return out


# ------------------------------------------------- interior map enumeration

def _backtrack(index, order):
    """Every monotone contraction of L^X on the positions in ``order``.

    Images are assigned position by position in ``order``, which must list
    each position after its lower covers; the top stays fixed.  The
    candidates for an argument lie below it and above the images already
    given to its lower covers (the AND of their upsets is the upset of
    their join), so a monotonicity violation prunes its whole suffix.
    Depth first, ascending candidate positions; the one ``assign`` list is
    yielded each time every position in ``order`` has an image.
    """
    up, down, covers = index.up, index.down, index.covers
    top = len(index.values) - 1
    assign = [0] * (top + 1)
    assign[top] = top
    last = len(order) - 1
    if last < 0:
        yield assign
        return
    pending = [0] * (last + 1)  # untried candidates per depth, as a bitmask
    pending[0] = down[order[0]]  # the first position has no lower covers
    depth = 0
    while depth >= 0:
        options = pending[depth]
        if not options:
            depth -= 1
            continue
        low = options & -options
        pending[depth] = options ^ low
        assign[order[depth]] = low.bit_length() - 1
        if depth == last:
            yield assign
            continue
        depth += 1
        a = order[depth]
        options = down[a]
        for c in covers[a]:
            options &= up[assign[c]]
        pending[depth] = options


def enumerate_interior_maps(ground: Ground, bounds: SearchBounds | None = None):
    """Stream every interior map on the ground exactly once.

    Images are assigned position by position along the ground's index, a
    linear extension of L^X, by ``_backtrack``: monotonicity is checked on
    the cover edges as each position is filled, so a violation prunes its
    whole suffix.  Order is deterministic: depth first, ascending candidate
    positions.  Yielding more than ``bounds.max_tables`` maps raises
    ``BoundsExceeded``.
    """
    cap = (bounds or SearchBounds()).max_tables
    emitted = 0
    for assign in _backtrack(ground.index, range(ground.set_count() - 1)):
        if emitted == cap:
            raise BoundsExceeded(f"more than {cap} interior maps on this ground")
        emitted += 1
        yield InteriorMap(ground, tuple(assign))


def count_interior_maps(ground: Ground, bounds: SearchBounds | None = None) -> int:
    """The number of interior maps on the ground, without building them.

    The coatoms of L^X (the lower covers of top) are left out of the
    backtrack, and each completed assignment of the other positions adds
    the product of the coatoms' candidate counts.  That is exact: a
    coatom's only upper cover is top, no cover edge joins two coatoms, and
    no other position has a coatom as a lower cover, so given the rest the
    coatoms' images are independent, each constrained only by its own
    lower covers.  More than ``bounds.max_tables`` maps raise
    ``BoundsExceeded``, as soon as the running total passes the cap.
    """
    cap = (bounds or SearchBounds()).max_tables
    index = ground.index
    up, down, covers = index.up, index.down, index.covers
    top = len(index.values) - 1
    coatoms = covers[top]
    total = 0
    for assign in _backtrack(index, [a for a in range(top) if a not in coatoms]):
        product = 1
        for k in coatoms:
            options = down[k]
            for c in covers[k]:
                options &= up[assign[c]]
            product *= options.bit_count()
        total += product
        if total > cap:
            raise BoundsExceeded(f"more than {cap} interior maps on this ground")
    return total


def interior_sample(ground: Ground, bounds: SearchBounds):
    """Deterministic spread of interior maps on the ground: the full stream
    when it fits the sample budget, else an even stride that always keeps
    the least (first) and discrete (last) maps.  The maps are counted
    first, so only the kept ones are held while the stream runs."""
    total = count_interior_maps(ground, bounds)
    cap = bounds.operator_sample
    maps = enumerate_interior_maps(ground, bounds)
    if total <= cap:
        return list(maps)
    keep = {round(k * (total - 1) / (cap - 1)) for k in range(cap)}
    return [m for n, m in enumerate(maps) if n in keep]


# ---------------------------------------------------------- search context

class SearchContext:
    """One search's grounds, deadline and memos.

    Built once per search, and once per pool worker; everything it
    memoises is dropped with it, so nothing is cached across searches.
    """

    def __init__(self, bounds: SearchBounds):
        self.bounds = bounds
        self.deadline = time.monotonic() + bounds.time_budget
        self.grounds = grounds_within(bounds)
        self._samples: dict = {}
        self._arms: dict = {}
        self._tests: dict = {}
        self._composites: dict = {}
        self._verdicts: dict = {}

    def expire(self, checked: int = 0) -> None:
        """Raise once the time budget is spent."""
        if time.monotonic() > self.deadline:
            raise BoundsExceeded(
                f"time budget {self.bounds.time_budget}s exhausted after {checked} cases"
            )

    def sample(self, ground: Ground) -> list:
        if ground not in self._samples:
            self._samples[ground] = interior_sample(ground, self.bounds)
        return self._samples[ground]

    def arm(self, g: GroundMorphism, target: InteriorMap) -> tuple:
        """The prepared arm and the image positions of its initial
        interior."""
        key = (g, target)
        if key not in self._arms:
            self._arms[key] = (Arm(g, target), initial_interior(g, target).images)
        return self._arms[key]

    def composite(self, g2: GroundMorphism, g1: GroundMorphism) -> GroundMorphism:
        """``compose(g2, g1)``, built once per pair, so its backward
        positions are built once per search."""
        key = (g2, g1)
        if key not in self._composites:
            self._composites[key] = compose(g2, g1)
        return self._composites[key]

    def axioms(self, ground: Ground, images: tuple) -> Verdict:
        """``check_interior_axioms`` of the map with these image positions
        on the ground, run once per ground and image tuple per search."""
        key = (ground, images)
        if key not in self._verdicts:
            self._verdicts[key] = check_interior_axioms(InteriorMap(ground, images))
        return self._verdicts[key]

    def test_morphisms(self, dom: Ground) -> list:
        """Every morphism from a test ground into ``dom``.  Each one
        computes its backward positions on first use and keeps them, so
        they are built once per search."""
        if dom not in self._tests:
            self._tests[dom] = [g for z in self.grounds for g in all_morphisms(z, dom)]
        return self._tests[dom]


# ------------------------------------------------------------- properties
#
# Generators take the search context and yield lean cases carrying live
# objects (grounds, morphisms, interior maps) under underscore keys; the
# matching describer turns such a case into a standalone JSON instance
# when a witness bundle is produced.  Checkers take a case and the context
# and accept either form, so replayed bundles go through the exact same
# code path.

def _gen_literal_trivial(ctx: SearchContext):
    for ground in ctx.grounds:
        yield {"_ground": ground}


def _describe_literal_trivial(case: dict) -> dict:
    return {"ground": fio.ground_to_json(case["_ground"])}


def _check_literal_trivial(case: dict, ctx: SearchContext):
    ground = case["_ground"] if "_ground" in case else fio.ground_from_json(case["ground"])
    verdict = check_interior_axioms(literal_trivial(ground))
    return None if verdict.ok else verdict.witness


def _gen_operator_lattice(ctx: SearchContext):
    for ground in ctx.grounds:
        maps = list(enumerate_interior_maps(ground, ctx.bounds))
        if 2 ** len(maps) <= 4096:
            for mask in range(1, 2 ** len(maps)):
                members = [maps[k] for k in range(len(maps)) if mask >> k & 1]
                yield {"kind": "subset", "_ground": ground, "_members": members}
        else:
            for a, b in combinations(maps, 2):
                yield {"kind": "pair", "_ground": ground, "_members": [a, b]}
            yield {"kind": "full", "_ground": ground, "_members": maps}


def _describe_operator_lattice(case: dict) -> dict:
    return {
        "kind": case["kind"],
        "ground": fio.ground_to_json(case["_ground"]),
        "members": [fio.interior_to_json(i) for i in case["_members"]],
    }


def _check_operator_lattice(case: dict, ctx: SearchContext):
    if "_ground" in case:
        ground, members = case["_ground"], case["_members"]
    else:
        ground = fio.ground_from_json(case["ground"])
        members = [fio.interior_from_json(m) for m in case["members"]]
    index = ground.index
    for how, fold in (("join", index.join), ("meet", index.meet)):
        verdict = ctx.axioms(ground, tuple(map(fold, zip(*(i.images for i in members)))))
        if not verdict.ok:
            return {"operation": how, **verdict.witness}
    return None


def _continuous_legs(ctx: SearchContext, open_mode: bool) -> dict:
    """All (morphism, src map, dst map) passing the chosen test, grouped
    by source map, in the order each source first passes, for
    composition joins."""
    test = is_open_morphism if open_mode else is_continuous
    by_source: dict = {}
    for dom in ctx.grounds:
        for cod in ctx.grounds:
            for g in all_morphisms(dom, cod):
                for src in ctx.sample(dom):
                    for dst in ctx.sample(cod):
                        ctx.expire()
                        if test(g, src, dst):
                            by_source.setdefault(src, []).append((g, src, dst))
    return by_source


def _gen_composition(ctx: SearchContext, open_mode: bool):
    by_source = _continuous_legs(ctx, open_mode)
    for legs in by_source.values():
        for g1, src, mid in legs:
            for g2, _, dst in by_source.get(mid, ()):
                yield {"open": open_mode, "_legs": (g1, src, mid, g2, dst)}


def _describe_composition(case: dict) -> dict:
    g1, src, mid, g2, dst = case["_legs"]
    return {
        "open": case["open"],
        "first": fio.morphism_to_json(g1),
        "second": fio.morphism_to_json(g2),
        "interiors": [fio.interior_to_json(i) for i in (src, mid, dst)],
    }


def _check_composition(case: dict, ctx: SearchContext):
    if "_legs" in case:
        g1, src, mid, g2, dst = case["_legs"]
    else:
        g1 = fio.morphism_from_json(case["first"])
        g2 = fio.morphism_from_json(case["second"])
        src, _, dst = (fio.interior_from_json(i) for i in case["interiors"])
    test = is_open_morphism if case["open"] else is_continuous
    verdict = test(ctx.composite(g2, g1), src, dst)
    return None if verdict.ok else verdict.witness


def _gen_open_preimage(ctx: SearchContext):
    for legs in _continuous_legs(ctx, open_mode=False).values():
        for g, src, dst in legs:
            for v in sorted(open_sets(dst), key=lambda s: s.values):
                yield {"_data": (g, src, dst, v)}


def _describe_open_preimage(case: dict) -> dict:
    g, src, dst, v = case["_data"]
    return {
        "morphism": fio.morphism_to_json(g),
        "src": fio.interior_to_json(src),
        "dst": fio.interior_to_json(dst),
        "v": fio.fuzzyset_to_json(v),
    }


def _check_open_preimage(case: dict, ctx: SearchContext):
    if "_data" in case:
        g, src, dst, v = case["_data"]
    else:
        g = fio.morphism_from_json(case["morphism"])
        src = fio.interior_from_json(case["src"])
        v = fio.fuzzyset_from_json(case["v"])
    if v.ground != g.cod:
        raise CarrierMismatch("fuzzy set ground differs from the morphism codomain")
    w = g.backward[g.cod.index.position[v.values]]
    if src.images[w] != w:
        return {"v": v.as_dict(), "preimage": g.dom.named(g.dom.index.values[w])}
    return None


# -- structured sources -------------------------------------------------------

def _arm_family(ctx: SearchContext, dom: Ground):
    """Every (morphism, target interior) arm out of a domain."""
    return [(g, target) for cod in ctx.grounds for g in all_morphisms(dom, cod) for target in ctx.sample(cod)]


def _gen_sources(ctx: SearchContext, min_arms: int):
    for dom in ctx.grounds:
        arms = _arm_family(ctx, dom)
        if min_arms <= 1:
            for arm in arms:
                yield {"_domain": dom, "_arms": [arm]}
        for a, b in combinations(range(len(arms)), 2):
            yield {"_domain": dom, "_arms": [arms[a], arms[b]]}


def _describe_source(case: dict) -> dict:
    return {
        "domain": fio.ground_to_json(case["_domain"]),
        "arms": [
            {"morphism": fio.morphism_to_json(g), "interior": fio.interior_to_json(target)}
            for g, target in case["_arms"]
        ],
    }


def _case_source(case: dict, ctx: SearchContext):
    """The source domain and its arms, each an (Arm, initial images) pair."""
    if "_arms" in case:
        dom, arms = case["_domain"], case["_arms"]
    else:
        dom = fio.ground_from_json(case["domain"])
        arms = [
            (fio.morphism_from_json(arm["morphism"]), fio.interior_from_json(arm["interior"]))
            for arm in case["arms"]
        ]
    return dom, [ctx.arm(g, target) for g, target in arms]


def _lost_arm(dom: Ground, arms, images: tuple, shown: str | None = None):
    """Witness of the first arm the lift with these image positions fails
    to keep continuous; ``shown`` names an extra key carrying the lift's
    value there."""
    down, values = dom.index.down, dom.index.values
    for index, (arm, _) in enumerate(arms):
        for w, c in arm.constraints:
            if not down[images[w]] >> c & 1:
                witness = {
                    "stage": "arm-continuity",
                    "arm_index": index,
                    "arm": arm.morphism.describe(),
                    "w": dom.named(values[w]),
                    "required": dom.named(values[c]),
                }
                if shown:
                    witness[shown] = dom.named(values[images[w]])
                return witness
    return None


def _check_initiality(case: dict, ctx: SearchContext):
    """Join-form lift: axioms, arm continuity, and the universal property,
    decided per test morphism by ``initiality_violation``."""
    dom, arms = _case_source(case, ctx)
    columns = [initial for _, initial in arms] or [least(dom).images]
    lift = InteriorMap(dom, tuple(map(dom.index.join, zip(*columns))))
    verdict = check_interior_axioms(lift)
    if not verdict.ok:
        return {"stage": "axioms", **verdict.witness}
    lost = _lost_arm(dom, arms, lift.images)
    if lost is not None:
        return lost
    lift_pairs = tuple(enumerate(lift.images))
    prepared = [arm for arm, _ in arms]
    for g_test in ctx.test_morphisms(dom):
        bad = initiality_violation(g_test, lift_pairs, prepared)
        if bad is not None:
            return {"stage": "initiality", **bad}
    return None


def _check_literal_meet_lift(case: dict, ctx: SearchContext):
    """The meet-form lift satisfies the axioms but must keep every arm
    continuous to qualify as a lift; report the first arm it loses."""
    dom, arms = _case_source(case, ctx)
    top = dom.set_count() - 1
    columns = [initial for _, initial in arms] or [(top,) * (top + 1)]  # the empty meet
    meet_lift = InteriorMap(dom, tuple(map(dom.index.meet, zip(*columns))))
    verdict = check_interior_axioms(meet_lift)
    if not verdict.ok:
        return {"stage": "axioms", **verdict.witness}
    return _lost_arm(dom, arms, meet_lift.images, shown="meet_lift_at_w")


def _gen_preservation(ctx: SearchContext, predicate):
    for dom in ctx.grounds:
        for cod in ctx.grounds:
            for target in ctx.sample(cod):
                if not predicate(target):
                    continue
                for g in all_morphisms(dom, cod):
                    yield {"_data": (g, target)}


def _describe_preservation(case: dict) -> dict:
    g, target = case["_data"]
    return {"morphism": fio.morphism_to_json(g), "interior": fio.interior_to_json(target)}


def _check_preservation(case: dict, predicate):
    if "_data" in case:
        g, target = case["_data"]
    else:
        g = fio.morphism_from_json(case["morphism"])
        target = fio.interior_from_json(case["interior"])
    lifted = initial_interior(g, target)
    verdict = predicate(lifted)
    return None if verdict.ok else verdict.witness


def _gen_meet_interchange(ctx: SearchContext):
    for dom in ctx.grounds:
        for cod in ctx.grounds:
            for g in all_morphisms(dom, cod):
                yield {"_morphism": g}


def _describe_meet_interchange(case: dict) -> dict:
    return {"morphism": fio.morphism_to_json(case["_morphism"])}


def _check_meet_interchange(case: dict, ctx: SearchContext):
    g = case["_morphism"] if "_morphism" in case else fio.morphism_from_json(case["morphism"])
    verdict = meet_interchange_report(g, max_family=2)
    return None if verdict.ok else verdict.witness


PROPERTIES = {
    "literal-trivial-interior": (
        _gen_literal_trivial,
        _check_literal_trivial,
        _describe_literal_trivial,
    ),
    "operator-lattice-closure": (
        _gen_operator_lattice,
        _check_operator_lattice,
        _describe_operator_lattice,
    ),
    "composition-continuous": (
        lambda ctx: _gen_composition(ctx, open_mode=False),
        _check_composition,
        _describe_composition,
    ),
    "composition-open": (
        lambda ctx: _gen_composition(ctx, open_mode=True),
        _check_composition,
        _describe_composition,
    ),
    "open-preimage": (_gen_open_preimage, _check_open_preimage, _describe_open_preimage),
    "initiality": (lambda ctx: _gen_sources(ctx, min_arms=1), _check_initiality, _describe_source),
    "literal-meet-source-lift": (
        lambda ctx: _gen_sources(ctx, min_arms=2),
        _check_literal_meet_lift,
        _describe_source,
    ),
    "preservation-idempotent": (
        lambda ctx: _gen_preservation(ctx, is_idempotent),
        lambda case, ctx: _check_preservation(case, is_idempotent),
        _describe_preservation,
    ),
    "preservation-fully-productive": (
        lambda ctx: _gen_preservation(ctx, is_fully_productive),
        lambda case, ctx: _check_preservation(case, is_fully_productive),
        _describe_preservation,
    ),
    "meet-interchange": (
        _gen_meet_interchange,
        _check_meet_interchange,
        _describe_meet_interchange,
    ),
}


# ------------------------------------------------------------------ driver

@dataclass
class SearchResult:
    prop: str
    status: str  # "no-counterexample" | "counterexample"
    instances: int
    bundle: dict | None

    @property
    def ok(self) -> bool:
        return self.status == "no-counterexample"

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "status": self.status,
            "instances_checked": self.instances,
            "witness": self.bundle,
        }


def checker_for(name: str, context: SearchContext):
    """The per-case checker of a property, bound to one search's context."""
    check = PROPERTIES[name][1]
    return lambda case: check(case, context)


def search(
    prop: str,
    bounds: SearchBounds | None = None,
    *,
    workers: int = 1,
    out=None,
) -> SearchResult:
    """Scan every case of a registered property inside the bounds.

    Returns the count of clean instances, or the first counterexample as a
    standalone witness bundle (optionally written to ``out``).  Exceeding
    the time budget, while generating cases or checking them, raises
    rather than returning a false all-clear.
    """
    if prop not in PROPERTIES:
        raise UnknownProperty(prop, tuple(PROPERTIES))
    ctx = SearchContext(bounds or SearchBounds())
    cases = PROPERTIES[prop][0](ctx)
    if workers > 1:
        witness, checked = _parallel_scan(prop, ctx, cases, workers)
    else:
        check = checker_for(prop, ctx)
        witness = None
        checked = 0
        for case in cases:
            ctx.expire(checked)
            checked += 1
            found = check(case)
            if found is not None:
                witness = _bundle(prop, case, found)
                break
    status = "no-counterexample" if witness is None else "counterexample"
    result = SearchResult(prop=prop, status=status, instances=checked, bundle=witness)
    if out is not None and witness is not None:
        with open(out, "w") as fh:
            json.dump(witness, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def _parallel_scan(prop, ctx, cases, workers):
    import multiprocessing as mp

    mp_ctx = mp.get_context("fork")
    submitted: list = []

    def chunk_stream():
        buf = []
        for case in cases:
            buf.append(case)
            if len(buf) == CHUNK:
                submitted.append(buf)
                yield buf
                buf = []
        if buf:
            submitted.append(buf)
            yield buf

    checked = 0
    with mp_ctx.Pool(workers, initializer=_pool_init, initargs=(prop, ctx.bounds)) as pool:
        for index, results in enumerate(pool.imap(_pool_check, chunk_stream())):
            ctx.expire(checked)
            for case, found in zip(submitted[index], results):
                checked += 1
                if found is not None:
                    return _bundle(prop, case, found), checked
    return None, checked


_POOL_STATE: dict = {}


def _pool_init(prop, bounds):
    _POOL_STATE["check"] = checker_for(prop, SearchContext(bounds))


def _pool_check(chunk):
    check = _POOL_STATE["check"]
    return [check(case) for case in chunk]


def _bundle(prop: str, case: dict, witness: dict) -> dict:
    describe = PROPERTIES[prop][2]
    return {"property": prop, "case": describe(case), "witness": witness}


def replay(bundle: dict) -> SearchResult:
    """Re-evaluate a witness bundle deterministically."""
    if not isinstance(bundle, dict):
        raise MalformedBundle("bundle must be a JSON object")
    for key in ("property", "case", "witness"):
        if key not in bundle or bundle[key] is None:
            raise MalformedBundle(f"missing {key!r} (summaries carry no witness)")
    prop = bundle["property"]
    if prop not in PROPERTIES:
        raise UnknownProperty(prop, tuple(PROPERTIES))
    check = checker_for(prop, SearchContext(SearchBounds()))
    found = check(bundle["case"])
    if found is None:
        return SearchResult(prop=prop, status="no-counterexample", instances=1, bundle=None)
    return SearchResult(
        prop=prop,
        status="counterexample",
        instances=1,
        bundle={"property": prop, "case": bundle["case"], "witness": found},
    )
