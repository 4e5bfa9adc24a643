"""Bounded exhaustive enumeration and counterexample search.

Everything the suites claim "exhaustively" funnels through here.
Interior maps are streamed in lexicographic order with monotonicity
pruning, or counted and sampled point by point without the stream; grounds
and morphisms are enumerated from named algebra families; and each
registered property pairs a deterministic case generator with a pure
checker.  A counterexample is returned as a replayable witness bundle that
embeds the full instance.

A search runs in one process, and its verdict is deterministic for fixed
bounds and property: cases are checked in generation order and the first
failing case wins.  Every case is counted and decided, most one at a time.
Two kinds are decided in bulk, with the same count and the same first
counterexample as one at a time.  operator-lattice-closure decides its
pairs and the whole ground a ground at a time, from each point's
functions.  The leg searches (composition-continuous, composition-open and
open-preimage) decide a leg's cases at once: one word test against a
bound built once per (morphism, target), and only a leg that fails it has
its cases checked one by one.  A search decides each distinct instance
once: its ``SearchContext`` memoises the verdicts and bounds the
generators and checkers read, keyed by exactly the objects each depends
on.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from itertools import chain, combinations
from math import prod
from operator import itemgetter
from pathlib import Path

from .continuity import (
    Arm,
    StructuredSource,
    compose,
    continuity_bound,
    first_failing_position,
    initial_interior,
    initiality_violation,
    is_continuous,
    is_open_morphism,
    meet_interchange_report,
    open_preimage_witness,
    openness_bound,
    packed_floors,
    passes_bound,
    preimage_of_open_is_open,
    preserves_full_productivity_check,
    preserves_idempotency_check,
)
from .errors import (
    BoundsExceeded,
    CarrierMismatch,
    GroundMismatch,
    MalformedBundle,
    NotContinuous,
    NotOpen,
    ParseError,
    UnknownProperty,
)
from .interior import (
    InteriorMap,
    check_interior_axioms,
    folded_word,
    is_idempotent,
    is_productive,
    least,
    literal_trivial,
    map_of_word,
    open_sets,
)
from .lattice import diamond_lattice, pentagon_lattice
from .monoid import builtin_chain, godel_tensor, join_tensor
from .powerset import FuzzySet, Ground, GroundMorphism, Verdict, all_morphisms
from .value import Value
from . import io as fio


# ---------------------------------------------------------------- bounds

class SearchBounds(Value):
    """Budget for the enumeration suites.

    ``max_tables`` caps the interior maps streamed on any single ground
    (the enumeration raises as soon as it would yield one more), the
    total ``count_interior_maps`` reports, and one point's count of
    functions, which a sample checks before it lists any.
    ``operator_sample`` is how many interior maps per ground the
    cross-product suites combine (the least and discrete maps are always
    in the sample, so it is at least 2; the rest is an even stride
    through the full enumeration).  Every number must be positive; a NaN
    time budget would never expire and is refused too.  ``algebras``
    must name at least one algebra.
    """

    _fields = ("max_carrier", "max_tables", "time_budget", "algebras", "operator_sample")

    def __init__(
        self,
        max_carrier: int = 2,
        max_tables: int = 100_000,
        time_budget: float = 300.0,
        algebras: tuple[str, ...] = ("c2", "godel3"),
        operator_sample: int = 4,
    ):
        self.__dict__.update(
            max_carrier=max_carrier, max_tables=max_tables, time_budget=time_budget,
            algebras=algebras, operator_sample=operator_sample,
        )
        for name, v in zip(self._fields, self._key()):
            if isinstance(v, (int, float)) and not v > 0:  # NaN fails this too
                raise BoundsExceeded(f"{name} must be positive, got {v}")
        if operator_sample < 2:
            raise BoundsExceeded(
                f"operator_sample must be at least 2 (the least and the discrete map), got {operator_sample}"
            )
        if not algebras:
            raise BoundsExceeded("algebras must name at least one algebra")

    def replace(self, **changes) -> "SearchBounds":
        """A copy with the named bounds changed, validated afresh."""
        return SearchBounds(**{**self.__dict__, **changes})


def parse_bound(key: str, text: str):
    """The value of bound ``key`` written as text, for FUZZINT_BOUNDS and
    the search flags alike: ``algebras`` plus-separated names,
    ``time_budget`` seconds with an optional trailing "s", every other
    bound an integer.  BoundsExceeded for an unknown key or a bad value;
    an empty algebra list is left to ``SearchBounds`` to refuse."""
    if key not in SearchBounds._fields:
        raise BoundsExceeded(f"unknown bounds key {key!r}")
    if key == "algebras":
        return tuple(text.split("+")) if text else ()
    try:
        return float(text.removesuffix("s")) if key == "time_budget" else int(text)
    except ValueError:
        kind = "a number" if key == "time_budget" else "an integer"
        raise BoundsExceeded(f"{key} must be {kind}, got {text!r}") from None


def bounds_from_env(text: str | None) -> SearchBounds:
    """Parse a FUZZINT_BOUNDS override, e.g.
    "max_carrier=2,algebras=c2+godel3,time_budget=120"."""
    bounds = SearchBounds()
    if not text:
        return bounds
    updates = {}
    for item in text.split(","):
        if not item.strip():
            continue
        key, _, value = item.partition("=")
        key = key.strip().replace("-", "_")
        updates[key] = parse_bound(key, value.strip())
    return bounds.replace(**updates)


def builtin_algebra(name: str):
    """Resolve a named algebra: c2, godel<n>, lukasiewicz<n> for n >= 2,
    diamond-meet, diamond-join, pentagon-meet."""
    if name == "c2":
        return builtin_chain("godel", 2)
    for kind in ("godel", "lukasiewicz"):
        if name.startswith(kind) and name[len(kind):].isdecimal():
            n = int(name[len(kind):])
            if n < 2:
                raise BoundsExceeded(f"unknown algebra name {name!r}: a chain has at least 2 elements")
            return builtin_chain(kind, n)
    if name == "diamond-meet":
        return godel_tensor(diamond_lattice())
    if name == "diamond-join":
        return join_tensor(diamond_lattice())
    if name == "pentagon-meet":
        return godel_tensor(pentagon_lattice())
    raise BoundsExceeded(f"unknown algebra name {name!r}")


def grounds_within(bounds: SearchBounds):
    """One ground per carrier size up to ``max_carrier`` and named algebra,
    small carriers first; the algebra list alone decides the bases.  Each
    algebra is built once, so the grounds of one name share it.  Two names
    that build equal algebras (c2 and godel2, or one name twice) would
    check every case of that base twice: BoundsExceeded names both."""
    algebras = {}
    for name in bounds.algebras:
        algebra = builtin_algebra(name)
        same = next((other for other, built in algebras.items() if built == algebra), None)
        if same is not None:
            raise BoundsExceeded(f"algebras {same!r} and {name!r} build the same algebra")
        algebras[name] = algebra
    return [
        Ground(points=tuple(f"p{i + 1}" for i in range(size)), algebra=algebra)
        for size in range(1, bounds.max_carrier + 1)
        for algebra in algebras.values()
    ]


# ------------------------------------------------- interior map enumeration
#
# An interior map is monotone, lies below the identity and fixes top, and
# all three axioms hold pointwise in the product order of L^X.  So a map is
# one function g_x: L^X -> L per point x, chosen independently: monotone,
# with g_x(u) <= u(x) and g_x(top) = top.  Every point has as many, so the
# maps on a ground number one point's count to the power of the number of
# points, and in the stream's order a map is the interleaving of its
# per-point functions (see ``_unrank``).

def _backtrack(candidates, up, covers, order):
    """Every monotone assignment of values to the positions of L^X in
    ``order``, each drawn from its position's candidates.

    ``candidates[a]`` is the bitmask of the values position a may take,
    ``up[v]`` the bitmask of the values above value v, and ``covers[a]``
    the lower covers of position a; values are numbered along a linear
    extension, so a bit's position is its value.  On whole maps the values
    are positions of L^X (``index.down``, ``index.up``); on one point's
    functions they are lattice ranks in ``lattice.ascending`` order.
    Values are assigned position by position in ``order``, which must
    list each position after its lower covers; every other position keeps
    its greatest candidate, which at top is top.  The candidates at a
    position are its own, above the values already given to its lower
    covers (the AND of their upsets is the upset of their join), so a
    monotonicity violation prunes its whole suffix.  Depth first,
    ascending candidates; the one ``assign`` list is yielded each time
    every position in ``order`` has a value.  The candidates are never
    empty (the join of the lower covers' values lies below the position's
    own greatest candidate), so no branch dies before it yields, and a
    caller that checks a deadline every so many yields bounds the whole
    walk.
    """
    assign = [mask.bit_length() - 1 for mask in candidates]
    last = len(order) - 1
    if last < 0:
        yield assign
        return
    pending = [0] * (last + 1)  # untried candidates per depth, as a bitmask
    pending[0] = candidates[order[0]]  # the first position has no lower covers
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
        options = candidates[a]
        for c in covers[a]:
            options &= up[assign[c]]
        pending[depth] = options


def _point_candidates(ground: Ground):
    """The value tables of the per-point walks: the upset of each lattice
    rank, and for each point x the candidates of g_x at every position of
    L^X, the ranks below u(x)."""
    leq, ascending = ground.lattice.leq, ground.lattice.ascending
    ranks = range(len(ascending))
    up = [sum(1 << s for s in ranks if leq[ascending[r]][ascending[s]]) for r in ranks]
    below = {v: sum(1 << s for s in ranks if leq[ascending[s]][v]) for v in ascending}
    return up, [[below[u[x]] for u in ground.index.values] for x in range(len(ground.points))]


def enumerate_interior_maps(ground: Ground, bounds: SearchBounds | None = None, expire=None):
    """Stream every interior map on the ground exactly once.

    Images are assigned position by position along the ground's index, a
    linear extension of L^X, by ``_backtrack``: monotonicity is checked on
    the cover edges as each position is filled, so a violation prunes its
    whole suffix.  Order is deterministic: depth first, ascending candidate
    positions.  Yielding more than ``bounds.max_tables`` maps raises
    ``BoundsExceeded``.  ``expire``, a search's deadline check that raises
    once the budget is spent, is called before every 1,024th map, at the
    comparison that already guards the cap, so a walk that fits the budget
    pays nothing per map for it.
    """
    cap = (bounds or SearchBounds()).max_tables
    index = ground.index
    emitted = bar = 0
    for assign in _backtrack(index.down, index.up, index.covers, range(len(index.values) - 1)):
        if emitted == bar:
            if emitted == cap:
                raise BoundsExceeded(f"more than {cap} interior maps on this ground")
            if expire is not None:
                expire()
            bar = min(emitted + 1024, cap)
        emitted += 1
        yield InteriorMap(ground, tuple(assign))


def _point_count(ground: Ground, limit: int, expire) -> int:
    """The number of functions g_x at one point x, which every point has
    (swapping two coordinates of L^X carries one point's onto another's),
    or a running count past ``limit``; 1 with no point.  The walk leaves
    out top's lower covers, the coatoms, and each leaf adds the product of
    their candidate counts.  That is exact: top is the only position that
    covers a coatom, so given the rest each coatom is bound only by its
    own lower covers.  ``expire`` is called before every 1,024th leaf.
    """
    up, per_point = _point_candidates(ground)
    if not per_point:
        return 1
    candidates, covers = per_point[0], ground.index.covers
    coatoms = covers[-1]
    order = [a for a in range(len(covers) - 1) if a not in coatoms]
    count = 0
    for assign in _paced(_backtrack(candidates, up, covers, order), expire):
        product = 1
        for k in coatoms:
            options = candidates[k]
            for c in covers[k]:
                options &= up[assign[c]]
            product *= options.bit_count()
        count += product
        if count > limit:
            break
    return count


def count_interior_maps(ground: Ground, bounds: SearchBounds | None = None, expire=None) -> int:
    """The number of interior maps on the ground, without building them:
    one point's count to the power of the number of points.  More than
    ``bounds.max_tables`` raise ``BoundsExceeded``, during the walk once
    one point's count alone passes the cap."""
    cap = (bounds or SearchBounds()).max_tables
    total = _point_count(ground, cap, expire) ** len(ground.points)
    if total > cap:
        raise BoundsExceeded(f"more than {cap} interior maps on this ground")
    return total


def interior_sample(ground: Ground, bounds: SearchBounds, expire=None):
    """Deterministic spread of interior maps on the ground: an even stride
    through the stream that keeps the least (first) and discrete (last)
    maps, and every map when the stream fits ``operator_sample``.

    One point's functions are counted first (``_point_count``), and more
    than ``max_tables`` are refused before any is listed.  The kept
    indices are then unranked (``_unrank``) from each point's functions
    (``_point_functions``); only the kept maps are built, at most the
    whole stream.  Counting, listing and building call ``expire`` every
    1,024 functions or maps.
    """
    if _point_count(ground, bounds.max_tables, expire) > bounds.max_tables:
        raise BoundsExceeded(f"more than {bounds.max_tables} functions at one point of this ground")
    functions = _point_functions(ground, expire)
    total, cap = prod(map(len, functions)), bounds.operator_sample
    top = len(ground.index.values) - 1
    kept = range(total) if cap >= total else sorted({round(k * (total - 1) / (cap - 1)) for k in range(cap)})
    return [_assembled(ground, _unrank(functions, n, top)) for n in _paced(kept, expire)]


def _paced(items, expire):
    """The items, with ``expire``, if any, called before every 1,024th."""
    for k, item in enumerate(items):
        if not k & 1023 and expire is not None:
            expire()
        yield item


def _point_functions(ground: Ground, expire=None) -> list:
    """Each point's functions g_x, as tuples of lattice ranks by position,
    listed once in the order its own walk yields them, so the projection
    u -> u(x) comes last; ``expire`` is called before every 1,024th
    function of each point."""
    covers = ground.index.covers
    up, per_point = _point_candidates(ground)
    walks = (_backtrack(candidates, up, covers, range(len(covers) - 1)) for candidates in per_point)
    return [[tuple(assign) for assign in _paced(walk, expire)] for walk in walks]


def _assembled(ground: Ground, functions) -> InteriorMap:
    """The map with these functions, one per point in order: a position's
    ranks, read in base |L|."""
    width = len(ground.lattice)
    images = [0] * len(ground.index.values)
    for function in functions:
        images = [image * width + rank for image, rank in zip(images, function)]
    return InteriorMap(ground, tuple(images))


def _unrank(functions, n: int, top: int) -> list:
    """The per-point functions of the ``n``-th map of the stream, one from
    each point's list in ``functions``.

    The stream is lexicographic over the interleaved ranks (I(u_0)(x_1),
    ..., I(u_0)(x_n), I(u_1)(x_1), ...).  Entry by entry in that order,
    the functions of a point that agree with the entries fixed so far form
    a contiguous range of its list, which their value at the entry splits
    into sub-ranges.  The maps through a sub-range number its length times
    the lengths of the other points' ranges, and that picks the sub-range
    holding ``n``.
    """
    spans = [(0, len(listed)) for listed in functions]
    for a in range(top):
        entry = itemgetter(a)
        for x, listed in enumerate(functions):
            lo, hi = spans[x]
            others = prod(end - start for y, (start, end) in enumerate(spans) if y != x)
            while True:
                end = bisect_right(listed, listed[lo][a], lo, hi, key=entry)
                if n < (end - lo) * others:
                    break
                n -= (end - lo) * others
                lo = end
            spans[x] = (lo, end)
    return [listed[lo] for listed, (lo, _) in zip(functions, spans)]


# ---------------------------------------------------------- search context

class SearchContext(dict):
    """One search's grounds, deadline and memos.

    Built once per search.  The context is itself the search's one memo:
    a dict whose key ``(build, *args)`` holds ``build(context, *args)``,
    built by ``__missing__`` on first lookup, so a hit is one dict lookup
    that builds no closure and calls nothing but the hashes of the key's
    own objects.  The functions below are the memo's kinds.  A key holds
    its grounds as ``Ground``, ``InteriorMap`` or ``GroundMorphism``
    objects, never a word without its ground.  Arms' initial interiors
    and the joins and meets of families and arms are interned, so equal
    ones share their floors and their axiom verdicts.  Everything is
    dropped with the context, so nothing is cached across searches.
    ``checked`` counts the cases the search has checked, with those a
    generator decided in bulk (a ground's pairs and the whole ground, a
    leg's cases), and ``expire`` names it wherever the budget runs out.
    """

    __slots__ = ("bounds", "deadline", "grounds", "checked")

    def __init__(self, bounds: SearchBounds):
        super().__init__()
        self.bounds = bounds
        self.deadline = time.monotonic() + bounds.time_budget
        self.grounds = grounds_within(bounds)
        self.checked = 0

    def __missing__(self, key: tuple):
        value = self[key] = key[0](self, *key[1:])
        return value

    def expire(self) -> None:
        """Raise once the time budget is spent."""
        if time.monotonic() > self.deadline:
            raise BoundsExceeded(
                f"time budget {self.bounds.time_budget}s exhausted after {self.checked} cases"
            )

    def floors(self, initial: InteriorMap) -> int:
        """The memoised ``_floors`` of an initial interior, as the callable
        that ``initiality_violation`` takes."""
        return self[_floors, initial]


# The memo's kinds: ``ctx[build, *args]`` is ``build(ctx, *args)``, built
# once per search.

def _sample(ctx: SearchContext, ground: Ground) -> list:
    return interior_sample(ground, ctx.bounds, ctx.expire)


def _arm(ctx: SearchContext, g: GroundMorphism, target: InteriorMap) -> Arm:
    """The prepared arm, whose initial interior is validated once per
    (g, target) and interned."""
    arm = Arm(g, target)
    arm.initial = ctx[_interned, arm.initial]
    return arm


def _floors(ctx: SearchContext, initial: InteriorMap) -> int:
    """``packed_floors`` of an initial interior, an arm's or a lift, along
    every test morphism into its ground, packed once per interior map."""
    return packed_floors(initial, ctx[_test_morphisms, initial.ground])


def _interned(ctx: SearchContext, value):
    """The search's one object equal to ``value``, a morphism (which
    builds its backward positions once) or an interior map, so the memos
    keyed by it meet it by identity."""
    return value


def _composite(ctx: SearchContext, g2: GroundMorphism, g1: GroundMorphism) -> GroundMorphism:
    """``compose(g2, g1)``, built once per pair and interned, so equal
    composites of different pairs, and a leg equal to a composite, are
    one object."""
    return ctx[_interned, compose(g2, g1)]


def _verdict(ctx: SearchContext, check, *args) -> Verdict:
    """``check(*args)``, decided once per search for each distinct argument
    tuple: continuity or openness of (morphism, src, dst), a predicate of
    a lifted map."""
    return check(*args)


def _combined(ctx: SearchContext, how: str, ground: Ground, word: int) -> tuple:
    """A family's pointwise join or meet, from its ``folded_word``, and
    its axiom verdict, looked up per (how, ground, word).  Only a new word
    is decoded (``map_of_word``); the map is interned, and its verdict is
    decided once per distinct map, so a join and a meet that agree share
    one ``check_interior_axioms``."""
    combined = ctx[_interned, map_of_word(ground, how, word)]
    return combined, ctx[_verdict, check_interior_axioms, combined]


def _test_morphisms(ctx: SearchContext, dom: Ground) -> list:
    """Every morphism from a test ground into ``dom``, listed with the
    deadline read every 1,024.  Each one computes its backward positions
    on first use and keeps them, so they are built once per search."""
    return list(_paced((g for z in ctx.grounds for g in all_morphisms(z, dom)), ctx.expire))


# ------------------------------------------------------------- properties
#
# A generator yields cases with the keys of a bundle's case, each holding a
# live Ground, InteriorMap, GroundMorphism or FuzzySet; ``io.case_to_json``
# writes one into a bundle and ``io.case_from_json`` reads it back, so a
# replay runs the search's own checker.  A checker trusts its case to meet
# the theorem's hypotheses; ``HYPOTHESES`` holds a replayed case to them.

def _gen_literal_trivial(ctx: SearchContext):
    for ground in ctx.grounds:
        yield {"ground": ground}


def _check_literal_trivial(case: dict, ctx: SearchContext):
    verdict = check_interior_axioms(literal_trivial(case["ground"]))
    return None if verdict.ok else verdict.witness


def _near_maps(ctx: SearchContext, ground: Ground) -> list:
    """For each point x, the maps that agree with the discrete map off x,
    in stream order: the projection, each point's last function, at every
    point but x, and each of x's functions at x.  Listing and assembling
    both read the deadline every 1,024 functions."""
    functions = _point_functions(ground, ctx.expire)
    projection = [listed[-1] for listed in functions]
    return [
        [_assembled(ground, projection[:x] + [g] + projection[x + 1:]) for g in _paced(listed, ctx.expire)]
        for x, listed in enumerate(functions)
    ]


def _gen_operator_lattice(ctx: SearchContext):
    """Every family of a ground's maps when it has at most 12, else every
    pair and then the whole ground, decided in bulk without listing them.

    The axioms hold point by point, and a family's join (meet) at x is the
    join (meet) of its functions at x.  So a pair passes iff at every
    point x the pair of maps near at x (``_near_maps``) that carry its two
    functions there passes.  At each x the distinct near maps carry every
    function and the projection, so their join and meet are the whole
    ground's.  When every pair of maps near at one point passes, and then
    the family of all distinct near maps, the ground's pairs and the whole
    ground are counted without a case each; else the first failing family
    is yielded as the counterexample."""
    for ground in ctx.grounds:
        count = count_interior_maps(ground, ctx.bounds, ctx.expire)
        if count <= 12:
            maps = list(enumerate_interior_maps(ground, ctx.bounds, ctx.expire))
            for mask in range(1, 2 ** count):
                members = [maps[k] for k in range(count) if mask >> k & 1]
                yield {"kind": "subset", "ground": ground, "members": members}
            continue
        near = _near_maps(ctx, ground)
        pairs = (("pair", pair) for group in near for pair in combinations(group, 2))
        whole = ("subset", dict.fromkeys(m for group in near for m in group))
        for kind, members in chain(pairs, [whole]):
            ctx.expire()
            case = {"kind": kind, "ground": ground, "members": list(members)}
            if _check_operator_lattice(case, ctx) is not None:
                yield case
                break
        else:
            ctx.checked += count * (count - 1) // 2 + 1


def _check_operator_lattice(case: dict, ctx: SearchContext):
    """The pointwise join, then the meet, of the family against the
    interior axioms: the first failing operation with its witness, or None.

    Each operation folds the members' words (``folded_word``) and looks
    the word up in the ``_combined`` memo, so a case costs one AND per
    member and one lookup per operation; only a new word is decoded, and
    ``check_interior_axioms`` runs at most once per distinct map.
    """
    ground, members = case["ground"], case["members"]
    for how in ("join", "meet"):
        _, verdict = ctx[_combined, how, ground, folded_word(members, how)]
        if not verdict.ok:
            return {"operation": how, **verdict.witness}
    return None


def _bounds(ctx: SearchContext, open_mode: bool, g: GroundMorphism) -> list:
    """``openness_bound`` or ``continuity_bound`` of ``g`` into each map of
    its codomain's sample, in sample order, built once per morphism."""
    bound = openness_bound if open_mode else continuity_bound
    return [bound(g, dst) for dst in ctx[_sample, g.cod]]


def _legs(ctx: SearchContext, open_mode: bool) -> dict:
    """All (morphism, src map, dst map) passing the chosen test, grouped
    by source map, in the order each source first passes, for
    composition joins.  Each (morphism, target) bound is built once, and
    each candidate leg is one word test."""
    by_source: dict = {}
    for dom in ctx.grounds:
        sources = ctx[_sample, dom]
        for cod in ctx.grounds:
            targets = ctx[_sample, cod]
            for g in all_morphisms(dom, cod):
                g = ctx[_interned, g]
                bounds = ctx[_bounds, open_mode, g]
                for src in sources:
                    ctx.expire()
                    word = src.words[open_mode]
                    for dst, bound in zip(targets, bounds):
                        if passes_bound(word, bound):
                            by_source.setdefault(src, []).append((g, src, dst))
    return by_source


def _onward_bound(ctx: SearchContext, open_mode: bool, g1: GroundMorphism, mid: InteriorMap) -> int:
    """One bound for every composite through the leg (g1, mid) and a leg
    out of ``mid``: a source passes it iff it passes each composite's,
    since a word has no bit outside each bound iff it has none outside
    their AND."""
    bound = -1
    for g2, positions in ctx[_onward, open_mode, mid]:
        words = ctx[_bounds, open_mode, ctx[_composite, g2, g1]]
        for k in positions:
            bound &= words[k]
    return bound


def _onward(ctx: SearchContext, open_mode: bool, mid: InteriorMap) -> list:
    """The legs out of ``mid``, as (morphism, sample positions of its
    targets) pairs, so a composite's bounds are read by position."""
    onward: dict = {}
    for g2, _, dst in ctx[_legs, open_mode].get(mid, ()):
        onward.setdefault(g2, []).append(ctx[_position, dst])
    return list(onward.items())


def _position(ctx: SearchContext, imap: InteriorMap) -> int:
    """The position of a sampled map in its ground's sample."""
    return ctx[_sample, imap.ground].index(imap)


def _first_failing(ctx: SearchContext, cases, check):
    """The first case that ``check`` fails, counting each one before it as
    checked; None, with every case counted, when all pass."""
    for case in cases:
        if check(case, ctx) is not None:
            return case
        ctx.checked += 1
    return None


def _gen_composition(ctx: SearchContext, open_mode: bool):
    """Composable pairs of legs, decided leg by leg: a first leg (g1, src,
    mid) whose source passes ``_onward_bound`` counts its cases, one per
    leg out of ``mid``, in bulk; else they are checked in order, and the
    first that fails is yielded."""
    by_source = ctx[_legs, open_mode]
    for legs in by_source.values():
        for g1, src, mid in legs:
            ctx.expire()
            onward = by_source.get(mid, ())
            if passes_bound(src.words[open_mode], ctx[_onward_bound, open_mode, g1, mid]):
                ctx.checked += len(onward)
                continue
            cases = (
                {"open": open_mode, "first": g1, "second": g2, "interiors": [src, mid, dst]}
                for g2, _, dst in onward
            )
            case = _first_failing(ctx, cases, _check_composition)
            if case is not None:
                yield case
                return


def _check_composition(case: dict, ctx: SearchContext):
    src, _, dst = case["interiors"]
    test = is_open_morphism if case["open"] else is_continuous
    verdict = ctx[_verdict, test, ctx[_composite, case["second"], case["first"]], src, dst]
    return None if verdict.ok else verdict.witness


def _gen_open_preimage(ctx: SearchContext):
    """The open sets of each continuous leg's target, decided leg by leg
    in one pass: the sets whose backward image the source fixes are
    counted, and the first that fails is yielded."""
    for legs in ctx[_legs, False].values():
        for g, src, dst in legs:
            ctx.expire()
            opens = open_sets(dst)
            for k, v in enumerate(opens):
                if open_preimage_witness(g, src, v) is not None:
                    ctx.checked += k
                    values = dst.ground.index.values
                    yield {"morphism": g, "src": src, "dst": dst, "v": FuzzySet(dst.ground, values[v])}
                    return
            ctx.checked += len(opens)


def _check_open_preimage(case: dict, ctx: SearchContext):
    g = case["morphism"]
    return open_preimage_witness(g, case["src"], g.cod.index.position[case["v"].values])


# -- structured sources -------------------------------------------------------

def _arm_family(ctx: SearchContext, dom: Ground):
    """Every {morphism, target interior} arm out of a domain, listed with
    the deadline read every 1,024."""
    arms = (
        {"morphism": g, "interior": target}
        for cod in ctx.grounds
        for g in all_morphisms(dom, cod)
        for target in ctx[_sample, cod]
    )
    return list(_paced(arms, ctx.expire))


def _gen_sources(ctx: SearchContext, min_arms: int):
    for dom in ctx.grounds:
        arms = _arm_family(ctx, dom)
        if min_arms <= 1:
            for arm in arms:
                yield {"domain": dom, "arms": [arm]}
        for a, b in combinations(arms, 2):
            yield {"domain": dom, "arms": [a, b]}


def _case_source(case: dict, ctx: SearchContext):
    """The source domain and its prepared arms."""
    return case["domain"], [ctx[_arm, arm["morphism"], arm["interior"]] for arm in case["arms"]]


def _folded_lift(ctx: SearchContext, how: str, dom: Ground, arms) -> tuple:
    """The pointwise join (``how`` is "join") or meet ("meet") of the
    arms' initial interiors, with its axiom verdict: their
    ``folded_word``, decoded once per (how, domain, word) by the
    ``_combined`` memo.  The empty join is the least map; the empty
    meet, the fold of no words, decodes to the constant-top map."""
    if not arms and how == "join":
        return ctx[_combined, how, dom, least(dom).words[0]]
    return ctx[_combined, how, dom, folded_word([arm.initial for arm in arms], how)]


def _lost_arm(dom: Ground, arms, lift: InteriorMap):
    """Witness of the first arm the lift fails to keep continuous, with
    the lift's value where it falls short, or None.

    An interior map keeps an arm continuous iff it lies above the arm's
    initial interior, which is one test of upset words per arm:
    ``passes_bound`` against the initial's word.  Only an arm that fails
    it is scanned position by position, for the witness.
    """
    word = lift.words[0]
    down, values, images = dom.index.down, dom.index.values, lift.images
    for index, arm in enumerate(arms):
        if passes_bound(word, arm.initial.words[0]):
            continue
        bw, outer = arm.morphism.backward, arm.target.images
        b = first_failing_position(bw, images, outer, down)
        if b is None:
            raise AssertionError("the lift fails an arm's word test, yet no position fails its scan")
        w = bw[b]
        return {
            "stage": "arm-continuity",
            "arm_index": index,
            "arm": arm.morphism.describe(),
            "w": dom.named(values[w]),
            "required": dom.named(values[bw[outer[b]]]),
            "meet_lift_at_w": dom.named(values[images[w]]),
        }
    return None


def _check_initiality(case: dict, ctx: SearchContext):
    """Join-form lift: the axioms, then the universal property at every
    test morphism, decided by ``initiality_violation`` from the packed
    floors the context keeps per initial interior.  The lift's upset word
    is the AND of the arms' initial ones, so it keeps every arm
    continuous: arm continuity is reported only by
    ``literal-meet-source-lift``."""
    dom, arms = _case_source(case, ctx)
    lift, verdict = _folded_lift(ctx, "join", dom, arms)
    if not verdict.ok:
        return {"stage": "axioms", **verdict.witness}
    found = initiality_violation(ctx[_test_morphisms, dom], lift, arms, ctx.floors)
    return None if found is None else {"stage": "initiality", **found[1]}


def _check_literal_meet_lift(case: dict, ctx: SearchContext):
    """The meet-form lift satisfies the axioms but must keep every arm
    continuous to qualify as a lift; report the first arm it loses."""
    dom, arms = _case_source(case, ctx)
    meet_lift, verdict = _folded_lift(ctx, "meet", dom, arms)
    if not verdict.ok:
        return {"stage": "axioms", **verdict.witness}
    return _lost_arm(dom, arms, meet_lift)


def _gen_preservation(ctx: SearchContext, predicate):
    """Every morphism into every sampled target that meets the predicate.
    The morphisms of a pair of grounds are listed once, with the deadline
    read every 1,024, so each computes its right adjoint once for all its
    targets."""
    for dom in ctx.grounds:
        for cod in ctx.grounds:
            homs = list(_paced(all_morphisms(dom, cod), ctx.expire))
            for target in ctx[_sample, cod]:
                if not ctx[_verdict, predicate, target]:
                    continue
                for g in homs:
                    yield {"morphism": g, "interior": target}


def _check_preservation(case: dict, ctx: SearchContext, predicate):
    """The predicate of the initial interior, decided once per lifted
    map."""
    lifted = initial_interior(case["morphism"], case["interior"])
    verdict = ctx[_verdict, predicate, lifted]
    return None if verdict.ok else verdict.witness


def _gen_meet_interchange(ctx: SearchContext):
    for dom in ctx.grounds:
        for cod in ctx.grounds:
            for g in all_morphisms(dom, cod):
                yield {"morphism": g}


def _check_meet_interchange(case: dict, ctx: SearchContext):
    verdict = meet_interchange_report(case["morphism"])
    return None if verdict.ok else verdict.witness


PROPERTIES = {
    "literal-trivial-interior": (_gen_literal_trivial, _check_literal_trivial, fio.case_to_json),
    "operator-lattice-closure": (_gen_operator_lattice, _check_operator_lattice, fio.case_to_json),
    "composition-continuous": (lambda ctx: _gen_composition(ctx, open_mode=False), _check_composition, fio.case_to_json),
    "composition-open": (lambda ctx: _gen_composition(ctx, open_mode=True), _check_composition, fio.case_to_json),
    "open-preimage": (_gen_open_preimage, _check_open_preimage, fio.case_to_json),
    "initiality": (lambda ctx: _gen_sources(ctx, min_arms=1), _check_initiality, fio.case_to_json),
    "literal-meet-source-lift": (lambda ctx: _gen_sources(ctx, min_arms=2), _check_literal_meet_lift, fio.case_to_json),
    "preservation-idempotent": (
        lambda ctx: _gen_preservation(ctx, is_idempotent),
        lambda case, ctx: _check_preservation(case, ctx, is_idempotent),
        fio.case_to_json,
    ),
    "preservation-fully-productive": (
        lambda ctx: _gen_preservation(ctx, is_productive),
        lambda case, ctx: _check_preservation(case, ctx, is_productive),
        fio.case_to_json,
    ),
    "meet-interchange": (_gen_meet_interchange, _check_meet_interchange, fio.case_to_json),
}


# -------------------------------------------------------------- hypotheses
#
# Replay only.  Each entry reads the keys its checker reads (a missing one is
# a ParseError) and raises unless the case's parts fit together and meet the
# theorem's hypotheses, checked by the public checks' own preconditions.

def _keys(case: dict, *keys: str) -> list:
    """The case's values under ``keys``; a missing key is a ParseError."""
    for key in keys:
        if key not in case:
            raise ParseError(f"case missing key {key!r}")
    return [case[key] for key in keys]


def _family_on_its_ground(case: dict) -> None:
    ground, members = _keys(case, "ground", "members")
    if not members:
        raise MalformedBundle("an operator-lattice-closure case needs at least one member")
    if any(m.ground != ground for m in members):
        raise GroundMismatch("a member lives on another ground than the case")


def _legs_pass(case: dict) -> None:
    """Both legs pass the test the composite is held to."""
    open_mode, g1, g2, (src, mid, dst) = _keys(case, "open", "first", "second", "interiors")
    test, error = (is_open_morphism, NotOpen) if open_mode else (is_continuous, NotContinuous)
    for g, a, b in ((g1, src, mid), (g2, mid, dst)):
        verdict = test(g, a, b)
        if not verdict:
            raise error(verdict.witness)


def _v_open_along_continuous(case: dict) -> None:
    g, src, dst, v = _keys(case, "morphism", "src", "dst", "v")
    if v.ground != dst.ground:
        raise CarrierMismatch("fuzzy set ground differs from the target space")
    preimage_of_open_is_open(g, src, dst, dst.ground.index.position[v.values])


def _arms_fit(case: dict) -> None:
    """Every arm starts at the domain and ends at its space."""
    domain, arms = _keys(case, "domain", "arms")
    StructuredSource(domain, tuple(_keys(arm, "morphism", "interior") for arm in arms))


HYPOTHESES = {
    "literal-trivial-interior": lambda case: _keys(case, "ground"),
    "operator-lattice-closure": _family_on_its_ground,
    "composition-continuous": _legs_pass,
    "composition-open": _legs_pass,
    "open-preimage": _v_open_along_continuous,
    "initiality": _arms_fit,
    "literal-meet-source-lift": _arms_fit,
    "preservation-idempotent": lambda case: preserves_idempotency_check(*_keys(case, "morphism", "interior")),
    "preservation-fully-productive": (
        lambda case: preserves_full_productivity_check(*_keys(case, "morphism", "interior"))
    ),
    "meet-interchange": lambda case: _keys(case, "morphism"),
}


# ------------------------------------------------------------------ driver

class SearchResult:
    """The outcome of a search or a replay; unlike the value classes, a
    plain mutable record, compared field by field."""

    def __init__(self, prop: str, status: str, instances: int, bundle: dict | None):
        self.prop = prop
        self.status = status  # "no-counterexample" | "counterexample"
        self.instances = instances
        self.bundle = bundle

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

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
    out=None,
) -> SearchResult:
    """Scan every case of a registered property inside the bounds.

    Returns the count of clean instances, or the first counterexample as a
    standalone witness bundle (optionally written to ``out``).  Exceeding
    the time budget, while generating cases or checking them, raises
    rather than returning a false all-clear.
    """
    if not isinstance(prop, str) or prop not in PROPERTIES:
        raise UnknownProperty(prop, tuple(PROPERTIES))
    ctx = SearchContext(bounds or SearchBounds())
    check = checker_for(prop, ctx)
    witness = None
    for case in PROPERTIES[prop][0](ctx):
        ctx.expire()
        ctx.checked += 1
        found = check(case)
        if found is not None:
            witness = _bundle(prop, case, found)
            break
    status = "no-counterexample" if witness is None else "counterexample"
    result = SearchResult(prop=prop, status=status, instances=ctx.checked, bundle=witness)
    if out is not None and witness is not None:
        fio.save_json(out, witness)
    return result


def _bundle(prop: str, case: dict, witness: dict) -> dict:
    describe = PROPERTIES[prop][2]
    return {"property": prop, "case": describe(case), "witness": witness}


def replay(bundle: dict, base: Path | None = None) -> SearchResult:
    """Re-evaluate a witness bundle deterministically: load its case, hold
    it to ``HYPOTHESES``, then run the search's own checker on it.  A file
    name in the case is read relative to ``base``, the bundle's
    directory."""
    if not isinstance(bundle, dict):
        raise MalformedBundle("bundle must be a JSON object")
    for key in ("property", "case", "witness"):
        if key not in bundle or bundle[key] is None:
            raise MalformedBundle(f"missing {key!r} (summaries carry no witness)")
    prop = bundle["property"]
    if not isinstance(prop, str) or prop not in PROPERTIES:
        raise UnknownProperty(prop, tuple(PROPERTIES))
    case = fio.case_from_json(bundle["case"], base)
    HYPOTHESES[prop](case)
    found = checker_for(prop, SearchContext(SearchBounds()))(case)
    status = "no-counterexample" if found is None else "counterexample"
    witness = None if found is None else {"property": prop, "case": bundle["case"], "witness": found}
    return SearchResult(prop=prop, status=status, instances=1, bundle=witness)
