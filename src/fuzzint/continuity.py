"""Continuity, openness, and initial structures for ground morphisms.

A morphism into a structured space is continuous when the backward image of
every interior sits below the interior of the backward image; it is open
under the reverse inequality.  Both notions compose.

For a single morphism the initial interior is backward after the target
interior after the right adjoint of backward; it is the least interior map
on the domain making the morphism continuous (any smaller one breaks
continuity, any other candidate dominates it).  For a structured source the
joint initial structure is therefore the pointwise JOIN of the per-morphism
initial maps: the least structure above all of them.  A pointwise meet --
which the traditional display suggests -- fails to keep the source
morphisms continuous as soon as two targets disagree (take two identity
morphisms onto the discrete and the least space: the meet is the least
operator, which is not continuous into the discrete target).  A regression
property keeps that corrected polarity honest, mirroring the corrected
least operator.

A structured space is an ``InteriorMap``: its ground and its interior in
one object.  Every check here works on powerset index positions: a map's
images are a tuple of image positions, a morphism's backward operator another
(``GroundMorphism.backward``), and the order is one downset bitmask per
position.  Value tuples and element names appear only in witnesses.

``verify_initiality`` checks the defining universal property extensionally:
a morphism from any bounded test space is continuous into the lift exactly
when all composites are continuous.  The quantifier over test interiors is
discharged exactly by a least-constrained-operator argument in
``initiality_violation``, the one kernel that both ``verify_initiality``
and the ``initiality`` search call.  A literal enumeration over test
interiors lives in the test suite as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import GroundMismatch, NotContinuous, PropertyPreconditionFailed
from .interior import InteriorMap, is_fully_productive, is_idempotent, join_interiors, least
from .powerset import (
    FuzzySet,
    Ground,
    GroundMorphism,
    Verdict,
    all_morphisms,
    right_adjoint_values,
)


@dataclass(frozen=True)
class StructuredSource:
    """A domain ground with a family of morphisms into structured spaces."""

    domain: Ground
    arms: tuple  # of (GroundMorphism, InteriorMap)

    def __post_init__(self):
        for g, target in self.arms:
            if g.dom != self.domain:
                raise GroundMismatch("arm morphism does not start at the source domain")
            if g.cod != target.ground:
                raise GroundMismatch("arm morphism does not end at its space")


# -- continuity and openness --------------------------------------------------

def is_continuous(g: GroundMorphism, src: InteriorMap, dst: InteriorMap) -> Verdict:
    """Backward of the target interior below the source interior of backward,
    for every fuzzy set on the codomain."""
    return _scan(g, src, dst, "continuity")


def is_open_morphism(g: GroundMorphism, src: InteriorMap, dst: InteriorMap) -> Verdict:
    """The reverse inequality: source interior of backward below backward of
    the target interior."""
    return _scan(g, src, dst, "openness")


def _scan(g: GroundMorphism, src: InteriorMap, dst: InteriorMap, prop: str) -> Verdict:
    """The first codomain position b at which backward(dst(b)) and
    src(backward(b)) are out of order: the first below the second for
    continuity, the second below the first for openness."""
    _check_ends(g, src, dst)
    bw, inner, outer = g.backward, src.images, dst.images
    down = g.dom.index.down
    reverse = prop == "openness"
    for b, image in enumerate(outer):
        lhs, rhs = bw[image], inner[bw[b]]
        if reverse:
            lhs, rhs = rhs, lhs
        if not down[rhs] >> lhs & 1:
            values = g.dom.index.values
            witness = {
                "v": g.cod.named(g.cod.index.values[b]),
                "lhs": g.dom.named(values[lhs]),
                "rhs": g.dom.named(values[rhs]),
            }
            return Verdict(ok=False, prop=prop, witness=witness, checked=b + 1)
    return Verdict(ok=True, prop=prop, witness=None, checked=len(outer))


def _check_ends(g: GroundMorphism, src: InteriorMap, dst: InteriorMap) -> None:
    if g.dom != src.ground:
        raise GroundMismatch("morphism domain differs from the source space")
    if g.cod != dst.ground:
        raise GroundMismatch("morphism codomain differs from the target space")


def compose(g2: GroundMorphism, g1: GroundMorphism) -> GroundMorphism:
    """g2 after g1; backward of the composite is backward(g1) after
    backward(g2)."""
    if g1.cod != g2.dom:
        raise GroundMismatch("codomain of the first leg differs from the domain of the second")
    return GroundMorphism(
        dom=g1.dom,
        cod=g2.cod,
        f=tuple(g2.f[y] for y in g1.f),
        phi_op=tuple(g1.phi_op[g2.phi_op[c]] for c in range(len(g2.cod.lattice))),
    )


# -- initial structures ---------------------------------------------------------

def initial_interior(g: GroundMorphism, target: InteriorMap) -> InteriorMap:
    """Backward after the target interior after the right adjoint.

    This is the least interior map on the domain of ``g`` making ``g``
    continuous into the target.
    """
    if g.cod != target.ground:
        raise GroundMismatch("morphism codomain differs from the target space")
    position = g.cod.index.position
    bw, images = g.backward, target.images
    ra = [position[right_adjoint_values(g, u)] for u in g.dom.index.values]
    return InteriorMap(g.dom, tuple(bw[images[b]] for b in ra)).validated()


def initial_from_source(s: StructuredSource) -> InteriorMap:
    """The joint initial structure: pointwise join of the per-arm initial
    interiors; the empty source yields the least operator (empty join)."""
    per_arm = [initial_interior(g, target) for g, target in s.arms]
    if not per_arm:
        return least(s.domain)
    return join_interiors(per_arm)


# -- initiality verification ----------------------------------------------------

def continuity_constraints(g: GroundMorphism, target: InteriorMap) -> list:
    """(backward(v), backward(interior(v))) position pairs on the domain,
    one per codomain position v; an interior i on the domain makes g
    continuous into the target iff c <= i(w) for every pair (w, c)."""
    bw = g.backward
    return [(bw[v], bw[image]) for v, image in enumerate(target.images)]


class Arm:
    """One arm (g, target interior) of a structured source, prepared for
    initiality checks.

    ``constraints`` are the arm's continuity constraints, as position
    pairs.  ``floor`` memoises, per test morphism, the constraints
    transported along it and the least test interior above them; the memo
    lives as long as the arm.
    """

    __slots__ = ("morphism", "constraints", "_floors")

    def __init__(self, g: GroundMorphism, target: InteriorMap):
        self.morphism = g
        self.constraints = tuple(continuity_constraints(g, target))
        self._floors = {}

    def floor(self, g_test: GroundMorphism):
        """(least test interior images, transported pairs) along
        ``g_test``, all as positions on its domain."""
        if g_test not in self._floors:
            bw = g_test.backward
            moved = tuple((bw[w], bw[c]) for w, c in self.constraints)
            self._floors[g_test] = (_least_above(g_test.dom, moved), moved)
        return self._floors[g_test]


def _least_above(ground: Ground, pairs) -> tuple:
    """Images of the least interior map i with c <= i(w) for every
    position pair (w, c).

    Each c must lie below its w, as in every continuity constraint.  The
    map sends top to top and any other w to the join of the c whose w lies
    below it; it is contractive and monotone, and every interior map
    satisfying the constraints dominates it pointwise.
    """
    index = ground.index
    up = index.up
    top = len(up) - 1
    return tuple(index.join(c for w, c in pairs if up[w] >> a & 1) for a in range(top)) + (top,)


def initiality_violation(g_test: GroundMorphism, lift_pairs, arms) -> dict | None:
    """Decide the universal property of a lift at one test morphism.

    ``g_test`` runs from a test ground into the source domain;
    ``lift_pairs`` are the (u, lift(u)) position pairs on the domain and
    ``arms`` the source's prepared arms.  The test morphism must be
    continuous into the lift, at a test interior, exactly when every
    composite through an arm is.  The interiors making a family of
    morphisms continuous form a principal filter, so each direction is
    decided at the least element of the opposite filter: the join of the
    arms' floors ("only-if"), and the least interior above the transported
    lift pairs ("if").  Everything is transported along
    ``g_test.backward`` and compared as positions on the test ground.
    Returns the first violation, or None.
    """
    z = g_test.dom
    index = z.index
    down, bw = index.down, g_test.backward
    floors = [arm.floor(g_test) for arm in arms]
    tables = [table for table, _ in floors] or [_least_above(z, ())]
    hard = tables[0]
    if len(tables) > 1:
        hard = tuple(index.join(column) for column in zip(*tables))
    for u, lu in lift_pairs:
        w, c = bw[u], bw[lu]
        if not down[hard[w]] >> c & 1:
            return _violation(g_test, "only-if", w, c, hard[w])
    easy = _least_above(z, [(bw[u], bw[lu]) for u, lu in lift_pairs])
    for _, moved in floors:
        for w, c in moved:
            if not down[easy[w]] >> c & 1:
                return _violation(g_test, "if", w, c, easy[w])
    return None


def _violation(g_test: GroundMorphism, direction: str, w: int, c: int, at_w: int) -> dict:
    z = g_test.dom
    values = z.index.values
    return {
        "test_points": list(z.points),
        "morphism": g_test.describe(),
        "direction": direction,
        "violation": {
            "w": z.named(values[w]),
            "required": z.named(values[c]),
            "interior_at_w": z.named(values[at_w]),
        },
    }


def verify_initiality(s: StructuredSource, lift: InteriorMap, *, test_grounds) -> Verdict:
    """Check the universal property of ``lift`` extensionally.

    For every test ground in ``test_grounds``, every morphism (g, psi) from
    it into the source domain, and every interior on the test ground, the
    morphism must be continuous into (domain, lift) exactly when all the
    composites through the source arms are continuous.  Each test morphism
    is decided by ``initiality_violation``; ``checked`` counts the
    directions decided.
    """
    if lift.ground != s.domain:
        raise GroundMismatch("lift lives on a different ground")
    arms = [Arm(g, target) for g, target in s.arms]
    lift_pairs = tuple(enumerate(lift.images))
    checked = 0
    for z_ground in test_grounds:
        for g in all_morphisms(z_ground, s.domain):
            bad = initiality_violation(g, lift_pairs, arms)
            if bad is not None:
                checked += 1 if bad["direction"] == "only-if" else 2
                return Verdict(ok=False, prop="initiality", witness=bad, checked=checked)
            checked += 2
    return Verdict(ok=True, prop="initiality", witness=None, checked=checked)


def meet_interchange_report(g: GroundMorphism, max_family: int = 3) -> Verdict:
    """Does backward commute with pointwise meets for this morphism?

    Join preservation of phi_op is an axiom, meet preservation is not; this
    probe reports the first failing family of fuzzy sets, if any.
    """
    dom, cod = g.dom.index, g.cod.index
    bw = g.backward
    checked = 0
    for size in range(max_family + 1):
        for family in product(range(len(cod.values)), repeat=size):
            checked += 1
            lhs = bw[cod.meet(family)]
            rhs = dom.meet(bw[b] for b in family)
            if lhs != rhs:
                return Verdict(
                    ok=False,
                    prop="meet-interchange",
                    witness={
                        "family": [g.cod.named(cod.values[b]) for b in family],
                        "backward_of_meet": g.dom.named(dom.values[lhs]),
                        "meet_of_backwards": g.dom.named(dom.values[rhs]),
                    },
                    checked=checked,
                )
    return Verdict(ok=True, prop="meet-interchange", witness=None, checked=checked)


# -- preservation of operator properties -------------------------------------

def preserves_idempotency_check(g: GroundMorphism, target: InteriorMap) -> Verdict:
    """Initial interiors of idempotent targets are idempotent."""
    precondition = is_idempotent(target)
    if not precondition:
        raise PropertyPreconditionFailed("idempotency", precondition.witness)
    lifted = initial_interior(g, target)
    verdict = is_idempotent(lifted)
    return Verdict(verdict.ok, "preserves-idempotency", verdict.witness, verdict.checked)


def preserves_full_productivity_check(g: GroundMorphism, target: InteriorMap) -> Verdict:
    """Initial interiors of fully productive targets are fully productive."""
    precondition = is_fully_productive(target)
    if not precondition:
        raise PropertyPreconditionFailed("full productivity", precondition.witness)
    lifted = initial_interior(g, target)
    verdict = is_fully_productive(lifted)
    return Verdict(verdict.ok, "preserves-full-productivity", verdict.witness, verdict.checked)


def preimage_of_open_is_open(g: GroundMorphism, src: InteriorMap, dst: InteriorMap, v: FuzzySet) -> Verdict:
    """Backward images of open sets along continuous morphisms are open."""
    cont = is_continuous(g, src, dst)
    if not cont:
        raise NotContinuous(cont.witness)
    if v.ground != dst.ground:
        raise GroundMismatch("fuzzy set belongs to a different ground")
    b = dst.ground.index.position[v.values]
    if dst.images[b] != b:
        raise PropertyPreconditionFailed("openness of v", v.as_dict())
    w = g.backward[b]
    ok = src.images[w] == w
    return Verdict(
        ok=ok,
        prop="open-preimage",
        witness=None if ok else {"v": v.as_dict(), "preimage": g.dom.named(g.dom.index.values[w])},
        checked=1,
    )
