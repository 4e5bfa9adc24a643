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

Continuity and openness are also each one test of upset words
(``PowersetIndex.words``) against a bound of the morphism and the target
(``passes_bound``): an interior map makes the morphism continuous iff it
lies above the initial interior (``continuity_bound``), and open iff it
lies below the meets of ``openness_bound``.  A search builds each bound
once per (morphism, target) and tests every source against it; a single
check scans (``is_continuous``, ``is_open_morphism``).

A structured space is an ``InteriorMap``: its ground and its interior in
one object.  Every check here works on powerset index positions: a map's
images are a tuple of image positions, a morphism's backward operator another
(``GroundMorphism.backward``), and the order is one downset bitmask per
position.  Value tuples and element names appear only in witnesses.

``verify_initiality`` checks the defining universal property extensionally:
a morphism from any bounded test space is continuous into the lift exactly
when all composites are continuous.  The quantifier over test interiors is
discharged exactly by a least-constrained-operator argument: at each test
morphism the property holds iff two least test interiors agree, E above
the lift's transported constraints and H, the join of the floors above
each arm's.  An arm's floor along a test morphism h is one more initial
interior: the least interior above the arm's constraints transported
along h is the initial interior along the composite, and since backward
reverses composition and right adjoints compose, that is backward of h
after the arm's initial interior after the right adjoint of h.  So every
least interior here is built the one way ``initial_interior`` builds it.
The lift enters as one more ``Arm``, the identity morphism into (domain,
lift), so E is that arm's floor.  ``packed_floors`` packs
an arm's floors along a list of test morphisms into one integer of
upset words, and the AND of the source arms' integers holds H at every
test.  The one kernel, ``initiality_violation``, decides every test with
one comparison of E and H, for both ``verify_initiality`` and the
``initiality`` search; only when they differ does it read the first
differing test's floors back off the two integers and scan the
transported constraints to name the violation.  A literal enumeration
over test interiors lives in the test suite as its oracle.
"""

from __future__ import annotations

from itertools import product

from .errors import GroundMismatch, NotContinuous, PropertyPreconditionFailed
from .interior import InteriorMap, is_idempotent, is_productive, join_interiors, least
from .powerset import (
    Ground,
    GroundMorphism,
    Verdict,
    all_morphisms,
    identity_morphism,
)
from .value import Value


class StructuredSource(Value):
    """A domain ground with a family of morphisms into structured spaces."""

    _fields = ("domain", "arms")

    def __init__(self, domain: Ground, arms: tuple):  # arms: of (GroundMorphism, InteriorMap)
        for g, target in arms:
            if g.dom != domain:
                raise GroundMismatch("arm morphism does not start at the source domain")
            if g.cod != target.ground:
                raise GroundMismatch("arm morphism does not end at its space")
        self.__dict__.update(domain=domain, arms=arms)


# -- continuity and openness --------------------------------------------------

def is_continuous(g: GroundMorphism, src: InteriorMap, dst: InteriorMap) -> Verdict:
    """Backward of the target interior below the source interior of backward,
    for every fuzzy set on the codomain."""
    return _scan(g, src, dst, "continuity")


def is_open_morphism(g: GroundMorphism, src: InteriorMap, dst: InteriorMap) -> Verdict:
    """The reverse inequality: source interior of backward below backward of
    the target interior."""
    return _scan(g, src, dst, "openness")


def passes_bound(open_mode: bool, up: int, bound: int) -> bool:
    """The word test of openness (``open_mode``) or continuity: a map with
    upset word ``up`` passes iff the word holds every bit of the openness
    bound, or has none outside the continuity bound."""
    return not (bound & ~up if open_mode else up & ~bound)


def continuity_bound(g: GroundMorphism, dst: InteriorMap) -> int:
    """The upset word (``PowersetIndex.words``) of the initial interior
    along ``g`` of ``dst``.

    A monotone map i on the domain lies above it iff i's upset word has no
    bit outside it, and that holds iff ``g`` is continuous from i into a
    monotone ``dst``: above it, i(backward(b)) >= backward(dst(r(backward
    (b)))) >= backward(dst(b)), r the right adjoint, since r(backward(b))
    >= b; and if ``g`` is continuous, i(a) >= i(backward(r(a))) >=
    backward(dst(r(a))), since backward(r(a)) <= a.
    """
    if g.cod != dst.ground:
        raise GroundMismatch("morphism codomain differs from the target space")
    return g.dom.index.words(_initial_images(g, dst.images))[0]


def openness_bound(g: GroundMorphism, dst: InteriorMap) -> int:
    """The openness mask of ``g`` into ``dst``: an upset word's layout,
    with one bit in field w for each w that is backward(b) for some
    codomain position b, at the meet of backward(dst(b)) over those b.

    A map i on the domain makes ``g`` open iff i(w) lies below that meet
    at every such w, that is iff i's upset word holds every bit of the
    mask.  The AND of downsets, read at its highest bit, is the meet.
    """
    if g.cod != dst.ground:
        raise GroundMismatch("morphism codomain differs from the target space")
    bw, down = g.backward, g.dom.index.down
    common: dict = {}
    for b, image in enumerate(dst.images):
        w = bw[b]
        common[w] = common.get(w, -1) & down[bw[image]]
    width = len(down)
    mask = 0
    for w, below in common.items():
        mask |= 1 << (w * width + below.bit_length() - 1)
    return mask


def _scan(g: GroundMorphism, src: InteriorMap, dst: InteriorMap, prop: str) -> Verdict:
    """The first codomain position b at which backward(dst(b)) and
    src(backward(b)) are out of order: the first below the second for
    continuity, the second below the first for openness."""
    if g.dom != src.ground:
        raise GroundMismatch("morphism domain differs from the source space")
    if g.cod != dst.ground:
        raise GroundMismatch("morphism codomain differs from the target space")
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
    return InteriorMap(g.dom, _initial_images(g, target.images)).validated()


def _initial_images(g: GroundMorphism, images: tuple) -> tuple:
    """Image positions of the initial interior along ``g`` of the map with
    ``images`` on its codomain: backward after that map after the right
    adjoint."""
    bw = g.backward
    return tuple(bw[images[b]] for b in g.right_adjoint)


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
    initiality checks.  A lift enters as one more arm: the identity
    morphism into (domain, lift), whose constraints are exactly the
    (u, lift(u)) pairs.

    ``initial`` is the arm's initial interior, built and validated once;
    ``constraints`` are its continuity constraints, as position pairs,
    and ``moved`` transports them along a test morphism.  ``floor`` is
    the least test interior above the transported constraints: the
    initial interior along the composite of the test morphism and g,
    which is backward of the test after ``initial`` after its right
    adjoint, since backward reverses composition and right adjoints
    compose.  ``packed_floors`` packs the floors along a list of test
    morphisms into one integer, so a caller that keeps the packing needs
    each floor once.
    """

    __slots__ = ("morphism", "constraints", "initial")

    def __init__(self, g: GroundMorphism, target: InteriorMap):
        self.morphism = g
        self.constraints = tuple(continuity_constraints(g, target))
        self.initial = initial_interior(g, target)

    def moved(self, g_test: GroundMorphism) -> tuple:
        """The constraints transported along ``g_test``, as position pairs
        on its domain."""
        bw = g_test.backward
        return tuple((bw[w], bw[c]) for w, c in self.constraints)

    def floor(self, g_test: GroundMorphism) -> tuple:
        """Images of the least test interior above the constraints
        transported along ``g_test``."""
        return _initial_images(g_test, self.initial.images)


def packed_floors(arm: Arm, tests) -> int:
    """The arm's floors along every test morphism in ``tests``, as one
    integer: test by test, from the lowest bits up, the upset word of the
    floor (``PowersetIndex.words``), N*N bits on a test ground with N
    fuzzy sets.

    An upset word decodes to exactly one image tuple, so two packings
    along the same tests are equal iff the floors agree at every test.
    The AND of upset words is the upset word of the pointwise join, so
    the AND of the source arms' packings holds H at every test, and the
    lift arm's packing holds E.
    """
    word = shift = 0
    for g_test in tests:
        index = g_test.dom.index
        word |= index.words(arm.floor(g_test))[0] << shift
        shift += len(index.values) ** 2
    return word


def initiality_violation(tests, lift_arm: Arm, arms, floors):
    """Decide the universal property of a lift at every test morphism in
    ``tests``.

    Each test morphism runs from a test ground into the source domain;
    ``lift_arm`` is the identity arm into (domain, lift), ``arms`` the
    source's prepared arms, and ``floors(arm)`` the arm's
    ``packed_floors`` along ``tests``.  A test morphism must be continuous
    into the lift, at a test interior, exactly when every composite
    through an arm is.  The interiors making a family of morphisms
    continuous form a principal filter, so each direction is decided at
    the least element of the opposite filter: H, the join of the arms'
    floors ("only-if"), and E, the lift arm's floor ("if").  With no arms
    H is the least interior, the floor of the least space's identity arm.

    E and H are each least above their own constraints, so "only-if"
    holds iff H >= E and "if" iff E >= H: the property holds exactly when
    E == H, at every test at once when the two packings are equal.
    Otherwise the lowest differing bit lies in the first failing test's
    field; its E and H are decoded from there and its transported
    constraints scanned, "only-if" then "if", for the violation.  Returns
    (the test's index in ``tests``, the violation), or None.
    """
    dom = lift_arm.morphism.dom
    hard = -1
    for arm in arms or [Arm(identity_morphism(dom), least(dom))]:
        hard &= floors(arm)
    easy = floors(lift_arm)
    if easy == hard:
        return None
    diff = easy ^ hard
    first = (diff & -diff).bit_length() - 1
    shift = 0
    for k, g_test in enumerate(tests):
        index = g_test.dom.index
        width = len(index.values) ** 2
        if first < shift + width:
            break
        shift += width
    down = index.down
    easy_at, hard_at = index.join_positions(easy >> shift), index.join_positions(hard >> shift)
    for w, c in lift_arm.moved(g_test):
        if not down[hard_at[w]] >> c & 1:
            return k, _violation(g_test, "only-if", w, c, hard_at[w])
    for arm in arms:
        for w, c in arm.moved(g_test):
            if not down[easy_at[w]] >> c & 1:
                return k, _violation(g_test, "if", w, c, easy_at[w])
    raise AssertionError("the floors differ at a test morphism, yet no constraint fails there")


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
    composites through the source arms are continuous.  All test
    morphisms are decided at once by ``initiality_violation``; ``checked``
    counts the directions decided.  A lift that is not an interior map
    raises NotAnInteriorMap.
    """
    if lift.ground != s.domain:
        raise GroundMismatch("lift lives on a different ground")
    tests = [g for z_ground in test_grounds for g in all_morphisms(z_ground, s.domain)]
    found = initiality_violation(
        tests,
        Arm(identity_morphism(s.domain), lift),
        [Arm(g, target) for g, target in s.arms],
        lambda arm: packed_floors(arm, tests),
    )
    if found is None:
        return Verdict(ok=True, prop="initiality", witness=None, checked=2 * len(tests))
    k, bad = found
    checked = 2 * k + (1 if bad["direction"] == "only-if" else 2)
    return Verdict(ok=False, prop="initiality", witness=bad, checked=checked)


def meet_interchange_report(g: GroundMorphism) -> Verdict:
    """Does backward commute with pointwise meets for this morphism?

    Join preservation of phi_op is an axiom, meet preservation is not; this
    probe reports the first failing family of fuzzy sets, if any.  Families
    of at most two members decide it: every nonempty finite meet folds from
    binary ones, and the empty family's meet is top.
    """
    dom, cod = g.dom.index, g.cod.index
    bw = g.backward
    checked = 0
    for size in range(3):
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
    return _preserves(g, target, is_idempotent, "idempotency", "preserves-idempotency")


def preserves_full_productivity_check(g: GroundMorphism, target: InteriorMap) -> Verdict:
    """Initial interiors of fully productive targets are fully productive
    (``is_productive`` decides full productivity of an interior map)."""
    return _preserves(g, target, is_productive, "full productivity", "preserves-full-productivity")


def _preserves(g: GroundMorphism, target: InteriorMap, predicate, name: str, prop: str) -> Verdict:
    """Does the initial interior along ``g`` keep ``predicate`` of ``target``?"""
    precondition = predicate(target)
    if not precondition:
        raise PropertyPreconditionFailed(name, precondition.witness)
    verdict = predicate(initial_interior(g, target))
    return Verdict(verdict.ok, prop, verdict.witness, verdict.checked)


def fixes_preimage(g: GroundMorphism, src: InteriorMap, v: int) -> bool:
    """Whether ``src`` fixes the backward image of codomain position ``v``:
    that image is open in the source."""
    w = g.backward[v]
    return src.images[w] == w


def preimage_of_open_is_open(g: GroundMorphism, src: InteriorMap, dst: InteriorMap, v: int) -> Verdict:
    """Backward images of open sets along continuous morphisms are open;
    ``v`` is a position of the codomain's index."""
    cont = is_continuous(g, src, dst)
    if not cont:
        raise NotContinuous(cont.witness)
    cod, dom = dst.ground, src.ground
    if not 0 <= v < len(dst.images):
        raise GroundMismatch(f"position {v} is not on the codomain's index")
    if dst.images[v] != v:
        raise PropertyPreconditionFailed("openness of v", cod.named(cod.index.values[v]))
    if fixes_preimage(g, src, v):
        return Verdict(ok=True, prop="open-preimage", witness=None, checked=1)
    w = g.backward[v]
    witness = {"v": cod.named(cod.index.values[v]), "preimage": dom.named(dom.index.values[w])}
    return Verdict(ok=False, prop="open-preimage", witness=witness, checked=1)
