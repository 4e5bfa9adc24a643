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

Continuity and openness are also each one word test (``passes_bound``)
against a bound of the morphism and the target: an interior map makes
the morphism continuous iff it lies above a floor, the initial interior,
so iff its upset word (``PowersetIndex.words``) has no bit outside the
floor's (``continuity_bound``); and open iff it lies below a ceiling, so
iff its downset word has no bit outside the ceiling's
(``openness_bound``).  A search builds each bound once per (morphism,
target) and tests every source against it.  A single check
(``is_continuous``, ``is_open_morphism``) and every continuity witness
come from one loop over codomain positions (``first_failing_position``).

A structured space is an ``InteriorMap``: its ground and its interior in
one object.  Every check here works on powerset index positions: a map's
images are a tuple of image positions, a morphism's backward operator another
(``GroundMorphism.backward``), and the order is one downset bitmask per
position.  Value tuples and element names appear only in witnesses.

``verify_initiality`` checks the defining universal property extensionally:
a morphism from any bounded test space is continuous into the lift exactly
when all composites are continuous.  The quantifier over test interiors is
discharged exactly by a least-operator argument: at each test morphism h
the property holds iff two least test interiors agree, E making h
continuous into the lift and H, the join of the least ones making each
composite through an arm continuous.  Each is an initial interior along a
composite, which is backward of h after the arm's initial interior after
the right adjoint of h, since backward reverses composition and right
adjoints compose: the floor of that initial interior along h.  The lift
is its own initial interior along the identity, so E is the lift's floor.
A floor depends on nothing but the initial interior and h:
``packed_floors`` packs an initial interior's floors along a list of test
morphisms into one integer of upset words, so the lift's integer holds E
at every test and the AND of the arms' initial interiors' integers holds
H.  The one kernel, ``initiality_violation``, decides every test with one
comparison of E and H, for both ``verify_initiality`` and the
``initiality`` search; only when they differ does it read the first
differing test's floors back off the two integers and scan the
composites to name the violation.  A literal enumeration over test
interiors lives in the test suite as its oracle.
"""

from __future__ import annotations

from itertools import product

from .errors import GroundMismatch, NotContinuous, PropertyPreconditionFailed
from .interior import InteriorMap, is_idempotent, is_productive, join_interiors, least
from .powerset import Ground, GroundMorphism, Verdict, all_morphisms
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


def passes_bound(word: int, bound: int) -> bool:
    """The word test of continuity and openness: a map passes iff its
    word has no bit outside the bound, its upset word against
    ``continuity_bound`` and its downset word against ``openness_bound``."""
    return not word & ~bound


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
    """The downset word (``PowersetIndex.words``) of the ceiling of ``g``
    into ``dst``: top everywhere, but at each w that is backward(b) for
    some codomain position b, the meet of backward(dst(b)) over those b.

    A map i on the domain makes ``g`` open iff i(backward(b)) lies below
    backward(dst(b)) at every b, that is iff i lies below the ceiling,
    iff i's downset word has no bit outside this one.  The AND of
    downsets, read at its highest bit, is the meet.
    """
    if g.cod != dst.ground:
        raise GroundMismatch("morphism codomain differs from the target space")
    bw, index = g.backward, g.dom.index
    down = index.down
    ceiling = [len(down) - 1] * len(down)
    for b, image in enumerate(dst.images):
        w = bw[b]
        ceiling[w] = (down[ceiling[w]] & down[bw[image]]).bit_length() - 1
    return index.words(ceiling)[1]


def first_failing_position(backward: tuple, inner: tuple, outer: tuple, down: tuple, reverse: bool = False):
    """The first codomain position b at which backward(outer(b)) does not
    lie below inner(backward(b)) (with ``reverse``, inner(backward(b)) not
    below backward(outer(b))), or None: the one position-by-position test
    of continuity and openness.  ``down`` holds the domain's downsets."""
    for b, image in enumerate(outer):
        lhs, rhs = backward[image], inner[backward[b]]
        if reverse:
            lhs, rhs = rhs, lhs
        if not down[rhs] >> lhs & 1:
            return b
    return None


def _scan(g: GroundMorphism, src: InteriorMap, dst: InteriorMap, prop: str) -> Verdict:
    """Continuity or openness of ``g`` from ``src`` into ``dst``, with the
    first failing codomain position as witness."""
    if g.dom != src.ground:
        raise GroundMismatch("morphism domain differs from the source space")
    if g.cod != dst.ground:
        raise GroundMismatch("morphism codomain differs from the target space")
    bw, inner, outer = g.backward, src.images, dst.images
    reverse = prop == "openness"
    b = first_failing_position(bw, inner, outer, g.dom.index.down, reverse)
    if b is None:
        return Verdict(ok=True, prop=prop, witness=None, checked=len(outer))
    lhs, rhs = bw[outer[b]], inner[bw[b]]
    if reverse:
        lhs, rhs = rhs, lhs
    values = g.dom.index.values
    witness = {
        "v": g.cod.named(g.cod.index.values[b]),
        "lhs": g.dom.named(values[lhs]),
        "rhs": g.dom.named(values[rhs]),
    }
    return Verdict(ok=False, prop=prop, witness=witness, checked=b + 1)


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

class Arm:
    """One arm (g, target interior) of a structured source, prepared for
    initiality checks: ``initial`` is the arm's initial interior, built
    and validated once.  The arm's floors are those of ``initial``
    (``packed_floors``), so arms with equal initial interiors share them.
    """

    __slots__ = ("morphism", "target", "initial")

    def __init__(self, g: GroundMorphism, target: InteriorMap):
        self.morphism = g
        self.target = target
        self.initial = initial_interior(g, target)


def packed_floors(initial: InteriorMap, tests) -> int:
    """The floors of ``initial`` along every test morphism in ``tests``,
    as one integer: test by test, from the lowest bits up, the upset word
    (``PowersetIndex.words``) of the initial interior along the test of
    ``initial``, N*N bits on a test ground with N fuzzy sets.

    Along a test h, that floor is the least test interior making the
    composite of h and g continuous, for any arm g whose initial interior
    is ``initial``.  An upset word decodes to exactly one image tuple, so
    two packings along the same tests are equal iff the floors agree at
    every test.  The AND of upset words is the upset word of the
    pointwise join, so the AND of the packings of a source's arms'
    initial interiors holds H at every test, and the lift's packing
    holds E.
    """
    word = shift = 0
    for g_test in tests:
        index = g_test.dom.index
        word |= index.words(_initial_images(g_test, initial.images))[0] << shift
        shift += len(index.values) ** 2
    return word


def initiality_violation(tests, lift: InteriorMap, arms, floors):
    """Decide the universal property of ``lift`` at every test morphism in
    ``tests``.

    Each test morphism runs from a test ground into the source domain;
    ``arms`` are the source's prepared arms, and ``floors(initial)`` the
    ``packed_floors`` of an initial interior along ``tests``.  A test
    morphism must be continuous into the lift, at a test interior, exactly
    when every composite through an arm is.  The interiors making a family
    of morphisms continuous form a principal filter, so each direction is
    decided at the least element of the opposite filter: H, the join of
    the floors of the arms' initial interiors ("only-if"), and E, the
    floor of the lift, which is its own initial interior along the
    identity ("if").  With no arms H is the floor of the least interior.

    So "only-if" holds iff H >= E and "if" iff E >= H: the property
    holds exactly when E == H, at every test at once when the two
    packings are equal.  Otherwise the lowest differing bit lies in the
    first failing test's field; its E and H are decoded from there, and
    the test morphism is scanned from H into the lift ("only-if"), then
    each composite from E into its arm's target ("if"), for the
    violation.  Returns (the test's index in ``tests``, the violation), or
    None.
    """
    hard = -1
    for initial in [arm.initial for arm in arms] or [least(lift.ground)]:
        hard &= floors(initial)
    easy = floors(lift)
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
    easy_at, hard_at = index.join_positions(easy >> shift), index.join_positions(hard >> shift)
    bw = g_test.backward
    scans = [(bw, hard_at, lift.images, "only-if")]
    scans += [(tuple(bw[w] for w in arm.morphism.backward), easy_at, arm.target.images, "if") for arm in arms]
    for table, at, outer, direction in scans:
        b = first_failing_position(table, at, outer, index.down)
        if b is not None:
            w = table[b]
            return k, _violation(g_test, direction, w, table[outer[b]], at[w])
    raise AssertionError("the floors differ at a test morphism, yet no position fails its scan")


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
        lift.validated(),
        [Arm(g, target) for g, target in s.arms],
        lambda initial: packed_floors(initial, tests),
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


def open_preimage_witness(g: GroundMorphism, src: InteriorMap, v: int):
    """The witness that ``src`` does not fix the backward image of
    codomain position ``v`` (that image is not open in the source), or
    None."""
    w = g.backward[v]
    if src.images[w] == w:
        return None
    return {"v": g.cod.named(g.cod.index.values[v]), "preimage": g.dom.named(g.dom.index.values[w])}


def preimage_of_open_is_open(g: GroundMorphism, src: InteriorMap, dst: InteriorMap, v: int) -> Verdict:
    """Backward images of open sets along continuous morphisms are open;
    ``v`` is a position of the codomain's index."""
    cont = is_continuous(g, src, dst)
    if not cont:
        raise NotContinuous(cont.witness)
    cod = dst.ground
    if not 0 <= v < len(dst.images):
        raise GroundMismatch(f"position {v} is not on the codomain's index")
    if dst.images[v] != v:
        raise PropertyPreconditionFailed("openness of v", cod.named(cod.index.values[v]))
    witness = open_preimage_witness(g, src, v)
    return Verdict(ok=witness is None, prop="open-preimage", witness=witness, checked=1)
