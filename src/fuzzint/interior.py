"""Interior maps on fuzzy powersets.

An interior map sends each fuzzy set to one below it (contraction), is
monotone and fixes the constant-top set.  The maps on a fixed ground form a
complete lattice under the pointwise order; the identity is the largest
element and the corrected least element sends everything except top to
bottom.

A map is stored as one tuple of positions in the ground's powerset index:
entry a is the position of the image of the a-th value tuple.  That tuple
is the map's identity, and every check and lattice operation here works on
positions; value tuples are read and written only at the API's edge.  A
map carries its ground, so it is also the space (X, L, I).

The least operator deliberately deviates from the traditional display that
maps every nonzero set to top: that version is not contractive (witness any
u strictly between the bounds), and a regression test keeps the corrected
form honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CarrierMismatch, GroundMismatch, NotAnInteriorMap, NotGLGround, TopMissingFromTopology
from .monoid import GLMonoid
from .powerset import FuzzySet, Ground, Verdict, powerset

#: Full subset enumeration limit for the fully-productive predicate.
FULL_SUBSET_LIMIT = 4096


class InteriorMap:
    """A total map L^X -> L^X satisfying contraction, monotonicity and
    preservation of the constant-top set: with its ground, a fuzzy
    interior space (X, L, I).

    ``images[a]`` is the index position of the image of the a-th value
    tuple of the ground; the constructor trusts it, ``from_table`` and
    ``from_rule`` check the axioms.
    """

    __slots__ = ("ground", "images")

    def __init__(self, ground: Ground, images: tuple[int, ...]):
        self.ground = ground
        self.images = images

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, ground: Ground, mapping) -> "InteriorMap":
        """From {u: i(u)} or (u, i(u)) pairs of value tuples or fuzzy sets,
        one row per fuzzy set on the ground."""
        table = _value_table(mapping)
        index = ground.index
        position = index.position
        for u in table:
            if u not in position:
                raise CarrierMismatch(f"row {u} is not a value tuple on this ground")
        images = []
        for u in index.values:
            if u not in table:
                raise CarrierMismatch(f"no row for {u}")
            if table[u] not in position:
                raise CarrierMismatch(f"image {table[u]} of {u} is not a value tuple on this ground")
            images.append(position[table[u]])
        return cls(ground, tuple(images)).validated()

    @classmethod
    def from_rule(cls, ground: Ground, rule) -> "InteriorMap":
        """From a function on value tuples, called once per tuple in order."""
        return cls.from_table(ground, [(u, tuple(rule(u))) for u in ground.index.values])

    def validated(self) -> "InteriorMap":
        """This map, once it passes the axiom check; else NotAnInteriorMap."""
        verdict = check_interior_axioms(self)
        if not verdict:
            raise NotAnInteriorMap(verdict.witness)
        return self

    # -- evaluation ---------------------------------------------------------

    def apply_values(self, values: tuple) -> tuple:
        index = self.ground.index
        return index.values[self.images[index.position[values]]]

    def apply(self, u: FuzzySet) -> FuzzySet:
        if u.ground != self.ground:
            raise GroundMismatch("fuzzy set belongs to a different ground")
        return FuzzySet(self.ground, self.apply_values(u.values))

    __call__ = apply

    def table(self) -> dict:
        values = self.ground.index.values
        return {u: values[i] for u, i in zip(values, self.images)}

    def __eq__(self, other):
        if not isinstance(other, InteriorMap):
            return NotImplemented
        return self.ground == other.ground and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"InteriorMap(ground={len(self.ground.points)} points, {len(self.ground.lattice)} values)"


def _value_table(mapping) -> dict:
    table = {}
    for u, iu in mapping.items() if hasattr(mapping, "items") else mapping:
        uv = u.values if isinstance(u, FuzzySet) else tuple(u)
        iv = iu.values if isinstance(iu, FuzzySet) else tuple(iu)
        table[uv] = iv
    return table


# -- axiom checking ----------------------------------------------------------

def check_interior_axioms(i: InteriorMap) -> Verdict:
    """First violated axiom with witness, scanning contraction, then the
    top condition, then monotonicity over all pairs.

    ``i`` need not be validated.  Monotonicity holds exactly when it holds
    along every cover edge of L^X, so only the edges are tested; a failing
    map is then scanned pair by pair for the first violating (u, v), and
    ``checked`` counts the pairs that scan reaches (all N^2 of them when
    the map passes).
    """
    ground, images = i.ground, i.images
    index = ground.index
    down = index.down

    def fail(axiom, checked, **at):
        named = {key: ground.named(index.values[a]) for key, a in at.items()}
        return Verdict(ok=False, prop="interior-axioms", witness={"axiom": axiom, **named}, checked=checked)

    for a, image in enumerate(images):
        if not down[a] >> image & 1:
            return fail("I1", a + 1, u=a, image=image)
    n = len(images)
    top = n - 1  # the last position in a linear extension
    if images[top] != top:
        return fail("I3", n, image=images[top])
    for a, covers in enumerate(index.covers):
        below = down[images[a]]
        for c in covers:
            if not below >> images[c] & 1:
                u, v = _first_unordered_pair(index, images)
                return fail("I2", n + u * n + v + 1, u=u, v=v)
    return Verdict(ok=True, prop="interior-axioms", witness=None, checked=n + n * n)


def _first_unordered_pair(index, images: tuple) -> tuple[int, int]:
    """The first positions (a, b) of a non-monotone map, in index order and
    b ascending within a, with a below b but images[a] not below images[b]."""
    up = index.up
    for a, image in enumerate(images):
        rest = up[a]
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            if not up[image] >> images[b] & 1:
                return a, b
            rest ^= low
    raise AssertionError("a cover edge failed but no pair does")


# -- the operator lattice ----------------------------------------------------

def discrete(ground: Ground) -> InteriorMap:
    """The identity: the largest interior map on the ground."""
    return InteriorMap(ground, tuple(range(ground.set_count())))


def least(ground: Ground) -> InteriorMap:
    """The smallest interior map: top stays top, everything else drops to
    bottom.  (Sending every nonzero set to top instead would break
    contraction.)"""
    top = ground.set_count() - 1
    return InteriorMap(ground, (0,) * top + (top,))


def literal_trivial(ground: Ground) -> InteriorMap:
    """The uncorrected trivial operator: nonzero sets to top, zero to zero.

    Built without validation because it fails contraction on any carrier
    with an element strictly between the bounds; the regression suite
    checks exactly that.
    """
    top = ground.set_count() - 1
    return InteriorMap(ground, (0,) + (top,) * top)


def join_interiors(family) -> InteriorMap:
    """Pointwise join of a nonempty family over one ground."""
    return _combine(family, "join")


def meet_interiors(family) -> InteriorMap:
    """Pointwise meet of a nonempty family over one ground."""
    return _combine(family, "meet")


def _combine(family, how: str) -> InteriorMap:
    family = list(family)
    if not family:
        raise GroundMismatch("empty family has no ground; use discrete/least explicitly")
    ground = family[0].ground
    for i in family[1:]:
        if i.ground != ground:
            raise GroundMismatch("family members live on different grounds")
    index = ground.index
    fold = index.join if how == "join" else index.meet
    return InteriorMap(ground, tuple(fold(column) for column in zip(*(i.images for i in family)))).validated()


# -- derived predicates -------------------------------------------------------

def is_idempotent(i: InteriorMap) -> Verdict:
    values = i.ground.index.values
    images = i.images
    for a, image in enumerate(images):
        if images[image] != image:
            return Verdict(
                ok=False,
                prop="idempotent",
                witness={"u": i.ground.named(values[a])},
                checked=a + 1,
            )
    return Verdict(ok=True, prop="idempotent", witness=None, checked=len(images))


def is_productive(i: InteriorMap) -> Verdict:
    """Binary meets pass through the map."""
    ground = i.ground
    index = ground.index
    images = i.images
    n = len(images)
    for a in range(n):
        for b in range(n):
            if images[index.meet((a, b))] != index.meet((images[a], images[b])):
                return Verdict(
                    ok=False,
                    prop="productive",
                    witness={
                        "u": ground.named(index.values[a]),
                        "v": ground.named(index.values[b]),
                    },
                    checked=a * n + b + 1,
                )
    return Verdict(ok=True, prop="productive", witness=None, checked=n * n)


def is_fully_productive(i: InteriorMap) -> Verdict:
    """Arbitrary meets pass through the map.

    Every subset of the powerset is enumerated while 2^|L^X| stays below
    ``FULL_SUBSET_LIMIT``; beyond that the binary predicate plus the empty
    family decide the property (finite meets fold from binary ones, and the
    empty meet is the top condition).
    """
    ground = i.ground
    index = ground.index
    images = i.images
    if 2 ** len(images) > FULL_SUBSET_LIMIT:
        binary = is_productive(i)
        if not binary:
            return Verdict(False, "fully-productive", binary.witness, binary.checked)
        return Verdict(True, "fully-productive", None, binary.checked)
    checked = 0
    for family in powerset(range(len(images))):
        checked += 1
        if images[index.meet(family)] != index.meet(images[a] for a in family):
            return Verdict(
                ok=False,
                prop="fully-productive",
                witness={"family": [ground.named(index.values[a]) for a in family]},
                checked=checked,
            )
    return Verdict(ok=True, prop="fully-productive", witness=None, checked=checked)


def open_sets(i: InteriorMap) -> frozenset:
    """Fixed points of the map; always contains both constants."""
    values = i.ground.index.values
    return frozenset(FuzzySet(i.ground, values[a]) for a, image in enumerate(i.images) if image == a)


# -- topologies ---------------------------------------------------------------

@dataclass(frozen=True)
class LTopology:
    """A designated family of open fuzzy sets over one ground.

    Only the constant-top set is required to be open (so the derived
    interior fixes top); closure under joins is reported, not required.
    """

    ground: Ground
    opens: tuple[tuple[int, ...], ...]
    join_closed: bool

    def open_sets(self):
        return tuple(FuzzySet(self.ground, v) for v in self.opens)


def ltopology(ground: Ground, opens) -> LTopology:
    vals = set()
    for v in opens:
        vals.add(v.values if isinstance(v, FuzzySet) else tuple(v))
    top = (ground.lattice.top,) * len(ground.points)
    if top not in vals:
        raise TopMissingFromTopology()
    join_closed = all(
        ground.join_values((a, b)) in vals for a in vals for b in vals
    ) and ground.join_values(()) in vals
    return LTopology(ground=ground, opens=tuple(sorted(vals)), join_closed=join_closed)


def interior_from_topology(t: LTopology) -> InteriorMap:
    """Join of all opens below the argument."""
    ground = t.ground

    def rule(u):
        return ground.join_values(v for v in t.opens if ground.leq_values(v, u))

    return InteriorMap.from_rule(ground, rule)


def closure_from_topology(t: LTopology, m: GLMonoid, mode: str = "extensional") -> dict:
    """The closure candidate derived from a topology over a GL-monoid.

    Each open v contributes its pointwise pseudo-complement v -> 0.  In
    "literal" mode the meet ranges over opens above u; in "extensional"
    mode over opens whose pseudo-complement is above u, which makes
    u <= c(u) hold by construction.  Both readings are provided because
    neither is canonically "the" closure; callers pick via ``mode``.
    """
    if not isinstance(m, GLMonoid):
        raise NotGLGround("a GL-monoid with a residuum table is required")
    ground = t.ground
    if m.lattice != ground.lattice:
        raise NotGLGround("monoid lattice differs from the ground lattice")
    if mode not in ("literal", "extensional"):
        raise ValueError(f"unknown closure mode {mode!r}")
    bot = ground.lattice.bottom
    res = m.residuum
    pseudo = {v: tuple(res[a][bot] for a in v) for v in t.opens}
    table = {}
    for u in ground.all_value_tuples():
        if mode == "literal":
            qualifying = (pseudo[v] for v in t.opens if ground.leq_values(u, v))
        else:
            qualifying = (pseudo[v] for v in t.opens if ground.leq_values(u, pseudo[v]))
        table[FuzzySet(ground, u)] = FuzzySet(ground, ground.meet_values(qualifying))
    return table
