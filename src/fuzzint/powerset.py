"""Fuzzy powersets, ground morphisms and their powerset operators.

A fuzzy set over a ground (X, L) is a total map X -> L, stored as a tuple
of lattice indices aligned with the carrier.  Inside the package L^X is
read only through ``Ground.index``, as positions; ``FuzzySet`` is the view
of one value tuple at the API's edge.  A ground morphism is the pair
(f, phi_op): a point map X -> Y together with a concrete map M -> L that
preserves arbitrary joins, the tensor and top.  Only phi_op is ever stored.

The powerset operators live on positions, as tables of ``GroundMorphism``:
``backward`` (phi_op after b after f), its right adjoint, and ``forward``.
Backward preserves joins, so its right adjoint always exists.  Forward is
the meet of every b whose backward image lies above a; it is a left
adjoint of backward only when phi_op preserves binary meets.  The
classical and Zadeh image and preimage are the case of an identity
phi_op (on the two-element chain for the classical ones).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, product

from .errors import (
    CarrierMismatch,
    GroundTooLarge,
    JoinNotPreserved,
    TensorNotPreserved,
    TopNotPreserved,
    UnknownElement,
)
from .monoid import CQML
from .value import Value

#: Largest fuzzy powerset a ground indexes; exhaustive checks on interior
#: maps refuse larger grounds.
MATERIALIZATION_LIMIT = 4096


class Ground(Value):
    """A carrier set together with its value algebra."""

    def __init__(self, points: tuple[str, ...], algebra: CQML):
        if len(set(points)) != len(points):
            raise CarrierMismatch(f"duplicate point names in {points}")
        self.__dict__.update(points=points, algebra=algebra, _hash=hash((points, algebra)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ground):
            return NotImplemented
        return self.points == other.points and self.algebra == other.algebra

    @cached_property
    def index(self) -> "PowersetIndex":
        """The positions of L^X, built on first use."""
        return PowersetIndex(self)

    @property
    def lattice(self):
        return self.algebra.lattice

    def set_count(self) -> int:
        return len(self.lattice) ** len(self.points)

    def point_index(self, x: str) -> int:
        try:
            return self.points.index(x)
        except ValueError:
            raise UnknownElement(x) from None

    def named(self, values) -> dict[str, str]:
        """{point: element name} of a value tuple."""
        name = self.lattice.name
        return {x: name(v) for x, v in zip(self.points, values)}

    def fuzzy(self, values) -> "FuzzySet":
        """Build a fuzzy set from {point: element} or an element sequence."""
        lat = self.lattice
        if hasattr(values, "keys"):
            missing = set(self.points) - set(values)
            if missing:
                raise CarrierMismatch(f"no value for points {sorted(missing)}")
            extra = set(values) - set(self.points)
            if extra:
                raise CarrierMismatch(f"values for points {sorted(extra)} not on the carrier")
            vals = tuple(lat.index(values[x]) for x in self.points)
        else:
            vals = tuple(lat.index(v) for v in values)
            if len(vals) != len(self.points):
                raise CarrierMismatch(
                    f"expected {len(self.points)} values, got {len(vals)}"
                )
        return FuzzySet(self, vals)

    def top_set(self) -> "FuzzySet":
        return FuzzySet(self, (self.lattice.top,) * len(self.points))

    def bottom_set(self) -> "FuzzySet":
        return FuzzySet(self, (self.lattice.bottom,) * len(self.points))


class PowersetIndex:
    """L^X as the positions 0..N-1 of its value tuples.

    ``values`` lists the tuples lexicographically over ``lattice.ascending``
    and ``position`` inverts it.  ``up[a]`` and ``down[a]`` are bitmasks
    of the positions above and below position a, and ``covers[a]`` holds
    its lower covers: one lattice cover step down in one coordinate.  The
    order is a linear extension, so the least of a set of upper bounds has
    the lowest position: a join is the lowest set bit of the AND of the
    upsets, and a meet the highest set bit of the AND of the downsets.
    This is the package's one implementation of the pointwise order, join
    and meet of L^X; a family of positions may also be held as a bitmask,
    read back with ``positions_in``.

    A whole map's images pack into two words (``words``): field a, N bits
    wide for the N positions, holds ``up[images[a]]`` in the upset word
    and ``down[images[a]]`` in the downset word.  In any lattice the AND
    of the upsets of x and y is the upset of their join, and the AND of
    their downsets the downset of their meet.  So the AND of a family's
    upset words is the upset word of its pointwise join, and the AND of
    its downset words the downset word of its pointwise meet, whether or
    not the images form an interior map.  ``join_positions`` and
    ``meet_positions`` read the images back, field by field, with the
    same lowest and highest set bits as ``join`` and ``meet``.  That fold
    (``interior.folded_word`` and ``interior.map_of_word``) is the
    package's one pointwise join and meet of maps.
    """

    __slots__ = ("values", "position", "up", "down", "covers")

    def __init__(self, ground: Ground):
        size = ground.set_count()
        if size > MATERIALIZATION_LIMIT:
            raise GroundTooLarge(size, MATERIALIZATION_LIMIT)
        leq = ground.lattice.leq
        span = range(len(leq))
        width = range(len(ground.points))
        self.values = tuple(product(ground.lattice.ascending, repeat=len(width)))
        self.position = {u: a for a, u in enumerate(self.values)}
        full = (1 << size) - 1

        def bitmasks(related):
            # per position a: the positions b with related(a_k, b_k) at every k
            per_coordinate = [
                [int("".join("1" if related(x, u[k]) else "0" for u in reversed(self.values)), 2) for x in span]
                for k in width
            ]
            masks = []
            for u in self.values:
                mask = full
                for k in width:
                    mask &= per_coordinate[k][u[k]]
                masks.append(mask)
            return masks

        self.up = bitmasks(lambda x, y: leq[x][y])
        self.down = bitmasks(lambda x, y: leq[y][x])
        lower_covers = [
            [c for c in span if c != x and leq[c][x] and not any(
                d not in (c, x) and leq[c][d] and leq[d][x] for d in span
            )]
            for x in span
        ]
        self.covers = [
            tuple(self.position[u[:k] + (c,) + u[k + 1:]] for k in width for c in lower_covers[u[k]])
            for u in self.values
        ]

    def join(self, elements) -> int:
        """Position of the join of a family of positions; bottom when empty."""
        common = self.up[0]
        for a in elements:
            common &= self.up[a]
        return (common & -common).bit_length() - 1

    def meet(self, elements) -> int:
        """Position of the meet of a family of positions; top when empty."""
        common = self.down[-1]
        for a in elements:
            common &= self.down[a]
        return common.bit_length() - 1

    def words(self, images) -> tuple[int, int]:
        """The upset word and the downset word of a tuple of image
        positions, one N-bit field per position, packed 64 fields to a
        block so that no shift moves the whole word once per field."""
        width = len(self.values)
        up = down = 0
        for start in reversed(range(0, len(images), 64)):
            block_up = block_down = 0
            for image in reversed(images[start:start + 64]):
                block_up = block_up << width | self.up[image]
                block_down = block_down << width | self.down[image]
            up = up << 64 * width | block_up
            down = down << 64 * width | block_down
        return up, down

    def join_positions(self, word: int) -> tuple[int, ...]:
        """The image positions of an upset word: the lowest set bit of
        each field."""
        return tuple((common & -common).bit_length() - 1 for common in self._fields(word))

    def meet_positions(self, word: int) -> tuple[int, ...]:
        """The image positions of a downset word: the highest set bit of
        each field."""
        return tuple(common.bit_length() - 1 for common in self._fields(word))

    def _fields(self, word: int):
        """The N fields of a word, lowest first, cut block by block."""
        width = len(self.values)
        mask, block = (1 << width) - 1, (1 << 64 * width) - 1
        for start in range(0, width, 64):
            fields = word >> start * width & block
            for shift in range(0, min(64, width - start) * width, width):
                yield fields >> shift & mask


def positions_in(mask: int):
    """The positions whose bits are set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FuzzySet(Value):
    """An element of L^X: a total map from the carrier into the lattice."""

    _fields = ("ground", "values")

    def __init__(self, ground: Ground, values: tuple[int, ...]):
        if len(values) != len(ground.points):
            raise CarrierMismatch(f"{len(values)} values for {len(ground.points)} points")
        self.__dict__.update(ground=ground, values=values)

    def __hash__(self):
        return hash(self.values)

    def as_dict(self) -> dict[str, str]:
        return self.ground.named(self.values)

    def __repr__(self):
        body = ", ".join(f"{x}:{name}" for x, name in self.as_dict().items())
        return f"FuzzySet({body})"


# ------------------------------------------------------- ground morphisms

class GroundMorphism(Value):
    """A pair (f, phi_op) from (X, L) to (Y, M).

    ``f`` maps domain point indices to codomain point indices; ``phi_op``
    maps codomain algebra indices (M) to domain algebra indices (L) and
    preserves arbitrary joins, the tensor and top.
    """

    def __init__(self, dom: Ground, cod: Ground, f: tuple[int, ...], phi_op: tuple[int, ...]):
        self.__dict__.update(dom=dom, cod=cod, f=f, phi_op=phi_op, _hash=hash((dom, cod, f, phi_op)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GroundMorphism):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self.f == other.f
            and self.phi_op == other.phi_op
        )

    @cached_property
    def backward(self) -> tuple[int, ...]:
        """The backward operator on index positions: entry b is the domain
        position of phi_op after b after f, for codomain position b."""
        position, phi_op, f = self.dom.index.position, self.phi_op, self.f
        return tuple(position[tuple(phi_op[v[y]] for y in f)] for v in self.cod.index.values)

    @cached_property
    def right_adjoint(self) -> tuple[int, ...]:
        """The right adjoint of backward on index positions: entry a is a
        codomain position, for domain position a.

        It is the join of every b whose backward image lies below a.
        Backward preserves joins, so the join is one of those b and lies
        above the others; the index order is a linear extension, so it is
        the one with the highest position.
        """
        bw, down = self.backward, self.dom.index.down
        top = len(bw) - 1
        return tuple(next(b for b in range(top, -1, -1) if down[a] >> bw[b] & 1) for a in range(len(down)))

    @cached_property
    def forward(self) -> tuple[int, ...]:
        """The forward operator on index positions: entry a is the codomain
        position of the meet of every b whose backward image lies above
        domain position a.

        Pointwise, that is the meet of every beta whose phi_op image lies
        above the join of a over the fiber of y.  When phi_op preserves
        binary meets, so does backward, the meet is itself one of those b,
        and forward is a left adjoint of backward; otherwise it need not be.
        """
        bw, up, meet = self.backward, self.dom.index.up, self.cod.index.meet
        return tuple(meet(b for b in range(len(bw)) if up[a] >> bw[b] & 1) for a in range(len(up)))

    def describe(self) -> dict:
        m_lat, l_lat = self.cod.lattice, self.dom.lattice
        return {
            "f": {x: self.cod.points[t] for x, t in zip(self.dom.points, self.f)},
            "phi_op": {m_lat.name(b): l_lat.name(v) for b, v in enumerate(self.phi_op)},
        }


def validate_ground_morphism(dom: Ground, cod: Ground, f, phi_op) -> GroundMorphism:
    """Validate a morphism given f as a {point: point} dict and phi_op.

    f must be defined on exactly the domain points.  phi_op, as an
    {element: element} dict on exactly M or a sequence of element names or
    indices of L, must carry top of M to top of L and commute with the
    tensor and with every join of M (the empty join forces bottom to
    bottom).  The first failing law is raised with its witness.
    """
    point_table = _point_table(dom, cod, f)
    l_alg, m_alg = dom.algebra, cod.algebra
    l_lat, m_lat = l_alg.lattice, m_alg.lattice
    if hasattr(phi_op, "keys"):
        missing = set(m_lat.elements) - set(phi_op)
        if missing:
            raise CarrierMismatch(f"phi_op undefined on {sorted(missing)}")
        unknown = [b for b in phi_op if b not in m_lat.elements]
        if unknown:
            raise UnknownElement(unknown[0])
        table = tuple(l_lat.index(phi_op[m_lat.name(b)]) for b in range(len(m_lat)))
    else:
        table = tuple(l_lat.index(v) if isinstance(v, str) else v for v in phi_op)
        for v in table:
            if not (isinstance(v, int) and 0 <= v < len(l_lat)):
                raise UnknownElement(v)
        if len(table) != len(m_lat):
            raise CarrierMismatch(f"phi_op has {len(table)} entries for {len(m_lat)} elements")

    broken = _broken_law(l_alg, m_alg, table)
    if broken is not None:
        law, witness = broken
        if law == "top":
            raise TopNotPreserved(l_lat.name(table[m_lat.top]))
        names = tuple(m_lat.name(b) for b in witness)
        if law == "tensor":
            b1, b2 = witness
            expected, got = table[m_alg.tensor[b1][b2]], l_alg.tensor[table[b1]][table[b2]]
            raise TensorNotPreserved(names, l_lat.name(expected), l_lat.name(got))
        expected, got = table[m_lat.join_i(witness)], l_lat.join_i(table[b] for b in witness)
        raise JoinNotPreserved(names, l_lat.name(expected), l_lat.name(got))
    return GroundMorphism(dom=dom, cod=cod, f=point_table, phi_op=table)


def _point_table(dom: Ground, cod: Ground, f) -> tuple[int, ...]:
    """The codomain point index of each domain point under a {point:
    point} dict defined on exactly the domain points."""
    missing = set(dom.points) - set(f)
    if missing:
        raise CarrierMismatch(f"point map undefined on {sorted(missing)}")
    extra = set(f) - set(dom.points)
    if extra:
        raise CarrierMismatch(f"point map defined on {sorted(extra)}, not in the domain")
    return tuple(cod.point_index(f[x]) for x in dom.points)


def _broken_law(l_alg: CQML, m_alg: CQML, table):
    """The first morphism law the phi_op table M -> L breaks, as ("top" |
    "tensor" | "join", witness indices in M), or None.  The order: top, the
    tensor at every pair, bottom (the empty join), then each pair's join in
    ``combinations`` order; a map that keeps bottom and binary joins keeps
    every finite join.  Only ``validate_ground_morphism`` builds an error."""
    l_lat, m_lat = l_alg.lattice, m_alg.lattice
    if table[m_lat.top] != l_lat.top:
        return "top", ()
    l_tensor = l_alg.tensor
    for b1, row in enumerate(m_alg.tensor):
        image = l_tensor[table[b1]]
        for b2, b in enumerate(row):
            if table[b] != image[table[b2]]:
                return "tensor", (b1, b2)
    if table[m_lat.bottom] != l_lat.bottom:
        return "join", ()
    l_join, m_join = l_lat.join2, m_lat.join2
    for b1, b2 in combinations(range(len(table)), 2):
        if table[m_join[b1][b2]] != l_join[table[b1]][table[b2]]:
            return "join", (b1, b2)
    return None


def identity_morphism(ground: Ground) -> GroundMorphism:
    points, values = tuple(range(len(ground.points))), tuple(range(len(ground.lattice)))
    return GroundMorphism(dom=ground, cod=ground, f=points, phi_op=values)


def all_phi_ops(l_alg: CQML, m_alg: CQML):
    """Every valid phi_op table M -> L, in lexicographic order, among the
    tables that send top to top and bottom to bottom."""
    l_lat, m_lat = l_alg.lattice, m_alg.lattice
    pinned = {m_lat.bottom: l_lat.bottom, m_lat.top: l_lat.top}
    choices = [(pinned[b],) if b in pinned else range(len(l_lat)) for b in range(len(m_lat))]
    return [table for table in product(*choices) if _broken_law(l_alg, m_alg, table) is None]


def all_morphisms(dom: Ground, cod: Ground):
    """Every ground morphism between two grounds, deterministically ordered."""
    phis = all_phi_ops(dom.algebra, cod.algebra)
    for f in product(range(len(cod.points)), repeat=len(dom.points)):
        for phi in phis:
            yield GroundMorphism(dom=dom, cod=cod, f=f, phi_op=phi)


class Verdict(Value):
    """Outcome of an exhaustive check: ok flag, witness, instances counted."""

    _fields = ("ok", "prop", "witness", "checked")

    def __init__(self, ok: bool, prop: str, witness: dict | None, checked: int):
        self.__dict__.update(ok=ok, prop=prop, witness=witness, checked=checked)

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "status": "ok" if self.ok else "fail",
            "witness": self.witness,
            "instances_checked": self.checked,
        }


def powerset(iterable):
    """All subsets of an iterable, smallest first."""
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
