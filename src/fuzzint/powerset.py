"""Fuzzy powersets, ground morphisms and the powerset operator family.

A fuzzy set over a ground (X, L) is a total map X -> L, stored as a tuple
of lattice indices aligned with the carrier.  A ground morphism is the pair
(f, phi_op): a point map X -> Y together with a concrete map M -> L that
preserves arbitrary joins, the tensor and top.  Only phi_op is ever stored:
every operator formula evaluates the concrete join-preserving direction.

The forward operators are left adjoints of the corresponding backward
operators; ``verify_adjunction`` checks any such claim exhaustively on a
finite instance and returns a witness pair if it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
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

#: Largest fuzzy powerset a ground indexes; exhaustive checks on interior
#: maps refuse larger grounds.
MATERIALIZATION_LIMIT = 4096


@dataclass(frozen=True)
class Ground:
    """A carrier set together with its value algebra."""

    points: tuple[str, ...]
    algebra: CQML

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.points, self.algebra)))
        if len(set(self.points)) != len(self.points):
            raise CarrierMismatch(f"duplicate point names in {self.points}")

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

    def all_value_tuples(self):
        """All of L^X, lexicographically over ``lattice.ascending``: a
        linear extension of the pointwise order."""
        return product(self.lattice.ascending, repeat=len(self.points))

    def all_sets(self):
        for vals in self.all_value_tuples():
            yield FuzzySet(self, vals)

    def leq_values(self, u: tuple, v: tuple) -> bool:
        leq = self.lattice.leq
        return all(leq[a][b] for a, b in zip(u, v))

    def join_values(self, tuples) -> tuple:
        j2 = self.lattice.join2
        acc = [self.lattice.bottom] * len(self.points)
        for t in tuples:
            acc = [j2[a][b] for a, b in zip(acc, t)]
        return tuple(acc)

    def meet_values(self, tuples) -> tuple:
        m2 = self.lattice.meet2
        acc = [self.lattice.top] * len(self.points)
        for t in tuples:
            acc = [m2[a][b] for a, b in zip(acc, t)]
        return tuple(acc)


class PowersetIndex:
    """L^X as the positions 0..N-1 of its value tuples.

    ``values`` lists the tuples in the order of ``Ground.all_value_tuples``
    and ``position`` inverts it.  ``up[a]`` and ``down[a]`` are bitmasks
    of the positions above and below position a, and ``covers[a]`` holds
    its lower covers: one lattice cover step down in one coordinate.  The
    order is a linear extension, so the least of a set of upper bounds has
    the lowest position: a join is the lowest set bit of the AND of the
    upsets, and a meet the highest set bit of the AND of the downsets.
    """

    __slots__ = ("values", "position", "up", "down", "covers")

    def __init__(self, ground: Ground):
        size = ground.set_count()
        if size > MATERIALIZATION_LIMIT:
            raise GroundTooLarge(size, MATERIALIZATION_LIMIT)
        leq = ground.lattice.leq
        span = range(len(leq))
        width = range(len(ground.points))
        self.values = tuple(ground.all_value_tuples())
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


@dataclass(frozen=True)
class FuzzySet:
    """An element of L^X: a total map from the carrier into the lattice."""

    ground: Ground
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.ground.points):
            raise CarrierMismatch(
                f"{len(self.values)} values for {len(self.ground.points)} points"
            )

    def __hash__(self):
        return hash(self.values)

    def value(self, x: str) -> str:
        return self.ground.lattice.name(self.values[self.ground.point_index(x)])

    def as_dict(self) -> dict[str, str]:
        return self.ground.named(self.values)

    def leq(self, other: "FuzzySet") -> bool:
        if self.ground != other.ground:
            raise CarrierMismatch("fuzzy sets over different grounds")
        return self.ground.leq_values(self.values, other.values)

    def join(self, other: "FuzzySet") -> "FuzzySet":
        return FuzzySet(self.ground, self.ground.join_values((self.values, other.values)))

    def meet(self, other: "FuzzySet") -> "FuzzySet":
        return FuzzySet(self.ground, self.ground.meet_values((self.values, other.values)))

    def __repr__(self):
        body = ", ".join(f"{x}:{name}" for x, name in self.as_dict().items())
        return f"FuzzySet({body})"


# ------------------------------------------------------------ point maps

@dataclass(frozen=True)
class PointMap:
    """A total map between carriers, by target index."""

    dom: tuple[str, ...]
    cod: tuple[str, ...]
    table: tuple[int, ...]

    @classmethod
    def from_dict(cls, mapping, dom, cod) -> "PointMap":
        dom, cod = tuple(dom), tuple(cod)
        missing = set(dom) - set(mapping)
        if missing:
            raise CarrierMismatch(f"point map undefined on {sorted(missing)}")
        try:
            table = tuple(cod.index(mapping[x]) for x in dom)
        except ValueError:
            bad = next(mapping[x] for x in dom if mapping[x] not in cod)
            raise UnknownElement(bad) from None
        return cls(dom, cod, table)

    def __call__(self, x: str) -> str:
        return self.cod[self.table[self.dom.index(x)]]

    def fiber(self, y_index: int) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.table) if t == y_index)


def classical_image(f: PointMap, subset) -> frozenset[str]:
    """{f(x) : x in A} for a crisp subset A of the domain."""
    subset = set(subset)
    for x in subset:
        if x not in f.dom:
            raise UnknownElement(x)
    return frozenset(f.cod[f.table[f.dom.index(x)]] for x in subset)


def classical_preimage(f: PointMap, subset) -> frozenset[str]:
    """{x : f(x) in B} for a crisp subset B of the codomain."""
    subset = set(subset)
    for y in subset:
        if y not in f.cod:
            raise UnknownElement(y)
    return frozenset(x for i, x in enumerate(f.dom) if f.cod[f.table[i]] in subset)


def zadeh_forward(f: PointMap, a: FuzzySet) -> FuzzySet:
    """Image by join over fibers: value at y is the join of a over f^-1(y)."""
    if a.ground.points != f.dom:
        raise CarrierMismatch("fuzzy set carrier differs from the map domain")
    lat = a.ground.lattice
    vals = []
    for y in range(len(f.cod)):
        vals.append(lat.join_i(a.values[x] for x in range(len(f.dom)) if f.table[x] == y))
    return FuzzySet(Ground(f.cod, a.ground.algebra), tuple(vals))


def zadeh_backward(f: PointMap, b: FuzzySet) -> FuzzySet:
    """Preimage by composition: b after f."""
    if b.ground.points != f.cod:
        raise CarrierMismatch("fuzzy set carrier differs from the map codomain")
    return FuzzySet(
        Ground(f.dom, b.ground.algebra),
        tuple(b.values[f.table[x]] for x in range(len(f.dom))),
    )


# ------------------------------------------------------- ground morphisms

@dataclass(frozen=True)
class GroundMorphism:
    """A pair (f, phi_op) from (X, L) to (Y, M).

    ``f`` maps domain point indices to codomain point indices; ``phi_op``
    maps codomain algebra indices (M) to domain algebra indices (L) and
    preserves arbitrary joins, the tensor and top.
    """

    dom: Ground
    cod: Ground
    f: tuple[int, ...]
    phi_op: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.dom, self.cod, self.f, self.phi_op)))

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
        position of ``vb_backward`` of codomain position b."""
        position, phi_op, f = self.dom.index.position, self.phi_op, self.f
        return tuple(position[tuple(phi_op[v[y]] for y in f)] for v in self.cod.index.values)

    @property
    def point_map(self) -> PointMap:
        return PointMap(self.dom.points, self.cod.points, self.f)

    def describe(self) -> dict:
        m_lat, l_lat = self.cod.lattice, self.dom.lattice
        return {
            "f": {x: self.cod.points[t] for x, t in zip(self.dom.points, self.f)},
            "phi_op": {m_lat.name(b): l_lat.name(v) for b, v in enumerate(self.phi_op)},
        }


def validate_ground_morphism(dom: Ground, cod: Ground, f, phi_op) -> GroundMorphism:
    """Validate the morphism conditions on phi_op (and totality of f).

    phi_op must carry top of M to top of L and commute with the tensor and
    with the join of every subset of M (the empty subset forces bottom to
    bottom).  The first failing condition is raised with its witness.
    """
    pm = f if isinstance(f, PointMap) else PointMap.from_dict(f, dom.points, cod.points)
    if pm.dom != dom.points or pm.cod != cod.points:
        raise CarrierMismatch("point map carriers differ from the grounds")
    l_alg, m_alg = dom.algebra, cod.algebra
    l_lat, m_lat = l_alg.lattice, m_alg.lattice
    if hasattr(phi_op, "keys"):
        missing = set(m_lat.elements) - set(phi_op)
        if missing:
            raise CarrierMismatch(f"phi_op undefined on {sorted(missing)}")
        table = tuple(l_lat.index(phi_op[m_lat.name(b)]) for b in range(len(m_lat)))
    else:
        table = tuple(l_lat.index(v) if isinstance(v, str) else v for v in phi_op)
        if len(table) != len(m_lat):
            raise CarrierMismatch(f"phi_op has {len(table)} entries for {len(m_lat)} elements")

    if table[m_lat.top] != l_lat.top:
        raise TopNotPreserved(l_lat.name(table[m_lat.top]))
    for b1 in range(len(m_lat)):
        for b2 in range(len(m_lat)):
            expected = table[m_alg.tensor[b1][b2]]
            got = l_alg.tensor[table[b1]][table[b2]]
            if expected != got:
                raise TensorNotPreserved(
                    (m_lat.name(b1), m_lat.name(b2)),
                    l_lat.name(expected),
                    l_lat.name(got),
                )
    n = len(m_lat)
    for size in range(0, n + 1):
        for subset in combinations(range(n), size):
            expected = table[m_lat.join_i(subset)]
            got = l_lat.join_i(table[b] for b in subset)
            if expected != got:
                raise JoinNotPreserved(
                    tuple(m_lat.name(b) for b in subset),
                    l_lat.name(expected),
                    l_lat.name(got),
                )
    return GroundMorphism(dom=dom, cod=cod, f=pm.table, phi_op=table)


def identity_morphism(ground: Ground) -> GroundMorphism:
    n = len(ground.lattice)
    return GroundMorphism(
        dom=ground,
        cod=ground,
        f=tuple(range(len(ground.points))),
        phi_op=tuple(range(n)),
    )


def all_phi_ops(l_alg: CQML, m_alg: CQML):
    """Every valid phi_op table M -> L, in lexicographic order."""
    l_lat, m_lat = l_alg.lattice, m_alg.lattice
    found = []
    for cand in product(range(len(l_lat)), repeat=len(m_lat)):
        if cand[m_lat.top] != l_lat.top or cand[m_lat.bottom] != l_lat.bottom:
            continue
        if any(
            l_lat.join2[cand[b1]][cand[b2]] != cand[m_lat.join2[b1][b2]]
            for b1 in range(len(m_lat))
            for b2 in range(len(m_lat))
        ):
            continue
        if any(
            l_alg.tensor[cand[b1]][cand[b2]] != cand[m_alg.tensor[b1][b2]]
            for b1 in range(len(m_lat))
            for b2 in range(len(m_lat))
        ):
            continue
        found.append(cand)
    return found


def all_morphisms(dom: Ground, cod: Ground):
    """Every ground morphism between two grounds, deterministically ordered."""
    phis = all_phi_ops(dom.algebra, cod.algebra)
    for f in product(range(len(cod.points)), repeat=len(dom.points)):
        for phi in phis:
            yield GroundMorphism(dom=dom, cod=cod, f=f, phi_op=phi)


# --------------------------------------------------- variable-basis layer

def star_phi(g: GroundMorphism, alpha: str) -> str:
    """The meet of every beta in M whose phi_op image dominates alpha."""
    l_lat, m_lat = g.dom.lattice, g.cod.lattice
    a = l_lat.index(alpha)
    return m_lat.name(
        m_lat.meet_i(b for b in range(len(m_lat)) if l_lat.leq[a][g.phi_op[b]])
    )


def _star_phi_table(g: GroundMorphism) -> tuple[int, ...]:
    l_lat, m_lat = g.dom.lattice, g.cod.lattice
    return tuple(
        m_lat.meet_i(b for b in range(len(m_lat)) if l_lat.leq[a][g.phi_op[b]])
        for a in range(len(l_lat))
    )


def lift_star_phi(g: GroundMorphism, a: FuzzySet) -> FuzzySet:
    """Pointwise composition with star_phi: L-valued sets become M-valued."""
    if a.ground.algebra != g.dom.algebra:
        raise CarrierMismatch("fuzzy set algebra differs from the morphism domain algebra")
    star = _star_phi_table(g)
    return FuzzySet(
        Ground(a.ground.points, g.cod.algebra),
        tuple(star[v] for v in a.values),
    )


def lift_phi_op(g: GroundMorphism, b: FuzzySet) -> FuzzySet:
    """Pointwise composition with phi_op: M-valued sets become L-valued."""
    if b.ground.algebra != g.cod.algebra:
        raise CarrierMismatch("fuzzy set algebra differs from the morphism codomain algebra")
    return FuzzySet(
        Ground(b.ground.points, g.dom.algebra),
        tuple(g.phi_op[v] for v in b.values),
    )


def vb_backward(g: GroundMorphism, b: FuzzySet) -> FuzzySet:
    """(f, phi)^<- : phi_op after b after f."""
    if b.ground != g.cod:
        raise CarrierMismatch("fuzzy set ground differs from the morphism codomain")
    return FuzzySet(
        g.dom,
        tuple(g.phi_op[b.values[y]] for y in g.f),
    )


def vb_forward(g: GroundMorphism, a: FuzzySet) -> FuzzySet:
    """(f, phi)^-> : the meet of all b whose phi_op lift dominates the image.

    The condition on b is pointwise, so the meet is taken pointwise: star_phi
    of the join of a over each fiber (tests cross-check this against the
    meet over all candidates).
    """
    if a.ground != g.dom:
        raise CarrierMismatch("fuzzy set ground differs from the morphism domain")
    l_lat = g.dom.lattice
    fibers = [[x for x in range(len(g.f)) if g.f[x] == y] for y in range(len(g.cod.points))]
    image = [l_lat.join_i(a.values[x] for x in fib) for fib in fibers]
    star = _star_phi_table(g)
    return FuzzySet(g.cod, tuple(star[v] for v in image))


def vb_right_adjoint(g: GroundMorphism, u: FuzzySet) -> FuzzySet:
    """(f, phi)_* : right adjoint of the backward operator.

    Value at y is the join of every beta whose phi_op image sits below the
    meet of u over the fiber of y (top on empty fibers).
    ``verify_powerset_adjunction`` checks the Galois condition.
    """
    if u.ground != g.dom:
        raise CarrierMismatch("fuzzy set ground differs from the morphism domain")
    return FuzzySet(g.cod, right_adjoint_values(g, u.values))


def right_adjoint_values(g: GroundMorphism, values: tuple) -> tuple:
    """The value tuple of ``vb_right_adjoint`` at a domain value tuple."""
    l_lat, m_lat = g.dom.lattice, g.cod.lattice
    vals = []
    for y in range(len(g.cod.points)):
        fiber_meet = l_lat.meet_i(values[x] for x in range(len(g.f)) if g.f[x] == y)
        vals.append(
            m_lat.join_i(
                b for b in range(len(m_lat)) if l_lat.leq[g.phi_op[b]][fiber_meet]
            )
        )
    return tuple(vals)


# --------------------------------------------------- adjunction checking

@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive check: ok flag, witness, instances counted."""

    ok: bool
    prop: str
    witness: dict | None
    checked: int

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "status": "ok" if self.ok else "fail",
            "witness": self.witness,
            "instances_checked": self.checked,
        }


def verify_adjunction(forward, backward, dom_elems, cod_elems, dom_leq, cod_leq) -> Verdict:
    """Check F(p) <= q  iff  p <= G(q) over all pairs of two finite posets."""
    dom_elems = list(dom_elems)
    cod_elems = list(cod_elems)
    checked = 0
    for p in dom_elems:
        fp = forward(p)
        for q in cod_elems:
            checked += 1
            if cod_leq(fp, q) != dom_leq(p, backward(q)):
                return Verdict(
                    ok=False,
                    prop="adjunction",
                    witness={"p": _describe(p), "q": _describe(q)},
                    checked=checked,
                )
    return Verdict(ok=True, prop="adjunction", witness=None, checked=checked)


def verify_powerset_adjunction(forward, backward, dom: Ground, cod: Ground) -> Verdict:
    """Adjunction check specialized to fuzzy powersets ordered pointwise."""
    return verify_adjunction(
        forward,
        backward,
        dom.all_sets(),
        cod.all_sets(),
        lambda a, b: a.leq(b),
        lambda a, b: a.leq(b),
    )


def _describe(x):
    if isinstance(x, FuzzySet):
        return x.as_dict()
    if isinstance(x, frozenset):
        return sorted(x)
    return x


def powerset(iterable):
    """All subsets of an iterable, smallest first."""
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
