"""Tensor-enriched lattices: quasi-monoidal carriers and GL-monoids.

A quasi-monoidal carrier (CQML) only asks the tensor to be isotone with an
idempotent top.  A GL-monoid adds commutativity, associativity, unit top,
zero bottom, distribution over arbitrary joins and divisibility; it is then
residuated and the residuum table is precomputed here because closure
computations consult it in inner loops.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .errors import (
    CarrierTooLarge,
    DistributivityViolation,
    NoZero,
    NotAssociative,
    NotCommutative,
    NotDivisible,
    NotIntegral,
    NotIsotone,
    NotJoinDistributive,
    TopNotIdempotent,
    UnknownElement,
)
from .lattice import DEFAULT_MAX_SIZE, FiniteLattice, chain_lattice, validate_lattice
from .value import Value


class CQML(Value):
    """Complete lattice with an isotone tensor whose top is idempotent.

    Equality and the hash read the lattice and the tensor only, so a
    GL-monoid equals the carrier of its tables: its residuum is determined
    by them.
    """

    def __init__(self, lattice: FiniteLattice, tensor: tuple[tuple[int, ...], ...]):
        self.__dict__.update(lattice=lattice, tensor=tensor, _hash=hash((lattice, tensor)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, CQML):
            return NotImplemented
        return self.lattice == other.lattice and self.tensor == other.tensor

    def tensor_names(self, a: str, b: str) -> str:
        lat = self.lattice
        return lat.name(self.tensor[lat.index(a)][lat.index(b)])


class GLMonoid(CQML):
    """Validated GL-monoid with its residuum table, built only by
    ``validate_gl``, which derives both tables.

    ``residuum[a][b]`` is a -> b, the largest x with a (x) x <= b;
    ``monoid.residuum`` reads it by element names.  ``division_witness[a][b]``
    records one gamma with a = b (x) gamma for each comparable pair
    a <= b (and -1 elsewhere), kept for diagnostics.
    """

    def __init__(
        self,
        lattice: FiniteLattice,
        tensor: tuple[tuple[int, ...], ...],
        residuum: tuple[tuple[int, ...], ...],
        division_witness: tuple[tuple[int, ...], ...],
    ):
        super().__init__(lattice, tensor)
        self.__dict__.update(residuum=residuum, division_witness=division_witness)


def validate_cqml(lattice: FiniteLattice, tensor) -> CQML:
    """Check isotony and top-idempotence of a raw tensor table.

    ``tensor`` maps name pairs to names: either a dict keyed by pairs or a
    list of [a, b, a(x)b] triples.
    """
    n = len(lattice)
    table = [[None] * n for _ in range(n)]
    items = tensor.items() if hasattr(tensor, "items") else ((row[:2], row[2]) for row in tensor)
    for (a, b), c in items:
        table[lattice.index(a)][lattice.index(b)] = lattice.index(c)
    for i in range(n):
        for j in range(n):
            if table[i][j] is None:
                raise UnknownElement(f"tensor undefined at ({lattice.name(i)}, {lattice.name(j)})")
    _check_isotone(lattice, table)
    if table[lattice.top][lattice.top] != lattice.top:
        raise TopNotIdempotent(lattice.name(table[lattice.top][lattice.top]))
    return CQML(lattice=lattice, tensor=tuple(tuple(row) for row in table))


def _check_isotone(lattice: FiniteLattice, table) -> None:
    n = len(lattice)
    leq = lattice.leq
    for a1 in range(n):
        for a2 in range(n):
            if not leq[a1][a2]:
                continue
            for b in range(n):
                if not leq[table[a1][b]][table[a2][b]]:
                    raise NotIsotone(
                        (lattice.name(a1), lattice.name(a2), lattice.name(b), "left")
                    )
                if not leq[table[b][a1]][table[b][a2]]:
                    raise NotIsotone(
                        (lattice.name(a1), lattice.name(a2), lattice.name(b), "right")
                    )


def validate_gl(cqml: CQML) -> GLMonoid:
    """Check the GL-monoid axioms and derive the residuum.

    The underlying lattice must be distributive (the ambient theory assumes
    the frame laws); the tensor must be commutative, associative, unital at
    top, zero at bottom, distribute over arbitrary joins and be divisible.
    On a finite lattice every nonempty join folds from binary ones, and the
    empty join is the zero law, so a triple scan of binary joins decides
    join-distributivity, as the triple scan behind
    ``FiniteLattice.distributivity_witness`` decides the frame laws.  The
    residuation law is verified on every triple before returning.
    """
    lat = cqml.lattice
    if not lat.distributive:
        raise DistributivityViolation(lat.distributivity_witness)
    n = len(lat)
    t = cqml.tensor
    for a in range(n):
        for b in range(n):
            if t[a][b] != t[b][a]:
                raise NotCommutative((lat.name(a), lat.name(b)))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise NotAssociative((lat.name(a), lat.name(b), lat.name(c)))
    for a in range(n):
        if t[a][lat.top] != a:
            raise NotIntegral((lat.name(a), lat.name(t[a][lat.top])))
        if t[a][lat.bottom] != lat.bottom:
            raise NoZero((lat.name(a), lat.name(t[a][lat.bottom])))

    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[a][lat.join2[b][c]] != lat.join2[t[a][b]][t[a][c]]:
                    raise NotJoinDistributive((lat.name(a), (lat.name(b), lat.name(c))))

    witness = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if not lat.leq[a][b]:
                continue
            for g in range(n):
                if t[b][g] == a:
                    witness[a][b] = g
                    break
            else:
                raise NotDivisible((lat.name(a), lat.name(b)))

    residuum = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            residuum[a][b] = lat.join_i(x for x in range(n) if lat.leq[t[a][x]][b])
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if lat.leq[t[a][b]][c] != lat.leq[a][residuum[b][c]]:
                    raise NotJoinDistributive((lat.name(a), (lat.name(b), lat.name(c))))

    return GLMonoid(
        lattice=lat,
        tensor=t,
        residuum=tuple(tuple(row) for row in residuum),
        division_witness=tuple(tuple(row) for row in witness),
    )


def residuum(m: GLMonoid, a: str, b: str) -> str:
    """a -> b, the join of every x with a (x) x <= b."""
    lat = m.lattice
    return lat.name(m.residuum[lat.index(a)][lat.index(b)])


def godel_tensor(lattice: FiniteLattice) -> CQML:
    """Tensor = meet, on any lattice."""
    return CQML(lattice=lattice, tensor=lattice.meet2)


def join_tensor(lattice: FiniteLattice) -> CQML:
    """Tensor = join; quasi-monoidal but never integral above two elements."""
    return CQML(lattice=lattice, tensor=lattice.join2)


def builtin_chain(kind: str, n: int) -> GLMonoid:
    """Equidistant chain 0, 1/(n-1), ..., 1 under a named tensor.

    ``kind`` is "godel" (tensor = min) or "lukasiewicz"
    (tensor = max(0, a + b - 1)); the result passes full GL validation.
    """
    if n < 2:
        raise ValueError(f"chain length must be at least 2, got {n}")
    if n > DEFAULT_MAX_SIZE:  # refused before its n names and n^2 pairs are spelled
        raise CarrierTooLarge(n, DEFAULT_MAX_SIZE)
    names = tuple(_fraction_name(i, n - 1) for i in range(n))
    lat = chain_lattice(names)
    if kind == "godel":
        table = {(names[i], names[j]): names[min(i, j)] for i in range(n) for j in range(n)}
    elif kind == "lukasiewicz":
        table = {
            (names[i], names[j]): names[max(0, i + j - (n - 1))]
            for i in range(n)
            for j in range(n)
        }
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    return validate_gl(validate_cqml(lat, table))


def _fraction_name(i: int, n: int) -> str:
    """i/n in lowest terms, spelled as ``str(fractions.Fraction(i, n))``."""
    d = gcd(i, n)
    return str(i // d) if d == n else f"{i // d}/{n // d}"


def pointwise_power(m: CQML, k: int) -> CQML:
    """The k-fold pointwise power of a carrier.

    Elements are k-tuples named "(a,...,z)", ordered and tensored
    componentwise.  A GL-monoid input is revalidated as a GL-monoid, which
    exercises that all axioms survive the pointwise lift.
    """
    base = m.lattice
    combos = list(product(range(len(base)), repeat=k))
    names = tuple("(" + ",".join(base.name(i) for i in c) + ")" for c in combos)
    pairs = [
        (names[x], names[y])
        for x, cx in enumerate(combos)
        for y, cy in enumerate(combos)
        if all(base.leq[i][j] for i, j in zip(cx, cy))
    ]
    lat = validate_lattice(names, pairs)
    table = {
        (names[x], names[y]): names[
            combos.index(tuple(m.tensor[i][j] for i, j in zip(cx, cy)))
        ]
        for x, cx in enumerate(combos)
        for y, cy in enumerate(combos)
    }
    cq = validate_cqml(lat, table)
    if isinstance(m, GLMonoid):
        return validate_gl(cq)
    return cq
