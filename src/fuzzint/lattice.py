"""Finite complete lattices.

Elements are opaque string identifiers; internally everything runs on dense
integer indices so that order tests and binary join/meet are O(1) table
lookups.  A lattice is immutable once validated and safe to share.

Distributivity is recorded as a flag with a witness triple rather than
enforced: plain quasi-monoidal ground lattices do not need it, but GL-monoid
construction does and rejects non-distributive carriers.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    CarrierTooLarge,
    MissingBound,
    NotAPartialOrder,
    TopEqualsBottom,
    UnknownElement,
)
from .value import Value

#: Carriers above this size are refused: exhaustive suites assume desk scale.
DEFAULT_MAX_SIZE = 64


class FiniteLattice(Value):
    """A validated finite complete lattice.

    ``leq``, ``join2`` and ``meet2`` are index-based tables; ``elements``
    maps indices back to the user's identifiers.  ``distributive`` reports
    whether the (finite) frame laws hold, with a witness triple when not.
    ``ascending`` lists every index in a linear extension of the order.
    """

    def __init__(
        self,
        elements: tuple[str, ...],
        leq: tuple[tuple[bool, ...], ...],
        join2: tuple[tuple[int, ...], ...],
        meet2: tuple[tuple[int, ...], ...],
        top: int,
        bottom: int,
        distributive: bool,
        distributivity_witness: tuple[str, str, str] | None,
    ):
        self.__dict__.update(
            elements=elements, leq=leq, join2=join2, meet2=meet2, top=top, bottom=bottom,
            distributive=distributive, distributivity_witness=distributivity_witness,
            _index={e: i for i, e in enumerate(elements)},
            ascending=_linear_extension(leq),
            _hash=hash((elements, leq)),
        )

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.elements == other.elements and self.leq == other.leq

    # -- element access ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(name) from None

    def name(self, i: int) -> str:
        return self.elements[i]

    def leq_names(self, a: str, b: str) -> bool:
        return self.leq[self.index(a)][self.index(b)]

    # -- joins and meets ---------------------------------------------------

    def join_i(self, indices) -> int:
        """Join of a family of indices; empty join is bottom."""
        acc = self.bottom
        for i in indices:
            acc = self.join2[acc][i]
        return acc

    def meet_i(self, indices) -> int:
        """Meet of a family of indices; empty meet is top."""
        acc = self.top
        for i in indices:
            acc = self.meet2[acc][i]
        return acc

    def join(self, subset) -> str:
        """Least upper bound of a subset of element names."""
        return self.name(self.join_i(self.index(a) for a in subset))

    def meet(self, subset) -> str:
        """Greatest lower bound of a subset of element names."""
        return self.name(self.meet_i(self.index(a) for a in subset))


def _linear_extension(leq) -> tuple[int, ...]:
    """Indices ordered so that each follows every element below it.

    The smallest index whose lower elements are all listed comes next, so
    an index order that already extends the order is kept as it is.
    """
    order: list[int] = []
    rest = list(range(len(leq)))
    while rest:
        a = next(a for a in rest if not any(leq[b][a] for b in rest if b != a))
        order.append(a)
        rest.remove(a)
    return tuple(order)


def _frame_law_witness(elements, join2, meet2) -> tuple[str, str, str] | None:
    """First triple violating binary distributivity in the given tables.

    On a finite lattice the frame laws over arbitrary subsets reduce to
    the binary law by induction, so a triple scan decides them.
    """
    n = len(elements)
    for a, b, c in product(range(n), repeat=3):
        if meet2[join2[a][b]][c] != join2[meet2[a][c]][meet2[b][c]]:
            return (elements[a], elements[b], elements[c])
    return None


def _lub(leq, candidates, i, j):
    """Least upper bound of i and j given the order table, or None."""
    ubs = [k for k in candidates if leq[i][k] and leq[j][k]]
    for u in ubs:
        if all(leq[u][v] for v in ubs):
            return u
    return None


def validate_lattice(elements, leq_pairs, *, closure: bool = False) -> FiniteLattice:
    """Validate a raw order relation and derive all lattice tables.

    ``leq_pairs`` lists related pairs (a, b) meaning a <= b.  With
    ``closure=True`` the reflexive-transitive closure is taken first, so a
    covering relation suffices.  Raises the first failing axiom with a
    witness; a distributivity failure is recorded on the result instead of
    raised.
    """
    elements = tuple(elements)
    if not elements:
        raise NotAPartialOrder("nonempty carrier", ())
    if len(set(elements)) != len(elements):
        raise NotAPartialOrder("distinct element names", (elements,))
    if len(elements) > DEFAULT_MAX_SIZE:
        raise CarrierTooLarge(len(elements), DEFAULT_MAX_SIZE)
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}

    rel = [[False] * n for _ in range(n)]
    for a, b in leq_pairs:
        if a not in index:
            raise UnknownElement(a)
        if b not in index:
            raise UnknownElement(b)
        rel[index[a]][index[b]] = True

    if closure:
        for i in range(n):
            rel[i][i] = True
        for k in range(n):  # Floyd-Warshall transitive closure
            for i in range(n):
                if rel[i][k]:
                    row_i, row_k = rel[i], rel[k]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True

    for i in range(n):
        if not rel[i][i]:
            raise NotAPartialOrder("reflexivity", (elements[i],))
    for i in range(n):
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                raise NotAPartialOrder("antisymmetry", (elements[i], elements[j]))
            if rel[i][j]:
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        raise NotAPartialOrder("transitivity", (elements[i], elements[j], elements[k]))

    rng = range(n)
    rev = [list(col) for col in zip(*rel)]  # the glb is the lub in the reversed order
    join2 = [[0] * n for _ in rng]
    meet2 = [[0] * n for _ in rng]
    for i, j in product(rng, repeat=2):
        for table, order, kind in ((join2, rel, "least upper bound"), (meet2, rev, "greatest lower bound")):
            bound = _lub(order, rng, i, j)
            if bound is None:
                raise MissingBound(kind, (elements[i], elements[j]))
            table[i][j] = bound

    top = next(k for k in rng if all(row[k] for row in rel))
    bottom = next(k for k in rng if all(rel[k]))
    if top == bottom:
        raise TopEqualsBottom()

    join2 = tuple(tuple(row) for row in join2)
    meet2 = tuple(tuple(row) for row in meet2)
    witness = _frame_law_witness(elements, join2, meet2)
    return FiniteLattice(
        elements=elements,
        leq=tuple(tuple(row) for row in rel),
        join2=join2,
        meet2=meet2,
        top=top,
        bottom=bottom,
        distributive=witness is None,
        distributivity_witness=witness,
    )


# -- stock carriers used throughout the test and example suites ------------

def chain_lattice(names) -> FiniteLattice:
    """Chain in the listed order (first element is bottom)."""
    names = tuple(names)
    if len(names) > DEFAULT_MAX_SIZE:  # refused before its n^2 pairs are built
        raise CarrierTooLarge(len(names), DEFAULT_MAX_SIZE)
    pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i, len(names))]
    return validate_lattice(names, pairs)


def diamond_lattice() -> FiniteLattice:
    """Four-element Boolean lattice: bot < a, b < top with a, b incomparable."""
    pairs = [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
    return validate_lattice(("bot", "a", "b", "top"), pairs, closure=True)


def pentagon_lattice() -> FiniteLattice:
    """N5: bot < a < c < top and bot < b < top, b incomparable to a and c."""
    pairs = [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "b"), ("b", "top")]
    return validate_lattice(("bot", "a", "c", "b", "top"), pairs, closure=True)


def m3_lattice() -> FiniteLattice:
    """M3: three incomparable atoms between bot and top."""
    pairs = [("bot", x) for x in "abc"] + [(x, "top") for x in "abc"]
    return validate_lattice(("bot", "a", "b", "c", "top"), pairs, closure=True)
