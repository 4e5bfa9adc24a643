"""A gallery of concrete interior-operator families at desk scale.

Three families are executable here: the lower-semicontinuous interior over
finite topological spaces (restricted to grid-valued maps so every join is
finite and exact), the constant-minimum interior on finite carriers, and
the power family t -> t^n on the unit interval.  A fourth runner derives
the interior and both closure readings from a designated open family over a
GL-monoid and reports which closure axioms each reading satisfies.

Float comparisons use an absolute tolerance of 1e-12; grid values should be
exact dyadic or decimal fractions.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import EmptyCarrier, InvalidTopology
from .interior import LTopology, closure_from_topology, interior_from_topology
from .powerset import powerset
from .value import Value

FLOAT_TOLERANCE = 1e-12


# -- finite topological spaces -------------------------------------------------

class FiniteTopSpace(Value):
    """A finite point set with a family of open subsets."""

    _fields = ("points", "opens")

    def __init__(self, points: tuple[str, ...], opens: frozenset):  # opens: of frozenset[str]
        self.__dict__.update(points=points, opens=opens)


def validate_topology(points, opens) -> FiniteTopSpace:
    """Exhaustively check the finite topology axioms."""
    points = tuple(points)
    opens = frozenset(frozenset(o) for o in opens)
    full = frozenset(points)
    for o in opens:
        if not o <= full:
            raise InvalidTopology(f"open set {sorted(o)} is not a subset of the carrier")
    if frozenset() not in opens:
        raise InvalidTopology("the empty set must be open")
    if full not in opens:
        raise InvalidTopology("the whole carrier must be open")
    for a in opens:
        for b in opens:
            if a | b not in opens:
                raise InvalidTopology(f"union of {sorted(a)} and {sorted(b)} is not open")
            if a & b not in opens:
                raise InvalidTopology(f"intersection of {sorted(a)} and {sorted(b)} is not open")
    return FiniteTopSpace(points=points, opens=opens)


def all_topologies(points):
    """Every topology on a small carrier, by filtering all open families."""
    points = tuple(points)
    proper = [frozenset(s) for s in powerset(points)][1:-1]  # strict, nonempty
    for chosen in powerset(proper):
        opens = frozenset(chosen) | {frozenset(), frozenset(points)}
        try:
            yield validate_topology(points, opens)
        except InvalidTopology:
            continue


def classical_interior(space: FiniteTopSpace, subset) -> frozenset:
    """Union of the opens inside the subset."""
    subset = frozenset(subset)
    acc = frozenset()
    for o in space.opens:
        if o <= subset:
            acc |= o
    return acc


# -- lower semicontinuous interior ----------------------------------------------

def is_lower_semicontinuous(space: FiniteTopSpace, values: tuple) -> bool:
    """Every strict superlevel set is open."""
    for a in set(values):
        superlevel = frozenset(space.points[i] for i, v in enumerate(values) if v > a)
        if superlevel not in space.opens:
            return False
    return True


def lsc_interior(space: FiniteTopSpace, u, grid) -> tuple:
    """Pointwise largest grid-valued lower-semicontinuous map below u.

    ``u`` maps points into the grid (dict or sequence); the result is the
    pointwise join of every qualifying minorant, which is itself lower
    semicontinuous because finite joins preserve open superlevel sets.
    """
    grid = tuple(sorted(set(grid)))
    if 0.0 not in grid or 1.0 not in grid:
        raise InvalidTopology("grid must contain 0 and 1")
    if hasattr(u, "keys"):
        u = tuple(u[x] for x in space.points)
    else:
        u = tuple(u)
    best = [0.0] * len(space.points)
    for cand in product(grid, repeat=len(space.points)):
        if all(c <= uu + FLOAT_TOLERANCE for c, uu in zip(cand, u)):
            if is_lower_semicontinuous(space, cand):
                best = [max(b, c) for b, c in zip(best, cand)]
    return tuple(best)


def compact_min_interior(values) -> tuple:
    """The constant map at the minimum value (finite carriers are compact)."""
    values = tuple(values)
    if not values:
        raise EmptyCarrier()
    m = min(values)
    return (m,) * len(values)


def check_ij_continuity_claims(space: FiniteTopSpace, target_points, grid) -> dict:
    """Continuity reports between the two float-valued families.

    One direction pairs the lower-semicontinuous interior on ``space`` with
    the constant-minimum interior on the target: every point map should
    pass, because constants are lower semicontinuous.  The reverse
    direction searches for non-constant maps that are continuous from a
    minimum-interior source into the semicontinuous side and reports them
    as findings rather than asserting anything, together with the topology
    in force.
    """
    grid = tuple(sorted(set(grid)))
    target_points = tuple(target_points)
    x_n, y_n = len(space.points), len(target_points)
    report = {
        "ij_all_maps_continuous": True,
        "ij_maps_checked": 0,
        "ji_continuous_maps": [],
        "ji_nonconstant_witnesses": [],
    }

    # maps from the space into the compact target, lsc interior on the source
    for f in product(range(y_n), repeat=x_n):
        report["ij_maps_checked"] += 1
        for v in product(grid, repeat=y_n):
            jv = compact_min_interior(v)
            lhs = tuple(jv[f[x]] for x in range(x_n))
            backward = tuple(v[f[x]] for x in range(x_n))
            rhs = lsc_interior(space, backward, grid)
            if any(l > r + FLOAT_TOLERANCE for l, r in zip(lhs, rhs)):
                report["ij_all_maps_continuous"] = False

    # maps from the compact target into the space, lsc interior on the target side
    for f in product(range(x_n), repeat=y_n):
        continuous = True
        for v in product(grid, repeat=x_n):
            iv = lsc_interior(space, v, grid)
            lhs = tuple(iv[f[y]] for y in range(y_n))
            backward = tuple(v[f[y]] for y in range(y_n))
            rhs = compact_min_interior(backward)
            if any(l > r + FLOAT_TOLERANCE for l, r in zip(lhs, rhs)):
                continuous = False
                break
        if continuous:
            named = {target_points[y]: space.points[f[y]] for y in range(y_n)}
            report["ji_continuous_maps"].append(named)
            if len(set(f)) > 1:
                report["ji_nonconstant_witnesses"].append(named)
    return report


# -- the power family on the unit interval ---------------------------------------

def power_interior(n, t: float) -> float:
    """t^n on [0, 1]; n may be math.inf, giving the indicator of t == 1."""
    if n == math.inf:
        return 1.0 if t == 1.0 else 0.0
    if n < 1:
        raise ValueError("exponent must be at least 1")
    return t**n


def example2_idempotency_scan(n_max: int, grid) -> dict:
    """Which exponents give idempotent maps on the sampled grid.

    Every exponent satisfies the interior axioms pointwise; only the
    identity and the infinite power survive the idempotency test.
    """
    grid = tuple(sorted(set(grid)))
    exponents = list(range(1, n_max + 1)) + [math.inf]
    idempotent = []
    axioms_ok = True
    for n in exponents:
        contract = all(power_interior(n, t) <= t + FLOAT_TOLERANCE for t in grid)
        monotone = all(
            power_interior(n, s) <= power_interior(n, t) + FLOAT_TOLERANCE
            for s in grid
            for t in grid
            if s <= t
        )
        tops = abs(power_interior(n, 1.0) - 1.0) <= FLOAT_TOLERANCE
        if not (contract and monotone and tops):
            axioms_ok = False
        if all(
            abs(power_interior(n, power_interior(n, t)) - power_interior(n, t)) <= FLOAT_TOLERANCE
            for t in grid
        ):
            idempotent.append("inf" if n == math.inf else n)
    return {
        "idempotent_exponents": idempotent,
        "axioms_ok": axioms_ok,
        "grid_size": len(grid),
        "max_finite_exponent": n_max,
    }


# -- interior/closure round trip over a GL-monoid --------------------------------

def example3_roundtrip(t: LTopology) -> dict:
    """Interior from the open family plus both closure readings over the
    ground's GL-monoid, with the closure axioms each reading satisfies on
    this instance.  Monotonicity is checked along the cover edges of L^X,
    which decides it."""
    index = t.ground.index
    lat = t.ground.lattice
    up = index.up

    def key(a):
        return ",".join(lat.name(v) for v in index.values[a])

    interior = interior_from_topology(t)
    report = {
        "interior": {key(a): key(image) for a, image in enumerate(interior.images)},
        "closures": {},
    }
    for mode in ("literal", "extensional"):
        images = closure_from_topology(t, mode)
        report["closures"][mode] = {
            "table": {key(a): key(image) for a, image in enumerate(images)},
            "extensive": all(up[a] >> image & 1 for a, image in enumerate(images)),
            "monotone": all(
                up[images[c]] >> images[a] & 1 for a, covers in enumerate(index.covers) for c in covers
            ),
            "idempotent": all(images[image] == image for image in images),
        }
    return report
