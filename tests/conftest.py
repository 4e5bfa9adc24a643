from itertools import product

import pytest

from fuzzint.lattice import chain_lattice, diamond_lattice, m3_lattice, pentagon_lattice
from fuzzint.monoid import builtin_chain, godel_tensor, join_tensor, validate_gl
from fuzzint.powerset import Ground


@pytest.fixture(scope="session")
def c2():
    return builtin_chain("godel", 2)


@pytest.fixture(scope="session")
def godel3():
    return builtin_chain("godel", 3)


@pytest.fixture(scope="session")
def luk3():
    return builtin_chain("lukasiewicz", 3)


@pytest.fixture(scope="session")
def diamond_gl():
    return validate_gl(godel_tensor(diamond_lattice()))


@pytest.fixture(scope="session")
def diamond_join():
    # quasi-monoidal only: tensor = join is not integral
    return join_tensor(diamond_lattice())


@pytest.fixture(scope="session")
def lattice_zoo():
    """Assorted validated lattices with at most six elements."""
    return {
        "c2": chain_lattice(["0", "1"]),
        "c3": chain_lattice(["0", "1/2", "1"]),
        "c4": chain_lattice(["0", "a", "b", "1"]),
        "c5": chain_lattice(["0", "a", "b", "c", "1"]),
        "c6": chain_lattice(["0", "a", "b", "c", "d", "1"]),
        "diamond": diamond_lattice(),
        "pentagon": pentagon_lattice(),
        "m3": m3_lattice(),
    }


@pytest.fixture(scope="session")
def one_point_c3(godel3):
    return Ground(points=("p1",), algebra=godel3)


@pytest.fixture(scope="session")
def two_point_c3(godel3):
    return Ground(points=("p1", "p2"), algebra=godel3)


@pytest.fixture(scope="session")
def one_point_c2(c2):
    return Ground(points=("p1",), algebra=c2)


@pytest.fixture(scope="session")
def two_point_c2(c2):
    return Ground(points=("p1", "p2"), algebra=c2)


def naive_lub(lat, subset):
    """Least upper bound computed only from the order table (oracle)."""
    ubs = [k for k in range(len(lat)) if all(lat.leq[i][k] for i in subset)]
    mins = [u for u in ubs if all(lat.leq[u][v] for v in ubs)]
    assert len(mins) == 1
    return mins[0]


def naive_glb(lat, subset):
    lbs = [k for k in range(len(lat)) if all(lat.leq[k][i] for i in subset)]
    maxs = [l for l in lbs if all(lat.leq[v][l] for v in lbs)]
    assert len(maxs) == 1
    return maxs[0]


def frame_law_subset_witness(lat):
    """Direct subset-by-subset frame law check, both laws (oracle).

    Exponential in the carrier; cross-validates the triple scan of
    ``FiniteLattice.frame_law_witness`` on small instances.  Returns a
    (subset, element, law) witness or None.
    """
    n = len(lat.elements)
    idx = range(n)
    for mask in range(1 << n):
        members = [i for i in idx if mask >> i & 1]
        j = lat.join_i(members)
        m = lat.meet_i(members)
        for a in idx:
            if lat.meet2[j][a] != lat.join_i(lat.meet2[i][a] for i in members):
                return (tuple(lat.elements[i] for i in members), lat.elements[a], "meet-over-join")
            if lat.join2[m][a] != lat.meet_i(lat.join2[i][a] for i in members):
                return (tuple(lat.elements[i] for i in members), lat.elements[a], "join-over-meet")
    return None


def naive_vb_forward(g, a) -> tuple:
    """Forward image as the meet of every candidate over M^Y whose phi_op
    lift dominates the fiber joins of ``a`` (oracle)."""
    l_lat = g.dom.lattice
    image = [
        l_lat.join_i(a.values[x] for x in range(len(g.f)) if g.f[x] == y)
        for y in range(len(g.cod.points))
    ]
    qualifying = (
        cand
        for cand in g.cod.all_value_tuples()
        if all(l_lat.leq[image[y]][g.phi_op[cand[y]]] for y in range(len(cand)))
    )
    return g.cod.meet_values(qualifying)


def naive_is_continuous(g, src, dst):
    """Continuity over fuzzy sets: backward of the target interior below
    the source interior of backward, codomain set by set (oracle)."""
    from fuzzint.powerset import Verdict, vb_backward

    checked = 0
    for v in dst.ground.all_sets():
        checked += 1
        lhs = vb_backward(g, dst.apply(v))
        rhs = src.apply(vb_backward(g, v))
        if not lhs.leq(rhs):
            witness = {"v": v.as_dict(), "lhs": lhs.as_dict(), "rhs": rhs.as_dict()}
            return Verdict(False, "continuity", witness, checked)
    return Verdict(True, "continuity", None, checked)


def naive_is_open_morphism(g, src, dst):
    """Openness over fuzzy sets: source interior of backward below backward
    of the target interior (oracle)."""
    from fuzzint.powerset import Verdict, vb_backward

    checked = 0
    for v in dst.ground.all_sets():
        checked += 1
        lhs = src.apply(vb_backward(g, v))
        rhs = vb_backward(g, dst.apply(v))
        if not lhs.leq(rhs):
            witness = {"v": v.as_dict(), "lhs": lhs.as_dict(), "rhs": rhs.as_dict()}
            return Verdict(False, "openness", witness, checked)
    return Verdict(True, "openness", None, checked)


def naive_initial_interior(g, target):
    """Backward after the target interior after the right adjoint, as a
    rule on fuzzy sets (oracle)."""
    from fuzzint.interior import InteriorMap
    from fuzzint.powerset import FuzzySet, vb_backward, vb_right_adjoint

    def rule(u):
        lifted = vb_right_adjoint(g, FuzzySet(g.dom, u))
        return vb_backward(g, target.apply(lifted)).values

    return InteriorMap.from_rule(g.dom, rule)


def naive_meet_interchange_report(g, max_family=3):
    """Backward against pointwise meets of every family of fuzzy sets up to
    ``max_family`` members, on value tuples (oracle)."""
    from fuzzint.powerset import FuzzySet, Verdict, vb_backward

    cod_sets = list(g.cod.all_sets())
    checked = 0
    for size in range(max_family + 1):
        for family in product(cod_sets, repeat=size):
            checked += 1
            lhs = vb_backward(g, FuzzySet(g.cod, g.cod.meet_values(b.values for b in family)))
            rhs_vals = g.dom.meet_values(vb_backward(g, b).values for b in family)
            if lhs.values != rhs_vals:
                witness = {
                    "family": [b.as_dict() for b in family],
                    "backward_of_meet": lhs.as_dict(),
                    "meet_of_backwards": g.dom.named(rhs_vals),
                }
                return Verdict(False, "meet-interchange", witness, checked)
    return Verdict(True, "meet-interchange", None, checked)


def naive_verify_initiality(s, lift, test_grounds) -> str | None:
    """The universal property of ``lift`` by literal enumeration (oracle).

    Every test morphism into the source domain, at every interior map on
    its test ground, must be continuous into the lift exactly when every
    composite through the source arms is continuous.  Returns the failing
    direction ("if" or "only-if"), or None.
    """
    from fuzzint.continuity import compose
    from fuzzint.powerset import all_morphisms
    from fuzzint.search import enumerate_interior_maps

    for z_ground in test_grounds:
        test_spaces = list(enumerate_interior_maps(z_ground))
        for g in all_morphisms(z_ground, s.domain):
            for test_space in test_spaces:
                g_cont = naive_is_continuous(g, test_space, lift).ok
                comp_cont = all(
                    naive_is_continuous(compose(arm, g), test_space, target).ok for arm, target in s.arms
                )
                if g_cont != comp_cont:
                    return "if" if g_cont else "only-if"
    return None


def unvalidated(ground, table):
    """The InteriorMap with the images of a {u: i(u)} table, or of a rule,
    on value tuples, built from their positions without the axiom check."""
    from fuzzint.interior import InteriorMap

    image_of = table if callable(table) else table.__getitem__
    position = ground.index.position
    return InteriorMap(ground, tuple(position[tuple(image_of(u))] for u in ground.index.values))


def naive_check_interior_axioms(ground, candidate):
    """The interior axioms over value tuples, monotonicity by a scan of all
    N^2 pairs in index order (oracle for the cover-edge check).
    ``candidate`` is an InteriorMap or a {u: i(u)} value-tuple table."""
    from fuzzint.interior import InteriorMap
    from fuzzint.powerset import Verdict

    rule = candidate.apply_values if isinstance(candidate, InteriorMap) else candidate.__getitem__
    name = lambda vals: {x: ground.lattice.name(v) for x, v in zip(ground.points, vals)}  # noqa: E731
    checked = 0
    images = {}
    for u in ground.all_value_tuples():
        images[u] = rule(u)
        checked += 1
        if not ground.leq_values(images[u], u):
            witness = {"axiom": "I1", "u": name(u), "image": name(images[u])}
            return Verdict(False, "interior-axioms", witness, checked)
    top = (ground.lattice.top,) * len(ground.points)
    if images[top] != top:
        return Verdict(False, "interior-axioms", {"axiom": "I3", "image": name(images[top])}, checked)
    for u, iu in images.items():
        for v, iv in images.items():
            checked += 1
            if ground.leq_values(u, v) and not ground.leq_values(iu, iv):
                witness = {"axiom": "I2", "u": name(u), "v": name(v)}
                return Verdict(False, "interior-axioms", witness, checked)
    return Verdict(True, "interior-axioms", None, checked)


def naive_enumerate_interior_maps(ground):
    """Interior maps by backtracking over value tuples: candidates below the
    argument and above the join of every assigned predecessor, in index
    order.  Yields each map's images as value tuples (oracle)."""
    tuples = list(ground.all_value_tuples())
    n = len(tuples)
    top = tuples[-1]
    downs = {u: [v for v in tuples if ground.leq_values(v, u)] for u in tuples}
    preds = [[j for j in range(i) if ground.leq_values(tuples[j], tuples[i])] for i in range(n)]
    assign = [None] * n

    def backtrack(i):
        if i == n:
            yield tuple(assign)
            return
        u = tuples[i]
        if u == top:
            assign[i] = top
            yield from backtrack(i + 1)
            return
        lower = ground.join_values(assign[j] for j in preds[i])
        for w in downs[u]:
            if ground.leq_values(lower, w):
                assign[i] = w
                yield from backtrack(i + 1)

    yield from backtrack(0)


def naive_least_above(ground, pairs) -> tuple:
    """Images of the least interior map above position pairs (w, c), each
    position by a scan of every pair: the join of the c whose w lies below
    it, and top at top (oracle for the cover-edge sweep)."""
    index = ground.index
    up = index.up
    top = len(up) - 1
    return tuple(index.join(c for w, c in pairs if up[w] >> a & 1) for a in range(top)) + (top,)


def naive_initiality_violation(g_test, lift_pairs, arms):
    """``initiality_violation`` without the equality fast path: the "only-if"
    scan of the lift pairs against the join of the arms' floors, then the
    "if" scan of the arms' transported pairs against the least interior
    above the lift pairs, both built by the pair scan (oracle)."""
    from fuzzint.continuity import _violation

    z = g_test.dom
    index = z.index
    down, bw = index.down, g_test.backward
    floors = []
    for arm in arms:
        moved = tuple((bw[w], bw[c]) for w, c in arm.constraints)
        floors.append((naive_least_above(z, moved), moved))
    tables = [table for table, _ in floors] or [naive_least_above(z, ())]
    hard = tuple(index.join(column) for column in zip(*tables))
    for u, lu in lift_pairs:
        w, c = bw[u], bw[lu]
        if not down[hard[w]] >> c & 1:
            return _violation(g_test, "only-if", w, c, hard[w])
    easy = naive_least_above(z, [(bw[u], bw[lu]) for u, lu in lift_pairs])
    for _, moved in floors:
        for w, c in moved:
            if not down[easy[w]] >> c & 1:
                return _violation(g_test, "if", w, c, easy[w])
    return None


def naive_is_fully_productive(i):
    """Arbitrary meets through the map, each family of the powerset met from
    scratch (oracle for the prefix fold); above ``FULL_SUBSET_LIMIT`` the
    binary predicate decides, as in the package."""
    from fuzzint.interior import FULL_SUBSET_LIMIT, is_productive
    from fuzzint.powerset import Verdict, powerset

    index, images = i.ground.index, i.images
    if 2 ** len(images) > FULL_SUBSET_LIMIT:
        binary = is_productive(i)
        return Verdict(binary.ok, "fully-productive", binary.witness, binary.checked)
    checked = 0
    for family in powerset(range(len(images))):
        checked += 1
        if images[index.meet(family)] != index.meet(images[a] for a in family):
            witness = {"family": [i.ground.named(index.values[a]) for a in family]}
            return Verdict(False, "fully-productive", witness, checked)
    return Verdict(True, "fully-productive", None, checked)


def naive_interior_sample(maps: list, cap: int) -> list:
    """An even stride of ``cap`` maps through the whole listed stream that
    keeps the first and last maps (oracle for the counted, streamed
    sample)."""
    if len(maps) <= cap:
        return maps
    idx = sorted({round(k * (len(maps) - 1) / (cap - 1)) for k in range(cap)})
    return [maps[i] for i in idx]


def naive_check_operator_lattice(ground, members):
    """The join, then the meet, of a family of maps, folded pointwise over
    value tuples and each checked from scratch by the pair-scan axiom
    oracle: the first failing operation with its witness, or None (oracle
    for the verdict memo of operator-lattice-closure)."""
    tables = [m.table() for m in members]
    for how, fold in (("join", ground.join_values), ("meet", ground.meet_values)):
        combined = {u: fold(table[u] for table in tables) for u in ground.index.values}
        verdict = naive_check_interior_axioms(ground, combined)
        if not verdict.ok:
            return {"operation": how, **verdict.witness}
    return None
