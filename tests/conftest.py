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
        lhs = vb_backward(g, dst.interior.apply(v))
        rhs = src.interior.apply(vb_backward(g, v))
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
        lhs = src.interior.apply(vb_backward(g, v))
        rhs = vb_backward(g, dst.interior.apply(v))
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
        return vb_backward(g, target.interior.apply(lifted)).values

    return InteriorMap.from_rule(g.dom, rule, validate=True)


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
                    "meet_of_backwards": dict(zip(g.dom.points, rhs_vals)),
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
    from fuzzint.continuity import VBSpace, compose
    from fuzzint.powerset import all_morphisms
    from fuzzint.search import enumerate_interior_maps

    lifted = VBSpace(s.domain, lift)
    for z_ground in test_grounds:
        test_spaces = [VBSpace(z_ground, i) for i in enumerate_interior_maps(z_ground)]
        for g in all_morphisms(z_ground, s.domain):
            for test_space in test_spaces:
                g_cont = naive_is_continuous(g, test_space, lifted).ok
                comp_cont = all(
                    naive_is_continuous(compose(arm, g), test_space, space).ok for arm, space in s.arms
                )
                if g_cont != comp_cont:
                    return "if" if g_cont else "only-if"
    return None


def naive_check_interior_axioms(ground, candidate):
    """The interior axioms over value tuples, monotonicity by a scan of all
    N^2 pairs in index order (oracle for the cover-edge check)."""
    from fuzzint.interior import InteriorMap
    from fuzzint.powerset import FuzzySet, Verdict

    if isinstance(candidate, InteriorMap):
        rule = candidate.apply_values
    elif callable(candidate):
        rule = lambda u: tuple(candidate(u))  # noqa: E731
    else:
        table = {}
        for u, iu in candidate.items() if hasattr(candidate, "items") else candidate:
            uv = u.values if isinstance(u, FuzzySet) else tuple(u)
            table[uv] = iu.values if isinstance(iu, FuzzySet) else tuple(iu)
        rule = table.__getitem__
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
