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


def all_value_tuples(ground):
    """All of L^X, lexicographically over ``lattice.ascending`` (oracle for
    the order of ``PowersetIndex.values``)."""
    return product(ground.lattice.ascending, repeat=len(ground.points))


def leq_values(ground, u, v) -> bool:
    """The pointwise order of two value tuples, from the lattice's order
    table (oracle for the index's up and down bitmasks)."""
    assert len(u) == len(v) == len(ground.points)
    leq = ground.lattice.leq
    return all(leq[a][b] for a, b in zip(u, v))


def join_values(ground, tuples) -> tuple:
    """The pointwise join of a family of value tuples; bottom when empty
    (oracle for ``PowersetIndex.join``)."""
    acc = (ground.lattice.bottom,) * len(ground.points)
    for t in tuples:
        assert len(t) == len(acc)
        acc = tuple(ground.lattice.join2[a][b] for a, b in zip(acc, t))
    return acc


def meet_values(ground, tuples) -> tuple:
    """The pointwise meet of a family of value tuples; top when empty
    (oracle for ``PowersetIndex.meet``)."""
    acc = (ground.lattice.top,) * len(ground.points)
    for t in tuples:
        assert len(t) == len(acc)
        acc = tuple(ground.lattice.meet2[a][b] for a, b in zip(acc, t))
    return acc


def on_values(table, dom, cod):
    """A table of positions of ``dom``'s index into ``cod``'s, as a map on
    value tuples."""
    position, values = dom.index.position, cod.index.values
    return lambda u: values[table[position[u]]]


def verify_powerset_adjunction(forward, backward, dom, cod):
    """The first pair (p, q) of value tuples over ``dom`` and ``cod`` at
    which forward(p) <= q and p <= backward(q) disagree, by a scan of every
    pair; None when forward is left adjoint to backward (oracle)."""
    cod_tuples = list(all_value_tuples(cod))
    for p in all_value_tuples(dom):
        fp = forward(p)
        for q in cod_tuples:
            if leq_values(cod, fp, q) != leq_values(dom, p, backward(q)):
                return p, q
    return None


def naive_topology(ground, opens):
    """(join_closed, {u: i(u)}) of a family of value tuples: closure under
    binary and empty joins, and the join of the opens below each value
    tuple (oracle for ``ltopology`` and ``interior_from_topology``)."""
    opens = set(opens)
    join_closed = join_values(ground, ()) in opens and all(
        join_values(ground, (a, b)) in opens for a in opens for b in opens
    )
    table = {u: join_values(ground, [v for v in opens if leq_values(ground, v, u)]) for u in all_value_tuples(ground)}
    return join_closed, table


def naive_closure_from_topology(ground, opens, m, mode) -> dict:
    """{u: c(u)}: the meet of the pseudo-complements v -> 0 of the opens v
    above u ("literal") or with v -> 0 above u ("extensional"), over value
    tuples (oracle for ``closure_from_topology``)."""
    bot = ground.lattice.bottom
    pseudo = {v: tuple(m.residuum[a][bot] for a in v) for v in set(opens)}
    table = {}
    for u in all_value_tuples(ground):
        if mode == "literal":
            qualifying = [pseudo[v] for v in pseudo if leq_values(ground, u, v)]
        else:
            qualifying = [p for p in pseudo.values() if leq_values(ground, u, p)]
        table[u] = meet_values(ground, qualifying)
    return table


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


def naive_backward(g, v) -> tuple:
    """phi_op after ``v`` after f, on value tuples (oracle for
    ``GroundMorphism.backward``)."""
    return tuple(g.phi_op[v[y]] for y in g.f)


def naive_right_adjoint(g, u) -> tuple:
    """Value at y: the join of every beta whose phi_op image lies below the
    meet of ``u`` over the fiber of y, top on an empty fiber (oracle for
    ``GroundMorphism.right_adjoint``)."""
    l_lat, m_lat = g.dom.lattice, g.cod.lattice
    vals = []
    for y in range(len(g.cod.points)):
        fiber_meet = l_lat.meet_i(u[x] for x in range(len(g.f)) if g.f[x] == y)
        vals.append(m_lat.join_i(b for b in range(len(m_lat)) if l_lat.leq[g.phi_op[b]][fiber_meet]))
    return tuple(vals)


def naive_vb_forward(g, u) -> tuple:
    """Forward image as the meet of every candidate over M^Y whose phi_op
    lift dominates the fiber joins of ``u`` (oracle for
    ``GroundMorphism.forward``)."""
    l_lat = g.dom.lattice
    image = [
        l_lat.join_i(u[x] for x in range(len(g.f)) if g.f[x] == y)
        for y in range(len(g.cod.points))
    ]
    qualifying = (
        cand
        for cand in all_value_tuples(g.cod)
        if all(l_lat.leq[image[y]][g.phi_op[cand[y]]] for y in range(len(cand)))
    )
    return meet_values(g.cod, qualifying)


def naive_is_continuous(g, src, dst):
    """Continuity over value tuples: backward of the target interior below
    the source interior of backward, codomain set by set (oracle)."""
    from fuzzint.powerset import Verdict

    checked = 0
    for v in all_value_tuples(dst.ground):
        checked += 1
        lhs = naive_backward(g, dst.apply_values(v))
        rhs = src.apply_values(naive_backward(g, v))
        if not leq_values(g.dom, lhs, rhs):
            witness = {"v": g.cod.named(v), "lhs": g.dom.named(lhs), "rhs": g.dom.named(rhs)}
            return Verdict(False, "continuity", witness, checked)
    return Verdict(True, "continuity", None, checked)


def naive_is_open_morphism(g, src, dst):
    """Openness over value tuples: source interior of backward below
    backward of the target interior (oracle)."""
    from fuzzint.powerset import Verdict

    checked = 0
    for v in all_value_tuples(dst.ground):
        checked += 1
        lhs = src.apply_values(naive_backward(g, v))
        rhs = naive_backward(g, dst.apply_values(v))
        if not leq_values(g.dom, lhs, rhs):
            witness = {"v": g.cod.named(v), "lhs": g.dom.named(lhs), "rhs": g.dom.named(rhs)}
            return Verdict(False, "openness", witness, checked)
    return Verdict(True, "openness", None, checked)


def naive_initial_interior(g, target):
    """Backward after the target interior after the right adjoint, as a
    rule on value tuples (oracle)."""
    from fuzzint.interior import InteriorMap

    return InteriorMap.from_rule(g.dom, lambda u: naive_backward(g, target.apply_values(naive_right_adjoint(g, u))))


def naive_meet_interchange_report(g, max_family=3):
    """Backward against pointwise meets of every family of fuzzy sets up to
    ``max_family`` members, on value tuples (oracle)."""
    from fuzzint.powerset import Verdict

    cod_tuples = list(all_value_tuples(g.cod))
    checked = 0
    for size in range(max_family + 1):
        for family in product(cod_tuples, repeat=size):
            checked += 1
            lhs = naive_backward(g, meet_values(g.cod, family))
            rhs = meet_values(g.dom, (naive_backward(g, b) for b in family))
            if lhs != rhs:
                witness = {
                    "family": [g.cod.named(b) for b in family],
                    "backward_of_meet": g.dom.named(lhs),
                    "meet_of_backwards": g.dom.named(rhs),
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
    for u in all_value_tuples(ground):
        images[u] = rule(u)
        checked += 1
        if not leq_values(ground, images[u], u):
            witness = {"axiom": "I1", "u": name(u), "image": name(images[u])}
            return Verdict(False, "interior-axioms", witness, checked)
    top = (ground.lattice.top,) * len(ground.points)
    if images[top] != top:
        return Verdict(False, "interior-axioms", {"axiom": "I3", "image": name(images[top])}, checked)
    for u, iu in images.items():
        for v, iv in images.items():
            checked += 1
            if leq_values(ground, u, v) and not leq_values(ground, iu, iv):
                witness = {"axiom": "I2", "u": name(u), "v": name(v)}
                return Verdict(False, "interior-axioms", witness, checked)
    return Verdict(True, "interior-axioms", None, checked)


def naive_enumerate_interior_maps(ground):
    """Interior maps by backtracking over value tuples: candidates below the
    argument and above the join of every assigned predecessor, in index
    order.  Yields each map's images as value tuples (oracle)."""
    tuples = list(all_value_tuples(ground))
    n = len(tuples)
    top = tuples[-1]
    downs = {u: [v for v in tuples if leq_values(ground, v, u)] for u in tuples}
    preds = [[j for j in range(i) if leq_values(ground, tuples[j], tuples[i])] for i in range(n)]
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
        lower = join_values(ground, (assign[j] for j in preds[i]))
        for w in downs[u]:
            if leq_values(ground, lower, w):
                assign[i] = w
                yield from backtrack(i + 1)

    yield from backtrack(0)


def continuity_constraints(g, target) -> list:
    """(backward(v), backward(target(v))) position pairs on the domain, one
    per codomain position v: an interior i on the domain makes g
    continuous into the target iff c <= i(w) for every pair (w, c)
    (oracle for the position scan of continuity)."""
    bw = g.backward
    return [(bw[v], bw[image]) for v, image in enumerate(target.images)]


def transported(pairs, g_test) -> tuple:
    """Position pairs (w, c) carried along ``g_test`` to its domain, as
    (backward(w), backward(c))."""
    bw = g_test.backward
    return tuple((bw[w], bw[c]) for w, c in pairs)


def naive_least_above(ground, pairs) -> tuple:
    """Images of the least interior map above position pairs (w, c), each
    position by a scan of every pair: the join of the c whose w lies below
    it, and top at top (oracle for the floors of ``packed_floors``)."""
    index = ground.index
    up = index.up
    top = len(up) - 1
    return tuple(index.join(c for w, c in pairs if up[w] >> a & 1) for a in range(top)) + (top,)


def naive_initiality_violation(g_test, lift_pairs, arms):
    """The initiality kernel at one test morphism, without the equality
    fast path or the packed floors: the "only-if" scan of the lift pairs
    against the join of the arms' floors, then the "if" scan of the arms'
    transported pairs against the least interior above the lift pairs,
    both built by the pair scan (oracle)."""
    from fuzzint.continuity import _violation

    z = g_test.dom
    index = z.index
    down = index.down
    floors = []
    for arm in arms:
        moved = transported(continuity_constraints(arm.morphism, arm.target), g_test)
        floors.append((naive_least_above(z, moved), moved))
    tables = [table for table, _ in floors] or [naive_least_above(z, ())]
    hard = tuple(index.join(column) for column in zip(*tables))
    lift_moved = transported(lift_pairs, g_test)
    for w, c in lift_moved:
        if not down[hard[w]] >> c & 1:
            return _violation(g_test, "only-if", w, c, hard[w])
    easy = naive_least_above(z, lift_moved)
    for _, moved in floors:
        for w, c in moved:
            if not down[easy[w]] >> c & 1:
                return _violation(g_test, "if", w, c, easy[w])
    return None


def naive_initiality_walk(tests, lift_pairs, arms):
    """``naive_initiality_violation`` at each test morphism in turn: the
    first failing test's index in ``tests`` and its violation, or None
    (oracle for ``initiality_violation``)."""
    for k, g_test in enumerate(tests):
        bad = naive_initiality_violation(g_test, lift_pairs, arms)
        if bad is not None:
            return k, bad
    return None


def naive_is_fully_productive(i):
    """Arbitrary meets through the map, each family of the powerset, the
    empty one included, met from scratch (oracle for ``is_productive``
    on interior maps).  The walk visits 2^|L^X| families."""
    from fuzzint.powerset import Verdict, powerset

    index, images = i.ground.index, i.images
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
    for how, fold in (("join", join_values), ("meet", meet_values)):
        combined = {u: fold(ground, (table[u] for table in tables)) for u in ground.index.values}
        verdict = naive_check_interior_axioms(ground, combined)
        if not verdict.ok:
            return {"operation": how, **verdict.witness}
    return None


def naive_gen_operator_lattice(ctx):
    """Every family of a ground's maps when it has at most 12, else every
    pair, one case each, then the whole ground (oracle for the pairs that
    operator-lattice-closure decides a ground at a time)."""
    from itertools import combinations

    from fuzzint.search import count_interior_maps, enumerate_interior_maps

    for ground in ctx.grounds:
        count_interior_maps(ground, ctx.bounds, ctx.expire)
        maps = list(enumerate_interior_maps(ground, ctx.bounds, ctx.expire))
        if 2 ** len(maps) <= 4096:
            for mask in range(1, 2 ** len(maps)):
                members = [maps[k] for k in range(len(maps)) if mask >> k & 1]
                yield {"kind": "subset", "ground": ground, "members": members}
        else:
            for a, b in combinations(maps, 2):
                yield {"kind": "pair", "ground": ground, "members": [a, b]}
            yield {"kind": "full", "ground": ground, "members": maps}


def naive_legs(ctx, open_mode):
    """Every (morphism, src, dst) over the search's samples that the
    value-tuple oracle of openness (continuity) passes, grouped by source
    map in the order each source first passes (oracle for the legs of the
    composition and open-preimage searches)."""
    from fuzzint.powerset import all_morphisms
    from fuzzint.search import _sample

    test = naive_is_open_morphism if open_mode else naive_is_continuous
    by_source = {}
    for dom in ctx.grounds:
        for cod in ctx.grounds:
            for g in all_morphisms(dom, cod):
                for src in ctx[_sample, dom]:
                    for dst in ctx[_sample, cod]:
                        ctx.expire()
                        if test(g, src, dst).ok:
                            by_source.setdefault(src, []).append((g, src, dst))
    return by_source


def naive_gen_composition(ctx, open_mode):
    """Every composable pair of legs, one case each, in the order of the
    first leg's source, the first leg, then the second leg (oracle for the
    composition searches, which decide their cases leg by leg)."""
    by_source = naive_legs(ctx, open_mode)
    for legs in by_source.values():
        for g1, src, mid in legs:
            for g2, _, dst in by_source.get(mid, ()):
                yield {"open": open_mode, "first": g1, "second": g2, "interiors": [src, mid, dst]}


def naive_gen_open_preimage(ctx):
    """Every open set of every continuous leg's target, one case each
    (oracle for open-preimage, which decides its cases leg by leg)."""
    from fuzzint import search as fsearch
    from fuzzint.powerset import FuzzySet

    for legs in naive_legs(ctx, open_mode=False).values():
        for g, src, dst in legs:
            for v in fsearch.open_sets(dst):
                yield {"morphism": g, "src": src, "dst": dst, "v": FuzzySet(dst.ground, dst.ground.index.values[v])}


NAIVE_LEG_GENERATORS = {
    "composition-continuous": lambda ctx: naive_gen_composition(ctx, open_mode=False),
    "composition-open": lambda ctx: naive_gen_composition(ctx, open_mode=True),
    "open-preimage": naive_gen_open_preimage,
}
