"""The semantics of the package's value classes: equality, hashing,
construction and immutability.

Each case builds its constructor arguments afresh on every call, so two
instances of one variant share no objects; variants 0 and 1 differ.
"""

import pytest

from fuzzint.continuity import StructuredSource
from fuzzint.gallery import FiniteTopSpace
from fuzzint.interior import LTopology, discrete
from fuzzint.lattice import FiniteLattice, chain_lattice
from fuzzint.monoid import CQML, GLMonoid, builtin_chain, godel_tensor
from fuzzint.powerset import FuzzySet, Ground, GroundMorphism, Verdict, identity_morphism
from fuzzint.search import SearchBounds, SearchResult

LATTICE_FIELDS = (
    "elements", "leq", "join2", "meet2", "top", "bottom", "distributive", "distributivity_witness"
)


def _ground(variant):
    return Ground(("p1", "p2")[: variant + 1], builtin_chain("godel", 2))


def _lattice(variant):
    lat = chain_lattice(("a", "b", "c")[: variant + 2])
    return tuple(getattr(lat, name) for name in LATTICE_FIELDS)


def _cqml(variant):
    algebra = godel_tensor(chain_lattice(("a", "b", "c")[: variant + 2]))
    return algebra.lattice, algebra.tensor


def _gl(variant):
    m = builtin_chain(("godel", "lukasiewicz")[variant], 3)
    return m.lattice, m.tensor, m.residuum, m.division_witness


def _morphism(variant):
    ground = _ground(1)
    return ground, _ground(1), ((0, 1), (0, 0))[variant], (0, 1)


def _source(variant):
    ground = _ground(0)
    arms = ((identity_morphism(ground), discrete(ground)),) if variant else ()
    return _ground(0), arms


def _space(variant):
    points = ("a", "b")[: variant + 1]
    return points, frozenset({frozenset(), frozenset(points)})


#: class -> (field names in constructor order, arguments of a variant)
CASES = {
    FiniteLattice: (LATTICE_FIELDS, _lattice),
    CQML: (("lattice", "tensor"), _cqml),
    GLMonoid: (("lattice", "tensor", "residuum", "division_witness"), _gl),
    Ground: (("points", "algebra"), lambda v: (("p1", "p2")[: v + 1], builtin_chain("godel", 2))),
    FuzzySet: (("ground", "values"), lambda v: (_ground(0), ((0,), (1,))[v])),
    GroundMorphism: (("dom", "cod", "f", "phi_op"), _morphism),
    Verdict: (("ok", "prop", "witness", "checked"), lambda v: (not v, "productive", None, 3)),
    LTopology: (("ground", "opens", "join_closed"), lambda v: (_ground(0), (0b11, 0b10)[v], not v)),
    StructuredSource: (("domain", "arms"), _source),
    SearchBounds: (
        ("max_carrier", "max_tables", "time_budget", "algebras", "operator_sample"),
        lambda v: (2 - v, 100_000, 300.0, ("c2", "godel3"), 4),
    ),
    SearchResult: (
        ("prop", "status", "instances", "bundle"),
        lambda v: ("initiality", ("no-counterexample", "counterexample")[v], 3, None),
    ),
    FiniteTopSpace: (("points", "opens"), _space),
}

#: the one value class whose instances are mutable and unhashable
MUTABLE = {SearchResult}

classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@classes
def test_positional_and_keyword_construction_agree(cls):
    names, args = CASES[cls]
    by_position = cls(*args(0))
    by_keyword = cls(**dict(zip(names, args(0))))
    assert by_position is not by_keyword
    assert by_position == by_keyword and not by_position != by_keyword
    for name, value in zip(names, args(0)):
        assert getattr(by_position, name) == value == getattr(by_keyword, name)


@classes
def test_equal_instances_hash_equally_and_unequal_ones_differ(cls):
    names, args = CASES[cls]
    a, b, other = cls(*args(0)), cls(*args(0)), cls(*args(1))
    assert a == b and b == a
    assert a != other and other != a and not a == other
    assert a != object() and a != None  # noqa: E711
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


@classes
def test_assignment_and_deletion_raise(cls):
    names, args = CASES[cls]
    value = cls(*args(0))
    if cls in MUTABLE:
        setattr(value, names[0], args(1)[0])
        assert getattr(value, names[0]) == args(1)[0]
        return
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unlisted = 1
    assert tuple(getattr(value, name) for name in names) == args(0)


def test_cached_tables_survive_the_read_only_guard():
    ground = _ground(1)
    assert ground.index is ground.index
    g = GroundMorphism(*_morphism(1))
    assert g.backward is g.backward
    assert g.right_adjoint is g.right_adjoint
    assert g.forward is g.forward


def test_search_bounds_defaults_in_field_order():
    assert SearchBounds() == SearchBounds(2, 100_000, 300.0, ("c2", "godel3"), 4)


def test_gl_monoid_equals_its_cqml():
    g = builtin_chain("godel", 3)
    c = CQML(g.lattice, g.tensor)
    assert g == c and c == g
    assert g != CQML(g.lattice, g.lattice.join2)


def test_gl_monoid_hashes_as_its_cqml():
    g = builtin_chain("godel", 3)
    assert hash(g) == hash(CQML(g.lattice, g.tensor))
