import json
from pathlib import Path

import pytest

from fuzzint.errors import DistributivityViolation, ParseError
from fuzzint.io import (
    detect_schema,
    fuzzyset_from_json,
    ground_from_json,
    ground_to_json,
    interior_from_json,
    interior_to_json,
    lattice_from_json,
    lattice_to_json,
    load_any,
    load_json,
    monoid_from_json,
    monoid_to_json,
    morphism_from_json,
    morphism_to_json,
    source_from_json,
    source_to_json,
    space_from_json,
    space_to_json,
    topology_from_json,
    topology_to_json,
)
from fuzzint.monoid import GLMonoid

FIXTURES = Path(__file__).parent / "data" / "fixtures"


def test_detect_schema():
    assert detect_schema({"elements": [], "leq": []}) == "lattice"
    assert detect_schema({"builtin": "godel"}) == "monoid"
    assert detect_schema({"lattice": {}, "tensor": []}) == "monoid"
    assert detect_schema({"points": [], "algebra": {}}) == "ground"
    assert detect_schema({"carrier": [], "values": {}}) == "fuzzyset"
    assert detect_schema({"f": {}, "phi_op": {}}) == "morphism"
    assert detect_schema({"ground": {}, "table": []}) == "interior"
    assert detect_schema({"ground": {}, "opens": []}) == "topology"
    assert detect_schema({"ground": {}, "interior": "discrete"}) == "space"
    assert detect_schema({"domain": {}, "arms": []}) == "source"
    with pytest.raises(ParseError):
        detect_schema({"mystery": 1})
    with pytest.raises(ParseError):
        detect_schema([1, 2])


def test_lattice_roundtrip():
    doc = load_json(FIXTURES / "chain3_lattice.json")
    lat = lattice_from_json(doc)
    assert lat.elements == ("0", "1/2", "1")
    again = lattice_from_json(lattice_to_json(lat))
    assert again == lat


def test_builtin_monoid_loads_as_gl():
    m = monoid_from_json(load_json(FIXTURES / "godel3_monoid.json"))
    assert isinstance(m, GLMonoid)
    roundtrip = monoid_from_json(monoid_to_json(m))
    assert roundtrip.tensor == m.tensor


def test_pentagon_rejected_on_load():
    with pytest.raises(DistributivityViolation):
        monoid_from_json(load_json(FIXTURES / "pentagon_gl.json"))


def test_ground_and_fuzzyset():
    ground = ground_from_json(load_json(FIXTURES / "one_point_ground.json"))
    assert ground.points == ("p1",)
    a = fuzzyset_from_json(load_json(FIXTURES / "half_set.json"))
    assert a.as_dict() == {"p1": "1/2"}
    assert ground_from_json(ground_to_json(ground)) == ground


def test_morphism_roundtrip():
    g = morphism_from_json(load_json(FIXTURES / "collapse_morphism.json"))
    assert g.f == (0, 0)
    again = morphism_from_json(morphism_to_json(g))
    assert again == g


def test_topology_and_space():
    t = topology_from_json(load_json(FIXTURES / "c3_topology.json"))
    assert len(t.opens) == 2
    again = topology_from_json(topology_to_json(t))
    assert again.opens == t.opens
    s = space_from_json(load_json(FIXTURES / "discrete_space.json"))
    assert s.apply_values((1,)) == (1,)
    s2 = space_from_json(load_json(FIXTURES / "topology_space.json"))
    assert s2.apply_values((1,)) == (0,)
    again2 = space_from_json(space_to_json(s2))
    assert again2.images == s2.images


def test_interior_roundtrip():
    s = space_from_json(load_json(FIXTURES / "least_space.json"))
    doc = interior_to_json(s)
    rebuilt = interior_from_json(doc)
    assert rebuilt.images == s.images


def test_source_roundtrip():
    s = source_from_json(load_json(FIXTURES / "two_arm_source.json"))
    assert len(s.arms) == 2
    again = source_from_json(source_to_json(s))
    assert len(again.arms) == 2
    assert again.domain == s.domain


def test_file_refs_resolve_relative(tmp_path):
    (tmp_path / "algebra.json").write_text(json.dumps({"builtin": "godel", "n": 3}))
    (tmp_path / "ground.json").write_text(
        json.dumps({"points": ["p1"], "algebra": "algebra.json"})
    )
    ground = ground_from_json("ground.json", tmp_path)
    assert len(ground.lattice) == 3


def test_load_any_detects(tmp_path):
    kind, obj = load_any(FIXTURES / "godel3_monoid.json")
    assert kind == "monoid"
    kind, obj = load_any(FIXTURES / "two_arm_source.json")
    assert kind == "source"


def test_malformed_json():
    with pytest.raises(ParseError):
        load_json(FIXTURES / "malformed.json")
    with pytest.raises(ParseError):
        load_json(FIXTURES / "no_such_file.json")


def test_missing_keys():
    with pytest.raises(ParseError):
        lattice_from_json({"elements": ["a"]})
    with pytest.raises(ParseError):
        monoid_from_json({"tensor": []})
