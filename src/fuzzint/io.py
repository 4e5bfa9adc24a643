"""JSON loaders and serializers for every file format the CLI accepts.

Schemas are detected by their distinguishing keys:

* lattice:    {"elements": [...], "leq": [[a, b], ...], "closure": bool?}
* monoid:     {"lattice": <inline|path>, "tensor": [[a, b, a(x)b], ...]}
              or {"builtin": "godel"|"lukasiewicz", "n": 5}; validated as a
              GL-monoid unless "gl" is false
* ground:     {"points": [...], "algebra": <monoid JSON|path>}
* fuzzy set:  {"carrier": [...], "values": {"x": "l"}, "algebra": ...}
* morphism:   {"dom": <ground>, "cod": <ground>, "f": {...}, "phi_op": {...}}
* interior:   {"ground": <ground>, "table": [[[u...], [iu...]], ...]}
* topology:   {"ground": <ground>, "opens": [[...], ...]}
* space:      {"ground": <ground>, "interior": "discrete"|"least"|
               {"table": ...}|{"opens": ...}}
* source:     {"domain": <ground>, "arms": [{"morphism": ..., "space": ...}]}

String values where a structure is expected are treated as paths relative
to the referencing file.
"""

from __future__ import annotations

import json
from pathlib import Path

from .continuity import StructuredSource
from .errors import ParseError
from .interior import InteriorMap, LTopology, discrete, interior_from_topology, least, ltopology
from .lattice import FiniteLattice, validate_lattice
from .monoid import CQML, builtin_chain, validate_cqml, validate_gl
from .powerset import FuzzySet, Ground, GroundMorphism, validate_ground_morphism


def load_json(path) -> dict:
    path = Path(path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}")


def detect_schema(doc) -> str:
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    for key, schema in (
        ("arms", "source"),
        ("f", "morphism"),
        ("opens", "topology"),
        ("interior", "space"),
        ("table", "interior"),
        ("carrier", "fuzzyset"),
        ("builtin", "monoid"),
        ("tensor", "monoid"),
        ("points", "ground"),
        ("elements", "lattice"),
    ):
        if key in doc:
            return schema
    raise ParseError(f"unrecognized schema; keys: {sorted(doc)}")


def _resolve(doc, base: Path | None):
    """Inline documents pass through; strings load as relative paths."""
    if isinstance(doc, str):
        path = Path(doc)
        if base is not None and not path.is_absolute():
            path = base / path
        return load_json(path), path.parent
    return doc, base


# -- individual schemas ------------------------------------------------------

def lattice_from_json(doc, base: Path | None = None) -> FiniteLattice:
    doc, base = _resolve(doc, base)
    try:
        return validate_lattice(
            doc["elements"], doc["leq"], closure=bool(doc.get("closure", False))
        )
    except KeyError as exc:
        raise ParseError(f"lattice file missing key {exc}")


def lattice_to_json(lat: FiniteLattice) -> dict:
    pairs = [
        [lat.name(i), lat.name(j)]
        for i in range(len(lat))
        for j in range(len(lat))
        if lat.leq[i][j]
    ]
    return {"elements": list(lat.elements), "leq": pairs}


def monoid_from_json(doc, base: Path | None = None) -> CQML:
    doc, base = _resolve(doc, base)
    if "builtin" in doc:
        try:
            return builtin_chain(doc["builtin"], int(doc.get("n", 3)))
        except ValueError as exc:
            raise ParseError(str(exc))
    try:
        lat = lattice_from_json(doc["lattice"], base)
        cq = validate_cqml(lat, doc["tensor"])
    except KeyError as exc:
        raise ParseError(f"monoid file missing key {exc}")
    if doc.get("gl", True):
        return validate_gl(cq)
    return cq


def monoid_to_json(m: CQML) -> dict:
    from .monoid import GLMonoid

    lat = m.lattice
    triples = [
        [lat.name(a), lat.name(b), lat.name(m.tensor[a][b])]
        for a in range(len(lat))
        for b in range(len(lat))
    ]
    doc = {"lattice": lattice_to_json(lat), "tensor": triples}
    if not isinstance(m, GLMonoid):
        doc["gl"] = False
    return doc


def ground_from_json(doc, base: Path | None = None) -> Ground:
    doc, base = _resolve(doc, base)
    try:
        return Ground(points=tuple(doc["points"]), algebra=monoid_from_json(doc["algebra"], base))
    except KeyError as exc:
        raise ParseError(f"ground missing key {exc}")


def ground_to_json(g: Ground) -> dict:
    return {"points": list(g.points), "algebra": monoid_to_json(g.algebra)}


def fuzzyset_from_json(doc, base: Path | None = None) -> FuzzySet:
    doc, base = _resolve(doc, base)
    try:
        ground = Ground(
            points=tuple(doc["carrier"]), algebra=monoid_from_json(doc["algebra"], base)
        )
        return ground.fuzzy(doc["values"])
    except KeyError as exc:
        raise ParseError(f"fuzzy set file missing key {exc}")


def fuzzyset_to_json(a: FuzzySet) -> dict:
    return {
        "carrier": list(a.ground.points),
        "values": a.as_dict(),
        "algebra": monoid_to_json(a.ground.algebra),
    }


def morphism_from_json(doc, base: Path | None = None) -> GroundMorphism:
    doc, base = _resolve(doc, base)
    try:
        dom = ground_from_json(doc["dom"], base)
        cod = ground_from_json(doc["cod"], base)
        return validate_ground_morphism(dom, cod, doc["f"], doc["phi_op"])
    except KeyError as exc:
        raise ParseError(f"morphism file missing key {exc}")


def morphism_to_json(g: GroundMorphism) -> dict:
    body = g.describe()
    return {
        "dom": ground_to_json(g.dom),
        "cod": ground_to_json(g.cod),
        "f": body["f"],
        "phi_op": body["phi_op"],
    }


def interior_from_json(doc, base: Path | None = None) -> InteriorMap:
    doc, base = _resolve(doc, base)
    try:
        ground = ground_from_json(doc["ground"], base)
        rows = doc["table"]
    except KeyError as exc:
        raise ParseError(f"interior file missing key {exc}")
    return _table_interior(ground, rows)


def _table_interior(ground: Ground, rows) -> InteriorMap:
    lat = ground.lattice
    return InteriorMap.from_table(
        ground, [(tuple(lat.index(v) for v in u), tuple(lat.index(v) for v in iu)) for u, iu in rows]
    )


def interior_to_json(i: InteriorMap) -> dict:
    lat = i.ground.lattice
    rows = [
        [[lat.name(v) for v in u], [lat.name(v) for v in i.apply_values(u)]]
        for u in i.ground.all_value_tuples()
    ]
    return {"ground": ground_to_json(i.ground), "table": rows}


def topology_from_json(doc, base: Path | None = None) -> LTopology:
    doc, base = _resolve(doc, base)
    try:
        ground = ground_from_json(doc["ground"], base)
        lat = ground.lattice
        opens = [tuple(lat.index(v) for v in row) for row in doc["opens"]]
        return ltopology(ground, opens)
    except KeyError as exc:
        raise ParseError(f"topology file missing key {exc}")


def topology_to_json(t: LTopology) -> dict:
    lat = t.ground.lattice
    return {
        "ground": ground_to_json(t.ground),
        "opens": [[lat.name(v) for v in row] for row in t.opens],
    }


def space_from_json(doc, base: Path | None = None) -> InteriorMap:
    """A space is its interior map, which carries the ground."""
    doc, base = _resolve(doc, base)
    try:
        ground = ground_from_json(doc["ground"], base)
        body = doc["interior"]
    except KeyError as exc:
        raise ParseError(f"space file missing key {exc}")
    if body == "discrete":
        return discrete(ground)
    if body == "least":
        return least(ground)
    if isinstance(body, dict) and "opens" in body:
        lat = ground.lattice
        opens = [tuple(lat.index(v) for v in row) for row in body["opens"]]
        return interior_from_topology(ltopology(ground, opens))
    if isinstance(body, dict) and "table" in body:
        return _table_interior(ground, body["table"])
    raise ParseError(f"unrecognized interior value {body!r}")


def space_to_json(s: InteriorMap) -> dict:
    body = interior_to_json(s)
    return {"ground": body["ground"], "interior": {"table": body["table"]}}


def source_from_json(doc, base: Path | None = None) -> StructuredSource:
    doc, base = _resolve(doc, base)
    try:
        domain = ground_from_json(doc["domain"], base)
        arms = []
        for arm in doc["arms"]:
            g = morphism_from_json(arm["morphism"], base)
            arms.append((g, space_from_json(arm["space"], base)))
    except KeyError as exc:
        raise ParseError(f"source file missing key {exc}")
    return StructuredSource(domain=domain, arms=tuple(arms))


def source_to_json(s: StructuredSource) -> dict:
    return {
        "domain": ground_to_json(s.domain),
        "arms": [
            {"morphism": morphism_to_json(g), "space": space_to_json(target)}
            for g, target in s.arms
        ],
    }


LOADERS = {
    "lattice": lattice_from_json,
    "monoid": monoid_from_json,
    "ground": ground_from_json,
    "fuzzyset": fuzzyset_from_json,
    "morphism": morphism_from_json,
    "interior": interior_from_json,
    "topology": topology_from_json,
    "space": space_from_json,
    "source": source_from_json,
}


def load_any(path):
    """Load a file under whichever schema it declares; returns (kind, obj)."""
    path = Path(path)
    doc = load_json(path)
    kind = detect_schema(doc)
    return kind, LOADERS[kind](doc, path.parent)
