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
* search case: {"ground": <ground>, "members": [<interior>...], ...} (``case_from_json``)

String values where a structure is expected are treated as paths relative
to the referencing file.
"""

from __future__ import annotations

import json
from functools import wraps
from pathlib import Path

from .continuity import StructuredSource
from .errors import ParseError, WriteError
from .interior import InteriorMap, LTopology, discrete, interior_from_topology, least, ltopology
from .lattice import FiniteLattice, validate_lattice
from .monoid import CQML, builtin_chain, validate_cqml, validate_gl
from .powerset import FuzzySet, Ground, GroundMorphism, positions_in, validate_ground_morphism


def load_json(path) -> dict:
    """A UTF-8 JSON file; one that cannot be read or decoded is a ParseError."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}")


def save_json(path, doc, *, parents: bool = False) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final
    newline, creating the missing parent directories with ``parents``;
    a path that cannot be written is a WriteError."""
    path = Path(path)
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise WriteError(f"{exc.filename or path}: {exc.strerror or exc}")


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
        doc, base = load_json(path), path.parent
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object or a file name, got {doc!r}")
    return doc, base


def _loader(label: str):
    """A schema reader, ``read(doc, base)``, as a loader: its document is
    resolved first (``_resolve``), and a key it misses is a ParseError
    naming ``label``."""
    def wrap(read):
        @wraps(read)
        def load(doc, base: Path | None = None):
            doc, base = _resolve(doc, base)
            try:
                return read(doc, base)
            except KeyError as exc:
                raise ParseError(f"{label} missing key {exc}")
        return load
    return wrap


# -- individual schemas ------------------------------------------------------

@_loader("lattice file")
def lattice_from_json(doc, base) -> FiniteLattice:
    return validate_lattice(
        _field(doc, "elements", "a list of element names", _is_name_list),
        _field(doc, "leq", "a list of [a, b] pairs of element names", _rows_of(2)),
        closure=_field(doc, "closure", "true or false", _is_bool, False),
    )


def lattice_to_json(lat: FiniteLattice) -> dict:
    pairs = [
        [lat.name(i), lat.name(j)]
        for i in range(len(lat))
        for j in range(len(lat))
        if lat.leq[i][j]
    ]
    return {"elements": list(lat.elements), "leq": pairs}


@_loader("monoid file")
def monoid_from_json(doc, base) -> CQML:
    if "builtin" in doc:
        try:
            return builtin_chain(doc["builtin"], _field(doc, "n", "an integer", lambda n: type(n) is int, 3))
        except ValueError as exc:
            raise ParseError(str(exc))
    lat = lattice_from_json(doc["lattice"], base)
    cq = validate_cqml(lat, _field(doc, "tensor", "a list of [a, b, a(x)b] triples of element names", _rows_of(3)))
    if _field(doc, "gl", "true or false", _is_bool, True):
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


def _is_name_list(row) -> bool:
    return isinstance(row, list) and all(isinstance(v, str) for v in row)


def _is_name_map(items) -> bool:
    return isinstance(items, dict) and _is_name_list(list(items.values()))


def _is_bool(value) -> bool:
    return isinstance(value, bool)


def _rows_of(width: int):
    """A check for a list of rows of ``width`` names each."""
    return lambda rows: isinstance(rows, list) and all(_is_name_list(row) and len(row) == width for row in rows)


def _field(doc, key: str, shape: str, ok, *default):
    """``doc[key]``, or ``default`` when given and the key is absent; a
    ParseError naming ``shape`` unless ``ok`` accepts it, so a string is
    never read character by character nor a number iterated."""
    value = doc.get(key, *default) if default else doc[key]
    if not ok(value):
        raise ParseError(f"{key} must be {shape}, got {value!r}")
    return value


def _point_names(doc, key: str) -> tuple:
    """The point names under ``key``: a list of names."""
    return tuple(_field(doc, key, "a list of point names", _is_name_list))


@_loader("ground")
def ground_from_json(doc, base) -> Ground:
    return Ground(points=_point_names(doc, "points"), algebra=monoid_from_json(doc["algebra"], base))


def ground_to_json(g: Ground) -> dict:
    return {"points": list(g.points), "algebra": monoid_to_json(g.algebra)}


@_loader("fuzzy set file")
def fuzzyset_from_json(doc, base) -> FuzzySet:
    ground = Ground(points=_point_names(doc, "carrier"), algebra=monoid_from_json(doc["algebra"], base))
    values = _field(
        doc, "values", "a {point: element} object or a list of element names",
        lambda values: _is_name_map(values) or _is_name_list(values),
    )
    return ground.fuzzy(values)


def fuzzyset_to_json(a: FuzzySet) -> dict:
    return {
        "carrier": list(a.ground.points),
        "values": a.as_dict(),
        "algebra": monoid_to_json(a.ground.algebra),
    }


@_loader("morphism file")
def morphism_from_json(doc, base) -> GroundMorphism:
    dom = ground_from_json(doc["dom"], base)
    cod = ground_from_json(doc["cod"], base)
    f = _field(doc, "f", "a {point: point} object", _is_name_map)
    phi_op = _field(
        doc, "phi_op", "an {element: element} object or a list of element names",
        lambda phi_op: _is_name_list(phi_op) or _is_name_map(phi_op),
    )
    return validate_ground_morphism(dom, cod, f, phi_op)


def morphism_to_json(g: GroundMorphism) -> dict:
    body = g.describe()
    return {
        "dom": ground_to_json(g.dom),
        "cod": ground_to_json(g.cod),
        "f": body["f"],
        "phi_op": body["phi_op"],
    }


@_loader("interior file")
def interior_from_json(doc, base) -> InteriorMap:
    return _table_interior(ground_from_json(doc["ground"], base), doc["table"])


def _table_interior(ground: Ground, rows) -> InteriorMap:
    """Rows are [u, i(u)] pairs, each side a list of element names."""
    if not isinstance(rows, list):
        raise ParseError(f"interior table must be a list of rows, got {rows!r}")
    lat = ground.lattice
    table = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 2 and all(map(_is_name_list, row))):
            raise ParseError(f"table row {row!r} is not a [u, i(u)] pair of element lists")
        u, iu = row
        table.append((tuple(lat.index(v) for v in u), tuple(lat.index(v) for v in iu)))
    return InteriorMap.from_table(ground, table)


def interior_to_json(i: InteriorMap) -> dict:
    lat = i.ground.lattice
    values = i.ground.index.values
    rows = [
        [[lat.name(v) for v in u], [lat.name(v) for v in values[image]]]
        for u, image in zip(values, i.images)
    ]
    return {"ground": ground_to_json(i.ground), "table": rows}


def _topology(ground: Ground, opens) -> LTopology:
    """The topology of an ``opens`` list of element-name lists."""
    if not isinstance(opens, list):
        raise ParseError(f"opens must be a list of element lists, got {opens!r}")
    for row in opens:
        if not _is_name_list(row):
            raise ParseError(f"open {row!r} is not a list of element names")
    lat = ground.lattice
    return ltopology(ground, [tuple(lat.index(v) for v in row) for row in opens])


@_loader("topology file")
def topology_from_json(doc, base) -> LTopology:
    return _topology(ground_from_json(doc["ground"], base), doc["opens"])


def topology_to_json(t: LTopology) -> dict:
    """Rows sorted by value tuple."""
    lat = t.ground.lattice
    values = t.ground.index.values
    rows = sorted(values[a] for a in positions_in(t.opens))
    return {
        "ground": ground_to_json(t.ground),
        "opens": [[lat.name(v) for v in row] for row in rows],
    }


@_loader("space file")
def space_from_json(doc, base) -> InteriorMap:
    """A space is its interior map, which carries the ground."""
    ground = ground_from_json(doc["ground"], base)
    body = doc["interior"]
    if body == "discrete":
        return discrete(ground)
    if body == "least":
        return least(ground)
    if isinstance(body, dict) and "opens" in body:
        return interior_from_topology(_topology(ground, body["opens"]))
    if isinstance(body, dict) and "table" in body:
        return _table_interior(ground, body["table"])
    raise ParseError(f"unrecognized interior value {body!r}")


def space_to_json(s: InteriorMap) -> dict:
    body = interior_to_json(s)
    return {"ground": body["ground"], "interior": {"table": body["table"]}}


@_loader("source file")
def source_from_json(doc, base) -> StructuredSource:
    domain = ground_from_json(doc["domain"], base)
    listed = _field(
        doc, "arms", "a list of {morphism, space} objects",
        lambda arms: isinstance(arms, list) and all(isinstance(arm, dict) for arm in arms),
    )
    arms = tuple((morphism_from_json(arm["morphism"], base), space_from_json(arm["space"], base)) for arm in listed)
    return StructuredSource(domain=domain, arms=arms)


def source_to_json(s: StructuredSource) -> dict:
    return {
        "domain": ground_to_json(s.domain),
        "arms": [
            {"morphism": morphism_to_json(g), "space": space_to_json(target)}
            for g, target in s.arms
        ],
    }


# -- search cases ----------------------------------------------------------------

def case_to_json(case: dict) -> dict:
    """A search case as JSON: each ``Ground``, ``GroundMorphism``,
    ``InteriorMap`` and ``FuzzySet`` in the schema its loader reads, lists
    and arms item by item, anything else (``kind``, ``open``) as it is."""
    return {key: _case_value_to_json(value) for key, value in case.items()}


def _case_value_to_json(value):
    if isinstance(value, Ground):
        return ground_to_json(value)
    if isinstance(value, GroundMorphism):
        return morphism_to_json(value)
    if isinstance(value, InteriorMap):
        return interior_to_json(value)
    if isinstance(value, FuzzySet):
        return fuzzyset_to_json(value)
    if isinstance(value, dict):
        return case_to_json(value)
    if isinstance(value, (list, tuple)):
        return [_case_value_to_json(item) for item in value]
    return value


def case_from_json(doc, base: Path | None = None) -> dict:
    """A search case, or an arm of one, from its JSON: each value by the
    loader ``CASE_LOADERS`` gives its key (item by item under ``members``,
    ``interiors`` and ``arms``), any other (``kind``, ``open``) as it is.
    A file name in the case is read relative to ``base``."""
    if not isinstance(doc, dict):
        raise ParseError(f"a case or an arm must be an object, got {doc!r}")
    case = {}
    for key, value in doc.items():
        load = CASE_LOADERS.get(key)
        if key in ("members", "interiors", "arms"):
            if not isinstance(value, list):
                raise ParseError(f"{key} must be a list, got {value!r}")
            value = [load(item, base) for item in value]
        elif load is not None:
            value = load(value, base)
        case[key] = value
    if "interiors" in case and len(case["interiors"]) != 3:
        raise ParseError(f"interiors must list the three maps [src, mid, dst], got {len(case['interiors'])}")
    if not isinstance(case.get("open", False), bool):
        raise ParseError(f"open must be true or false, got {case['open']!r}")
    return case


CASE_LOADERS = {
    **dict.fromkeys(("ground", "domain"), ground_from_json),
    **dict.fromkeys(("first", "second", "morphism"), morphism_from_json),
    **dict.fromkeys(("src", "dst", "interior", "members", "interiors"), interior_from_json),
    "v": fuzzyset_from_json,
    "arms": case_from_json,
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
