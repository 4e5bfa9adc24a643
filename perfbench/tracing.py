"""Per-layer tracing of fuzzint from outside the package.

``Tracer.install`` replaces public functions of the package's modules with
wrappers, in every ``fuzzint`` module namespace that holds the function by
name (``search`` imports ``check_interior_axioms`` and ``is_continuous``
directly, for example).  A spanned wrapper records (name, start, end,
parent) in memory; a counted wrapper only bumps a counter, for functions
called millions of times.  Generator functions get one span per item they
produce, since their work interleaves with their caller's.

Nothing under ``src/fuzzint`` is changed on disk; the wrappers live in the
traced interpreter only.  A function the package no longer has is skipped,
and its metrics read zero.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter

# (module, attribute) -> span name; a dotted attribute is a method.
SPANS = {
    ("cli", "main"): "cli.main",
    ("search", "search"): "search.search",
    ("search", "replay"): "search.replay",
    ("search", "count_interior_maps"): "search.count_interior_maps",
    ("interior", "check_interior_axioms"): "interior.axioms",
    ("interior", "InteriorMap.from_table"): "interior.from_table",
    ("interior", "is_idempotent"): "interior.predicates",
    ("interior", "is_fully_productive"): "interior.predicates",
    ("interior", "open_sets"): "interior.predicates",
    ("continuity", "is_continuous"): "continuity.is_continuous",
    ("continuity", "is_open_morphism"): "continuity.is_open",
    ("continuity", "initial_interior"): "continuity.initial_interior",
    ("lattice", "validate_lattice"): "lattice.validate",
    ("monoid", "validate_cqml"): "monoid.validate",
    ("monoid", "validate_gl"): "monoid.validate",
    ("io", "load_json"): "io.from_json",
}
GENERATOR_SPANS = {
    ("search", "enumerate_interior_maps"): "search.enumerate",
    ("powerset", "all_morphisms"): "powerset.all_morphisms",
}
COUNTS = {
    ("powerset", "Ground.leq_values"): "powerset.leq_values_calls",
    ("powerset", "Ground.join_values"): "powerset.join_values_calls",
    ("powerset", "Ground.meet_values"): "powerset.meet_values_calls",
    ("powerset", "vb_backward"): "powerset.vb_backward_calls",
    ("powerset", "FuzzySet.__post_init__"): "powerset.fuzzyset_allocs",
    ("continuity", "compose"): "continuity.compose_calls",
}
# spans whose calls are counted as well as timed
CALL_COUNTS = {
    "interior.axioms": "interior.axioms_calls",
    "interior.from_table": "interior.from_table_calls",
    "continuity.is_continuous": "continuity.is_continuous_calls",
    "continuity.initial_interior": "continuity.initial_interior_calls",
}
# span name -> per-layer metric of its total time (outermost spans only)
SPAN_SECONDS = {
    "search.check": "search.check_s",
    "search.enumerate": "search.enumerate_s",
    "search.describe": "search.describe_s",
    "interior.axioms": "interior.axioms_s",
    "interior.from_table": "interior.from_table_s",
    "interior.predicates": "interior.predicates_s",
    "powerset.all_morphisms": "powerset.all_morphisms_s",
    "continuity.is_continuous": "continuity.is_continuous_s",
    "continuity.is_open": "continuity.is_open_s",
    "continuity.initial_interior": "continuity.initial_interior_s",
    "lattice.validate": "lattice.validate_s",
    "monoid.validate": "monoid.validate_s",
    "io.to_json": "io.to_json_s",
    "io.from_json": "io.from_json_s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, fn, name: str, on_result=None):
        name_id = self._id(name)
        stack, names, parents, starts, ends = self._stack, self.name, self.parent, self.start, self.end
        calls = CALL_COUNTS.get(name)
        counts = self.counts
        if calls:
            counts[calls] = 0

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            if calls:
                counts[calls] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def spanned_generator(self, fn, name: str, items: str | None = None):
        step = self.spanned(next, name)
        counts = self.counts
        if items:
            counts[items] = 0

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                if items:
                    counts[items] += 1
                yield item

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions; call after ``import fuzzint``."""
        import fuzzint.cli  # noqa: F401  (loads every module the CLI reaches)

        for key in ("interior.axiom_evals", "continuity.continuous_verdicts", "powerset.phi_ops"):
            self.counts[key] = 0
        hooks = {
            "interior.axioms": lambda v: self.add("interior.axiom_evals", v.checked),
            "continuity.is_continuous": lambda v: self.add("continuity.continuous_verdicts", int(v.ok)),
        }
        for key, name in SPANS.items():
            _replace(key, lambda fn, name=name: self.spanned(fn, name, hooks.get(name)))
        for key, name in GENERATOR_SPANS.items():
            items = "search.maps" if name == "search.enumerate" else None
            _replace(key, lambda fn, name=name, items=items: self.spanned_generator(fn, name, items))
        for key, name in COUNTS.items():
            _replace(key, lambda fn, name=name: self.counted(fn, name))
        _replace(("powerset", "all_phi_ops"), lambda fn: self._phi_ops(fn))
        io = sys.modules["fuzzint.io"]
        for attr in sorted(vars(io)):
            if attr.endswith("_to_json") or attr.endswith("_from_json"):
                name = "io.to_json" if attr.endswith("_to_json") else "io.from_json"
                _replace(("io", attr), lambda fn, name=name: self.spanned(fn, name))
        # each checker search asks for gets its own wrapper; all share one span name
        _replace(("search", "checker_for"), lambda fn: lambda *a, **k: self.spanned(fn(*a, **k), "search.check"))
        properties = getattr(sys.modules["fuzzint.search"], "PROPERTIES", {})
        for prop, (generate, check, describe) in list(properties.items()):
            properties[prop] = (generate, check, self.spanned(describe, "search.describe"))

    def _phi_ops(self, fn):
        def wrapper(*args, **kwargs):
            found = fn(*args, **kwargs)
            self.add("powerset.phi_ops", len(found))
            return found

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self, window: tuple[float, float]) -> dict:
        """Per-layer metrics of the recorded spans and counts.

        ``window`` is the (start, end) of the operations; the share of it
        covered by top-level spans is returned as ``coverage``.
        """
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        check_id = self._ids.get("search.check", -2)
        describe_id = self._ids.get("search.describe", -2)
        children = [0.0] * n
        check_children = [0.0] * n
        by_name: dict[int, list[int]] = {}
        covered = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += duration[i]
                if self.name[i] in (check_id, describe_id):
                    check_children[p] += duration[i]
            elif self.start[i] >= window[0]:
                covered += duration[i]
            by_name.setdefault(self.name[i], []).append(i)

        def spans_of(name):
            return by_name.get(self._ids.get(name, -2), [])

        out = {metric: _outermost_seconds(spans_of(span), self.start, self.end) for span, metric in SPAN_SECONDS.items()}
        out.update(self.counts)
        out["search.generate_s"] = sum((duration[i] - check_children[i] for i in spans_of("search.search")), 0.0)
        out["cli.self_s"] = sum((duration[i] - children[i] for i in spans_of("cli.main")), 0.0)
        case_us = [duration[i] * 1e6 for i in spans_of("search.check")]
        out["search.cases_timed"] = len(case_us)
        out["search.case_p50_us"] = statistics.median(case_us) if case_us else 0.0
        out["search.case_p99_us"] = _p99(case_us)
        calls = out.get("continuity.is_continuous_calls", 0)
        out["continuity.continuous_share"] = out.pop("continuity.continuous_verdicts") / calls if calls else 0.0
        out["coverage"] = covered / (window[1] - window[0])
        out["spans"] = n
        return out

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start and end in
        microseconds from the first span, and the parent's line number (-1
        for a top-level span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_us\tend_us\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.1f}"
                    f"\t{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\n"
                )


def _replace(key: tuple[str, str], make) -> None:
    """Replace ``module.attr`` (or ``module.Class.method``) by ``make(fn)``,
    also in every other fuzzint module that imported it by name."""
    module_name, attr = key
    module = sys.modules.get(f"fuzzint.{module_name}")
    if module is None:
        return
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        original = vars(cls).get(method) if cls is not None else None
        if isinstance(original, classmethod):
            setattr(cls, method, classmethod(make(original.__func__)))
        elif original is not None:
            setattr(cls, method, make(original))
        return
    original = getattr(module, attr, None)
    if original is None:
        return
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "fuzzint" or name.startswith("fuzzint."):
            for k, v in list(vars(mod).items()):
                if v is original:
                    setattr(mod, k, wrapped)


def _outermost_seconds(indices: list[int], start, end) -> float:
    """Total time of the spans not nested in an earlier span of the list."""
    total = 0.0
    outer_end = float("-inf")
    for i in indices:
        if start[i] >= outer_end:
            total += end[i] - start[i]
            outer_end = end[i]
    return total


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[98]
