"""The benchmark's workloads: the grounds each builds during set-up and the
public calls it then makes, in order.

The bounds are scaled down from the package defaults so that one pass takes
about five seconds: a run repeats passes and reports medians, and the whole
benchmark (every workload, 22 runs each) has to fit in under an hour on a
shared 2-core machine.  There are two workloads, not four, so that each run
can last long enough to average out the host's speed drift; each still
keeps one family of layers busy while the other idles.  BENCHMARK.json
gives the one-line reasons and perfbench/layers.json the layer metrics
each should move.

An operation is either a ``fuzzint`` command line (``cli``) or a call of
``count_interior_maps`` on the last ground of the set-up (``count``).  The
string ``{bundle}`` in a command line stands for a witness-bundle file the
pass owns.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str
    kind: str  # "cli" or "count"
    argv: tuple[str, ...] = ()
    max_tables: int = 0


@dataclass(frozen=True)
class Workload:
    # keyword arguments of SearchBounds, one per grounds_within call in set-up
    grounds: tuple[dict, ...]
    ops: tuple[Op, ...]


def _search(prop: str, *flags: str, out: bool = False) -> Op:
    argv = ("search", "--property", prop, *flags, "--json")
    if out:
        argv += ("--out", "{bundle}")
    return Op(name=prop, kind="cli", argv=argv)


_LUK = ("--algebras", "c2+lukasiewicz3")

WORKLOADS = {
    # the interior-operator layer: the axiom check's O(N^2) pair loop over
    # leq_values, then the streaming enumerator and from_table alone (130,321
    # maps against an a-priori estimate of 2.7e8); continuity is never called
    "operators": Workload(
        grounds=({"algebras": ("c2",), "max_carrier": 4},),
        ops=(
            _search("operator-lattice-closure", "--algebras", "c2", "--max-x", "3"),
            Op(name="count_interior_maps", kind="count", max_tables=10**9),
        ),
    ),
    # the morphism layers: initial lifts of structured sources, a witness
    # bundle written and replayed (the only io path), then continuity and
    # openness of composites on a non-idempotent tensor; the axiom check is
    # nearly idle and nothing is enumerated beyond small samples
    "morphisms": Workload(
        grounds=({"algebras": ("c2", "lukasiewicz3")}, {}),
        ops=(
            _search("initiality", "--algebras", "lukasiewicz3"),
            _search("literal-meet-source-lift", out=True),
            Op(name="replay", kind="cli", argv=("replay", "{bundle}", "--json")),
        )
        + tuple(
            _search(prop, *_LUK)
            for prop in (
                "composition-continuous",
                "composition-open",
                "open-preimage",
                "preservation-idempotent",
                "preservation-fully-productive",
                "meet-interchange",
            )
        ),
    ),
}
