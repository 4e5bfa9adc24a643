import inspect
import json
import sys
import time
from itertools import product

import pytest

from fuzzint.errors import BoundsExceeded, MalformedBundle, UnknownProperty
from fuzzint.interior import check_interior_axioms
from fuzzint.search import (
    SearchBounds,
    bounds_from_env,
    builtin_algebra,
    count_interior_maps,
    enumerate_interior_maps,
    grounds_within,
    interior_sample,
    replay,
    search,
)


def naive_interior_maps(ground):
    """Generate-and-filter oracle over the full function space."""
    tuples = list(ground.all_value_tuples())
    top = tuples[-1]
    found = []
    for images in product(tuples, repeat=len(tuples)):
        table = dict(zip(tuples, images))
        if table[top] != top:
            continue
        if any(not ground.leq_values(table[u], u) for u in tuples):
            continue
        if any(
            ground.leq_values(u, v) and not ground.leq_values(table[u], table[v])
            for u in tuples
            for v in tuples
        ):
            continue
        found.append(tuple(table[u] for u in tuples))
    return found


# -- enumeration ---------------------------------------------------------------

def test_counts_match_pinned_values(one_point_c2, one_point_c3, two_point_c2, two_point_c3):
    assert count_interior_maps(one_point_c2) == 1
    assert count_interior_maps(one_point_c3) == 2
    assert count_interior_maps(two_point_c2) == 4
    assert count_interior_maps(two_point_c3) == 400


def test_enumeration_complete_and_duplicate_free(one_point_c2, one_point_c3, two_point_c2):
    for ground in (one_point_c2, one_point_c3, two_point_c2):
        enumerated = [i.images for i in enumerate_interior_maps(ground)]
        position = ground.index.position
        oracle = [tuple(position[v] for v in sig) for sig in naive_interior_maps(ground)]
        assert len(enumerated) == len(set(enumerated))
        assert sorted(enumerated) == sorted(oracle)


def test_every_enumerated_map_is_interior(two_point_c3):
    for imap in enumerate_interior_maps(two_point_c3):
        assert check_interior_axioms(imap).ok


def test_max_tables_caps_the_stream(two_point_c3):
    assert len(list(enumerate_interior_maps(two_point_c3, SearchBounds(max_tables=400)))) == 400
    with pytest.raises(BoundsExceeded):
        list(enumerate_interior_maps(two_point_c3, SearchBounds(max_tables=399)))


def test_sample_is_deterministic_spread(two_point_c3):
    bounds = SearchBounds(operator_sample=4)
    sample1 = [i.images for i in interior_sample(two_point_c3, bounds)]
    sample2 = [i.images for i in interior_sample(two_point_c3, bounds)]
    assert sample1 == sample2
    assert len(sample1) == 4
    full = [i.images for i in enumerate_interior_maps(two_point_c3)]
    assert sample1[0] == full[0]  # the least map
    assert sample1[-1] == full[-1]  # the discrete map


def test_grounds_within_defaults():
    grounds = grounds_within(SearchBounds())
    assert [(len(g.points), len(g.lattice)) for g in grounds] == [
        (1, 2),
        (1, 3),
        (2, 2),
        (2, 3),
    ]


def test_builtin_algebra_names():
    assert len(builtin_algebra("godel4").lattice) == 4
    assert len(builtin_algebra("lukasiewicz5").lattice) == 5
    assert builtin_algebra("diamond-meet").lattice.elements == ("bot", "a", "b", "top")
    with pytest.raises(BoundsExceeded):
        builtin_algebra("nonsense")


def test_bounds_env_parsing():
    b = bounds_from_env("max_carrier=1,algebras=c2+godel3+lukasiewicz3,time_budget=10")
    assert b.max_carrier == 1
    assert b.algebras == ("c2", "godel3", "lukasiewicz3")
    assert b.time_budget == 10.0
    assert bounds_from_env(None) == SearchBounds()
    with pytest.raises(BoundsExceeded):
        bounds_from_env("bogus=3")


# -- search ---------------------------------------------------------------------

def test_unknown_property():
    with pytest.raises(UnknownProperty):
        search("no-such-property")


def test_literal_trivial_search_finds_half_witness():
    result = search("literal-trivial-interior")
    assert result.status == "counterexample"
    witness = result.bundle["witness"]
    assert witness["axiom"] == "I1"
    assert witness["u"] == {"p1": "1/2"}


def test_literal_trivial_clean_only_on_degenerate_ground():
    # one point over the two-chain leaves nothing strictly between the
    # bounds, so the uncorrected map collapses to the identity there
    result = search(
        "literal-trivial-interior", SearchBounds(max_carrier=1, algebras=("c2",))
    )
    assert result.status == "no-counterexample"
    # a second point already creates middle elements in the powerset
    wider = search("literal-trivial-interior", SearchBounds(algebras=("c2",)))
    assert wider.status == "counterexample"
    assert wider.bundle["witness"]["axiom"] == "I1"


def test_meet_interchange_clean_on_chains():
    result = search("meet-interchange")
    assert result.ok


def test_meet_interchange_counterexample_with_join_tensor_diamond():
    bounds = SearchBounds(
        max_carrier=1, max_lattice=4, algebras=("godel3", "diamond-join")
    )
    result = search("meet-interchange", bounds)
    # godel3 -> diamond-join morphisms can only hit join-irreducible chains,
    # which stay meet-safe; the diamond -> godel3 direction breaks
    assert result.status == "counterexample"
    assert result.bundle["witness"]["family"]


def test_literal_meet_source_lift_counterexample():
    result = search("literal-meet-source-lift", SearchBounds(max_carrier=1))
    assert result.status == "counterexample"
    assert result.bundle["witness"]["stage"] == "arm-continuity"


def test_small_initiality_search_clean():
    result = search("initiality", SearchBounds(max_carrier=1))
    assert result.ok
    assert result.instances > 0


def test_preservation_searches_clean_small():
    bounds = SearchBounds(max_carrier=1)
    assert search("preservation-idempotent", bounds).ok
    assert search("preservation-fully-productive", bounds).ok


def test_composition_searches_clean_small():
    bounds = SearchBounds(max_carrier=1)
    assert search("composition-continuous", bounds).ok
    assert search("composition-open", bounds).ok
    assert search("open-preimage", bounds).ok


def test_operator_lattice_search_clean_small():
    bounds = SearchBounds(max_carrier=1)
    result = search("operator-lattice-closure", bounds)
    assert result.ok
    # subsets of the 1-element and 2-element map families
    assert result.instances == (2**1 - 1) + (2**2 - 1)


def test_time_budget_enforced():
    with pytest.raises(BoundsExceeded):
        search("operator-lattice-closure", SearchBounds(time_budget=1e-9))


def test_time_budget_bounds_case_generation():
    # building every continuous leg of this suite takes several seconds;
    # the budget must stop it there, not after the legs are built
    bounds = SearchBounds(
        time_budget=0.5, operator_sample=40, algebras=("c2", "godel3", "lukasiewicz3")
    )
    start = time.monotonic()
    with pytest.raises(BoundsExceeded):
        search("composition-continuous", bounds)
    assert time.monotonic() - start < 2.0


def test_no_module_level_caches_after_search():
    search("initiality", SearchBounds(max_carrier=1))
    search("composition-continuous", SearchBounds(max_carrier=1))
    registries = {("search", "PROPERTIES"), ("cli", "PROPERTIES"), ("io", "LOADERS")}
    held = []
    for name, module in sorted(sys.modules.items()):
        if name != "fuzzint" and not name.startswith("fuzzint."):
            continue
        short = name.rpartition(".")[2]
        for attr, value in vars(module).items():
            if attr.startswith("__") or (short, attr) in registries:
                continue
            if attr == "_POOL_STATE":
                assert value == {}  # filled only inside pool workers
                continue
            if isinstance(value, dict) or hasattr(value, "cache_info"):
                held.append(f"{name}.{attr}")
    assert held == []


def test_worker_determinism():
    sequential = search("literal-meet-source-lift", SearchBounds(max_carrier=1))
    parallel = search(
        "literal-meet-source-lift", SearchBounds(max_carrier=1), workers=2
    )
    assert sequential.status == parallel.status == "counterexample"
    assert sequential.instances == parallel.instances
    assert sequential.bundle == parallel.bundle


def test_clean_worker_determinism():
    sequential = search("meet-interchange", SearchBounds(max_carrier=1))
    parallel = search("meet-interchange", SearchBounds(max_carrier=1), workers=3)
    assert sequential.status == parallel.status == "no-counterexample"
    assert sequential.instances == parallel.instances


# -- bundles and replay ------------------------------------------------------------

def test_bundle_roundtrip_through_json(tmp_path):
    out = tmp_path / "witness.json"
    result = search("literal-trivial-interior", out=out)
    assert out.exists()
    bundle = json.loads(out.read_text())
    assert bundle == result.bundle
    replayed = replay(bundle)
    assert replayed.status == "counterexample"
    assert replayed.bundle["witness"] == result.bundle["witness"]


def test_replay_is_deterministic():
    result = search("literal-meet-source-lift", SearchBounds(max_carrier=1))
    first = replay(result.bundle)
    second = replay(json.loads(json.dumps(result.bundle)))
    assert first.bundle["witness"] == second.bundle["witness"]


def test_replay_of_quasi_monoidal_bundle(tmp_path):
    # the witness instance embeds a tensor-only algebra; replay must not
    # try to revalidate it as a GL-monoid
    bounds = SearchBounds(max_carrier=1, max_lattice=4, algebras=("godel3", "diamond-join"))
    result = search("meet-interchange", bounds)
    assert result.status == "counterexample"
    bundle = json.loads(json.dumps(result.bundle))
    assert replay(bundle).status == "counterexample"


def test_replay_rejects_summary():
    summary = search("meet-interchange", SearchBounds(max_carrier=1)).to_json()
    with pytest.raises(MalformedBundle):
        replay(summary)


def test_replay_rejects_garbage():
    with pytest.raises(MalformedBundle):
        replay({"property": "initiality"})
    with pytest.raises(MalformedBundle):
        replay("not a bundle")


def test_search_submodule_not_shadowed_by_the_function():
    import fuzzint
    import fuzzint.search as module

    assert inspect.ismodule(module)
    assert fuzzint.search is module
    assert inspect.isfunction(module.search)
    assert module.search is search
