"""The search-case format: ``io.case_to_json`` against goldens of the
first case of each property, and the JSON round trip of the cases of every
property through ``io.case_from_json`` back into the same checker.

The composition and open-preimage searches decide their cases leg by leg
and yield only a counterexample, so their cases are drawn from the
per-case oracle generators of ``conftest``."""

import json
from itertools import islice
from pathlib import Path

import pytest
from conftest import NAIVE_LEG_GENERATORS

from fuzzint import io as fio
from fuzzint.search import CLAIMS, SearchBounds, SearchContext, checker_for

GOLDEN = Path(__file__).parent / "data" / "golden"
BOUNDS = SearchBounds(max_carrier=1, algebras=("c2", "godel3", "lukasiewicz3"))


def _generator(prop: str):
    """The property's per-case generator: its own, or the oracle's."""
    return NAIVE_LEG_GENERATORS.get(prop, CLAIMS[prop][0])


def _json_text(doc) -> str:
    """A case as ``search --out`` writes it into a bundle."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("prop", sorted(CLAIMS))
def test_first_case_matches_its_golden(prop):
    case = next(iter(_generator(prop)(SearchContext(BOUNDS))))
    assert _json_text(fio.case_to_json(case)) == (GOLDEN / f"case_{prop}.json").read_text()


@pytest.mark.parametrize("prop", sorted(CLAIMS))
def test_cases_round_trip_through_json(prop):
    ctx = SearchContext(BOUNDS)
    check, check_loaded = checker_for(prop, ctx), checker_for(prop, SearchContext(BOUNDS))
    cases = list(islice(_generator(prop)(ctx), 200))
    assert cases
    for case in cases:
        loaded = fio.case_from_json(json.loads(json.dumps(fio.case_to_json(case))))
        assert loaded == case
        assert check_loaded(loaded) == check(case)
