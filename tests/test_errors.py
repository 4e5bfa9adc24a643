import contextlib
import inspect
import io
import json

import pytest

from fuzzint import cli, errors

# a sample value per constructor parameter name, shaped like the real witnesses
SAMPLES = {
    "law": "transitivity",
    "witness": ("a", "b", "c"),
    "kind": "least upper bound",
    "pair": ("a", "b"),
    "name": "x",
    "size": 5,
    "limit": 4,
    "got": "b",
    "subset": ("a", "b"),
    "expected": "a",
    "detail": "x",
    "prop": "idempotency",
    "known": ("p", "q"),
}

CLASSES = [
    cls
    for _, cls in sorted(vars(errors).items())
    if isinstance(cls, type) and issubclass(cls, errors.FuzzintError)
]

# unreadable input and an unwritable output path exit 2 under a fixed code;
# every other error exits 1 under its class name
INPUT_CODES = {errors.ParseError: "parse-error", errors.UnknownProperty: "unknown-property", errors.WriteError: "write-error"}


def _parameters(cls):
    if cls.__init__ is errors.FuzzintError.__init__:  # a bare base class takes the message
        return None
    return list(inspect.signature(cls.__init__).parameters)[1:]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_carries_its_witness_to_the_cli(cls, monkeypatch):
    names = _parameters(cls)
    if names is None:
        error, witness = cls("a message"), {}
    else:
        witness = {name: SAMPLES[name] for name in names}
        error = cls(**witness)
    # the witness parts are structured attributes named as the constructor's
    # parameters, and they serialise as JSON
    assert error.payload() == witness
    assert json.loads(json.dumps(error.payload())) == json.loads(json.dumps(witness))

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "search", fail)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["search", "--property", "meet-interchange", "--json"])
    assert code == (2 if cls in INPUT_CODES else 1)
    assert json.loads(buf.getvalue()) == {
        "status": "error",
        "error": INPUT_CODES.get(cls, cls.__name__),
        "detail": str(error),
    }


# each error's text for the SAMPLES above, written down once so a rewrite of
# the constructors cannot change what the CLI prints
TEXTS = {
    "BoundsExceeded": "bounds exceeded: x",
    "CarrierMismatch": "carrier mismatch: x",
    "CarrierTooLarge": "carrier size 5 exceeds the configured limit 4",
    "DistributivityViolation": (
        "distributive law fails at triple ('a', 'b', 'c'): (a v b) ^ c != (a ^ c) v (b ^ c)"
    ),
    "EmptyCarrier": "carrier must be nonempty",
    "FuzzintError": "a message",
    "GroundMismatch": "ground mismatch: x",
    "GroundTooLarge": "fuzzy powerset has 5 elements, above the materialization limit 4",
    "InteriorError": "a message",
    "InvalidTopology": "not a topology: x",
    "JoinNotPreserved": "phi_op does not preserve the join of ('a', 'b'): expected 'a', got 'b'",
    "LatticeError": "a message",
    "MalformedBundle": "malformed witness bundle: x",
    "MissingBound": "pair ('a', 'b') has no least upper bound",
    "MonoidError": "a message",
    "MorphismError": "a message",
    "NoZero": "bottom is not a zero: a (x) bottom = b",
    "NotAPartialOrder": "relation is not a partial order: transitivity fails at ('a', 'b', 'c')",
    "NotAnInteriorMap": "not an interior map: ('a', 'b', 'c')",
    "NotAssociative": "tensor is not associative at ('a', 'b', 'c')",
    "NotCommutative": "tensor is not commutative at ('a', 'b', 'c')",
    "NotContinuous": "morphism is not continuous: witness ('a', 'b', 'c')",
    "NotDivisible": "no gamma with a = b (x) gamma although a <= b",
    "NotGLGround": "ground algebra is not a GL-monoid: x",
    "NotIntegral": "top is not a unit: a (x) top = b",
    "NotIsotone": "tensor is not isotone: witness ('a', 'b', 'c')",
    "NotJoinDistributive": "tensor does not distribute over the join of b with a",
    "NotOpen": "morphism is not open: witness ('a', 'b', 'c')",
    "ParseError": "cannot parse input: x",
    "PropertyPreconditionFailed": "target interior lacks idempotency: witness ('a', 'b', 'c')",
    "SearchError": "a message",
    "TensorNotPreserved": "phi_op does not preserve the tensor of ('a', 'b'): expected 'a', got 'b'",
    "TopEqualsBottom": "lattice must have at least two elements (top == bottom)",
    "TopMissingFromTopology": "the constant-top fuzzy set must be open",
    "TopNotIdempotent": "top (x) top must be top, got 'b'",
    "TopNotPreserved": "phi_op maps top to 'b', not top",
    "UnknownElement": "unknown element 'x'",
    "UnknownProperty": "unknown property 'x'; known: p, q",
    "WriteError": "cannot write output: x",
}


def test_every_error_class_has_a_pinned_text():
    assert sorted(cls.__name__ for cls in CLASSES) == sorted(TEXTS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_text_is_pinned(cls):
    names = _parameters(cls)
    error = cls("a message") if names is None else cls(**{name: SAMPLES[name] for name in names})
    assert str(error) == TEXTS[cls.__name__]
