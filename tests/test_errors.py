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

# unreadable input exits 2 under a fixed code; every other error exits 1
# under its class name
INPUT_CODES = {errors.ParseError: "parse-error", errors.UnknownProperty: "unknown-property"}


def _parameters(cls):
    if cls.__init__ is Exception.__init__:  # a bare base class takes the message
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
