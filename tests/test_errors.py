import inspect
import pickle

import pytest

from fuzzint import errors

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


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    if cls.__init__ is Exception.__init__:  # a bare base class takes the message
        error = cls("a message")
    else:
        error = cls(*(SAMPLES[name] for name in list(inspect.signature(cls.__init__).parameters)[1:]))
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
