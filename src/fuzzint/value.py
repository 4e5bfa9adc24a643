"""The base of the package's read-only value classes."""

from __future__ import annotations


class Value:
    """A read-only record, compared and hashed field by field.

    A subclass names its fields in ``_fields``, in constructor order, and
    its ``__init__`` stores them with ``self.__dict__.update``; assigning
    or deleting an attribute afterwards raises AttributeError.  Instances
    keep a ``__dict__``, so ``functools.cached_property`` works on them.
    Two instances are equal when they are of the same class and their
    fields are equal.  A subclass that compares fewer fields, or caches
    its hash, overrides ``__eq__`` and ``__hash__`` instead of listing
    ``_fields``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
