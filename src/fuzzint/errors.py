"""Exception hierarchy.

Every validation error carries the first witness found, as structured
attributes, so callers (and the CLI) can report exactly which axiom broke
and where.
"""

from __future__ import annotations


class FuzzintError(Exception):
    """Base class for all package errors."""

    def payload(self) -> dict:
        """Witness data as JSON-ready primitives."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def __reduce__(self):
        # The subclasses' __init__ take witness parts, not the formatted
        # message in self.args, so a copy (as a pool worker's error reaches
        # its parent) is rebuilt from the message and attributes directly.
        return (_rebuild, (type(self), self.args, vars(self)))


def _rebuild(cls, args, attributes):
    error = cls.__new__(cls, *args)
    error.__dict__.update(attributes)
    return error


# ---------------------------------------------------------------- lattices

class LatticeError(FuzzintError):
    pass


class NotAPartialOrder(LatticeError):
    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"relation is not a partial order: {law} fails at {witness}")


class MissingBound(LatticeError):
    def __init__(self, kind: str, pair: tuple):
        self.kind = kind
        self.pair = pair
        super().__init__(f"pair {pair} has no {kind}")


class TopEqualsBottom(LatticeError):
    def __init__(self):
        super().__init__("lattice must have at least two elements (top == bottom)")


class DistributivityViolation(LatticeError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(
            f"distributive law fails at triple {witness}: "
            f"({witness[0]} v {witness[1]}) ^ {witness[2]} != "
            f"({witness[0]} ^ {witness[2]}) v ({witness[1]} ^ {witness[2]})"
        )


class UnknownElement(LatticeError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown element {name!r}")


class CarrierTooLarge(LatticeError):
    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"carrier size {size} exceeds the configured limit {limit}")


# ------------------------------------------------------- monoid structures

class MonoidError(FuzzintError):
    pass


class NotIsotone(MonoidError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"tensor is not isotone: witness {witness}")


class TopNotIdempotent(MonoidError):
    def __init__(self, got):
        self.got = got
        super().__init__(f"top (x) top must be top, got {got!r}")


class NotCommutative(MonoidError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"tensor is not commutative at {witness}")


class NotAssociative(MonoidError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"tensor is not associative at {witness}")


class NotIntegral(MonoidError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"top is not a unit: {witness[0]} (x) top = {witness[1]}")


class NoZero(MonoidError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"bottom is not a zero: {witness[0]} (x) bottom = {witness[1]}")


class NotJoinDistributive(MonoidError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(
            f"tensor does not distribute over the join of {witness[1]} with {witness[0]}"
        )


class NotDivisible(MonoidError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(
            f"no gamma with {witness[0]} = {witness[1]} (x) gamma although "
            f"{witness[0]} <= {witness[1]}"
        )


# ------------------------------------------------------- ground morphisms

class MorphismError(FuzzintError):
    pass


class JoinNotPreserved(MorphismError):
    def __init__(self, subset: tuple, expected, got):
        self.subset = subset
        self.expected = expected
        self.got = got
        super().__init__(
            f"phi_op does not preserve the join of {subset}: expected {expected!r}, got {got!r}"
        )


class TensorNotPreserved(MorphismError):
    def __init__(self, pair: tuple, expected, got):
        self.pair = pair
        self.expected = expected
        self.got = got
        super().__init__(
            f"phi_op does not preserve the tensor of {pair}: expected {expected!r}, got {got!r}"
        )


class TopNotPreserved(MorphismError):
    def __init__(self, got):
        self.got = got
        super().__init__(f"phi_op maps top to {got!r}, not top")


class CarrierMismatch(MorphismError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"carrier mismatch: {detail}")


class GroundMismatch(MorphismError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"ground mismatch: {detail}")


# ------------------------------------------------------ interior operators

class InteriorError(FuzzintError):
    pass


class NotAnInteriorMap(InteriorError):
    def __init__(self, witness: dict):
        self.witness = witness
        super().__init__(f"not an interior map: {witness}")


class GroundTooLarge(InteriorError):
    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(
            f"fuzzy powerset has {size} elements, above the materialization limit {limit}"
        )


class TopMissingFromTopology(InteriorError):
    def __init__(self):
        super().__init__("the constant-top fuzzy set must be open")


class NotGLGround(InteriorError):
    def __init__(self, detail: str = "residuum required"):
        self.detail = detail
        super().__init__(f"ground algebra is not a GL-monoid: {detail}")


class PropertyPreconditionFailed(InteriorError):
    def __init__(self, prop: str, witness):
        self.prop = prop
        self.witness = witness
        super().__init__(f"target interior lacks {prop}: witness {witness}")


class NotContinuous(InteriorError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"morphism is not continuous: witness {witness}")


# ----------------------------------------------------------------- search

class SearchError(FuzzintError):
    pass


class UnknownProperty(SearchError):
    def __init__(self, name: str, known: tuple):
        self.name = name
        self.known = known
        super().__init__(f"unknown property {name!r}; known: {', '.join(known)}")


class BoundsExceeded(SearchError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"bounds exceeded: {detail}")


class MalformedBundle(SearchError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"malformed witness bundle: {detail}")


# --------------------------------------------------------------------- io

class ParseError(FuzzintError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"cannot parse input: {detail}")


class InvalidTopology(FuzzintError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"not a topology: {detail}")


class EmptyCarrier(FuzzintError):
    def __init__(self):
        super().__init__("carrier must be nonempty")
