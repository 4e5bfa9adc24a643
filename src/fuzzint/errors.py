"""Exception hierarchy.

Every validation error carries the first witness found, as structured
attributes, so callers (and the CLI) can report exactly which axiom broke
and where.
"""

from __future__ import annotations


class FuzzintError(Exception):
    """Base class for all package errors.

    ``fields`` are the witness parts; they become attributes and make up
    :meth:`payload`.
    """

    def __init__(self, message: str, **fields):
        self.__dict__.update(fields)
        super().__init__(message)

    def payload(self) -> dict:
        """Witness data as JSON-ready primitives."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


# ---------------------------------------------------------------- lattices

class LatticeError(FuzzintError):
    pass


class NotAPartialOrder(LatticeError):
    def __init__(self, law: str, witness: tuple):
        super().__init__(f"relation is not a partial order: {law} fails at {witness}", law=law, witness=witness)


class MissingBound(LatticeError):
    def __init__(self, kind: str, pair: tuple):
        super().__init__(f"pair {pair} has no {kind}", kind=kind, pair=pair)


class TopEqualsBottom(LatticeError):
    def __init__(self):
        super().__init__("lattice must have at least two elements (top == bottom)")


class DistributivityViolation(LatticeError):
    def __init__(self, witness: tuple):
        super().__init__(
            f"distributive law fails at triple {witness}: "
            f"({witness[0]} v {witness[1]}) ^ {witness[2]} != "
            f"({witness[0]} ^ {witness[2]}) v ({witness[1]} ^ {witness[2]})",
            witness=witness,
        )


class UnknownElement(LatticeError):
    def __init__(self, name):
        super().__init__(f"unknown element {name!r}", name=name)


class CarrierTooLarge(LatticeError):
    def __init__(self, size: int, limit: int):
        super().__init__(f"carrier size {size} exceeds the configured limit {limit}", size=size, limit=limit)


# ------------------------------------------------------- monoid structures

class MonoidError(FuzzintError):
    pass


class NotIsotone(MonoidError):
    def __init__(self, witness: tuple):
        super().__init__(f"tensor is not isotone: witness {witness}", witness=witness)


class TopNotIdempotent(MonoidError):
    def __init__(self, got):
        super().__init__(f"top (x) top must be top, got {got!r}", got=got)


class NotCommutative(MonoidError):
    def __init__(self, witness: tuple):
        super().__init__(f"tensor is not commutative at {witness}", witness=witness)


class NotAssociative(MonoidError):
    def __init__(self, witness: tuple):
        super().__init__(f"tensor is not associative at {witness}", witness=witness)


class NotIntegral(MonoidError):
    def __init__(self, witness: tuple):
        super().__init__(f"top is not a unit: {witness[0]} (x) top = {witness[1]}", witness=witness)


class NoZero(MonoidError):
    def __init__(self, witness: tuple):
        super().__init__(f"bottom is not a zero: {witness[0]} (x) bottom = {witness[1]}", witness=witness)


class NotJoinDistributive(MonoidError):
    def __init__(self, witness: tuple):
        super().__init__(
            f"tensor does not distribute over the join of {witness[1]} with {witness[0]}",
            witness=witness,
        )


class NotDivisible(MonoidError):
    def __init__(self, witness: tuple):
        super().__init__(
            f"no gamma with {witness[0]} = {witness[1]} (x) gamma although "
            f"{witness[0]} <= {witness[1]}",
            witness=witness,
        )


# ------------------------------------------------------- ground morphisms

class MorphismError(FuzzintError):
    pass


class JoinNotPreserved(MorphismError):
    def __init__(self, subset: tuple, expected, got):
        super().__init__(
            f"phi_op does not preserve the join of {subset}: expected {expected!r}, got {got!r}",
            subset=subset, expected=expected, got=got,
        )


class TensorNotPreserved(MorphismError):
    def __init__(self, pair: tuple, expected, got):
        super().__init__(
            f"phi_op does not preserve the tensor of {pair}: expected {expected!r}, got {got!r}",
            pair=pair, expected=expected, got=got,
        )


class TopNotPreserved(MorphismError):
    def __init__(self, got):
        super().__init__(f"phi_op maps top to {got!r}, not top", got=got)


class CarrierMismatch(MorphismError):
    def __init__(self, detail: str):
        super().__init__(f"carrier mismatch: {detail}", detail=detail)


class GroundMismatch(MorphismError):
    def __init__(self, detail: str):
        super().__init__(f"ground mismatch: {detail}", detail=detail)


# ------------------------------------------------------ interior operators

class InteriorError(FuzzintError):
    pass


class NotAnInteriorMap(InteriorError):
    def __init__(self, witness: dict):
        super().__init__(f"not an interior map: {witness}", witness=witness)


class GroundTooLarge(InteriorError):
    def __init__(self, size: int, limit: int):
        super().__init__(
            f"fuzzy powerset has {size} elements, above the materialization limit {limit}",
            size=size, limit=limit,
        )


class TopMissingFromTopology(InteriorError):
    def __init__(self):
        super().__init__("the constant-top fuzzy set must be open")


class NotGLGround(InteriorError):
    def __init__(self, detail: str = "residuum required"):
        super().__init__(f"ground algebra is not a GL-monoid: {detail}", detail=detail)


class PropertyPreconditionFailed(InteriorError):
    def __init__(self, prop: str, witness):
        super().__init__(f"target interior lacks {prop}: witness {witness}", prop=prop, witness=witness)


class NotContinuous(InteriorError):
    def __init__(self, witness):
        super().__init__(f"morphism is not continuous: witness {witness}", witness=witness)


class NotOpen(InteriorError):
    def __init__(self, witness):
        super().__init__(f"morphism is not open: witness {witness}", witness=witness)


# ----------------------------------------------------------------- search

class SearchError(FuzzintError):
    pass


class UnknownProperty(SearchError):
    def __init__(self, name: str, known: tuple):
        super().__init__(f"unknown property {name!r}; known: {', '.join(known)}", name=name, known=known)


class BoundsExceeded(SearchError):
    def __init__(self, detail: str):
        super().__init__(f"bounds exceeded: {detail}", detail=detail)


class MalformedBundle(SearchError):
    def __init__(self, detail: str):
        super().__init__(f"malformed witness bundle: {detail}", detail=detail)


# --------------------------------------------------------------------- io

class ParseError(FuzzintError):
    def __init__(self, detail: str):
        super().__init__(f"cannot parse input: {detail}", detail=detail)


class WriteError(FuzzintError):
    def __init__(self, detail: str):
        super().__init__(f"cannot write output: {detail}", detail=detail)


class InvalidTopology(FuzzintError):
    def __init__(self, detail: str):
        super().__init__(f"not a topology: {detail}", detail=detail)


class EmptyCarrier(FuzzintError):
    def __init__(self):
        super().__init__("carrier must be nonempty")
