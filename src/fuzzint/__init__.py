"""Finite lattice-valued interior operators, executable at desk scale.

The package builds and validates the ground structures (finite complete
lattices, quasi-monoidal carriers, GL-monoids), computes the powerset
operator family with its adjoints, constructs and checks interior operators
including initial lifts, and drives exhaustive bounded searches that
confirm or refute the theory's propositions on finite instances.
"""

from .errors import FuzzintError
from .lattice import FiniteLattice, chain_lattice, diamond_lattice, pentagon_lattice, validate_lattice
from .monoid import CQML, GLMonoid, builtin_chain, residuum, validate_cqml, validate_gl
from .powerset import (
    FuzzySet,
    Ground,
    GroundMorphism,
    PointMap,
    Verdict,
    classical_image,
    classical_preimage,
    lift_phi_op,
    lift_star_phi,
    star_phi,
    validate_ground_morphism,
    vb_backward,
    vb_forward,
    vb_right_adjoint,
    verify_adjunction,
    zadeh_backward,
    zadeh_forward,
)
from .interior import (
    InteriorMap,
    LTopology,
    check_interior_axioms,
    closure_from_topology,
    discrete,
    interior_from_topology,
    is_fully_productive,
    is_idempotent,
    is_productive,
    join_interiors,
    least,
    ltopology,
    meet_interiors,
    open_sets,
)
from .continuity import (
    StructuredSource,
    compose,
    initial_from_source,
    initial_interior,
    is_continuous,
    is_open_morphism,
    preimage_of_open_is_open,
    preserves_full_productivity_check,
    preserves_idempotency_check,
    verify_initiality,
)
from .search import (
    SearchBounds,
    count_interior_maps,
    enumerate_interior_maps,
    replay,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
