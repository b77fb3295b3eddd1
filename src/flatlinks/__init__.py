"""Flat virtual links as Gauss codes: invariants, filamentations, moves.

A flat virtual link is stored as a tuple of named cyclic codewords in
which every crossing identifier appears exactly twice with opposite
signs.  On top of that representation the package computes the
polynomial link invariant (per-component polynomials, flat linking
differences, and pair coefficients), constructs and verifies
filamentations, rewrites codes with the flat Reidemeister moves, and
enumerates or searches small codes for separating examples.
"""

from .gausscode import (
    MINUS,
    PLUS,
    Codeword,
    CrossingAppearsOnce,
    CrossingAppearsThrice,
    CrossingCatalog,
    DuplicateComponentName,
    FlatLinkCode,
    FlatLinkError,
    Letter,
    MalformedToken,
    PositionOutOfRange,
    SamePosition,
    SameSignTwice,
    default_component_name,
    intersection_number,
    parse_flat_link,
    render_flat_link,
    validate,
)
from .invariant import (
    LinkInvariant,
    SparsePoly,
    link_polynomial,
)
from .filament import (
    ORACLE_CAP,
    Filamentation,
    FilamentViolation,
    InstanceTooLarge,
    PartitionNotCovering,
    PartsOverlap,
    brute_force_filamentation,
    link_filamentation,
    verify_filamentation,
)
from .moves import (
    KINDS,
    MalformedMoveLine,
    MoveSite,
    StaleSite,
    apply_move,
    find_move_sites,
    random_walk,
)
from .generate import (
    COMPONENT_CAP,
    ENUMERATION_CAP,
    GenSpec,
    InfeasibleSpec,
    SearchGoal,
    enumerate_small_codes,
    random_flat_link,
    search_examples,
)

__version__ = "0.1.0"

__all__ = [
    "PLUS",
    "MINUS",
    "Letter",
    "Codeword",
    "FlatLinkCode",
    "CrossingCatalog",
    "FlatLinkError",
    "MalformedToken",
    "DuplicateComponentName",
    "CrossingAppearsOnce",
    "CrossingAppearsThrice",
    "SameSignTwice",
    "SamePosition",
    "PositionOutOfRange",
    "parse_flat_link",
    "render_flat_link",
    "validate",
    "intersection_number",
    "default_component_name",
    "SparsePoly",
    "LinkInvariant",
    "link_polynomial",
    "ORACLE_CAP",
    "Filamentation",
    "FilamentViolation",
    "PartitionNotCovering",
    "PartsOverlap",
    "InstanceTooLarge",
    "verify_filamentation",
    "link_filamentation",
    "brute_force_filamentation",
    "KINDS",
    "MoveSite",
    "StaleSite",
    "MalformedMoveLine",
    "find_move_sites",
    "apply_move",
    "random_walk",
    "ENUMERATION_CAP",
    "COMPONENT_CAP",
    "GenSpec",
    "InfeasibleSpec",
    "random_flat_link",
    "enumerate_small_codes",
    "SearchGoal",
    "search_examples",
]
