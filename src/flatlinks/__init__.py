"""Flat virtual links as Gauss codes: invariants, filamentations, moves.

A flat virtual link is stored as a tuple of named cyclic codewords in
which every crossing identifier appears exactly twice with opposite
signs.  On top of that representation the package computes the
polynomial link invariant (per-component polynomials, flat linking
differences, and pair coefficients), constructs and verifies
filamentations, rewrites codes with the flat Reidemeister moves, and
enumerates or searches small codes for separating examples.
"""

from . import filament, gausscode, generate, invariant, moves
from .gausscode import *
from .invariant import *
from .filament import *
from .moves import *
from .generate import *

__version__ = "0.1.0"

__all__ = (gausscode.__all__ + invariant.__all__ + filament.__all__
           + moves.__all__ + generate.__all__)
