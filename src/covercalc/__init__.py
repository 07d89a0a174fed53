"""Exact leading-order invariants of p-fold branched cyclic covers of knots.

Submodules:
    records   -- the frozen record base and the JSON field readers
    laurent   -- the |H_1| resultant of a knot's dense palindromic
                 coefficients, with its size and work bounds
    knots     -- knots as checked palindromes, homology orders of branched
                 covers, the wheel-knot family from its binomial closed form
    diagrams  -- trivalent graphs with legs, completeness validation
    lifts     -- the mod-p lift equations and their solver
    signs     -- twist chains and comparison signs
    engine    -- roots-of-unity filters in Z[Z_p^b]: leg-state and LMO
                 multipliers, Casson-Walker-Lescop deltas
    cli       -- command-line frontend
"""

from .knots import KnotDescriptor, h1_order, wheel_knot, f_table
from .diagrams import DecoratedDiagram, Edge, Leg, validate_complete, surplus, degree
from .lifts import LiftSystem, LiftEdge, solve, admissible
from .signs import GraphIso, chain_twist, comparison_sign
from .engine import (
    LeadingTerm, multiplier, cwl_delta, lmo_leading_multiplier, lmo_window, window_nonzero,
)

__all__ = [
    "KnotDescriptor",
    "h1_order",
    "wheel_knot",
    "f_table",
    "DecoratedDiagram",
    "Edge",
    "Leg",
    "validate_complete",
    "surplus",
    "degree",
    "LiftSystem",
    "LiftEdge",
    "solve",
    "admissible",
    "GraphIso",
    "chain_twist",
    "comparison_sign",
    "LeadingTerm",
    "multiplier",
    "cwl_delta",
    "lmo_leading_multiplier",
    "lmo_window",
    "window_nonzero",
]

__version__ = "0.1.0"
