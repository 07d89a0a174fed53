"""Exact leading-order invariants of p-fold branched cyclic covers of knots.

Submodules:
    records   -- the frozen record base and the JSON field readers
    knots     -- knots as checked palindromes, homology orders of branched
                 covers as exact resultants with their size and work bounds,
                 the wheel-knot family from its binomial closed form
    diagrams  -- trivalent graphs with legs, completeness validation
    lifts     -- the mod-p lift equations and their solver
    signs     -- twist chains and comparison signs
    engine    -- roots-of-unity filters in Z[Z_p^b]: leg-state and LMO
                 multipliers, Casson-Walker-Lescop deltas
    cli       -- command-line frontend

``import covercalc`` loads none of them. Each name in ``__all__`` resolves
on first access, ``covercalc.h1_order`` or ``from covercalc import *``,
by importing its home module, so a ``covercalc`` process compiles only the
modules it uses.
"""

_HOMES = {
    "knots": ("KnotDescriptor", "h1_order", "wheel_knot", "f_table"),
    "diagrams": ("DecoratedDiagram", "Edge", "Leg", "validate_complete", "surplus", "degree"),
    "lifts": ("LiftSystem", "LiftEdge", "solve", "admissible"),
    "signs": ("GraphIso", "chain_twist", "comparison_sign"),
    "engine": (
        "LeadingTerm", "multiplier", "cwl_delta", "lmo_leading_multiplier", "lmo_window",
        "window_nonzero",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
