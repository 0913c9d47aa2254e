"""Exact divisor-class computations on stacks of pointed hyperelliptic curves.

The package computes the classes of the universal Weierstrass divisor
(one marked point) and the universal degree-2-series divisor (two marked
points) in the rational divisor class groups of the compactified stacks,
two ways: by assembling and exactly solving the linear relations cut out
by a catalog of test families, and by direct evaluation of the closed
forms.  ``hypdiv.closedform.verify_range`` checks that the two agree,
term by term, in exact rational arithmetic.

Importing the package loads no submodule: each public name (and each
submodule named in the table below) is imported on first access, so a
command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BasisElement": "basis",
    "DivisorExpression": "basis",
    "DomainError": "basis",
    "basis_dimension": "basis",
    "canonicalize": "basis",
    "enumerate_basis": "basis",
    "closed_form": "closedform",
    "verify_range": "closedform",
    "LinearSystem": "exactlin",
    "rank": "exactlin",
    "solve": "exactlin",
    "G12": "families",
    "WEIERSTRASS": "families",
    "DegreeVector": "families",
    "Relation": "families",
    "assemble_system": "families",
    "CoefficientReport": "solver",
    "solve_coefficients": "solver",
    "branch_halve": "surfcalc",
    "diagonal_self_intersection": "surfcalc",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
