"""Exact divisor-class computations on stacks of pointed hyperelliptic curves.

The package computes the classes of the universal Weierstrass divisor
(one marked point) and the universal degree-2-series divisor (two marked
points) in the rational divisor class groups of the compactified stacks,
two ways: by assembling and exactly solving the linear relations cut out
by a catalog of test families, and by direct evaluation of the closed
forms.  ``hypdiv.closedform.verify_range`` checks that the two agree,
term by term, in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .basis import (
    BasisElement,
    DivisorExpression,
    DomainError,
    basis_dimension,
    canonicalize,
    enumerate_basis,
)
from .closedform import closed_form, verify_range
from .exactlin import LinearSystem, rank, solve
from .families import G12, WEIERSTRASS, DegreeVector, pairing_degree
from .solver import CoefficientReport, Relation, assemble_system, solve_coefficients
from .surfcalc import SurfaceLattice, branch_halve, diagonal_self_intersection

__all__ = [
    "BasisElement",
    "CoefficientReport",
    "DegreeVector",
    "DivisorExpression",
    "DomainError",
    "G12",
    "LinearSystem",
    "Relation",
    "SurfaceLattice",
    "WEIERSTRASS",
    "assemble_system",
    "basis_dimension",
    "branch_halve",
    "canonicalize",
    "closed_form",
    "diagonal_self_intersection",
    "enumerate_basis",
    "pairing_degree",
    "rank",
    "solve",
    "solve_coefficients",
    "verify_range",
    "__version__",
]
