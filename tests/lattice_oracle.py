"""Picard-lattice intersection calculus on iterated blowups of P^1 x P^1,
the oracle that the tests check ``hypdiv.surfcalc``'s rules against.

The lattice has basis (H1, H2, E_1, ..., E_k) with H1.H2 = 1,
H1^2 = H2^2 = 0, E_j^2 = -1 and all other pairings zero.  Points are
identified only by the exceptional class they generate and the
multiplicity of each curve through them; no coordinates are modeled.
Lattices and their elements are immutable ``NamedTuple``s.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from hypdiv.surfcalc import LatticeError


class LatticeElement(NamedTuple):
    """Integer coefficients on (H1, H2, E_1, ..., E_k); build it with
    :meth:`SurfaceLattice.element`, which checks the length and coerces to int."""

    coefficients: tuple[int, ...]


class SurfaceLattice(NamedTuple):
    """Blowup of P^1 x P^1 at ``exceptional_count`` points."""

    exceptional_count: int

    @property
    def dimension(self) -> int:
        return 2 + self.exceptional_count

    def element(self, coefficients: Sequence[int]) -> LatticeElement:
        if len(coefficients) != self.dimension:
            raise LatticeError(
                f"expected {self.dimension} coefficients, got {len(coefficients)}"
            )
        return LatticeElement(tuple(int(c) for c in coefficients))

    def curve_class(self, h1: int, h2: int) -> LatticeElement:
        """Total transform of a curve of bidegree (h1, h2) downstairs."""
        return self.element((h1, h2) + (0,) * self.exceptional_count)

    def exceptional(self, j: int) -> LatticeElement:
        """The class E_j (1-based)."""
        if not 1 <= j <= self.exceptional_count:
            raise LatticeError(f"exceptional index {j} out of range")
        coeffs = [0] * self.dimension
        coeffs[1 + j] = 1
        return self.element(coeffs)

    def intersect(self, a: LatticeElement, b: LatticeElement) -> int:
        if len(a.coefficients) != self.dimension or len(b.coefficients) != self.dimension:
            raise LatticeError("element does not live in this lattice")
        x, y = a.coefficients, b.coefficients
        total = x[0] * y[1] + x[1] * y[0]
        for j in range(2, self.dimension):
            total -= x[j] * y[j]
        return total

    def strict_transform(
        self, c: LatticeElement, multiplicities: Iterable[tuple[int, int]]
    ) -> LatticeElement:
        """Subtract m_j * E_j for each (j, m_j); indices are 1-based."""
        coeffs = list(c.coefficients)
        if len(coeffs) != self.dimension:
            raise LatticeError("element does not live in this lattice")
        for j, m in multiplicities:
            if not 1 <= j <= self.exceptional_count:
                raise LatticeError(f"exceptional index {j} out of range")
            coeffs[1 + j] -= m
        return self.element(coeffs)

    def self_intersection(self, a: LatticeElement) -> int:
        return self.intersect(a, a)
