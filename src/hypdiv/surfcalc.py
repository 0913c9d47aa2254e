"""Picard-lattice intersection calculus on iterated blowups of P^1 x P^1.

The lattice has basis (H1, H2, E_1, ..., E_k) with H1.H2 = 1,
H1^2 = H2^2 = 0, E_j^2 = -1 and all other pairings zero.  Points are
identified only by the exceptional class they generate and the
multiplicity of each curve through them; no coordinates are modeled.

``branch_halve`` implements the degree-2 cover rule: a curve contained
in the branch locus has a reduced preimage of half the self-intersection,
so it halves an even ``int`` and raises :class:`LatticeError` on anything else.
The glued families only need it for a bidegree-(h1, h2) curve through k
simple points, where the lattice computation closes to the rule
``branch_halve(2·h1·h2 - k)`` (``branch_section_self_intersection``);
``SurfaceLattice`` is the general calculus and agrees with that rule
(the tests check it against the lattice).  Lattices and their elements
are immutable ``NamedTuple``s.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class LatticeError(ValueError):
    """A length or index that does not fit the lattice, or an odd number to halve."""


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


def branch_halve(self_int: int) -> int:
    """Self-intersection of the reduced preimage of a branch-locus curve.

    Every cataloged case is an even ``int``; anything else would be a
    modeling slip and raises :class:`LatticeError`.
    """
    if type(self_int) is not int or self_int % 2:
        raise LatticeError(f"cannot halve self-intersection {self_int!r}: not an even int")
    return self_int // 2


def diagonal_self_intersection(genus: int) -> int:
    """Self-intersection 2 - 2g of the diagonal in C x C; the genus is an ``int`` >= 0."""
    if type(genus) is not int or genus < 0:
        raise LatticeError(f"genus must be an int >= 0, got {genus!r}")
    return 2 - 2 * genus


def section_after_blowups(base_self_int: int, blowup_count: int) -> int:
    """Self-intersection after passing through ``blowup_count`` simple points."""
    return base_self_int - blowup_count


def branch_section_self_intersection(h1: int, h2: int, blowup_count: int) -> int:
    """Composite rule: bidegree-(h1,h2) section, blown up, then halved.

    The curve has self-intersection 2·h1·h2 and passes simply through each
    of the ``blowup_count`` points, so the result is (2·h1·h2 - blowup_count)/2.
    This is the chain every glued test family relies on:
    (1,0) through 2 points -> -2 -> -1;  (1,1) through 2h+2 points -> -2h -> -h.
    """
    return branch_halve(2 * h1 * h2 - blowup_count)
