"""Self-intersection rules of the glued test families, on blowups of P^1 x P^1.

On the blowup of P^1 x P^1 at k points (Picard basis H1, H2, E_1, ..., E_k
with H1.H2 = 1, H1^2 = H2^2 = 0, E_j^2 = -1), a curve of bidegree
(h1, h2) through k simple points has strict transform of self-intersection
2·h1·h2 - k (``section_after_blowups``).  ``branch_halve`` implements the
degree-2 cover rule: a curve contained in the branch locus has a reduced
preimage of half the self-intersection, so it halves an even ``int`` and
raises :class:`LatticeError` on anything else.  The glued families only
need the composite ``branch_halve(2·h1·h2 - k)``
(``branch_section_self_intersection``); the tests check it against a full
Picard-lattice calculus, kept with them as an oracle.
"""


class LatticeError(ValueError):
    """An odd or non-``int`` number to halve, or a genus that is not an ``int`` >= 0;
    the tests' lattice oracle raises it for a length or index that does not fit."""


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
