"""Generators of the rational divisor class groups of stacks of 1- and
2-pointed stable hyperelliptic curves, and sparse exact linear
combinations of them.

For genus g >= 2 and n in {1, 2} the class group is freely generated by
the psi-classes of the marked points together with the boundary divisors:

* ``eta_irr`` - irreducible curves with a non-separating node;
* ``delta_{i,m}`` (1 <= i <= g//2) - a separating node splitting off
  genus i, the node fixed by the involution; ``m`` records where the
  marked points sit;
* ``eta_{i,m}`` (1 <= i <= (g-1)//2) - a conjugate pair of nodes
  splitting off genus i;
* ``delta_{0,2}`` (n = 2 only) - a rational tail carrying both points.

Two tables decide which labels exist, so :func:`is_valid` is exact: :data:`MARKINGS`
and :data:`GLOBALS`, the labels that are not delta_{i,m} or eta_{i,m}, in solver order.
Markings: for n = 1, m is "0" (point on the genus g-i side) or "1"; for n = 2, "0", "1a"
(first point on the genus-i side), "1b", or "2".  At the top index g // 2, on delta for
even g and on eta for odd g, some labels name the same irreducible divisor and only the
canonical representative is a generator: marking 1 merges into 0 (n=1); 2 into 0 and 1b
into 1a (n=2).

A label is a :class:`BasisElement`: an immutable ``NamedTuple`` equal to (and hashing
as) the tuple ``(kind, index, marking)``, so hashed and compared in C; the constructors
below build it through ``tuple.__new__``, skipping the Python-level ``NamedTuple.__new__``.
It writes itself as a name, ``delta_3_1a``, or as a LaTeX symbol, ``\\delta_{3,\\{1\\}}``.

A :class:`DivisorExpression` ``(g, n, terms)`` is a ``NamedTuple`` too, {formal label: rational}
kept as built: identified twins keep their own coefficients; a ``coeffs`` record's canonical view
sums them.  It is checked where it is written, by ``cli.output_record`` through :func:`validate`.
"""

from __future__ import annotations

from typing import NamedTuple

PSI = "psi"
ETA_IRR = "eta_irr"
DELTA = "delta"
ETA = "eta"
DELTA_0_2 = "delta_0_2"


class DomainError(ValueError):
    """Ambient (g, n) is invalid or an element is out of range for it."""


class BasisElement(NamedTuple):
    """One generator label: kind plus genus index and marking."""

    kind: str
    index: int = 0
    marking: str = ""

    def name(self, n: int) -> str:
        if self.kind == PSI:
            return "psi" if n == 1 else f"psi{self.index}"
        if self.kind == DELTA or self.kind == ETA:
            return f"{self.kind}_{self.index}_{self.marking}"
        return self.kind  # eta_irr, delta_0_2

    def latex(self, n: int) -> str:
        """The LaTeX symbol of the label, as ``coeffs --format latex`` writes it."""
        if self.kind == PSI:
            return r"\psi" if n == 1 else rf"\psi_{{{self.index}}}"
        if self.kind == DELTA or self.kind == ETA:
            marking = {"1a": r"\{1\}", "1b": r"\{2\}"}.get(self.marking, self.marking)
            return rf"\{self.kind}_{{{self.index},{marking}}}"
        return {ETA_IRR: r"\eta_{\mathrm{irr}}", DELTA_0_2: r"\delta_{0,2}"}[self.kind]

    def __repr__(self):
        if self.kind != DELTA and self.kind != ETA and self not in GLOBALS[2]:  # a stray label
            return f"BasisElement{tuple.__repr__(self)}"
        return f"psi({self.index})" if self.kind == PSI else self.name(2)


def psi(k: int = 1) -> BasisElement:
    return tuple.__new__(BasisElement, (PSI, k, ""))


def eta_irr() -> BasisElement:
    return tuple.__new__(BasisElement, (ETA_IRR, 0, ""))


def delta(i: int, marking: str) -> BasisElement:
    return tuple.__new__(BasisElement, (DELTA, i, str(marking)))


def eta(i: int, marking: str) -> BasisElement:
    return tuple.__new__(BasisElement, (ETA, i, str(marking)))


def delta_0_2() -> BasisElement:
    return tuple.__new__(BasisElement, (DELTA_0_2, 0, ""))


# n -> the labels that are not boundary divisors, in solver order
GLOBALS = {1: (psi(1), eta_irr()), 2: (psi(1), psi(2), eta_irr(), delta_0_2())}
# n -> the markings of a boundary label
MARKINGS = {1: ("0", "1"), 2: ("0", "1a", "1b", "2")}


def check_ambient(g: int, n: int) -> None:
    if type(g) is not int or type(n) is not int:
        raise DomainError(f"genus and number of marked points must be int, got g={g!r}, n={n!r}")
    if g < 2:
        raise DomainError(f"genus must be >= 2, got {g}")
    if n not in (1, 2):
        raise DomainError(f"number of marked points must be 1 or 2, got {n}")


def delta_range(g: int) -> range:
    return range(1, g // 2 + 1)


def eta_range(g: int) -> range:
    return range(1, (g - 1) // 2 + 1)


def is_valid(e: BasisElement, g: int, n: int) -> bool:
    """Whether ``e`` is a (kind, index, marking) label valid for the ambient (g, n).

    The index must be an ``int``; a ``bool``, a float or a string is not one.
    """
    check_ambient(g, n)
    if not (isinstance(e, tuple) and len(e) == 3 and type(e[1]) is int):
        return False
    kind, index, marking = e
    if kind == DELTA or kind == ETA:
        return index in (delta_range if kind == DELTA else eta_range)(g) and marking in MARKINGS[n]
    return e in GLOBALS[n]


def validate(e: BasisElement, g: int, n: int) -> None:
    if not is_valid(e, g, n):
        raise DomainError(f"{e!r} is not a valid class for (g={g}, n={n})")


def canonicalize(e: BasisElement, g: int, n: int) -> BasisElement:
    """Map a formal label to the canonical representative of its divisor.

    Only the top-index identifications act; everything else is fixed.
    Idempotent by construction.
    """
    validate(e, g, n)
    return dict(identified_pairs(g, n)).get(e, e)


def identified_pairs(g: int, n: int) -> list[tuple[BasisElement, BasisElement]]:
    """The (non-canonical, canonical) label pairs merged by canonicalize, all at
    index g // 2: on delta for even g, on eta for odd g."""
    check_ambient(g, n)
    label = delta if g % 2 == 0 else eta
    pairs = (("1", "0"),) if n == 1 else (("2", "0"), ("1b", "1a"))
    return [(label(g // 2, twin), label(g // 2, m)) for twin, m in pairs]


def formal_elements(g: int, n: int) -> list[BasisElement]:
    """Every formal label in deterministic order (identified twins kept)."""
    check_ambient(g, n)
    out = list(GLOBALS[n][: n + 1])  # the psi's and eta_irr
    for i in delta_range(g):
        out.extend(delta(i, m) for m in MARKINGS[n])
    for i in eta_range(g):
        out.extend(eta(i, m) for m in MARKINGS[n])
    return out + list(GLOBALS[n][n + 1 :])  # and delta_{0,2} for n = 2


def enumerate_basis(g: int, n: int) -> list[BasisElement]:
    """The free generators, ordered: psi's, eta_irr, deltas, etas, delta_{0,2}.

    Identified pairs appear once, via their canonical representative.
    """
    twins = dict(identified_pairs(g, n))
    return [e for e in formal_elements(g, n) if e not in twins]


def basis_dimension(g: int, n: int) -> int:
    return len(enumerate_basis(g, n))


def formal_position(g: int, n: int) -> dict[BasisElement, int]:
    return {e: j for j, e in enumerate(formal_elements(g, n))}


class DivisorExpression(NamedTuple):
    """Sparse exact combination of formal labels for one ambient, unchecked until written."""

    g: int
    n: int
    terms: dict[BasisElement, Fraction]
