"""Catalog of one-parameter test families and their exact degree vectors.

Each family is a complete one-parameter family of pointed stable
hyperelliptic curves, reduced to the only data the linear method needs:
the exact degree of every generator class on the family plus the degree
of the target divisor (the universal Weierstrass divisor for n = 1, the
universal degree-2-series divisor for n = 2).  Degrees are integer-valued
closed-form functions of (g, i) built from +, - and * alone; a test checks
each self-intersection entry against :mod:`hypdiv.surfcalc` for every
genus the command line accepts.

Families
--------
* ``diagonal_family`` - constant curve C, section moving along the
  diagonal of C x C.  Pins the psi coefficient.
* ``quadric_pencil_family`` - general pencil of bidegree-(2, g+1) curves
  on a quadric, marked at one or two base points.  The discriminant
  contributes degree 4(2g+1) on eta_irr; it pins the eta_irr coefficient.
* ``glued_weierstrass_family`` - a moving branched-cover family of genus
  i with a Weierstrass section (from a horizontal ruling, self-intersection
  -1, or a bidegree-(1,1) ruling, self-intersection -i) glued to a fixed
  pointed curve of genus g-i.  Lies in delta_{i,.}; nodal fibers hit
  eta_irr with multiplicity 2 and two fibers degenerate to eta_{i-1,.}.
* ``two_point_blowup_family`` - blowups of C x C giving 2-pointed
  families meeting only delta_{0,2}; two variants pin psi_1 + psi_2 and
  delta_{0,2} together.
* ``g12_ruling_family`` - the glued construction with an extra marked
  ruling, after the degree-2 base change that makes the marking a
  section; all degrees double.
* ``f2ip1_family`` - the pencil branched along 2i+2 bidegree-(1,1)
  curves through a common point and 2g-2i rulings, marked along one
  general and one special ruling.  The special fiber lies in eta_{i,.}.
  The boundary instance i = 0 is the member with no moving genus: its
  eta-degree lands on the out-of-range label eta_{0,1}, which is exactly
  what pins that auxiliary for small g.

Degrees on out-of-range eta labels (eta_{0,m}; eta_{g/2,m} for even g)
are registered, never dropped; :func:`is_auxiliary` tells them apart.
For n = 2 the marking "1" stands for the invariant pair 1a/1b, and
degrees that the underlying relation only constrains through the sum
psi_1 + psi_2 are recorded against the :data:`PSI_SUM` key.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Union

from . import basis as B
from .basis import BasisElement, DomainError

WEIERSTRASS = "weierstrass"
G12 = "g12"

HORIZONTAL = "horizontal"
DIAGONAL = "diagonal"
LOW = "low"
HIGH = "high"
SINGLE = "single"
WEIERSTRASS_INVOLUTION = "weierstrass_involution"


class PsiSum:
    """Key for degrees recorded against the invariant sum psi_1 + psi_2.

    :data:`PSI_SUM` is its one instance; it compares by identity.
    """

    def name(self, n: int = 2) -> str:
        return "psi_sum"

    def __repr__(self):
        return "psi_sum"


PSI_SUM = PsiSum()

Label = Union[BasisElement, PsiSum]


def is_auxiliary(label: Label, g: int) -> bool:
    """Whether ``label`` is an eta label whose index is outside eta_range(g)."""
    return (
        isinstance(label, BasisElement)
        and label.kind == B.ETA
        and label.index not in B.eta_range(g)
    )


# n -> the markings of a boundary label in a degree vector; "1" is the invariant 1a/1b
_MARKINGS = {1: B.MARKINGS_1, 2: B.MARKINGS_2 + ("1",)}


def _check_label(label: Label, g: int, n: int) -> None:
    # the caller has checked the ambient; one kind dispatch accepts a legal label
    # with an int index, and the gate after it decides everything else
    if type(label) is BasisElement and type(label[1]) is int:
        kind, index, marking = label
        if kind == B.DELTA or kind == B.ETA:
            # an eta below eta_range(g) or above it, up to g // 2, is an auxiliary
            if (0 if kind == B.ETA else 1) <= index <= g // 2 and marking in _MARKINGS[n]:
                return
        elif kind == B.PSI:
            if 1 <= index <= n:
                return
        elif kind == B.ETA_IRR or kind == B.DELTA_0_2 and n == 2:
            return
    elif type(label) is PsiSum:
        return
    try:
        if B._in_range(label, g, n):
            return
        shaped = isinstance(label, BasisElement)
    except (TypeError, ValueError):  # not a (kind, int index, marking) triple
        shaped = False
    if not shaped:
        B.validate(label, g, n)  # raises, naming the label and the ambient
    # only auxiliaries and the invariant pair 1a/1b remain legal
    if is_auxiliary(label, g):
        if not 0 <= label.index <= g // 2 or label.marking not in _MARKINGS[n]:
            raise DomainError(f"{label!r} is not a valid auxiliary for (g={g}, n={n})")
    elif n == 2 and label.marking == "1" and label.kind in (B.DELTA, B.ETA):
        # the invariant pair 1a/1b, legal in degree vectors only; an eta here is in range
        if label.index not in B.delta_range(g):
            raise DomainError(f"{label!r} index out of range")
    else:
        B.validate(label, g, n)


class DegreeVector(NamedTuple):
    """Exact degrees of every generator and of the target on one family.

    ``params`` has no default: a shared default dict would be one object
    for every vector.
    """

    g: int
    n: int
    target: str
    target_degree: int
    degrees: dict[Label, int]
    family: str
    params: dict

    def degree(self, label: Label) -> int:
        return self.degrees.get(label, 0)

    def provenance(self) -> str:
        if len(self.params) == 1:  # every indexed member: no sort
            ((k, v),) = self.params.items()
            return f"{self.family}[{k}={v}]"
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family}[{inner}]" if self.params else self.family


def _vector(g, n, target, target_degree, degrees, family, params=None) -> DegreeVector:
    clean: dict[Label, int] = {}
    for label, value in degrees.items():
        if value:
            _check_label(label, g, n)
            if type(value) is not int:
                raise CatalogError(f"{family}: non-integer degree {value!r} on {label!r}")
            clean[label] = value
    if type(target_degree) is not int:
        raise CatalogError(f"{family}: non-integer degree {target_degree!r} on the target")
    params = {} if params is None else params  # each vector its own dict, never copied
    return tuple.__new__(DegreeVector, (g, n, target, target_degree, clean, family, params))


class CatalogError(RuntimeError):
    """A catalog formula produced a non-integer degree: a catalog bug, not bad input."""


# the labels of index 0 or a fixed index, built once: a label is an immutable tuple
_PSI_1, _PSI_2, _ETA_IRR, _DELTA_0_2 = B.psi(1), B.psi(2), B.eta_irr(), B.delta_0_2()


def diagonal_family(g: int) -> DegreeVector:
    """Fixed curve C, diagonal section of C x C (n = 1).

    The section hits every Weierstrass point once (degree 2g+2 on the
    target) and deg(psi) = -(diagonal)^2 = 2g - 2; no singular fibers.
    """
    B.check_ambient(g, 1)
    return _vector(g, 1, WEIERSTRASS, 2 * g + 2, {_PSI_1: 2 * g - 2}, "diagonal")


def quadric_pencil_family(g: int, marks: int) -> DegreeVector:
    """General bidegree-(2, g+1) pencil on P^1 x P^1, marked at base points.

    Base points are exceptional after blowing up, so each psi degree is 1;
    the only boundary met is eta_irr, with the discriminant degree 4(2g+1).
    With two marks the target degree is 0: the two base points never lie
    in a common ruling, so no fiber of the degree-2 series contains both.
    """
    B.check_ambient(g, marks)
    eta_irr_degree = 4 * (2 * g + 1)
    if marks == 1:
        degrees = {_PSI_1: 1, _ETA_IRR: eta_irr_degree}
        return _vector(g, 1, WEIERSTRASS, 1, degrees, "quadric_pencil")
    degrees = {_PSI_1: 1, _PSI_2: 1, _ETA_IRR: eta_irr_degree}
    return _vector(g, 2, G12, 0, degrees, "quadric_pencil", {"marks": 2})


def glued_weierstrass_family(g: int, i: int, section: str, side: str, n: int) -> DegreeVector:
    """Moving genus-i cover glued to a fixed pointed curve of genus g-i.

    ``section`` picks the Weierstrass attachment section: ``horizontal``
    (a ruling, self-intersection -1 upstairs) or ``diagonal`` (a
    bidegree-(1,1) ruling, self-intersection -i).  ``side = low`` keeps
    the marked point(s) on the fixed genus g-i component, so the family
    lies in delta_{i,0}; ``side = high`` switches the genera, landing in
    delta_{i,1} (n = 1) or delta_{i,2} (n = 2).  The marked points stay
    constant, so psi degrees and the target degree vanish.
    """
    B.check_ambient(g, n)
    if type(i) is not int or not 1 <= i <= g // 2:
        raise DomainError(f"i={i!r} out of range 1..{g // 2} for g={g}")
    if section not in (HORIZONTAL, DIAGONAL):
        raise DomainError(f"unknown section kind {section!r}")
    if side not in (LOW, HIGH):
        raise DomainError(f"unknown side {side!r}")

    # the moving component has genus j; boundary labels carry the mark m
    if side == LOW:
        j = i
        delta_key = B.delta(i, "0")
        eta_key = B.eta(i - 1, "0")
    else:
        j = g - i
        delta_key = B.delta(i, "1" if n == 1 else "2")
        eta_key = B.eta(i, "1" if n == 1 else "2")

    if section == HORIZONTAL:
        degrees = {delta_key: -1, _ETA_IRR: 8 * j, eta_key: 2}
    else:
        degrees = {delta_key: -j, _ETA_IRR: 4 * j, eta_key: 2 * j + 2}

    target = WEIERSTRASS if n == 1 else G12
    return _vector(
        g, n, target, 0, degrees, f"glued_{section}_{side}", {"i": i}
    )


def two_point_blowup_family(g: int, kind: str) -> DegreeVector:
    """Blowup of C x C along diagonal points, two sections (n = 2).

    ``single``: blow up one non-Weierstrass point (p, p); sections are the
    strict transforms of C x {p} and the diagonal.  ``weierstrass_involution``:
    blow up all 2g+2 Weierstrass diagonal points; sections are the strict
    transforms of the diagonal and the involution graph, so the family lies
    entirely inside the target divisor.  Each psi degree is minus its
    section's self-intersection after the blowups: 1 and 2g - 1 for
    ``single``, 4g for both sections of ``weierstrass_involution``.
    """
    B.check_ambient(g, 2)
    if kind == SINGLE:
        degrees = {_PSI_1: 1, _PSI_2: 2 * g - 1, _DELTA_0_2: 1}
        return _vector(g, 2, G12, 1, degrees, "two_point_single")
    if kind == WEIERSTRASS_INVOLUTION:
        degrees = {_PSI_1: 4 * g, _PSI_2: 4 * g, _DELTA_0_2: 2 * g + 2}
        return _vector(g, 2, G12, 2 - 2 * g, degrees, "two_point_weierstrass")
    raise DomainError(f"unknown two-point family kind {kind!r}")


def g12_ruling_family(g: int, i: int, side: str) -> DegreeVector:
    """Glued family with a marked ruling, after a degree-2 base change (n = 2).

    One marked point rides the moving genus component (via the pulled-back
    ruling), the other sits on the fixed component, so the family lies in
    delta_{i,1} and misses the target.  The base change doubles every
    degree of the underlying glued family.  Only the sum psi_1 + psi_2 is
    constrained, recorded against PSI_SUM.
    """
    B.check_ambient(g, 2)
    if type(i) is not int or not 1 <= i <= g // 2:
        raise DomainError(f"i={i!r} out of range 1..{g // 2} for g={g}")
    if side not in (LOW, HIGH):
        raise DomainError(f"unknown side {side!r}")
    j = i if side == LOW else g - i
    eta_index = i - 1 if side == LOW else i
    degrees = {
        # the base change doubles the attachment section's self-intersection -1
        B.delta(i, "1"): -2,
        B.eta(eta_index, "1"): 4,
        _ETA_IRR: 16 * j,
        PSI_SUM: 2,
    }
    return _vector(g, 2, G12, 0, degrees, f"ruling_{side}", {"i": i})


def f2ip1_family(g: int, i: int) -> DegreeVector:
    """Pencil branched along 2i+2 concurrent (1,1)-curves and 2g-2i rulings.

    Marked along one general ruling (pulled back by the degree-2 base
    change, deg psi = 2(i+1)) and one line over the special ruling through
    the common point (deg psi = 2).  One fiber lies in eta_{i,.} with the
    moving mark on the genus-i side; nodal fibers give
    deg(eta_irr) = 4(i+1)(4g-2i+1).

    The index range is 0 <= i <= (g-1)//2.  The boundary member i = 0 has
    no moving genus: its eta-degree is registered on the auxiliary label
    eta_{0,1}, and including it closes the coefficient system at g = 2.
    """
    B.check_ambient(g, 2)
    if type(i) is not int or not 0 <= i <= (g - 1) // 2:
        raise DomainError(f"i={i!r} out of range 0..{(g - 1) // 2} for g={g}")
    degrees = {
        _PSI_1: 2 * (i + 1),
        _PSI_2: 2,
        B.eta(i, "1"): 2,
        _ETA_IRR: 4 * (i + 1) * (4 * g - 2 * i + 1),
    }
    return _vector(g, 2, G12, 0, degrees, "f2ip1", {"i": i})


def marked_points(target: str) -> int:
    """Number of marked points of the stack on which ``target`` lives."""
    if target == WEIERSTRASS:
        return 1
    if target == G12:
        return 2
    raise DomainError(f"unknown target {target!r}")


def _entry(label: Label, value=None) -> tuple:
    """(solver key, unknown name, ``value``) of a label, in one kind dispatch.

    Solver order: psi (and PSI_SUM), eta_irr, delta_{0,2}, deltas, etas;
    labels of one kind follow (index, marking).  Auxiliaries are eta labels,
    so a relation's form, which names at most one eta, ends with them.  The
    keys of distinct labels differ, so sorting entries never compares values.

    The unknown is ``d`` for psi classes, ``c`` for eta_irr, ``a_0_2`` for
    delta_{0,2}, ``a_i_m`` / ``b_i_m`` for delta / eta boundary labels.  The
    1a/1b markings share the invariant unknown ``a_i_1`` (the class is
    symmetric under swapping the marked points), which is also what the
    invariant-combination and PSI_SUM keys resolve to.
    """
    if type(label) is PsiSum:
        return (0,), "d", value
    kind, index, marking = label
    if kind == B.DELTA:
        return (3, index, marking), f"a_{index}_{marking[0]}", value
    if kind == B.ETA:
        return (4, index, marking), f"b_{index}_{marking[0]}", value
    if kind == B.PSI:
        return (0, index, marking), "d", value
    if kind == B.ETA_IRR:
        return (1, index, marking), "c", value
    if kind == B.DELTA_0_2:
        return (2, index, marking), "a_0_2", value
    raise DomainError(f"{label!r} names no unknown")


def unknown(label: Label) -> str:
    """Name of the rational unknown that multiplies ``label`` (see :func:`_entry`)."""
    return _entry(label)[1]


def slot(marking: str) -> int:
    """The marking slot m of an unknown; 1a and 1b share the invariant slot 1."""
    return int(marking[0])


def formal_unknowns(g: int, n: int) -> dict[str, list[BasisElement]]:
    """The formal unknowns in solver order, each with the labels it carries."""
    groups: dict[str, list[BasisElement]] = {}
    for _, name, e in sorted([_entry(e, e) for e in B.formal_elements(g, n)]):
        groups.setdefault(name, []).append(e)
    return groups


def formal_expression(g: int, n: int, values: Mapping[str, Fraction]) -> "B.DivisorExpression":
    """The formal-view expression giving every label its unknown's value."""
    return B.DivisorExpression.from_terms(
        g, n, [(e, values[unknown(e)]) for e in B.formal_elements(g, n)]
    )


def pairing_degree(dv: DegreeVector) -> dict[str, int]:
    """Pair the unknown-coefficient expression with a degree vector.

    Returns the integer linear form (unknown -> coefficient), its unknowns
    in solver order; equating it to ``dv.target_degree`` is the relation the
    family contributes.
    """
    form: dict[str, int] = {}
    for _, name, value in sorted([_entry(label, value) for label, value in dv.degrees.items()]):
        acc = form.get(name, 0) + value
        if acc:
            form[name] = acc
        else:
            form.pop(name, None)
    return form
