"""Catalog of one-parameter test families, each written once as a template in (g, i).

Each family is a complete one-parameter family of pointed stable hyperelliptic curves, reduced
to the only data the linear method needs: the exact degree of every generator class on the
family plus the degree of the target divisor (the universal Weierstrass divisor for n = 1, the
universal degree-2-series divisor for n = 2).  :data:`CATALOG` is the one table of families,
as :class:`Template` s: label constructors in the member index i with integer degree formulas
in (g, i, j) built from +, - and * alone.  One walk (:func:`_walk`) resolves each template
once per genus (:func:`_resolve`): it checks the labels and builds each member from the
genus-free pattern (:func:`_pattern`, one spot per entry) straight into a :class:`Relation`,
the data form in which the catalog reaches the solver, computing each degree once and refusing
the first non-``int``.  The walk names each member ``family[i=…]`` or, for a one-member family,
``family[k=v,...]`` over its sorted params (``solver.independent_a1_determinations`` spells
``f2ip1[i=…]`` and ``ruling_{side}[i=…]`` to look two up, until ROADMAP item 10's schedule
does).  That member is the one check: :func:`relations` reads it off the walk, and a degree
vector (:func:`family_vectors`; :func:`evaluate` for one member of :data:`TEMPLATES`, as the
``families`` command asks) runs it first.  Each family's geometry is at its template.
:func:`unknown` maps a label to its unknown's name.  A test checks each self-intersection
entry against :mod:`hypdiv.surfcalc` for every genus the CLI accepts.

The assembly (:func:`assemble_system`: the solver solves it, ``cli.render_relation`` prints
it) is those relations plus the identification relations: at the top boundary index two
formal labels name one irreducible divisor, and the printed closed forms give both one value,
so ``b_t_0 = b_t_1`` (odd g) and its like are forced.  The f2ip1 member i = 0 (target g12)
pins the auxiliary ``b_0_1``; at g = 2 it makes delta_{1,1} computable.

Degrees on out-of-range eta labels (eta_{0,m}; eta_{g/2,m} for even g) are kept, never dropped;
:func:`is_auxiliary` tells them apart.  For n = 2 the marking "1" stands for the invariant pair
1a/1b, and a degree that a relation constrains only through psi_1 + psi_2 is recorded against
:data:`PSI_SUM`.  Like the auxiliaries and "1", it is a key that ``basis.is_valid`` refuses.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Callable, Mapping, NamedTuple

from . import basis as B
from .basis import BasisElement, DomainError

WEIERSTRASS = "weierstrass"
G12 = "g12"

HORIZONTAL = "horizontal"
DIAGONAL = "diagonal"
LOW = "low"
HIGH = "high"


PSI_SUM = tuple.__new__(BasisElement, ("psi_sum", 0, ""))  # the invariant psi_1 + psi_2


def is_auxiliary(label: BasisElement, g: int) -> bool:
    """Whether ``label`` is an eta label whose index is outside eta_range(g)."""
    return label.kind == B.ETA and label.index not in B.eta_range(g)


# n -> the markings of a boundary label in a degree vector; "1" is the invariant 1a/1b
_MARKINGS = {1: B.MARKINGS[1], 2: B.MARKINGS[2] + ("1",)}


def _check_label(label: BasisElement, g: int, n: int) -> None:
    """Accept a label a degree vector on (g, n) may carry, else a DomainError: a boundary
    label by its bounds (an eta below or above eta_range(g), up to g // 2, is an auxiliary),
    PSI_SUM, or a label in ``basis.GLOBALS[n]``.  The caller has checked the ambient."""
    if type(label) is BasisElement and type(label[1]) is int:
        kind, index, marking = label
        if kind == B.DELTA or kind == B.ETA:
            if (0 if kind == B.ETA else 1) <= index <= g // 2 and marking in _MARKINGS[n]:
                return
        elif label in B.GLOBALS[n] or label == PSI_SUM:
            return
    raise DomainError(f"{label!r} is not a valid class for (g={g}, n={n})")


class DegreeVector(NamedTuple):
    """Exact degrees of every generator and of the target on one family.

    ``params`` has no default: a shared default dict would be one object
    for every vector.
    """

    g: int
    n: int
    target: str
    target_degree: int
    degrees: dict[BasisElement, int]
    family: str
    params: dict

    def degree(self, label: BasisElement) -> int:
        return self.degrees.get(label, 0)


class CatalogError(RuntimeError):
    """A catalog formula produced a non-integer degree: a catalog bug, not bad input."""


_PSI_1, _PSI_2, _ETA_IRR, _DELTA_0_2 = B.GLOBALS[2]  # built once: a label is immutable


class Shifted(NamedTuple):
    """The boundary label (kind, i + offset, marking) of the member at index i."""

    kind: str
    offset: int
    marking: str


def _label_at(label, i) -> BasisElement:
    """The label that a template entry puts on the member at index ``i``."""
    if type(label) is Shifted:
        return tuple.__new__(BasisElement, (label.kind, i + label.offset, label.marking))
    return label


_SOLE = lambda g: (None,)  # the indices of a one-member family: its member is at i = None


class Template(NamedTuple):
    """One family for every genus: ``entries`` pairs each label (fixed, or
    :class:`Shifted` by i) with its degree formula, in degree-vector order.

    ``j`` gives the moving genus from (g, i), None meaning j = i; ``indices``
    gives the member indices at genus g.  A family left at ``_SOLE`` has one
    member, at i = j = None, with the fixed ``params`` (name, value) pairs.
    """

    family: str
    n: int
    target_degree: Callable
    entries: tuple
    indices: Callable = _SOLE
    j: Callable | None = None
    params: tuple = ()


_ZERO, _ONE = (lambda g, i, j: 0), (lambda g, i, j: 1)
_PENCIL = lambda g, i, j: 4 * (2 * g + 1)  # the discriminant of a bidegree-(2, g+1) pencil
_MOVING = {LOW: None, HIGH: lambda g, i: g - i}  # side -> the genus j of the moving part


def _glued(section: str, side: str, n: int) -> Template:
    """A moving genus-i cover with a Weierstrass section glued to a fixed curve of genus g-i;
    high puts the constant marks on the moving component (delta_{i,1} or delta_{i,2}), low not."""
    # nodal fibers meet eta_irr twice; two fibers meet eta_{i-1,.} (low) or eta_{i,.} (high)
    m = "0" if side == LOW else "1" if n == 1 else "2"
    delta, eta = Shifted(B.DELTA, 0, m), Shifted(B.ETA, -1 if side == LOW else 0, m)
    if section == HORIZONTAL:  # attached along a ruling: self-intersection -1
        degrees = (lambda g, i, j: -1), (lambda g, i, j: 8 * j), (lambda g, i, j: 2)
    else:  # along a bidegree-(1,1) ruling: self-intersection -j
        degrees = (lambda g, i, j: -j), (lambda g, i, j: 4 * j), (lambda g, i, j: 2 * j + 2)
    entries = tuple(zip((delta, _ETA_IRR, eta), degrees))
    return Template(f"glued_{section}_{side}", n, _ZERO, entries, B.delta_range, _MOVING[side])


def _ruling(side: str) -> Template:
    """The glued family with a marked ruling after a degree-2 base change: it lies in
    delta_{i,1}, misses the target, and pins only psi_1 + psi_2."""
    entries = (  # the base change doubles every degree of the glued family
        (Shifted(B.DELTA, 0, "1"), lambda g, i, j: -2),
        (Shifted(B.ETA, -1 if side == LOW else 0, "1"), lambda g, i, j: 4),
        (_ETA_IRR, lambda g, i, j: 16 * j), (PSI_SUM, lambda g, i, j: 2),
    )
    return Template(f"ruling_{side}", 2, _ZERO, entries, B.delta_range, _MOVING[side])


# n -> groups of templates that share their index range, in assembly order; the
# members of a group run i-major: each template at the first i, then at the next
CATALOG: dict[int, tuple[tuple[Template, ...], ...]] = {
    1: (
        (  # C fixed, the diagonal section of C x C: it meets each of the 2g+2 Weierstrass
            # points once, and deg psi = -(diagonal)^2 = 2g - 2
            Template("diagonal", 1, lambda g, i, j: 2 * g + 2, (
                (_PSI_1, lambda g, i, j: 2 * g - 2),
            )),
            # a general bidegree-(2, g+1) pencil on P^1 x P^1 marked at base points: each psi
            # degree is 1, and two base points never share a ruling (target degree 0 for n = 2)
            Template("quadric_pencil", 1, _ONE, ((_PSI_1, _ONE), (_ETA_IRR, _PENCIL))),
        ),
        tuple(_glued(s, side, 1) for s in (HORIZONTAL, DIAGONAL) for side in (LOW, HIGH)),
    ),
    2: (
        (  # C x C blown up at one non-Weierstrass diagonal point (single) or at the 2g+2
            # Weierstrass ones (weierstrass), with two sections
            Template("two_point_single", 2, _ONE, (
                (_PSI_1, _ONE), (_PSI_2, lambda g, i, j: 2 * g - 1), (_DELTA_0_2, _ONE),
            )),
            Template("two_point_weierstrass", 2, lambda g, i, j: 2 - 2 * g, (
                (_PSI_1, lambda g, i, j: 4 * g), (_PSI_2, lambda g, i, j: 4 * g),
                (_DELTA_0_2, lambda g, i, j: 2 * g + 2),
            )),
            Template("quadric_pencil", 2, _ZERO, (
                (_PSI_1, _ONE), (_PSI_2, _ONE), (_ETA_IRR, _PENCIL),
            ), params=(("marks", 2),)),
        ),
        tuple(_glued(s, side, 2) for s in (HORIZONTAL, DIAGONAL) for side in (LOW, HIGH)),
        (_ruling(LOW), _ruling(HIGH)),
        (  # a pencil branched along 2i+2 concurrent (1,1)-curves and 2g-2i rulings; member
            # i = 0 pins the auxiliary eta_{0,1}, which closes the system at g = 2
            Template("f2ip1", 2, _ZERO, (
                (_PSI_1, lambda g, i, j: 2 * (i + 1)), (_PSI_2, lambda g, i, j: 2),
                (Shifted(B.ETA, 0, "1"), lambda g, i, j: 2),
                (_ETA_IRR, lambda g, i, j: 4 * (i + 1) * (4 * g - 2 * i + 1)),
            ), lambda g: range((g - 1) // 2 + 1)),
        ),
    ),
}

# (family, n) -> its template, where the ``families`` command looks a family up by name
TEMPLATES = {(t.family, t.n): t for groups in CATALOG.values() for group in groups for t in group}


def evaluate(template: Template, g: int, i: int | None = None) -> DegreeVector:
    """The degree vector of the member at index ``i`` (None for a one-member family), once the
    index is checked, from the template's :func:`_resolve`.  The caller checks the ambient."""
    indices = template.indices(g)
    if template.indices is _SOLE and i is not None:
        raise DomainError(f"{template.family} has one member, at no index: i={i!r}")
    if template.indices is not _SOLE and (type(i) is not int or i not in indices):
        raise DomainError(f"i={i!r} out of range {indices.start}..{indices.stop - 1} for g={g}")
    return _resolve(template, g, template.n, indices)[1](i)


def marked_points(target: str) -> int:
    """Number of marked points of the stack on which ``target`` lives."""
    if target not in (WEIERSTRASS, G12):
        raise DomainError(f"unknown target {target!r}")
    return 1 if target == WEIERSTRASS else 2


_HEADS = {B.DELTA: "a_", B.ETA: "b_"}  # boundary kind -> head of its unknowns a_i_m, b_i_m


@cache  # each name is spelled once per process; its callers have checked the arguments
def _spelled(kind: str, index: int, slot: str) -> str:
    return f"{_HEADS[kind]}{index}_{slot}"


@lru_cache(maxsize=None, typed=True)  # typed: True or 1.0 misses index 1; unhashable: a TypeError
def boundary_unknown(kind: str, index: int, slot: str) -> str:
    """The unknown ``a_i_m`` (delta) or ``b_i_m`` (eta), i an ``int`` >= 0 and m in 0..2."""
    if kind not in _HEADS or type(index) is not int or index < 0 or slot not in ("0", "1", "2"):
        raise DomainError(f"no boundary unknown of kind {kind!r}, index {index!r}, slot {slot!r}")
    return _spelled(kind, index, slot)


_GLOBAL_LABELS = (*B.GLOBALS[2], PSI_SUM)  # the labels that name a global unknown
# kind -> (solver rank, unknown) of its labels; a boundary kind names its unknowns by index
_ENTRIES = {B.PSI: (0, "d"), PSI_SUM.kind: (0, "d"), B.ETA_IRR: (1, "c"),
            B.DELTA_0_2: (2, "a_0_2"), B.DELTA: (3, None), B.ETA: (4, None)}


def unknown(label: BasisElement) -> str:
    """The one map from a label to the name of its rational unknown: ``d`` for psi classes,
    ``c`` for eta_irr, ``a_0_2`` for delta_{0,2}, and :func:`boundary_unknown` of a delta or
    eta label at its marking's digit (1a, 1b and the invariant "1" share ``a_i_1``).  Any
    other label is a DomainError: not a 3-tuple, a kind that is no ``str``, a boundary label
    whose index is no ``int`` >= 0 or whose marking is outside ``_MARKINGS[2]``, or another
    label outside ``basis.GLOBALS[2]`` + PSI_SUM."""
    if isinstance(label, tuple) and len(label) == 3:
        kind, i, m = label
        if type(kind) is str and kind in _HEADS and type(i) is int and m in _MARKINGS[2]:
            return boundary_unknown(kind, i, m[0])
        if label in _GLOBAL_LABELS:
            return _ENTRIES[kind][1]
    raise DomainError(f"{label!r} names no unknown")


def formal_unknowns(g: int, n: int) -> list[str]:
    """The unknowns of ``formal_elements`` in solver order, each once, built without a label:
    those of ``basis.GLOBALS[n]``, then a_i_m, i in delta_range(g), and b_i_m, i in eta_range(g)."""
    B.check_ambient(g, n)
    slots = dict.fromkeys(m[0] for m in B.MARKINGS[n])  # 1a and 1b share the slot 1
    spots = [(B.DELTA, i) for i in B.delta_range(g)] + [(B.ETA, i) for i in B.eta_range(g)]
    names = dict.fromkeys(map(unknown, B.GLOBALS[n]))
    return [*names, *(boundary_unknown(kind, i, m) for kind, i in spots for m in slots)]


def formal_expression(g: int, n: int, values: Mapping[str, Fraction]) -> "B.DivisorExpression":
    """The formal-view expression giving every label its unknown's value, zeros left out."""
    terms = {e: v for e in B.formal_elements(g, n) if (v := values[unknown(e)])}
    return B.DivisorExpression(g, n, terms)


class Relation:
    """One linear equation on the unknowns, with integer entries.  ``coeffs`` is kept as
    given, or copied without its zeros (an exactlin row holds none); empty, a DomainError."""

    __slots__ = ("coeffs", "rhs", "provenance")

    def __init__(self, coeffs: dict[str, int], rhs: int, provenance: str):
        if not isinstance(coeffs, dict):
            raise TypeError(f"relation {provenance!r}: coefficients {coeffs!r} are not a dict")
        if not all(coeffs.values()):
            coeffs = {k: v for k, v in coeffs.items() if v}
        if not coeffs:
            raise DomainError(f"relation {provenance!r} has no nonzero coefficient")
        self.coeffs, self.rhs, self.provenance = coeffs, rhs, provenance

    def __eq__(self, other):
        if type(other) is not Relation:
            return NotImplemented
        return (self.coeffs, self.rhs, self.provenance) == (other.coeffs, other.rhs, other.provenance)

    def __repr__(self):
        return f"Relation(coeffs={self.coeffs!r}, rhs={self.rhs!r}, provenance={self.provenance!r})"


@cache
def _pattern(template: Template) -> tuple:
    """The genus-free part of a template's relations, built once per template and without a
    label: (kind, offset, slot, degree, entry) per entry, ``entry`` its label, in solver order
    (a stable sort by the kind's rank in ``_ENTRIES``, the index or a :class:`Shifted` offset,
    and the marking: etas come last).  The member at i names the unknown ``kind``, a fixed
    label's, when offset is None, else ``boundary_unknown(kind, i + offset, slot)``.  Two
    entries that can put one label on a member (equal, or Shifted of a fixed label's kind
    and marking) are a CatalogError; those that share an unknown (psi_1 and psi_2) add up."""
    labels = [label for label, _ in template.entries]
    fixed = {label[::2] for label in labels if type(label) is not Shifted}  # (kind, marking)
    if len(set(labels)) < len(labels) or any(e[::2] in fixed for e in labels if type(e) is Shifted):
        raise CatalogError(f"{template.family}: two entries can put one label on a member")
    order = lambda entry: (_ENTRIES[entry[0].kind][0], *entry[0][1:])  # index or offset, marking
    return tuple(
        ((*e[:2], e.marking[0]) if type(e) is Shifted else (unknown(e), None, None)) + (d, e)
        for e, d in sorted(template.entries, key=order)
    )


def _resolve(template: Template, g: int, n: int, indices):
    """The pair (member, vector) of functions of the member index i at genus g.  ``member``
    gives the relation and is the one check of a member; ``vector`` calls it, then keys the
    nonzero degrees by label, so the assembly and :func:`evaluate` refuse the same members alike.

    On top of :func:`_pattern`, per genus only the labels are checked: ``_check_label`` at
    both ends of ``indices`` covers every member, as label indices are i plus a constant and
    markings are fixed.  Each member computes each degree once, in solver order, then the
    target's; the first non-``int`` (zero too) is a CatalogError naming its label or the target."""
    pattern, target, moving = _pattern(template), template.target_degree, template.j
    for i in (indices[0], indices[-1]):
        for label, _ in template.entries:
            _check_label(_label_at(label, i), g, n)
    inner = ",".join(f"{k}={v}" for k, v in sorted(template.params))  # a one-member family
    sole = f"{template.family}[{inner}]" if inner else template.family  # is named by its params
    fixed = sole if template.indices is _SOLE else None

    def member(i):
        coeffs, j = {}, i if moving is None else moving(g, i)
        for kind, offset, slot, degree, entry in pattern:
            v = degree(g, i, j)
            if type(v) is not int:
                label = _label_at(entry, i)
                odd = f"{v!r} on {label.kind if label == PSI_SUM else repr(label)}"
                raise CatalogError(f"{template.family}: non-integer degree {odd}")
            if v:
                key = kind if offset is None else _spelled(kind, i + offset, slot)
                coeffs[key] = coeffs.get(key, 0) + v
        rhs = target(g, i, j)
        if type(rhs) is not int:
            raise CatalogError(f"{template.family}: non-integer degree {rhs!r} on the target")
        return Relation(coeffs, rhs, fixed or f"{template.family}[i={i}]")

    def vector(i):  # degree-vector order, each params its own dict
        rhs, j = member(i).rhs, i if moving is None else moving(g, i)
        degrees = {_label_at(e, i): v for e, degree in template.entries if (v := degree(g, i, j))}
        params = dict(template.params) if fixed else {"i": i}
        divisor = WEIERSTRASS if n == 1 else G12
        return DegreeVector(g, n, divisor, rhs, degrees, template.family, params)

    return member, vector


def _walk(g: int, n: int, vectors: bool) -> list:
    """Each cataloged member on (g, n), in assembly order: its relation, or its degree vector
    if ``vectors``, from one :func:`_resolve` per template.  The caller checks the ambient."""
    out = []
    for group in CATALOG[n]:
        indices = group[0].indices(g)
        builds = [_resolve(t, g, n, indices)[vectors] for t in group] if indices else ()
        out += [build(i) for i in indices for build in builds]
    return out


def relations(g: int, n: int) -> list[Relation]:
    """Each cataloged member's relation, in assembly order; the caller checks the ambient (g, n)."""
    return _walk(g, n, False)


def identification_relations(g: int, target: str) -> list[Relation]:
    """Symmetric constraints for formal label pairs naming one divisor."""
    names = [(unknown(t), unknown(c)) for t, c in B.identified_pairs(g, marked_points(target))]
    return [Relation({c: -1, t: 1}, 0, f"identification[{t}={c}]") for t, c in names if t != c]


def assemble_system(g: int, target: str) -> list[Relation]:
    """All relations for (g, target), in deterministic order, each form in solver order."""
    n = marked_points(target)
    B.check_ambient(g, n)
    return relations(g, n) + identification_relations(g, target)


def family_vectors(g: int, target: str) -> list[DegreeVector]:
    """The degree vector of every member entering the (g, target) system, read off the walk."""
    n = marked_points(target)
    B.check_ambient(g, n)
    return _walk(g, n, True)
