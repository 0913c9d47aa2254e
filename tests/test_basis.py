"""Generator enumeration, identifications, and expressions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypdiv import basis as B
from hypdiv import cli
from hypdiv.basis import (
    BasisElement,
    DivisorExpression,
    DomainError,
    basis_dimension,
    canonicalize,
    delta,
    enumerate_basis,
    eta,
    eta_irr,
    psi,
)


def test_enumerate_g2_n1():
    assert enumerate_basis(2, 1) == [psi(1), eta_irr(), delta(1, "0")]


def test_enumerate_g3_n1():
    assert enumerate_basis(3, 1) == [
        psi(1),
        eta_irr(),
        delta(1, "0"),
        delta(1, "1"),
        eta(1, "0"),
    ]


def test_enumerate_g4_n1():
    assert enumerate_basis(4, 1) == [
        psi(1),
        eta_irr(),
        delta(1, "0"),
        delta(1, "1"),
        delta(2, "0"),
        eta(1, "0"),
        eta(1, "1"),
    ]


def test_enumerate_g2_n2_handles_both_identifications():
    assert enumerate_basis(2, 2) == [
        psi(1),
        psi(2),
        eta_irr(),
        delta(1, "0"),
        delta(1, "1a"),
        B.delta_0_2(),
    ]


def test_dimension_examples():
    assert basis_dimension(2, 1) == 3
    assert basis_dimension(3, 1) == 5
    assert basis_dimension(4, 1) == 7


def test_dimension_closed_formula_n1():
    for g in range(2, 101):
        even = 1 if g % 2 == 0 else 0
        expected = 2 + (2 * (g // 2) - even) + (2 * ((g - 1) // 2) - (1 - even))
        assert basis_dimension(g, 1) == expected


def test_dimension_matches_enumeration_n2():
    for g in range(2, 101):
        assert basis_dimension(g, 2) == len(enumerate_basis(g, 2))


def test_genus_below_two_rejected():
    with pytest.raises(DomainError):
        enumerate_basis(1, 1)


def test_is_valid_checks_the_ambient():
    # the predicate is total: an ambient that is no stack raises, whatever the label
    for g, n in ((1, 1), (3, 3)):
        with pytest.raises(DomainError, match=f"got {g if g < 2 else n}$"):
            B.is_valid(psi(1), g, n)


def test_non_int_ambient_rejected():
    for g, n in ((2.0, 1), (3, 2.0), (Fraction(4), 2)):
        with pytest.raises(DomainError, match="must be int"):
            B.check_ambient(g, n)
    # integer input keeps its messages
    with pytest.raises(DomainError, match=r"^genus must be >= 2, got 1$"):
        B.check_ambient(1, 1)
    with pytest.raises(DomainError, match=r"^number of marked points must be 1 or 2, got 3$"):
        B.check_ambient(2, 3)


def test_canonicalize_examples():
    assert canonicalize(delta(1, "1"), 2, 1) == delta(1, "0")
    assert canonicalize(eta(1, "1"), 3, 1) == eta(1, "0")
    assert canonicalize(delta(1, "0"), 4, 1) == delta(1, "0")
    assert canonicalize(delta(1, "2"), 2, 2) == delta(1, "0")
    assert canonicalize(delta(1, "1b"), 2, 2) == delta(1, "1a")
    assert canonicalize(eta(1, "2"), 3, 2) == eta(1, "0")


def _reference_identified_pairs(g, n):
    # the four cases as the top-index identifications are stated one by one
    if n == 1 and g % 2 == 0:
        return [(delta(g // 2, "1"), delta(g // 2, "0"))]
    if n == 1:
        return [(eta((g - 1) // 2, "1"), eta((g - 1) // 2, "0"))]
    if g % 2 == 0:
        return [
            (delta(g // 2, "2"), delta(g // 2, "0")),
            (delta(g // 2, "1b"), delta(g // 2, "1a")),
        ]
    return [
        (eta((g - 1) // 2, "2"), eta((g - 1) // 2, "0")),
        (eta((g - 1) // 2, "1b"), eta((g - 1) // 2, "1a")),
    ]


def test_identified_pairs_match_the_four_case_reference():
    for g in range(2, 102):
        for n in (1, 2):
            assert B.identified_pairs(g, n) == _reference_identified_pairs(g, n), (g, n)


def test_canonicalize_out_of_range_rejected():
    with pytest.raises(DomainError):
        canonicalize(delta(2, "0"), 2, 1)
    with pytest.raises(DomainError):
        canonicalize(B.delta_0_2(), 3, 1)


def test_malformed_label_is_domain_error():
    # a label that is not a (kind, index, marking) tuple is invalid, not an unpacking error
    for bad in (("delta", 1), ("delta", 1, "0", "x"), (), "eta", None, 5):
        assert not B.is_valid(bad, 4, 1)
        with pytest.raises(DomainError) as caught:
            canonicalize(bad, 4, 1)
        assert type(caught.value) is DomainError


@pytest.mark.parametrize(
    "bad", [("delta", 1), ("delta", 1, "0", "x"), "delta", 5, ("delta", "1", "0"), delta(7, "0")]
)
def test_from_terms_rejects_malformed_label_with_domain_error(bad):
    # written by output_record: the shape is checked before the range, so no unpacking
    # or comparison error leaks; a zero coefficient does not excuse the label
    for coeff in (1, 0, Fraction(0)):
        with pytest.raises(DomainError) as caught:
            _written(DivisorExpression(4, 1, {bad: coeff}))
        assert type(caught.value) is DomainError


@pytest.mark.parametrize("bad", [delta(1.0, "0"), delta(True, "0"), eta(1.0, "0")])
def test_non_int_index_is_domain_error(bad):
    # an index is an int, and a bool is not one: 1.0 and True name no generator
    for g, n in ((4, 1), (5, 1), (4, 2)):
        assert B.is_valid(bad, g, n) is False
        for call in (
            lambda: _written(DivisorExpression(g, n, {eta_irr(): 1, bad: 1})),
            lambda: _written(DivisorExpression(g, n, {bad: 0, eta_irr(): 1})),
            lambda: canonicalize(bad, g, n),
            lambda: B.validate(bad, g, n),
        ):
            with pytest.raises(DomainError) as caught:
                call()
            assert type(caught.value) is DomainError


ambient = st.tuples(st.integers(min_value=2, max_value=30), st.sampled_from((1, 2)))


@settings(max_examples=80, deadline=None)
@given(ambient, st.data())
def test_canonicalize_idempotent(gn, data):
    g, n = gn
    e = data.draw(st.sampled_from(B.formal_elements(g, n)))
    once = canonicalize(e, g, n)
    assert canonicalize(once, g, n) == once


def test_basis_elements_are_canonical_and_distinct():
    for g in range(2, 40):
        for n in (1, 2):
            elements = enumerate_basis(g, n)
            assert len(set(elements)) == len(elements)
            assert all(canonicalize(e, g, n) == e for e in elements)


# marked points -> the divisor whose record is written on that ambient
TARGET = {1: "weierstrass", 2: "g12"}


def _written(expr, view="formal"):
    """The terms of ``expr``'s ``coeffs`` record in ``view``: class -> value."""
    record = cli.output_record(expr.g, TARGET[expr.n], view, expr)
    return {t["class"]: Fraction(t["num"], t["den"]) for t in record["terms"]}


def test_cancellation_drops_terms():
    # a zero coefficient, and a canonical sum of zero, is written as no term
    expr = DivisorExpression(2, 1, {psi(1): Fraction(0), eta_irr(): 1, delta(1, "1"): 0})
    for view in ("formal", "canonical"):
        assert _written(expr, view) == {"eta_irr": 1}


def test_non_rational_coefficient_rejected():
    # a bool is an int subclass but no coefficient, as for labels and LinearSystem.add_row
    for bad in (0.1, 0.5, "1/3", True, False):
        with pytest.raises(TypeError) as excinfo:
            _written(DivisorExpression(3, 1, {delta(1, "0"): bad}))
        assert "delta_1_0" in str(excinfo.value) and repr(bad) in str(excinfo.value)
    # a zero float is still a float
    with pytest.raises(TypeError):
        _written(DivisorExpression(3, 1, {psi(1): 0.0}))
    e = DivisorExpression(3, 1, {psi(1): 2, eta_irr(): Fraction(1, 3)})
    assert _written(e) == {"psi": 2, "eta_irr": Fraction(1, 3)}


def _reference_record(g, n, view, terms):
    # the terms checked one by one, coefficient first, the label against the formal
    # labels with an int index; then each label of the view given its summed value
    from numbers import Rational

    from hypdiv import __version__

    formal = B.formal_elements(g, n)
    for e, coeff in terms.items():
        if type(coeff) is bool or not isinstance(coeff, Rational):
            raise TypeError(f"coefficient of {e!r} must be rational, got {coeff!r}")
        if not (isinstance(e, tuple) and len(e) == 3 and type(e[1]) is int and e in formal):
            raise DomainError(f"{e!r} is not a formal label at (g={g}, n={n})")
    twins = dict(B.identified_pairs(g, n))
    order = formal if view == "formal" else [e for e in formal if e not in twins]
    value = {e: Fraction(terms.get(e, 0)) for e in order}
    for twin, e in twins.items() if view == "canonical" else ():
        value[e] += Fraction(terms.get(twin, 0))
    record_terms = [
        {"class": e.name(n), "num": v.numerator, "den": v.denominator}
        for e, v in value.items()
        if v
    ]
    metadata = {
        "tool_version": __version__,
        "basis_order": [e.name(n) for e in order],
        "identified": [f"{t.name(n)} = {e.name(n)}" for t, e in twins.items()],
    }
    record = {"genus": g, "divisor": TARGET[n], "view": view, "terms": record_terms}
    return {**record, "metadata": metadata}


_coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
_bad_labels = st.sampled_from(
    [delta(99, "0"), eta(0, "0"), psi(3), ("delta", 1), delta(1.0, "0"), delta(True, "0")]
)
_bad_coefficients = st.sampled_from([0.5, 0.0, "1", True, False, None])


@settings(max_examples=150, deadline=None)
@given(ambient, st.data())
def test_output_record_matches_the_reference_built_from_the_terms(gn, data):
    g, n = gn
    pool = data.draw(st.lists(st.sampled_from(B.formal_elements(g, n)), min_size=1, max_size=4))
    items = data.draw(st.lists(st.tuples(st.sampled_from(pool), _coefficients), max_size=6))
    if data.draw(st.booleans()):
        # a bad label (with any coefficient, zero too), a bad coefficient, or both, anywhere
        bad = data.draw(
            st.one_of(
                st.tuples(_bad_labels, _coefficients),
                st.tuples(st.sampled_from(pool), _bad_coefficients),
                st.tuples(_bad_labels, _bad_coefficients),
            )
        )
        items.insert(data.draw(st.integers(min_value=0, max_value=len(items))), bad)
    terms, view = dict(items), data.draw(st.sampled_from(["formal", "canonical"]))
    target = TARGET[n]
    try:
        want = _reference_record(g, n, view, terms)
    except (TypeError, DomainError) as exc:
        with pytest.raises(type(exc)) as caught:
            cli.output_record(g, target, view, DivisorExpression(g, n, terms))
        assert type(caught.value) is type(exc)
        return
    assert cli.output_record(g, target, view, DivisorExpression(g, n, terms)) == want


def test_canonical_view_sums_identified_coefficients():
    e = DivisorExpression(2, 1, {delta(1, "0"): Fraction(1, 3), delta(1, "1"): Fraction(1, 6)})
    assert _written(e, "canonical") == {"delta_1_0": Fraction(1, 2)}
    cancelled = DivisorExpression(
        2, 1, {delta(1, "0"): Fraction(1, 3), delta(1, "1"): Fraction(-1, 3)}
    )
    assert _written(cancelled, "canonical") == {}  # a zero sum is dropped


def test_canonical_view_n2_even_genus():
    e = DivisorExpression(
        2, 2, {delta(1, "0"): 1, delta(1, "2"): 2, delta(1, "1a"): 3, delta(1, "1b"): 3}
    )
    merged = _written(e, "canonical")
    assert merged["delta_1_0"] == 3
    assert merged["delta_1_1a"] == 6  # 1a and 1b name one divisor
    assert "delta_1_2" not in merged and "delta_1_1b" not in merged


def test_names_follow_serialization_grammar():
    assert psi(1).name(1) == "psi"
    assert psi(2).name(2) == "psi2"
    assert delta(2, "1a").name(2) == "delta_2_1a"
    assert eta(1, "0").name(1) == "eta_1_0"
    assert B.delta_0_2().name(2) == "delta_0_2"


def test_labels_are_immutable_tuples_with_their_names():
    e = delta(2, "1a")
    assert isinstance(e, tuple) and e == ("delta", 2, "1a") == BasisElement("delta", 2, "1a")
    assert hash(e) == hash(BasisElement("delta", 2, "1a")) == hash(("delta", 2, "1a"))
    assert (e.kind, e.index, e.marking) == ("delta", 2, "1a")
    assert BasisElement("eta_irr") == eta_irr() == ("eta_irr", 0, "")
    assert e != delta(2, "1b") and psi(1) != psi(2)
    assert [repr(x) for x in (psi(1), psi(2), eta_irr(), B.delta_0_2(), e, eta(1, "0"))] == [
        "psi(1)", "psi(2)", "eta_irr", "delta_0_2", "delta_2_1a", "eta_1_0",
    ]
    assert [x.name(2) for x in (psi(2), eta_irr(), e)] == ["psi2", "eta_irr", "delta_2_1a"]
    for attribute in ("kind", "index", "marking", "other"):
        with pytest.raises(AttributeError):
            setattr(e, attribute, 1)
    assert e == ("delta", 2, "1a")
    # the constructors skip NamedTuple.__new__ but build the same label
    for built, plain in (
        (psi(), ("psi", 1, "")),
        (psi(2), ("psi", 2, "")),
        (eta_irr(), ("eta_irr", 0, "")),
        (B.delta_0_2(), ("delta_0_2", 0, "")),
        (delta(2, "1a"), ("delta", 2, "1a")),
        (eta(1, 0), ("eta", 1, "0")),
    ):
        assert type(built) is BasisElement and built == plain == BasisElement(*plain)
        assert hash(built) == hash(plain)


# non-boundary labels with an index or marking that no class has
STRAY = [("eta_irr", 7, "q"), ("psi", 1, "zz"), ("delta_0_2", 3, "1a")]


def test_is_valid_is_exactly_membership_in_the_formal_labels():
    kinds = (B.PSI, B.ETA_IRR, B.DELTA_0_2, B.DELTA, B.ETA, "zeta")
    markings = ("", "0", "1", "1a", "1b", "2", "3", "q", "zz")
    for g in range(2, 13):
        for n in (1, 2):
            formal = set(B.formal_elements(g, n))
            grid = [BasisElement(k, i, m) for k in kinds for i in range(-1, 9) for m in markings]
            assert {BasisElement(*e) for e in STRAY} <= set(grid)
            for e in grid:
                assert B.is_valid(e, g, n) == (e in formal), (e, g, n)


@pytest.mark.parametrize("stray", STRAY)
def test_a_stray_global_label_is_refused_and_named(stray):
    from hypdiv import families as F

    e = BasisElement(*stray)
    assert repr(e) == f"BasisElement{stray!r}"  # not the name of the class it imitates
    for g in range(2, 13):
        for n in (1, 2):
            for call in (
                lambda: _written(DivisorExpression(g, n, {e: 5, eta_irr(): 1})),
                lambda: canonicalize(e, g, n),
                lambda: F._check_label(e, g, n),
            ):
                with pytest.raises(DomainError) as caught:
                    call()
                assert type(caught.value) is DomainError and repr(e) in str(caught.value)


def test_globals_and_markings_are_the_tables_the_labels_follow():
    assert B.GLOBALS == {1: (psi(1), eta_irr()), 2: (psi(1), psi(2), eta_irr(), B.delta_0_2())}
    assert B.MARKINGS == {1: ("0", "1"), 2: ("0", "1a", "1b", "2")}
    for n, globals_ in B.GLOBALS.items():
        for g in (4, 5):
            formal = B.formal_elements(g, n)
            assert [e for e in formal if e.kind not in (B.DELTA, B.ETA)] == list(globals_)
    assert [e.name(1) for e in B.GLOBALS[1]] == ["psi", "eta_irr"]
    assert [e.name(2) for e in B.GLOBALS[2]] == ["psi1", "psi2", "eta_irr", "delta_0_2"]


def test_a_label_writes_its_latex_symbol():
    assert [e.latex(1) for e in B.GLOBALS[1]] == [r"\psi", r"\eta_{\mathrm{irr}}"]
    assert [e.latex(2) for e in B.GLOBALS[2]] == [
        r"\psi_{1}", r"\psi_{2}", r"\eta_{\mathrm{irr}}", r"\delta_{0,2}"
    ]
    symbols = [r"\delta_{3,0}", r"\delta_{3,\{1\}}", r"\delta_{3,\{2\}}", r"\delta_{3,2}"]
    assert [delta(3, m).latex(2) for m in B.MARKINGS[2]] == symbols
    assert [eta(2, m).latex(1) for m in B.MARKINGS[1]] == [r"\eta_{2,0}", r"\eta_{2,1}"]
