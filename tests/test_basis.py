"""Generator enumeration, identifications, and expressions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypdiv import basis as B
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
    "bad", [("delta", 1), ("delta", 1, "0", "x"), "delta", 5, ("delta", "1", "0")]
)
def test_from_terms_rejects_malformed_label_with_domain_error(bad):
    # the shape is checked before the range, so no unpacking or comparison error leaks
    with pytest.raises(DomainError) as caught:
        DivisorExpression.from_terms(4, 1, [(bad, 1)])
    assert type(caught.value) is DomainError


@pytest.mark.parametrize("bad", [delta(1.0, "0"), delta(True, "0"), eta(1.0, "0")])
def test_non_int_index_is_domain_error(bad):
    # an index is an int, and a bool is not one: 1.0 and True name no generator
    for g, n in ((4, 1), (5, 1), (4, 2)):
        assert B.is_valid(bad, g, n) is False
        for call in (
            lambda: DivisorExpression.from_terms(g, n, [(bad, 1), (delta(1, "0"), 1)]),
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


def _expr(g, n, items):
    return DivisorExpression.from_terms(g, n, items)


def test_cancellation_drops_terms():
    a = _expr(2, 1, [(psi(1), Fraction(3)), (eta_irr(), 1), (psi(1), Fraction(-3))])
    assert a.terms == {eta_irr(): 1}


def test_non_rational_coefficient_rejected():
    for bad in (0.1, 0.5, "1/3"):
        with pytest.raises(TypeError) as excinfo:
            _expr(3, 1, [(delta(1, "0"), bad)])
        assert "delta_1_0" in str(excinfo.value) and repr(bad) in str(excinfo.value)
    # a zero float is still a float
    with pytest.raises(TypeError):
        _expr(3, 1, [(psi(1), 0.0)])
    e = _expr(3, 1, [(psi(1), 2), (eta_irr(), Fraction(1, 3))])
    assert e.terms == {psi(1): 2, eta_irr(): Fraction(1, 3)}
    assert all(type(v) is Fraction for v in e.terms.values())


def test_canonical_view_sums_identified_coefficients():
    e = _expr(2, 1, [(delta(1, "0"), Fraction(1, 3)), (delta(1, "1"), Fraction(1, 6))])
    assert e.canonical().terms == {delta(1, "0"): Fraction(1, 2)}


def test_canonical_view_n2_even_genus():
    e = _expr(
        2, 2, [(delta(1, "0"), 1), (delta(1, "2"), 2), (delta(1, "1a"), 3), (delta(1, "1b"), 3)]
    )
    merged = e.canonical()
    assert merged.terms[delta(1, "0")] == 3
    assert merged.terms[delta(1, "1a")] == 6  # 1a and 1b name one divisor


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
