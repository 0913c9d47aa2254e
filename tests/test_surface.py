"""Typed failure over the public surface: every public function, given arguments
of any common type, returns or raises one of the package's typed errors."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypdiv
from hypdiv import cli
from hypdiv import families as F
from hypdiv.basis import DomainError
from hypdiv.exactlin import StructuralError
from hypdiv.surfcalc import LatticeError

FUNCTIONS = [
    getattr(hypdiv, name)
    for name in hypdiv.__all__
    if inspect.isfunction(getattr(hypdiv, name, None))
]
TYPED = (DomainError, TypeError, StructuralError)
# the surfcalc docstrings name LatticeError as their failure
LATTICE = {"branch_halve", "diagonal_self_intersection"}

# names the public functions accept, so that a draw can get past the first check
WORDS = [
    F.WEIERSTRASS, F.G12, "delta", "eta", "psi", "eta_irr", "0", "1", "1a", "2",
]
SCALARS = st.one_of(
    st.integers(-3, 12),  # a larger genus makes verify_range and enumerate_basis slow
    st.booleans(),
    st.floats(),
    st.fractions(max_denominator=7),
    st.text(max_size=6),
    st.sampled_from(WORDS),
)
ARGUMENTS = st.one_of(SCALARS, st.lists(SCALARS, max_size=3).map(tuple))


def test_the_surface_is_every_public_function():
    names = {f.__name__ for f in FUNCTIONS}
    assert {"solve", "rank", "verify_range", "branch_halve", "solve_coefficients"} <= names
    assert len(names) == len(FUNCTIONS) == 11


@pytest.mark.parametrize("function", FUNCTIONS, ids=lambda f: f.__name__)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_public_functions_return_or_fail_typed(function, data):
    arity = len(inspect.signature(function).parameters)
    args = data.draw(st.tuples(*[ARGUMENTS] * arity), label="args")
    allowed = TYPED + (LatticeError,) if function.__name__ in LATTICE else TYPED
    try:
        function(*args)
    except Exception as exc:  # exactly one of the typed errors, not a subclass of one
        assert type(exc) in allowed, f"{function.__name__}{args!r}: {type(exc).__name__}: {exc}"


# stored rows of the wrong shape; all but the first and the last are no pair at all
NOT_PAIRS = [("ab", 0), 5, None, "x1", ({"x": 1},), ({"x": 1}, 1, 0), ([("x", 1)], 1)]


@pytest.mark.parametrize("operation", [hypdiv.solve, hypdiv.rank])
@pytest.mark.parametrize("row", NOT_PAIRS)
def test_a_stored_row_that_is_not_a_pair_is_a_structural_error(operation, row):
    system = hypdiv.LinearSystem(("x",), [({"x": 1}, 1), row])
    with pytest.raises(StructuralError, match="stored row 1") as caught:
        operation(system)
    assert type(caught.value) is StructuralError


@pytest.mark.parametrize("coeffs", [5, None, "x", [("x", 1)], (("x", 1),)])
def test_relation_coefficients_that_are_not_a_dict_are_a_type_error(coeffs):
    with pytest.raises(TypeError, match="not a dict") as caught:
        hypdiv.Relation(coeffs, 0, "p")
    assert type(caught.value) is TypeError


# an expression's terms: a dict, or what the plain constructor takes unchecked in its place
TERMS = st.one_of(
    st.dictionaries(ARGUMENTS, ARGUMENTS, max_size=3),
    st.lists(st.tuples(ARGUMENTS, ARGUMENTS), max_size=3),
    st.none(),
    ARGUMENTS,
)


@settings(max_examples=120, deadline=None)
@given(row=ARGUMENTS, coeffs=ARGUMENTS, rhs=SCALARS, terms=TERMS)
def test_the_public_classes_fail_typed(row, coeffs, rhs, terms):
    calls = {
        "solve": lambda: hypdiv.solve(hypdiv.LinearSystem(("x",), [row])),
        "rank": lambda: hypdiv.rank(hypdiv.LinearSystem(("x",), [row])),
        "Relation": lambda: hypdiv.Relation(coeffs, rhs, "p"),
        "output_record": lambda: cli.output_record(
            3, "weierstrass", "formal", hypdiv.DivisorExpression(3, 1, terms)
        ),
    }
    for name, call in calls.items():
        try:
            call()
        except Exception as exc:  # exactly one of the typed errors, not a subclass of one
            assert type(exc) in TYPED, f"{name}: {type(exc).__name__}: {exc}"
