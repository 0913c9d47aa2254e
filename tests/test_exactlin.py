"""Exact-arithmetic substrate: solve/rank behavior and exactness oracles."""

import copy
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypdiv import exactlin
from hypdiv.exactlin import (
    CheckError,
    Inconsistent,
    LinearSystem,
    StructuralError,
    Underdetermined,
    Unique,
    rank,
    solve,
)


def test_symmetric_two_by_two():
    sys = LinearSystem(("x", "y"))
    sys.add_row({"x": 1, "y": 1}, 2)
    sys.add_row({"x": 1, "y": -1}, 0)
    result = solve(sys)
    assert isinstance(result, Unique)
    assert result.assignment == {"x": Fraction(1), "y": Fraction(1)}


def test_weierstrass_subsystem_reduction():
    # hand-reduced g=2 subsystem: eliminating the shared eta unknown from
    # the horizontal/diagonal pair leaves 2a = 24c, with c pinned to -1/10
    sys = LinearSystem(("a", "c"))
    sys.add_row({"a": 2, "c": -24}, 0)
    sys.add_row({"c": 1}, Fraction(-1, 10))
    result = solve(sys)
    assert isinstance(result, Unique)
    assert result.assignment == {"a": Fraction(-6, 5), "c": Fraction(-1, 10)}


def test_inconsistent_with_certificate():
    sys = LinearSystem(("x",))
    sys.add_row({"x": 1}, 1)
    sys.add_row({"x": 1}, 2)
    result = solve(sys)
    assert isinstance(result, Inconsistent)
    assert result.residual != 0
    # the certificate really combines the original rows into 0 = nonzero
    lhs = Fraction(0)
    rhs = Fraction(0)
    for r, mult in result.certificate.items():
        coeffs, row_rhs = sys.rows[r]
        lhs += mult * coeffs.get(0, Fraction(0))
        rhs += mult * row_rhs
    assert lhs == 0 and rhs == result.residual


def test_underdetermined_reports_free_variables():
    sys = LinearSystem(("x", "y", "z"))
    sys.add_row({"x": 1, "y": 1}, 3)
    result = solve(sys)
    assert isinstance(result, Underdetermined)
    assert set(result.free) == {"y", "z"}
    assert result.particular["x"] == 3


def test_rank_examples():
    zero = LinearSystem(("a", "b", "c"))
    for _ in range(3):
        zero.add_row({"a": 0, "b": 0, "c": 0}, 0)
    assert rank(zero) == 0

    identity = LinearSystem(("a", "b", "c", "d"))
    for name in identity.variables:
        identity.add_row({name: 1}, 1)
    assert rank(identity) == 4

    proportional = LinearSystem(("x", "y"))
    proportional.add_row({"x": 1, "y": 2}, 0)
    proportional.add_row({"x": 2, "y": 4}, 0)
    assert rank(proportional) == 1


def test_row_length_mismatch_is_structural_error():
    sys = LinearSystem(("x", "y"))
    with pytest.raises(StructuralError):
        sys.add_row({"w": 1}, 0)


def test_add_row_stores_primitive_integer_rows():
    sys = LinearSystem(("x", "y", "z"))
    sys.add_row({"x": Fraction(1, 2), "y": Fraction(3, 4), "z": 0}, Fraction(5, 4))
    sys.add_row({"x": 6, "y": -4}, 10)
    sys.add_row({"x": Fraction(6), "z": 1}, 0)
    assert sys.rows == [({0: 2, 1: 3}, 5), ({0: 3, 1: -2}, 5), ({0: 6, 2: 1}, 0)]
    assert all(type(v) is int for row, rhs in sys.rows for v in (*row.values(), rhs))


@pytest.mark.parametrize(
    "coeffs, rhs",
    [
        ({"x": 0.1}, 0),
        ({"x": 1}, 0.5),
        ({"x": 0.0}, 0),
        ({"x": "1"}, 0),
        ({"x": None}, 0),
        ({"x": 1}, Decimal("0.1")),
    ],
)
def test_add_row_rejects_non_rational_entries(coeffs, rhs):
    sys = LinearSystem(("x",))
    with pytest.raises(StructuralError):
        sys.add_row(coeffs, rhs)
    assert sys.rows == []


@given(
    entries=st.lists(st.integers(-40, 40), min_size=1, max_size=6),
    rhs=st.integers(-40, 40),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_add_row_int_path_matches_rational_path(entries, rhs, data):
    # the all-int fast path must store exactly what the Fraction path stores
    names = tuple(f"x{j}" for j in range(len(entries)))
    mixed = data.draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
    forms = {
        "int": (dict(zip(names, entries)), rhs),
        "fraction": ({v: Fraction(e) for v, e in zip(names, entries)}, Fraction(rhs)),
        "mixed": (
            {v: Fraction(e) if m else e for v, e, m in zip(names, entries, mixed)},
            rhs,
        ),
    }
    stored = []
    for coeffs, b in forms.values():
        sys = LinearSystem(names)
        sys.add_row(coeffs, b)
        [(row, r)] = sys.rows
        assert all(type(v) is int for v in (*row.values(), r))
        assert all(row.values()), "zero entries are dropped"
        stored.append((list(row.items()), r))
        with pytest.raises(StructuralError, match="unknown variable 'w'"):
            sys.add_row({**coeffs, "w": 1}, b)
        assert len(sys.rows) == 1
    assert stored[0] == stored[1] == stored[2]


@pytest.mark.parametrize("coeffs, rhs", [({"x": 1, "y": 0.5}, 0), ({"x": 1, "y": 2}, 1.0)])
def test_add_row_rejects_a_float_among_ints(coeffs, rhs):
    sys = LinearSystem(("x", "y"))
    with pytest.raises(StructuralError, match="non-rational"):
        sys.add_row(coeffs, rhs)
    assert sys.rows == []


@pytest.mark.parametrize("corrupt", ["pivot_row", "redundant_row"])
def test_corrupted_elimination_raises_check_error(monkeypatch, corrupt):
    # a wrong pivot row gives a wrong assignment; a wrong redundant row
    # claims inconsistency, which the (uncorrupted) dual solve refutes
    original = exactlin._eliminate
    seen = []

    def corrupted(sys):
        pivots, rows = original(sys)
        if not seen:
            seen.append(sys)
            zero_rows = [r for r, (row, _) in enumerate(rows) if not row]
            r = pivots[0] if corrupt == "pivot_row" else zero_rows[0]
            rows[r] = (rows[r][0], rows[r][1] + 1)
        return pivots, rows

    monkeypatch.setattr(exactlin, "_eliminate", corrupted)
    sys = LinearSystem(("x", "y"))
    sys.add_row({"x": 1, "y": 1}, 2)
    sys.add_row({"x": 1, "y": -1}, 0)
    sys.add_row({"x": 2}, 2)
    with pytest.raises(CheckError):
        solve(sys)


small_fraction = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_planted_solution_recovered(n_vars, n_rows, data):
    names = tuple(f"x{j}" for j in range(n_vars))
    planted = [data.draw(small_fraction) for _ in range(n_vars)]
    sys = LinearSystem(names)
    for _ in range(n_rows):
        row = [data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(n_vars)]
        rhs = sum(c * x for c, x in zip(row, planted))
        sys.add_row(dict(zip(names, row)), rhs)
    result = solve(sys)
    assert not isinstance(result, Inconsistent)
    assignment = result.assignment if isinstance(result, Unique) else result.particular
    assert all(v == 0 for v in exactlin.residual(sys, assignment))
    if isinstance(result, Unique):
        assert [result.assignment[v] for v in names] == planted

    # metamorphic: permuting the rows, or duplicating one, changes nothing
    # but the duplicate's one extra redundant row
    order = data.draw(st.permutations(range(n_rows)))
    duplicated = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
    permuted = LinearSystem(names, [sys.rows[r] for r in order])
    doubled = LinearSystem(names, sys.rows + [sys.rows[duplicated]])
    for variant, extra in ((permuted, 0), (doubled, 1)):
        other = solve(variant)
        assert type(other) is type(result) and other.rank == result.rank
        other_assignment = other.assignment if isinstance(other, Unique) else other.particular
        assert other_assignment == assignment
        assert len(other.redundant_rows) == len(result.redundant_rows) + extra


def _full_scan_eliminate(sys: LinearSystem, sweep_pivots: bool = False):
    """Reference elimination: scan every row for every column.

    Forward only: a pivot clears its column from the rows that are not yet
    pivots.  ``sweep_pivots`` clears it from the earlier pivot rows too,
    which is the Gauss-Jordan elimination ``exactlin`` ran before.
    """
    rows = list(sys.rows)
    pivots: dict[int, int] = {}
    for col in range(len(sys.variables)):
        pivot = next(
            (r for r, (row, _) in enumerate(rows) if r not in pivots.values() and row.get(col)),
            None,
        )
        if pivot is None:
            continue
        pivots[col] = pivot
        prow, prhs = rows[pivot]
        p = prow[col]
        for r, (row, rhs) in enumerate(rows):
            q = row.get(col)
            if r == pivot or not q or (r in pivots.values() and not sweep_pivots):
                continue
            new_row = {j: p * v for j, v in row.items()}
            for j, v in prow.items():
                new_row[j] = new_row.get(j, 0) - q * v
            rows[r] = exactlin._normalize({j: v for j, v in new_row.items() if v}, p * rhs - q * prhs)
    return pivots, rows


def _gauss_jordan_solve(sys: LinearSystem):
    """The previous ``solve``: read each pivot off a Gauss-Jordan reduced row.

    Its certificate solves the dual with this function too, so no part of
    the answer comes from ``exactlin.solve``.
    """
    pivots, rows = _full_scan_eliminate(sys, sweep_pivots=True)
    redundant = []
    for r, (row, rhs) in enumerate(rows):
        if row:
            continue
        if rhs:
            dual_rows = [({}, 0) for _ in sys.variables]
            for k, (stored, _) in enumerate(sys.rows):
                for j, v in stored.items():
                    dual_rows[j][0][k] = v
            dual_rows.append(({k: b for k, (_, b) in enumerate(sys.rows) if b}, 1))
            dual = _gauss_jordan_solve(LinearSystem(tuple(map(str, range(len(sys.rows)))), dual_rows))
            y = dual.assignment if isinstance(dual, Unique) else dual.particular
            certificate = {int(name): v for name, v in y.items() if v}
            return Inconsistent(certificate=certificate, residual=Fraction(1), rank=len(pivots))
        redundant.append(r)
    # a pivot row holds its pivot column plus free columns, pinned to 0
    assignment = dict.fromkeys(sys.variables, Fraction(0))
    for col, r in pivots.items():
        row, rhs = rows[r]
        assignment[sys.variables[col]] = Fraction(rhs, row[col])
    free = tuple(v for j, v in enumerate(sys.variables) if j not in pivots)
    if free:
        return Underdetermined(assignment, free, len(pivots), tuple(redundant))
    return Unique(assignment, len(pivots), tuple(redundant))


entry = st.integers(min_value=-6, max_value=6)
nonzero_entry = entry.filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=40), st.data())
def test_indexed_elimination_matches_full_scan(n_vars, n_rows, data):
    names = tuple(f"x{j}" for j in range(n_vars))
    columns = st.lists(st.sampled_from(names), max_size=5, unique=True)
    sys = LinearSystem(names)
    for _ in range(n_rows):
        support = data.draw(columns)
        sys.add_row({name: data.draw(nonzero_entry) for name in support}, data.draw(entry))
    assert exactlin._eliminate(sys) == _full_scan_eliminate(sys)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=14),
    st.booleans(),
    st.data(),
)
def test_solve_matches_gauss_jordan_oracle(n_vars, n_rows, planted, data):
    # a planted solution gives a consistent system, unique or underdetermined
    # by its rank; free right-hand sides make most tall systems inconsistent
    names = tuple(f"x{j}" for j in range(n_vars))
    columns = st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
    values = dict(zip(names, (data.draw(small_fraction) for _ in names)))
    sys = LinearSystem(names)
    for _ in range(n_rows):
        form = {name: data.draw(nonzero_entry) for name in data.draw(columns)}
        rhs = sum(c * values[name] for name, c in form.items()) if planted else data.draw(entry)
        sys.add_row(form, rhs)
    result, oracle = solve(sys), _gauss_jordan_solve(sys)
    assert type(result) is type(oracle)
    assert result == oracle
    if planted:
        assert not isinstance(result, Inconsistent)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=4), st.data())
def test_column_permutation_keeps_assignment_and_rank(n_vars, extra_rows, data):
    names = tuple(f"x{j}" for j in range(n_vars))
    planted = dict(zip(names, (data.draw(small_fraction) for _ in names)))
    forms = []
    for _ in range(n_vars + extra_rows):
        form = {name: data.draw(st.integers(min_value=-4, max_value=4)) for name in names}
        forms.append((form, sum(c * planted[name] for name, c in form.items())))
    permuted_names = tuple(data.draw(st.permutations(names)))
    results = []
    for order in (names, permuted_names):
        sys = LinearSystem(order)
        for form, rhs in forms:
            sys.add_row(form, rhs)
        results.append((solve(sys), rank(sys)))
    (result, rank_a), (other, rank_b) = results
    assert type(other) is type(result) and rank_a == rank_b == result.rank == other.rank
    if isinstance(result, Unique):
        assert result.assignment == other.assignment == planted


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5), st.data())
def test_unique_iff_full_rank_agreement(n_vars, n_rows, data):
    names = tuple(f"x{j}" for j in range(n_vars))
    sys = LinearSystem(names)
    augmented = LinearSystem(names + ("__rhs__",))
    for _ in range(n_rows):
        row = [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(n_vars)]
        rhs = data.draw(st.integers(min_value=-4, max_value=4))
        sys.add_row(dict(zip(names, row)), rhs)
        augmented.add_row(dict(zip(names + ("__rhs__",), row + [rhs])), 0)
    rank_a = rank(sys)
    rank_ab = rank(augmented)
    result = solve(sys)
    assert isinstance(result, Unique) == (rank_a == rank_ab == n_vars)
    assert isinstance(result, Inconsistent) == (rank_ab > rank_a)
    if not isinstance(result, Inconsistent):
        assert result.rank == rank_a
    else:
        # the certificate combines the original rows into 0 = residual != 0
        assert result.residual != 0 and all(result.certificate.values())
        lhs = [Fraction(0)] * n_vars
        rhs = Fraction(0)
        for r, mult in result.certificate.items():
            coeffs, row_rhs = sys.rows[r]
            for j, v in coeffs.items():
                lhs[j] += mult * v
            rhs += mult * row_rhs
        assert lhs == [0] * n_vars and rhs == result.residual


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_addition_matches_cross_multiplication_oracle(a, b, c, d):
    # independent oracle: cross-multiply, then reduce with gcd by hand
    total = Fraction(a, b) + Fraction(c, d)
    num, den = a * d + c * b, b * d
    common = gcd(abs(num), den)
    num, den = num // common, den // common
    assert (total.numerator, total.denominator) == (num, den)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6), st.data())
def test_solve_and_rank_leave_stored_rows_unchanged(n_vars, n_rows, data):
    names = tuple(f"x{j}" for j in range(n_vars))
    sys = LinearSystem(names)
    for _ in range(n_rows):
        row = {name: data.draw(st.integers(min_value=-4, max_value=4)) for name in names}
        sys.add_row(row, data.draw(st.integers(min_value=-4, max_value=4)))
    stored = copy.deepcopy(sys.rows)
    solve(sys)
    rank(sys)
    assert sys.rows == stored


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=6), st.data())
def test_certificate_support_ignores_the_scale_of_a_row(n_vars, n_rows, data):
    # the certificate multiplies the stored primitive rows, so a row passed
    # to add_row at 3/2 its size is the same stored row with the same role
    names = tuple(f"x{j}" for j in range(n_vars))
    forms = []
    for _ in range(n_rows):
        row = {name: data.draw(st.integers(min_value=-3, max_value=3)) for name in names}
        forms.append((row, data.draw(st.integers(min_value=-3, max_value=3))))
    forms.append((forms[0][0], forms[0][1] + 1))  # contradicts the first row
    n_rows += 1
    scaled_row = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
    plain, scaled = LinearSystem(names), LinearSystem(names)
    for r, (row, rhs) in enumerate(forms):
        plain.add_row(row, rhs)
        k = Fraction(3, 2) if r == scaled_row else 1
        scaled.add_row({name: k * v for name, v in row.items()}, k * rhs)
    result, other = solve(plain), solve(scaled)
    assert isinstance(result, Inconsistent) and isinstance(other, Inconsistent)
    assert set(other.certificate) == set(result.certificate)
    assert other.certificate == result.certificate
