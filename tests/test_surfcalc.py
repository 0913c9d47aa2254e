"""Intersection pairing, strict transforms, and the double-cover halving rule."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypdiv.surfcalc import (
    LatticeError,
    SurfaceLattice,
    branch_halve,
    branch_section_self_intersection,
    diagonal_self_intersection,
    section_after_blowups,
)


def test_pairing_normalization():
    lattice = SurfaceLattice(3)
    bidiag = lattice.curve_class(1, 1)
    ruling = lattice.curve_class(1, 0)
    assert lattice.intersect(bidiag, bidiag) == 2
    assert lattice.intersect(ruling, ruling) == 0
    e1 = lattice.exceptional(1)
    assert lattice.intersect(e1, e1) == -1
    assert lattice.intersect(ruling, lattice.curve_class(0, 1)) == 1
    assert lattice.intersect(ruling, e1) == 0


def test_strict_transform_examples():
    lattice = SurfaceLattice(2)
    ruling = lattice.strict_transform(lattice.curve_class(1, 0), [(1, 1), (2, 1)])
    assert lattice.self_intersection(ruling) == -2

    for h in (1, 2, 5):
        k = 2 * h + 2
        big = SurfaceLattice(k)
        curve = big.strict_transform(
            big.curve_class(1, 1), [(j, 1) for j in range(1, k + 1)]
        )
        assert big.self_intersection(curve) == -2 * h


def test_strict_transform_index_out_of_range():
    lattice = SurfaceLattice(1)
    with pytest.raises(LatticeError):
        lattice.strict_transform(lattice.curve_class(1, 0), [(2, 1)])


def test_untouched_point_is_identity():
    lattice = SurfaceLattice(2)
    c = lattice.curve_class(3, 4)
    assert lattice.strict_transform(c, [(1, 0)]) == c


def test_branch_halve_values():
    assert branch_halve(-2) == Fraction(-1)
    assert branch_halve(-10) == Fraction(-5)
    assert branch_halve(0) == 0


def test_branch_halve_rejects_odd_input():
    with pytest.raises(LatticeError, match="-3"):
        branch_halve(-3)


def test_branch_halve_return_types():
    # an even int halves in integers; anything else is a LatticeError
    for even in (-10, -2, 0, 4):
        assert type(branch_halve(even)) is int and branch_halve(even) * 2 == even
    for bad in (-3, 1, Fraction(-6), Fraction(1, 2), -6.0, True):
        with pytest.raises(LatticeError):
            branch_halve(bad)


def test_diagonal_self_intersection():
    assert diagonal_self_intersection(2) == -2
    assert diagonal_self_intersection(0) == 2
    assert diagonal_self_intersection(11) == -20
    for bad in (-1, 1.5, 2.0, True, False, "2", None):
        with pytest.raises(LatticeError):
            diagonal_self_intersection(bad)
    # one blowup on the diagonal of C x C
    assert section_after_blowups(diagonal_self_intersection(2), 1) == -3


def test_composite_halving_chain():
    assert branch_section_self_intersection(1, 0, 2) == -1
    for h in range(1, 51):
        assert branch_section_self_intersection(1, 1, 2 * h + 2) == -h


vec = st.lists(st.integers(min_value=-6, max_value=6), min_size=5, max_size=5)


@settings(max_examples=80, deadline=None)
@given(vec, vec, vec, st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
def test_pairing_symmetric_bilinear(u, v, w, s, t):
    lattice = SurfaceLattice(3)
    a, b, c = lattice.element(u), lattice.element(v), lattice.element(w)
    assert lattice.intersect(a, b) == lattice.intersect(b, a)
    combined = lattice.element([s * x + t * y for x, y in zip(v, w)])
    assert lattice.intersect(a, combined) == s * lattice.intersect(a, b) + t * lattice.intersect(a, c)


@settings(max_examples=80, deadline=None)
@given(vec, st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3))
def test_strict_transform_drops_sum_of_squares(u, mults):
    lattice = SurfaceLattice(3)
    c = lattice.element(u)
    transformed = lattice.strict_transform(c, list(enumerate(mults, start=1)))
    drop = sum(m * m for m in mults)
    base = lattice.self_intersection(c)
    cross = sum(m * u[1 + j] for j, m in enumerate(mults, start=1))
    assert lattice.self_intersection(transformed) == base - drop + 2 * cross


def test_branch_section_rule_matches_lattice_oracle():
    for h1 in range(4):
        for h2 in range(4):
            for k in range(41):
                lattice = SurfaceLattice(k)
                curve = lattice.strict_transform(
                    lattice.curve_class(h1, h2), [(j, 1) for j in range(1, k + 1)]
                )
                self_int = lattice.self_intersection(curve)
                if self_int % 2:
                    # an odd self-intersection has no integral half: both sides refuse it
                    with pytest.raises(LatticeError):
                        branch_halve(self_int)
                    with pytest.raises(LatticeError):
                        branch_section_self_intersection(h1, h2, k)
                else:
                    assert branch_section_self_intersection(h1, h2, k) == branch_halve(self_int)
