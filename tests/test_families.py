"""Degree-vector catalog: frozen values, symmetries, and consistency gates."""

from fractions import Fraction

import pytest

from hypdiv import basis as B
from hypdiv import families as F
from hypdiv.basis import DomainError, delta, eta, eta_irr, psi
from hypdiv.families import (
    PSI_SUM,
    diagonal_family,
    f2ip1_family,
    formal_unknowns,
    g12_ruling_family,
    glued_weierstrass_family,
    is_auxiliary,
    pairing_degree,
    quadric_pencil_family,
    two_point_blowup_family,
)


def aux_eta(i, m):
    return eta(i, m)


def test_diagonal_family_degrees():
    for g, psi_deg, target in ((2, 2, 6), (3, 4, 8), (11, 20, 24)):
        dv = diagonal_family(g)
        assert dv.degrees == {psi(1): psi_deg}
        assert dv.target_degree == target
        assert dv.target == F.WEIERSTRASS


def test_quadric_pencil_degrees():
    dv = quadric_pencil_family(2, 1)
    assert dv.degrees == {psi(1): 1, eta_irr(): 20}
    assert dv.target_degree == 1

    dv = quadric_pencil_family(3, 2)
    assert dv.degrees == {psi(1): 1, psi(2): 1, eta_irr(): 28}
    assert dv.target_degree == 0

    dv = quadric_pencil_family(2, 2)
    assert dv.degrees == {psi(1): 1, psi(2): 1, eta_irr(): 20}
    assert dv.target_degree == 0


def test_glued_horizontal_low_registers_auxiliary_at_i1():
    dv = glued_weierstrass_family(4, 1, F.HORIZONTAL, F.LOW, 1)
    assert dv.degrees == {delta(1, "0"): -1, eta_irr(): 8, aux_eta(0, "0"): 2}
    assert dv.target_degree == 0
    assert [k for k in dv.degrees if is_auxiliary(k, 4)] == [aux_eta(0, "0")]


def test_glued_diagonal_low_degrees():
    dv = glued_weierstrass_family(4, 2, F.DIAGONAL, F.LOW, 1)
    assert dv.degrees == {delta(2, "0"): -2, eta_irr(): 8, eta(1, "0"): 6}


def test_glued_horizontal_high_degrees():
    dv = glued_weierstrass_family(5, 2, F.HORIZONTAL, F.HIGH, 1)
    assert dv.degrees == {delta(2, "1"): -1, eta_irr(): 24, eta(2, "1"): 2}


def test_glued_high_top_index_even_genus_is_auxiliary():
    dv = glued_weierstrass_family(4, 2, F.HORIZONTAL, F.HIGH, 1)
    assert dv.degrees[aux_eta(2, "1")] == 2
    dv2 = glued_weierstrass_family(4, 2, F.HORIZONTAL, F.HIGH, 2)
    assert dv2.degrees[delta(2, "2")] == -1
    assert dv2.degrees[aux_eta(2, "2")] == 2


def test_glued_range_errors():
    with pytest.raises(DomainError):
        glued_weierstrass_family(4, 3, F.HORIZONTAL, F.LOW, 1)
    with pytest.raises(DomainError):
        glued_weierstrass_family(4, 0, F.HORIZONTAL, F.LOW, 1)


def test_two_point_blowup_degrees():
    dv = two_point_blowup_family(2, F.SINGLE)
    assert dv.degrees == {psi(1): 1, psi(2): 3, B.delta_0_2(): 1}
    assert dv.target_degree == 1

    dv = two_point_blowup_family(2, F.WEIERSTRASS_INVOLUTION)
    assert dv.degrees == {psi(1): 8, psi(2): 8, B.delta_0_2(): 6}
    assert dv.target_degree == -2

    dv = two_point_blowup_family(3, F.WEIERSTRASS_INVOLUTION)
    assert dv.degrees == {psi(1): 12, psi(2): 12, B.delta_0_2(): 8}
    assert dv.target_degree == -4


def test_ruling_family_degrees():
    dv = g12_ruling_family(3, 1, F.HIGH)
    assert dv.degrees == {delta(1, "1"): -2, eta(1, "1"): 4, eta_irr(): 32, PSI_SUM: 2}
    assert dv.target_degree == 0

    dv = g12_ruling_family(3, 1, F.LOW)
    assert dv.degrees == {delta(1, "1"): -2, aux_eta(0, "1"): 4, eta_irr(): 16, PSI_SUM: 2}

    dv = g12_ruling_family(4, 2, F.LOW)
    assert dv.degrees == {delta(2, "1"): -2, eta(1, "1"): 4, eta_irr(): 32, PSI_SUM: 2}


def test_f2ip1_degrees():
    dv = f2ip1_family(3, 1)
    assert dv.degrees == {psi(1): 4, psi(2): 2, eta(1, "1"): 2, eta_irr(): 88}
    assert dv.target_degree == 0

    dv = f2ip1_family(5, 2)
    assert dv.degrees == {psi(1): 6, psi(2): 2, eta(2, "1"): 2, eta_irr(): 204}


def test_f2ip1_range_error():
    with pytest.raises(DomainError):
        f2ip1_family(2, 1)
    with pytest.raises(DomainError):
        f2ip1_family(5, 3)


def test_f2ip1_boundary_member_pins_auxiliary():
    dv = f2ip1_family(2, 0)
    assert dv.degrees == {psi(1): 2, psi(2): 2, aux_eta(0, "1"): 2, eta_irr(): 36}


def _all_vectors(g):
    from hypdiv.solver import family_vectors

    return family_vectors(g, F.WEIERSTRASS) + family_vectors(g, F.G12)


def test_eta_irr_degrees_always_even():
    for g in range(2, 21):
        for dv in _all_vectors(g):
            assert dv.degree(eta_irr()) % 2 == 0


def _reflect_label_n1(g, label):
    """View a boundary label from the other component: delta_{j,m} ->
    delta_{g-j,1-m}, eta_{j,m} -> eta_{g-1-j,1-m}."""
    kind = label.kind
    flip = {"0": "1", "1": "0"}[label.marking]
    index = g - label.index if kind == B.DELTA else g - 1 - label.index
    if kind == B.ETA and index not in B.eta_range(g):
        return aux_eta(index, flip)
    return B.BasisElement(kind, index, flip)


def test_low_high_reflection_symmetry_n1():
    for g in range(2, 12):
        for i in range(1, g // 2 + 1):
            for section in (F.HORIZONTAL, F.DIAGONAL):
                high = glued_weierstrass_family(g, i, section, F.HIGH, 1)
                # low-side closed forms evaluated at the reflected index g-i
                j = g - i
                if section == F.HORIZONTAL:
                    low_form = {delta(j, "0"): -1, eta_irr(): 8 * j, eta(j - 1, "0"): 2}
                else:
                    low_form = {
                        delta(j, "0"): -j,
                        eta_irr(): 4 * j,
                        eta(j - 1, "0"): 2 * j + 2,
                    }
                reflected = {}
                for label, value in low_form.items():
                    if label.kind == B.ETA_IRR:
                        reflected[label] = value
                    else:
                        reflected[_reflect_label_n1(g, label)] = value
                assert high.degrees == {k: Fraction(v) for k, v in reflected.items()}


def test_self_intersection_entries_match_lattice_recomputation():
    from hypdiv.surfcalc import branch_section_self_intersection

    for g in range(2, 11):
        for i in range(1, g // 2 + 1):
            horizontal = glued_weierstrass_family(g, i, F.HORIZONTAL, F.LOW, 1)
            assert horizontal.degrees[delta(i, "0")] == branch_section_self_intersection(1, 0, 2)
            diagonal = glued_weierstrass_family(g, i, F.DIAGONAL, F.LOW, 1)
            assert diagonal.degrees[delta(i, "0")] == branch_section_self_intersection(
                1, 1, 2 * i + 2
            )


def test_pairing_with_weierstrass_ansatz():
    g = 5
    assert pairing_degree(diagonal_family(g)) == {"d": 2 * g - 2}
    assert diagonal_family(g).target_degree == 2 * g + 2

    form = pairing_degree(quadric_pencil_family(g, 1))
    assert form == {"d": 1, "c": 4 * (2 * g + 1)}


def test_pairing_maps_invariant_labels_to_shared_symbol():
    form = pairing_degree(g12_ruling_family(3, 1, F.HIGH))
    assert form == {"a_1_1": -2, "b_1_1": 4, "c": 32, "d": 2}


def test_formal_unknowns_order_and_label_groups():
    assert formal_unknowns(3, 1) == {
        "d": [psi(1)],
        "c": [eta_irr()],
        "a_1_0": [delta(1, "0")],
        "a_1_1": [delta(1, "1")],
        "b_1_0": [eta(1, "0")],
        "b_1_1": [eta(1, "1")],
    }
    unknowns = formal_unknowns(2, 2)
    assert list(unknowns) == ["d", "c", "a_0_2", "a_1_0", "a_1_1", "a_1_2"]
    assert unknowns["d"] == [psi(1), psi(2)]
    assert unknowns["a_0_2"] == [B.delta_0_2()]
    assert unknowns["a_1_1"] == [delta(1, "1a"), delta(1, "1b")]


def test_auxiliary_label_must_be_out_of_range():
    assert not is_auxiliary(eta(1, "0"), 4)
    assert is_auxiliary(eta(0, "0"), 4) and is_auxiliary(eta(2, "1"), 4)
    assert not is_auxiliary(eta(2, "1"), 5)
    assert not is_auxiliary(delta(2, "0"), 4) and not is_auxiliary(PSI_SUM, 4)


def test_auxiliary_gate_rejects_index_above_half_genus():
    F._check_label(eta(2, "0"), 4, 1)
    F._check_label(eta(0, "1"), 4, 2)
    with pytest.raises(DomainError):
        F._check_label(eta(3, "0"), 4, 1)
    with pytest.raises(DomainError):
        F._check_label(eta(-1, "0"), 4, 1)
    with pytest.raises(DomainError):
        F._check_label(eta(0, "1a"), 4, 1)  # a marking of n = 2 on n = 1
    with pytest.raises(DomainError):
        F._check_label(eta(3, "1"), 4, 2)
    with pytest.raises(DomainError):
        F._check_label(delta(3, "1"), 4, 2)


@pytest.mark.parametrize(
    "bad", [("delta", 1), ("delta", 1, "0", "x"), "delta", 5, ("delta", 9, "0")]
)
def test_check_label_rejects_malformed_label_with_domain_error(bad):
    with pytest.raises(DomainError) as caught:
        F._check_label(bad, 4, 1)
    assert type(caught.value) is DomainError


def _reference_check_label(label, g, n):
    """The label gate as it was before its fast path: auxiliaries and the
    invariant pair are tested first, then ``basis.validate``."""
    if isinstance(label, F.PsiSum):
        return
    invariant = n == 2 and label.marking == "1"
    if is_auxiliary(label, g):
        markings = B.MARKINGS_1 if n == 1 else B.MARKINGS_2
        if not 0 <= label.index <= g // 2 or not (invariant or label.marking in markings):
            raise DomainError(f"{label!r} is not a valid auxiliary for (g={g}, n={n})")
    elif invariant and label.kind in (B.DELTA, B.ETA):
        if label.index not in B.delta_range(g):
            raise DomainError(f"{label!r} index out of range")
    else:
        B.validate(label, g, n)


def _reference_accepts(label, g, n):
    try:
        _reference_check_label(label, g, n)
    except DomainError:
        return False
    return True


def _assert_rejected(label, g, n):
    with pytest.raises(DomainError) as caught:
        F._check_label(label, g, n)
    assert type(caught.value) is DomainError, (label, g, n)
    assert repr(label) in str(caught.value) and f"(g={g}, n={n})" in str(caught.value)


def test_check_label_matches_reference_branch_order():
    for g in range(2, 13):
        for n in (1, 2):
            labels = [psi(k) for k in range(4)] + [eta_irr(), B.delta_0_2(), PSI_SUM]
            for i in range(-1, g // 2 + 2):
                for m in ("", "0", "1", "1a", "1b", "2", "3"):
                    labels += [delta(i, m), eta(i, m)]
            for label in labels:
                if _reference_accepts(label, g, n):
                    F._check_label(label, g, n)
                else:
                    _assert_rejected(label, g, n)
            # an index that is not an int is rejected on every kind and marking
            for i in (True, False, 1.0, 1.5, "1", None):
                odd = [B.BasisElement(kind, i, "") for kind in (B.PSI, B.ETA_IRR, B.DELTA_0_2)]
                for m in ("", "0", "1", "1a", "1b", "2", "3"):
                    odd += [delta(i, m), eta(i, m)]
                for label in odd:
                    _assert_rejected(label, g, n)
            _assert_rejected(("delta", 1, "0"), g, n)  # a plain tuple has no .name


def _reference_is_valid(e, g, n):
    """``basis.is_valid`` as it was, with ``range`` membership tests."""
    B.check_ambient(g, n)
    markings = B.MARKINGS_1 if n == 1 else B.MARKINGS_2
    if e.kind == B.PSI:
        return 1 <= e.index <= n
    if e.kind == B.ETA_IRR:
        return True
    if e.kind == B.DELTA_0_2:
        return n == 2
    if e.kind == B.DELTA:
        return e.index in B.delta_range(g) and e.marking in markings
    if e.kind == B.ETA:
        return e.index in B.eta_range(g) and e.marking in markings
    return False


def _reference_unknown(label):
    """``unknown`` as it was, through ``slot`` and repeated ``.kind`` reads."""
    if isinstance(label, F.PsiSum) or label.kind == B.PSI:
        return "d"
    if label.kind == B.ETA_IRR:
        return "c"
    if label.kind == B.DELTA_0_2:
        return "a_0_2"
    prefix = "a" if label.kind == B.DELTA else "b"
    return f"{prefix}_{label.index}_{F.slot(label.marking)}"


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # the reference's failure must be the new one's too
        return type(exc)


def test_is_valid_and_unknown_match_reference():
    for g in range(2, 31):
        labels = [psi(k) for k in range(4)] + [eta_irr(), B.delta_0_2()]
        for i in range(-1, g // 2 + 2):
            for m in ("", "0", "1", "1a", "1b", "2", "3"):
                labels += [delta(i, m), eta(i, m)]
        for label in labels:
            for n in (1, 2):
                want = _reference_is_valid(label, g, n)
                assert B.is_valid(label, g, n) is want, (label, g, n)
            assert _outcome(F.unknown, label) == _outcome(_reference_unknown, label), label
    assert F.unknown(PSI_SUM) == _reference_unknown(PSI_SUM) == "d"


def _reference_solver_key(label):
    """``_solver_key`` as it was, the kind's position found by ``tuple.index``."""
    if type(label) is F.PsiSum:
        return (0,)
    kind, index, marking = label
    return ((B.PSI, B.ETA_IRR, B.DELTA_0_2, B.DELTA, B.ETA).index(kind), index, marking)


def _reference_pairing_degree(dv):
    """``pairing_degree`` as it was: a key sort, then one ``unknown`` per label."""
    form = {}
    for label in sorted(dv.degrees, key=_reference_solver_key):
        name = _reference_unknown(label)
        acc = form.get(name, 0) + dv.degrees[label]
        if acc:
            form[name] = acc
        else:
            form.pop(name, None)
    return form


def _reference_provenance(dv):
    """``DegreeVector.provenance`` as it was, sorting the params of every member."""
    if dv.params:
        inner = ",".join(f"{k}={v}" for k, v in sorted(dv.params.items()))
        return f"{dv.family}[{inner}]"
    return dv.family


def test_pairing_and_provenance_match_reference_on_every_member():
    for g in range(2, 61):
        for dv in _all_vectors(g):
            want = _reference_pairing_degree(dv)
            assert list(pairing_degree(dv).items()) == list(want.items()), (g, dv)
            assert dv.provenance() == _reference_provenance(dv), (g, dv)


@pytest.mark.parametrize(
    "degrees",
    [
        {psi(2): 3, PSI_SUM: 2, psi(1): -5, eta_irr(): 7},  # psi merge and cancel
        {PSI_SUM: 4, eta(1, "1"): 2, psi(1): 1, psi(2): -1},  # cancel, then PSI_SUM
        {eta(0, "1"): 2, psi(1): 1, PSI_SUM: 1, psi(2): 1, B.delta_0_2(): -1},
        {delta(2, "1b"): 1, delta(2, "1"): 3, delta(2, "1a"): -4, eta_irr(): 1},  # 1a/1b/1
        {eta(2, "1b"): -2, eta(2, "1a"): 2, delta(1, "2"): 5, eta(0, "0"): 1},
    ],
)
def test_pairing_merges_and_cancels_like_reference(degrees):
    dv = F._vector(6, 2, F.G12, 0, degrees, "hand", {"i": 2, "a": 1})
    assert list(pairing_degree(dv).items()) == list(_reference_pairing_degree(dv).items())
    assert dv.provenance() == _reference_provenance(dv) == "hand[a=1,i=2]"


def test_vectors_keep_their_own_params():
    params = {"i": 1}
    dv = F._vector(4, 1, F.WEIERSTRASS, 0, {psi(1): 1}, "hand", params)
    assert dv.params is params and dv.provenance() == "hand[i=1]"
    first, second = (F._vector(4, 1, F.WEIERSTRASS, 0, {psi(1): 1}, "bare") for _ in range(2))
    assert first.params == second.params == {} and first.params is not second.params


def _reference_formal_unknowns(g, n):
    elements = B.formal_elements(g, n)
    if n == 2:
        elements.insert(3, elements.pop())
    groups = {}
    for e in elements:
        groups.setdefault(_reference_unknown(e), []).append(e)
    return groups


def test_formal_unknowns_match_reference():
    for g in range(2, 61):
        for n in (1, 2):
            want = _reference_formal_unknowns(g, n)
            assert list(formal_unknowns(g, n).items()) == list(want.items()), (g, n)


def _closed_form_values(g, target, n):
    from hypdiv.closedform import closed_form

    terms = closed_form(g, target).terms
    return {
        name: terms.get(labels[0], Fraction(0))
        for name, labels in formal_unknowns(g, n).items()
    }


def _substitute(form, values):
    return sum(coeff * values[name] for name, coeff in form.items())


def test_evaluate_pairing_reproduces_target_degree():
    # the closed form really has the cataloged degree on each family
    g = 6
    values = _closed_form_values(g, F.WEIERSTRASS, 1)
    assert _substitute(pairing_degree(diagonal_family(g)), values) == 2 * g + 2
    assert _substitute(pairing_degree(quadric_pencil_family(g, 1)), values) == 1


def test_evaluate_pairing_with_auxiliary_values():
    # the two-pointed closed form pairs to zero on the ruling family once
    # the eta_0 auxiliary is given its solved value 2c
    from hypdiv.closedform import g12_eta_irr

    g = 2
    dv = g12_ruling_family(g, 1, F.LOW)
    form = pairing_degree(dv)
    values = _closed_form_values(g, F.G12, 2)
    assert "b_0_1" in form and "b_0_1" not in values
    assert is_auxiliary(eta(0, "1"), g)
    values["b_0_1"] = 2 * g12_eta_irr(g)
    assert _substitute(form, values) == dv.target_degree == 0


def test_cataloged_degrees_are_integers():
    for g in range(2, 21):
        for dv in _all_vectors(g):
            assert dv.target_degree.denominator == 1
            assert all(v.denominator == 1 for v in dv.degrees.values())


def test_self_intersection_literals_match_surfcalc_for_every_cli_genus():
    """Each catalog entry written as a self-intersection formula equals its
    surfcalc recomputation, for every genus the command line accepts, at both
    ends of the index range, on both sides, both sections and n = 1, 2."""
    from hypdiv import surfcalc as S
    from hypdiv.cli import MAX_GENUS

    horizontal = S.branch_section_self_intersection(1, 0, 2)
    for g in range(2, MAX_GENUS + 1):
        diag = S.diagonal_self_intersection(g)
        single = two_point_blowup_family(g, F.SINGLE)
        involution = two_point_blowup_family(g, F.WEIERSTRASS_INVOLUTION)
        checks = [
            (diagonal_family(g), psi(1), -diag),
            (single, psi(1), -S.section_after_blowups(0, 1)),
            (single, psi(2), -S.section_after_blowups(diag, 1)),
            (involution, psi(1), -S.section_after_blowups(diag, 2 * g + 2)),
            (involution, psi(2), -S.section_after_blowups(diag, 2 * g + 2)),
        ]
        for i in {1, g // 2}:
            for side in (F.LOW, F.HIGH):
                j = i if side == F.LOW else g - i
                # the base change of the ruling family doubles every degree
                checks.append((g12_ruling_family(g, i, side), delta(i, "1"), 2 * horizontal))
                for n in (1, 2):
                    key = delta(i, "0" if side == F.LOW else str(n))
                    for section, expected in (
                        (F.HORIZONTAL, horizontal),
                        (F.DIAGONAL, S.branch_section_self_intersection(1, 1, 2 * j + 2)),
                    ):
                        dv = glued_weierstrass_family(g, i, section, side, n)
                        checks.append((dv, key, expected))
        for dv, label, expected in checks:
            assert dv.degree(label) == expected, (dv.provenance(), dv.g, dv.n, label)


def test_non_int_family_index_is_domain_error():
    builders = (
        lambda i: glued_weierstrass_family(6, i, F.HORIZONTAL, F.LOW, 1),
        lambda i: glued_weierstrass_family(6, i, F.DIAGONAL, F.HIGH, 2),
        lambda i: g12_ruling_family(6, i, F.LOW),
        lambda i: f2ip1_family(5, i),
    )
    for build in builders:
        for bad in (2.0, True, Fraction(1), "1", None):
            with pytest.raises(DomainError) as caught:
                build(bad)
            assert type(caught.value) is DomainError, (bad, caught.value)


def test_non_integral_degree_is_catalog_error():
    with pytest.raises(F.CatalogError, match="non-integer degree"):
        F._vector(3, 1, F.WEIERSTRASS, 0, {psi(1): Fraction(1, 2)}, "half")
    with pytest.raises(F.CatalogError, match="non-integer degree"):
        F._vector(3, 1, F.WEIERSTRASS, Fraction(1, 2), {psi(1): 1}, "half_target")
