"""Degree-vector catalog: frozen values, symmetries, and consistency gates."""

from fractions import Fraction

import pytest

from hypdiv import basis as B
from hypdiv import families as F
from hypdiv.basis import DomainError, delta, eta, eta_irr, psi
from hypdiv import cli
from hypdiv.families import PSI_SUM, formal_unknowns, is_auxiliary
from pairing_oracle import pairing_degree as _reference_pairing_degree
from pairing_oracle import provenance as _reference_provenance
from pairing_oracle import unknown as _reference_unknown


def aux_eta(i, m):
    return eta(i, m)


def member(family, n, g, i=None):
    return F.evaluate(F.TEMPLATES[family, n], g, i)


def test_diagonal_family_degrees():
    for g, psi_deg, target in ((2, 2, 6), (3, 4, 8), (11, 20, 24)):
        dv = member("diagonal", 1, g)
        assert dv.degrees == {psi(1): psi_deg}
        assert dv.target_degree == target
        assert dv.target == F.WEIERSTRASS


def test_quadric_pencil_degrees():
    dv = member("quadric_pencil", 1, 2)
    assert dv.degrees == {psi(1): 1, eta_irr(): 20}
    assert dv.target_degree == 1

    dv = member("quadric_pencil", 2, 3)
    assert dv.degrees == {psi(1): 1, psi(2): 1, eta_irr(): 28}
    assert dv.target_degree == 0

    dv = member("quadric_pencil", 2, 2)
    assert dv.degrees == {psi(1): 1, psi(2): 1, eta_irr(): 20}
    assert dv.target_degree == 0


def test_glued_horizontal_low_registers_auxiliary_at_i1():
    dv = member("glued_horizontal_low", 1, 4, 1)
    assert dv.degrees == {delta(1, "0"): -1, eta_irr(): 8, aux_eta(0, "0"): 2}
    assert dv.target_degree == 0
    assert [k for k in dv.degrees if is_auxiliary(k, 4)] == [aux_eta(0, "0")]


def test_glued_diagonal_low_degrees():
    dv = member("glued_diagonal_low", 1, 4, 2)
    assert dv.degrees == {delta(2, "0"): -2, eta_irr(): 8, eta(1, "0"): 6}


def test_glued_horizontal_high_degrees():
    dv = member("glued_horizontal_high", 1, 5, 2)
    assert dv.degrees == {delta(2, "1"): -1, eta_irr(): 24, eta(2, "1"): 2}


def test_glued_high_top_index_even_genus_is_auxiliary():
    dv = member("glued_horizontal_high", 1, 4, 2)
    assert dv.degrees[aux_eta(2, "1")] == 2
    dv2 = member("glued_horizontal_high", 2, 4, 2)
    assert dv2.degrees[delta(2, "2")] == -1
    assert dv2.degrees[aux_eta(2, "2")] == 2


def test_glued_range_errors():
    with pytest.raises(DomainError):
        member("glued_horizontal_low", 1, 4, 3)
    with pytest.raises(DomainError):
        member("glued_horizontal_low", 1, 4, 0)


FAMILY = ["families", "--genus", "4", "--family"]
GLUED = [*FAMILY, "glued", "--i", "1"]


@pytest.mark.parametrize(
    "call",
    [
        lambda: cli.main([*GLUED, "--section", "vertical", "--side", "low", "--marks", "1"]),
        lambda: cli.main([*GLUED, "--section", "horizontal", "--side", "middle", "--marks", "2"]),
        lambda: cli.main([*GLUED, "--section", "low", "--side", "horizontal", "--marks", "1"]),  # swapped
        lambda: cli.main([*GLUED, "--side", "low", "--marks", "1"]),  # no section
        lambda: cli.main([*GLUED, "--section", "horizontal_low", "--side", "", "--marks", "1"]),
        lambda: cli.main([*FAMILY, "ruling", "--i", "1", "--side", "middle"]),
        lambda: cli.main([*FAMILY, "ruling", "--i", "1", "--side", "0"]),
        lambda: cli.main([*FAMILY, "two_point", "--kind", "double"]),
        lambda: cli.main([*FAMILY, "two_point"]),  # no kind
        lambda: cli.main([*FAMILY, "two_point", "--kind", "weierstrass"]),
        # a template name is no kind
        lambda: cli.main([*FAMILY, "two_point", "--kind", "two_point_single"]),
        lambda: cli.main([*FAMILY, "two_point", "--kind", "two_point_weierstrass"]),
    ],
)
def test_catalog_functions_refuse_a_bad_section_side_or_kind(call, capsys):
    # a section, side or kind picks a template only through the families command, whose
    # option choices and required options refuse these as usage errors
    with pytest.raises(SystemExit) as caught:
        call()
    assert caught.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "invalid choice" in err or "is required for family" in err, err


def test_a_one_member_template_refuses_an_index():
    for family, n in (("diagonal", 1), ("quadric_pencil", 2), ("two_point_single", 2)):
        for bad in ("x", 3, 0, False):
            with pytest.raises(DomainError, match=f"^{family} has one member") as caught:
                member(family, n, 5, bad)
            assert type(caught.value) is DomainError
        assert member(family, n, 5).params == dict(F.TEMPLATES[family, n].params)


def test_two_point_blowup_degrees():
    dv = member("two_point_single", 2, 2)
    assert dv.degrees == {psi(1): 1, psi(2): 3, B.delta_0_2(): 1}
    assert dv.target_degree == 1

    dv = member("two_point_weierstrass", 2, 2)
    assert dv.degrees == {psi(1): 8, psi(2): 8, B.delta_0_2(): 6}
    assert dv.target_degree == -2

    dv = member("two_point_weierstrass", 2, 3)
    assert dv.degrees == {psi(1): 12, psi(2): 12, B.delta_0_2(): 8}
    assert dv.target_degree == -4


def test_ruling_family_degrees():
    dv = member("ruling_high", 2, 3, 1)
    assert dv.degrees == {delta(1, "1"): -2, eta(1, "1"): 4, eta_irr(): 32, PSI_SUM: 2}
    assert dv.target_degree == 0

    dv = member("ruling_low", 2, 3, 1)
    assert dv.degrees == {delta(1, "1"): -2, aux_eta(0, "1"): 4, eta_irr(): 16, PSI_SUM: 2}

    dv = member("ruling_low", 2, 4, 2)
    assert dv.degrees == {delta(2, "1"): -2, eta(1, "1"): 4, eta_irr(): 32, PSI_SUM: 2}


def test_f2ip1_degrees():
    dv = member("f2ip1", 2, 3, 1)
    assert dv.degrees == {psi(1): 4, psi(2): 2, eta(1, "1"): 2, eta_irr(): 88}
    assert dv.target_degree == 0

    dv = member("f2ip1", 2, 5, 2)
    assert dv.degrees == {psi(1): 6, psi(2): 2, eta(2, "1"): 2, eta_irr(): 204}


def test_f2ip1_range_error():
    with pytest.raises(DomainError):
        member("f2ip1", 2, 2, 1)
    with pytest.raises(DomainError):
        member("f2ip1", 2, 5, 3)


def test_f2ip1_boundary_member_pins_auxiliary():
    dv = member("f2ip1", 2, 2, 0)
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
                high = member(f"glued_{section}_high", 1, g, i)
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
            horizontal = member("glued_horizontal_low", 1, g, i)
            assert horizontal.degrees[delta(i, "0")] == branch_section_self_intersection(1, 0, 2)
            diagonal = member("glued_diagonal_low", 1, g, i)
            assert diagonal.degrees[delta(i, "0")] == branch_section_self_intersection(
                1, 1, 2 * i + 2
            )


def _relation(g, n, provenance):
    """The relation of ``F.relations(g, n)`` with this provenance."""
    return {r.provenance: r for r in F.relations(g, n)}[provenance]


def test_pairing_with_weierstrass_ansatz():
    g = 5
    assert _relation(g, 1, "diagonal") == F.Relation({"d": 2 * g - 2}, 2 * g + 2, "diagonal")
    want = F.Relation({"d": 1, "c": 4 * (2 * g + 1)}, 1, "quadric_pencil")
    assert _relation(g, 1, "quadric_pencil") == want


def test_pairing_maps_invariant_labels_to_shared_symbol():
    form = _relation(3, 2, "ruling_high[i=1]").coeffs
    assert list(form.items()) == [("d", 2), ("c", 32), ("a_1_1", -2), ("b_1_1", 4)]


def test_formal_unknowns_order():
    labels = [psi(1), eta_irr(), delta(1, "0"), delta(1, "1"), eta(1, "0"), eta(1, "1")]
    assert formal_unknowns(3, 1) == [F.unknown(e) for e in labels]
    assert formal_unknowns(3, 1) == ["d", "c", "a_1_0", "a_1_1", "b_1_0", "b_1_1"]
    assert formal_unknowns(2, 2) == ["d", "c", "a_0_2", "a_1_0", "a_1_1", "a_1_2"]
    assert F.unknown(psi(2)) == "d" and F.unknown(B.delta_0_2()) == "a_0_2"
    assert F.unknown(delta(1, "1a")) == F.unknown(delta(1, "1b")) == "a_1_1"


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
    if label == F.PSI_SUM:
        return
    invariant = n == 2 and label.marking == "1"
    if is_auxiliary(label, g):
        markings = ("0", "1") if n == 1 else ("0", "1a", "1b", "2")
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
    markings = ("0", "1") if n == 1 else ("0", "1a", "1b", "2")
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
            # where the reference named a psi that is no class (psi_0, psi_3), a marking
            # that no class has ("3") or a negative index, or failed untyped on an empty
            # marking, unknown refuses it
            boundary = label.kind in (B.DELTA, B.ETA)
            stray = label.marking not in F._MARKINGS[2] or label.index < 0
            refused = stray if boundary else label in (psi(0), psi(3))
            want = DomainError if refused else _outcome(_reference_unknown, label)
            assert _outcome(F.unknown, label) == want, label
    assert F.unknown(PSI_SUM) == _reference_unknown(PSI_SUM) == "d"


@pytest.mark.parametrize(
    "name, args, named_first",
    [
        ("unknown", (delta(1, ""),), None),  # a boundary marking must be a non-empty str
        ("unknown", (("delta", 1),), None),  # not a 3-tuple
        ("unknown", (("eta", 2, 3),), None),  # an int marking
        ("boundary_unknown", ("psi", 1, "0"), None),  # psi is not a boundary kind
        ("unknown", (("psi", 1, "zz"),), None),  # not a label of basis.GLOBALS[2]
        ("unknown", (("delta", 1, "zz"),), None),  # a marking outside families._MARKINGS[2]
        ("unknown", (("eta", "x", "0"),), None),  # an index that is not an int
        ("unknown", (("delta", -5, "9"),), None),  # a marking no class has, at any index
        ("boundary_unknown", ("delta", None, "q"), None),  # neither an int index nor a slot 0..2
        # an index equal to an int, and hashing as it, once the int index is named
        ("unknown", (("delta", 1.0, "0"),), (("delta", 1, "0"),)),
        ("unknown", (("delta", True, "0"),), (("delta", 1, "0"),)),
        ("boundary_unknown", ("delta", True, "0"), ("delta", 1, "0")),
        ("boundary_unknown", ("delta", 1.0, "0"), ("delta", 1, "0")),
        ("unknown", (("delta", -1, "0"),), None),  # a negative index, the auxiliary's included
        ("unknown", (("eta", -1, "0"),), None),
        ("boundary_unknown", ("eta", -1, "0"), None),
        ("unknown", ((["delta"], 1, "0"),), None),  # an unhashable kind
    ],
    ids=[
        "empty_marking", "pair", "int_marking", "global_kind", "stray_global",
        "stray_marking", "str_index", "digit_marking", "none_index_and_slot",
        "float_index_after_int", "bool_index_after_int",
        "bool_boundary_index_after_int", "float_boundary_index_after_int",
        "negative_delta_index", "negative_eta_index", "negative_boundary_index",
        "unhashable_kind",
    ],
)
def test_the_label_to_unknown_map_refuses_what_it_cannot_name(name, args, named_first):
    # exactly DomainError: not the IndexError, ValueError, TypeError or KeyError of
    # reading the label, nor a name made up for a label no class has; and whatever
    # was named before, from cleared caches, as a refusal must not depend on call order
    for value in vars(F).values():
        getattr(value, "cache_clear", lambda: None)()
    if named_first is not None:
        assert getattr(F, name)(*named_first) == "a_1_0"
    with pytest.raises(DomainError) as caught:
        getattr(F, name)(*args)
    assert type(caught.value) is DomainError


def test_provenance_matches_reference_on_every_member():
    # the walk names each relation; its parallel degree vector's (family, params) must agree
    for g in range(2, 61):
        relations, vectors = F.relations(g, 1) + F.relations(g, 2), _all_vectors(g)
        assert len(relations) == len(vectors), g
        for relation, dv in zip(relations, vectors):
            assert relation.provenance == _reference_provenance(dv), (g, dv)


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
def test_pairing_merges_and_cancels_like_reference(degrees, monkeypatch):
    entries = tuple((label, lambda g, i, j, v=v: v) for label, v in degrees.items())
    hand = F.Template("hand", 2, lambda g, i, j: 0, entries, params=(("i", 2), ("a", 1)))
    monkeypatch.setitem(F.CATALOG, 2, ((hand,),))
    (relation,) = F.relations(6, 2)
    dv = F.evaluate(hand, 6)
    assert list(relation.coeffs.items()) == list(_reference_pairing_degree(dv).items())
    assert relation.provenance == _reference_provenance(dv) == "hand[a=1,i=2]"


def test_vectors_keep_their_own_params():
    one = (psi(1), lambda g, i, j: 1)
    hand = F.Template("hand", 1, lambda g, i, j: 0, (one,), params=(("i", 1),))
    first, second = F.evaluate(hand, 4), F.evaluate(hand, 4)
    assert first.params == second.params == {"i": 1} and first.params is not second.params
    assert _reference_provenance(first) == "hand[i=1]" and first.degrees == {psi(1): 1}
    bare = hand._replace(family="bare", params=())
    first, second = F.evaluate(bare, 4), F.evaluate(bare, 4)
    assert first.params == second.params == {} and first.params is not second.params


def _reference_formal_unknowns(g, n):
    elements = B.formal_elements(g, n)
    if n == 2:
        elements.insert(3, elements.pop())
    names = []
    for e in elements:
        if _reference_unknown(e) not in names:
            names.append(_reference_unknown(e))
    return names


def test_formal_unknowns_match_reference():
    for g in range(2, 61):
        for n in (1, 2):
            assert formal_unknowns(g, n) == _reference_formal_unknowns(g, n), (g, n)


def _closed_form_values(g, target, n):
    # each unknown's closed-form value, read at its first formal label
    from hypdiv.closedform import closed_form

    terms, values = closed_form(g, target).terms, {}
    for e in B.formal_elements(g, n):
        values.setdefault(F.unknown(e), terms.get(e, Fraction(0)))
    return values


def _substitute(form, values):
    return sum(coeff * values[name] for name, coeff in form.items())


def test_evaluate_pairing_reproduces_target_degree():
    # the closed form really has the cataloged degree on each family
    g = 6
    values = _closed_form_values(g, F.WEIERSTRASS, 1)
    for provenance, degree in (("diagonal", 2 * g + 2), ("quadric_pencil", 1)):
        relation = _relation(g, 1, provenance)
        assert _substitute(relation.coeffs, values) == relation.rhs == degree


def test_evaluate_pairing_with_auxiliary_values():
    # the two-pointed closed form pairs to zero on the ruling family once
    # the eta_0 auxiliary is given its solved value 2c
    from hypdiv.closedform import closed_form_values

    g = 2
    relation = _relation(g, 2, "ruling_low[i=1]")
    values = _closed_form_values(g, F.G12, 2)
    assert "b_0_1" in relation.coeffs and "b_0_1" not in values
    assert is_auxiliary(eta(0, "1"), g)
    values["b_0_1"] = 2 * closed_form_values(g, F.G12)["c"]
    assert _substitute(relation.coeffs, values) == relation.rhs == 0


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
        single = member("two_point_single", 2, g)
        involution = member("two_point_weierstrass", 2, g)
        checks = [
            (member("diagonal", 1, g), psi(1), -diag),
            (single, psi(1), -S.section_after_blowups(0, 1)),
            (single, psi(2), -S.section_after_blowups(diag, 1)),
            (involution, psi(1), -S.section_after_blowups(diag, 2 * g + 2)),
            (involution, psi(2), -S.section_after_blowups(diag, 2 * g + 2)),
        ]
        for i in {1, g // 2}:
            for side in (F.LOW, F.HIGH):
                j = i if side == F.LOW else g - i
                # the base change of the ruling family doubles every degree
                checks.append((member(f"ruling_{side}", 2, g, i), delta(i, "1"), 2 * horizontal))
                for n in (1, 2):
                    key = delta(i, "0" if side == F.LOW else str(n))
                    for section, expected in (
                        (F.HORIZONTAL, horizontal),
                        (F.DIAGONAL, S.branch_section_self_intersection(1, 1, 2 * j + 2)),
                    ):
                        dv = member(f"glued_{section}_{side}", n, g, i)
                        checks.append((dv, key, expected))
        for dv, label, expected in checks:
            assert dv.degree(label) == expected, (dv.family, dv.params, dv.g, dv.n, label)


def test_non_int_family_index_is_domain_error():
    builders = (
        lambda i: member("glued_horizontal_low", 1, 6, i),
        lambda i: member("glued_diagonal_high", 2, 6, i),
        lambda i: member("ruling_low", 2, 6, i),
        lambda i: member("f2ip1", 2, 5, i),
    )
    for build in builders:
        for bad in (2.0, True, Fraction(1), "1", None):
            with pytest.raises(DomainError) as caught:
                build(bad)
            assert type(caught.value) is DomainError, (bad, caught.value)


def test_non_integral_degree_is_catalog_error():
    half = lambda g, i, j: Fraction(1, 2)
    degree = F.Template("half", 1, lambda g, i, j: 0, ((psi(1), half),))
    with pytest.raises(F.CatalogError, match=r"^half: non-integer degree Fraction.* on psi\(1\)$"):
        F.evaluate(degree, 3)
    target = F.Template("half_target", 1, half, ((psi(1), lambda g, i, j: 1),))
    with pytest.raises(F.CatalogError, match=r"^half_target: non-integer degree .* on the target$"):
        F.evaluate(target, 3)
