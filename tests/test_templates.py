"""The family-template table: assembly from resolved templates against the
per-member degree-vector path, and the checks made once per template."""

import functools
import json

import pytest

from hypdiv import basis as B
from hypdiv import cli
from hypdiv import closedform
from hypdiv import families as F
from hypdiv import solver as S
from hypdiv.basis import DomainError
from hypdiv.families import G12, WEIERSTRASS
from pairing_oracle import pairing_degree, provenance


def _per_member_system(g, target):
    """The assembly as it was: one degree vector, pairing and sort per member."""
    relations = [
        F.Relation(pairing_degree(dv), dv.target_degree, provenance(dv))
        for dv in S.family_vectors(g, target)
    ]
    return relations + F.identification_relations(g, target)


@pytest.mark.parametrize("target", [WEIERSTRASS, G12])
def test_assembly_matches_the_per_member_path(target):
    for g in [*range(2, 301), 1000, 2000]:
        got, want = S.assemble_system(g, target), _per_member_system(g, target)
        assert got == want, (g, target)
        # Relation equality compares dicts; the solver order is the key order
        assert [list(r.coeffs.items()) for r in got] == [list(r.coeffs.items()) for r in want]


def test_label_checks_do_not_grow_with_the_genus(monkeypatch):
    calls = []
    check = F._check_label

    def counted(label, g, n):
        calls.append(g)
        return check(label, g, n)

    monkeypatch.setattr(F, "_check_label", counted)
    for walk in (S.assemble_system, S.family_vectors):  # each template resolved once per genus
        calls.clear()
        walk(200, G12)
        at_200 = len(calls)
        calls.clear()
        walk(2000, G12)
        assert len(calls) == at_200 > 0, walk.__name__


def test_family_vectors_are_the_members_evaluated_one_by_one():
    for target, n in ((WEIERSTRASS, 1), (G12, 2)):
        for g in range(2, 41):
            got = S.family_vectors(g, target)
            want = [
                F.evaluate(t, g, i)
                for group in F.CATALOG[n]
                for i in group[0].indices(g)
                for t in group
            ]
            assert got == want, (g, target)
            # equal dicts may differ in order; the families output prints the degrees in order
            assert [list(dv.degrees.items()) for dv in got] == [
                list(dv.degrees.items()) for dv in want
            ], (g, target)
            assert len({id(dv.params) for dv in got + want}) == 2 * len(got), (g, target)


def test_genus_free_pattern_is_built_once_per_template(monkeypatch):
    built = []
    build = F._pattern.__wrapped__

    def counted(template, *args):
        built.append(template)
        return build(template, *args)

    monkeypatch.setattr(F, "_pattern", functools.cache(counted))
    for target in (WEIERSTRASS, G12):
        assert closedform.verify_range(2, 50, target).ok
    assert len(built) == len(set(built)) == len(F.TEMPLATES)
    assert set(built) == set(F.TEMPLATES.values())


def test_pattern_builds_no_label(monkeypatch):
    # the solver order is read off the entries, so no probe label is built, and none
    # at index -1 for the glued low families
    def no_label(label, i):
        raise AssertionError(f"a label built from {label!r} at i={i}")

    cached = {t: F._pattern(t) for t in F.TEMPLATES.values()}
    monkeypatch.setattr(F, "_label_at", no_label)
    for template, want in cached.items():
        got = F._pattern.__wrapped__(template)
        assert [spot[:3] for spot in got] == [spot[:3] for spot in want], template.family
        for g, i in ((2, 0), (7, 3), (40, 11)):
            assert [spot[3](g, i, i) for spot in got] == [spot[3](g, i, i) for spot in want]


def _replace_template(monkeypatch, family, n, **changes):
    """Put the template of (family, n) with ``changes`` in the catalog, and return it."""
    mutated = F.TEMPLATES[family, n]._replace(**changes)
    groups = tuple(
        tuple(mutated if (t.family, t.n) == (family, n) else t for t in group)
        for group in F.CATALOG[n]
    )
    assert groups != F.CATALOG[n], family
    monkeypatch.setitem(F.CATALOG, n, groups)
    return mutated


def _evaluate_refuses_alike(mutated, g, i):
    """``evaluate`` at the offending member i raises what the g12 assembly raises:
    the member of ``_resolve`` is the one check of both."""
    with pytest.raises((DomainError, F.CatalogError)) as assembled:
        S.assemble_system(g, G12)
    with pytest.raises(type(assembled.value)) as evaluated:
        F.evaluate(mutated, g, i)
    assert type(evaluated.value) is type(assembled.value)
    assert str(evaluated.value) == str(assembled.value)


@pytest.mark.parametrize("g", [6, 7, 40])
def test_label_leaving_its_range_at_the_last_member_is_domain_error(monkeypatch, g):
    # eta_{i+1,2} is a legal auxiliary up to i + 1 = g // 2, so only the last
    # member i = g // 2 carries an illegal label
    template = F.TEMPLATES["glued_horizontal_high", 2]
    (delta, d), irr, (eta, e) = template.entries
    mutated = ((delta, d), irr, (eta._replace(offset=1), e))
    for i in range(1, g // 2):
        F._check_label(F._label_at(eta._replace(offset=1), i), g, 2)
    template = _replace_template(monkeypatch, "glued_horizontal_high", 2, entries=mutated)
    with pytest.raises(DomainError, match=rf"eta_{g // 2 + 1}_2 is not a valid class"):
        S.assemble_system(g, G12)
    _evaluate_refuses_alike(template, g, g // 2)
    S.assemble_system(g, WEIERSTRASS)  # the n = 1 templates are untouched


def test_non_integer_degree_formula_is_catalog_error(monkeypatch):
    template = F.TEMPLATES["f2ip1", 2]
    entries = (*template.entries[:-1], (template.entries[-1][0], lambda g, i, j: (i + 1) / 2))
    mutated = _replace_template(monkeypatch, "f2ip1", 2, entries=entries)
    with pytest.raises(F.CatalogError, match="f2ip1: non-integer degree 0.5 on eta_irr"):
        S.assemble_system(5, G12)
    _evaluate_refuses_alike(mutated, 5, 0)


def test_non_integer_degree_at_a_later_member_is_catalog_error(monkeypatch):
    # members i = 0 and 1 are integer; the first non-int degree is at i = 2 of g = 7
    template = F.TEMPLATES["f2ip1", 2]
    (label, degree), psi = template.entries[-1], template.entries[:-1]
    late = lambda g, i, j: 4.5 if i >= 2 else degree(g, i, j)
    mutated = _replace_template(monkeypatch, "f2ip1", 2, entries=(*psi, (label, late)))
    with pytest.raises(F.CatalogError, match="f2ip1: non-integer degree 4.5 on eta_irr"):
        S.assemble_system(7, G12)
    _evaluate_refuses_alike(mutated, 7, 2)


@pytest.mark.parametrize(
    "change, message",
    [
        # a float zero on psi_2 is named, though psi_1's int would absorb it in d
        ("entries", r"f2ip1: non-integer degree 0.0 on psi\(2\)"),
        ("target_degree", "f2ip1: non-integer degree 0.0 on the target"),
    ],
)
def test_non_integer_merged_or_target_degree_is_catalog_error(monkeypatch, change, message):
    template = F.TEMPLATES["f2ip1", 2]
    if change == "entries":
        psi_1, (psi_2, two), *rest = template.entries
        zero_at_1 = lambda g, i, j: 0.0 if i == 1 else two(g, i, j)
        entries = (psi_1, (psi_2, zero_at_1), *rest)
        mutated, i = _replace_template(monkeypatch, "f2ip1", 2, entries=entries), 1
    else:
        target = lambda g, i, j: 0.0
        mutated, i = _replace_template(monkeypatch, "f2ip1", 2, target_degree=target), 0
    with pytest.raises(F.CatalogError, match=rf"^{message}$"):
        S.assemble_system(7, G12)
    _evaluate_refuses_alike(mutated, 7, i)


def test_the_first_non_integer_degree_in_solver_order_is_named(monkeypatch):
    # degree-vector order puts the eta entry before eta_irr, solver order after it
    psi_1, psi_2, (eta, _), (irr, _) = F.TEMPLATES["f2ip1", 2].entries
    entries = (psi_1, psi_2, (eta, lambda g, i, j: 0.5), (irr, lambda g, i, j: 1.5))
    mutated = _replace_template(monkeypatch, "f2ip1", 2, entries=entries)
    with pytest.raises(F.CatalogError, match=r"^f2ip1: non-integer degree 1\.5 on eta_irr$"):
        S.assemble_system(7, G12)
    _evaluate_refuses_alike(mutated, 7, 0)


def test_a_non_integer_psi_sum_degree_names_psi_sum(monkeypatch):
    *rest, (label, _) = F.TEMPLATES["ruling_low", 2].entries
    assert label == F.PSI_SUM
    entries = (*rest, (label, lambda g, i, j: 0.5))
    mutated = _replace_template(monkeypatch, "ruling_low", 2, entries=entries)
    with pytest.raises(F.CatalogError, match=r"^ruling_low: non-integer degree 0\.5 on psi_sum$"):
        S.assemble_system(6, G12)
    _evaluate_refuses_alike(mutated, 6, 1)


def test_pattern_keeps_one_spot_per_entry():
    for template in F.TEMPLATES.values():
        pattern = F._pattern(template)
        assert len(pattern) == len(template.entries), template.family
        assert {spot[4] for spot in pattern} == {label for label, _ in template.entries}


_ONE = lambda g, i, j: 1


@pytest.mark.parametrize(
    "entries",
    [
        # the fixed delta_2_0 is the shifted label at i = 2
        ((B.delta(2, "0"), _ONE), (F.Shifted("delta", 0, "0"), _ONE)),
        ((F.Shifted("delta", 0, "0"), _ONE), (F.Shifted("delta", 0, "0"), _ONE)),
    ],
    ids=["fixed-and-shifted", "duplicated-shifted"],
)
def test_two_entries_that_can_put_one_label_on_a_member_are_refused(monkeypatch, entries):
    hand = F.Template("hand", 2, lambda g, i, j: 0, entries, B.delta_range)
    monkeypatch.setitem(F.CATALOG, 2, ((hand,),))
    message = r"^hand: two entries can put one label on a member$"
    with pytest.raises(F.CatalogError, match=message):
        F.relations(8, 2)
    with pytest.raises(F.CatalogError, match=message):
        S.assemble_system(8, G12)
    for i in (2, 3):
        with pytest.raises(F.CatalogError, match=message):
            F.evaluate(hand, 8, i)


def test_a_member_with_no_nonzero_degree_is_domain_error(monkeypatch):
    template = F.TEMPLATES["ruling_low", 2]
    zeros = tuple((label, lambda g, i, j: 0) for label, _ in template.entries)
    mutated = _replace_template(monkeypatch, "ruling_low", 2, entries=zeros)
    with pytest.raises(DomainError, match=r"'ruling_low\[i=1\]' has no nonzero coefficient"):
        S.assemble_system(6, G12)
    _evaluate_refuses_alike(mutated, 6, 1)


def test_assembly_builds_no_degree_vector(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a degree vector was built")

    want = {(g, t): S.assemble_system(g, t) for t in (WEIERSTRASS, G12) for g in range(2, 61)}
    monkeypatch.setattr(F, "DegreeVector", refused)  # every degree vector is built through it
    for (g, target), relations in want.items():
        assert S.assemble_system(g, target) == relations, (g, target)


def test_each_boundary_unknown_is_spelled_once():
    # the assembly, the solver's formal table and the closed forms share each name
    for target, n in ((WEIERSTRASS, 1), (G12, 2)):
        formal = {u: u for u in F.formal_unknowns(13, n)}
        for relation in S.assemble_system(13, target):
            assert all(formal.get(u, u) is u for u in relation.coeffs), relation
        assert all(formal[u] is u for u in closedform.closed_form_numerators(13, target))
    assert F.boundary_unknown("delta", 4, "1") is F.boundary_unknown("delta", 4, "1")


def test_templates_of_a_group_share_their_index_range():
    for n, groups in F.CATALOG.items():
        for group in groups:
            assert len({t.indices for t in group}) == 1, (n, [t.family for t in group])
            assert all(t.n == n for t in group)


def test_the_families_command_reads_the_table(monkeypatch, capsys):
    template = F.TEMPLATES["f2ip1", 2]
    seven = template._replace(target_degree=lambda g, i, j: 7)
    monkeypatch.setitem(F.TEMPLATES, ("f2ip1", 2), seven)
    assert cli.main(["families", "--genus", "5", "--family", "f2ip1", "--i", "2"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["target"] == {"divisor": G12, "num": 7, "den": 1}
    with pytest.raises(SystemExit) as caught:
        cli.main(["families", "--genus", "5", "--family", "f2ip1", "--i", "3"])
    assert caught.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: i=3 out of range 0..2 for g=5\n")
