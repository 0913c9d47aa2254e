"""The closed forms, the solver's auxiliaries and the catalog's members against
P − λ and Cornalba–Harris (``lambda_oracle``)."""

import pytest

from hypdiv import basis as B
from hypdiv import closedform
from hypdiv import solver as S
from hypdiv.families import G12, WEIERSTRASS
from lambda_oracle import LAMBDA, member_sums, scaled, table


@pytest.mark.parametrize("target", [WEIERSTRASS, G12])
def test_every_closed_form_numerator_is_p_minus_lambda(target):
    # (g(g-1)/2)·num/(2(g-1)(2g+1)) = P − ℓ, multiplied through by 2(8g+4)
    bad = []
    for g in [*range(2, 301), *range(1990, 2001)]:
        nums, want = closedform.closed_form_numerators(g, target), table(g, target)
        assert list(nums) == list(want), f"the unknowns at g={g}"
        bad += [f"{u} at g={g}" for u, num in nums.items() if 2 * g * num != want[u]]
    assert not bad, bad[:10]


@pytest.mark.parametrize("target", [WEIERSTRASS, G12])
def test_the_solver_auxiliaries_are_p_minus_lambda(target):
    # b_0_m, and b_{g/2}_m for even g: the eta rows read at i = 0 and i = g/2
    bad, read_at = [], set()
    for g in range(2, 61):
        for u, value in S.solve_coefficients(g, target).auxiliaries.items():
            head, i, m = u.split("_")
            i, m = int(i), int(m)
            assert head == "b" and i in (0, g // 2), f"{u} at g={g}"
            read_at.add((g % 2, i))
            if value * g * (g - 1) * (8 * g + 4) != scaled(target, B.ETA, g, i, m):
                bad.append(f"{u} at g={g}")
    assert not bad, bad
    assert {(0, 0), (1, 0)} < read_at and any(i for _, i in read_at)  # both ends were read


@pytest.mark.parametrize("target", [WEIERSTRASS, G12])
def test_every_member_of_the_catalog_has_its_cornalba_harris_lambda(target):
    # (i) checks the eta_irr, eta and delta degrees, (ii) the target, psi, psi-sum and
    # delta_{0,2} degrees, each against the lambda(B) of the member's own family
    bad, families = [], set()
    for g in [*range(2, 301), *range(1990, 2001)]:
        for dv in S.family_vectors(g, target):
            i = dv.params.get("i")
            lam, (ell, twice_p) = LAMBDA[dv.family](g, i), member_sums(target, g, dv.degrees)
            where = f"{dv.family} at i={i}, g={g}, target {target}"
            if ell != (8 * g + 4) * lam:
                bad.append(f"(i) (8g+4)·lambda: {where}")
            if g * (g - 1) * dv.target_degree != twice_p - 2 * lam:
                bad.append(f"(ii) the target degree: {where}")
            families.add(dv.family)
    assert not bad, bad[:10]
    assert len(families) == (6 if target == WEIERSTRASS else 10)  # every family was read
