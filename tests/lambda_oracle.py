"""A third reading of both closed forms, P − λ, independent of the paper's table.

Cornalba–Harris (1988) give the Hodge class on the hyperelliptic locus as

    (8g+4)·λ = g·η_irr + Σ_i 2(i+1)(g−i)·η_i + Σ_i 4i(g−i)·δ_i,

and ℓ(D), the coefficient of λ on the class D, is read off it pulled back:
each marking of η_i or δ_i takes the coefficient of η_i or δ_i, and ψ and
δ_{0,2} take none.  For every formal unknown u of both targets the closed
forms satisfy

    (g(g−1)/2) · coefficient(u) = P(u) − ℓ(u),

P the short table below (each ψ_k for g12).  For ``w`` its ψ row and the
first boundary terms are Cukierman's (1989) Weierstrass class divided by the
weight g(g−1)/2 of a hyperelliptic Weierstrass point; the boundary
multiplicities C(h, 2) on δ and C(h+1, 2) on η, h the genus of the unmarked
component, are a fit observed on the closed forms, neither derived nor the
paper's.  Everything is kept in integers: :func:`scaled` is 2(8g+4)·(P − ℓ),
which equals 2g times the numerator over 2(g−1)(2g+1).

The same two tables check the catalog's inputs, member by member.  Summed
over a family's degree vector, (8g+4)·ℓ(D)·deg D is (8g+4)·λ(B), λ(B) the
degree of the Hodge class on the family's base (:data:`LAMBDA`), and the
target's degree satisfies g(g−1)·deg = Σ 2P(D)·deg D − 2λ(B)
(:func:`member_sums`).  Every row of :data:`LAMBDA` but f2ip1's follows from
the family's geometry; f2ip1's is observed on the catalog, not derived.

Only ``basis`` is read, for the kind names and the index ranges; each unknown
and each family is spelled here.
"""

from hypdiv import basis as B

# target -> kind -> 2P at (g, i, m); slot m of a boundary kind, i its index
_TWICE_P = {
    "weierstrass": {
        B.PSI: lambda g, i, m: g * (g + 1),
        B.ETA_IRR: lambda g, i, m: 0,
        B.DELTA: lambda g, i, m: -2 * (g - i) ** 2 if m else -2 * i * i,
        B.ETA: lambda g, i, m: -(g - i) * (g - i - 1) if m else -i * (i + 1),
    },
    "g12": {
        B.PSI: lambda g, i, m: g,
        B.ETA_IRR: lambda g, i, m: 0,
        B.DELTA_0_2: lambda g, i, m: -g * (g + 1),
        B.DELTA: lambda g, i, m: (-2 * i * i, 2 * i * (g - i) - g, -2 * (g - i) ** 2)[m],
        B.ETA: lambda g, i, m: (-i * (i + 1), i * (g - 1 - i), -(g - i) * (g - i - 1))[m],
    },
}

# kind -> (8g+4)·ℓ of its class at (g, i)
_EIGHT_G_PLUS_FOUR_ELL = {
    B.PSI: lambda g, i: 0,
    B.ETA_IRR: lambda g, i: g,
    B.DELTA_0_2: lambda g, i: 0,
    B.DELTA: lambda g, i: 4 * i * (g - i),
    B.ETA: lambda g, i: 2 * (i + 1) * (g - i),
}

# family -> λ(B) of its member at (g, i); i is None for a one-member family
LAMBDA = {
    # the curve is fixed, so the Hodge bundle is trivial
    "diagonal": lambda g, i: 0,
    "two_point_single": lambda g, i: 0,
    "two_point_weierstrass": lambda g, i: 0,
    # a pencil of genus-g curves on a rational surface: χ(O_S) − χ(O_P¹)·χ(O_C) = 1 − (1 − g)
    "quadric_pencil": lambda g, i: g,
    # the λ of the moving genus-j pencil, j = i (low) or g − i (high); the fixed curve adds none
    **{f"glued_{section}_low": lambda g, i: i for section in ("horizontal", "diagonal")},
    **{f"glued_{section}_high": lambda g, i: g - i for section in ("horizontal", "diagonal")},
    # the glued family after a degree-2 base change
    "ruling_low": lambda g, i: 2 * i,
    "ruling_high": lambda g, i: 2 * (g - i),
    # observed on the catalog at every g = 2..2000, not derived: a fit, as P's multiplicities are
    "f2ip1": lambda g, i: (i + 1) * (2 * g - i),
}

# target -> its global unknowns, in solver order, with the kind each one is read at
_GLOBALS = {
    "weierstrass": {"d": B.PSI, "c": B.ETA_IRR},
    "g12": {"d": B.PSI, "c": B.ETA_IRR, "a_0_2": B.DELTA_0_2},
}


def scaled(target, kind, g, i=None, m=None):
    """2(8g+4)·(P − ℓ) of the class ``kind`` at (g, i, m), an integer."""
    return (8 * g + 4) * _TWICE_P[target][kind](g, i, m) - 2 * _EIGHT_G_PLUS_FOUR_ELL[kind](g, i)


def table(g, target):
    """:func:`scaled` of every formal unknown on (g, target), keyed by its name."""
    out = {u: scaled(target, kind, g) for u, kind in _GLOBALS[target].items()}
    slots = range(2 if target == "weierstrass" else 3)
    for head, kind, indices in (("a", B.DELTA, B.delta_range(g)), ("b", B.ETA, B.eta_range(g))):
        out.update((f"{head}_{i}_{m}", scaled(target, kind, g, i, m)) for i in indices for m in slots)
    return out


def member_sums(target, g, degrees):
    """(Σ (8g+4)·ℓ(D)·deg D, Σ 2P(D)·deg D) over ``degrees``, a degree vector's
    {(kind, index, marking): degree}.  ψ_1 + ψ_2 reads as ψ; a boundary label is
    read at its slot, the first character of its marking, auxiliaries included."""
    ell = twice_p = 0
    for (kind, i, marking), degree in degrees.items():
        kind = B.PSI if kind == "psi_sum" else kind
        m = int(marking[0]) if kind in (B.DELTA, B.ETA) else None
        ell += _EIGHT_G_PLUS_FOUR_ELL[kind](g, i) * degree
        twice_p += _TWICE_P[target][kind](g, i, m) * degree
    return ell, twice_p
