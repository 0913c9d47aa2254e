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

Only ``basis`` is read, for the kind names and the index ranges; each unknown
is spelled here.
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
