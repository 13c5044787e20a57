"""Exact rational evaluation of the vacuum-subset formula, used as a
reference for ``analytic.vacuum_terms``, the V(S) of the one chain that
computes every table, for one point and for arrays alike.

Every float input is converted to a ``Fraction`` without rounding, so the
result is the exact value of

    V(S) = (1 - g^2)^2 (1 - d)^|S| / det(I - g^2 M^T Z_A M Z_B)

for those inputs, with M built from the floats cos(theta) and sin(theta).
"""

import math
from fractions import Fraction

from hbepp_link.patterns import CANONICAL_PATTERNS


def vacuum_set_probability_exact(
    silent, g: float, tau1: float, tau2: float, theta: float, dark_count: float
) -> Fraction:
    """V(S) for silence flags in (a+, a-, b+, b-) order, in exact arithmetic."""
    cos, sin = Fraction(math.cos(theta)), Fraction(math.sin(theta))
    m = ((-sin, cos), (-cos, -sin))
    x = Fraction(g) ** 2
    taus = (tau1, tau1, tau2, tau2)
    z = [1 - Fraction(tau) if s else Fraction(1) for s, tau in zip(silent, taus)]
    # rotated Alice weights M^T Z_A M, then I - x (M^T Z_A M) Z_B
    rot = [[sum(m[k][i] * z[k] * m[k][j] for k in range(2)) for j in range(2)]
           for i in range(2)]
    a = [[(i == j) - x * rot[i][j] * z[2 + j] for j in range(2)] for i in range(2)]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (1 - x) ** 2 * (1 - Fraction(dark_count)) ** sum(map(bool, silent)) / det


def outcome_probabilities_exact(
    g: float, tau1: float, tau2: float, theta: float, dark_count: float
) -> list[Fraction]:
    """The 16 pattern probabilities in canonical order, exactly: for click
    set C and silent set S, P = sum over subsets T of C of
    (-1)^|T| V(S union T)."""
    vac = [
        vacuum_set_probability_exact(
            [bool(mask >> i & 1) for i in range(4)], g, tau1, tau2, theta, dark_count
        )
        for mask in range(16)
    ]
    values = []
    for pattern in CANONICAL_PATTERNS:
        clicks = [i for i, bit in enumerate(pattern) if bit]
        silent_mask = 15 ^ sum(1 << i for i in clicks)
        p = Fraction(0)
        for sub in range(1 << len(clicks)):
            extra = sum(1 << clicks[j] for j in range(len(clicks)) if sub >> j & 1)
            p += (-1) ** bin(sub).count("1") * vac[silent_mask | extra]
        values.append(p)
    return values
