"""Exact rational evaluation of the click table, the reference for every
entry of ``analytic.outcome_probability_array``, for the four entries of
``analytic.pair_probabilities`` (as the marginals of the theta = 0 table)
and for V(S) on the diagonal of the package's triangular system.

It shares no arithmetic with the package: it takes the vacuum-subset
formula as written and sums inclusion-exclusion over it. Every float input
is converted to a ``Fraction`` without rounding, so the result is the exact
value of

    V(S) = (1 - g^2)^2 (1 - d)^|S| / det(I - g^2 M^T Z_A M Z_B)

for those inputs, with M built from the floats cos(theta) and sin(theta).
"""

import math
from fractions import Fraction

from hbepp_link.patterns import CANONICAL_PATTERNS


def vacuum_terms_exact(
    g: float, tau1: float, tau2: float, theta: float, dark_count: float
) -> list[Fraction]:
    """V(S) for every silence bitmask S (bit i set: mode i of
    (a+, a-, b+, b-) silent), in exact arithmetic."""
    cos, sin = Fraction(math.cos(theta)), Fraction(math.sin(theta))
    m = ((-sin, cos), (-cos, -sin))
    x = Fraction(g) ** 2
    keep = 1 - Fraction(dark_count)
    z_silent = (1 - Fraction(tau1),) * 2 + (1 - Fraction(tau2),) * 2
    rotated = {}  # M^T Z_A M by Alice's silent modes
    vac = []
    for mask in range(16):
        z = [z_silent[i] if mask >> i & 1 else 1 for i in range(4)]
        if mask & 3 not in rotated:
            rotated[mask & 3] = [
                [sum(m[k][i] * z[k] * m[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]
        rot = rotated[mask & 3]
        a = [[(i == j) - x * rot[i][j] * z[2 + j] for j in range(2)] for i in range(2)]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        vac.append((1 - x) ** 2 * keep ** bin(mask).count("1") / det)
    return vac


def outcome_probabilities_exact(
    g: float, tau1: float, tau2: float, theta: float, dark_count: float
) -> list[Fraction]:
    """The 16 pattern probabilities in canonical order, exactly: for click
    set C and silent set S, P = sum over subsets T of C of
    (-1)^|T| V(S union T)."""
    vac = vacuum_terms_exact(g, tau1, tau2, theta, dark_count)
    values = []
    for pattern in CANONICAL_PATTERNS:
        clicks = [i for i, bit in enumerate(pattern) if bit]
        silent_mask = 15 ^ sum(1 << i for i in clicks)
        p = Fraction(0)
        for sub in range(1 << len(clicks)):
            extra = sum(1 << clicks[j] for j in range(len(clicks)) if sub >> j & 1)
            term = vac[silent_mask | extra]
            p = p - term if bin(sub).count("1") % 2 else p + term
        values.append(p)
    return values


def pair_masks(pattern) -> tuple[int, int]:
    """The silence masks of a pattern's two pairs, (a+, b-) and (a-, b+),
    each with bit 0 Bob's mode and bit 1 Alice's: at theta = 0 the pattern's
    probability is the product of one pair's probabilities at the two."""
    return (
        (not pattern.b_minus) + 2 * (not pattern.a_plus),
        (not pattern.b_plus) + 2 * (not pattern.a_minus),
    )


def pair_marginals(table) -> list:
    """One pair's four probabilities from a theta = 0 table in canonical
    order, by ``pair_masks``: the sum over the other pair's four states."""
    q = [0, 0, 0, 0]
    for pattern, value in zip(CANONICAL_PATTERNS, table):
        q[pair_masks(pattern)[0]] += value
    return q
