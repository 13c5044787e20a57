"""Second evaluation strategy for the closed-form table, used as a
cross-check of ``outcome_probabilities``.

It shares no code with ``hbepp_link.analytic``. It evaluates the 16
vacuum-subset terms V(S) in floats, from the two pairings of the
determinant, and never forms an inclusion-exclusion sum: it builds the
table in canonical order, each pattern's own vacuum-subset term minus every
previously computed pattern whose click set is a strict subset.
"""

import math

from hbepp_link.params import ChannelParams, MeasurementAngles, SourceParams
from hbepp_link.patterns import CANONICAL_PATTERNS, ProbabilityTable


def vacuum_term(silent_mask: int, g: float, tau1: float, tau2: float,
                dark_count: float, theta: float) -> float:
    """V(S) for the silence bitmask S (bit i: mode i of (a+, a-, b+, b-)).

    With t = tau on silent modes and 0 on the others, z = 1 - t, x = g^2
    and kappa = 1 - g^2, the determinant is c^2 P1 + s^2 P2 with the
    pairings P1 = p(a+, b-) p(a-, b+) and P2 = p(a+, b+) p(a-, b-) of
    p(a, b) = kappa + x (t_a + z_a t_b); P2 - P1 = x (t_a- - t_a+)(t_b+ - t_b-)
    is added to the dominant pairing with the smaller weight.
    """
    taus = (tau1, tau1, tau2, tau2)
    t = [tau if silent_mask >> i & 1 else 0.0 for i, tau in enumerate(taus)]
    x = g * g
    kappa = (1.0 - g) * (1.0 + g)

    def p(a: int, b: int) -> float:
        return kappa + x * (t[a] + (1.0 - t[a]) * t[b])

    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    cross = x * (t[1] - t[0]) * (t[2] - t[3])
    if c2 >= s2:
        det = p(0, 3) * p(1, 2) + s2 * cross
    else:
        det = p(0, 2) * p(1, 3) - c2 * cross
    return kappa * kappa * (1.0 - dark_count) ** bin(silent_mask).count("1") / det


def outcome_probabilities_subtractive(
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
) -> ProbabilityTable:
    """All 16 pattern probabilities as explicit linear combinations."""
    point = (source.g, channel.tau1, channel.tau2, channel.dark_count, angles.relative())
    by_click_mask: dict[int, float] = {}
    values = []
    for pattern in CANONICAL_PATTERNS:
        click_mask = sum(bit << i for i, bit in enumerate(pattern))
        p = vacuum_term(15 ^ click_mask, *point)
        for prev_mask, prev_p in by_click_mask.items():
            if prev_mask & ~click_mask == 0:  # strict subset (never equal)
                p -= prev_p
        by_click_mask[click_mask] = p
        values.append(p)
    return ProbabilityTable(tuple(values))
