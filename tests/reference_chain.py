"""Reference one-point chain for the tests: the scalar assembly of the
click-probability table, its checks, the secure rate and CHSH, one Python
float at a time, as the package computed them before every table came from
``analytic.outcome_probability_array``.

The package's general table, its CHSH and its secure rate, one-point calls
and every element of array calls alike, must return the same floats, bit
for bit, and raise the same exceptions. The key rates read
``analytic.pair_table`` instead, which the tests check against the exact
reference in ``tests/exact.py``.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from hbepp_link.keyrate import binary_entropy
from hbepp_link.params import ChannelParams, MeasurementAngles, SourceParams
from hbepp_link.patterns import (
    CANONICAL_PATTERNS,
    ProbabilityConsistencyError,
    ProbabilityTable,
)
from hbepp_link.postprocess import (
    ALICE_CHSH_ANGLES,
    BOB_CHSH_ANGLES,
    PostprocessingModel,
    coincidences,
    correlation,
)

_NORMALIZATION_TOL = 1e-12


def vacuum_set_probability(
    silent: Sequence[bool],
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
) -> float:
    """V(S): every detector flagged in ``silent`` (a+, a-, b+, b-) sees no
    photon and no dark count; the others are marginalized."""
    if len(silent) != 4:
        raise ValueError(f"expected 4 mode flags, got {len(silent)}")
    dark_miss = (1.0 - channel.dark_count) ** sum(bool(s) for s in silent)
    theta = angles.relative()
    # t = 1 - z: tau on silent modes, 0 on marginalized ones
    taus = (channel.tau1, channel.tau1, channel.tau2, channel.tau2)
    t1, t2, t3, t4 = (tau if s else 0.0 for s, tau in zip(silent, taus))
    g = source.g
    x = g * g
    squeeze = (1.0 - g) * (1.0 + g)
    cos, sin = math.cos(theta), math.sin(theta)
    c2, s2 = cos * cos, sin * sin
    f1 = squeeze + x * (t3 + (1.0 - t3) * (s2 * t1 + c2 * t2))
    f2 = squeeze + x * (t4 + (1.0 - t4) * (c2 * t1 + s2 * t2))
    q = x * cos * sin * (t1 - t2)
    det = f1 * f2 - q * q * (1.0 - t3) * (1.0 - t4)
    return squeeze * squeeze * dark_miss / det


def outcome_probabilities(
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
) -> ProbabilityTable:
    """The 16 pattern probabilities by inclusion-exclusion over the V of
    every silence bitmask, range-checked and normalization-checked."""
    vac = [
        vacuum_set_probability(
            tuple(bool(mask >> i & 1) for i in range(4)), source, channel, angles
        )
        for mask in range(16)
    ]
    values = []
    for pattern in CANONICAL_PATTERNS:
        silent_mask = sum((not bit) << i for i, bit in enumerate(pattern))
        clicks = [i for i, bit in enumerate(pattern) if bit]
        p = 0.0
        for sub in range(1 << len(clicks)):
            extra = sum(1 << clicks[j] for j in range(len(clicks)) if sub >> j & 1)
            sign = -1.0 if bin(sub).count("1") % 2 else 1.0
            p += sign * vac[silent_mask | extra]
        values.append(p)
    table = ProbabilityTable(tuple(values))
    total = 0.0
    for value in values:  # left to right, as sum() adds on Python < 3.12
        total += value
    squeeze = 1.0 - source.g * source.g
    tol = max(_NORMALIZATION_TOL, 32.0 * sys.float_info.epsilon / squeeze**2)
    if not abs(total - 1.0) <= tol:
        raise ProbabilityConsistencyError(
            f"pattern probabilities sum to {total!r}, expected 1"
        )
    return table


def secure_rate(eps: float, r_sift: float) -> float:
    """R_sift (1 - 2 H2(eps)), clamped at zero."""
    if r_sift < 0.0:
        raise ValueError(f"sifted rate must be >= 0, got {r_sift}")
    return max(0.0, r_sift * (1.0 - 2.0 * binary_entropy(eps)))


def chsh(
    source: SourceParams, channel: ChannelParams, model: PostprocessingModel
) -> float:
    """|E(a1,b1) - E(a1,b2) + E(a2,b1) + E(a2,b2)| at the standard settings."""
    a1, a2 = ALICE_CHSH_ANGLES
    b1, b2 = BOB_CHSH_ANGLES

    def corr(theta_a: float, theta_b: float) -> float:
        table = outcome_probabilities(
            source, channel, MeasurementAngles(theta_a, theta_b)
        )
        return correlation(coincidences(table, model))

    return abs(corr(a1, b1) - corr(a1, b2) + corr(a2, b1) + corr(a2, b2))
