"""Closed-form click-pattern probabilities for a two-mode-squeezed pair
source distributed through asymmetric loss to four threshold detectors.

The source emits the polarization-entangled state

    (1 - g^2) * sum_n sqrt(n+1) g^n |singlet^n>,

each arm passes a polarization-independent beam-splitter loss (tau1 to
Alice, tau2 to Bob), and each party splits its arm on a polarizer rotated
by theta_i into a ``+`` and a ``-`` threshold detector. Every probability
of interest reduces to "vacuum-subset" terms: the probability V(S) that
every detector in a subset S sees no surviving photon and no dark count,
with the remaining detectors marginalized.

V(S) has one closed form. Give each detector mode a weight z: ``z = 1 - tau``
for modes required silent and ``z = 1`` for marginalized modes. The
generating function E[prod_m z_m^(n_m)] over the pre-loss photon numbers
n_m evaluates, through the pairwise two-mode-squeezing structure of the
source, to

    V(S) = (1 - g^2)^2 (1 - d)^|S| / det(I - g^2 M^T Z_A M Z_B),

with M = [[-sin t, cos t], [-cos t, -sin t]] for relative angle
t = theta1 - theta2, Z_A = diag(z_a+, z_a-), Z_B = diag(z_b+, z_b-), and
(1 - d)^|S| the chance that no silent detector fires a dark count. The
determinant is positive on the whole domain (g < 1, tau in (0, 1]), so the
formula needs no special case; this is the threshold-detector
("Torontonian") structure of Quesada, Arrazola & Killoran, PRA 98, 062322
(2018), for two modes per party.

Exact pattern probabilities follow by inclusion-exclusion over vacuum
subsets. One chain computes them: ``outcome_probability_array`` takes
floats or numpy arrays, and ``outcome_probabilities`` is its one-point call.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import (
    CANONICAL_PATTERNS,
    NEGATIVE_TOLERANCE,
    ProbabilityConsistencyError,
    ProbabilityTable,
    left_to_right_sum,
)

_NORMALIZATION_TOL = 1e-12


def vacuum_terms(g, tau1, tau2, dark_count, theta: float) -> list:
    """V(S) for all 16 silence subsets, indexed by bitmask (bit i set: mode
    i of (a+, a-, b+, b-) is silent).

    Arithmetic only, so ``g``, ``tau1``, ``tau2`` and ``dark_count`` may be
    floats or numpy arrays that broadcast together; ``theta`` is the one
    relative angle. (1-d)^|S| is Python's own ``pow`` per element (numpy's
    ``**`` can round differently), so an array element is the float a
    one-point call gives, bit for bit.
    """
    keep = 1.0 - dark_count
    if isinstance(keep, np.ndarray):
        flat = keep.ravel().tolist()
        dark_miss = [np.reshape([k**n for k in flat], keep.shape) for n in range(5)]
    else:
        dark_miss = [keep**n for n in range(5)]
    x = g * g
    squeeze = (1.0 - g) * (1.0 + g)
    weight = squeeze * squeeze
    scaled = [weight * miss for miss in dark_miss]
    cos, sin = math.cos(theta), math.sin(theta)
    c2, s2 = cos * cos, sin * sin
    x_cos_sin = x * cos * sin
    z_bob = 1.0 - tau2  # z on Bob's silent modes
    vac = [0.0] * 16
    for alice in range(4):
        # t = 1 - z: tau on silent modes, 0 on marginalized ones
        t1, t2 = (tau1 if alice >> i & 1 else 0.0 for i in range(2))
        # det = f1 f2 - q^2 z3 z4 with f1 = 1 - x z3 (s2 z1 + c2 z2) and
        # f2 = 1 - x z4 (c2 z1 + s2 z2); with c2 + s2 = 1 each f is a sum of
        # nonnegative terms, so nothing cancels in the diagonal factors.
        # Bob's t3 and t4 are 0 or tau2, so each factor is built once per
        # Alice state, as (t = 0, t = tau2); at t = 0 the factor
        # squeeze + x (t + (1 - t) u) is squeeze + x u exactly.
        u1, u2 = s2 * t1 + c2 * t2, c2 * t1 + s2 * t2
        f1 = (squeeze + x * u1, squeeze + x * (tau2 + z_bob * u1))
        f2 = (squeeze + x * u2, squeeze + x * (tau2 + z_bob * u2))
        if alice in (1, 2):  # q = x cos sin (t1 - t2) is zero where t1 = t2
            q = x_cos_sin * (t1 - t2)
            qq = q * q
            qq_z = qq * z_bob
            cross = (qq, qq_z, qq_z, qq_z * z_bob)  # q^2 z3 z4 by Bob's state
        for bob in range(4):
            det = f1[bob & 1] * f2[bob >> 1]
            if alice in (1, 2):
                det = det - cross[bob]
            mask = alice | bob << 2
            vac[mask] = scaled[mask.bit_count()] / det
    return vac


def _inclusion_exclusion(vac) -> list:
    """The 16 pattern probabilities, in canonical order, from the V of every
    silence bitmask; the V may be floats or arrays that broadcast together.

    For a pattern with click set C and silent set S,
    P = sum over subsets T of C of (-1)^|T| V(S union T), summed in
    ascending order of the subset mask.
    """
    values = []
    for pattern in CANONICAL_PATTERNS:
        silent_mask = sum((not bit) << i for i, bit in enumerate(pattern))
        clicks = [i for i, bit in enumerate(pattern) if bit]
        p = 0.0
        for sub in range(1 << len(clicks)):
            extra = sum(1 << clicks[j] for j in range(len(clicks)) if sub >> j & 1)
            term = vac[silent_mask | extra]
            # p - V is p + (-1) V bit for bit; not -= or +=: a later V may be wider
            p = p - term if bin(sub).count("1") % 2 else p + term
        values.append(p)
    return values


def outcome_probability_array(g, tau1, tau2, dark_count, theta: float) -> list:
    """The 16 click-pattern probabilities in canonical order, checked.

    Inputs as for ``vacuum_terms``; each entry is a float, or an array of
    the inputs' broadcast shape. Every entry must lie in
    [-NEGATIVE_TOLERANCE, 1 + NEGATIVE_TOLERANCE] and the entries, summed
    left to right, must be 1 within the normalization gate. Otherwise the
    first failing column in row-major order raises the
    ``ProbabilityConsistencyError`` a one-point call at it would raise.
    """
    values = _inclusion_exclusion(vacuum_terms(g, tau1, tau2, dark_count, theta))
    total = left_to_right_sum(values)
    # Bug-catching gate, not the accuracy claim: the sharpest subset terms
    # are of order 1/(1-g^2)^2 before reweighting, so rounding in the sum
    # grows with that factor as g -> 1 (it stays below 1e-12 for g <= 0.9).
    # The tolerance is max(1e-12, that growth); a NaN fails every test.
    residual = abs(total - 1.0)
    squeeze = 1.0 - g * g
    ok = (residual <= _NORMALIZATION_TOL) | (
        residual <= 32.0 * sys.float_info.epsilon / (squeeze * squeeze)
    )
    for value in values:
        ok = ok & (value >= -NEGATIVE_TOLERANCE) & (value <= 1.0 + NEGATIVE_TOLERANCE)
    if ok is not True and not np.all(ok):  # a one-point call's ok is a bool
        column = np.unravel_index(np.argmin(ok), np.shape(ok))
        point = tuple(float(np.asarray(value)[column]) for value in values)
        ProbabilityTable(point)  # raises for the first entry out of range
        raise ProbabilityConsistencyError(
            f"pattern probabilities sum to {float(np.asarray(total)[column])!r}, "
            "expected 1"
        )
    return values


def outcome_probabilities(
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
) -> ProbabilityTable:
    """All 16 click-pattern probabilities at one point: the one-point call
    of ``outcome_probability_array``. Exact for any dark-count rate."""
    return ProbabilityTable(tuple(outcome_probability_array(
        source.g, channel.tau1, channel.tau2, channel.dark_count, angles.relative()
    )))
