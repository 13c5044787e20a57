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
subsets: ``outcome_probability_array`` takes floats or numpy arrays, and
``outcome_probabilities`` is its one-point call. At relative angle 0 the
determinant factorizes into two independent pairs, and ``pair_table``
writes the table as products of one 2x2 pair table, with no subtraction;
every key rate reads it. Both tables pass the same range and
normalization gate.
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


def _checked(values: list, g) -> list:
    """``values``, the 16 pattern probabilities, once they pass the gate.

    Every entry must lie in [-NEGATIVE_TOLERANCE, 1 + NEGATIVE_TOLERANCE]
    and the entries, summed left to right, must be 1 within the
    normalization gate. Otherwise the first failing column in row-major
    order raises the ``ProbabilityConsistencyError`` a one-point call at it
    would raise.
    """
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


def outcome_probability_array(g, tau1, tau2, dark_count, theta: float) -> list:
    """The 16 click-pattern probabilities in canonical order, checked by
    ``_checked``.

    Inputs as for ``vacuum_terms``; each entry is a float, or an array of
    the inputs' broadcast shape.
    """
    return _checked(
        _inclusion_exclusion(vacuum_terms(g, tau1, tau2, dark_count, theta)), g
    )


def pair_table(g, tau1, tau2, dark_count) -> list:
    """The 16 click-pattern probabilities at relative angle 0, in canonical
    order, checked by ``_checked``: the products of one 2x2 pair table.

    At theta = 0 the rotation is M = [[0, 1], [-1, 0]], so
    I - g^2 M^T Z_A M Z_B is diag(1 - x z_a- z_b+, 1 - x z_a+ z_b-) with
    x = g^2: the cross term q is 0 and D = f1 f2. V(S) splits into one
    factor per pair, (a+, b-) and (a-, b+),

        v(z_a, z_b) = c (1 - d)^n / (1 - x z_a z_b),  c = 1 - g^2,

    with n the pair's silent modes and z = 1 - tau on a silent mode, 1 on a
    marginalized one. So the two pairs are independent two-mode squeezers,
    each with tau1 on Alice's side and tau2 on Bob's, and every entry is
    p(a+, b-) p(a-, b+) of one pair table p. Inclusion-exclusion over one
    pair's four v, with e = 1 - d, z1 = 1 - tau1, z2 = 1 - tau2,
    D_a = c + x tau1, D_b = c + x tau2 and D_ab = 1 - x z1 z2
    = c + x (tau1 + tau2 z1), gives

        p(0, 0) = c e^2 / D_ab
        p(1, 0) = c e (x tau1 z2 + d D_b) / (D_b D_ab)
        p(0, 1) = c e (x tau2 z1 + d D_a) / (D_a D_ab)
        p(1, 1) = [x tau1 tau2 (x D_ab + c) + d c x (tau2 z1 D_b + tau1 z2 D_a)
                   + d^2 c D_a D_b] / (D_a D_b D_ab)

    where 1 marks a click. No term subtracts two nearly equal quantities,
    so the floats keep every entry to a few ulps however deep the loss.
    Arithmetic with integer literals only: ``g``, ``tau1``, ``tau2`` and
    ``dark_count`` may be floats, numpy arrays that broadcast together, or
    ``Fraction``s, which give the exact table.
    """
    x = g * g
    c = (1 - g) * (1 + g)
    d = dark_count
    e = 1 - d
    z1, z2 = 1 - tau1, 1 - tau2
    d_a, d_b = c + x * tau1, c + x * tau2
    d_ab = c + x * (tau1 + tau2 * z1)
    pair = {
        (False, False): c * e * e / d_ab,
        (True, False): c * e * (x * tau1 * z2 + d * d_b) / (d_b * d_ab),
        (False, True): c * e * (x * tau2 * z1 + d * d_a) / (d_a * d_ab),
        (True, True): (
            x * tau1 * tau2 * (x * d_ab + c)
            + d * c * x * (tau2 * z1 * d_b + tau1 * z2 * d_a)
            + d * d * c * d_a * d_b
        ) / (d_a * d_b * d_ab),
    }
    return _checked([
        pair[p.a_plus, p.b_minus] * pair[p.a_minus, p.b_plus]
        for p in CANONICAL_PATTERNS
    ], g)


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
