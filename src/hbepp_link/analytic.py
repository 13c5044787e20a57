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
subsets.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import (
    CANONICAL_PATTERNS,
    NEGATIVE_TOLERANCE,
    ProbabilityConsistencyError,
    ProbabilityTable,
)

_NORMALIZATION_TOL = 1e-12


def vacuum_set_probability(
    silent: Sequence[bool],
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
) -> float:
    """Probability that every detector in ``silent`` registers no click.

    A detector is silent when no photon survives to it and it produces no
    dark count; detectors outside the set are marginalized. ``silent`` is a
    4-sequence of bools in (a+, a-, b+, b-) order.
    """
    if len(silent) != 4:
        raise ValueError(f"expected 4 mode flags, got {len(silent)}")
    dark_miss = (1.0 - channel.dark_count) ** sum(bool(s) for s in silent)
    return _vacuum_term(
        silent, source.g, channel.tau1, channel.tau2, angles.relative(), dark_miss
    )


def _vacuum_term(silent, g, tau1, tau2, theta: float, dark_miss):
    """V(S) from plain numbers, ``dark_miss`` being (1-d)^|S|.

    Arithmetic only, so ``g``, ``tau1``, ``tau2`` and ``dark_miss`` may be
    numpy arrays that broadcast together; each element is then the float
    the scalar call gives, bit for bit.
    """
    # t = 1 - z: tau on silent modes, 0 on marginalized ones
    taus = (tau1, tau1, tau2, tau2)
    t1, t2, t3, t4 = (tau if s else 0.0 for s, tau in zip(silent, taus))
    x = g * g
    squeeze = (1.0 - g) * (1.0 + g)
    cos, sin = math.cos(theta), math.sin(theta)
    c2, s2 = cos * cos, sin * sin
    # det = f1 f2 - q^2 z3 z4 with f1 = 1 - x z3 (s2 z1 + c2 z2) and
    # f2 = 1 - x z4 (c2 z1 + s2 z2); with c2 + s2 = 1 each f is a sum of
    # nonnegative terms, so nothing cancels in the diagonal factors.
    f1 = squeeze + x * (t3 + (1.0 - t3) * (s2 * t1 + c2 * t2))
    f2 = squeeze + x * (t4 + (1.0 - t4) * (c2 * t1 + s2 * t2))
    q = x * cos * sin * (t1 - t2)
    det = f1 * f2 - q * q * (1.0 - t3) * (1.0 - t4)
    return squeeze * squeeze * dark_miss / det


def _vacuum_probabilities_by_mask(
    source: SourceParams, channel: ChannelParams, angles: MeasurementAngles
) -> list[float]:
    """V for all 16 silence subsets, indexed by bitmask (bit i = mode i silent)."""
    out = []
    for mask in range(16):
        silent = tuple(bool(mask >> i & 1) for i in range(4))
        out.append(vacuum_set_probability(silent, source, channel, angles))
    return out


def _inclusion_exclusion(vac) -> list:
    """The 16 pattern probabilities, in canonical order, from the V of every
    silence bitmask; the V may be floats or arrays of one shape.

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
            sign = -1.0 if bin(sub).count("1") % 2 else 1.0
            p += sign * vac[silent_mask | extra]
        values.append(p)
    return values


def outcome_probabilities(
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
) -> ProbabilityTable:
    """All 16 click-pattern probabilities via inclusion-exclusion over the
    vacuum-subset terms. This is the production path; it is exact for any
    dark-count rate.
    """
    vac = _vacuum_probabilities_by_mask(source, channel, angles)
    table = ProbabilityTable(tuple(_inclusion_exclusion(vac)))
    # Bug-catching gate, not the accuracy claim: the sharpest subset terms
    # are of order 1/(1-g^2)^2 before reweighting, so rounding in the sum
    # grows with that factor as g -> 1 (it stays below 1e-12 for g <= 0.9).
    squeeze = 1.0 - source.g * source.g
    tol = max(_NORMALIZATION_TOL, 32.0 * sys.float_info.epsilon / squeeze**2)
    if not abs(table.total() - 1.0) <= tol:  # a NaN sum fails too
        raise ProbabilityConsistencyError(
            f"pattern probabilities sum to {table.total()!r}, expected 1"
        )
    return table


def outcome_probability_array(g, tau1, tau2, dark_count, theta: float) -> np.ndarray:
    """``outcome_probabilities`` over arrays, as a (16, ...) array.

    ``g``, ``tau1``, ``tau2`` and ``dark_count`` broadcast together to the
    trailing shape; ``theta`` is the one relative angle. Each column equals
    the scalar table's values bit for bit: the same V(S) expression, the
    same summation order, and (1-d)^|S| from Python's own ``pow`` (numpy's
    ``**`` can round differently). The range and normalization checks are
    the caller's; ``needs_scalar_check`` flags the columns to re-run.
    """
    dark = np.asarray(dark_count, dtype=float)
    vac = []
    for mask in range(16):
        silent = tuple(bool(mask >> i & 1) for i in range(4))
        dark_miss = np.reshape(
            [(1.0 - d) ** sum(silent) for d in dark.ravel().tolist()], dark.shape
        )
        vac.append(_vacuum_term(silent, g, tau1, tau2, theta, dark_miss))
    return np.stack(np.broadcast_arrays(*_inclusion_exclusion(vac)))


def needs_scalar_check(table: np.ndarray) -> np.ndarray:
    """Columns of an ``outcome_probability_array`` that might fail a check
    of ``outcome_probabilities``: an entry out of range or NaN, or a sum
    off by more than half the smallest normalization tolerance (the other
    half covers the order of summation)."""
    bound = NEGATIVE_TOLERANCE
    in_range = ((table >= -bound) & (table <= 1.0 + bound)).all(axis=0)
    normalized = abs(table.sum(axis=0) - 1.0) <= 0.5 * _NORMALIZATION_TOL
    return ~(in_range & normalized)
