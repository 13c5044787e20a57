"""Closed-form click-pattern probabilities for a two-mode-squeezed pair
source distributed through asymmetric loss to four threshold detectors.

The source emits the polarization-entangled state

    (1 - g^2) * sum_n sqrt(n+1) g^n |singlet^n>,

each arm passes a polarization-independent beam-splitter loss (tau1 to
Alice, tau2 to Bob), and each party splits its arm on a polarizer rotated
by theta_i into a ``+`` and a ``-`` threshold detector. Every probability
of interest reduces to "vacuum-subset" terms: the probability V(S) that
every detector in a subset S sees no surviving photon, with the remaining
detectors marginalized.

V(S) has a closed rational form. Assign each detector mode a weight z:
``z = 1 - tau`` for modes required silent and ``z = 1`` for marginalized
modes. The generating function E[prod_m z_m^(n_m)] over the pre-loss photon
numbers n_m evaluates, through the pairwise two-mode-squeezing structure of
the source, to

    V(S) = (1 - g^2)^2 / det(I - g^2 M^T Z_A M Z_B),

with M = [[-sin t, cos t], [-cos t, -sin t]] for relative angle
t = theta1 - theta2 and Z_A = diag(z_a+, z_a-), Z_B = diag(z_b+, z_b-).
Equivalently, V(S) = (1-g^2)^2 * Q where Q is the rational function of the
conventional coefficient assignment (weight 1 on silent modes, 1 - tau on
marginalized ones, see ``QCoefficients``); the two expressions are
algebraically identical wherever the coefficient product is nonzero, and
the determinant form remains finite at tau = 1 where the conventional one
degenerates to 0/0. ``q_function`` therefore evaluates the conventional
form directly and switches to the reduced determinant form exactly on that
boundary (Riemann-removable singularity).

Exact pattern probabilities follow by inclusion-exclusion over vacuum
subsets; dark counts enter as an independent per-detector Bernoulli factor
(1 - d)^|S| on each vacuum subset, since a silent detector needs photon
vacuum *and* no dark count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import (
    CANONICAL_PATTERNS,
    ClickPattern,
    ProbabilityConsistencyError,
    ProbabilityTable,
)

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class QCoefficients:
    """Per-mode coefficient assignment for one vacuum-subset term.

    ``a_plus``/``a_minus`` take values in {1, 1-tau1} and
    ``b_plus``/``b_minus`` in {1, 1-tau2}: weight 1 marks a mode required
    to see vacuum, weight 1-tau marks a mode marginalized over. The
    coupling G = g^2 (1-tau1)(1-tau2) of the rational form is derived from
    the channel, not stored.
    """

    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float

    @classmethod
    def for_silent_modes(
        cls, silent: Sequence[bool], tau1: float, tau2: float
    ) -> "QCoefficients":
        """Assignment for the subset of modes flagged silent.

        ``silent`` is a 4-sequence of bools in (a+, a-, b+, b-) order.
        """
        if len(silent) != 4:
            raise ValueError(f"expected 4 mode flags, got {len(silent)}")
        taus = (tau1, tau1, tau2, tau2)
        vals = [1.0 if s else 1.0 - t for s, t in zip(silent, taus)]
        return cls(*vals)

    def validate(self, tau1: float, tau2: float) -> None:
        for name, val, tau in (
            ("a_plus", self.a_plus, tau1),
            ("a_minus", self.a_minus, tau1),
            ("b_plus", self.b_plus, tau2),
            ("b_minus", self.b_minus, tau2),
        ):
            if val != 1.0 and val != 1.0 - tau:
                raise ValueError(
                    f"coefficient {name}={val!r} must be 1 or {1.0 - tau!r}"
                )


def _reduced_denominator(
    z1: float, z2: float, z3: float, z4: float, g: float, theta: float
) -> float:
    """det(I - g^2 M^T Z_A M Z_B) for silence weights z1..z4.

    This is the conventional rational form with all coefficients cancelled
    from numerator and denominator; finite for any z in [0, 1]^4, g < 1.
    """
    g2 = g * g
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    f1 = 1.0 - g2 * z3 * (s2 * z1 + c2 * z2)
    f2 = 1.0 - g2 * z4 * (c2 * z1 + s2 * z2)
    return f1 * f2 - g2 * g2 * s2 * c2 * (z2 - z1) ** 2 * z3 * z4


def q_function(
    coeffs: QCoefficients,
    g: float,
    tau1: float,
    tau2: float,
    theta: float,
) -> float:
    """Rational vacuum-subset kernel Q for a coefficient assignment.

    Q = ABCD / (ABCD + G^2 - G(AD+BC)cos^2 t - G(AC+BD)sin^2 t) with
    G = g^2 (1-tau1)(1-tau2). When the coefficient product vanishes
    (tau_i = 1 with marginalized modes) the vanishing coefficients are
    factored out and the finite limit is returned.
    """
    if not 0.0 <= g < 1.0:
        raise ValueError(f"nonlinear gain must be in [0, 1), got {g}")
    if not 0.0 < tau1 <= 1.0:
        raise ValueError(f"tau1 must be in (0, 1], got {tau1}")
    if not 0.0 < tau2 <= 1.0:
        raise ValueError(f"tau2 must be in (0, 1], got {tau2}")
    coeffs.validate(tau1, tau2)
    a, b, c, d = coeffs.a_plus, coeffs.a_minus, coeffs.b_plus, coeffs.b_minus
    num = a * b * c * d
    if num == 0.0:
        # tau = 1 boundary: evaluate the reduced form (coefficient duals:
        # a silent mode carries weight 1-tau, a marginalized one weight 1).
        z1 = 1.0 - tau1 if a == 1.0 else 1.0
        z2 = 1.0 - tau1 if b == 1.0 else 1.0
        z3 = 1.0 - tau2 if c == 1.0 else 1.0
        z4 = 1.0 - tau2 if d == 1.0 else 1.0
        return 1.0 / _reduced_denominator(z1, z2, z3, z4, g, theta)
    big_g = g * g * (1.0 - tau1) * (1.0 - tau2)
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    den = (
        num
        + big_g * big_g
        - big_g * (a * d + b * c) * c2
        - big_g * (a * c + b * d) * s2
    )
    if den == 0.0:
        raise ArithmeticError(
            "vacuum-subset denominator vanished with nonzero numerator; "
            f"g={g}, tau1={tau1}, tau2={tau2}, theta={theta}"
        )
    return num / den


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
    coeffs = QCoefficients.for_silent_modes(silent, channel.tau1, channel.tau2)
    q = q_function(coeffs, source.g, channel.tau1, channel.tau2, angles.relative())
    vacuum_weight = (1.0 - source.g * source.g) ** 2
    dark_miss = (1.0 - channel.dark_count) ** sum(bool(s) for s in silent)
    return vacuum_weight * q * dark_miss


def _vacuum_probabilities_by_mask(
    source: SourceParams, channel: ChannelParams, angles: MeasurementAngles
) -> list[float]:
    """V for all 16 silence subsets, indexed by bitmask (bit i = mode i silent)."""
    out = []
    for mask in range(16):
        silent = tuple(bool(mask >> i & 1) for i in range(4))
        out.append(vacuum_set_probability(silent, source, channel, angles))
    return out


def outcome_probabilities(
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
) -> ProbabilityTable:
    """All 16 click-pattern probabilities via inclusion-exclusion.

    For a pattern with click set C and silent set S,
    P = sum over subsets T of C of (-1)^|T| V(S union T). This is the
    production path; it is exact for any dark-count rate.
    """
    vac = _vacuum_probabilities_by_mask(source, channel, angles)
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

