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

A pattern with click set C is, by inclusion-exclusion, the mixed difference
over C of V: f(t = 0) - f(t = tau) per clicked mode, f(t = tau) per silent
one. On the triangular matrix T = [[0, -tau], [0, tau]] of each mode, f(T)
holds f(0), f(tau) and their difference without forming it (Opitz's
divided differences; Higham, *Functions of Matrices*, 2008). So D(T) is a
16x16 upper-triangular system with 81 nonzero entries, and one back
substitution on D(T) y = e_(all silent) gives all 16 mixed differences y
of 1/D, never subtracting one node value from another: small entries keep
their digits at any loss. Rounding grows only where the leading order
cancels in the physics: near theta = pi/4 the four-fold click's g^4 term
goes as cos^2(2 theta), and its relative error there is up to eps / g^2.
A pattern is (1 - g^2)^2 times y after each mode's dark-count rule, every
weight nonnegative: silent (1 - d) f(tau), click difference + d f(tau).

The angle enters only as c^2 = cos^2 theta and s^2 = sin^2 theta, so the
table at theta is the one at pi/2 - theta with Bob's ``+`` and ``-``
swapped, and D(T) takes one pairing of the modes at every angle.

``outcome_probability_array`` takes floats or numpy arrays, theta among
them, and ``outcome_probabilities`` is its one-point call. ``pair_table``
is the table at angle 0 as products of one 2x2 pair table, which every
key rate reads. Both pass one range and normalization gate and return 16
Python floats for one point, one array stacked on a first axis for arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import (
    CANONICAL_PATTERNS,
    NEGATIVE_TOLERANCE,
    ProbabilityConsistencyError,
    ProbabilityTable,
    left_to_right_sum,
)

#: Bug-catching gate on |sum - 1|, not the accuracy claim. The residual is a
#: few ulps at any gain: at most 2.9e-15 (13 eps) on 100,000 random points,
#: half of them with 1 - g between 1e-15 and 0.1, tau down to 1e-12 and
#: theta in {0, 0.3, pi/4, pi/2, 2}, both tables; a margin of about 350.
_NORMALIZATION_TOL = 1e-12

#: The 81 entries of D(T), one per state of each mode (a+, a-, b+, b-), a+
#: most significant: 0 the diagonal at t = 0, 1 at t = tau, 2 off-diagonal.
_STATES = np.indices((3, 3, 3, 3)).reshape(4, 81)
#: The pairing (a+, b-)(a-, b+) as indices into one pair's table
#: p[state_a, state_b].
_PAIRING = (3 * _STATES[0] + _STATES[3], 3 * _STATES[1] + _STATES[2])
#: t_2nd - t_1st over one party's two modes is tau times _SIGN[s_1st, s_2nd];
#: (t_a- - t_a+)(t_b- - t_b+) is tau1 tau2 times _CROSS.
_SIGN = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, -1.0], [1.0, 1.0, 0.0]])
_CROSS = _SIGN[_STATES[0], _STATES[1]] * _SIGN[_STATES[2], _STATES[3]]


def _entry(row: int, col: int) -> int:
    """The index among the 81 of D(T)'s entry (row, col): silence bitmasks
    (bit i set: mode i at t = tau), ``row`` a subset of ``col``."""
    return sum((2 * (col >> m & 1) - (row >> m & 1)) * (27, 9, 3, 1)[m] for m in range(4))


#: The diagonal entry D(S) of each silence bitmask S.
_DIAGONAL = [_entry(mask, mask) for mask in range(16)]
#: Back substitution by the number of clicked modes: per level its rows,
#: their diagonal entries, and as (term, row) arrays the entries and the
#: solved columns they multiply.
_LEVELS = []
for _silent in (3, 2, 1, 0):
    _rows = [r for r in range(16) if bin(r).count("1") == _silent]
    _cols = [[c for c in range(16) if c != r and c & r == r] for r in _rows]
    _terms = [[_entry(r, c) for c in cols] for r, cols in zip(_rows, _cols)]
    _diagonal = [_DIAGONAL[r] for r in _rows]
    _LEVELS.append((_rows, _diagonal, np.transpose(_terms), np.transpose(_cols)))
#: The silence bitmask of each pattern, in canonical order.
_SILENT = np.array([15 ^ sum(bit << m for m, bit in enumerate(p)) for p in CANONICAL_PATTERNS])
#: The same with Bob's ``+`` and ``-`` modes (bits 2 and 3) swapped.
_SWAPPED = _SILENT & 3 | (_SILENT & 4) << 1 | (_SILENT & 8) >> 1
#: The pair-table entries of each pattern, p(a+, b-) and p(a-, b+), as
#: indices Alice's click + 2 Bob's click into ``pair_table``'s stacked pair.
_FIRST = np.array([p.a_plus + 2 * p.b_minus for p in CANONICAL_PATTERNS])
_SECOND = np.array([p.a_minus + 2 * p.b_plus for p in CANONICAL_PATTERNS])


def _system(g, tau1, tau2, weight):
    """The 81 entries of D(T), by ``_STATES``, on a first axis over the one
    shape of the arrays ``g``, ``tau1`` and ``tau2``; ``weight`` broadcasts to it.

    D = c^2 P1 + s^2 P2 with the pairings P1 = p(a+, b-) p(a-, b+) and
    P2 = p(a+, b+) p(a-, b-) of p(a, b) = 1 - x z_a z_b
    = kappa + x (t_a + z_a t_b), x = g^2, kappa = 1 - g^2. As
    P2 - P1 = x (t_a- - t_a+)(t_b+ - t_b-), D = P1 + s^2 (P2 - P1), or in
    Bob's swapped labels, which swap P1 and P2, P1 + c^2 (P2 - P1). So with
    ``weight`` = min(c^2, s^2) one pairing serves every angle. The cross
    term is 0 where a party's two modes share a state: every one-sided
    entry is the same at every angle, and at theta = 0 D is
    ``pair_table``'s pairing.
    """
    x = g * g
    kappa = (1.0 - g) * (1.0 + g)
    xt1, xt2 = x * tau1, x * tau2
    pair = np.stack((  # p of one pair, by (state_a, state_b)
        kappa, kappa + xt2, -xt2,
        kappa + xt1, kappa + x * (tau1 + (1.0 - tau1) * tau2), -xt2 * (1.0 - tau1),
        -xt1, -xt1 * (1.0 - tau2), -xt1 * tau2,
    ))
    return pair[_PAIRING[0]] * pair[_PAIRING[1]] + np.multiply.outer(_CROSS, -weight * (xt1 * tau2))


def _table(g, tau1, tau2, dark_count, theta):
    """The 16 pattern probabilities in canonical order, unchecked, stacked on
    a first axis over the inputs' broadcast shape; ``_SWAPPED`` where c^2 < s^2."""
    trig = np.array([(math.cos(t), math.sin(t)) for t in np.ravel(theta).tolist()])
    c2, s2 = (trig * trig).T.reshape((2,) + np.shape(theta))  # one cos and sin per angle
    g, tau1, tau2, dark_count, _ = np.broadcast_arrays(g, tau1, tau2, dark_count, theta)
    det = _system(g, tau1, tau2, np.minimum(c2, s2))
    y = np.empty((16,) + g.shape)
    y[15] = 1.0 / det[_DIAGONAL[15]]
    for rows, diagonal, entries, cols in _LEVELS:
        # summed in one fixed order: an array column is its one-point call
        y[rows] = -left_to_right_sum(det[entries] * y[cols]) / det[diagonal]
    keep = 1.0 - dark_count
    for bit in (1, 2, 4, 8):  # dark counts, on a view of y with mode bit on axis 1
        modes = y.reshape((8 // bit, 2, bit) + g.shape)
        modes[:, 0] += dark_count * modes[:, 1]
        modes[:, 1] *= keep
    kappa = (1.0 - g) * (1.0 + g)
    return kappa * kappa * np.where(c2 < s2, y[_SWAPPED], y[_SILENT])


def _checked(table):
    """``table``, pattern probabilities stacked on a first axis (a list of
    16 Python floats for one point), once every entry lies in
    [-NEGATIVE_TOLERANCE, 1 + NEGATIVE_TOLERANCE] and their sum, left to
    right, is 1 within ``_NORMALIZATION_TOL``; a NaN fails both. Otherwise
    the first failing column in row-major order raises the
    ``ProbabilityConsistencyError`` a one-point call at it would raise."""
    total = left_to_right_sum(table)
    ok = np.asarray(abs(total - 1.0) <= _NORMALIZATION_TOL)
    # the whole table's extremes first; per column only once a check fails
    if not (ok.all() and table.min() >= -NEGATIVE_TOLERANCE
            and table.max() <= 1.0 + NEGATIVE_TOLERANCE):
        ok &= (table.min(axis=0) >= -NEGATIVE_TOLERANCE) & (
            table.max(axis=0) <= 1.0 + NEGATIVE_TOLERANCE
        )
        column = np.unravel_index(np.argmin(ok), ok.shape)
        ProbabilityTable(tuple(table[(slice(None), *column)].tolist()))  # raises if out of range
        raise ProbabilityConsistencyError(
            f"pattern probabilities sum to {float(np.asarray(total)[column])!r}, "
            "expected 1"
        )
    return table.tolist() if table.ndim == 1 else table


def outcome_probability_array(g, tau1, tau2, dark_count, theta):
    """The 16 click-pattern probabilities in canonical order, checked by
    ``_checked``. ``g``, ``tau1``, ``tau2``, ``dark_count`` and the relative
    angle ``theta`` are floats or arrays that broadcast together; an array
    element is the float a one-point call gives, bit for bit."""
    return _checked(_table(g, tau1, tau2, dark_count, theta))


def pair_table(g, tau1, tau2, dark_count):
    """The 16 click-pattern probabilities at relative angle 0, in canonical
    order, checked by ``_checked``: the products of one 2x2 pair table,
    stacked once and multiplied as one gather, ``pair[_FIRST] * pair[_SECOND]``.

    At theta = 0 the rotation is M = [[0, 1], [-1, 0]], so
    I - g^2 M^T Z_A M Z_B is diag(1 - x z_a- z_b+, 1 - x z_a+ z_b-) with
    x = g^2, and V(S) splits into one factor per pair, (a+, b-) and
    (a-, b+),

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
    ``Fraction``s, which give the exact table (a list of ``Fraction``s).
    """
    x = g * g
    c = (1 - g) * (1 + g)
    d = dark_count
    e = 1 - d
    z1, z2 = 1 - tau1, 1 - tau2
    # each product below is formed once and grouped as the formulas read
    # left to right: x tau1 z2 is (x tau1) z2, c e e is (c e) e
    x_tau1, x_tau2, tau2_z1, c_e = x * tau1, x * tau2, tau2 * z1, c * e
    d_a, d_b = c + x_tau1, c + x_tau2
    d_ab = c + x * (tau1 + tau2_z1)
    pair = np.array((  # p of one pair, by Alice's click + 2 Bob's click
        c_e * e / d_ab,
        c_e * (x_tau1 * z2 + d * d_b) / (d_b * d_ab),
        c_e * (x_tau2 * z1 + d * d_a) / (d_a * d_ab),
        (
            x_tau1 * tau2 * (x * d_ab + c)
            + d * c * x * (tau2_z1 * d_b + tau1 * z2 * d_a)
            + d * d * c * d_a * d_b
        ) / (d_a * d_b * d_ab),
    ))
    return _checked(pair[_FIRST] * pair[_SECOND])


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
