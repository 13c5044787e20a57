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
goes as cos^2(2 theta), and its relative error there is within 2 eps / g^2.
A pattern is (1 - g^2)^2 times y after each mode's dark-count rule, every
weight nonnegative: silent (1 - d) f(tau), click difference + d f(tau).

The angle enters only as c^2 = cos^2 theta and s^2 = sin^2 theta, so the
table at theta is the one at pi/2 - theta with Bob's ``+`` and ``-``
swapped, and D(T) takes one pairing of the modes at every angle.

``outcome_probability_array`` takes floats or numpy arrays, theta among
them, and ``outcome_probabilities`` is its one-point call. At angle 0
D(T) is the product of two independent pairs' 4x4 systems, both built
from one pair's nine entries (``_pair``, which ``_system`` pairs up too),
so the table is products of one pair's four probabilities,
``pair_probabilities``, which every key rate reads. Both run one back
substitution and dark-count rule (``_solve``), at four modes and at two,
pass one range and normalization gate, and return Python floats for one
point, one array stacked on a first axis for arrays. The gate's rule and
messages live in its one-point form: an array that fails the whole-array
test re-runs that check column by column, so it raises what a one-point
call at its first failing column raises.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import (
    CANONICAL_PATTERNS,
    NEGATIVE_TOLERANCE,
    PATTERN_LABELS,
    ProbabilityConsistencyError,
    ProbabilityTable,
    check_range,
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


def _plan(weights):
    """``_solve``'s plan at ``len(weights)`` modes, D(T)'s entry (row, col) at
    sum((2 col bit - row bit) weight) over silence bitmasks: the all-silent
    row's diagonal entry; the other rows by clicks, then mask, each with its
    diagonal entry, its first (entry, column) term and the rest, in column
    order (every row but the all-silent one has the all-silent column); each
    mode's (silent, clicked) masks."""
    masks = range(1 << len(weights))

    def entry(row, col):
        return sum((2 * (col >> m & 1) - (row >> m & 1)) * w for m, w in enumerate(weights))

    rows = sorted(masks[:-1], key=lambda row: (-bin(row).count("1"), row))
    terms = [[(entry(row, col), col) for col in masks[row + 1:] if col & row == row]
             for row in rows]
    solve = [(row, entry(row, row), first, rest) for row, (first, *rest) in zip(rows, terms)]
    dark = [[(mask | 1 << m, mask) for mask in masks if not mask >> m & 1]
            for m in range(len(weights))]  # bit 0 first: the order sets the last bit
    return entry(masks[-1], masks[-1]), solve, dark


def _solve(entries, plan, dark_count):
    """y of D(T) y = e_(all silent) by silence bitmask, then each mode's
    dark-count rule: ``plan`` on ``entries`` and ``dark_count``, Python floats
    (or ``Fraction``s) at one point, array rows otherwise, alike per element.
    Each row's terms add left to right, first term first, as
    ``left_to_right_sum`` adds them, but in an inline loop: a generator
    through that function would take about as long as the rest of a
    one-point solve."""
    last, rows, dark = plan
    y = [1 / entries[last]] * (len(rows) + 1)  # each row but the last solved below
    for row, diagonal, (e, col), terms in rows:
        total = entries[e] * y[col]
        for e, col in terms:
            total = total + entries[e] * y[col]  # not +=: a later term may be wider
        y[row] = -total / entries[diagonal]
    keep = 1 - dark_count
    for pairs in dark:
        for silent, clicked in pairs:
            y[clicked], y[silent] = y[clicked] + dark_count * y[silent], y[silent] * keep
    return y


#: D(T) at four modes, a+ most significant in ``_STATES``, and one pair's
#: D(T) with Bob's mode on bit 0, so his dark count comes first.
_FOUR_MODES = _plan((27, 9, 3, 1))
_TWO_MODES = _plan((1, 3))
#: The silence bitmask of each pattern, in canonical order.
_SILENT = np.array([15 ^ sum(bit << m for m, bit in enumerate(p)) for p in CANONICAL_PATTERNS])
#: The same with Bob's ``+`` and ``-`` modes (bits 2 and 3) swapped.
_SWAPPED = _SILENT & 3 | (_SILENT & 4) << 1 | (_SILENT & 8) >> 1
#: One pair's entries by silence mask, as ``_checked`` names them.
_PAIR_LABELS = ("pair AB", "pair A", "pair B", "pair vac")


def _pair(g, tau1, tau2):
    """The nine entries of one pair's D(T), the 4x4 system of
    p(a, b) = 1 - x z_a z_b = kappa + x (t_a + z_a t_b), x = g^2, over
    Alice's mode a and Bob's mode b: a tuple p[3 state_a + state_b], states
    as in ``_STATES``, with p[0] = kappa = 1 - g^2. Arithmetic with integer
    literals only, so ``Fraction`` inputs give exact entries."""
    x = g * g
    kappa = (1 - g) * (1 + g)
    xt1, xt2 = x * tau1, x * tau2
    return (
        kappa, kappa + xt2, -xt2,
        kappa + xt1, kappa + x * (tau1 + (1 - tau1) * tau2), -xt2 * (1 - tau1),
        -xt1, -xt1 * (1 - tau2), -xt1 * tau2,
    )


def _system(g, tau1, tau2, weight):
    """The 81 entries of D(T), by ``_STATES``, on a first axis over the one
    shape of the arrays ``g``, ``tau1`` and ``tau2``; ``weight`` broadcasts to it.

    D = c^2 P1 + s^2 P2 with the pairings P1 = p(a+, b-) p(a-, b+) and
    P2 = p(a+, b+) p(a-, b-) of ``_pair``'s p. As
    P2 - P1 = x (t_a- - t_a+)(t_b+ - t_b-), D = P1 + s^2 (P2 - P1), or in
    Bob's swapped labels, which swap P1 and P2, P1 + c^2 (P2 - P1). So with
    ``weight`` = min(c^2, s^2) one pairing serves every angle. The swap
    keeps the cross term the smaller part: with weight s^2, D near pi/2 is
    P1 + (P2 - P1) where an entry of P2 can be 1e-14 of P1's near g = 1,
    and the table's sum then misses 1 by up to 2.4e-5. The cross term is 0
    where a party's two modes share a state: every one-sided entry is the
    same at every angle, and at theta = 0 D is the product of two
    independent pairs' systems. Entry 0, both parties clicked, is kappa^2.
    """
    pair = np.stack(_pair(g, tau1, tau2))
    return pair[_PAIRING[0]] * pair[_PAIRING[1]] + np.multiply.outer(_CROSS, weight * pair[8])


def _table(g, tau1, tau2, dark_count, theta):
    """The 16 pattern probabilities in canonical order, unchecked, stacked on
    a first axis over the inputs' broadcast shape; ``_SWAPPED`` where c^2 < s^2.
    One ``math.cos`` and ``math.sin`` per angle: a 0-d ``theta`` forms c^2,
    s^2, the weight min(c^2, s^2) and the swap test in Python floats, an
    array of angles as arrays, with the same bits per element."""
    if np.ndim(theta) == 0:
        c, s = math.cos(theta), math.sin(theta)
        c2, s2 = c * c, s * s
        weight = min(c2, s2)
    else:
        trig = np.array([(math.cos(t), math.sin(t)) for t in np.ravel(theta).tolist()])
        c2, s2 = (trig * trig).T.reshape((2,) + np.shape(theta))
        weight = np.minimum(c2, s2)
    g, tau1, tau2, dark_count, _ = np.broadcast_arrays(g, tau1, tau2, dark_count, theta)
    det = _system(g, tau1, tau2, weight)
    if det.ndim == 1:  # one point: Python floats
        det, dark_count = det.tolist(), float(dark_count)
    y = np.array(_solve(list(det), _FOUR_MODES, dark_count))
    return det[0] * np.where(c2 < s2, y[_SWAPPED], y[_SILENT])  # det[0] = kappa^2


def _checked(table, labels=PATTERN_LABELS):
    """``table``, probabilities stacked on a first axis (one point's list,
    or a 1-D array, which becomes that list), once every entry lies in
    [-NEGATIVE_TOLERANCE, 1 + NEGATIVE_TOLERANCE] and their sum, left to
    right, is 1 within ``_NORMALIZATION_TOL``; a NaN fails both. Otherwise
    a ``ProbabilityConsistencyError`` names an out-of-range entry by its
    label in ``labels``, or the sum. An array is tested whole; only when
    that test fails is the one-point check re-run column by column, in
    row-major order, so the first failing column raises its own message."""
    if not isinstance(table, list) and table.ndim == 1:
        table = table.tolist()
    total = left_to_right_sum(table)
    if isinstance(table, list):  # one point, gated in Python
        check_range(labels, table)
        if not abs(total - 1.0) <= _NORMALIZATION_TOL:
            raise ProbabilityConsistencyError(
                f"pattern probabilities sum to {float(total)!r}, expected 1"
            )
        return table
    if not ((abs(total - 1.0) <= _NORMALIZATION_TOL).all()
            and table.min(initial=0.0) >= -NEGATIVE_TOLERANCE
            and table.max(initial=1.0) <= 1.0 + NEGATIVE_TOLERANCE):
        for column in np.ndindex(table.shape[1:]):
            _checked(table[(slice(None), *column)].tolist(), labels)
    return table


def outcome_probability_array(g, tau1, tau2, dark_count, theta):
    """The 16 click-pattern probabilities in canonical order, checked by
    ``_checked``. ``g``, ``tau1``, ``tau2``, ``dark_count`` and the relative
    angle ``theta`` are floats or arrays that broadcast together; an array
    element is the float a one-point call gives, bit for bit."""
    return _checked(_table(g, tau1, tau2, dark_count, theta))


def pair_probabilities(g, tau1, tau2, dark_count):
    """One pair's four click probabilities by the pair's silence mask: q0
    both modes click, q1 Alice's only, q2 Bob's only, q3 both silent;
    checked by ``_checked``, which names a failing entry by ``_PAIR_LABELS``.

    At theta = 0 the cross weight vanishes and D(T) is the pairing
    p(a+, b-) p(a-, b+) of ``_pair``'s entries: two independent two-mode
    squeezers, each with tau1 on Alice's side and tau2 on Bob's. One pair's
    table is ``_solve`` at two modes times kappa. Arithmetic with integer
    literals only: ``g``, ``tau1``, ``tau2`` and ``dark_count`` may be
    floats, numpy arrays that broadcast together, or ``Fraction``s, which
    give exact entries. Four Python floats (or ``Fraction``s) for one
    point, one array stacked on a first axis for arrays. Python floats
    stay out of numpy: their list goes to the gate as it is.
    """
    p = _pair(g, tau1, tau2)
    table = [p[0] * v for v in _solve(p, _TWO_MODES, dark_count)]
    return _checked(table if type(table[0]) is float else np.array(table), _PAIR_LABELS)


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
