"""BBM92 key-rate figures: QBER, sifted and secure rates, brightness
optimization against channel loss, and the fixed-brightness performance
sweep.

Conventions (standard BBM92 with a singlet source):

* Bases are matched (relative analyzer angle 0), coincidences are folded
  with the squash rule by default, and the anti-correlated outcomes are the
  correct ones, so the QBER is the same-sign fraction
  eps = (n_pp + n_mm) / total.
* The sifted rate carries the factor 1/2 for random basis choice:
  R_sift = total / 2. The factor cancels in every performance ratio.
* The secure rate uses one-way error correction at the Shannon limit and
  equal bit/phase error rates: R_sec = R_sift (1 - 2 H2(eps)), clamped at
  zero.

Every rate here is at relative angle 0, so it reads one pair's four
probabilities (``analytic.pair_probabilities``, with the general table's
range and normalization gate) and forms each model's two sums from them
in closed form, every term nonnegative, accurate however deep the loss.
``secure_rate`` takes floats or arrays: an array element is the float
the one-point call gives, bit for bit, and a one-point call returns a
Python float. Each check is written once, in the one-point form; an
array that fails its one whole-array test re-runs it element by element,
in row-major order, to raise. Python floats stay out of numpy from the
pair's four probabilities to the secure rate, where numpy's fixed cost
per call (about 75 µs for the chain) would outweigh the arithmetic.
``secure_rate`` owns the package's one binary entropy, ``_h2`` on floats
and ``_entropy`` on arrays, and takes it only of error rates outside
``_CLAMPED``, as the rate inside is clamped to 0.0 either way.

The gain search takes a (tau1, tau2, dark count) row per channel. One
array call scans ``G_BRACKET`` for every channel, split into calls of at
most ``_ROWS_PER_CALL`` gains, and one ``argmax`` over the scan finds
each channel's best scan gain. Then each channel goes on Python floats:
the five scan rates around its best gain, a five-gain stencil around the
scan's guess of its peak and the gain the stencil places the peak at,
each rate the one-point chain's, about 5 µs a gain. A guess is the
maximum of a quartic through five rates, in +, -, * and / written out
left to right, so no numpy code path moves the optimum's bits.

All rates are per temporal mode; per-second display is a CLI concern.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import pair_probabilities
from .params import ChannelParams, SourceParams, transmittance_from_db
from .postprocess import PostprocessingModel, share

#: Gains scanned by ``optimize_gain`` and their default number.
G_BRACKET = (1e-3, 0.95)
_GRID_POINTS = 256
#: The stencil around the scan's guess g0 of a peak: the five gains
#: g0 (1 + 1e-3 k), k = -2 to 2, as factors of g0.
_STENCIL = tuple(1.0 + 1e-3 * k for k in (-2.0, -1.0, 0.0, 1.0, 2.0))

#: Gains per array call at most, in whole channels: 4 scan rows with the
#: fixed-gain column, 1,028 gains, peak near 0.185 MB of numpy temporaries
#: on the pair-form chain (tracemalloc; the pair's nine entries, its four
#: stacked probabilities, the forms and the lane columns at the grid's
#: shape), and a 26-loss scan, in 7 calls, 0.23 MB.
_ROWS_PER_CALL = 4 * (_GRID_POINTS + 1)


#: Error rates strictly between these bounds have H2 > 1/2 + 2e-4 (the
#: H2 = 1/2 roots are 0.110028 and 0.889972), so 1 - 2 H2 < -4e-4 and
#: ``secure_rate`` clamps the rate to 0.0 without evaluating the entropy.
_CLAMPED = (0.1101, 0.8899)

#: The smallest positive normal float: ``_uphill`` divides by no less, so
#: a flat window gives a step of 0, not 0 / 0.
_TINY = float(np.finfo(float).tiny)


def _h2(eps: float) -> float:
    """Shannon entropy H2 of the float error rate ``eps``, H2(0) = H2(1) = 0,
    with its check, but 1.0 strictly inside ``_CLAMPED``. Each log is
    Python's ``math.log2``, since ``np.log2`` rounds differently on about
    one input in 1,000."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"error rate must be in [0, 1], got {eps}")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    if _CLAMPED[0] < eps < _CLAMPED[1]:
        return 1.0
    return -(eps * math.log2(eps)) - (1.0 - eps) * math.log2(1.0 - eps)


def _entropy(eps: np.ndarray) -> np.ndarray:
    """``_h2`` of each element of the array ``eps``, every element in
    [0, 1] (``secure_rate`` has checked), both logs of every evaluated
    element in one pass over one array."""
    interior = (eps > 0.0) & (eps < 1.0)
    entropy = np.array(interior, dtype=float)  # 0.0 at eps = 0 and 1, where H2 is 0
    logged = interior & ((eps <= _CLAMPED[0]) | (eps >= _CLAMPED[1]))
    e = eps[logged]
    terms = np.concatenate((e, 1.0 - e))
    products = terms * np.fromiter(map(math.log2, terms.tolist()), float, terms.size)
    # -(e log2 e) is -e log2 e bit for bit: IEEE products are sign-symmetric
    entropy[logged] = -products[:e.size] - products[e.size:]
    return entropy


def _qber_and_sift(g, tau1, tau2, dark_count, model: PostprocessingModel):
    """(QBER, sifted rate) at matched bases: eps = (n_pp + n_mm) / total and
    R_sift = total / 2, with (0, 0) where no coincidences survive
    post-processing. Inputs as for ``analytic.pair_probabilities``: floats,
    arrays that broadcast together, or ``Fraction``s, which give exact rates.

    A pattern's probability is q[m1] q[m2], m1 the state of the pair
    (a+, b-) and m2 of (a-, b+), so ``postprocess.fold`` reduces to one
    form per model, every term nonnegative. The same-sign two-fold
    coincidences are 2 q1 q2 and the opposite-sign ones 2 q0 q3, which is
    all that discard keeps; squash adds the events with a double click,
    q0^2 and 2 q0 (q1 + q2), half of each to the same-sign cells. The
    squash total and QBER are Ma, Fung & Lo's gain Q and error rate E for
    two independent squeezers (PRA 76, 012307, 2007), exactly.
    """
    q0, q1, q2, q3 = pair_probabilities(g, tau1, tau2, dark_count)
    cross = 2 * q1 * q2
    if model is PostprocessingModel.SQUASH:
        same = q0 * (q0 / 2 + q1 + q2) + cross
        total = q0 * (q0 + 2 * (q1 + q2 + q3)) + cross
    else:
        same, total = cross, cross + 2 * q0 * q3
    return share(same, total), total / 2


def qber_and_sift(
    source: SourceParams,
    channel: ChannelParams,
    model: PostprocessingModel = PostprocessingModel.SQUASH,
) -> tuple[float, float]:
    """(QBER, sifted rate) at matched bases.

    Returns (0, 0) when no coincidences survive post-processing.
    """
    return _qber_and_sift(
        source.g, channel.tau1, channel.tau2, channel.dark_count, model
    )


def secure_rate(eps, r_sift):
    """Secure rate from QBER and sifted rate, clamped at zero.

    Floats, or arrays that broadcast together, element by element (a float
    when neither is an array). A negative sifted rate, then an error rate
    outside [0, 1] (NaN included), raises. An array call tests both at one
    gate; if it fails, the one-point call re-runs per element, in
    row-major order, to raise the first failure's message.
    ``np.where`` clamps as ``max(0.0, v)`` does, also at -0.0 and
    NaN. The entropy is evaluated only outside ``_CLAMPED``: inside it,
    1.0 stands in for H2, which makes the rate -r_sift <= 0 (or NaN),
    clamped to 0.0 as the true H2 is. Two Python floats take the same
    steps in Python, without numpy.
    """
    if type(eps) is float and type(r_sift) is float:
        if r_sift < 0.0:
            raise ValueError(f"sifted rate must be >= 0, got {r_sift}")
        return max(0.0, r_sift * (1.0 - 2.0 * _h2(eps)))
    eps, r_sift = np.asarray(eps), np.asarray(r_sift)
    if (r_sift < 0.0).any() or not ((eps >= 0.0) & (eps <= 1.0)).all():
        for e, r in np.broadcast(eps, r_sift):
            secure_rate(float(e), float(r))
    rate = r_sift * (1.0 - 2.0 * _entropy(eps))
    rate = np.where(rate > 0.0, rate, 0.0)
    return rate if rate.ndim else float(rate)


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    """Outcome of the gain search; ``g_opt`` is None when the secure rate
    vanished over the whole scan. ``g_opt`` is the stencil's peak where
    ``_optimum`` keeps it, with ``iterations`` 1, else the best scan gain,
    with ``iterations`` 0. ``secure_rate_at_opt`` is the rate at ``g_opt``,
    and ``bracket`` is the scan's: the best scan gain's two grid neighbours."""

    g_opt: float | None
    mu_opt: float | None
    secure_rate_at_opt: float
    iterations: int
    bracket: tuple[float, float]

    @property
    def found(self) -> bool:
        return self.g_opt is not None


def _secure_rates(g: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """``secure_rate(*qber_and_sift(...))``, squash model, at every element
    of the 2-D ``g``: row i at the channel of row i of ``lanes``, a
    (tau1, tau2, dark count) row per search, in array calls of at most
    ``_ROWS_PER_CALL`` gains. An element is its one-point call's float,
    bit for bit, whatever else its call holds."""
    step = max(1, _ROWS_PER_CALL // g.shape[1])
    rates = np.empty(g.shape)
    # each call takes tau1, tau2 and the dark count at the grid's shape, so
    # no operation broadcasts a (rows, 1) column: broadcasting gives the same
    # bits but runs about 8% slower, a (2, 257) scan in 153-166 us against
    # 142-152 us (two runs, each the median of 16 alternating rounds; 2-vCPU
    # Xeon, numpy 2.4.6)
    for i in range(0, len(lanes), step):
        rates[i:i + step] = secure_rate(*_qber_and_sift(
            g[i:i + step], *np.repeat(lanes[i:i + step].T[:, :, None], g.shape[1], axis=2),
            PostprocessingModel.SQUASH,
        ))
    return rates


def _uphill(slope: float, curvature: float) -> float:
    """Newton's step towards a maximum, at most 1 in size: uphill by 1 where
    the curve is not concave enough, and 0 where it is flat."""
    return slope / max(max(-curvature, abs(slope)), _TINY)


def _peak(five: list[float], at: float, above: float) -> float:
    """The maximum of the quartic through the five rates ``five`` at evenly
    spaced gains, the middle one at ``at`` and the next at ``above``, by two
    guarded Newton steps from the middle. On 620 random channels it came
    within 1.8e-6 relative of the true peak from the 256-gain scan, and
    within 2.5e-12 from a stencil 1e-3 of that guess apart.

    12 p'(x) = c1 + c2 x + c3 x^2 + c4 x^3 for the quartic p through rates
    f0 to f4, x in grid steps from the middle. Each c is its five weighted
    rates added left to right; a weight of 0 adds nothing to a sum of rates,
    which are +0.0 or positive and finite, and a - b is a + (-b) bit for bit."""
    f0, f1, f2, f3, f4 = five
    c1 = f0 - 8.0 * f1 + 8.0 * f3 - f4
    c2 = -f0 + 16.0 * f1 - 30.0 * f2 + 16.0 * f3 - f4
    c3 = -3.0 * f0 + 6.0 * f1 - 6.0 * f3 + 3.0 * f4
    c4 = 2.0 * f0 - 8.0 * f1 + 12.0 * f2 - 8.0 * f3 + 2.0 * f4
    x = _uphill(c1, c2)  # the first step, from x = 0
    x += _uphill(c1 + x * (c2 + x * (c3 + x * c4)), c2 + x * (2.0 * c3 + x * (3.0 * c4)))
    return at + x * (above - at)


def _chain(g: float, lane: list[float]) -> float:
    """The one-point squash secure rate at gain ``g`` on the lane's channel."""
    return secure_rate(*_qber_and_sift(g, *lane, PostprocessingModel.SQUASH))


def _optimum(best: int, rates: np.ndarray, grid: tuple[float, ...],
             lane: list[float]) -> OptimizationResult:
    """One lane's search after its scan: ``rates`` at the scan's gains
    ``grid`` (and at any gains after them), ``best`` the index of the first
    best scan rate, and the lane's (tau1, tau2, dark count). Only the five
    scan rates around the best gain, clamped into the grid, become Python
    floats. The best scan gain and its two grid neighbours, the bracket; if
    its rate is positive and not at a bracket end, the stencil
    ``g0 * _STENCIL`` around ``_peak``'s guess g0 from those five rates,
    and the stencil's guess g1, each rate the one-point chain's. The lane
    keeps g1 if it lies strictly inside the bracket and its rate is no
    lower than the best scan rate."""
    center = min(max(best, 2), len(grid) - 3)
    five = rates[center - 2:center + 3].tolist()
    rate = five[best - center + 2]
    if rate <= 0.0:
        return OptimizationResult(None, None, 0.0, 0, G_BRACKET)
    g = grid[best]
    bracket = grid[best - (best > 0)], grid[best + (best < len(grid) - 1)]
    steps = 0
    if bracket[0] < g < bracket[1]:
        g0 = _peak(five, grid[center], grid[center + 1])
        stencil = [g0 * k for k in _STENCIL]
        g1 = _peak([_chain(x, lane) for x in stencil], stencil[2], stencil[3])
        rate1 = _chain(g1, lane)
        if bracket[0] < g1 < bracket[1] and rate1 >= rate:
            g, rate, steps = g1, rate1, 1
    return OptimizationResult(g, SourceParams(g).mean_photon_number(), rate, steps, bracket)


@functools.lru_cache(maxsize=1)
def _scan_grid(grid_points: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """``grid_points`` gains evenly over ``G_BRACKET``, read-only, and the
    same gains as Python floats."""
    grid = np.linspace(*G_BRACKET, grid_points)
    grid.flags.writeable = False
    return grid, tuple(grid.tolist())


def _search(lanes: np.ndarray, grid_points: int, fixed: Sequence[float]):
    """``optimize_gain`` for every (tau1, tau2, dark count) row of
    ``lanes``: one ``_secure_rates`` call scans every lane, with the gains
    ``fixed`` as columns it does not read. One ``argmax`` finds each
    lane's best scan gain, the first of equal best rates, as
    ``list.index(max(...))`` would (the clamp leaves no NaN), and
    ``_optimum`` takes each lane on from there. Returns the results and
    the rates at ``fixed``, a (lanes, len(fixed)) array."""
    grid, gains = _scan_grid(grid_points)
    scan = np.empty((len(lanes), grid_points + len(fixed)))
    scan[:, :grid_points] = grid
    scan[:, grid_points:] = fixed
    rates = _secure_rates(scan, lanes)
    best = rates[:, :grid_points].argmax(axis=1).tolist()
    results = [_optimum(b, row, gains, lane)
               for b, row, lane in zip(best, rates, lanes.tolist())]
    return results, rates[:, grid_points:]


def _lanes(channels: Sequence[ChannelParams]) -> np.ndarray:
    """The (tau1, tau2, dark count) row of each channel, one search each."""
    return np.array([(c.tau1, c.tau2, c.dark_count) for c in channels], dtype=float)


def optimize_gain(
    channel: ChannelParams, grid_points: int = _GRID_POINTS
) -> OptimizationResult:
    """Gain maximizing the secure rate for a given channel.

    A scan of ``G_BRACKET`` at ``grid_points`` gains keeps the best gain's
    two neighbours as the bracket (the secure-rate curve is smooth but not
    provably unimodal, so the scan guards against missing side lobes); a
    five-gain stencil around the scan's guess of the peak places it. Near
    the key cutoff a key window narrower than a scan step holds one scan
    gain, and the result can then be a window edge (ROADMAP item 14). It is
    the one-channel case of ``_search``, as ``passive_performance`` runs it.
    """
    if grid_points < 200:
        raise ValueError(f"grid_points must be >= 200, got {grid_points}")
    return _search(_lanes([channel]), grid_points, ())[0][0]


@dataclass(frozen=True, slots=True)
class PassivePoint:
    """One sweep point of the fixed-brightness performance comparison."""

    loss2_db: float
    secure_rate_fixed: float
    secure_rate_optimal: float
    mu_opt: float | None
    ratio: float | None  # None when the optimal rate is zero


@dataclass(frozen=True, slots=True)
class PassivePerformanceSweep:
    points: tuple[PassivePoint, ...]
    min_ratio: float | None


def passive_performance(
    source: SourceParams,
    channel_base: ChannelParams,
    l2_range_db: Sequence[float],
) -> PassivePerformanceSweep:
    """Secure-rate ratio of a source fixed at ``source`` to the per-loss optimum.

    ``channel_base`` supplies Alice's transmittance and the dark-count
    rate; Bob's transmittance is recomputed from each loss value in
    ``l2_range_db``. The optimizations of all losses run as one search,
    each loss a lane of its scan, and the fixed source's gain rides the
    scan as one more column, so the fixed-brightness rate of each loss is
    the one-point ``secure_rate(*qber_and_sift(source, channel))`` bit for
    bit.
    """
    if source.g <= 0.0:
        raise ValueError(f"fixed source gain must be > 0, got {source.g}")
    lanes = _lanes([
        ChannelParams(channel_base.tau1, transmittance_from_db(loss2_db), channel_base.dark_count)
        for loss2_db in l2_range_db
    ])
    optima, fixed_rates = _search(lanes, _GRID_POINTS, (source.g,))
    points = tuple(
        PassivePoint(float(loss2_db), fixed_rate, opt.secure_rate_at_opt, opt.mu_opt,
                     fixed_rate / opt.secure_rate_at_opt if opt.secure_rate_at_opt > 0.0 else None)
        for loss2_db, opt, fixed_rate in zip(l2_range_db, optima, fixed_rates[:, 0].tolist())
    )
    ratios = [point.ratio for point in points if point.ratio is not None]
    return PassivePerformanceSweep(points, min(ratios) if ratios else None)
