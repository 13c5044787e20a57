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
``binary_entropy`` and ``secure_rate`` take floats or
arrays: an array element is the float the one-point call gives, bit for
bit, and a one-point call returns a Python float. Python floats stay
out of numpy from the pair's four probabilities to the secure rate,
where numpy's fixed cost per call (about 75 µs for the chain) would
outweigh the arithmetic. ``secure_rate`` takes the entropy only of
error rates outside ``_CLAMPED``, as the rate inside is clamped to 0.0
either way.

The gain search takes a (tau1, tau2, dark count) row per channel and
makes three steps: a scan of ``G_BRACKET``, a five-gain stencil around
the scan's guess of each peak, and the gain the stencil places the peak
at. A step of at most ``_FLOAT_GAINS`` gains (the stencil and the last
gain of one or two channels) runs the one-point chain per gain on
floats, about 6 µs each; a larger one runs as array calls of at most
``_ROWS_PER_CALL`` gains. The two meet near 13 gains. A guess is the
maximum of a quartic through five rates, in +, -, * and / with its sums
taken left to right, so no numpy code path moves the optimum's bits.

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
from .patterns import left_to_right_sum
from .postprocess import PostprocessingModel, share

#: Gains scanned by ``optimize_gain`` and their default number.
G_BRACKET = (1e-3, 0.95)
_GRID_POINTS = 256
#: The stencil around the scan's guess g0 of a peak: the five gains
#: g0 (1 + 1e-3 k), k = -2 to 2, as factors of g0.
_STENCIL = 1.0 + 1e-3 * np.arange(-2.0, 3.0)

#: Gains per array call at most, in whole channels: 4 scan rows with the
#: fixed-gain column, 1,028 gains, peak near 0.185 MB of numpy temporaries
#: on the pair-form chain (tracemalloc; the pair's nine entries, its four
#: stacked probabilities, the forms and the lane columns at the grid's
#: shape), and a 26-loss scan, in 7 calls, 0.23 MB.
_ROWS_PER_CALL = 4 * (_GRID_POINTS + 1)
#: Gains per call at most that go one by one on Python floats: about 6 µs
#: a gain there, against about 75 µs a call plus 0.14 µs a gain on arrays,
#: so the two meet near 13 gains (timeit, best of 9, 2 vCPU Xeon, numpy
#: 2.4.6). The stencil and last gain of one or two lanes go on floats; a
#: scan, and a 26-loss sweep's stencil and last gain, on arrays.
_FLOAT_GAINS = 12


#: Error rates strictly between these bounds have H2 > 1/2 + 2e-4 (the
#: H2 = 1/2 roots are 0.110028 and 0.889972), so 1 - 2 H2 < -4e-4 and
#: ``secure_rate`` clamps the rate to 0.0 without evaluating the entropy.
_CLAMPED = (0.1101, 0.8899)

#: The smallest positive normal float: ``_uphill`` divides by no less, so
#: a flat window gives a step of 0, not 0 / 0.
_TINY = float(np.finfo(float).tiny)
#: Rows c1 to c4 of 12 p'(x) = c1 + c2 x + c3 x^2 + c4 x^3, for the quartic p
#: through rates f(-2) to f(2) at evenly spaced gains, x in grid steps: the
#: weights of the five rates, stored with the rates on the first axis.
_QUARTIC = np.array([
    [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1], [-3, 6, 0, -6, 3], [2, -8, 12, -8, 2],
], dtype=float).T[:, :, None]


def _entropy(eps: np.ndarray, clamped: tuple[float, float]) -> np.ndarray:
    """H2 of each element of the array ``eps``, as ``binary_entropy``
    describes, except 1.0 where ``clamped[0] < eps < clamped[1]`` (an empty
    band when ``clamped[0] >= clamped[1]``). Both logs of every evaluated
    element are taken in one pass over one array."""
    in_range = (eps >= 0.0) & (eps <= 1.0)
    if not in_range.all():
        raise ValueError(f"error rate must be in [0, 1], got {eps.flat[in_range.argmin()]}")
    interior = (eps > 0.0) & (eps < 1.0)
    entropy = np.array(interior, dtype=float)  # 0.0 at eps = 0 and 1, where H2 is 0
    logged = interior & ((eps <= clamped[0]) | (eps >= clamped[1]))
    e = eps[logged]
    terms = np.concatenate((e, 1.0 - e))
    products = terms * np.fromiter(map(math.log2, terms.tolist()), float, terms.size)
    # -(e log2 e) is -e log2 e bit for bit: IEEE products are sign-symmetric
    entropy[logged] = -products[:e.size] - products[e.size:]
    return entropy


def binary_entropy(eps):
    """Shannon entropy H2 of a binary variable, H2(0) = H2(1) = 0.

    A float, or an array element by element (a float when ``eps`` is not
    an array). The first error rate outside [0, 1] in row-major order, NaN
    included, raises. Each element with 0 < eps < 1 takes Python's
    ``math.log2``, since ``np.log2`` rounds differently on about one input
    in 1,000; the rest is IEEE arithmetic, so an element is the float its
    one-point call gives, bit for bit.
    """
    entropy = _entropy(np.asarray(eps), (1.0, 0.0))
    return entropy if entropy.ndim else float(entropy)


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
    q0^2 and 2 q0 (q1 + q2), half of each to the same-sign cells.
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
    when neither is an array). The first element in row-major order with a
    negative sifted rate or an error rate outside [0, 1] raises; at one
    element the sifted rate's message comes first. ``np.where`` clamps as
    ``max(0.0, v)`` does, also at -0.0 and NaN. The entropy is evaluated
    only outside ``_CLAMPED``: inside it, 1.0 stands in for H2, which makes
    the rate -r_sift <= 0 (or NaN), clamped to 0.0 as the true H2 is.
    Two Python floats take the same steps in Python, without numpy.
    """
    if type(eps) is float and type(r_sift) is float:
        if r_sift < 0.0:
            raise ValueError(f"sifted rate must be >= 0, got {r_sift}")
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"error rate must be in [0, 1], got {eps}")
        if eps == 0.0 or eps == 1.0:
            entropy = 0.0
        elif _CLAMPED[0] < eps < _CLAMPED[1]:
            entropy = 1.0
        else:
            entropy = -(eps * math.log2(eps)) - (1.0 - eps) * math.log2(1.0 - eps)
        return max(0.0, r_sift * (1.0 - 2.0 * entropy))
    eps, r_sift = np.asarray(eps), np.asarray(r_sift)
    negative = r_sift < 0.0
    if negative.any():
        eps, r_sift = np.broadcast_arrays(eps, r_sift)
        first = (r_sift < 0.0).argmax()  # a flat index, in row-major order
        binary_entropy(eps.flat[:first])  # an earlier error rate raises first
        raise ValueError(f"sifted rate must be >= 0, got {r_sift.flat[first]}")
    rate = r_sift * (1.0 - 2.0 * _entropy(eps, _CLAMPED))
    rate = np.where(rate > 0.0, rate, 0.0)
    return rate if rate.ndim else float(rate)


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    """Outcome of the gain search; ``g_opt`` is None when the secure rate
    vanished over the whole scan. ``g_opt`` is the stencil's peak where
    ``_search`` keeps it, with ``iterations`` 1, else the best scan gain,
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
    (tau1, tau2, dark count) row per search. Up to ``_FLOAT_GAINS`` gains
    go one by one on Python floats, where numpy's fixed cost per call
    would dominate; more go as arrays, in calls of at most
    ``_ROWS_PER_CALL`` gains. Elements depend on neither choice: an
    array element is its one-point call's float, bit for bit."""
    if g.size <= _FLOAT_GAINS:
        return np.array([
            [secure_rate(*_qber_and_sift(x, *lane, PostprocessingModel.SQUASH)) for x in row]
            for row, lane in zip(g.tolist(), lanes.tolist())
        ]).reshape(g.shape)
    step = max(1, _ROWS_PER_CALL // g.shape[1])
    rates = np.empty(g.shape)
    # each call takes tau1, tau2 and the dark count at the grid's shape, so
    # no operation broadcasts a (rows, 1) column
    for i in range(0, len(lanes), step):
        rates[i:i + step] = secure_rate(*_qber_and_sift(
            g[i:i + step], *np.repeat(lanes[i:i + step].T[:, :, None], g.shape[1], axis=2),
            PostprocessingModel.SQUASH,
        ))
    return rates


def _best(grid: np.ndarray, rates: np.ndarray):
    """Each row's best gain in ``grid``, its rate, and its two grid
    neighbours as its bracket."""
    best = rates.argmax(axis=1)
    at = np.arange(0, rates.size, rates.shape[1]) + best  # flat indices
    below, above = at - (best > 0), at + (best < rates.shape[1] - 1)
    return grid.take(at), rates.take(at), grid.take(below), grid.take(above)


def _uphill(slope: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """Newton's step towards a maximum, at most 1 in size: uphill by 1 where
    the curve is not concave enough, and 0 where it is flat."""
    return slope / np.maximum(np.maximum(-curvature, abs(slope)), _TINY)


def _peak(grid: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Each row's peak gain: the maximum of the quartic through the five
    rates around the row's best on its evenly spaced ``grid``, by two
    guarded Newton steps from the middle of the five. On 620 random channels
    it came within 1.8e-6 relative of the true peak from the 256-gain scan,
    and within 2.5e-12 from a stencil 1e-3 of that guess apart."""
    points = grid.shape[1]
    center = np.minimum(np.maximum(rates.argmax(axis=1), 2), points - 3)
    center += np.arange(0, grid.size, points)  # flat indices
    five = rates.take(center + np.arange(-2, 3)[:, None])
    c1, c2, c3, c4 = left_to_right_sum(_QUARTIC * five[:, None])
    x = _uphill(c1, c2)  # the first step, from x = 0
    x += _uphill(c1 + x * (c2 + x * (c3 + x * c4)), c2 + x * (2.0 * c3 + x * (3.0 * c4)))
    at = grid.take(center)
    return at + x * (grid.take(center + 1) - at)


@functools.lru_cache(maxsize=1)
def _scan_grid(grid_points: int) -> np.ndarray:
    """``grid_points`` gains evenly over ``G_BRACKET``, read-only."""
    grid = np.linspace(*G_BRACKET, grid_points)
    grid.flags.writeable = False
    return grid


def _search(lanes: np.ndarray, grid_points: int, fixed: Sequence[float]):
    """``optimize_gain`` for every (tau1, tau2, dark count) row of
    ``lanes``, in three ``_secure_rates`` calls: the scan, with the gains
    ``fixed`` as columns it does not read; then, for each lane whose best
    scan rate is positive and not at a bracket end, the stencil
    ``g0 * _STENCIL`` around ``_peak``'s guess g0, and the stencil's guess
    g1. A lane keeps g1 if it lies strictly inside the scan bracket and its
    rate is no lower than the best scan rate. Rates do not depend on what
    else a call holds, so each lane is its one-lane search bit for bit.
    Returns the results and the rates at ``fixed``, a (lanes, len(fixed))
    array."""
    scan = np.empty((len(lanes), grid_points + len(fixed)))
    scan[:, :grid_points] = _scan_grid(grid_points)
    scan[:, grid_points:] = fixed
    rates = _secure_rates(scan, lanes)
    g, rate, lo, hi = _best(scan[:, :grid_points], rates[:, :grid_points])
    inside = np.nonzero((rate > 0.0) & (lo < g) & (g < hi))[0]
    stencil = _peak(scan[inside, :grid_points], rates[inside, :grid_points])[:, None] * _STENCIL
    peak = _peak(stencil, _secure_rates(stencil, lanes[inside]))
    peak_rate = _secure_rates(peak[:, None], lanes[inside])[:, 0]
    keep = (lo[inside] < peak) & (peak < hi[inside]) & (peak_rate >= rate[inside])
    g[inside[keep]], rate[inside[keep]] = peak[keep], peak_rate[keep]
    iterations = np.bincount(inside[keep], minlength=len(lanes))
    results = [
        OptimizationResult(g_opt, SourceParams(g_opt).mean_photon_number(), r, steps, (low, high))
        if r > 0.0 else OptimizationResult(None, None, 0.0, 0, G_BRACKET)
        for g_opt, r, steps, low, high
        in zip(g.tolist(), rate.tolist(), iterations.tolist(), lo.tolist(), hi.tolist())
    ]
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
    five-gain stencil around the scan's guess of the peak places it. It is
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
    source: SourceParams
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
    each loss a lane of the same three ``_secure_rates`` calls, and the
    fixed source's gain rides the search's scan as one more column, so
    the fixed-brightness rate of each loss is the one-point
    ``secure_rate(*qber_and_sift(source, channel))`` bit for bit.
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
    return PassivePerformanceSweep(source, points, min(ratios) if ratios else None)
