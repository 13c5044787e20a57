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

Every rate here is at relative angle 0, so it reads ``analytic.pair_table``:
the click table as products of one 2x2 pair table, accurate entry by entry
however deep the loss, with the same range and normalization gate as the
general table. ``binary_entropy`` and ``secure_rate`` take floats or
arrays on one path: an array element is the float the one-point call
gives, bit for bit, and a one-point call returns a Python float.
``secure_rate`` takes the entropy only of error rates outside
``_CLAMPED``, as the rate inside is clamped to 0.0 either way. The gain
search keeps one array of lanes, a (tau1, tau2, dark count) row per
channel, built once by ``optimize_gain`` or ``passive_performance``; each
step after the scan takes the rows of the searches still open and hands
the chain its columns repeated to the grid's shape, so no operation
broadcasts a column. The fixed-brightness rates of ``passive_performance``
are one more column of the scan's array call, so a sweep of up to four
losses makes 5 array calls: the scan and four narrowing steps.

All rates are per temporal mode; per-second display is a CLI concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import pair_table
from .params import ChannelParams, SourceParams, transmittance_from_db
from .postprocess import PostprocessingModel, fold, share

#: Gains scanned by ``optimize_gain``, their default number, the gains of
#: each later step across the bracket, and the bracket width at which a
#: search stops.
G_BRACKET = (1e-3, 0.95)
_GRID_POINTS = 256
_ZOOM_POINTS = 32
G_TOL = 1e-6

#: Gains per array call at most, in whole channels: 4 scan rows with the
#: fixed-gain column, 1,028 gains, peak near 0.55 MB of numpy temporaries
#: on the pair-table chain (tracemalloc; the stacked pair table, its two
#: gathers and the lane columns at the grid's shape), and a 26-loss scan,
#: in 7 calls, 0.60 MB. Fewer, larger temporaries buy fewer numpy calls:
#: (rows, 1) columns and 16 separate products peaked at 0.34 and 0.39 MB.
_ROWS_PER_CALL = 4 * (_GRID_POINTS + 1)


#: Error rates strictly between these bounds have H2 > 1/2 + 2e-4 (the
#: H2 = 1/2 roots are 0.110028 and 0.889972), so 1 - 2 H2 < -4e-4 and
#: ``secure_rate`` clamps the rate to 0.0 without evaluating the entropy.
_CLAMPED = (0.1101, 0.8899)


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
    """(QBER, sifted rate) at matched bases: the pair table folded into its
    four cells, eps = (n_pp + n_mm) / total and R_sift = total / 2, with
    (0, 0) where no coincidences survive post-processing. Inputs as for
    ``pair_table``: floats, or arrays that broadcast together.
    """
    counts = fold(pair_table(g, tau1, tau2, dark_count), model)
    total = counts.total()
    return share(counts.n_pp + counts.n_mm, total), 0.5 * total


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
    """
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
    vanished over the whole bracket. ``g_opt`` is the best gain evaluated
    and ``secure_rate_at_opt`` its rate; ``iterations`` counts the steps
    after the scan, and ``bracket`` is the scan's: the best scan gain's two
    grid neighbours."""

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
    (tau1, tau2, dark count) row per search. The rows go in calls of at
    most ``_ROWS_PER_CALL`` gains; elements do not depend on the split."""
    step = max(1, _ROWS_PER_CALL // g.shape[1])
    # each call takes tau1, tau2 and the dark count at the grid's shape, so
    # no operation broadcasts a (rows, 1) column
    return np.concatenate([
        secure_rate(*_qber_and_sift(
            g[i:i + step], *np.repeat(lanes[i:i + step].T[:, :, None], g.shape[1], axis=2),
            PostprocessingModel.SQUASH,
        ))
        for i in range(0, len(lanes), step)
    ])


def _gains(lo: np.ndarray, hi: np.ndarray, points: int) -> np.ndarray:
    """``points`` gains across each bracket ``[lo[i], hi[i]]``, a row each:
    ``np.linspace(lo, hi, points, axis=1)`` bit for bit, without its axis
    handling. This is its arithmetic for a nonzero step, as every bracket
    is wider than G_TOL (linspace divides first where some step is 0)."""
    grid = lo[:, None] + np.arange(points) * ((hi - lo) / (points - 1))[:, None]
    grid[:, -1] = hi
    return grid


def _best(grid: np.ndarray, rates: np.ndarray, points: int):
    """Each row's best gain among the first ``points`` columns of ``grid``,
    its rate, and its two grid neighbours as the new bracket."""
    best = rates[:, :points].argmax(axis=1)
    at = np.arange(0, rates.size, rates.shape[1]) + best  # flat indices
    below, above = at - (best > 0), at + (best < points - 1)
    return grid.take(at), rates.take(at), grid.take(below), grid.take(above)


def _search(lanes: np.ndarray, grid_points: int, fixed: Sequence[float]):
    """``optimize_gain`` for every (tau1, tau2, dark count) row of
    ``lanes``: the scan, then each narrowing step, is one array call over
    the searches still open. A step takes ``_ZOOM_POINTS`` gains across each
    open bracket and keeps the best gain's two grid neighbours as the new
    one. A lane's steps do not depend on the other lanes, so its result is
    the one-channel search's bit for bit. The gains ``fixed`` are evaluated
    at every lane in the scan's array call, as columns after the scan grid
    that the search does not read. Returns the results and the rates at
    ``fixed``, a (lanes, len(fixed)) array."""
    count = len(lanes)
    scan = np.empty((count, grid_points + len(fixed)))
    scan[:, :grid_points] = _gains(np.array(G_BRACKET[:1]), np.array(G_BRACKET[1:]), grid_points)
    scan[:, grid_points:] = fixed
    rates = _secure_rates(scan, lanes)
    g, rate, lo, hi = _best(scan, rates, grid_points)
    brackets = list(zip(lo.tolist(), hi.tolist()))
    iterations = np.zeros(count, dtype=int)
    # The open searches, compacted: their lane indices, best gains and
    # rates, brackets and lane rows. A search closes once its bracket is
    # narrower than G_TOL; its best gain and rate are written back then.
    open_ = np.nonzero((rate > 0.0) & (hi - lo > G_TOL))[0]
    g_open, rate_open, lo, hi, lanes_open = (a[open_] for a in (g, rate, lo, hi, lanes))
    taken = 0
    while open_.size:
        grid = _gains(lo, hi, _ZOOM_POINTS)
        g_step, rate_step, lo, hi = _best(grid, _secure_rates(grid, lanes_open), _ZOOM_POINTS)
        better = rate_step > rate_open
        g_open, rate_open = np.where(better, g_step, g_open), np.where(better, rate_step, rate_open)
        taken += 1
        if not (keep := hi - lo > G_TOL).all():
            closed = open_[~keep]
            g[closed], rate[closed], iterations[closed] = g_open[~keep], rate_open[~keep], taken
            open_, g_open, rate_open, lo, hi, lanes_open = (
                a[keep] for a in (open_, g_open, rate_open, lo, hi, lanes_open)
            )
    results = [
        OptimizationResult(g_opt, SourceParams(g_opt).mean_photon_number(), r, steps, bracket)
        if r > 0.0 else OptimizationResult(None, None, 0.0, 0, G_BRACKET)
        for g_opt, r, steps, bracket in zip(g.tolist(), rate.tolist(), iterations.tolist(), brackets)
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
    provably unimodal, so the scan guards against missing side lobes). The
    same step repeats on the bracket at ``_ZOOM_POINTS`` gains until it is
    narrower than ``G_TOL``, four times after the default scan, one array
    call each. It is the one-channel case of ``passive_performance``'s.
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
    ``l2_range_db``. The optimizations of all losses run as one lockstep
    search, and the fixed source's gain rides the search's scan call as
    one more column, so the fixed-brightness rate of each loss is the
    one-point ``secure_rate(*qber_and_sift(source, channel))`` bit for bit.
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
