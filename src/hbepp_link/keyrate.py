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
general table.

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

#: Gains per array call at most, in whole channels: a call of 1,024 gains
#: peaks near 0.25 MB of numpy temporaries (tracemalloc, 4 rows of 256).
_ROWS_PER_CALL = 1024


def binary_entropy(eps: float) -> float:
    """Shannon entropy H2 of a binary variable, H2(0) = H2(1) = 0."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"error rate must be in [0, 1], got {eps}")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


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

    Floats, or arrays of one shape: each element is the one-point call's
    float, and the first element in row-major order that fails a check
    raises the one-point call's error. The entropy takes Python's
    ``math.log2`` per element with 0 < eps < 1, since ``np.log2`` rounds
    differently on about one input in 1,000; the rest is the same
    arithmetic in numpy, and ``np.where`` clamps as ``max(0.0, v)`` does,
    also at -0.0 and NaN.
    """
    if isinstance(eps, np.ndarray):
        failing = (r_sift < 0.0) | ~((eps >= 0.0) & (eps <= 1.0))
        if failing.any():
            first = failing.argmax()  # a flat index, in row-major order
            secure_rate(float(eps.flat[first]), float(r_sift.flat[first]))  # raises
        interior = (eps > 0.0) & (eps < 1.0)
        e = eps[interior]
        rest = 1.0 - e
        log_e = np.array([math.log2(v) for v in e.tolist()])
        log_rest = np.array([math.log2(v) for v in rest.tolist()])
        entropy = np.zeros(eps.shape)
        entropy[interior] = -e * log_e - rest * log_rest
        rate = r_sift * (1.0 - 2.0 * entropy)
        return np.where(rate > 0.0, rate, 0.0)
    if r_sift < 0.0:
        raise ValueError(f"sifted rate must be >= 0, got {r_sift}")
    return max(0.0, r_sift * (1.0 - 2.0 * binary_entropy(eps)))


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


def _secure_rates(g: np.ndarray, channels: Sequence[ChannelParams]) -> np.ndarray:
    """``secure_rate(*qber_and_sift(SourceParams(g[i, ...]), channels[i]))``
    at every element of ``g``, whose first axis runs over ``channels``:
    the same chain on arrays, squash model."""
    lanes_per_call = max(1, _ROWS_PER_CALL * len(channels) // max(1, g.size))
    if len(channels) > lanes_per_call:
        return np.concatenate([
            _secure_rates(g[i:i + lanes_per_call], channels[i:i + lanes_per_call])
            for i in range(0, len(channels), lanes_per_call)
        ])
    shape = (len(channels),) + (1,) * (g.ndim - 1)
    tau1, tau2, dark = (
        np.reshape([getattr(c, key) for c in channels], shape)
        for key in ("tau1", "tau2", "dark_count")
    )
    return secure_rate(*_qber_and_sift(g, tau1, tau2, dark, PostprocessingModel.SQUASH))


def _narrow(lo, hi, points: int, channels: Sequence[ChannelParams]):
    """One search step: ``points`` gains across each channel's bracket
    ``[lo, hi]`` in one array call. Returns the best gain of each row, its
    rate, and its two grid neighbours as the new bracket."""
    grid = np.linspace(lo, hi, points, axis=1)
    rates = _secure_rates(grid, channels)
    best = rates.argmax(axis=1)
    rows = np.arange(len(channels))
    below, above = np.maximum(best - 1, 0), np.minimum(best + 1, points - 1)
    return grid[rows, best], rates[rows, best], grid[rows, below], grid[rows, above]


def _optimize_lockstep(
    channels: Sequence[ChannelParams], grid_points: int
) -> list[OptimizationResult]:
    """``optimize_gain`` for every channel: the scan, then each narrowing
    step, is one array call over the searches still open. A lane's steps
    do not depend on the other lanes, so its result is the one-channel
    search's bit for bit."""
    lanes = len(channels)
    g, rate, lo, hi = _narrow(
        np.full(lanes, G_BRACKET[0]), np.full(lanes, G_BRACKET[1]), grid_points, channels
    )
    brackets = list(zip(lo.tolist(), hi.tolist()))
    iterations = np.zeros(lanes, dtype=int)
    while (open_ := np.flatnonzero((rate > 0.0) & (hi - lo > G_TOL))).size:
        g_step, rate_step, lo[open_], hi[open_] = _narrow(
            lo[open_], hi[open_], _ZOOM_POINTS, [channels[i] for i in open_]
        )
        better = rate_step > rate[open_]
        g[open_[better]], rate[open_[better]] = g_step[better], rate_step[better]
        iterations[open_] += 1
    return [
        OptimizationResult(g_opt, SourceParams(g_opt).mean_photon_number(), r, steps, bracket)
        if r > 0.0 else OptimizationResult(None, None, 0.0, 0, G_BRACKET)
        for g_opt, r, steps, bracket in zip(g.tolist(), rate.tolist(), iterations.tolist(), brackets)
    ]


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
    return _optimize_lockstep([channel], grid_points)[0]


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
    mu_fixed: float
    points: tuple[PassivePoint, ...]
    min_ratio: float | None


def passive_performance(
    mu_fixed: float,
    channel_base: ChannelParams,
    l2_range_db: Sequence[float],
) -> PassivePerformanceSweep:
    """Secure-rate ratio of a fixed-brightness source to the per-loss optimum.

    ``channel_base`` supplies Alice's transmittance and the dark-count
    rate; Bob's transmittance is recomputed from each loss value in
    ``l2_range_db``. The optimizations of all losses run as one lockstep
    search, and the fixed-brightness rates of all losses are one more
    array call.
    """
    if mu_fixed <= 0.0:
        raise ValueError(f"mu_fixed must be > 0, got {mu_fixed}")
    source_fixed = SourceParams.from_mean_photon_number(mu_fixed)
    channels = [
        ChannelParams(
            tau1=channel_base.tau1,
            tau2=transmittance_from_db(loss2_db),
            dark_count=channel_base.dark_count,
        )
        for loss2_db in l2_range_db
    ]
    optima = _optimize_lockstep(channels, _GRID_POINTS)
    fixed_rates = _secure_rates(np.full((len(channels), 1), source_fixed.g), channels)[:, 0]
    points = []
    ratios = []
    for loss2_db, opt, fixed_rate in zip(l2_range_db, optima, fixed_rates.tolist()):
        if opt.secure_rate_at_opt > 0.0:
            ratio = fixed_rate / opt.secure_rate_at_opt
            ratios.append(ratio)
        else:
            ratio = None
        points.append(
            PassivePoint(
                loss2_db=float(loss2_db),
                secure_rate_fixed=fixed_rate,
                secure_rate_optimal=opt.secure_rate_at_opt,
                mu_opt=opt.mu_opt,
                ratio=ratio,
            )
        )
    return PassivePerformanceSweep(
        mu_fixed=mu_fixed,
        points=tuple(points),
        min_ratio=min(ratios) if ratios else None,
    )
