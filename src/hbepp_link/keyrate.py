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

All rates are per temporal mode; per-second display is a CLI concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import outcome_probabilities
from .params import (
    ChannelParams,
    MeasurementAngles,
    SourceParams,
    transmittance_from_db,
)
from .postprocess import PostprocessingModel, coincidences

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Gains scanned by ``optimize_gain``, and the bracket width at which its
#: golden-section refinement stops.
G_BRACKET = (1e-3, 0.95)
G_TOL = 1e-6


def binary_entropy(eps: float) -> float:
    """Shannon entropy H2 of a binary variable, H2(0) = H2(1) = 0."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"error rate must be in [0, 1], got {eps}")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


def qber_and_sift(
    source: SourceParams,
    channel: ChannelParams,
    model: PostprocessingModel = PostprocessingModel.SQUASH,
) -> tuple[float, float]:
    """(QBER, sifted rate) at matched bases.

    Returns (0, 0) when no coincidences survive post-processing.
    """
    table = outcome_probabilities(source, channel, MeasurementAngles(0.0, 0.0))
    counts = coincidences(table, model)
    total = counts.total()
    if total == 0.0:
        return 0.0, 0.0
    eps = (counts.n_pp + counts.n_mm) / total
    return eps, 0.5 * total


def secure_rate(eps: float, r_sift: float) -> float:
    """Secure rate from QBER and sifted rate, clamped at zero."""
    if r_sift < 0.0:
        raise ValueError(f"sifted rate must be >= 0, got {r_sift}")
    return max(0.0, r_sift * (1.0 - 2.0 * binary_entropy(eps)))


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    """Outcome of the gain search; ``g_opt`` is None when the secure rate
    vanished over the whole bracket."""

    g_opt: float | None
    mu_opt: float | None
    secure_rate_at_opt: float
    iterations: int
    bracket: tuple[float, float]

    @property
    def found(self) -> bool:
        return self.g_opt is not None


def optimize_gain(channel: ChannelParams, grid_points: int = 256) -> OptimizationResult:
    """Gain maximizing the secure rate for a given channel.

    A coarse grid scan of ``G_BRACKET`` brackets the maximum (the
    secure-rate curve is smooth but not provably unimodal, so the scan
    guards against missing side lobes); golden-section refinement then
    narrows the bracket below ``G_TOL``.
    """
    if grid_points < 200:
        raise ValueError(f"grid_points must be >= 200, got {grid_points}")

    def rate(g: float) -> float:
        eps, r_sift = qber_and_sift(SourceParams(g), channel)
        return secure_rate(eps, r_sift)

    grid = np.linspace(*G_BRACKET, grid_points)
    values = [rate(g) for g in grid]
    best_idx = int(np.argmax(values))
    if values[best_idx] == 0.0:
        return OptimizationResult(None, None, 0.0, 0, G_BRACKET)

    a = grid[max(0, best_idx - 1)]
    b = grid[min(grid_points - 1, best_idx + 1)]
    bracket = (float(a), float(b))
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rate(c), rate(d)
    iterations = 0
    while b - a > G_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = rate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = rate(d)
        iterations += 1
    g_opt = 0.5 * (a + b)
    return OptimizationResult(
        g_opt=g_opt,
        mu_opt=SourceParams(g_opt).mean_photon_number(),
        secure_rate_at_opt=rate(g_opt),
        iterations=iterations,
        bracket=bracket,
    )


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
    ``l2_range_db``.
    """
    if mu_fixed <= 0.0:
        raise ValueError(f"mu_fixed must be > 0, got {mu_fixed}")
    source_fixed = SourceParams.from_mean_photon_number(mu_fixed)
    points = []
    ratios = []
    for loss2_db in l2_range_db:
        channel = ChannelParams(
            tau1=channel_base.tau1,
            tau2=transmittance_from_db(loss2_db),
            dark_count=channel_base.dark_count,
        )
        opt = optimize_gain(channel)
        eps, r_sift = qber_and_sift(source_fixed, channel)
        fixed_rate = secure_rate(eps, r_sift)
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
