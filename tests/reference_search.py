"""Reference gain search for the key-rate tests: the per-gain scan and the
golden-section loop, one scalar ``secure_rate(*qber_and_sift(...))`` call
per gain, as ``keyrate`` ran them before they became array calls. Its
per-gain rate folds ``analytic.pair_table`` at one point, the table the
package's key rates read. ``binary_entropy`` and ``secure_rate`` are the
plain-float rules, with their checks, that the package's float-or-array
``binary_entropy`` and ``secure_rate`` must equal, element by element,
bit for bit.

The package's search must scan the same bracket, split found from no-key
channels the same way, raise the same exceptions, and find a secure rate
no lower than this search's, up to 1e-10 relative.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from hbepp_link.analytic import pair_table
from hbepp_link.keyrate import (
    G_BRACKET,
    G_TOL,
    OptimizationResult,
    PassivePerformanceSweep,
    PassivePoint,
)
from hbepp_link.params import ChannelParams, SourceParams, transmittance_from_db
from hbepp_link.postprocess import PostprocessingModel, fold

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def binary_entropy(eps: float) -> float:
    """Shannon entropy H2 of a binary variable, H2(0) = H2(1) = 0."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"error rate must be in [0, 1], got {eps}")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


def secure_rate(eps: float, r_sift: float) -> float:
    """R_sift (1 - 2 H2(eps)), clamped at zero."""
    if r_sift < 0.0:
        raise ValueError(f"sifted rate must be >= 0, got {r_sift}")
    return max(0.0, r_sift * (1.0 - 2.0 * binary_entropy(eps)))


def qber_and_sift(source: SourceParams, channel: ChannelParams) -> tuple[float, float]:
    """(QBER, sifted rate) of the squash-folded pair table; (0, 0) without
    coincidences."""
    counts = fold(
        pair_table(source.g, channel.tau1, channel.tau2, channel.dark_count),
        PostprocessingModel.SQUASH,
    )
    total = counts.total()
    if total == 0.0:
        return 0.0, 0.0
    return (counts.n_pp + counts.n_mm) / total, 0.5 * total


@functools.cache
def optimize_gain(channel: ChannelParams, grid_points: int = 256) -> OptimizationResult:
    """One channel's scan and golden-section refinement, gain by gain."""
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


def passive_performance(
    source_fixed: SourceParams,
    channel_base: ChannelParams,
    l2_range_db: Sequence[float],
) -> PassivePerformanceSweep:
    """One reference search and one fixed-brightness rate per loss, in turn."""
    if source_fixed.g <= 0.0:
        raise ValueError(f"fixed source gain must be > 0, got {source_fixed.g}")
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
        source=source_fixed,
        points=tuple(points),
        min_ratio=min(ratios) if ratios else None,
    )
