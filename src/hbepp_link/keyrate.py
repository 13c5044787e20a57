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

Every rate reads one pair's four probabilities at relative angle 0
(``analytic.pair_probabilities``, with the table's range and
normalization gate) and forms each model's two sums in closed form, every
term nonnegative, accurate however deep the loss. ``secure_rate`` takes
floats or arrays: an array element is the one-point call's float, bit for
bit, and a one-point call stays on Python floats, where numpy's fixed
cost per call would outweigh the arithmetic. Each check is written once,
in the one-point form, which an array that fails its whole-array test
re-runs element by element to raise. The binary entropy, ``_h2`` on
floats and ``_entropy`` on arrays, is taken only outside ``_CLAMPED``.

The gain search scans ``G_BRACKET`` for every channel in one array call
(in calls of at most ``_ROWS_PER_CALL`` gains); one ``argmax`` finds each
channel's best scan gain, and its grid neighbours are the bracket. On
Python floats, the optimum is then the root of the rate's slope in the
bracket, each slope one ``_tangent``, exact to rounding; the rate at the
root is the one-point chain's. A channel with no positive scan rate is
tested at its QBER's minimum.

All rates are per temporal mode; per-second display is a CLI concern.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import _pair, _plan, _solve, pair_probabilities
from .params import ChannelParams, SourceParams, transmittance_from_db
from .postprocess import PostprocessingModel, share

#: Gains scanned by ``optimize_gain`` and their default number.
G_BRACKET = (1e-3, 0.95)
_GRID_POINTS = 256

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

#: One pair's D(T) with a third mode that carries a derivative: the block
#: system [[D, D'], [0, D]] [y'; y] = [0; e], whose entries are D's with the
#: third mode in state 0 or 1 and those of D' in state 2 (Opitz's formula at a
#: double node), so one back substitution gives y and its derivative y'.
#: The third mode is no detector, so it has no dark-count rule.
_TANGENT = _plan((1, 3, 9))
_TANGENT = (*_TANGENT[:2], _TANGENT[2][:2])


def _h2(eps: float) -> float:
    """H2 of the float error rate ``eps``, with its check, but 1.0 inside
    ``_CLAMPED``. Each log is ``math.log2``, since ``np.log2`` rounds
    differently on about one input in 1,000."""
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
    """(QBER, sifted rate) at matched bases, eps = (n_pp + n_mm) / total and
    R_sift = total / 2, (0, 0) where no coincidence survives; inputs as for
    ``analytic.pair_probabilities`` (``Fraction``s give exact rates)."""
    q = pair_probabilities(g, tau1, tau2, dark_count)
    same, total = _forms(q, q, model)
    return share(same, total), total / 2


def _forms(u, v, model: PostprocessingModel):
    """The same-sign and all coincidences at u = v = q, one pair's table,
    bilinear in (u, v): their slope is ``_forms(q', q)`` + ``_forms(q, q')``.

    A pattern's probability is q[m1] q[m2], m1 the state of the pair
    (a+, b-) and m2 of (a-, b+), so ``postprocess.fold`` reduces to one
    form per model. The same-sign two-folds are 2 q1 q2 and the
    opposite-sign ones 2 q0 q3, all that discard keeps; squash adds the
    double clicks, q0^2 and 2 q0 (q1 + q2), half to the same-sign cells,
    which is Ma, Fung & Lo's gain Q and error rate E (PRA 76, 012307)."""
    cross = 2 * u[1] * v[2]
    if model is PostprocessingModel.SQUASH:
        return (u[0] * (v[0] / 2 + v[1] + v[2]) + cross,
                u[0] * (v[0] + 2 * (v[1] + v[2] + v[3])) + cross)
    return cross, cross + 2 * u[0] * v[3]


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
    """Secure rate from QBER and sifted rate, clamped at zero: floats, or
    arrays that broadcast together (a float when neither is an array). A
    negative sifted rate, then an error rate outside [0, 1] (NaN included)
    raises, an array's first failure in row-major order. ``np.where``
    clamps as ``max(0.0, v)`` does, also at -0.0 and NaN. Inside
    ``_CLAMPED`` 1.0 stands in for H2, and the rate clamps to 0.0 as with
    the true H2."""
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
    """Outcome of the gain search: ``g_opt`` None (``bracket`` then
    ``G_BRACKET``) where no gain gives a key, else the root of the rate's
    slope in ``bracket`` or a best scan gain at a grid end; ``iterations``
    counts the tangents (slope evaluations) taken."""

    g_opt: float | None
    mu_opt: float | None
    secure_rate_at_opt: float
    iterations: int
    bracket: tuple[float, float]

    @property
    def found(self) -> bool:
        return self.g_opt is not None


def _secure_rates(g: np.ndarray, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squash secure rates and QBERs at every element of the 2-D ``g``, row
    i on row i of ``lanes`` (tau1, tau2, dark count), in calls of at most
    ``_ROWS_PER_CALL`` gains: each element the one-point call's, bit for bit."""
    step = max(1, _ROWS_PER_CALL // g.shape[1])
    rates, qbers = np.empty(g.shape), np.empty(g.shape)
    # each call takes tau1, tau2 and the dark count at the grid's shape, so
    # no operation broadcasts a (rows, 1) column: broadcasting gives the same
    # bits but runs about 8% slower, a (2, 257) scan in 153-166 us against
    # 142-152 us (two runs, each the median of 16 alternating rounds; 2-vCPU
    # Xeon, numpy 2.4.6)
    for i in range(0, len(lanes), step):
        qbers[i:i + step], r_sift = _qber_and_sift(
            g[i:i + step], *np.repeat(lanes[i:i + step].T[:, :, None], g.shape[1], axis=2),
            PostprocessingModel.SQUASH,
        )
        rates[i:i + step] = secure_rate(qbers[i:i + step], r_sift)
    return rates, qbers


def _chain(g: float, lane: list[float]) -> float:
    """The one-point squash secure rate at gain ``g`` on the lane's channel."""
    return secure_rate(*_qber_and_sift(g, *lane, PostprocessingModel.SQUASH))


def _tangent(g: float, lane: list[float], slopes: tuple) -> tuple[float, float]:
    """(E', R') in g on the lane's channel, squash model: E = S/T the QBER
    and R = T/2 (1 - 2 H2(E)) the unclamped rate, S and T the same-sign and
    all coincidences, so R' = T'/2 + S' log2(E) + (T' - S') log2(1 - E).

    ``_pair``'s p(g) is kappa p(0) + g^2 p(1), kappa = 1 - g^2, so p/kappa is
    affine in mu = g^2/kappa with slope p(1); the table q = kappa y (y the
    solution on p) then has dq/dmu = kappa^2 y', y' the solution's slope on
    p with slope entries p(1) (``slopes``, the lane's at every gain), and
    dq/dg = 2 g y'. It is Squire & Trapp's complex step (SIAM Rev. 40, 1998)
    carried as a block, in real floats; E is ``_qber_and_sift``'s, bit for bit."""
    tau1, tau2, dark_count = lane
    p = _pair(g, tau1, tau2)
    y, kappa = _solve(p + p + slopes, _TANGENT, dark_count), p[0]
    q, slope = [kappa * y[4], kappa * y[5], kappa * y[6], kappa * y[7]], y[:4]
    same, total = _forms(q, q, PostprocessingModel.SQUASH)
    (same1, total1), (same2, total2) = (_forms(slope, q, PostprocessingModel.SQUASH),
                                        _forms(q, slope, PostprocessingModel.SQUASH))
    eps, d_same, d_total = same / total, same1 + same2, total1 + total2
    d_eps = (d_same - eps * d_total) / total
    d_rate = d_total / 2 + d_same * math.log2(eps) + (d_total - d_same) * math.log2(1.0 - eps)
    return d_eps * 2.0 * g, d_rate * 2.0 * g


def _root(slope, lo: float, hi: float, g: float, curvature: float) -> tuple[float, int]:
    """The root of ``slope`` in (lo, hi), where it falls through 0, and the
    number of calls: a secant from ``g`` with first slope ``curvature``.
    Each call narrows the sign bracket, and a step out of it, or from a
    slope not below 0, bisects it; a step within 4 ulps of g ends it."""
    d, calls = slope(g), 1
    while d:
        lo, hi = (g, hi) if d > 0.0 else (lo, g)
        near = 4.0 * math.ulp(g)
        step = g - d / curvature if curvature < 0.0 else math.inf
        if not (lo < step < hi or abs(step - g) <= near):
            step = 0.5 * (lo + hi)
        if abs(step - g) <= near:
            return step, calls
        d_step, calls = slope(step), calls + 1
        curvature = (d_step - d) / (step - g)
        g, d = step, d_step
    return g, calls


def _parabola(values: np.ndarray, i: int, grid: tuple[float, ...]) -> tuple[float, ...]:
    """``_root``'s bracket and start: grid[i]'s grid neighbours, and the
    parabola's vertex and curvature through ``values`` at the three."""
    f0, f1, f2 = values[i - 1:i + 2].tolist()
    half, bend = (grid[i + 1] - grid[i - 1]) / 2, f0 - 2.0 * f1 + f2
    vertex = grid[i] + half * (f0 - f2) / (2.0 * bend) if bend < 0.0 else grid[i]
    return grid[i - 1], grid[i + 1], vertex, bend / (half * half)


def _optimum(best: int, rates: np.ndarray, qbers: np.ndarray, grid: tuple[float, ...],
             lane: list[float]) -> OptimizationResult:
    """One lane's search after its scan: ``best`` the first best rate's index
    in ``rates`` (``qbers`` the QBERs) at ``grid`` and after. A best rate at
    a grid end is the result; else the rate's slope's root in the bracket,
    from the scan's parabola. With no positive rate, a key lies only at the
    QBER's minimum (its slope's root around the lowest interior scan QBER),
    and the rate's slope's root between it and the next scan gain."""
    calls, last, slopes = 0, len(grid) - 1, _pair(1.0, lane[0], lane[1])
    if rates[best] <= 0.0:
        low = int(qbers[:last + 1].argmin())
        if not 0 < low < last:
            return OptimizationResult(None, None, 0.0, 0, G_BRACKET)
        g, calls = _root(lambda x: -_tangent(x, lane, slopes)[0], *_parabola(-qbers, low, grid))
        if _chain(g, lane) <= 0.0:
            return OptimizationResult(None, None, 0.0, calls, G_BRACKET)
        start = g, grid[low + (g >= grid[low])], g, 0.0
    elif 0 < best < last:
        start = _parabola(rates, best, grid)
    else:
        g = grid[best]
        return OptimizationResult(g, SourceParams(g).mean_photon_number(), float(rates[best]),
                                  0, (grid[max(best - 1, 0)], grid[min(best + 1, last)]))
    g, more = _root(lambda x: _tangent(x, lane, slopes)[1], *start)
    return OptimizationResult(g, SourceParams(g).mean_photon_number(), _chain(g, lane),
                              calls + more, start[:2])


@functools.lru_cache(maxsize=1)
def _scan_grid(grid_points: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """``grid_points`` gains evenly over ``G_BRACKET``, read-only, and the
    same gains as Python floats."""
    grid = np.linspace(*G_BRACKET, grid_points)
    grid.flags.writeable = False
    return grid, tuple(grid.tolist())


def _search(lanes: np.ndarray, grid_points: int, fixed: Sequence[float]):
    """``optimize_gain`` for every (tau1, tau2, dark count) row of ``lanes``
    in one ``_secure_rates`` scan, with the gains ``fixed`` as extra
    columns; one ``argmax`` takes the first of equal best rates (the clamp
    leaves no NaN). Returns the results and the (lanes, len(fixed)) rates
    at ``fixed``."""
    grid, gains = _scan_grid(grid_points)
    scan = np.empty((len(lanes), grid_points + len(fixed)))
    scan[:, :grid_points] = grid
    scan[:, grid_points:] = fixed
    rates, qbers = _secure_rates(scan, lanes)
    best = rates[:, :grid_points].argmax(axis=1).tolist()
    results = [_optimum(b, row, qber_row, gains, lane)
               for b, row, qber_row, lane in zip(best, rates, qbers, lanes.tolist())]
    return results, rates[:, grid_points:]


def _lanes(channels: Sequence[ChannelParams]) -> np.ndarray:
    """The (tau1, tau2, dark count) row of each channel, one search each."""
    return np.array([(c.tau1, c.tau2, c.dark_count) for c in channels], dtype=float)


def optimize_gain(
    channel: ChannelParams, grid_points: int = _GRID_POINTS
) -> OptimizationResult:
    """Gain maximizing the secure rate for a given channel: the root of the
    rate's slope between the best of ``grid_points`` scan gains' neighbours.
    The scan guards against side lobes; that the rate has one maximum and
    the QBER one minimum is checked on the tests' channels, not proven. A
    scan with no key is tested at the QBER's minimum, which finds a key
    window narrower than a scan step. ``_search``'s one-channel case."""
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
    """Secure-rate ratio of a source fixed at ``source`` to the per-loss
    optimum, ``channel_base`` giving Alice's transmittance and the dark
    count, each loss in ``l2_range_db`` Bob's. All losses run as one search,
    and the fixed gain rides its scan as one more column, each rate the
    one-point ``secure_rate(*qber_and_sift(source, channel))``, bit for bit."""
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
