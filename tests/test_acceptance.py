"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with ``pytest -s`` to see them inline)."""

import math
import time

import numpy as np
import pytest

from hbepp_link import (
    ChannelParams,
    MeasurementAngles,
    PostprocessingModel,
    SourceParams,
    TSIRELSON_BOUND,
    chsh,
    optimize_gain,
    oracle_probabilities,
    outcome_probabilities,
    qber_and_sift,
    truncation_error_bound,
)
from hbepp_link.fock import (
    apply_loss,
    build_state,
    click_probabilities,
    photon_number_distribution,
    rotate_modes,
)
from hbepp_link.keyrate import passive_performance, secure_rate
from hbepp_link.params import transmittance_from_db
from hbepp_link.patterns import CANONICAL_PATTERNS, ClickPattern
from hbepp_link.postprocess import coincidences, correlation

from subtractive import outcome_probabilities_subtractive

FIG3_CHANNEL = ChannelParams(tau1=0.7, tau2=0.01)
REFERENCE_TAU1 = transmittance_from_db(1.6)
REFERENCE_DARK = 6.25e-7
SWEEP_LOSSES_DB = np.linspace(20.0, 45.0, 26)


def report(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({title}): {status} [{detail}]")
    assert ok, f"criterion {number} ({title}): {detail}"


@pytest.fixture(scope="module")
def passive_sweep_mu_01():
    base = ChannelParams(tau1=REFERENCE_TAU1, tau2=0.01, dark_count=REFERENCE_DARK)
    start = time.perf_counter()
    sweep = passive_performance(
        SourceParams.from_mean_photon_number(0.1), base, list(SWEEP_LOSSES_DB)
    )
    return sweep, time.perf_counter() - start


def test_criterion_1_normalization_and_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(20240801)
    worst_sum = 0.0
    worst_negative = 0.0
    worst_path_gap = 0.0
    for _ in range(1000):
        source = SourceParams(rng.uniform(0.0, 0.9))
        tau1, tau2 = rng.uniform(0.01, 1.0 - 1e-12, size=2)
        theta = rng.uniform(0.0, math.pi)
        dark = float(rng.choice([0.0, 1e-3, 1e-2]))
        angles = MeasurementAngles(theta, 0.0)
        table = outcome_probabilities(
            source, ChannelParams(tau1=tau1, tau2=tau2, dark_count=dark), angles
        )
        worst_sum = max(worst_sum, abs(table.total() - 1.0))
        worst_negative = max(worst_negative, -min(table.values))
        clean = ChannelParams(tau1=tau1, tau2=tau2, dark_count=0.0)
        direct = outcome_probabilities(source, clean, angles)
        chained = outcome_probabilities_subtractive(source, clean, angles)
        worst_path_gap = max(
            worst_path_gap,
            max(abs(a - b) for a, b in zip(direct.values, chained.values)),
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_sum <= 1e-12
        and worst_negative <= 1e-12
        and worst_path_gap <= 1e-12
        and elapsed < 5.0
    )
    report(
        1,
        "normalization and consistency",
        ok,
        f"|sum-1|max={worst_sum:.2e}, neg_max={worst_negative:.2e}, "
        f"path_gap={worst_path_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240802)
    worst = 0.0
    bound_ok = True
    for _ in range(200):
        g = rng.uniform(0.0, 0.7)
        source = SourceParams(g)
        channel = ChannelParams(
            tau1=rng.uniform(0.01, 1.0 - 1e-12),
            tau2=rng.uniform(0.01, 1.0 - 1e-12),
            dark_count=float(rng.choice([0.0, 1e-3])),
        )
        angles = MeasurementAngles(rng.uniform(0.0, math.pi), 0.0)
        analytic = outcome_probabilities(source, channel, angles)
        brute = oracle_probabilities(source, channel, angles, n_max=40)
        deviation = max(abs(a - b) for a, b in zip(analytic.values, brute.values))
        worst = max(worst, deviation)
        if deviation > truncation_error_bound(g, 40) + 1e-10:
            bound_ok = False
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and bound_ok and elapsed < 120.0
    report(
        2,
        "closed form vs brute force",
        ok,
        f"max|dev|={worst:.2e} over 200 points, {elapsed:.1f}s",
    )


def test_criterion_3_singlet_limit():
    source = SourceParams(1e-4)
    worst_corr = 0.0
    for theta in (0.0, math.pi / 8, math.pi / 4):
        table = outcome_probabilities(
            source, FIG3_CHANNEL, MeasurementAngles(theta, 0.0)
        )
        value = correlation(coincidences(table, PostprocessingModel.SQUASH))
        worst_corr = max(worst_corr, abs(value + math.cos(2 * theta)))
    s_gap = max(
        abs(chsh(source, FIG3_CHANNEL, model) - TSIRELSON_BOUND)
        for model in PostprocessingModel
    )
    ok = worst_corr <= 1e-3 and s_gap <= 1e-3
    report(
        3,
        "singlet limit",
        ok,
        f"|E+cos2t|max={worst_corr:.1e}, |S-2sqrt2|max={s_gap:.1e}",
    )


def test_criterion_4_fake_violation():
    squash_grid = np.linspace(0.05, 0.9, 18)
    squash_values = [
        chsh(SourceParams(g), FIG3_CHANNEL, PostprocessingModel.SQUASH)
        for g in squash_grid
    ]
    decreasing = all(b < a for a, b in zip(squash_values, squash_values[1:]))
    bounded = max(squash_values) <= TSIRELSON_BOUND + 1e-9
    # the discard curve re-crosses the quantum bound close to g = 1, so the
    # existence scan extends past the squash grid (still inside (0, 1))
    discard_grid = np.linspace(0.05, 0.995, 40)
    discard_values = [
        chsh(SourceParams(g), FIG3_CHANNEL, PostprocessingModel.DISCARD)
        for g in discard_grid
    ]
    violated = max(discard_values) > TSIRELSON_BOUND
    ok = decreasing and bounded and violated
    report(
        4,
        "discard fake violation",
        ok,
        f"squash decreasing={decreasing}, squash_max={max(squash_values):.6f}, "
        f"discard_max={max(discard_values):.6f}",
    )


def test_criterion_5_keyrate_trends():
    channel = ChannelParams(tau1=0.7, tau2=0.01, dark_count=0.0)
    grid = np.linspace(0.05, 0.9, 18)
    qbers, sifts, secures = [], [], []
    for g in grid:
        eps, r_sift = qber_and_sift(SourceParams(g), channel)
        qbers.append(eps)
        sifts.append(r_sift)
        secures.append(secure_rate(eps, r_sift))
    qber_up = all(b > a for a, b in zip(qbers, qbers[1:]))
    sift_up = all(b > a for a, b in zip(sifts, sifts[1:]))
    positive_at_small_g = secures[0] > 0.0
    dies_before_end = any(v == 0.0 for g, v in zip(grid, secures) if g < 0.9)
    ok = qber_up and sift_up and positive_at_small_g and dies_before_end
    report(
        5,
        "qber and rate trends",
        ok,
        f"qber_up={qber_up}, sift_up={sift_up}, "
        f"rsec[0]={secures[0]:.2e}, zero_before_0.9={dies_before_end}",
    )


def test_criterion_6_passive_intensity(passive_sweep_mu_01):
    sweep_mu_01, sweep_elapsed = passive_sweep_mu_01
    start = time.perf_counter()
    base = ChannelParams(tau1=REFERENCE_TAU1, tau2=0.01, dark_count=REFERENCE_DARK)
    min_ratio = sweep_mu_01.min_ratio
    endpoint_sweep = passive_performance(
        SourceParams.from_mean_photon_number(0.037), base, [20.0, 45.0]
    )
    ratio_20 = endpoint_sweep.points[0].ratio
    ratio_45 = endpoint_sweep.points[1].ratio

    source_01 = SourceParams.from_mean_photon_number(0.1)
    source_02 = SourceParams.from_mean_photon_number(0.2)
    heavier_always_worse = True
    for loss in SWEEP_LOSSES_DB:
        channel = ChannelParams(
            tau1=REFERENCE_TAU1,
            tau2=transmittance_from_db(loss),
            dark_count=REFERENCE_DARK,
        )
        rate_01 = secure_rate(*qber_and_sift(source_01, channel))
        rate_02 = secure_rate(*qber_and_sift(source_02, channel))
        if not rate_02 < rate_01:
            heavier_always_worse = False
    elapsed = sweep_elapsed + (time.perf_counter() - start)
    ok = (
        min_ratio == pytest.approx(0.997, abs=0.005)
        and ratio_20 == pytest.approx(0.625, abs=0.03)
        and ratio_45 == pytest.approx(0.66, abs=0.03)
        and heavier_always_worse
        and elapsed < 60.0
    )
    report(
        6,
        "passive-intensity performance",
        ok,
        f"min_ratio(0.1)={min_ratio:.4f}, ratio(0.037)@20dB={ratio_20:.4f}, "
        f"@45dB={ratio_45:.4f}, mu0.2_worse={heavier_always_worse}, {elapsed:.1f}s",
    )


def test_criterion_7_optimizer_sanity(passive_sweep_mu_01):
    sweep_mu_01, _ = passive_sweep_mu_01
    mu_opts = [p.mu_opt for p in sweep_mu_01.points]
    in_band = all(m is not None and 0.05 <= m <= 0.2 for m in mu_opts)

    channel = ChannelParams(
        tau1=REFERENCE_TAU1, tau2=transmittance_from_db(30.0), dark_count=REFERENCE_DARK
    )
    result = optimize_gain(channel)

    def rate(g: float) -> float:
        return secure_rate(*qber_and_sift(SourceParams(g), channel))

    local_max = result.found and (
        result.secure_rate_at_opt >= rate(result.g_opt - 1e-4)
        and result.secure_rate_at_opt >= rate(result.g_opt + 1e-4)
    )
    ok = in_band and local_max
    report(
        7,
        "optimizer sanity",
        ok,
        f"mu_opt range=[{min(mu_opts):.4f}, {max(mu_opts):.4f}], "
        f"local_max={local_max}",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(20240808)
    checks: dict[str, bool] = {}

    # theta-independence of one-sided patterns
    one_sided = [
        p
        for p in CANONICAL_PATTERNS
        if not ((p.a_plus or p.a_minus) and (p.b_plus or p.b_minus))
    ]
    ok = True
    for _ in range(5):
        source = SourceParams(rng.uniform(0.0, 0.9))
        channel = ChannelParams(
            tau1=rng.uniform(0.01, 1.0), tau2=rng.uniform(0.01, 1.0),
            dark_count=float(rng.choice([0.0, 1e-3])),
        )
        at_zero = outcome_probabilities(source, channel, MeasurementAngles(0.0, 0.0))
        at_angle = outcome_probabilities(source, channel, MeasurementAngles(0.7, 0.0))
        ok &= all(abs(at_zero[p] - at_angle[p]) <= 1e-14 for p in one_sided)
    checks["marginal theta-independence"] = ok

    # party swap relabels the table
    ok = True
    for _ in range(5):
        source = SourceParams(rng.uniform(0.0, 0.9))
        tau1, tau2 = rng.uniform(0.01, 1.0, size=2)
        theta = rng.uniform(0.0, math.pi)
        table = outcome_probabilities(
            source, ChannelParams(tau1=tau1, tau2=tau2), MeasurementAngles(theta, 0.0)
        )
        swapped = outcome_probabilities(
            source, ChannelParams(tau1=tau2, tau2=tau1), MeasurementAngles(theta, 0.0)
        )
        for p in CANONICAL_PATTERNS:
            relabeled = ClickPattern(p.b_plus, p.b_minus, p.a_plus, p.a_minus)
            ok &= abs(table[p] - swapped[relabeled]) <= 1e-12
    checks["party swap"] = ok

    # parity and pi-periodicity in the relative angle
    ok = True
    for _ in range(5):
        source = SourceParams(rng.uniform(0.0, 0.9))
        channel = ChannelParams(tau1=rng.uniform(0.01, 1.0), tau2=rng.uniform(0.01, 1.0))
        theta = rng.uniform(0.0, math.pi)
        base = outcome_probabilities(source, channel, MeasurementAngles(theta, 0.0))
        mirrored = outcome_probabilities(source, channel, MeasurementAngles(-theta, 0.0))
        shifted = outcome_probabilities(
            source, channel, MeasurementAngles(theta + math.pi, 0.0)
        )
        for p in CANONICAL_PATTERNS:
            ok &= abs(base[p] - mirrored[p]) <= 1e-14
            ok &= abs(base[p] - shifted[p]) <= 1e-14
    checks["theta parity/periodicity"] = ok

    # unitarity of the basis rotation
    state = build_state(0.6, 20)
    ok = True
    for _ in range(3):
        rotated = rotate_modes(state, rng.uniform(0, math.pi), rng.uniform(0, math.pi))
        ok &= abs(rotated.norm_squared() - state.norm_squared()) <= 1e-12
    checks["rotation unitarity"] = ok

    # mass conservation through loss and readout
    dist = photon_number_distribution(rotate_modes(state, 0.4, 1.0))
    ok = True
    for _ in range(3):
        lossy = apply_loss(dist, rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
        ok &= abs(lossy.total() - dist.total()) <= 1e-12
        table = click_probabilities(lossy, float(rng.choice([0.0, 1e-3])))
        ok &= abs(table.total() - dist.total()) <= 1e-12
    checks["mass conservation"] = ok

    all_ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    report(
        8,
        "module property suites",
        all_ok,
        "all properties hold" if all_ok else f"failed: {', '.join(failed)}",
    )
