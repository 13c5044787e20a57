import functools
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hbepp_link import (
    ChannelParams,
    MeasurementAngles,
    PostprocessingModel,
    SourceParams,
    chsh,
    optimize_gain,
    oracle_probabilities,
    qber_and_sift,
)
from hbepp_link import keyrate
from hbepp_link.cli import run_subcommand
from hbepp_link.config import parse_config
from hbepp_link.keyrate import (
    G_BRACKET,
    OptimizationResult,
    passive_performance,
    secure_rate,
)
from hbepp_link.params import transmittance_from_db
from hbepp_link.patterns import ProbabilityConsistencyError, left_to_right_sum
from hbepp_link.postprocess import ALICE_CHSH_ANGLES, BOB_CHSH_ANGLES, _FOLDS, coincidences

from exact import outcome_probabilities_exact, squash_gain_and_error

#: Reference downlink: 1.6 dB on Alice's arm, dark counts per detector per mode.
REFERENCE_TAU1 = transmittance_from_db(1.6)
REFERENCE_DARK = 6.25e-7


def reference_channel(loss2_db: float) -> ChannelParams:
    return ChannelParams(
        tau1=REFERENCE_TAU1,
        tau2=transmittance_from_db(loss2_db),
        dark_count=REFERENCE_DARK,
    )


def plain_binary_entropy(eps: float) -> float:
    """Shannon entropy H2 of a binary variable, H2(0) = H2(1) = 0: the
    plain-float rule, with its check and without the package's clamp band,
    that ``plain_secure_rate`` applies."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"error rate must be in [0, 1], got {eps}")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


def plain_secure_rate(eps: float, r_sift: float) -> float:
    """R_sift (1 - 2 H2(eps)), clamped at zero: the plain-float rule, with
    its checks, that the package's ``secure_rate`` must equal, bit for bit."""
    if r_sift < 0.0:
        raise ValueError(f"sifted rate must be >= 0, got {r_sift}")
    return max(0.0, r_sift * (1.0 - 2.0 * plain_binary_entropy(eps)))


class TestBinaryEntropy:
    """The package's one binary entropy, read through ``secure_rate`` as
    R_sift (1 - 2 H2(eps)), clamped at zero."""

    def test_endpoints(self):
        # H2(0) = H2(1) = 0: the whole sifted rate is key
        assert secure_rate(0.0, 0.37) == secure_rate(1.0, 0.37) == 0.37
        assert secure_rate(np.array([0.0, 1.0]), 0.37).tolist() == [0.37, 0.37]

    def test_maximum(self):
        # H2(1/2) = 1, the maximum, leaves no key: +0.0, at one point and
        # in an array
        for rate in (secure_rate(0.5, 1.0), secure_rate(np.array([0.5]), 1.0)[0]):
            assert rate == 0.0 and math.copysign(1.0, rate) == 1.0

    def test_symmetry(self):
        for eps in (0.01, 0.05, 0.1):
            assert secure_rate(eps, 1.0) == pytest.approx(
                secure_rate(1.0 - eps, 1.0), abs=1e-14
            )

    def test_half_entropy_error_rate(self):
        # bisection for the eps where the key runs out, H2(eps) = 1/2
        lo, hi = 1e-9, 0.5
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if secure_rate(mid, 1.0) > 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(0.11002786443836, abs=1e-11)
        # 1 - 2 H2(0.1), H2 to 60 digits in decimal: 0.0620088128214375575
        assert secure_rate(0.1, 1.0) == pytest.approx(0.0620088128214375575, abs=1e-15)

    @pytest.mark.parametrize("eps", [-0.01, 1.01, math.nan])
    def test_domain(self, eps):
        for eps_value in (eps, np.array([0.1, eps])):
            with pytest.raises(ValueError, match=r"error rate must be in \[0, 1\]"):
                secure_rate(eps_value, 0.3)


class TestQberAndSift:
    def test_weak_source_is_error_free(self):
        eps, r_sift = qber_and_sift(
            SourceParams(1e-4), ChannelParams(tau1=0.7, tau2=0.01)
        )
        assert eps == pytest.approx(0.0, abs=1e-6)
        assert r_sift > 0.0

    def test_no_coincidences_returns_zero(self):
        # g = 0 without dark counts, both models
        for model in PostprocessingModel:
            eps, r_sift = qber_and_sift(
                SourceParams(0.0), ChannelParams(tau1=0.7, tau2=0.01), model
            )
            assert (eps, r_sift) == (0.0, 0.0)

    def test_monotone_in_gain(self):
        channel = ChannelParams(tau1=0.7, tau2=0.01)
        results = [
            qber_and_sift(SourceParams(g), channel)
            for g in np.linspace(0.05, 0.9, 15)
        ]
        eps_values = [r[0] for r in results]
        sift_values = [r[1] for r in results]
        assert all(b > a for a, b in zip(eps_values, eps_values[1:]))
        assert all(b > a for a, b in zip(sift_values, sift_values[1:]))

    def test_reference_point_against_brute_force(self):
        source = SourceParams(0.3)
        channel = reference_channel(20.0)
        eps, r_sift = qber_and_sift(source, channel)
        table = oracle_probabilities(
            source, channel, MeasurementAngles(0.0, 0.0), n_max=40
        )
        counts = coincidences(table, PostprocessingModel.SQUASH)
        eps_oracle = (counts.n_pp + counts.n_mm) / counts.total()
        assert eps == pytest.approx(eps_oracle, abs=1e-12)
        assert r_sift == pytest.approx(0.5 * counts.total(), abs=1e-12)
        # frozen from the brute-force evaluation
        assert eps == pytest.approx(0.0542085199955, abs=1e-11)
        assert r_sift == pytest.approx(0.000737832722396, abs=1e-13)

    def test_basis_rotation_invariance_of_qber(self):
        # rotating Bob's basis by 90 degrees swaps his outcome roles
        source = SourceParams(0.3)
        channel = ChannelParams(tau1=0.6, tau2=0.2, dark_count=1e-3)
        matched = coincidences(
            oracle_probabilities(
                source, channel, MeasurementAngles(0.0, 0.0), n_max=25
            ),
            PostprocessingModel.SQUASH,
        )
        crossed = coincidences(
            oracle_probabilities(
                source, channel, MeasurementAngles(math.pi / 2, 0.0), n_max=25
            ),
            PostprocessingModel.SQUASH,
        )
        eps_matched = (matched.n_pp + matched.n_mm) / matched.total()
        eps_crossed = (crossed.n_pm + crossed.n_mp) / crossed.total()
        assert eps_matched == pytest.approx(eps_crossed, abs=1e-12)


class TestPairForms:
    """``keyrate._qber_and_sift``: one closed form per model in one pair's
    four probabilities, in place of the fold of the 16-entry table."""

    def test_forms_are_the_exact_fold_of_the_theta_zero_table(self):
        # with Fraction inputs every step is exact, so each form equals the
        # fold of tests/exact.py's 16 exact theta = 0 entries by _FOLDS'
        # exact weights
        rng = np.random.default_rng(53)
        points = [(0.4, 0.7, 1e-3, 6.25e-7), (0.9, 1.0, 0.5, 0.0), (0.05, 0.5, 1e-12, 0.0),
                  (0.0, 0.7, 0.01, 0.0), (0.0, 0.7, 0.01, 1e-3)]
        points += [
            (rng.uniform(0.0, 0.95), rng.uniform(1e-6, 1.0), 10.0 ** -rng.uniform(0.0, 12.0),
             rng.choice([0.0, 0.0, 6.25e-7, 1e-3]))
            for _ in range(40)
        ]
        for point in points:
            point = tuple(Fraction(float(v)) for v in point)
            table = outcome_probabilities_exact(*point[:3], 0.0, point[3])
            for model in PostprocessingModel:
                n_pp, n_pm, n_mp, n_mm = (sum(Fraction(weight) * table[index]
                                              for index, weight in cell)
                                          for cell in _FOLDS[model])
                total = n_pp + n_pm + n_mp + n_mm
                exact = ((n_pp + n_mm) / total, total / 2) if total else (0, 0)
                eps, r_sift = keyrate._qber_and_sift(*point, model)
                assert [type(eps), type(r_sift)] == [Fraction, Fraction]
                assert (eps, r_sift) == exact

    @pytest.mark.parametrize("model", list(PostprocessingModel), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "gains, message",
        [
            ([0.3, math.nan, 1.5], r"P\[pair AB\] = nan outside"),
            ([0.3, 1.5, math.nan], r"P\[pair A\] = 4\.5435\d* outside"),
        ],
        ids=["nan-first", "out-of-range-first"],
    )
    def test_gate_raises_the_first_failing_column(self, gains, message, model):
        # the pair's four entries pass the general table's gate, which
        # names the failing pair entry; the one-point call at the first
        # failing column raises the same message
        with pytest.raises(ProbabilityConsistencyError, match=message):
            keyrate._qber_and_sift(np.array(gains), 0.7, 0.3, 0.0, model)
        with pytest.raises(ProbabilityConsistencyError, match=message):
            keyrate._qber_and_sift(gains[1], 0.7, 0.3, 0.0, model)

    def test_squash_form_is_ma_fung_lo(self):
        # an outside anchor: with Fraction inputs the squash chain's total,
        # 2 R_sift, is Ma, Fung & Lo's gain Q and its QBER their E, exactly,
        # without dark counts, with few and with many
        rng = np.random.default_rng(11)
        points = [(0.4, 0.7, 1e-3, 6.25e-7), (0.9, 1.0, 1.0, 0.0), (0.05, 0.5, 1e-8, 0.0),
                  (1e-3, 1.0, 1e-8, 1e-2), (0.95, 0.2, 0.5, 1e-5)]
        for dark in (0.0, 3.7e-5, 1e-2):
            points += [
                (rng.uniform(1e-3, 0.95), 10.0 ** -rng.uniform(0.0, 1.0),
                 10.0 ** -rng.uniform(0.0, 8.0), rng.uniform(0.0, dark))
                for _ in range(20)
            ]
        for point in points:
            point = tuple(Fraction(float(v)) for v in point)
            eps, r_sift = keyrate._qber_and_sift(*point, PostprocessingModel.SQUASH)
            assert (2 * r_sift, eps) == squash_gain_and_error(*point)


class TestSecureRate:
    def test_error_free_keeps_sifted_rate(self):
        assert secure_rate(0.0, 0.37) == 0.37

    def test_half_error_rate_gives_zero(self):
        assert secure_rate(0.5, 1.0) == 0.0

    def test_zero_crossing(self):
        assert secure_rate(0.11003, 1.0) == pytest.approx(0.0, abs=1e-3)

    def test_monotone_nonincreasing_in_error(self):
        rates = [secure_rate(eps, 0.8) for eps in np.linspace(0.0, 0.5, 26)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_never_exceeds_sifted_rate(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            eps = rng.uniform(0.0, 1.0)
            r_sift = rng.uniform(0.0, 1.0)
            assert 0.0 <= secure_rate(eps, r_sift) <= r_sift


class TestOptimizeGain:
    def test_local_maximum(self):
        channel = reference_channel(30.0)
        result = optimize_gain(channel)
        assert result.found

        def rate(g):
            eps, r_sift = qber_and_sift(SourceParams(g), channel)
            return secure_rate(eps, r_sift)

        assert result.secure_rate_at_opt >= rate(result.g_opt - 1e-4)
        assert result.secure_rate_at_opt >= rate(result.g_opt + 1e-4)
        assert result.secure_rate_at_opt >= rate(result.bracket[0])
        assert result.secure_rate_at_opt >= rate(result.bracket[1])

    def test_lossless_channel_is_unimodal_on_grid(self):
        channel = ChannelParams(tau1=1.0, tau2=1.0)
        grid = np.linspace(0.01, 0.99, 60)
        values = []
        for g in grid:
            eps, r_sift = qber_and_sift(SourceParams(g), channel)
            values.append(secure_rate(eps, r_sift))
        peak = int(np.argmax(values))
        assert all(values[i + 1] >= values[i] for i in range(peak))
        assert all(values[i + 1] <= values[i] for i in range(peak, len(values) - 1))

    def test_refinement_starts_between_neighbouring_scan_points(self):
        result = optimize_gain(reference_channel(25.0))
        lo, hi = result.bracket
        assert G_BRACKET[0] <= lo < result.g_opt < hi <= G_BRACKET[1]
        step = (G_BRACKET[1] - G_BRACKET[0]) / 255
        assert hi - lo == pytest.approx(2 * step, rel=1e-9)

    def test_all_zero_rate_is_flagged(self):
        # dark counts dominate: every coincidence is noise, no secure rate
        channel = ChannelParams(tau1=0.5, tau2=1e-6, dark_count=0.2)
        result = optimize_gain(channel)
        assert not result.found
        assert result.g_opt is None and result.mu_opt is None
        assert result.secure_rate_at_opt == 0.0
        assert result.bracket == G_BRACKET

    def test_fields_are_python_floats(self):
        result = optimize_gain(reference_channel(30.0))
        fields = (result.g_opt, result.mu_opt, result.secure_rate_at_opt, *result.bracket)
        assert [type(v) for v in fields] == [float] * 5
        assert type(result.iterations) is int

    def test_result_is_the_rate_at_g_opt(self, monkeypatch):
        # secure_rate_at_opt is the one-point chain's float at g_opt. A
        # stencil gain can beat it by rounding, as the maximum is flat to
        # far below the stencil's spacing, but by at most 1e-14 relative.
        evaluated = []

        def recording(eps, r_sift):
            rates = secure_rate(eps, r_sift)
            evaluated.extend(np.ravel(rates).tolist())
            return rates

        monkeypatch.setattr(keyrate, "secure_rate", recording)
        for loss2_db in (20.0, 25.0, 45.0, 52.5):
            evaluated.clear()
            channel = reference_channel(loss2_db)
            result = optimize_gain(channel)
            assert result.secure_rate_at_opt.hex() == plain_secure_rate(
                *qber_and_sift(SourceParams(result.g_opt), channel)
            ).hex()
            assert max(evaluated) <= result.secure_rate_at_opt * (1.0 + 1e-14)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            optimize_gain(reference_channel(20.0), grid_points=100)

    def test_readme_library_use_block_runs(self):
        # README's "Library use" example, run as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Library use\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        names = {}
        exec(block, names)
        assert names["best"].found
        assert names["best"].g_opt == pytest.approx(0.30928, abs=5e-6)


class TestPassivePerformance:
    def test_ratio_bounded_by_one(self):
        sweep = passive_performance(
            SourceParams.from_mean_photon_number(0.1), reference_channel(20.0), [20.0, 30.0, 40.0]
        )
        for point in sweep.points:
            assert point.ratio is not None
            assert point.ratio <= 1.0 + 1e-9

    def test_ratio_is_one_at_the_optimum(self):
        channel = reference_channel(30.0)
        opt = optimize_gain(channel)
        source = SourceParams.from_mean_photon_number(opt.mu_opt)
        sweep = passive_performance(source, channel, [30.0])
        assert sweep.points[0].ratio == pytest.approx(1.0, abs=1e-6)

    def test_reference_brightness_endpoints(self):
        # the flown source brightness underperforms the optimum noticeably
        sweep = passive_performance(
            SourceParams.from_mean_photon_number(0.037), reference_channel(20.0), [20.0, 45.0]
        )
        assert sweep.points[0].ratio == pytest.approx(0.625, abs=0.03)
        assert sweep.points[1].ratio == pytest.approx(0.66, abs=0.03)

    def test_invalid_brightness(self):
        with pytest.raises(ValueError):
            passive_performance(SourceParams(0.0), reference_channel(20.0), [20.0])

    def test_fixed_brightness_rides_the_scan_call(self, monkeypatch):
        # the scan, the search's one array call, with the fixed gain as a
        # 257th column; each fixed rate is the one-point chain's float
        grids = record_grids(monkeypatch)
        source, losses = SourceParams.from_mean_photon_number(0.1), [25.0, 40.0]
        sweep = passive_performance(source, reference_channel(20.0), losses)
        assert [grid.shape for grid in grids] == [(2, 257)]
        assert grids[0][:, 256].tolist() == [source.g] * 2
        assert [p.secure_rate_fixed.hex() for p in sweep.points] == [
            secure_rate(*qber_and_sift(source, reference_channel(loss))).hex()
            for loss in losses
        ]
        # no losses: one empty call and an empty sweep
        grids.clear()
        sweep = passive_performance(source, reference_channel(20.0), [])
        assert [grid.shape for grid in grids] == [(0, 257)]
        assert (sweep.points, sweep.min_ratio) == ((), None)


def record_grids(monkeypatch):
    """The list of the gain grids of every ``keyrate._secure_rates`` call,
    the search's array calls, from here on."""
    grids = []
    secure_rates = keyrate._secure_rates

    def recording(g, lanes):
        grids.append(g)
        return secure_rates(g, lanes)

    monkeypatch.setattr(keyrate, "_secure_rates", recording)
    return grids


def record_gains(monkeypatch, chain=None):
    """The list of the gains of every ``keyrate._qber_and_sift`` call from
    here on, an array or a float each; ``chain`` (by default the package's)
    answers the calls."""
    gains = []
    chain = chain or keyrate._qber_and_sift

    def recording(g, *args):
        gains.append(g)
        return chain(g, *args)

    monkeypatch.setattr(keyrate, "_qber_and_sift", recording)
    return gains


def exact(value):
    """``value`` with every float as ``float.hex``, so == means bit for bit."""
    if isinstance(value, (tuple, list)):
        return type(value)(exact(v) for v in value)
    if isinstance(value, float):
        return float(value).hex()
    return value


def exact_result(result):
    return exact((result.g_opt, result.mu_opt, result.secure_rate_at_opt,
                  result.iterations, result.bracket))


#: Relative error bound of the QBER and sifted rate against the exact
#: reference. Measured worst: 8.8e-16 on the random grid below, 9.7e-16 on
#: every gain of the row grid under both models.
QBER_SIFT_REL = 2e-15


#: Absolute error bound of CHSH against the exact tables. Measured worst:
#: 1.3e-15 on the random grid below.
CHSH_ABS = 4e-15


@functools.cache
def exact_table(g: float, tau1: float, tau2: float, theta: float, dark: float) -> tuple:
    """``outcome_probabilities_exact``, kept: both models fold one table."""
    return tuple(outcome_probabilities_exact(g, tau1, tau2, theta, dark))


def exact_counts(source, channel, model, theta=0.0):
    """The cells ++, +-, -+, -- of ``tests/exact.py``'s table, folded in
    exact arithmetic."""
    table = exact_table(source.g, channel.tau1, channel.tau2, theta, channel.dark_count)
    return [sum(Fraction(weight) * table[index] for index, weight in cell)
            for cell in _FOLDS[model]]


def exact_qber_and_sift(source, channel, model):
    """(QBER, sifted rate) of the exact theta = 0 table, folded and divided
    in exact arithmetic; (0, 0) without coincidences."""
    n_pp, n_pm, n_mp, n_mm = exact_counts(source, channel, model)
    total = n_pp + n_pm + n_mp + n_mm
    return ((n_pp + n_mm) / total, total / 2) if total else (0, 0)


def exact_chsh(source, channel, model):
    """CHSH of the exact tables at the four angle differences, folded and
    divided in exact arithmetic."""
    a1, a2 = ALICE_CHSH_ANGLES
    b1, b2 = BOB_CHSH_ANGLES

    def corr(theta):
        n_pp, n_pm, n_mp, n_mm = exact_counts(source, channel, model, theta)
        total = n_pp + n_pm + n_mp + n_mm
        return (n_pp - n_pm - n_mp + n_mm) / total if total else 0

    return abs(corr(a1 - b1) - corr(a1 - b2) + corr(a2 - b1) + corr(a2 - b2))


def relative_error(values, exact_values) -> float:
    """The largest |value - exact| / exact; a zero exact value must be met
    exactly."""
    worst = 0.0
    for value, reference in zip(values, exact_values):
        if reference == 0:
            assert value == 0.0
        else:
            worst = max(worst, abs(float((Fraction(value) - reference) / reference)))
    return worst


def outcome(call, *args):
    """``call(*args)`` with every float as ``float.hex``, or its exception's
    type and message."""
    try:
        return exact(call(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


class TestOneChainMatchesReference:
    """The one-point calls against their references: the QBER and sifted
    rate within ``QBER_SIFT_REL`` of the exact table, CHSH within
    ``CHSH_ABS`` of the exact tables, and the secure rate equal to
    ``plain_secure_rate``, bit for bit, with equal exceptions."""

    def test_qber_both_models_and_chsh_on_a_random_grid(self):
        rng = np.random.default_rng(37)
        worst = worst_chsh = 0.0
        for _ in range(150):
            source = SourceParams(float(rng.choice([rng.uniform(0.0, 0.95), 1e-4, 0.0])))
            channel = ChannelParams(
                tau1=float(10.0 ** -rng.uniform(0.0, 1.0)),
                tau2=float(10.0 ** -rng.uniform(0.0, 8.0)),
                dark_count=float(rng.choice([0.0, 6.25e-7, 1e-3])),
            )
            for model in PostprocessingModel:
                args = (source, channel, model)
                worst = max(
                    worst, relative_error(qber_and_sift(*args), exact_qber_and_sift(*args))
                )
                worst_chsh = max(worst_chsh, abs(float(chsh(*args) - exact_chsh(*args))))
            eps, r_sift = qber_and_sift(source, channel)
            assert outcome(secure_rate, eps, r_sift) == outcome(
                plain_secure_rate, eps, r_sift
            )
        assert worst <= QBER_SIFT_REL
        assert worst_chsh <= CHSH_ABS

    def test_one_point_calls_stay_python_floats(self):
        source, channel = SourceParams(0.3), reference_channel(20.0)
        for model in PostprocessingModel:
            assert [type(v) for v in qber_and_sift(source, channel, model)] == [float, float]
        assert type(secure_rate(*qber_and_sift(source, channel))) is float
        # at H2's ends, with its logs and in the clamp band
        assert [type(secure_rate(eps, 0.1)) for eps in (0.0, 0.05, 0.3)] == [float] * 3


class TestSecureRateArray:
    def test_rows_equal_scalar_chain_bit_for_bit(self):
        # the scan grid of nine channels: every element is the one-point
        # qber_and_sift with the plain-float secure_rate, down to the last
        # bit, and every 17th gain's QBER and sifted rate is within
        # QBER_SIFT_REL of exact
        grid = np.linspace(*G_BRACKET, 256)
        channels = [
            ChannelParams.from_db_losses(1.6, loss2_db, dark)
            for dark in (0.0, 6.25e-7, 1e-5)
            for loss2_db in (0.0, 30.0, 45.0)
        ]
        rates = keyrate._secure_rates(np.broadcast_to(grid, (9, 256)), keyrate._lanes(channels))
        worst = 0.0
        for channel, row in zip(channels, rates.tolist()):
            scalar = [
                plain_secure_rate(*qber_and_sift(SourceParams(g), channel))
                for g in grid
            ]
            assert [r.hex() for r in row] == [r.hex() for r in scalar]
            for g in grid[::17].tolist():
                args = (SourceParams(g), channel, PostprocessingModel.SQUASH)
                worst = max(
                    worst, relative_error(qber_and_sift(*args), exact_qber_and_sift(*args))
                )
        assert worst <= QBER_SIFT_REL
        # no gains: empty arrays through the whole chain
        eps, r_sift = keyrate._qber_and_sift(grid[:0], 0.7, 0.1, 1e-5, PostprocessingModel.SQUASH)
        assert eps.shape == r_sift.shape == secure_rate(eps, r_sift).shape == (0,)

    def test_elements_equal_one_point_calls_bit_for_bit(self):
        # the entropy's ends, its H2 = 1/2 root, a subnormal and 1 - 1e-16,
        # against sifted rates of 0, NaN and ordinary values; a clamped
        # element is +0.0 as the one-point max(0.0, v) gives. The one-point
        # floats are the plain-float rules above, and the package's
        # one-point calls give the same floats.
        eps_values = [0.0, 1.0, 0.11002786443836, 5e-324, 1.0 - 1e-16, 0.5, 0.3, 0.05]
        rate_values = [0.0, math.nan, 0.37, 1e-9]
        eps, r_sift = np.array(list(itertools.product(eps_values, rate_values))).T
        rates = secure_rate(eps.reshape(8, 4), r_sift.reshape(8, 4))
        assert rates.shape == (8, 4)
        one_point = [
            plain_secure_rate(e, r) for e, r in zip(eps.tolist(), r_sift.tolist())
        ]
        assert [r.hex() for r in rates.ravel().tolist()] == [r.hex() for r in one_point]
        assert [secure_rate(e, r).hex() for e, r in zip(eps.tolist(), r_sift.tolist())] == [
            r.hex() for r in one_point
        ]
        # the entropy on 20,000 uniform error rates outside keyrate._CLAMPED,
        # each of which takes both logs, at a sifted rate of 1: np.log2 in
        # place of math.log2 changes 35 of their rates (numpy 2.4 on x86-64)
        rng = np.random.default_rng(43)
        lo, hi = keyrate._CLAMPED
        logged = rng.uniform(0.0, lo, 10_000).tolist() + rng.uniform(hi, 1.0, 10_000).tolist()
        rates = secure_rate(np.reshape(logged, (-1, 8)), 1.0)
        assert [r.hex() for r in rates.ravel().tolist()] == [
            plain_secure_rate(e, 1.0).hex() for e in logged
        ] == [secure_rate(e, 1.0).hex() for e in logged]
        assert one_point.count(0.0) > 8 and all(
            math.copysign(1.0, r) == 1.0 for r in one_point if r == 0.0
        )

    def test_clamp_band_edges_equal_the_reference(self):
        # secure_rate skips the entropy strictly inside keyrate._CLAMPED,
        # where H2 > 1/2 + 2e-4 clamps every rate to 0.0. The H2 = 1/2
        # roots, the band's bounds and 3 ulps either side of each, and
        # 100,000 uniform error rates, each against four sifted rates,
        # give the plain-float rule's floats bit for bit.
        lo, hi = keyrate._CLAMPED
        assert plain_binary_entropy(lo) > 0.5 + 2e-4
        assert plain_binary_entropy(hi) > 0.5 + 2e-4
        below, above = 0.1, 0.12  # bisection to the last bit for H2 = 1/2
        while (mid := 0.5 * (below + above)) not in (below, above):
            if plain_binary_entropy(mid) < 0.5:
                below = mid
            else:
                above = mid
        edges = [below, above, 1.0 - below, 1.0 - above]
        for bound in (lo, hi):
            down = up = bound
            for _ in range(3):
                down, up = math.nextafter(down, 0.0), math.nextafter(up, 1.0)
                edges += [down, up]
            edges.append(bound)
        eps = edges + np.random.default_rng(21).uniform(size=100_000).tolist()
        r_sift = [0.0, 0.37, math.nan, 1e-9]
        rates = secure_rate(np.reshape(eps, (-1, 1)), np.array(r_sift))
        assert [r.hex() for r in rates.ravel().tolist()] == [
            plain_secure_rate(e, r).hex() for e in eps for r in r_sift
        ]
        assert [secure_rate(e, r).hex() for e in edges for r in r_sift] == [
            plain_secure_rate(e, r).hex() for e in edges for r in r_sift
        ]

    def test_first_failing_element_raises(self):
        # elements are checked in row-major order: the first negative
        # sifted rate or error rate outside [0, 1] raises its own message
        eps = np.array([[0.1, 0.2], [-0.5, 1.5]])
        with pytest.raises(ValueError, match=r"error rate must be in \[0, 1\], got -0\.5"):
            secure_rate(eps, np.full((2, 2), 0.3))
        with pytest.raises(ValueError, match=r"sifted rate must be >= 0, got -1e-09"):
            secure_rate(eps, np.array([[0.3, 0.3], [-1e-9, 0.3]]))
        rates = secure_rate(eps[:1], np.array([[0.3, 0.0]]))
        assert rates.tolist() == [[secure_rate(0.1, 0.3), 0.0]]
        # a float error rate broadcasts against an array of sifted rates
        rates = secure_rate(0.1, np.array([[0.3, 0.0]]))
        assert rates.tolist() == [[secure_rate(0.1, 0.3), 0.0]]
        # NaN is outside [0, 1], at one point and in an array; a negative
        # sifted rate earlier in row-major order, or at the same element,
        # raises first
        nan_row = np.array([[0.1, math.nan]])
        for args in ((math.nan, 0.3), (nan_row, np.full((1, 2), 0.3))):
            with pytest.raises(ValueError, match=r"error rate must be in \[0, 1\], got nan$"):
                secure_rate(*args)
        for args in ((math.nan, -1e-9), (nan_row, np.array([[-1e-9, 0.3]]))):
            with pytest.raises(ValueError, match=r"sifted rate must be >= 0, got -1e-09$"):
                secure_rate(*args)

    def test_first_failure_in_broadcast_order_raises(self):
        # eps of shape (3, 1) against sifted rates of shape (1, 2): elements
        # go in the row-major order of the (3, 2) broadcast, so a negative
        # sifted rate in column 1 fails at (0, 1), after a bad error rate in
        # row 0 and before one in row 1; at one element the sifted rate's
        # message comes first
        sifted = r"sifted rate must be >= 0, got -1e-09$"
        error = r"error rate must be in \[0, 1\], got 1\.5$"
        for eps, r_sift, message in (
            ([[0.1], [1.5], [0.2]], [[0.3, -1e-9]], sifted),
            ([[1.5], [0.1], [0.2]], [[0.3, -1e-9]], error),
            ([[1.5], [0.1], [0.2]], [[-1e-9, 0.3]], sifted),
            ([[0.1], [0.2], [1.5]], [[0.3, 0.0]], error),
        ):
            with pytest.raises(ValueError, match=message):
                secure_rate(np.array(eps), np.array(r_sift))


#: The tests' channel grid: every (loss1_db, loss2_db, dark count) with
#: loss1_db in (0, 1.6, 3), loss2_db in ``LOSS2_DB`` and the dark count in
#: (0, 6.25e-7, 1e-5). None where no gain gives a key; otherwise the scan
#: bracket's ends by ``float.hex``, and the gain of the maximum secure rate
#: to 40 digits: the root of dR/dg, the pair table folded and the entropy
#: taken in 60-digit arithmetic (mpmath, offline; the 60-digit table agrees
#: with ``tests/exact.py``'s to 1e-60).
LOSS2_DB = (0.0, 10.0, 20.0, 30.0, 45.0, 52.5, 60.0)
OPTIMA = {
    (0.0, 0.0, 0.0): ("0x1.9c99871880f3ap-2", "0x1.a438b394dc8aap-2",
        "0.4052755411377335793448055864600771748649"),
    (0.0, 10.0, 0.0): ("0x1.5431607b1ad95p-2", "0x1.5bd08cf776704p-2",
        "0.3346767706179055471679099580963086110919"),
    (0.0, 20.0, 0.0): ("0x1.4c9233febf425p-2", "0x1.5431607b1ad95p-2",
        "0.328257709877567350509754966643311409265"),
    (0.0, 30.0, 0.0): ("0x1.4c9233febf425p-2", "0x1.5431607b1ad95p-2",
        "0.3276279085030022015157902639216053017531"),
    (0.0, 45.0, 0.0): ("0x1.4c9233febf425p-2", "0x1.5431607b1ad95p-2",
        "0.3275602761780922013038256605688709363359"),
    (0.0, 52.5, 0.0): ("0x1.4c9233febf425p-2", "0x1.5431607b1ad95p-2",
        "0.3275584607152334858055943098390906527514"),
    (0.0, 60.0, 0.0): ("0x1.4c9233febf425p-2", "0x1.5431607b1ad95p-2",
        "0.3275581378771597923609580612678929619827"),
    (0.0, 0.0, 6.25e-07): ("0x1.9c99871880f3ap-2", "0x1.a438b394dc8aap-2",
        "0.4052749821645197119649422997909065548441"),
    (0.0, 10.0, 6.25e-07): ("0x1.5431607b1ad95p-2", "0x1.5bd08cf776704p-2",
        "0.3346724375072526257025231571624209497258"),
    (0.0, 20.0, 6.25e-07): ("0x1.4c9233febf425p-2", "0x1.5431607b1ad95p-2",
        "0.3282157488465371778930092653657622349812"),
    (0.0, 30.0, 6.25e-07): ("0x1.4c9233febf425p-2", "0x1.5431607b1ad95p-2",
        "0.3272081114300881152346625215539409023204"),
    (0.0, 45.0, 6.25e-07): ("0x1.3d53db0608146p-2", "0x1.44f3078263ab5p-2",
        "0.3126398980211070003727504636876884739141"),
    (0.0, 52.5, 6.25e-07): ("0x1.60a64812d3566p-3", "0x1.6fe4a10b8a846p-3",
        "0.1774942932469450178691168907437917061916"),
    (0.0, 60.0, 6.25e-07): None,
    (0.0, 0.0, 1e-05): ("0x1.9c99871880f3ap-2", "0x1.a438b394dc8aap-2",
        "0.40526659744021479864107322858190150214"),
    (0.0, 10.0, 1e-05): ("0x1.5431607b1ad95p-2", "0x1.5bd08cf776704p-2",
        "0.3346074032879167688167078324223250339806"),
    (0.0, 20.0, 1e-05): ("0x1.4c9233febf425p-2", "0x1.5431607b1ad95p-2",
        "0.3275822561412771651874640428554741312841"),
    (0.0, 30.0, 1e-05): ("0x1.44f3078263ab5p-2", "0x1.4c9233febf425p-2",
        "0.3205029602349132133051324232557253823539"),
    (0.0, 45.0, 1e-05): None,
    (0.0, 52.5, 1e-05): None,
    (0.0, 60.0, 1e-05): None,
    (1.6, 0.0, 0.0): ("0x1.81ec6b6540633p-2", "0x1.898b97e19bfa3p-2",
        "0.3810542544422597508661767281957890208776"),
    (1.6, 10.0, 0.0): ("0x1.4123714435dfep-2", "0x1.48c29dc09176dp-2",
        "0.3165406210600879798511925643708537552786"),
    (1.6, 20.0, 0.0): ("0x1.398444c7da48ep-2", "0x1.4123714435dfep-2",
        "0.3103587163476064833600470224457271089291"),
    (1.6, 30.0, 0.0): ("0x1.398444c7da48ep-2", "0x1.4123714435dfep-2",
        "0.3097510622808879380300208865908508509455"),
    (1.6, 45.0, 0.0): ("0x1.398444c7da48ep-2", "0x1.4123714435dfep-2",
        "0.3096857975440680595370492835518850111505"),
    (1.6, 52.5, 0.0): ("0x1.398444c7da48ep-2", "0x1.4123714435dfep-2",
        "0.30968404560626049041264673033536692821"),
    (1.6, 60.0, 0.0): ("0x1.398444c7da48ep-2", "0x1.4123714435dfep-2",
        "0.3096837340644922822583876109635829880265"),
    (1.6, 0.0, 6.25e-07): ("0x1.81ec6b6540633p-2", "0x1.898b97e19bfa3p-2",
        "0.3810534924661216611192598063540258946401"),
    (1.6, 10.0, 6.25e-07): ("0x1.4123714435dfep-2", "0x1.48c29dc09176dp-2",
        "0.3165355655628290186736867333436930515182"),
    (1.6, 20.0, 6.25e-07): ("0x1.398444c7da48ep-2", "0x1.4123714435dfep-2",
        "0.3103112507660688719459073257328518844543"),
    (1.6, 30.0, 6.25e-07): ("0x1.398444c7da48ep-2", "0x1.4123714435dfep-2",
        "0.3092781048048310964160281533926646147558"),
    (1.6, 45.0, 6.25e-07): ("0x1.2a45ebcf231aep-2", "0x1.31e5184b7eb1ep-2",
        "0.2932697430235031175338436600851536713405"),
    (1.6, 52.5, 6.25e-07): ("0x1.3a8a69a509638p-3", "0x1.49c8c29dc0917p-3",
        "0.1588079752137576920462959892698954785378"),
    (1.6, 60.0, 6.25e-07): None,
    (1.6, 0.0, 1e-05): ("0x1.81ec6b6540633p-2", "0x1.898b97e19bfa3p-2",
        "0.3810420624244883924392100761846753497217"),
    (1.6, 10.0, 1e-05): ("0x1.4123714435dfep-2", "0x1.48c29dc09176dp-2",
        "0.3164596996101237352004614370601820132271"),
    (1.6, 20.0, 1e-05): ("0x1.398444c7da48ep-2", "0x1.4123714435dfep-2",
        "0.3095956731400120693561816589001644851519"),
    (1.6, 30.0, 1e-05): ("0x1.31e5184b7eb1ep-2", "0x1.398444c7da48ep-2",
        "0.3018217321346552356751648761529524316245"),
    (1.6, 45.0, 1e-05): None,
    (1.6, 52.5, 1e-05): None,
    (1.6, 60.0, 1e-05): None,
    (3.0, 0.0, 0.0): ("0x1.72ae126c89354p-2", "0x1.7a4d3ee8e4cc3p-2",
        "0.3656014285736628153315536117478848762022"),
    (3.0, 10.0, 0.0): ("0x1.31e5184b7eb1ep-2", "0x1.398444c7da48ep-2",
        "0.3039249619602278427756853451163751855499"),
    (3.0, 20.0, 0.0): ("0x1.2e15820d50e66p-2", "0x1.35b4ae89ac7d6p-2",
        "0.2979085057849605743422467186666639734243"),
    (3.0, 30.0, 0.0): ("0x1.2e15820d50e66p-2", "0x1.35b4ae89ac7d6p-2",
        "0.2973168491775346525136089336237967499677"),
    (3.0, 45.0, 0.0): ("0x1.2e15820d50e66p-2", "0x1.35b4ae89ac7d6p-2",
        "0.2972533002801600692517083346844169353397"),
    (3.0, 52.5, 0.0): ("0x1.2e15820d50e66p-2", "0x1.35b4ae89ac7d6p-2",
        "0.2972515943954019333204536839489477070435"),
    (3.0, 60.0, 0.0): ("0x1.2e15820d50e66p-2", "0x1.35b4ae89ac7d6p-2",
        "0.2972512910430735243328098944717121768571"),
    (3.0, 0.0, 6.25e-07): ("0x1.72ae126c89354p-2", "0x1.7a4d3ee8e4cc3p-2",
        "0.3656004340543582921992166451919390627786"),
    (3.0, 10.0, 6.25e-07): ("0x1.31e5184b7eb1ep-2", "0x1.398444c7da48ep-2",
        "0.3039195120184173144339273403259197473948"),
    (3.0, 20.0, 6.25e-07): ("0x1.2e15820d50e66p-2", "0x1.35b4ae89ac7d6p-2",
        "0.2978594383836868539754387875242284098919"),
    (3.0, 30.0, 6.25e-07): ("0x1.2a45ebcf231aep-2", "0x1.31e5184b7eb1ep-2",
        "0.2968303024641543406323566274539369672008"),
    (3.0, 45.0, 6.25e-07): ("0x1.1b0792d66becfp-2", "0x1.22a6bf52c783fp-2",
        "0.2805365426240587985241908499882316507566"),
    (3.0, 52.5, 6.25e-07): ("0x1.2b4c10ac52358p-3", "0x1.3a8a69a509638p-3",
        "0.149334637778141701463819597972235735495"),
    (3.0, 60.0, 6.25e-07): None,
    (3.0, 0.0, 1e-05): ("0x1.72ae126c89354p-2", "0x1.7a4d3ee8e4cc3p-2",
        "0.3655855152935755915996048282136295923313"),
    (3.0, 10.0, 1e-05): ("0x1.31e5184b7eb1ep-2", "0x1.398444c7da48ep-2",
        "0.3038377316247818794045187652334758007333"),
    (3.0, 20.0, 1e-05): ("0x1.2e15820d50e66p-2", "0x1.35b4ae89ac7d6p-2",
        "0.2971201390658439690869425025664347263109"),
    (3.0, 30.0, 1e-05): ("0x1.22a6bf52c783fp-2", "0x1.2a45ebcf231aep-2",
        "0.2892004216768242017759637520028668847121"),
    (3.0, 45.0, 1e-05): None,
    (3.0, 52.5, 1e-05): None,
    (3.0, 60.0, 1e-05): None,

}

#: Relative error bound of ``g_opt`` against ``OPTIMA``. Measured worst:
#: 4.6e-13 on the grid.
G_OPT_REL = 1e-12


#: The 101st of the 256 scan gains, where a stand-in rate curve spikes.
SPIKE = np.linspace(*G_BRACKET, 256)[100].item()
#: The first five of the 256 scan gains, and a stand-in curve's rates there:
#: the best is the second, and the quartic through the five peaks 1.43
#: steps past the third, outside the bracket.
LOBE_GRID = np.linspace(*G_BRACKET, 256)[:5]
LOBE_RATES = (0.9, 1.0, 0.5, 0.9, 0.0)


def side_lobe(g):
    """``LOBE_RATES`` at ``LOBE_GRID``, a lobe of 2.0 strictly between its
    fourth and fifth gains, which the scan does not see, and 0 elsewhere."""
    return np.select([g == x for x in LOBE_GRID] + [(LOBE_GRID[3] < g) & (g < LOBE_GRID[4])],
                     [*LOBE_RATES, 2.0], 0.0)


def stand_in_chain(g, tau1, tau2, dark_count, model):
    """Stand-in (QBER, sifted rate) for ``keyrate._qber_and_sift``, on arrays
    and on floats: no errors, so the secure rate is the sifted rate. It
    rises in g where tau2 = 1 and falls where tau2 = 0.5; where tau2 = 1/8
    it is 1 at ``SPIKE``, 0.9 above and 0.1 below; where tau2 = 1/16 it is
    min(g, 0.5); where tau2 = 1/32 it is ``side_lobe``; otherwise a parabola
    with its maximum at g = 0.3."""
    r_sift = np.select(
        [tau2 == 1.0, tau2 == 0.5, tau2 == 0.125, tau2 == 0.0625, tau2 == 0.03125],
        [g, 1.0 - g, np.where(g == SPIKE, 1.0, np.where(g > SPIKE, 0.9, 0.1)), np.minimum(g, 0.5),
         side_lobe(g)],
        1.0 - (g - 0.3) ** 2,
    )
    return 0.0 * g, r_sift


class TestLockstepSearchMatchesReference:
    """The array search against the reference optima ``OPTIMA``: the found
    set and scan bracket bit for bit, and ``g_opt`` within ``G_OPT_REL`` of
    the exact maximum. Each lane of a many-channel search is the one-channel
    ``optimize_gain`` bit for bit."""

    @staticmethod
    def assert_optimum(result, expected):
        if expected is None:
            no_key = OptimizationResult(None, None, 0.0, 0, G_BRACKET)
            assert exact_result(result) == exact_result(no_key)
            return
        lo, hi, g_exact = expected
        assert exact(result.bracket) == (lo, hi)
        assert result.iterations == 1
        assert abs(Fraction(result.g_opt) / Fraction(g_exact) - 1) <= G_OPT_REL

    @pytest.mark.parametrize("dark", [0.0, 6.25e-7, 1e-5])
    @pytest.mark.parametrize("loss1_db", [0.0, 1.6, 3.0])
    def test_optimize_gain_and_sweep(self, loss1_db, dark):
        channels = [ChannelParams.from_db_losses(loss1_db, loss2_db, dark) for loss2_db in LOSS2_DB]
        optima = [optimize_gain(channel) for channel in channels]
        for loss2_db, opt in zip(LOSS2_DB, optima):
            self.assert_optimum(opt, OPTIMA[loss1_db, loss2_db, dark])
        source = SourceParams.from_mean_photon_number(0.1)
        sweep = passive_performance(source, channels[0], LOSS2_DB)
        assert [exact(p.secure_rate_fixed) for p in sweep.points] == [
            exact(plain_secure_rate(*qber_and_sift(source, channel))) for channel in channels
        ]
        assert [exact((p.secure_rate_optimal, p.mu_opt)) for p in sweep.points] == [
            exact((opt.secure_rate_at_opt, opt.mu_opt)) for opt in optima
        ]

    def test_found_and_all_zero_lanes_in_one_search(self):
        channels = [
            reference_channel(20.0),
            ChannelParams(tau1=0.5, tau2=1e-6, dark_count=0.2),
            reference_channel(45.0),
        ]
        results, _ = keyrate._search(keyrate._lanes(channels), 256, ())
        assert [r.found for r in results] == [True, False, True]
        for channel, result in zip(channels, results):
            assert exact_result(result) == exact_result(optimize_gain(channel))
        for result, expected in zip(results, (
            OPTIMA[1.6, 20.0, REFERENCE_DARK], None, OPTIMA[1.6, 45.0, REFERENCE_DARK]
        )):
            self.assert_optimum(result, expected)

    def test_scan_maximum_at_a_bracket_end(self, monkeypatch):
        # No channel puts the scan maximum on G_BRACKET's ends (the rate
        # rises as g^2 from g = 0 and the multi-pair errors close it well
        # below g = 0.95), so stand-in rate curves check the search's
        # clamping: rising in g where tau2 = 1, falling where tau2 = 0.5.
        # The maximum is the bracket end itself, and the search returns it
        # with no step. A third lane, tau2 = 0.25, peaks at g = 0.3, which
        # the stencil places to rounding. A spike on a step, tau2 = 1/8,
        # leads the stencil to a gain whose rate is lower than the best
        # scan rate, so the search keeps the best scan gain. On a plateau,
        # tau2 = 1/16, the first of the equal best scan rates sets the
        # bracket. A side lobe, tau2 = 1/32, leads the stencil outside the
        # bracket to a higher rate, and the search keeps the best scan gain.
        # Each lane is its one-lane search. The curves stand in for the
        # scan's array call and for the stencil's and last gain's one-point
        # calls alike.
        gains = record_gains(monkeypatch, stand_in_chain)
        channels = [ChannelParams(1.0, tau2) for tau2 in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)]
        results, _ = keyrate._search(keyrate._lanes(channels), 256, ())
        assert [np.shape(g) for g in gains] == [(4, 256), (2, 256)] + [()] * 24
        assert 2.0 in [float(side_lobe(g)) for g in gains[-6:]]  # the stencil's lobe rates
        for channel, result in zip(channels, results):
            alone = keyrate._search(keyrate._lanes([channel]), 256, ())[0][0]
            assert exact_result(result) == exact_result(alone)
        assert results[0].bracket[1] == results[0].g_opt == G_BRACKET[1]
        assert results[1].bracket[0] == results[1].g_opt == G_BRACKET[0]
        assert [r.iterations for r in results] == [0, 0, 1, 0, 1, 0]
        assert results[2].g_opt == pytest.approx(0.3, rel=1e-15)
        assert (results[3].g_opt, results[3].secure_rate_at_opt) == (SPIKE, 1.0)
        grid = np.linspace(*G_BRACKET, 256).tolist()
        first = next(i for i, g in enumerate(grid) if g >= 0.5)
        assert results[4].bracket == (grid[first - 1], grid[first + 1])
        assert (results[5].g_opt, results[5].secure_rate_at_opt) == (grid[1], 1.0)
        assert results[5].bracket == (grid[0], grid[2])


class TestBestScanGain:
    """How ``_search`` picks each lane's best scan gain, on stand-in scan
    rates in place of ``_secure_rates``: as ``list.index(max(...))`` picked
    it, the first of equal maxima; no key on an all-zero row; and a maximum
    at a bracket end kept without the stencil. The stand-in one-point chain
    rates every stencil gain 0.0, so a lane with a stencil keeps its best
    scan gain too, and the chain's calls count the stencils."""

    @staticmethod
    def search(monkeypatch, rows):
        rows = np.array(rows, dtype=float)
        monkeypatch.setattr(keyrate, "_secure_rates", lambda g, lanes: rows)
        chain = []
        monkeypatch.setattr(keyrate, "_chain", lambda g, lane: chain.append(g) or 0.0)
        lanes = keyrate._lanes([reference_channel(30.0)] * len(rows))
        return keyrate._search(lanes, 256, ())[0], chain

    @staticmethod
    def kept(best, rate):
        grid = np.linspace(*G_BRACKET, 256).tolist()
        bracket = grid[max(best - 1, 0)], grid[min(best + 1, 255)]
        return OptimizationResult(grid[best], SourceParams(grid[best]).mean_photon_number(),
                                  rate, 0, bracket)

    def test_repeated_maximum_keeps_the_first(self, monkeypatch):
        rows = np.zeros((3, 256))
        rows[0, [100, 150]] = 0.5  # apart
        rows[1, [100, 101]] = 0.5  # adjacent
        rows[2, [0, 200]] = 0.5  # the first at the bracket's lower end
        results, chain = self.search(monkeypatch, rows)
        assert [exact_result(r) for r in results] == [
            exact_result(self.kept(100, 0.5)), exact_result(self.kept(100, 0.5)),
            exact_result(self.kept(0, 0.5)),
        ]
        assert len(chain) == 2 * 6  # two stencils and last gains, none at the end

    def test_all_zero_row_has_no_key(self, monkeypatch):
        results, chain = self.search(monkeypatch, np.zeros((2, 256)))
        no_key = OptimizationResult(None, None, 0.0, 0, G_BRACKET)
        assert [exact_result(r) for r in results] == [exact_result(no_key)] * 2
        assert chain == []

    def test_maximum_at_either_bracket_end_without_the_stencil(self, monkeypatch):
        rising, falling = np.linspace(0.0, 1.0, 256), np.linspace(1.0, 0.0, 256)
        results, chain = self.search(monkeypatch, [rising, falling])
        assert [exact_result(r) for r in results] == [
            exact_result(self.kept(255, 1.0)), exact_result(self.kept(0, 1.0)),
        ]
        assert results[0].g_opt == results[0].bracket[1] == G_BRACKET[1]
        assert results[1].g_opt == results[1].bracket[0] == G_BRACKET[0]
        assert chain == []

    def test_random_rows_pick_as_list_index_of_max(self, monkeypatch):
        # rates from a handful of values, so ties, zeros and maxima at the
        # ends are common: every lane keeps list.index(max(row))
        rng = np.random.default_rng(39)
        rows = rng.choice([0.0, 0.0, 1e-300, 5e-324, 0.25, 0.5], (300, 256))
        rows[::3] = np.where(rows[::3] == 0.5, 0.0, rows[::3])
        rows[::7] = 0.0
        results, _ = self.search(monkeypatch, rows)
        for row, result in zip(rows.tolist(), results):
            best = row.index(max(row))
            expected = (self.kept(best, row[best]) if row[best] > 0.0
                        else OptimizationResult(None, None, 0.0, 0, G_BRACKET))
            assert exact_result(result) == exact_result(expected)
        assert 0 < sum(r.found for r in results) < 300


#: The weights of rates f0 to f4 in c1 to c4 of 12 p'(x) = c1 + c2 x +
#: c3 x^2 + c4 x^3, for the quartic p through five rates at evenly spaced
#: gains, x in grid steps from the middle.
QUARTIC = ((1, -8, 0, 8, -1), (-1, 16, -30, 16, -1), (-3, 6, 0, -6, 3), (2, -8, 12, -8, 2))


def reference_peak(five, at, above):
    """``keyrate._peak`` with each coefficient the left-to-right sum of its
    ``QUARTIC`` row's weighted rates."""
    c1, c2, c3, c4 = (left_to_right_sum([w * f for w, f in zip(row, five)]) for row in QUARTIC)
    x = keyrate._uphill(c1, c2)
    x += keyrate._uphill(c1 + x * (c2 + x * (c3 + x * c4)), c2 + x * (2.0 * c3 + x * (3.0 * c4)))
    return at + x * (above - at)


def test_peak_is_the_weighted_sums_left_to_right():
    # 10,000 random five-rate windows at scan and stencil spacings: smooth
    # peaks, noise, zeros, subnormal rates and flat windows
    rng = np.random.default_rng(39)
    count = 10_000
    x = np.arange(-2.0, 3.0)
    smooth = 1e-4 * (1.0 - 0.01 * (x - rng.uniform(-3.0, 3.0, (count, 1))) ** 2)
    windows = np.where(rng.random((count, 1)) < 0.5, smooth,
                       rng.uniform(0.0, 1.0, (count, 5)) * 10.0 ** -rng.uniform(0.0, 320.0, (count, 5)))
    windows[rng.random((count, 5)) < 0.1] = 0.0
    windows[rng.random((count, 5)) < 0.05] = 5e-324
    windows[::50] = windows[::50, :1]  # flat
    windows[::97] = 0.0
    at = rng.uniform(*G_BRACKET, count)
    above = np.where(rng.random(count) < 0.5, at * 1.001, at + (G_BRACKET[1] - G_BRACKET[0]) / 255)
    assert (windows == 0.0).any() and ((windows > 0.0) & (windows < np.finfo(float).tiny)).any()
    for five, a, b in zip(windows.tolist(), at.tolist(), above.tolist()):
        assert keyrate._peak(five, a, b).hex() == reference_peak(five, a, b).hex()


def digest_channels():
    """26 seeded channels: tau1 at 0 to 3 dB, tau2 at 0 to 80 dB and four
    dark counts, of which the first four sit at 80 dB and every seventh,
    two of those among them, has d = 0."""
    rng = np.random.default_rng(36)
    loss1_db, loss2_db = rng.uniform(0.0, 3.0, 26), rng.uniform(0.0, 80.0, 26)
    dark = rng.choice([0.0, 6.25e-7, 1e-5, 1e-3], 26)
    loss2_db[:4] = 80.0
    dark[::7], dark[1] = 0.0, 0.0
    return [ChannelParams.from_db_losses(*point)
            for point in zip(loss1_db.tolist(), loss2_db.tolist(), dark.tolist())]


def search_digest_values():
    """Every field of the search's results on ``digest_channels``, floats as
    ``float.hex``: ``optimize_gain`` on each channel, one 26-lane search
    with two fixed gains, 13 two-loss sweeps and two 26-loss sweeps (at
    d = 0 and d = 1e-5), every fixed rate and every point field among them.
    Also returns how many of the 26 one-lane searches found a key."""
    channels = digest_channels()
    results = [optimize_gain(channel) for channel in channels]
    many, fixed_rates = keyrate._search(keyrate._lanes(channels), 256, (0.2, 0.3162))
    results += many
    values = [v for r in results
              for v in (r.g_opt, r.mu_opt, r.secure_rate_at_opt, r.iterations, *r.bracket)]
    values += fixed_rates.ravel().tolist()
    rng = np.random.default_rng(136)
    sweeps = [
        passive_performance(SourceParams.from_mean_photon_number(rng.uniform(0.01, 0.2)),
                            channels[i], sorted(rng.uniform(0.0, 80.0, 2).tolist()))
        for i in range(0, 26, 2)
    ]
    sweeps += [passive_performance(SourceParams.from_mean_photon_number(0.1),
                                   ChannelParams.from_db_losses(1.6, 0.0, dark),
                                   np.linspace(0.0, 80.0, 26).tolist()) for dark in (0.0, 1e-5)]
    for sweep in sweeps:
        values += [v for p in sweep.points for v in (
            p.loss2_db, p.secure_rate_fixed, p.secure_rate_optimal, p.mu_opt, p.ratio)]
        values.append(sweep.min_ratio)
    text = " ".join(v.hex() if isinstance(v, float) else repr(v) for v in values)
    return text, sum(r.found for r in results[:26])


#: sha256 of ``search_digest_values``' text.
SEARCH_DIGEST = "228f1bb6e1c0650853d5bc42f985180ff7a302dfde90acc0f84a4c0f99c9ef0c"


def test_search_keeps_its_bits():
    text, found = search_digest_values()
    assert 0 < found < 26  # lanes with a key and lanes without one
    assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_DIGEST


class TestArrayCalls:
    """What the search hands the chain: one array call for the scan, its
    memory, and one-point calls for each lane's stencil and last gain."""

    def test_search_grids(self, monkeypatch):
        # the 256-gain scan of G_BRACKET, the stencil g0 * _STENCIL around
        # the scan's guess g0 from the five scan rates around its best, and
        # the stencil's guess, which is g_opt
        gains = record_gains(monkeypatch)
        channel = reference_channel(30.0)
        result = optimize_gain(channel)
        scan, stencil, last = gains[0], gains[1:6], gains[6:]
        assert scan.tobytes() == np.linspace(*G_BRACKET, 256)[None].tobytes()
        assert np.array(keyrate._STENCIL).tobytes() == (1.0 + 1e-3 * np.arange(-2.0, 3.0)).tobytes()
        grid = scan[0].tolist()
        rates = keyrate._secure_rates(scan, keyrate._lanes([channel]))[0].tolist()
        best = int(np.argmax(rates))
        assert 2 <= best <= 253
        g0 = keyrate._peak(rates[best - 2:best + 3], grid[best], grid[best + 1])
        assert stencil == [g0 * k for k in keyrate._STENCIL]
        lane = [channel.tau1, channel.tau2, channel.dark_count]
        g1 = keyrate._peak([keyrate._chain(x, lane) for x in stencil], stencil[2], stencil[3])
        assert last == [g1] == [result.g_opt]

    def test_scan_grid_is_built_once_read_only_with_its_floats(self):
        # one cache holds the scan's gains per grid size: the array the
        # scan reads, read-only, and the same gains as Python floats
        keyrate._scan_grid.cache_clear()
        grid, gains = first = keyrate._scan_grid(256)
        assert keyrate._scan_grid(256) is first
        assert keyrate._scan_grid.cache_info().misses == 1
        assert not grid.flags.writeable
        assert type(gains) is tuple
        assert [g.hex() for g in gains] == [g.hex() for g in grid.tolist()]
        assert all(type(g) is float for g in gains)

    def test_optimize_gain_call_shapes(self, monkeypatch):
        # one channel: one array call, the 256-gain scan; then the five-gain
        # stencil and the gain it places, one gain per one-point call
        grids = record_grids(monkeypatch)
        gains = record_gains(monkeypatch)
        optimize_gain(reference_channel(30.0))
        assert [grid.shape for grid in grids] == [(1, 256)]
        assert [np.shape(g) for g in gains] == [(1, 256)] + [()] * 6

    def test_default_sweep_call_shapes(self, monkeypatch):
        # the CLI's default 26-loss sweep: _secure_rates splits the scan,
        # with its fixed-gain column, into chain calls of 4 rows, each at
        # most _ROWS_PER_CALL gains; then each of the 26 lanes, all with a
        # key, takes six one-point calls
        gains = record_gains(monkeypatch)
        run_subcommand("sweep", parse_config(""))
        calls = [np.shape(g) for g in gains]
        assert calls == [(4, 257)] * 6 + [(2, 257)] + [()] * (26 * 6)
        assert max(math.prod(shape) for shape in calls) <= keyrate._ROWS_PER_CALL

    def test_seeded_two_loss_sweeps_make_one_array_call(self, monkeypatch):
        # sweeps drawn as the passive-sweep benchmark draws them: one array
        # call, the scan with the fixed gain, then the stencil and the last
        # gain of each lane with a key on floats: 396 of these 400 lanes,
        # the other 4 have none
        rng = np.random.default_rng(25)
        gains = record_gains(monkeypatch)
        stepped = 0
        for _ in range(200):
            mu = math.exp(rng.uniform(math.log(0.01), math.log(0.2)))
            base = ChannelParams.from_db_losses(
                rng.uniform(0.0, 3.0), 0.0, math.exp(rng.uniform(math.log(1e-7), math.log(1e-5)))
            )
            gains.clear()
            passive_performance(SourceParams.from_mean_photon_number(mu), base,
                                sorted(rng.uniform(20.0, 45.0, 2).tolist()))
            assert np.shape(gains[0]) == (2, 257)
            assert [type(g) for g in gains[1:]] == [float] * (len(gains) - 1)
            assert (len(gains) - 1) % 6 == 0
            stepped += (len(gains) - 1) // 6
        assert stepped == 396

    def test_4x256_call_peaks_under_1_mb(self):
        # the figure in _ROWS_PER_CALL's comment: about 0.185 MB of numpy
        # temporaries for 4 rows of 256 gains
        lanes = keyrate._lanes([reference_channel(loss) for loss in (20.0, 30.0, 40.0, 45.0)])
        grid = np.linspace(np.full(4, G_BRACKET[0]), np.full(4, G_BRACKET[1]), 256, axis=1)
        keyrate._secure_rates(grid, lanes)  # warm-up
        tracemalloc.start()
        try:
            keyrate._secure_rates(grid, lanes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


class TestFloatPath:
    """The chain's one-point path on Python floats, which each lane's
    stencil and last gain take: the array chain's floats, types and
    errors."""

    def test_one_point_chain_equals_the_array_chain_bit_for_bit(self):
        # random lanes with d = 0 and 80 dB ones among them, and gains at
        # G_BRACKET's ends: the one-point chain at every gain gives the bits
        # of _secure_rates' element, and so do array calls of any size
        rng = np.random.default_rng(34)
        count = 300
        loss2_db = rng.uniform(0.0, 80.0, count)
        loss2_db[:40] = 80.0
        lanes = np.column_stack((
            10.0 ** -rng.uniform(0.0, 0.5, count), 10.0 ** (-loss2_db / 10.0),
            rng.choice([0.0, 6.25e-7, 1e-5, 1e-3], count),
        ))
        lanes[::7, 2] = 0.0
        g = rng.uniform(*G_BRACKET, (count, 6))
        g[:, 0], g[:, -1] = G_BRACKET
        rates = keyrate._secure_rates(g, lanes)
        one_point = [[keyrate._chain(x, lane) for x in row]
                     for row, lane in zip(g.tolist(), lanes.tolist())]
        assert [type(v) for row in one_point for v in row] == [float] * g.size
        assert np.array(one_point).tobytes() == rates.tobytes()
        for rows, gains in ((1, 1), (1, 5), (2, 1), (2, 5), (2, 6), (13, 1), (3, 5), (26, 5)):
            part = keyrate._secure_rates(g[:rows, :gains], lanes[:rows])
            assert part.tobytes() == rates[:rows, :gains].tobytes()
        # the grid reaches clamped rates, positive ones and error rates in
        # the band where secure_rate skips the entropy
        eps = keyrate._qber_and_sift(g, *lanes.T[:, :, None], PostprocessingModel.SQUASH)[0]
        lo, hi = keyrate._CLAMPED
        assert ((lo < eps) & (eps < hi)).sum() > 100
        assert (rates == 0.0).sum() > 100 and (rates > 0.0).sum() > 100

    def test_search_calls_on_floats(self, monkeypatch):
        # the stencil and the last gain go on floats; a search with no key
        # makes only its scan
        gains = record_gains(monkeypatch)
        optimize_gain(reference_channel(30.0))
        assert [type(g) for g in gains] == [np.ndarray] + [float] * 6
        gains.clear()
        assert not optimize_gain(ChannelParams(tau1=0.5, tau2=1e-6, dark_count=0.2)).found
        assert [type(g) for g in gains] == [np.ndarray]

    def test_one_point_calls_return_python_floats(self):
        assert type(secure_rate(0.02, 1e-4)) is float
        assert type(secure_rate(0.5, 1e-4)) is float  # clamped
        table = keyrate.pair_probabilities(0.3, 0.7, 1e-3, 6.25e-7)
        assert [type(v) for v in table] == [float] * 4
        assert [type(v) for v in keyrate.pair_probabilities(*map(np.array, (0.3, 0.7, 1e-3, 0.0)))
                ] == [float] * 4

    @pytest.mark.parametrize("eps, r_sift", [
        (math.nan, 0.3), (-0.1, 0.3), (1.1, 0.3), (0.05, -1e-9), (math.nan, -1e-9),
        (1.5, -1.0), (-0.0, -0.0), (0.05, math.nan), (0.5, 0.3), (1.0, 0.3),
    ])
    def test_secure_rate_raises_as_its_0d_array_call(self, eps, r_sift):
        assert outcome(secure_rate, eps, r_sift) == outcome(
            secure_rate, np.array(eps), np.array(r_sift)
        ) == outcome(plain_secure_rate, eps, r_sift)

    @pytest.mark.parametrize("point", [
        (math.nan, 0.7, 0.3, 0.0), (1.5, 0.7, 0.3, 0.0), (0.3, 0.7, 0.3, -0.5),
        (0.3, 0.7, 0.3, 2.0), (0.3, math.nan, 0.3, 0.0), (0.3, 0.7, 0.3, 1e-5),
    ])
    def test_pair_probabilities_raises_as_its_0d_array_call(self, point):
        assert outcome(keyrate.pair_probabilities, *point) == outcome(
            keyrate.pair_probabilities, *map(np.array, point)
        )


def deep_loss_limit(g, tau1):
    """lim (R_sift / tau2, QBER) as tau2 -> 0 without dark counts, squash
    model. Arithmetic only, so a complex ``g`` gives complex-step slopes.

    At d = 0 the pair's p(0, 1) and p(1, 1) carry a factor tau2 and
    p(0, 0), p(1, 0) tend to Bob-blind values. With c = 1 - g^2, x = g^2
    and D_a = c + x tau1, per tau2 to first order:

        p00 = c / D_a             p01 = c x (1 - tau1) / D_a^2
        p10 = x tau1 / D_a        p11 = x tau1 (x D_a + c) / (c D_a^2)

    A coincidence needs one Bob click (two are of order tau2^2). Same-sign
    pairs are p10 p01 twice and half of each Alice double click, p10 p11;
    the coincidences are 2 (p10 p01 + p00 p11 + p10 p11).
    """
    x = g * g
    c = (1.0 - g) * (1.0 + g)
    d_a = c + x * tau1
    p00, p10 = c / d_a, x * tau1 / d_a
    p01 = c * x * (1.0 - tau1) / d_a**2
    p11 = x * tau1 * (x * d_a + c) / (c * d_a**2)
    r_sift = p10 * p01 + p00 * p11 + p10 * p11
    return r_sift, (2.0 * p10 * p01 + p10 * p11) / (2.0 * r_sift)


def deep_loss_rate(g: float, tau1: float) -> float:
    """lim R_sec / tau2 as tau2 -> 0 without dark counts."""
    r_sift, eps = deep_loss_limit(g, tau1)
    return r_sift * (1.0 - 2.0 * plain_binary_entropy(eps))


def deep_loss_optimum(tau1: float) -> float:
    """The gain maximizing ``deep_loss_rate``: bisection on the sign of its
    slope, dR = dR_sift (1 - 2 H) - 2 R_sift log2((1 - eps) / eps) deps,
    with dR_sift and deps by complex step. A search on rate values would
    place the flat maximum only to about 1e-8."""
    step = 1e-30

    def slope(g: float) -> float:
        r_sift, eps = deep_loss_limit(complex(g, step), tau1)
        h = plain_binary_entropy(eps.real)
        return (r_sift.imag / step * (1.0 - 2.0 * h)
                - 2.0 * r_sift.real * math.log2((1.0 - eps.real) / eps.real) * eps.imag / step)

    lo, hi = 0.1, 0.5
    assert slope(lo) > 0.0 > slope(hi)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDeepLoss:
    """Without dark counts the key rate scales as tau2 at deep loss, and its
    optimum tends to the limit of ``deep_loss_rate``: the source of the
    paper's "99.7% of the optimum" at mu = 0.1."""

    @staticmethod
    def limit():
        g_star = deep_loss_optimum(REFERENCE_TAU1)
        mu_star = SourceParams(g_star).mean_photon_number()
        g_fixed = SourceParams.from_mean_photon_number(0.1).g
        ratio = deep_loss_rate(g_fixed, REFERENCE_TAU1) / deep_loss_rate(g_star, REFERENCE_TAU1)
        return mu_star, ratio

    def test_limit_values(self):
        mu_star, ratio = self.limit()
        # a 40-digit evaluation of the same limit: 0.1060771982049806, 0.9975407040916201
        assert mu_star == pytest.approx(0.10607719820498, abs=1e-13)
        assert ratio == pytest.approx(0.99754070409162, abs=1e-13)

    def test_optimum_at_60_db_is_the_limit(self):
        mu_star, _ = self.limit()
        result = optimize_gain(ChannelParams(REFERENCE_TAU1, transmittance_from_db(60.0)))
        assert result.mu_opt == pytest.approx(mu_star, rel=1e-4)

    def test_fixed_brightness_ratio_at_120_db_is_the_limit_ratio(self):
        _, ratio = self.limit()
        sweep = passive_performance(
            SourceParams.from_mean_photon_number(0.1), ChannelParams(REFERENCE_TAU1, 1.0), [120.0]
        )
        assert sweep.points[0].ratio == pytest.approx(ratio, abs=1e-6)

    def test_grid_without_dark_counts_raises_nowhere(self):
        # Summed from 81 signed inclusion-exclusion terms, a same-sign
        # coincidence rounds below 0 on 21 of these 81 channels and
        # secure_rate rejects the QBER; the pair's forms subtract nothing,
        # so every scan gain's QBER lies in [0, 1] and no search raises.
        grid = np.linspace(*G_BRACKET, 256)
        for loss1_db in (0.0, 1.6, 3.0):
            for loss2_db in np.arange(55.0, 120.1, 2.5).tolist():
                channel = ChannelParams.from_db_losses(loss1_db, loss2_db, 0.0)
                assert optimize_gain(channel).found
                for model in PostprocessingModel:
                    eps, _ = keyrate._qber_and_sift(
                        grid, channel.tau1, channel.tau2, 0.0, model
                    )
                    assert np.all((eps >= 0.0) & (eps <= 1.0)), (loss1_db, loss2_db)
