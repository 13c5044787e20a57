import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

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
    G_TOL,
    binary_entropy,
    passive_performance,
    secure_rate,
)
from hbepp_link.params import transmittance_from_db
from hbepp_link.postprocess import ALICE_CHSH_ANGLES, BOB_CHSH_ANGLES, _FOLDS, coincidences

import reference_search
from exact import outcome_probabilities_exact

#: Reference downlink: 1.6 dB on Alice's arm, dark counts per detector per mode.
REFERENCE_TAU1 = transmittance_from_db(1.6)
REFERENCE_DARK = 6.25e-7


def reference_channel(loss2_db: float) -> ChannelParams:
    return ChannelParams(
        tau1=REFERENCE_TAU1,
        tau2=transmittance_from_db(loss2_db),
        dark_count=REFERENCE_DARK,
    )


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_symmetry(self):
        for eps in (0.05, 0.2, 0.4):
            assert binary_entropy(eps) == pytest.approx(
                binary_entropy(1.0 - eps), abs=1e-14
            )

    def test_half_entropy_error_rate(self):
        # bisection for the eps with H2(eps) = 1/2, then check the rounded value
        lo, hi = 1e-9, 0.5
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if binary_entropy(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(0.11002786443836, abs=1e-11)
        assert binary_entropy(0.11003) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("eps", [-0.01, 1.01, math.nan])
    def test_domain(self, eps):
        with pytest.raises(ValueError):
            binary_entropy(eps)


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

    def test_result_is_the_best_gain_evaluated(self, monkeypatch):
        # A later step's 32 gains can straddle the maximum and all fall
        # below an earlier step's best: at 25 dB the last step's best is
        # 3e-14 relative lower. The search keeps the earlier one.
        evaluated = []
        secure_rates = keyrate._secure_rates

        def recording(g, lanes):
            rates = secure_rates(g, lanes)
            evaluated.extend(zip(g.ravel().tolist(), rates.ravel().tolist()))
            return rates

        monkeypatch.setattr(keyrate, "_secure_rates", recording)
        for loss2_db in (20.0, 25.0, 45.0, 52.5):
            evaluated.clear()
            result = optimize_gain(reference_channel(loss2_db))
            assert result.secure_rate_at_opt == max(rate for _, rate in evaluated)
            assert (result.g_opt, result.secure_rate_at_opt) in evaluated

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            optimize_gain(reference_channel(20.0), grid_points=100)


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
        # the scan with the fixed gain as a 257th column, then the four
        # narrowing steps; each fixed rate is the one-point chain's float
        grids = record_grids(monkeypatch)
        source, losses = SourceParams.from_mean_photon_number(0.1), [25.0, 40.0]
        sweep = passive_performance(source, reference_channel(20.0), losses)
        assert [grid.shape for grid in grids] == [(2, 257)] + [(2, 32)] * 4
        assert [p.secure_rate_fixed.hex() for p in sweep.points] == [
            secure_rate(*qber_and_sift(source, reference_channel(loss))).hex()
            for loss in losses
        ]


def record_grids(monkeypatch):
    """The list of the gain grids of every ``keyrate._secure_rates`` call
    from here on."""
    grids = []
    secure_rates = keyrate._secure_rates

    def recording(g, lanes):
        grids.append(g)
        return secure_rates(g, lanes)

    monkeypatch.setattr(keyrate, "_secure_rates", recording)
    return grids


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


LOSS2_DB = (0.0, 10.0, 20.0, 30.0, 45.0, 60.0)

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
    ``CHSH_ABS`` of the exact tables, and the secure rate equal to the
    scalar rate in ``tests/reference_search.py``, bit for bit, with equal
    exceptions."""

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
                reference_search.secure_rate, eps, r_sift
            )
        assert worst <= QBER_SIFT_REL
        assert worst_chsh <= CHSH_ABS

    def test_one_point_calls_stay_python_floats(self):
        source, channel = SourceParams(0.3), reference_channel(20.0)
        for model in PostprocessingModel:
            assert [type(v) for v in qber_and_sift(source, channel, model)] == [float, float]
        assert type(secure_rate(*qber_and_sift(source, channel))) is float
        assert type(binary_entropy(0.3)) is float


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
                reference_search.secure_rate(*qber_and_sift(SourceParams(g), channel))
                for g in grid
            ]
            assert [r.hex() for r in row] == [r.hex() for r in scalar]
            for g in grid[::17].tolist():
                args = (SourceParams(g), channel, PostprocessingModel.SQUASH)
                worst = max(
                    worst, relative_error(qber_and_sift(*args), exact_qber_and_sift(*args))
                )
        assert worst <= QBER_SIFT_REL

    def test_elements_equal_one_point_calls_bit_for_bit(self):
        # the entropy's ends, its H2 = 1/2 root, a subnormal and 1 - 1e-16,
        # against sifted rates of 0, NaN and ordinary values; a clamped
        # element is +0.0 as the one-point max(0.0, v) gives. The one-point
        # floats are the plain-float rules of tests/reference_search.py,
        # and the package's one-point calls give the same floats.
        eps_values = [0.0, 1.0, 0.11002786443836, 5e-324, 1.0 - 1e-16, 0.5, 0.3, 0.05]
        rate_values = [0.0, math.nan, 0.37, 1e-9]
        eps, r_sift = np.array(list(itertools.product(eps_values, rate_values))).T
        rates = secure_rate(eps.reshape(8, 4), r_sift.reshape(8, 4))
        assert rates.shape == (8, 4)
        one_point = [
            reference_search.secure_rate(e, r) for e, r in zip(eps.tolist(), r_sift.tolist())
        ]
        assert [r.hex() for r in rates.ravel().tolist()] == [r.hex() for r in one_point]
        assert [secure_rate(e, r).hex() for e, r in zip(eps.tolist(), r_sift.tolist())] == [
            r.hex() for r in one_point
        ]
        # the entropy alone, also on 2,000 uniform error rates: np.log2 in
        # place of math.log2 changes 4 of them (numpy 2.4 on x86-64)
        entropy_eps = eps_values + np.random.default_rng(43).uniform(size=2000).tolist()
        entropies = binary_entropy(np.reshape(entropy_eps, (-1, 8)))
        assert [h.hex() for h in entropies.ravel().tolist()] == [
            reference_search.binary_entropy(e).hex() for e in entropy_eps
        ] == [binary_entropy(e).hex() for e in entropy_eps]
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
        assert reference_search.binary_entropy(lo) > 0.5 + 2e-4
        assert reference_search.binary_entropy(hi) > 0.5 + 2e-4
        below, above = 0.1, 0.12  # bisection to the last bit for H2 = 1/2
        while (mid := 0.5 * (below + above)) not in (below, above):
            if reference_search.binary_entropy(mid) < 0.5:
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
            reference_search.secure_rate(e, r).hex() for e in eps for r in r_sift
        ]
        assert [secure_rate(e, r).hex() for e in edges for r in r_sift] == [
            reference_search.secure_rate(e, r).hex() for e in edges for r in r_sift
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


class TestLockstepSearchMatchesReference:
    """The array search against the gain-by-gain reference search in
    ``tests/reference_search.py``: the same scan bracket, found set and
    exceptions bit for bit, and a secure rate no lower than the reference's
    golden-section optimum up to 1e-10 relative. Each lane of a lockstep
    search is the one-channel ``optimize_gain`` bit for bit."""

    @staticmethod
    def assert_search_contract(result, reference):
        assert exact((result.found, result.bracket)) == exact(
            (reference.found, reference.bracket)
        )
        if not reference.found:
            assert exact_result(result) == exact_result(reference)
            return
        assert result.secure_rate_at_opt >= reference.secure_rate_at_opt * (1.0 - 1e-10)
        assert result.bracket[0] <= result.g_opt <= result.bracket[1]

    @pytest.mark.parametrize("dark", [0.0, 6.25e-7, 1e-5])
    @pytest.mark.parametrize("loss1_db", [0.0, 1.6, 3.0])
    def test_optimize_gain_and_sweep(self, loss1_db, dark):
        optima = []
        for loss2_db in LOSS2_DB:
            channel = ChannelParams.from_db_losses(loss1_db, loss2_db, dark)
            optima.append(optimize_gain(channel))
            self.assert_search_contract(optima[-1], reference_search.optimize_gain(channel))
        base = ChannelParams.from_db_losses(loss1_db, 0.0, dark)
        source = SourceParams.from_mean_photon_number(0.1)
        sweep = passive_performance(source, base, LOSS2_DB)
        reference = reference_search.passive_performance(source, base, LOSS2_DB)
        assert [exact(p.secure_rate_fixed) for p in sweep.points] == [
            exact(p.secure_rate_fixed) for p in reference.points
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
            self.assert_search_contract(result, reference_search.optimize_gain(channel))

    def test_scan_maximum_at_a_bracket_end(self, monkeypatch):
        # No channel puts the scan maximum on G_BRACKET's ends (the rate
        # rises as g^2 from g = 0 and the multi-pair errors close it well
        # below g = 0.95), so a stand-in rate curve checks the search's
        # clamping: rising in g where tau2 = 1, falling elsewhere. The
        # maximum is the bracket end itself, and the search returns it.
        def rates(g, lanes):
            return np.where(lanes[:, 1:2] == 1.0, g, 1.0 - g)  # column 1 is tau2

        monkeypatch.setattr(keyrate, "_secure_rates", rates)
        monkeypatch.setattr(
            reference_search, "qber_and_sift",
            lambda source, channel: (
                0.0, float(rates(np.array([[source.g]]), keyrate._lanes([channel]))[0, 0])
            ),
        )
        channels = [ChannelParams(1.0, 1.0), ChannelParams(1.0, 0.5)]
        results, _ = keyrate._search(keyrate._lanes(channels), 256, ())
        for channel, result in zip(channels, results):
            reference = reference_search.optimize_gain.__wrapped__(channel)
            self.assert_search_contract(result, reference)
        assert results[0].bracket[1] == results[0].g_opt == G_BRACKET[1]
        assert results[1].bracket[0] == results[1].g_opt == G_BRACKET[0]

    def test_rate_above_golden_section_at_52_5_db(self):
        # Golden-section lands 1.6e-7 away in g here; the narrowing steps
        # end on a gain whose rate is higher, by 4.7e-12 relative.
        channel = ChannelParams.from_db_losses(1.6, 52.5, 6.25e-7)
        result = optimize_gain(channel)
        assert result.secure_rate_at_opt > reference_search.optimize_gain(channel).secure_rate_at_opt


class TestArrayCalls:
    """What one search step hands the chain: its grid and its memory."""

    def test_narrow_grid_is_linspace_bit_for_bit(self, monkeypatch):
        # the 256-gain scan of G_BRACKET, and 20,000 random brackets from
        # 1e-1 down to G_TOL wide at both ends of G_BRACKET and inside it
        rng = np.random.default_rng(19)
        width = 10.0 ** rng.uniform(math.log10(G_TOL), -1.0, 20_000)
        width[:2] = G_TOL, 0.1
        lo = np.concatenate([
            G_BRACKET[0] + rng.uniform(0.0, 1.0, 6_000) * width[:6_000],
            G_BRACKET[1] - width[6_000:12_000] * (1.0 + rng.uniform(0.0, 1.0, 6_000)),
            rng.uniform(*G_BRACKET, 8_000),
        ])
        hi = lo + width
        cases = [(np.full(26, G_BRACKET[0]), np.full(26, G_BRACKET[1]), 256), (lo, hi, 32)]
        for lo, hi, points in cases:
            grid = keyrate._gains(lo, hi, points)
            assert grid.shape == (len(lo), points)
            assert grid.tobytes() == np.linspace(lo, hi, points, axis=1).tobytes()
        # the search hands the chain these grids: the scan, then each step
        # across its bracket, whose ends are the grid's first and last gains
        grids = record_grids(monkeypatch)
        optimize_gain(reference_channel(30.0))
        scan, *steps = grids
        assert scan.tobytes() == np.linspace(*G_BRACKET, 256)[None].tobytes()
        assert len(steps) == 4
        for grid in steps:
            assert grid.tobytes() == np.linspace(grid[:, 0], grid[:, -1], 32, axis=1).tobytes()

    def test_optimize_gain_call_shapes(self, monkeypatch):
        # one channel: the 256-gain scan and four 32-gain narrowing steps
        grids = record_grids(monkeypatch)
        optimize_gain(reference_channel(30.0))
        assert [grid.shape for grid in grids] == [(1, 256)] + [(1, 32)] * 4

    def test_default_sweep_call_shapes(self, monkeypatch):
        # the CLI's default 26-loss sweep: _secure_rates splits the scan,
        # with its fixed-gain column, into chain calls of 4 rows
        # (_ROWS_PER_CALL), then each narrowing step is one chain call
        calls = []
        qber_and_sift = keyrate._qber_and_sift

        def recording(g, *args):
            calls.append(g.shape)
            return qber_and_sift(g, *args)

        monkeypatch.setattr(keyrate, "_qber_and_sift", recording)
        run_subcommand("sweep", parse_config(""))
        assert calls == [(4, 257)] * 6 + [(2, 257)] + [(26, 32)] * 4

    def test_4x256_call_peaks_under_1_mb(self):
        # the figure in _ROWS_PER_CALL's comment: about 0.50 MB of numpy
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


def deep_loss_limit(g, tau1):
    """lim (R_sift / tau2, QBER) as tau2 -> 0 without dark counts, squash
    model. Arithmetic only, so a complex ``g`` gives complex-step slopes.

    At d = 0 the pair table's p(0, 1) and p(1, 1) carry a factor tau2 and
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
    return r_sift * (1.0 - 2.0 * binary_entropy(eps))


def deep_loss_optimum(tau1: float) -> float:
    """The gain maximizing ``deep_loss_rate``: bisection on the sign of its
    slope, dR = dR_sift (1 - 2 H) - 2 R_sift log2((1 - eps) / eps) deps,
    with dR_sift and deps by complex step. A search on rate values would
    place the flat maximum only to about 1e-8."""
    step = 1e-30

    def slope(g: float) -> float:
        r_sift, eps = deep_loss_limit(complex(g, step), tau1)
        h = binary_entropy(eps.real)
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
        # binary_entropy rejects the QBER; the pair table subtracts nothing,
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
