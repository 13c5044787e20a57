import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hbepp_link import (
    ChannelParams,
    MeasurementAngles,
    ProbabilityTable,
    SourceParams,
    oracle_probabilities,
    outcome_probabilities,
    truncation_error_bound,
)
from hbepp_link.analytic import (
    needs_scalar_check,
    outcome_probability_array,
    vacuum_set_probability,
)
from hbepp_link.patterns import (
    CANONICAL_PATTERNS,
    ClickPattern,
    ProbabilityConsistencyError,
)

from exact import vacuum_set_probability_exact
from subtractive import outcome_probabilities_subtractive

ALL_SILENT = (True, True, True, True)
NONE_SILENT = (False, False, False, False)


def pat(bits: str) -> ClickPattern:
    return ClickPattern(*(c == "1" for c in bits))


def random_params(rng, g_max=0.9, dark_choices=(0.0,)):
    g = rng.uniform(0.0, g_max)
    tau1 = rng.uniform(0.01, 1.0 - 1e-9)
    tau2 = rng.uniform(0.01, 1.0 - 1e-9)
    theta = rng.uniform(0.0, math.pi)
    dark = rng.choice(dark_choices)
    return (
        SourceParams(g),
        ChannelParams(tau1=tau1, tau2=tau2, dark_count=float(dark)),
        MeasurementAngles(theta, 0.0),
    )


SUBSETS = [tuple(bool(mask >> i & 1) for i in range(4)) for mask in range(16)]


class TestVacuumSetProbability:
    def test_full_set_closed_form(self):
        source = SourceParams(0.6)
        channel = ChannelParams(tau1=0.7, tau2=0.3)
        angles = MeasurementAngles(0.0, 0.0)
        value = vacuum_set_probability(ALL_SILENT, source, channel, angles)
        # frozen from (1-g^2)^2 / (1-G)^2
        assert value == pytest.approx(0.4793360297233277, abs=1e-14)

    def test_empty_set_is_one(self):
        source = SourceParams(0.44)
        channel = ChannelParams(tau1=0.9, tau2=0.2, dark_count=1e-2)
        angles = MeasurementAngles(0.3, 0.0)
        assert vacuum_set_probability(
            NONE_SILENT, source, channel, angles
        ) == pytest.approx(1.0, abs=1e-13)

    def test_vacuum_source_with_dark_counts(self):
        # four independent dark-count misses
        source = SourceParams(0.0)
        channel = ChannelParams(tau1=0.5, tau2=0.5, dark_count=0.5)
        angles = MeasurementAngles(0.0, 0.0)
        assert vacuum_set_probability(
            ALL_SILENT, source, channel, angles
        ) == pytest.approx(0.0625, abs=1e-15)

    def test_vacuum_source_collapses_to_dark_miss(self):
        # g = 0: no photons, so V(S) is the dark-count miss (1-d)^|S| exactly
        for dark in (0.0, 1e-3, 0.5):
            channel = ChannelParams(tau1=0.7, tau2=0.3, dark_count=dark)
            for theta in (0.0, 0.4, 1.2):
                angles = MeasurementAngles(theta, 0.0)
                for silent in SUBSETS:
                    value = vacuum_set_probability(
                        silent, SourceParams(0.0), channel, angles
                    )
                    assert value == (1.0 - dark) ** sum(silent)

    def test_all_silent_closed_form(self):
        # all modes silent: V = (1-g^2)^2 (1-d)^4 / (1-G)^2 with
        # G = g^2 (1-tau1)(1-tau2) for every theta; frozen at g=0.6,
        # tau=(0.7, 0.3), d=0
        source = SourceParams(0.6)
        channel = ChannelParams(tau1=0.7, tau2=0.3, dark_count=1e-3)
        big_g = 0.36 * 0.3 * 0.7
        closed = 0.64**2 * (1.0 - 1e-3) ** 4 / (1.0 - big_g) ** 2
        for theta in np.linspace(0.0, math.pi, 9):
            value = vacuum_set_probability(
                ALL_SILENT, source, channel, MeasurementAngles(theta, 0.0)
            )
            assert value == pytest.approx(closed, rel=1e-15)
        dark_free = ChannelParams(tau1=0.7, tau2=0.3)
        value = vacuum_set_probability(
            ALL_SILENT, source, dark_free, MeasurementAngles(0.9, 0.0)
        )
        assert value == pytest.approx(0.4793360297233277, rel=1e-15)

    def test_all_marginalized_is_theta_free(self):
        # nothing required silent: V is the total probability, 1 for every
        # theta, gain, loss and dark-count rate
        for g in (0.0, 0.55, 0.9, 0.999):
            source = SourceParams(g)
            channel = ChannelParams(tau1=0.8, tau2=0.25, dark_count=1e-2)
            for theta in np.linspace(0.0, math.pi, 9):
                angles = MeasurementAngles(theta, 0.0)
                value = vacuum_set_probability(NONE_SILENT, source, channel, angles)
                assert value == pytest.approx(1.0, abs=1e-15)

    def test_lossless_boundary_matches_clamped_channel(self):
        # tau = 1 needs no special case: every subset term there agrees with
        # tau just inside the boundary
        rng = np.random.default_rng(7)
        clamped_tau = 1.0 - 1e-12
        for _ in range(20):
            source = SourceParams(rng.uniform(0.0, 0.9))
            angles = MeasurementAngles(rng.uniform(0.0, math.pi), 0.0)
            tau = rng.uniform(0.01, 1.0 - 1e-9)
            dark = float(rng.choice([0.0, 1e-3]))
            for taus, clamped in (
                ((1.0, tau), (clamped_tau, tau)),
                ((tau, 1.0), (tau, clamped_tau)),
                ((1.0, 1.0), (clamped_tau, clamped_tau)),
            ):
                exact = ChannelParams(*taus, dark_count=dark)
                inside = ChannelParams(*clamped, dark_count=dark)
                for silent in SUBSETS:
                    assert vacuum_set_probability(
                        silent, source, exact, angles
                    ) == pytest.approx(
                        vacuum_set_probability(silent, source, inside, angles),
                        rel=1e-9,
                    )

    def test_wrong_flag_count_rejected(self):
        source, channel = SourceParams(0.3), ChannelParams(tau1=0.7, tau2=0.3)
        angles = MeasurementAngles(0.0, 0.0)
        for silent in ((True,) * 3, (True,) * 5):
            with pytest.raises(ValueError, match="expected 4 mode flags"):
                vacuum_set_probability(silent, source, channel, angles)

    @pytest.mark.parametrize("g", [0.0, 0.1, 0.5, 0.9])
    def test_matches_exact_arithmetic(self, g):
        # every subset term to 2e-15 relative of the same formula evaluated
        # in exact rational arithmetic, lossless and deep-loss arms included
        worst = 0.0
        for tau1, tau2, theta, dark in itertools.product(
            (1.0, 0.7, 10**-0.16),
            (1.0, 0.3, 1e-2, 10**-4.5, 1e-8),
            (0.0, math.pi / 8, math.pi / 4, math.pi / 2),
            (0.0, 1e-3),
        ):
            channel = ChannelParams(tau1=tau1, tau2=tau2, dark_count=dark)
            angles = MeasurementAngles(theta, 0.0)
            for silent in SUBSETS:
                exact = vacuum_set_probability_exact(silent, g, tau1, tau2, theta, dark)
                value = vacuum_set_probability(silent, SourceParams(g), channel, angles)
                worst = max(worst, abs(float((Fraction(value) - exact) / exact)))
        assert worst <= 2e-15


class TestOutcomeProbabilities:
    def test_vacuum_source(self):
        table = outcome_probabilities(
            SourceParams(0.0),
            ChannelParams(tau1=0.7, tau2=0.3),
            MeasurementAngles(0.4, 0.0),
        )
        assert table[pat("0000")] == pytest.approx(1.0, abs=1e-15)
        assert all(
            table[p] == pytest.approx(0.0, abs=1e-15)
            for p in CANONICAL_PATTERNS
            if p != pat("0000")
        )

    def test_no_click_probability_is_theta_independent(self):
        source = SourceParams(0.6)
        channel = ChannelParams(tau1=0.7, tau2=0.3)
        reference = outcome_probabilities(
            source, channel, MeasurementAngles(0.0, 0.0)
        )[pat("0000")]
        assert reference == pytest.approx(0.4793360297233277, abs=1e-14)
        for theta in np.linspace(0.0, math.pi, 7):
            value = outcome_probabilities(
                source, channel, MeasurementAngles(theta, 0.0)
            )[pat("0000")]
            assert value == pytest.approx(reference, abs=1e-14)

    def test_normalization_and_nonnegativity(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            source, channel, angles = random_params(
                rng, dark_choices=(0.0, 1e-3, 1e-2)
            )
            table = outcome_probabilities(source, channel, angles)
            assert abs(table.total() - 1.0) <= 1e-12
            assert all(v >= -1e-12 for v in table.values)

    def test_subtractive_path_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            source, channel, angles = random_params(rng)
            direct = outcome_probabilities(source, channel, angles)
            chained = outcome_probabilities_subtractive(source, channel, angles)
            assert all(
                a == pytest.approx(b, abs=1e-12)
                for a, b in zip(direct.values, chained.values)
            )

    def test_single_side_patterns_are_theta_independent(self):
        rng = np.random.default_rng(17)
        one_sided = [pat(b) for b in ("0000", "1000", "0100", "0010", "0001",
                                      "1100", "0011")]
        for _ in range(20):
            source, channel, _ = random_params(rng, dark_choices=(0.0, 1e-3))
            at_zero = outcome_probabilities(
                source, channel, MeasurementAngles(0.0, 0.0)
            )
            at_angle = outcome_probabilities(
                source, channel, MeasurementAngles(0.7, 0.0)
            )
            for p in one_sided:
                assert at_zero[p] == pytest.approx(at_angle[p], abs=1e-14)

    def test_party_swap_relabels_table(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            source, channel, angles = random_params(rng, dark_choices=(0.0, 1e-3))
            swapped_channel = ChannelParams(
                tau1=channel.tau2, tau2=channel.tau1, dark_count=channel.dark_count
            )
            table = outcome_probabilities(source, channel, angles)
            swapped = outcome_probabilities(source, swapped_channel, angles)
            for p in CANONICAL_PATTERNS:
                relabeled = ClickPattern(p.b_plus, p.b_minus, p.a_plus, p.a_minus)
                assert table[p] == pytest.approx(swapped[relabeled], abs=1e-12)

    def test_theta_parity_and_periodicity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            source, channel, angles = random_params(rng, dark_choices=(0.0, 1e-3))
            theta = angles.relative()
            base = outcome_probabilities(source, channel, angles)
            mirrored = outcome_probabilities(
                source, channel, MeasurementAngles(-theta, 0.0)
            )
            shifted = outcome_probabilities(
                source, channel, MeasurementAngles(theta + math.pi, 0.0)
            )
            for p in CANONICAL_PATTERNS:
                assert base[p] == pytest.approx(mirrored[p], abs=1e-14)
                assert base[p] == pytest.approx(shifted[p], abs=1e-14)


class TestOracleAgreement:
    def test_reference_point_without_dark_counts(self):
        source = SourceParams(0.6)
        channel = ChannelParams(tau1=0.7, tau2=0.3)
        tolerance = truncation_error_bound(0.6, 40) + 1e-10
        for theta in np.linspace(0.0, math.pi, 5):
            angles = MeasurementAngles(theta, 0.0)
            analytic = outcome_probabilities(source, channel, angles)
            brute = oracle_probabilities(source, channel, angles, n_max=40)
            for a, b in zip(analytic.values, brute.values):
                assert a == pytest.approx(b, abs=tolerance)

    def test_reference_point_with_dark_counts(self):
        source = SourceParams(0.3)
        channel = ChannelParams(tau1=0.5, tau2=0.5, dark_count=1e-3)
        angles = MeasurementAngles(math.pi / 4, 0.0)
        analytic = outcome_probabilities(source, channel, angles)
        brute = oracle_probabilities(source, channel, angles, n_max=40)
        tolerance = truncation_error_bound(0.3, 40) + 1e-10
        for a, b in zip(analytic.values, brute.values):
            assert a == pytest.approx(b, abs=tolerance)

    @pytest.mark.parametrize(
        "tau1,tau2",
        [(1.0, 0.4), (0.4, 1.0), (1.0, 1.0)],
    )
    def test_lossless_boundaries_match_oracle(self, tau1, tau2):
        source = SourceParams(0.5)
        channel = ChannelParams(tau1=tau1, tau2=tau2, dark_count=1e-4)
        angles = MeasurementAngles(0.3, 0.0)
        analytic = outcome_probabilities(source, channel, angles)
        brute = oracle_probabilities(source, channel, angles, n_max=40)
        for a, b in zip(analytic.values, brute.values):
            assert a == pytest.approx(b, abs=1e-10)


class TestProbabilityTable:
    @pytest.mark.parametrize(
        "entries",
        [{0: 1.0 + 1e-6, 1: -1e-6}, {0: 1.0, 1: math.nan}],
        ids=["beyond_rounding", "nan"],
    )
    def test_rejects_large_negative(self, entries):
        values = [0.0] * 16
        for index, value in entries.items():
            values[index] = value
        with pytest.raises(ProbabilityConsistencyError):
            ProbabilityTable(tuple(values))

    def test_clamps_rounding_negatives_on_output(self):
        values = [0.0] * 16
        values[0] = 1.0
        values[1] = -5e-13
        table = ProbabilityTable(tuple(values))
        assert table[pat("1000")] == -5e-13  # raw preserved
        assert table.clamped()[pat("1000")] == 0.0
        assert min(table.clamped().values) == 0.0


class TestOutcomeProbabilityArray:
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 2.0])
    def test_columns_equal_scalar_tables_bit_for_bit(self, theta):
        rng = np.random.default_rng(29)
        g = rng.uniform(0.0, 0.95, 64)
        tau1 = rng.uniform(1e-6, 1.0, 64)
        tau2 = rng.uniform(1e-6, 1.0, 64)
        dark = rng.choice([0.0, 6.25e-7, 1e-3], 64)
        table = outcome_probability_array(g, tau1, tau2, dark, theta)
        assert table.shape == (16, 64)
        for k in range(64):
            scalar = outcome_probabilities(
                SourceParams(g[k]),
                ChannelParams(tau1=tau1[k], tau2=tau2[k], dark_count=float(dark[k])),
                MeasurementAngles(theta, 0.0),
            )
            assert [v.hex() for v in table[:, k].tolist()] == [
                float(v).hex() for v in scalar.values
            ]

    def test_channel_axes_broadcast_against_gains(self):
        g = np.linspace(0.01, 0.9, 5)
        taus = np.array([[0.9], [0.01]])
        table = outcome_probability_array(g, taus, taus[::-1], np.array([[0.0], [1e-5]]), 0.0)
        assert table.shape == (16, 2, 5)
        scalar = outcome_probabilities(
            SourceParams(g[3]), ChannelParams(0.01, 0.9, 1e-5), MeasurementAngles(0.0, 0.0)
        )
        assert table[:, 1, 3].tolist() == list(scalar.values)

    def test_flags_columns_the_scalar_checks_could_reject(self):
        good = outcome_probabilities(
            SourceParams(0.3), ChannelParams(0.5, 0.2, 1e-4), MeasurementAngles(0.1, 0.0)
        ).values
        table = np.array([good] * 5).T
        table[1, 1] = -1e-11  # beyond the rounding allowance
        table[2, 2] = math.nan
        table[0, 3] += 0.6e-12  # more than half the smallest gate tolerance off
        table[0, 4] += 0.4e-12  # within it
        assert needs_scalar_check(table).tolist() == [False, True, True, True, False]
