import hashlib
import itertools
import math
import re
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
from hbepp_link import analytic
from hbepp_link.analytic import outcome_probability_array, pair_probabilities
from hbepp_link.params import transmittance_from_db
from hbepp_link.patterns import (
    CANONICAL_PATTERNS,
    ClickPattern,
    ProbabilityConsistencyError,
    left_to_right_sum,
)

from exact import outcome_probabilities_exact, pair_marginals, pair_masks, vacuum_terms_exact
from subtractive import outcome_probabilities_subtractive

ALL_SILENT = 15  # silence bitmasks: bit i set when mode i is silent
NONE_SILENT = 0


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


#: Each silence bitmask with Bob's + and - modes (bits 2 and 3) swapped.
BOB_SWAPPED = [mask & 3 | (mask & 4) << 1 | (mask & 8) >> 1 for mask in range(16)]


def vac(source, channel, angles) -> list:
    """The 16 V(S) of one point, indexed by silence bitmask, read off the
    diagonal of the table's triangular system:
    V(S) = (1 - g^2)^2 (1 - d)^|S| / D(S). The system has cross weight
    min(c^2, s^2), and where c^2 < s^2 it is in Bob's swapped labels."""
    g, dark = source.g, channel.dark_count
    cos, sin = math.cos(angles.relative()), math.sin(angles.relative())
    c2, s2 = cos * cos, sin * sin
    det = analytic._system(*np.broadcast_arrays(g, channel.tau1, channel.tau2, min(c2, s2)))
    masks = BOB_SWAPPED if c2 < s2 else range(16)
    squeeze = (1.0 - g) * (1.0 + g)
    # the diagonal entry of mask S, a+ on bit 0 and most significant
    diagonal = [sum((mask >> m & 1) * w for m, w in enumerate((27, 9, 3, 1))) for mask in masks]
    return [
        squeeze * squeeze * (1.0 - dark) ** sum(silent) / det[entry].item()
        for silent, entry in zip(SUBSETS, diagonal)
    ]


def marginals(table) -> list:
    """V(S) by silence bitmask as the marginals of a table: the sum of the
    entries of every pattern that keeps S silent."""
    return [
        left_to_right_sum(
            value for pattern, value in zip(CANONICAL_PATTERNS, table)
            if not any(click and still for click, still in zip(pattern, silent))
        )
        for silent in SUBSETS
    ]


class TestVacuumSetProbability:
    """V(S) for every silence subset S: the diagonal of the triangular
    system, and the marginals of the table built on it."""

    def test_full_set_closed_form(self):
        source = SourceParams(0.6)
        channel = ChannelParams(tau1=0.7, tau2=0.3)
        angles = MeasurementAngles(0.0, 0.0)
        value = vac(source, channel, angles)[ALL_SILENT]
        # frozen from (1-g^2)^2 / (1-G)^2
        assert value == pytest.approx(0.4793360297233277, abs=1e-14)
        table = outcome_probabilities(source, channel, angles)
        assert table[pat("0000")] == pytest.approx(value, rel=1e-15)

    def test_empty_set_is_one(self):
        source = SourceParams(0.44)
        channel = ChannelParams(tau1=0.9, tau2=0.2, dark_count=1e-2)
        angles = MeasurementAngles(0.3, 0.0)
        assert vac(source, channel, angles)[NONE_SILENT] == pytest.approx(1.0, abs=1e-13)
        table = outcome_probabilities(source, channel, angles).values
        assert marginals(table)[NONE_SILENT] == pytest.approx(1.0, abs=1e-13)

    def test_vacuum_source_with_dark_counts(self):
        # four independent dark-count misses
        source = SourceParams(0.0)
        channel = ChannelParams(tau1=0.5, tau2=0.5, dark_count=0.5)
        angles = MeasurementAngles(0.0, 0.0)
        assert vac(source, channel, angles)[ALL_SILENT] == pytest.approx(0.0625, abs=1e-15)
        table = outcome_probabilities(source, channel, angles)
        assert table.values == (0.0625,) * 16

    def test_vacuum_source_collapses_to_dark_miss(self):
        # g = 0: no photons, so V(S) is the dark-count miss (1-d)^|S| exactly,
        # and every pattern is d^|C| (1-d)^|S| to rounding
        for dark in (0.0, 1e-3, 0.5):
            channel = ChannelParams(tau1=0.7, tau2=0.3, dark_count=dark)
            for theta in (0.0, 0.4, 1.2):
                angles = MeasurementAngles(theta, 0.0)
                values = vac(SourceParams(0.0), channel, angles)
                for value, silent in zip(values, SUBSETS):
                    assert value == (1.0 - dark) ** sum(silent)
                table = outcome_probabilities(SourceParams(0.0), channel, angles)
                for p, value in zip(CANONICAL_PATTERNS, table.values):
                    clicks = sum(p)
                    exact = Fraction(dark) ** clicks * (1 - Fraction(dark)) ** (4 - clicks)
                    assert value == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_all_silent_closed_form(self):
        # all modes silent: V = (1-g^2)^2 (1-d)^4 / (1-G)^2 with
        # G = g^2 (1-tau1)(1-tau2) for every theta; frozen at g=0.6,
        # tau=(0.7, 0.3), d=0
        source = SourceParams(0.6)
        channel = ChannelParams(tau1=0.7, tau2=0.3, dark_count=1e-3)
        big_g = 0.36 * 0.3 * 0.7
        closed = 0.64**2 * (1.0 - 1e-3) ** 4 / (1.0 - big_g) ** 2
        for theta in np.linspace(0.0, math.pi, 9):
            angles = MeasurementAngles(theta, 0.0)
            assert vac(source, channel, angles)[ALL_SILENT] == pytest.approx(closed, rel=1e-15)
            table = outcome_probabilities(source, channel, angles)
            assert table[pat("0000")] == pytest.approx(closed, rel=1e-15)
        dark_free = ChannelParams(tau1=0.7, tau2=0.3)
        value = vac(source, dark_free, MeasurementAngles(0.9, 0.0))[ALL_SILENT]
        assert value == pytest.approx(0.4793360297233277, rel=1e-15)

    def test_all_marginalized_is_theta_free(self):
        # nothing required silent: V is the total probability, 1 for every
        # theta, gain, loss and dark-count rate
        for g in (0.0, 0.55, 0.9, 0.999):
            source = SourceParams(g)
            channel = ChannelParams(tau1=0.8, tau2=0.25, dark_count=1e-2)
            for theta in np.linspace(0.0, math.pi, 9):
                angles = MeasurementAngles(theta, 0.0)
                value = vac(source, channel, angles)[NONE_SILENT]
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
                exact = vac(source, ChannelParams(*taus, dark_count=dark), angles)
                inside = vac(source, ChannelParams(*clamped, dark_count=dark), angles)
                for a, b in zip(exact, inside):
                    assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("g", [0.0, 0.1, 0.5, 0.9])
    def test_matches_exact_arithmetic(self, g):
        # every subset term to 2e-15 relative of the same formula evaluated
        # in exact rational arithmetic, lossless and deep-loss arms included,
        # on the diagonal (measured worst 3.7e-16) and as the table's
        # marginals (measured worst 6.7e-16)
        worst = worst_marginal = 0.0
        for tau1, tau2, theta, dark in itertools.product(
            (1.0, 0.7, 10**-0.16),
            (1.0, 0.3, 1e-2, 10**-4.5, 1e-8),
            (0.0, math.pi / 8, math.pi / 4, math.pi / 2),
            (0.0, 1e-3),
        ):
            channel = ChannelParams(tau1=tau1, tau2=tau2, dark_count=dark)
            angles = MeasurementAngles(theta, 0.0)
            table = outcome_probabilities(SourceParams(g), channel, angles).values
            for value, marginal, exact in zip(
                vac(SourceParams(g), channel, angles),
                marginals(table),
                vacuum_terms_exact(g, tau1, tau2, theta, dark),
            ):
                worst = max(worst, abs(float((Fraction(value) - exact) / exact)))
                worst_marginal = max(
                    worst_marginal, abs(float((Fraction(marginal) - exact) / exact))
                )
        assert worst <= 2e-15
        assert worst_marginal <= 2e-15

    def test_arrays_equal_one_point_terms_bit_for_bit(self):
        # the system's 81 entries, the diagonal among them, at cross weights
        # 0 (theta = 0), 1/2 (pi/4: both pairings weigh alike), sin^2(0.7)
        # and one per lane; the last lane has tau2 = 1, so z = 0 on Bob's
        # silent modes
        rng = np.random.default_rng(31)
        g = rng.uniform(0.0, 0.95, 17)
        tau1 = rng.uniform(1e-6, 1.0, 17)
        tau2 = rng.uniform(1e-6, 1.0, 17)
        tau2[-1] = 1.0
        for weight in np.broadcast_arrays(0.0, 0.5, math.sin(0.7) ** 2, rng.uniform(0.0, 0.5, 17)):
            terms = analytic._system(g, tau1, tau2, weight)
            assert terms.shape == (81, 17)
            for k in range(17):
                point = analytic._system(*np.broadcast_arrays(g[k], tau1[k], tau2[k], weight[k]))
                assert [v.hex() for v in terms[:, k].tolist()] == [v.hex() for v in point.tolist()]


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
            # a quarter turn swaps c^2 and s^2: Bob's + and - trade places
            quarter = outcome_probabilities(
                source, channel, MeasurementAngles(math.pi / 2 - theta, 0.0)
            )
            for p in CANONICAL_PATTERNS:
                assert base[p] == pytest.approx(mirrored[p], abs=1e-14)
                assert base[p] == pytest.approx(shifted[p], abs=1e-14)
                relabeled = ClickPattern(p.a_plus, p.a_minus, p.b_minus, p.b_plus)
                assert base[p] == pytest.approx(quarter[relabeled], abs=1e-14)


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

    def test_total_adds_left_to_right_on_every_interpreter(self):
        # builtin sum() compensates rounding on Python >= 3.12 and gives
        # 1.0000000000000002 here; the canonical-order sum is 1.0 everywhere
        values = (1.0, 1e-16, 1e-16) + (0.0,) * 13
        assert (1.0 + 1e-16) + 1e-16 == 1.0
        assert ProbabilityTable(values).total() == 1.0
        assert left_to_right_sum(values) == 1.0


#: Relative error bound of every nonzero table entry against the exact
#: reference. Measured worst: 4.2e-13 on the random grid of
#: ``test_columns_equal_scalar_tables_bit_for_bit`` (at theta = pi/4, where
#: the cross weight min(c^2, s^2) is largest; 2.5e-15 at the other fixed
#: angles, 9.8e-15 with an angle per column), 2.8e-13 on the
#: deep-loss grid below. Near pi/4 the four-fold entry's error grows as
#: eps / g^2 (``test_four_fold_entry_within_2_eps_over_g_squared_near_pi_4``),
#: past this bound below g of about 0.02: 3.2e-12 at g = 0.01, 3.1e-11 at
#: g = 0.003.
EXACT_REL = 1e-12


def worst_relative(values, exact_values) -> float:
    """The largest |value - exact| / exact over nonzero exact entries; a zero
    exact entry must be met exactly."""
    worst = 0.0
    for value, reference in zip(values, exact_values):
        if reference:
            worst = max(worst, abs(float((Fraction(value) - reference) / reference)))
        else:
            assert value == 0.0
    return worst


class TestOutcomeProbabilityArray:
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 2.0, "per-column"])
    def test_columns_equal_scalar_tables_bit_for_bit(self, theta):
        # every column is the package's one-point table in Python floats, bit
        # for bit, and within EXACT_REL of the exact table entry by entry;
        # "per-column" draws each column's angle over (-pi, pi)
        rng = np.random.default_rng(29)
        g = rng.uniform(0.0, 0.95, 64)
        tau1 = rng.uniform(1e-6, 1.0, 64)
        tau2 = rng.uniform(1e-6, 1.0, 64)
        dark = rng.choice([0.0, 6.25e-7, 1e-3], 64)
        if theta == "per-column":
            theta = rng.uniform(-math.pi, math.pi, 64)
        table = np.array(outcome_probability_array(g, tau1, tau2, dark, theta))
        assert table.shape == (16, 64)
        worst = 0.0
        for k in range(64):
            point = (g[k].item(), tau1[k].item(), tau2[k].item(), dark[k].item())
            angle = np.broadcast_to(theta, 64)[k].item()
            one_point = outcome_probabilities(
                SourceParams(point[0]),
                ChannelParams(tau1=point[1], tau2=point[2], dark_count=point[3]),
                MeasurementAngles(angle, 0.0),
            ).values
            assert [type(v) for v in one_point] == [float] * 16
            assert [v.hex() for v in table[:, k].tolist()] == [v.hex() for v in one_point]
            exact = outcome_probabilities_exact(*point[:3], angle, point[3])
            worst = max(worst, worst_relative(one_point, exact))
        assert worst <= EXACT_REL

    def test_normalization_residual_is_a_few_ulps_at_any_gain(self):
        # no 1/(1-g^2)^2 growth up to g = 1 - 1e-15: measured worst 13 eps on
        # 100,000 points, 9 eps here
        rng = np.random.default_rng(41)
        g = np.concatenate([rng.uniform(0.0, 0.9, 500), 1.0 - 10.0 ** -rng.uniform(1, 15, 500)])
        tau1, tau2 = 10.0 ** -rng.uniform(0.0, 12.0, (2, 1000))
        dark = rng.choice([0.0, 6.25e-7, 1e-3, 1e-2], 1000)
        tables = [pair_probabilities(g, tau1, tau2, dark)] + [
            outcome_probability_array(g, tau1, tau2, dark, theta)
            for theta in (0.0, 0.3, math.pi / 4, math.pi / 2)
        ]
        for table in tables:
            assert np.max(abs(left_to_right_sum(table) - 1.0)) <= 32 * np.finfo(float).eps

    def test_channel_axes_broadcast_against_gains(self):
        g = np.linspace(0.01, 0.9, 5)
        taus = np.array([[0.9], [0.01]])
        table = np.array(
            outcome_probability_array(g, taus, taus[::-1], np.array([[0.0], [1e-5]]), 0.0)
        )
        assert table.shape == (16, 2, 5)
        scalar = outcome_probabilities(
            SourceParams(g[3]), ChannelParams(0.01, 0.9, 1e-5), MeasurementAngles(0.0, 0.0)
        )
        assert table[:, 1, 3].tolist() == list(scalar.values)
        # each input on its own axis: the subset terms differ in shape
        table = np.array(outcome_probability_array(
            g[:, None, None], taus, np.array([0.5, 0.2, 0.01]), 1e-5, 0.3
        ))
        assert table.shape == (16, 5, 2, 3)
        scalar = outcome_probabilities(
            SourceParams(g[4]), ChannelParams(0.01, 0.2, 1e-5), MeasurementAngles(0.3, 0.0)
        )
        assert table[:, 4, 1, 1].tolist() == list(scalar.values)
        # the angle on an axis of its own, the other inputs scalars
        table = np.array(outcome_probability_array(0.4, 0.7, 0.3, 1e-5, np.array([[0.3], [2.0]])))
        assert table.shape == (16, 2, 1)
        scalar = outcome_probabilities(
            SourceParams(0.4), ChannelParams(0.7, 0.3, 1e-5), MeasurementAngles(2.0, 0.0)
        )
        assert table[:, 1, 0].tolist() == list(scalar.values)
        # an empty gain axis: an empty table, which passes the gate
        table = outcome_probability_array(g[:0], taus, 0.5, 1e-5, 0.3)
        assert table.shape == (16, 2, 0)

    @pytest.mark.parametrize(
        "gains, message",
        [
            ([0.3, math.nan, 1.5], r"P\[vac\] = nan outside"),
            ([0.3, 1.5, math.nan], r"P\[vac\] = 5\.6153\d* outside"),
        ],
        ids=["nan-first", "out-of-range-first"],
    )
    def test_gate_raises_the_first_failing_column(self, gains, message):
        with pytest.raises(ProbabilityConsistencyError, match=message):
            outcome_probability_array(np.array(gains), 0.7, 0.3, 0.0, 0.1)

    def test_gate_checks_range_then_sum_per_column(self, monkeypatch):
        # Columns built from one good table: an entry just past the rounding
        # allowance, a NaN, a sum 2e-12 off, and a sum 0.4e-12 off (inside
        # the 1e-12 gate). The first failing column raises the one-point
        # message; with it repaired, the next one does.
        good = list(outcome_probabilities(
            SourceParams(0.3), ChannelParams(0.5, 0.2, 1e-4), MeasurementAngles(0.1, 0.0)
        ).values)
        columns = np.array([good] * 5).T
        columns[1, 1] = -1.1e-12
        columns[2, 2] = math.nan
        columns[0, 3] += 2e-12
        columns[0, 4] += 0.4e-12
        monkeypatch.setattr(analytic, "_table", lambda *point: columns)
        total = repr(left_to_right_sum(columns[:, 3].tolist()))  # 1 + 2e-12, to the bit
        g = np.full(5, 0.3)
        for k, message in (
            (1, r"P\[A\+\] = -1\.1e-12 outside"),
            (2, r"P\[A-\] = nan outside"),
            (3, rf"pattern probabilities sum to {re.escape(total)}, expected 1"),
        ):
            with pytest.raises(ProbabilityConsistencyError, match=message):
                outcome_probability_array(g, 0.5, 0.2, 1e-4, 0.1)
            columns[:, k] = good
        assert np.array(outcome_probability_array(g, 0.5, 0.2, 1e-4, 0.1)).shape == (16, 5)

    def test_one_point_gate_raises_as_its_column(self, monkeypatch):
        # a one-point table is gated in Python: each failure of the columns
        # above raises the array gate's message, as does a sum off by 2e-12
        # on ``Fraction``s; 0.4e-12 off passes
        good = list(outcome_probabilities(
            SourceParams(0.3), ChannelParams(0.5, 0.2, 1e-4), MeasurementAngles(0.1, 0.0)
        ).values)
        for index, value in ((1, -1.1e-12), (2, math.nan), (0, good[0] + 2e-12),
                             (0, good[0] + 0.4e-12)):
            point = list(good)
            point[index] = value
            columns = np.array([point, good]).T
            outcomes = []
            for table in (np.array(point), columns):
                monkeypatch.setattr(analytic, "_table", lambda *args, table=table: table)
                try:
                    outcomes.append(outcome_probability_array(0.3, 0.5, 0.2, 1e-4, 0.1))
                except ProbabilityConsistencyError as exc:
                    outcomes.append(str(exc))
            if isinstance(outcomes[0], str):
                assert outcomes[0] == outcomes[1]
            else:
                assert [type(v) for v in outcomes[0]] == [float] * 16
                assert outcomes[0] == point
        exact = [Fraction(v) for v in good]
        assert analytic._checked(exact) == exact
        exact[0] += Fraction(2, 10 ** 12)
        with pytest.raises(ProbabilityConsistencyError, match=r"sum to 1\.00000000000199"):
            analytic._checked(exact)

    def test_gate_total_is_the_left_to_right_sum(self):
        # The gate adds a table's rows in one numpy reduction once each row
        # holds more than one element: numpy adds the rows of a C-ordered
        # table in order, so the total is the loop's, bit for bit, signed
        # zeros included (the first column of each table is +-0.0 only). A
        # one-point table keeps the loop: there numpy would add pairwise.
        rng = np.random.default_rng(25)
        shapes = [(16, 2), (16, 3), (16, 7), (16, 2, 1), (16, 1, 2), (16, 5, 1),
                  (16, 2, 32), (16, 1, 128), (16, 8, 128), (16, 4, 257)]
        for shape in shapes:
            first = (slice(None),) + (0,) * (len(shape) - 1)
            for _ in range(200):
                table = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 3, shape)
                table[rng.random(shape) < 0.1] = 0.0
                table[rng.random(shape) < 0.1] = -0.0
                table[first] = rng.choice([0.0, -0.0], 16)
                total = np.add.reduce(table, axis=0, initial=-0.0)
                assert total.tobytes() == left_to_right_sum(table).tobytes()


#: Deep-loss grid at theta = 0: every nonzero entry to 1e-9 relative.
DEEP_GAINS = (0.05, 0.1, 0.3, 0.5, 0.9)
DEEP_LOSS1_DB = (0.0, 1.6, 3.0)
DEEP_LOSS2_DB = tuple(float(loss) for loss in range(0, 121, 5))
DEEP_DARK = (0.0, 6.25e-7, 1e-3)


class TestPairFormReference:
    """``analytic.pair_probabilities``: one pair's four entries, whose
    products are the theta = 0 table as two independent pairs. Every key
    rate reads them, and as ``Fraction``s they are the exact reference for
    every entry of the general table at deep loss."""

    def test_products_are_the_exact_inclusion_exclusion(self):
        # as Fractions each entry is the exact marginal of the theta = 0
        # table and their products are its every exact entry; as floats the
        # entries and their products keep every digit to a few ulps
        worst = 0.0
        for g, loss1, loss2, dark in itertools.product(
            (0.05, 0.5, 0.9), (0.0, 1.6), (0.0, 30.0, 80.0), (0.0, 1e-3)
        ):
            point = (g, transmittance_from_db(loss1), transmittance_from_db(loss2), dark)
            exact = outcome_probabilities_exact(*point[:3], 0.0, dark)
            pair = pair_probabilities(*map(Fraction, point))
            assert pair == pair_marginals(exact)
            assert [pair[a] * pair[b] for a, b in map(pair_masks, CANONICAL_PATTERNS)] == exact
            floats = pair_probabilities(*point)
            products = [floats[a] * floats[b] for a, b in map(pair_masks, CANONICAL_PATTERNS)]
            for value, reference in zip(floats + products, pair + exact):
                if reference:
                    worst = max(worst, abs(float((Fraction(value) - reference) / reference)))
        assert worst <= 2e-15

    def test_arrays_equal_one_point_tables_bit_for_bit(self):
        rng = np.random.default_rng(43)
        g = rng.uniform(0.0, 0.95, 32)
        tau1 = rng.uniform(1e-6, 1.0, 32)
        tau2 = 10.0 ** -rng.uniform(0.0, 12.0, 32)
        tau2[-1] = 1.0
        dark = rng.choice([0.0, 6.25e-7, 1e-3], 32)
        # no points: an empty table, which passes the gate
        assert np.array(pair_probabilities(g[:0], tau1[:0], tau2[:0], dark[:0])).shape == (4, 0)
        table = np.array(pair_probabilities(g, tau1, tau2, dark))
        assert table.shape == (4, 32)
        for k in range(32):
            point = pair_probabilities(g[k].item(), tau1[k].item(), tau2[k].item(), dark[k].item())
            assert [type(v) for v in point] == [float] * 4
            assert [v.hex() for v in table[:, k].tolist()] == [v.hex() for v in point]

    def test_is_the_two_mode_back_substitution(self):
        # D(T) of one pair, written out here with Bob's mode on bit 0 of the
        # silence mask and entry (row, col) _pair's p[3 state_a + state_b]
        # with state 2 col bit - row bit, solved level by level as the four
        # modes are; then each mode's dark-count rule, Bob's first, and kappa
        def entry(row, col):
            return sum((2 * (col >> m & 1) - (row >> m & 1)) * (1, 3)[m] for m in range(2))

        def solved(g, tau1, tau2, dark):
            p = analytic._pair(g, tau1, tau2)
            y = [None, None, None, 1 / p[entry(3, 3)]]
            for row in (1, 2, 0):
                cols = [c for c in range(4) if c != row and c & row == row]
                terms = [p[entry(row, c)] * y[c] for c in cols]
                y[row] = -left_to_right_sum(terms) / p[entry(row, row)]
            for bit in (1, 2):
                for low in (m for m in range(4) if not m & bit):
                    y[low] = y[low] + dark * y[low | bit]
                    y[low | bit] = y[low | bit] * (1 - dark)
            return [p[0] * v for v in y]

        point = (0.4, 0.7, 1e-3, 6.25e-7)
        assert [v.hex() for v in pair_probabilities(*point)] == [v.hex() for v in solved(*point)]
        assert pair_probabilities(*map(Fraction, point)) == solved(*map(Fraction, point))
        rng = np.random.default_rng(47)
        inputs = (
            rng.uniform(0.0, 0.95, 64),
            rng.uniform(1e-6, 1.0, 64),
            10.0 ** -rng.uniform(0.0, 12.0, 64),
            rng.choice([0.0, 6.25e-7, 1e-3], 64),
        )
        table = np.array(pair_probabilities(*inputs))
        assert [v.hex() for v in table.ravel().tolist()] == [
            v.hex() for v in np.array(solved(*inputs)).ravel().tolist()
        ]

    @pytest.mark.parametrize("point", [
        (0.4, 0.7, 1e-3, 6.25e-7), (0.9, 1.0, 0.5, 1e-3), (0.05, 0.5, 1e-12, 0.0),
    ])
    def test_four_mode_solve_is_the_exact_inclusion_exclusion(self, point):
        # at theta = 0 D(T) is the pairing product of _pair's entries; with
        # Fractions the four-mode solve, times kappa^2, is the exact table
        g, tau1, tau2, dark = map(Fraction, point)
        p = analytic._pair(g, tau1, tau2)
        entries = [p[first] * p[second] for first, second in zip(*analytic._PAIRING)]
        y = analytic._solve(entries, analytic._FOUR_MODES, dark)
        table = [entries[0] * y[mask] for mask in analytic._SILENT]
        assert table == outcome_probabilities_exact(*point[:3], 0.0, point[3])

    @pytest.mark.parametrize(
        "gains, message",
        [
            ([0.3, math.nan, 1.5], r"P\[pair AB\] = nan outside"),
            ([0.3, 1.5, math.nan], r"P\[pair A\] = 4\.5435\d* outside"),
        ],
        ids=["nan-first", "out-of-range-first"],
    )
    def test_gate_raises_the_first_failing_column(self, gains, message):
        # the general table's gate, naming the failing entry by the pair's labels
        with pytest.raises(ProbabilityConsistencyError, match=message):
            pair_probabilities(np.array(gains), 0.7, 0.3, 0.0)

    def test_every_entry_within_1e_9_relative_to_80_db(self):
        # the general table at theta = 0 against the products of the pair's
        # entries in exact arithmetic, down to 120 dB (measured worst: 1.4e-15)
        inputs = np.broadcast_arrays(
            np.reshape(DEEP_GAINS, (-1, 1, 1, 1)),
            np.reshape([transmittance_from_db(x) for x in DEEP_LOSS1_DB], (-1, 1, 1)),
            np.reshape([transmittance_from_db(x) for x in DEEP_LOSS2_DB], (-1, 1)),
            np.array(DEEP_DARK),
        )
        table = np.array(outcome_probability_array(*inputs, 0.0))
        worst = 0.0
        for index in np.ndindex(inputs[0].shape):
            pair = pair_probabilities(*(Fraction(v[index].item()) for v in inputs))
            exact = [pair[a] * pair[b] for a, b in map(pair_masks, CANONICAL_PATTERNS)]
            for value, reference in zip(table[(slice(None), *index)].tolist(), exact):
                if reference:
                    worst = max(worst, abs(float((Fraction(value) - reference) / reference)))
        assert worst <= 1e-9


class TestEveryEntryExact:
    """The general table against ``tests/exact.py`` entry by entry, down to
    120 dB, at the angles where the cross weight min(c^2, s^2) vanishes (0
    and pi/2, up to the c^2 that ``math.cos`` leaves) and where it is
    largest (pi/4)."""

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
    def test_every_entry_within_exact_rel_to_120_db(self, theta):
        # measured worst: 1.3e-15 (0), 2.8e-13 (pi/4), 1.3e-15 (pi/2)
        inputs = np.broadcast_arrays(
            np.reshape((0.05, 0.3, 0.9), (-1, 1, 1, 1)),
            np.reshape([transmittance_from_db(x) for x in (0.0, 1.6)], (-1, 1, 1)),
            np.reshape([transmittance_from_db(x) for x in (0.0, 40.0, 80.0, 120.0)], (-1, 1)),
            np.array(DEEP_DARK),
        )
        table = np.array(outcome_probability_array(*inputs, theta))
        worst = 0.0
        for index in np.ndindex(inputs[0].shape):
            g, tau1, tau2, dark = (v[index].item() for v in inputs)
            exact = outcome_probabilities_exact(g, tau1, tau2, theta, dark)
            worst = max(worst, worst_relative(table[(slice(None), *index)].tolist(), exact))
        assert worst <= EXACT_REL

    def test_four_fold_entry_within_2_eps_over_g_squared_near_pi_4(self):
        # near pi/4 the four-fold click's g^4 term cancels, and P_1111 keeps
        # a relative error within 2 eps / g^2, which passes EXACT_REL below
        # g of about 0.02; every other entry stays within EXACT_REL. Measured
        # worst: 1.17 eps / g^2 (g = 0.05, pi/4 +- 1e-3), 7.3e-9 at pi/4 and
        # g = 1e-4, the other entries 8.1e-16.
        four_fold = CANONICAL_PATTERNS.index(pat("1111"))
        eps = np.finfo(float).eps
        for theta in (math.pi / 4 - 1e-3, math.pi / 4, math.pi / 4 + 1e-3):
            for g in (0.05, 0.02, 1e-2, 1e-3, 1e-4):
                table = outcome_probability_array(g, 0.8, 0.5, 0.0, theta)
                exact = outcome_probabilities_exact(g, 0.8, 0.5, theta, 0.0)
                errors = [abs(float((Fraction(value) - reference) / reference))
                          for value, reference in zip(table, exact)]
                assert errors.pop(four_fold) <= 2 * eps / (g * g)
                assert max(errors) <= EXACT_REL


#: A literal grid at theta = 0, where cos and sin are exact and no libm call
#: enters: g up to 0.97, tau2 down to 1e-12, three dark counts.
PINNED_GRID = (
    (0.0, 0.05, 0.3, 0.5, 0.9, 0.97),
    (1.0, 0.7, 0.5, 1e-3),
    (1.0, 0.5, 1e-3, 1e-6, 1e-9, 1e-12),
    (0.0, 6.25e-7, 1e-3),
)
#: sha256 of the float.hex of every entry: one array call, then one
#: one-point call per grid point. The general table's entries are pinned
#: directly; the pair's four pin the theta = 0 products built from them.
PINNED_DIGESTS = {
    "pair_probabilities": "0dfbd65d24cfb4f14af536672a5918514a1d1846b3c5d9db3570941b11ae379e",
    "outcome_probability_array": "6703e56ea25e0a59fe6c891c8d2a869d32b61e3176505744c6ba90dfbdfc62cc",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_tables_keep_their_bits_at_theta_zero(name):
    table = {
        "pair_probabilities": pair_probabilities,
        "outcome_probability_array": lambda *point: outcome_probability_array(*point, 0.0),
    }[name]
    points = list(itertools.product(*PINNED_GRID))
    columns = np.array(table(*np.array(points).T))
    values = columns.T.ravel().tolist()
    for point in points:
        values.extend(table(*point))
    text = " ".join(value.hex() for value in values)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGESTS[name]
