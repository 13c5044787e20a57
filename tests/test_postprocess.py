import itertools
import math

import numpy as np
import pytest

from hbepp_link import (
    ChannelParams,
    MeasurementAngles,
    PostprocessingModel,
    ProbabilityTable,
    SourceParams,
    TSIRELSON_BOUND,
    chsh,
    oracle_probabilities,
    outcome_probabilities,
    postprocess,
)
from hbepp_link.analytic import outcome_probability_array
from hbepp_link.keyrate import _qber_and_sift, qber_and_sift
from hbepp_link.patterns import CANONICAL_PATTERNS, ClickPattern
from hbepp_link.postprocess import (
    ALICE_CHSH_ANGLES,
    BOB_CHSH_ANGLES,
    CoincidenceCounts,
    _FOLDS,
    _chsh,
    coincidences,
    correlation,
    fold,
)

REFERENCE_CHANNEL = ChannelParams(tau1=0.7, tau2=0.01)
SQUASH = PostprocessingModel.SQUASH
DISCARD = PostprocessingModel.DISCARD


def pat(bits: str) -> ClickPattern:
    return ClickPattern(*(c == "1" for c in bits))


def table_with(entries: dict[str, float]) -> ProbabilityTable:
    mapping = {p: 0.0 for p in CANONICAL_PATTERNS}
    total = 0.0
    for bits, value in entries.items():
        mapping[pat(bits)] = value
        total += value
    mapping[pat("0000")] += 1.0 - total  # keep the table normalized
    return ProbabilityTable(tuple(mapping[p] for p in CANONICAL_PATTERNS))


class TestSquash:
    def test_single_coincidence_passes_through(self):
        counts = coincidences(table_with({"1010": 0.2}), SQUASH)
        assert counts.n_pp == pytest.approx(0.2, abs=1e-15)
        assert counts.n_pm == counts.n_mp == counts.n_mm == 0.0

    def test_quad_click_splits_evenly(self):
        counts = coincidences(table_with({"1111": 1.0}), SQUASH)
        for cell in (counts.n_pp, counts.n_pm, counts.n_mp, counts.n_mm):
            assert cell == pytest.approx(0.25, abs=1e-15)

    def test_one_sided_double_splits_in_half(self):
        counts = coincidences(table_with({"1101": 0.4}), SQUASH)
        assert counts.n_pm == pytest.approx(0.2, abs=1e-15)
        assert counts.n_mm == pytest.approx(0.2, abs=1e-15)
        assert counts.n_pp == counts.n_mp == 0.0

    def test_cell_sum_equals_both_sides_click_probability(self):
        rng = np.random.default_rng(29)
        both_sides = [
            p
            for p in CANONICAL_PATTERNS
            if (p.a_plus or p.a_minus) and (p.b_plus or p.b_minus)
        ]
        assert len(both_sides) == 9
        for _ in range(25):
            source = SourceParams(rng.uniform(0.0, 0.9))
            channel = ChannelParams(
                tau1=rng.uniform(0.01, 1.0),
                tau2=rng.uniform(0.01, 1.0),
                dark_count=float(rng.choice([0.0, 1e-3])),
            )
            angles = MeasurementAngles(rng.uniform(0.0, math.pi), 0.0)
            table = outcome_probabilities(source, channel, angles)
            counts = coincidences(table, SQUASH)
            expected = sum(table[p] for p in both_sides)
            assert counts.total() == pytest.approx(expected, abs=1e-12)


class TestDiscard:
    def test_quad_click_dropped(self):
        counts = coincidences(table_with({"1111": 1.0}), DISCARD)
        assert counts.total() == 0.0

    def test_single_coincidence_kept(self):
        counts = coincidences(table_with({"0110": 0.3}), DISCARD)
        assert counts.n_mp == pytest.approx(0.3, abs=1e-15)
        assert counts.n_pp == counts.n_pm == counts.n_mm == 0.0


class TestFold:
    def test_arrays_fold_to_the_counts_of_each_column(self):
        # one result type for floats and arrays; every field of every column
        # is the one-point table's count, bit for bit
        rng = np.random.default_rng(41)
        g = rng.uniform(0.0, 0.95, 32)
        tau1 = rng.uniform(1e-3, 1.0, 32)
        tau2 = rng.uniform(1e-6, 1.0, 32)
        dark = rng.choice([0.0, 6.25e-7, 1e-3], 32)
        for theta in (0.0, 0.7):
            values = outcome_probability_array(g, tau1, tau2, dark, theta)
            for model in PostprocessingModel:
                counts = fold(values, model)
                assert type(counts) is CoincidenceCounts
                for k in range(32):
                    table = outcome_probabilities(
                        SourceParams(g[k].item()),
                        ChannelParams(tau1[k].item(), tau2[k].item(), dark[k].item()),
                        MeasurementAngles(theta, 0.0),
                    )
                    one = coincidences(table, model)
                    assert type(one) is CoincidenceCounts
                    assert [float(cell[k]).hex() for cell in counts] == [
                        cell.hex() for cell in one
                    ]

    def test_zero_total_column_reads_zero_and_leaves_the_others(self):
        # g = 0 without dark counts: nothing clicks in the middle column
        g = np.array([0.3, 0.0, 0.6])
        channel = ChannelParams(tau1=0.7, tau2=0.01)
        hexes = lambda *floats: [float(v).hex() for v in floats]
        for model in PostprocessingModel:
            counts = fold(outcome_probability_array(g, 0.7, 0.01, 0.0, 0.4), model)
            assert counts.total()[1] == 0.0
            corr = correlation(counts)
            eps, r_sift = _qber_and_sift(g, 0.7, 0.01, 0.0, model)
            assert hexes(corr[1], eps[1], r_sift[1]) == hexes(0.0, 0.0, 0.0)
            for k in (0, 2):
                source = SourceParams(g[k].item())
                table = outcome_probabilities(source, channel, MeasurementAngles(0.4, 0.0))
                assert hexes(corr[k]) == hexes(correlation(coincidences(table, model)))
                assert hexes(eps[k], r_sift[k]) == hexes(*qber_and_sift(source, channel, model))

    def test_qber_and_sift_arrays_equal_one_point_calls_bit_for_bit(self):
        # both models' pair forms on a (4, 64) grid, tau2 from 1 down to
        # 1e-12, d = 0 among the dark counts, and one element without
        # coincidences: every element is its one-point call, to the bit
        rng = np.random.default_rng(59)
        shape = (4, 64)
        g = rng.uniform(0.0, 0.95, shape)
        tau1 = rng.uniform(1e-6, 1.0, shape)
        tau2 = 10.0 ** -rng.uniform(0.0, 12.0, shape)
        dark = rng.choice([0.0, 6.25e-7, 1e-3], shape)
        g[0, 0] = dark[0, 0] = 0.0
        for model in PostprocessingModel:
            eps, r_sift = _qber_and_sift(g, tau1, tau2, dark, model)
            assert eps.shape == r_sift.shape == shape
            assert (eps[0, 0], r_sift[0, 0]) == (0.0, 0.0)
            for index in np.ndindex(shape):
                one = _qber_and_sift(*(v[index].item() for v in (g, tau1, tau2, dark)), model)
                assert [type(v) for v in one] == [float, float]
                assert [v.hex() for v in one] == [eps[index].item().hex(),
                                                  r_sift[index].item().hex()]

    @staticmethod
    def python_fold(values, model):
        """The cells of ``_FOLDS[model]`` from 16 Python floats: each cell's
        (index, weight) terms added left to right, from the first term."""
        cells = []
        for (index, weight), *rest in _FOLDS[model]:
            total = weight * values[index]
            for index, weight in rest:
                total = total + weight * values[index]
            cells.append(total)
        return cells

    def test_one_gather_rule_equals_the_python_fold_bit_for_bit(self):
        # (2, 256) scan tables at angle 0 and 0.7, and 64 random rows from
        # 1 down to subnormals, where halving rounds; every column, and its
        # one-point call, is the Python fold of its 16 floats
        g = np.linspace([1e-3, 1e-3], [0.95, 0.95], 256, axis=1)
        tau2, dark = np.array([[1e-3], [0.3]]), np.array([[6.25e-7], [1e-3]])
        rng = np.random.default_rng(19)
        tables = [
            outcome_probability_array(g, 0.7, tau2, dark, 0.0),
            outcome_probability_array(g, 0.7, tau2, dark, 0.7),
            rng.uniform(size=(16, 64)) * 10.0 ** -rng.uniform(0.0, 320.0, (16, 64)),
        ]
        for values in tables:
            for model in PostprocessingModel:
                counts = fold(values, model)
                assert all(cell.shape == values.shape[1:] for cell in counts)
                for column in np.ndindex(values.shape[1:]):
                    one = values[(slice(None), *column)].tolist()
                    reference = [v.hex() for v in self.python_fold(one, model)]
                    assert [float(cell[column]).hex() for cell in counts] == reference
                    point = fold(one, model)
                    assert [type(v) for v in point] == [float] * 4
                    assert [v.hex() for v in point] == reference

    def test_one_point_calls_return_python_floats(self):
        source = SourceParams(0.3)
        for model in PostprocessingModel:
            assert type(chsh(source, REFERENCE_CHANNEL, model)) is float
            qber, sift = qber_and_sift(source, REFERENCE_CHANNEL, model)
            assert [type(qber), type(sift)] == [float, float]
            table = outcome_probabilities(source, REFERENCE_CHANNEL, MeasurementAngles(0.3, 0.0))
            assert [type(v) for v in coincidences(table, model)] == [float] * 4


class TestCorrelation:
    def test_perfect_correlation(self):
        assert correlation(CoincidenceCounts(0.5, 0.0, 0.0, 0.5)) == 1.0

    def test_no_correlation(self):
        assert correlation(CoincidenceCounts(0.1, 0.1, 0.1, 0.1)) == 0.0

    def test_zero_coincidences_convention(self):
        assert correlation(CoincidenceCounts(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            source = SourceParams(rng.uniform(0.0, 0.9))
            channel = ChannelParams(
                tau1=rng.uniform(0.01, 1.0), tau2=rng.uniform(0.01, 1.0)
            )
            angles = MeasurementAngles(rng.uniform(0.0, math.pi), 0.0)
            table = outcome_probabilities(source, channel, angles)
            for model in PostprocessingModel:
                assert abs(correlation(coincidences(table, model))) <= 1.0 + 1e-12

    def test_singlet_correlation_curve(self):
        # weak source: E(theta) = -cos(2 theta), checked against brute force
        source = SourceParams(1e-4)
        for theta in (0.0, math.pi / 8, math.pi / 4):
            table = oracle_probabilities(
                source, REFERENCE_CHANNEL, MeasurementAngles(theta, 0.0), n_max=2
            )
            value = correlation(coincidences(table, SQUASH))
            assert value == pytest.approx(-math.cos(2 * theta), abs=1e-3)


class TestChsh:
    def test_singlet_limit_saturates_tsirelson(self):
        source = SourceParams(1e-4)
        for model in PostprocessingModel:
            assert chsh(source, REFERENCE_CHANNEL, model) == pytest.approx(
                TSIRELSON_BOUND, abs=1e-3
            )

    def test_no_coincidences_give_zero(self):
        # g = 0 without dark counts: every correlation takes the
        # zero-coincidence rule
        for model in PostprocessingModel:
            assert chsh(SourceParams(0.0), REFERENCE_CHANNEL, model) == 0.0

    def test_models_coincide_for_weak_source(self):
        source = SourceParams(1e-4)
        s_squash = chsh(source, REFERENCE_CHANNEL, PostprocessingModel.SQUASH)
        s_discard = chsh(source, REFERENCE_CHANNEL, PostprocessingModel.DISCARD)
        assert abs(s_squash - s_discard) <= 1e-3

    def test_squash_never_beats_tsirelson(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            source = SourceParams(rng.uniform(0.05, 0.9))
            channel = ChannelParams(
                tau1=rng.uniform(0.05, 1.0), tau2=rng.uniform(0.05, 1.0)
            )
            value = chsh(source, channel, PostprocessingModel.SQUASH)
            assert value <= TSIRELSON_BOUND + 1e-9

    def test_squash_decreases_with_gain(self):
        values = [
            chsh(SourceParams(g), REFERENCE_CHANNEL, PostprocessingModel.SQUASH)
            for g in np.linspace(0.05, 0.9, 12)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_discard_shows_fake_violation(self):
        values = [
            chsh(SourceParams(g), REFERENCE_CHANNEL, PostprocessingModel.DISCARD)
            for g in np.linspace(0.05, 0.995, 40)
        ]
        assert max(values) > TSIRELSON_BOUND

    def test_every_model_folds_from_one_set_of_four_tables(self, monkeypatch):
        calls = []

        def table(*inputs):
            calls.append(inputs[-1])
            return outcome_probability_array(*inputs)

        monkeypatch.setattr(postprocess, "outcome_probability_array", table)
        models, gains = tuple(PostprocessingModel), np.linspace(0.05, 0.9, 7)
        both = _chsh(0.4, 0.7, 0.01, 1e-5, models)
        arrays = _chsh(gains, 0.7, 0.01, 1e-5, models)
        assert len(calls) == 8
        channel = ChannelParams(0.7, 0.01, 1e-5)
        assert both == tuple(chsh(SourceParams(0.4), channel, model) for model in models)
        for model, values in zip(models, arrays):
            assert values.tolist() == [
                chsh(SourceParams(g), channel, model) for g in gains.tolist()
            ]

    def test_fewer_tables_would_keep_the_bits(self):
        # S from fewer tables relies on these identities: the four angle
        # differences are two angles up to sign, and the table is even in
        # theta, bit for bit, at one point and on arrays
        a1, a2 = ALICE_CHSH_ANGLES
        b1, b2 = BOB_CHSH_ANGLES
        assert a2 - b2 == a1 - b1
        assert a2 - b1 == -(a1 - b1)
        points = np.array(list(itertools.product(
            (0.05, 0.3, 0.9), (1.0, 0.5), (1e-3, 1e-9), (0.0, 6.25e-7, 1e-3)
        )))
        for theta in (a1 - b1, a1 - b2, 0.3, math.pi / 4, 2.9):
            for point in points.tolist():
                assert outcome_probability_array(*point, -theta) == outcome_probability_array(
                    *point, theta
                )
            assert np.array_equal(
                outcome_probability_array(*points.T, -theta),
                outcome_probability_array(*points.T, theta),
            )
