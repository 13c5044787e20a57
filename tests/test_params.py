import math
import sys

import numpy as np
import pytest

from hbepp_link import (
    ChannelParams,
    MeasurementAngles,
    SourceParams,
    oracle_probabilities,
    outcome_probabilities,
)
from hbepp_link.params import (
    db_from_transmittance,
    gain_from_mean_photon,
    transmittance_from_db,
)


class TestGainFromMeanPhoton:
    def test_vacuum(self):
        assert gain_from_mean_photon(0.0) == 0.0

    @pytest.mark.parametrize(
        "mu,g",
        [
            # frozen from g = sqrt(mu / (1 + mu))
            (0.1, 0.30151134457776363),
            (0.037, 0.188891094837145),
        ],
    )
    def test_known_values(self, mu, g):
        assert gain_from_mean_photon(mu) == pytest.approx(g, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gain_from_mean_photon(-0.01)

    def test_round_trip(self):
        for mu in np.linspace(0.0, 5.0, 23):
            source = SourceParams.from_mean_photon_number(mu)
            assert source.mean_photon_number() == pytest.approx(mu, abs=1e-12)

    def test_gain_round_trip(self):
        for g in np.linspace(0.0, 0.95, 20):
            mu = SourceParams(g).mean_photon_number()
            assert gain_from_mean_photon(mu) == pytest.approx(g, abs=1e-12)


class TestSourceParams:
    @pytest.mark.parametrize("g", [-0.1, 1.0, 1.5])
    def test_invalid_gain(self, g):
        with pytest.raises(ValueError):
            SourceParams(g)

    def test_mean_photon_number_matches_hyperbolic_form(self):
        # mu = sinh(artanh g)^2 is the independent expression
        for g in np.linspace(0.0, 0.9, 19):
            expected = math.sinh(math.atanh(g)) ** 2
            assert SourceParams(g).mean_photon_number() == pytest.approx(
                expected, abs=1e-12
            )


class TestTransmittance:
    def test_zero_db(self):
        assert transmittance_from_db(0.0) == 1.0

    def test_twenty_db(self):
        assert transmittance_from_db(20.0) == pytest.approx(0.01, abs=1e-15)

    def test_alice_reference_loss(self):
        # frozen from 10**(-0.16)
        assert transmittance_from_db(1.6) == pytest.approx(
            0.6918309709189365, abs=1e-15
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transmittance_from_db(-1.0)

    def test_db_round_trip(self):
        for loss in np.linspace(0.0, 50.0, 21):
            tau = transmittance_from_db(loss)
            assert db_from_transmittance(tau) == pytest.approx(loss, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.1])
    def test_db_from_invalid_tau(self, tau):
        with pytest.raises(ValueError):
            db_from_transmittance(tau)


class TestChannelParams:
    def test_from_db_losses(self):
        channel = ChannelParams.from_db_losses(1.6, 20.0, dark_count=6.25e-7)
        assert channel.tau1 == pytest.approx(0.6918309709189365, abs=1e-15)
        assert channel.tau2 == pytest.approx(0.01, abs=1e-15)
        assert db_from_transmittance(channel.tau1) == pytest.approx(1.6, abs=1e-12)
        assert db_from_transmittance(channel.tau2) == pytest.approx(20.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau1": 0.0, "tau2": 0.5},
            {"tau1": 0.5, "tau2": 1.2},
            {"tau1": 0.5, "tau2": 0.5, "dark_count": -1e-3},
            {"tau1": 0.5, "tau2": 0.5, "dark_count": 1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)

    def test_subnormal_transmittance_refused(self):
        # the least normal float is the smallest transmittance: below it
        # tau has lost bits the click statistics need
        floor = sys.float_info.min
        interval = r"must be in \[2\.2250738585072014e-308, 1\], got 1e-320$"
        with pytest.raises(ValueError, match=f"^tau2 {interval}"):
            ChannelParams(0.7, 1e-320)
        with pytest.raises(ValueError, match=f"^tau1 {interval}"):
            ChannelParams(1e-320, 0.7)
        with pytest.raises(ValueError, match=f"^transmittance {interval}"):
            db_from_transmittance(1e-320)
        assert ChannelParams(floor, floor).tau2 == floor
        assert db_from_transmittance(floor) == pytest.approx(3076.526, abs=1e-3)


def test_relative_angle():
    angles = MeasurementAngles(math.radians(45.0), math.radians(22.5))
    assert angles.relative() == pytest.approx(math.radians(22.5), abs=1e-15)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["theta1", "theta2"])
def test_non_finite_angle_is_named_before_any_table(field, value):
    # a non-finite angle stops where the angles are built, named, before
    # the closed form's math.cos or the oracle's turn can meet it
    angles = {"theta1": 0.3, "theta2": 0.0} | {field: value}
    for probabilities in (outcome_probabilities, oracle_probabilities):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            probabilities(SourceParams(0.3), ChannelParams(0.5, 0.5), MeasurementAngles(**angles))
