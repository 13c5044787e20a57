import math

import pytest

from hbepp_link.config import (
    COHERENCE_TIME_NS,
    ConfigError,
    DEFAULT_DARK_COUNT,
    DEFAULT_LOSS1_DB,
    DEFAULT_MU,
    SWEEP_VARIABLES,
    _KEYS,
    parse_config,
)
from hbepp_link.params import db_from_transmittance
from hbepp_link.postprocess import PostprocessingModel


class TestDefaults:
    def test_empty_config_mirrors_reference_experiment(self):
        cfg = parse_config("")
        source = cfg.source_params()
        channel = cfg.channel_params()
        assert source.mean_photon_number() == pytest.approx(DEFAULT_MU, abs=1e-12)
        assert source.g == pytest.approx(0.188891094837145, abs=1e-14)
        assert db_from_transmittance(channel.tau1) == pytest.approx(
            DEFAULT_LOSS1_DB, abs=1e-12
        )
        assert channel.dark_count == DEFAULT_DARK_COUNT
        assert cfg.model is PostprocessingModel.SQUASH
        assert cfg.n_max == 40
        assert not cfg.per_second
        assert COHERENCE_TIME_NS == 6.25

    def test_brightness_sets_gain(self):
        cfg = parse_config("source.mu = 0.1\n")
        assert cfg.source_params().g == pytest.approx(
            0.30151134457776363, abs=1e-14
        )


class TestValidation:
    def test_both_source_forms_rejected(self):
        with pytest.raises(ConfigError, match="source.g and source.mu"):
            parse_config("source.g = 0.3\nsource.mu = 0.1\n")

    @pytest.mark.parametrize("arm", ["1", "2"])
    def test_both_channel_forms_rejected(self, arm):
        text = f"channel.tau{arm} = 0.5\nchannel.loss{arm}_db = 3.0\n"
        with pytest.raises(ConfigError, match=f"channel.tau{arm}"):
            parse_config(text)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="source.brightness"):
            parse_config("source.brightness = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("source.g = 0.1\nsource.g = 0.2\n")

    def test_out_of_range_named(self):
        with pytest.raises(ConfigError, match="source.g"):
            parse_config("source.g = 1.5\n")
        with pytest.raises(ConfigError, match="channel"):
            parse_config("channel.tau2 = 0.0\n")

    def test_truncation_bounded(self):
        # parsed only: the oracle is never run at these sizes here
        assert parse_config("oracle.n_max = 200\n").n_max == 200
        with pytest.raises(ConfigError, match=r"oracle.n_max: .* \[0, 200\], got '201'"):
            parse_config("oracle.n_max = 201\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("source.g = 0.1\nnonsense\n")

    def test_bad_model(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config("model = average\n")

    def test_incomplete_sweep(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config("sweep.variable = g\n")

    def test_bad_sweep_variable(self):
        with pytest.raises(ConfigError, match="sweep.variable"):
            parse_config(
                "sweep.variable = theta9\nsweep.start = 0\n"
                "sweep.stop = 1\nsweep.steps = 2\n"
            )


class TestOverrides:
    def test_override_wins(self):
        cfg = parse_config("source.mu = 0.05\n", overrides=["source.mu=0.2"])
        assert cfg.mu == pytest.approx(0.2)

    def test_override_conflicting_form_rejected(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("source.mu = 0.05\n", overrides=["source.g=0.3"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="override"):
            parse_config("", overrides=["source.g:0.3"])


#: One valid value of every key; sweep keys also need the rest of a sweep.
ONE_VALUE = {
    "source.g": "0.3",
    "source.mu": "0.1",
    "channel.tau1": "0.7",
    "channel.loss1_db": "1.6",
    "channel.tau2": "1",
    "channel.loss2_db": "33",
    "detector.dark_count": "0",
    "angles.theta1_deg": "-22.5",
    "angles.theta2_deg": "1e-3",
    "model": "discard",
    "oracle.n_max": "30",
    "output.per_second": "yes",
    "sweep.variable": "g",
    "sweep.start": "0.05",
    "sweep.stop": "0.15",
    "sweep.steps": "3",
}
BASE_SWEEP = {
    "sweep.variable": "mu",
    "sweep.start": "0.01",
    "sweep.stop": "0.2",
    "sweep.steps": "5",
}


def one_key_text(key):
    assigned = dict(BASE_SWEEP) if key in BASE_SWEEP else {}
    assigned[key] = ONE_VALUE[key]
    return "".join(f"{k} = {v}\n" for k, v in assigned.items())


class TestRoundTrip:
    CASES = [
        pytest.param("", id="empty"),
        pytest.param("source.g = 0.3\n", id="gain-only"),
        pytest.param(
            "source.mu = 0.1\nchannel.loss1_db = 1.6\nchannel.tau2 = 0.01\n"
            "detector.dark_count = 6.25e-07\nangles.theta1_deg = 22.5\n"
            "model = discard\noracle.n_max = 30\noutput.per_second = true\n"
            "sweep.variable = loss2_db\nsweep.start = 20.0\nsweep.stop = 45.0\n"
            "sweep.steps = 26\n",
            id="every-key",
        ),
    ] + [pytest.param(one_key_text(spec.key), id=spec.key) for spec in _KEYS]

    @pytest.mark.parametrize("text", CASES)
    def test_serialize_parse_is_idempotent(self, text):
        cfg = parse_config(text)
        serialized = cfg.to_text()
        assert {line.split(" = ")[0] for line in serialized.splitlines()} == cfg.explicit
        reparsed = parse_config(serialized)
        assert reparsed == cfg
        assert reparsed.to_text() == serialized


#: Value swept into each variable and how the scenario exposes its effect.
SWEEP_POINTS = {
    "g": (0.5, lambda cfg: cfg.source_params().g),
    "mu": (0.2, lambda cfg: cfg.source_params().mean_photon_number()),
    "tau1": (0.3, lambda cfg: cfg.channel_params().tau1),
    "loss1_db": (3.0, lambda cfg: db_from_transmittance(cfg.channel_params().tau1)),
    "tau2": (0.01, lambda cfg: cfg.channel_params().tau2),
    "loss2_db": (33.0, lambda cfg: db_from_transmittance(cfg.channel_params().tau2)),
    "dark_count": (1e-4, lambda cfg: cfg.channel_params().dark_count),
    "theta1_deg": (90.0, lambda cfg: math.degrees(cfg.angles().theta1)),
}


@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_sweep_point_substitution(variable):
    # The base sets the alternatives that take precedence (g over mu, tau
    # over loss), so sweeping mu or a loss only works if they are cleared.
    cfg = parse_config("source.g = 0.3\nchannel.tau1 = 0.5\nchannel.tau2 = 0.2\n")
    value, effective = SWEEP_POINTS[variable]
    field, (point,) = cfg.sweep((variable,), value, value, 1)
    assert field == variable
    assert getattr(point, variable) == value
    assert effective(point) == pytest.approx(value, abs=1e-12)
    assert parse_config(point.to_text()) == point
