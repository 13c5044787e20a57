import itertools
import math
import re

import numpy as np
import pytest

from hbepp_link.cli import run_subcommand
from hbepp_link.config import (
    COHERENCE_TIME_NS,
    ConfigError,
    DEFAULT_DARK_COUNT,
    DEFAULT_LOSS1_DB,
    DEFAULT_LOSS2_DB,
    DEFAULT_MU,
    SWEEP_VARIABLES,
    _KEYS,
    ScenarioConfig,
    parse_config,
)
from hbepp_link.params import db_from_transmittance, gain_from_mean_photon, transmittance_from_db
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

    def test_inline_comment_is_part_of_the_value(self):
        # only a line whose first non-blank character is # is a comment
        assert parse_config("  # brightness\nsource.mu = 0.1\n") == parse_config("source.mu = 0.1")
        with pytest.raises(ConfigError, match=r"^source\.mu: .* got '0\.1  # brightness'$"):
            parse_config("source.mu = 0.1  # brightness\n")

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


def keys(text):
    return [line.split(" = ")[0] for line in text.splitlines()]


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
        # every case sets each of its keys away from the default
        assert keys(serialized) == keys(text)
        reparsed = parse_config(serialized)
        assert reparsed == cfg
        assert reparsed.to_text() == serialized

    def test_defaults_stay_implicit(self):
        cfg = parse_config("angles.theta1_deg = 0\nmodel = squash\noracle.n_max = 40\n")
        assert cfg == parse_config("")
        assert cfg.to_text() == ""


#: Each sweep variable's key, the index of the core input it sets, and the
#: ends of a sweep at the edges of the key's range: mu from 0, a loss up to
#: 300 dB, a negative angle.
SWEEP_ENDS = {
    "g": ("source.g", 0, 0.0, 0.95),
    "mu": ("source.mu", 0, 0.0, 7.5),
    "tau1": ("channel.tau1", 1, 1e-3, 1.0),
    "loss1_db": ("channel.loss1_db", 1, 0.0, 300.0),
    "tau2": ("channel.tau2", 2, 1.0, 1e-4),
    "loss2_db": ("channel.loss2_db", 2, 300.0, 0.0),
    "dark_count": ("detector.dark_count", 3, 0.0, 0.5),
    "theta1_deg": ("angles.theta1_deg", 4, -720.0, 90.0),
}
#: The core input a value of each sweep variable stands for, as ``params``
#: defines it (before the angle is taken relative to theta2).
MEANING = {
    "g": float, "mu": gain_from_mean_photon, "tau1": float, "loss1_db": transmittance_from_db,
    "tau2": float, "loss2_db": transmittance_from_db, "dark_count": float,
    "theta1_deg": math.radians,
}
#: Two base scenarios, both with Bob's analyzer turned. One sets the
#: alternatives that take precedence (g over mu, tau over loss), so a sweep
#: of mu or a loss must replace them; the other leaves the defaults.
SWEEP_BASES = {
    "precedent": {
        "source.g": 0.3, "channel.tau1": 0.5, "channel.tau2": 0.2,
        "detector.dark_count": 1e-5, "angles.theta1_deg": 10.0, "angles.theta2_deg": -33.3,
    },
    "defaults": {"angles.theta2_deg": 12.5},
}
#: Keys of which at most one may be set.
GROUPS = (
    ("source.g", "source.mu"), ("channel.tau1", "channel.loss1_db"),
    ("channel.tau2", "channel.loss2_db"),
)


def text_of(settings):
    return "".join(f"{key} = {value!r}\n" for key, value in settings.items())


def sweep_settings(variable, steps):
    """``--set`` items of a sweep of ``variable`` between its ``SWEEP_ENDS``."""
    _, _, start, stop = SWEEP_ENDS[variable]
    return [f"sweep.variable={variable}", f"sweep.start={start!r}",
            f"sweep.stop={stop!r}", f"sweep.steps={steps}"]


def point_config(base, variable, value):
    """An independent one-point scenario: ``base`` with the key of
    ``variable`` set to ``value`` and its alternative dropped."""
    key = SWEEP_ENDS[variable][0]
    settings = {
        other: setting for other, setting in base.items()
        if not any(key in group and other in group for group in GROUPS)
    }
    settings[key] = value
    return parse_config(text_of(settings))


def hexes(values):
    return [float(value).hex() for value in values]


def test_no_sweep_is_the_scenario_itself():
    precedent = parse_config(text_of(SWEEP_BASES["precedent"]))
    defaults = parse_config(text_of(SWEEP_BASES["defaults"]))
    for cfg in (precedent, defaults):
        assert cfg.sweep(SWEEP_VARIABLES) == (None, [])
        assert cfg.sweep(()) == (None, [])
        assert all(type(value) is float for value in cfg.inputs())
    assert hexes(precedent.inputs()) == hexes(
        (0.3, 0.5, 0.2, 1e-5, math.radians(10.0) - math.radians(-33.3))
    )
    assert hexes(defaults.inputs()) == hexes((
        gain_from_mean_photon(DEFAULT_MU), transmittance_from_db(DEFAULT_LOSS1_DB),
        transmittance_from_db(DEFAULT_LOSS2_DB), DEFAULT_DARK_COUNT, -math.radians(12.5),
    ))
    # chsh's own dark-count-free default applies only while none is set
    assert "# dark_count = 0.0\n" in run_subcommand("chsh", defaults)
    assert "# dark_count = 1e-05\n" in run_subcommand("chsh", precedent)
    # a subcommand's own default sweep, when none is configured
    gains = np.linspace(0.05, 0.9, 50).tolist()
    assert defaults.sweep(("g", "mu"), (0.05, 0.9, 50)) == ("g", gains)


@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_sweep_point_substitution(variable):
    # each element of the swept input is the input of an independent
    # one-point scenario at that value, over either base and any length,
    # and that input is what the value means
    _, index, start, stop = SWEEP_ENDS[variable]
    for base, steps in itertools.product(SWEEP_BASES.values(), (1, 2, 7)):
        theta2 = math.radians(base.get("angles.theta2_deg", 0.0))
        cfg = parse_config(text_of(base), sweep_settings(variable, steps))
        field, values = cfg.sweep((variable,))
        assert field == variable
        assert values == np.linspace(start, stop, steps).tolist()
        inputs = cfg.inputs(field, values)
        assert [type(value) for value in inputs] == [
            np.ndarray if i == index else float for i in range(5)
        ]
        assert inputs[index].shape == (steps,)
        for k, value in enumerate(values):
            expected = point_config(base, variable, value).inputs()
            point = [entry[k] if i == index else entry for i, entry in enumerate(inputs)]
            assert hexes(point) == hexes(expected)
            meant = MEANING[variable](value)
            assert hexes([point[index]]) == hexes([meant - theta2 if index == 4 else meant])


@pytest.mark.parametrize("variable, stop, message", [
    ("g", 1.5, r"source\.g: expected a finite number in \[0, 1\), got '1\.5'"),
    ("tau2", 1.5, r"channel\.tau2: expected a finite number in \(0, 1\], got '1\.5'"),
    ("dark_count", 1.2, r"detector\.dark_count: expected .* got '1\.2'"),
    ("loss2_db", 4000.0, r"channel\.loss2_db: transmittance must be in \(0, 1\], got 0\.0"),
], ids=["g", "tau2", "dark_count", "loss2_db"])
def test_swept_values_are_checked_where_they_become_inputs(variable, stop, message):
    # a config built without parse_config skips its sweep check; the swept
    # key's own parser still refuses the range before the core sees it
    cfg = ScenarioConfig(sweep_variable=variable, sweep_start=0.5, sweep_stop=stop,
                         sweep_steps=3)
    with pytest.raises(ConfigError, match=message):
        run_subcommand("probs", cfg)
    with pytest.raises(ConfigError, match=message):
        cfg.inputs(variable, [stop, 0.5])


@pytest.mark.parametrize("variable", SWEEP_VARIABLES)
def test_array_sweep_values_are_the_list_values(variable):
    # an ndarray of values gives the inputs a list gives, bit for bit, and
    # its ends are checked as floats, each on its own
    key, index, start, stop = SWEEP_ENDS[variable]
    cfg = parse_config(text_of(SWEEP_BASES["precedent"]))
    values = np.linspace(start, stop, 5)
    listed = cfg.inputs(variable, values.tolist())
    arrayed = cfg.inputs(variable, values)
    assert [hexes(np.atleast_1d(entry)) for entry in arrayed] == [
        hexes(np.atleast_1d(entry)) for entry in listed
    ]
    bad = {"g": 1.5, "mu": -1.0, "tau1": 0.0, "loss1_db": -1.0, "tau2": 1.5,
           "loss2_db": -1.0, "dark_count": 1.0, "theta1_deg": math.inf}[variable]
    message = rf"^{re.escape(key)}: .* got '{re.escape(repr(bad))}'"
    for first, last in ((bad, stop), (start, bad)):
        with pytest.raises(ConfigError, match=message):
            cfg.inputs(variable, np.array([first, start, stop, last]))
