import math
import os
import random
import stat

import numpy as np
import pytest

from hbepp_link import analytic, cli
from hbepp_link.analytic import outcome_probabilities
from hbepp_link.cli import main, run_subcommand
from hbepp_link.config import COHERENCE_TIME_S, SWEEP_VARIABLES, ConfigError, parse_config
from hbepp_link.keyrate import qber_and_sift, secure_rate
from hbepp_link.params import ChannelParams, MeasurementAngles, SourceParams
from hbepp_link.postprocess import PostprocessingModel, chsh
from test_config import SWEEP_BASES, hexes, point_config, sweep_settings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sets(*settings):
    return [arg for setting in settings for arg in ("--set", setting)]


#: A valid value of each sweep variable.
SWEEP_VALUE = {
    "g": 0.3, "mu": 0.1, "tau1": 0.5, "loss1_db": 3.0, "tau2": 0.1,
    "loss2_db": 30.0, "dark_count": 1e-4, "theta1_deg": 45.0,
}


def one_value_sweep(variable, steps=2):
    """``sweep.*`` settings that sweep ``variable`` over one valid value."""
    value = SWEEP_VALUE[variable]
    return [f"sweep.variable={variable}", f"sweep.start={value}",
            f"sweep.stop={value}", f"sweep.steps={steps}"]


def record_tables(monkeypatch):
    """The (inputs, table) of each ``outcome_probability_array`` call the
    CLI makes, appended as the calls happen."""
    calls = []

    def recorded(*inputs):
        calls.append((inputs, analytic.outcome_probability_array(*inputs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "outcome_probability_array", recorded)
    return calls


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestProbs:
    def test_single_point_block(self, capsys):
        code, out, err = run(
            capsys, "probs", "--set", "source.g=0.6", "--set", "channel.tau1=0.7",
            "--set", "channel.tau2=0.3", "--set", "detector.dark_count=0",
        )
        assert code == 0 and err == ""
        lines = dict(
            line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
        )
        assert lines["result"] == "click-pattern probabilities"
        assert float(lines["P_0000[-]"]) == pytest.approx(
            0.4793360297233277, abs=1e-14
        )
        assert float(lines["sum[-]"]) == pytest.approx(1.0, abs=1e-12)

    def test_angle_sweep_has_constant_no_click_column(self, capsys):
        code, out, _ = run(
            capsys, "probs",
            "--set", "source.g=0.6", "--set", "channel.tau1=0.7",
            "--set", "channel.tau2=0.3", "--set", "detector.dark_count=0",
            "--set", "sweep.variable=theta1_deg",
            "--set", "sweep.start=0", "--set", "sweep.stop=180",
            "--set", "sweep.steps=13",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert len(header) == 17 and len(rows) == 13
        vac = header.index("P_0000[-]")
        values = {row[vac] for row in rows}
        assert len(values) == 1  # byte-identical across the sweep

    @pytest.mark.parametrize("variable", SWEEP_VARIABLES)
    def test_takes_every_sweep_variable(self, capsys, monkeypatch, variable):
        calls = record_tables(monkeypatch)
        base = SWEEP_BASES["precedent"]
        settings = [f"{key}={value!r}" for key, value in base.items()]
        for steps in (1, 7):
            calls.clear()
            argv = sets(*settings, *sweep_settings(variable, steps))
            code, out, err = run(capsys, "probs", *argv)
            assert code == 0 and err == ""
            header, rows = csv_rows(out)
            assert header[0].startswith(f"{variable}[") and len(rows) == steps
            # one table call for the sweep; each row is the table of an
            # independent one-point scenario, clamped, and so is each column
            # of the call's inputs
            assert len(calls) == 1 and calls[0][1].shape == (16, steps)
            inputs = [np.broadcast_to(value, (steps,)) for value in calls[0][0]]
            for k, row in enumerate(rows):
                point = point_config(base, variable, float(row[0]))
                source, channel = point.source_params(), point.channel_params()
                angles = MeasurementAngles(
                    math.radians(point.theta1_deg), math.radians(point.theta2_deg)
                )
                assert hexes(column[k] for column in inputs) == hexes((
                    source.g, channel.tau1, channel.tau2, channel.dark_count, angles.relative()
                ))
                table = outcome_probabilities(source, channel, angles).clamped()
                assert hexes(row[1:]) == hexes(table.values)

    @pytest.mark.parametrize(
        "variable, preamble",
        [
            ("g", ["tau1", "tau2", "dark_count", "theta1_deg", "theta2_deg"]),
            ("loss2_db", ["g", "tau1", "dark_count", "theta1_deg", "theta2_deg"]),
        ],
    )
    def test_sweep_preamble_leaves_out_the_swept_quantity(self, capsys, variable, preamble):
        code, out, _ = run(capsys, "probs", *sets(*one_value_sweep(variable)))
        assert code == 0
        comments = [line[2:] for line in out.splitlines() if line.startswith("# ")]
        assert comments[0] == "hbepp-link probs"
        assert [line.split(" = ")[0] for line in comments[1:]] == preamble


class TestChsh:
    def test_columns_and_defaults(self, capsys):
        code, out, _ = run(
            capsys, "chsh",
            "--set", "sweep.variable=g", "--set", "sweep.start=0.1",
            "--set", "sweep.stop=0.3", "--set", "sweep.steps=3",
            "--set", "channel.tau1=0.7", "--set", "channel.loss2_db=20",
        )
        assert code == 0
        assert "# dark_count = 0.0" in out  # Bell scans default to no dark counts
        header, rows = csv_rows(out)
        assert header == ["g[-]", "mu[pairs/mode]", "S_squash[-]", "S_discard[-]"]
        assert len(rows) == 3
        for row in rows:
            assert 0.0 < float(row[2]) <= 2 * math.sqrt(2) + 1e-9

    def test_explicit_dark_count_respected(self, capsys):
        code, out, _ = run(
            capsys, "chsh",
            "--set", "detector.dark_count=1e-3",
            "--set", "sweep.variable=g", "--set", "sweep.start=0.3",
            "--set", "sweep.stop=0.3", "--set", "sweep.steps=1",
        )
        assert code == 0
        assert "# dark_count = 0.001" in out


class TestKeyrate:
    def test_per_second_scaling(self, capsys):
        args = [
            "keyrate", "--set", "sweep.variable=g", "--set", "sweep.start=0.3",
            "--set", "sweep.stop=0.3", "--set", "sweep.steps=1",
        ]
        _, per_mode, _ = run(capsys, *args)
        _, per_second, _ = run(capsys, *args, "--set", "output.per_second=true")
        _, mode_rows = csv_rows(per_mode)
        header, second_rows = csv_rows(per_second)
        assert "rsift[bits/s]" in header
        ratio = float(second_rows[0][3]) / float(mode_rows[0][3])
        assert ratio == pytest.approx(1.0 / 6.25e-9, rel=1e-12)


#: A mu sweep at a nonzero dark count, rates per second.
MU_SWEEP = [
    "sweep.variable=mu", "sweep.start=0.01", "sweep.stop=0.6", "sweep.steps=9",
    "channel.loss2_db=30", "detector.dark_count=1e-5", "output.per_second=true",
]


def mu_sweep_rows(name, *settings):
    """Config of ``MU_SWEEP`` plus ``settings``, and the CLI rows of
    ``name``, each with the source of its point."""
    cfg = parse_config("", [*MU_SWEEP, *settings])
    _, rows = csv_rows(run_subcommand(name, cfg))
    mus = np.linspace(0.01, 0.6, 9).tolist()
    assert len(rows) == len(mus)
    return cfg, [(row, SourceParams.from_mean_photon_number(mu)) for row, mu in zip(rows, mus)]


class TestBatchedSweepsMatchOnePointCalls:
    """``chsh`` and ``keyrate`` evaluate a sweep in one array call per
    figure; every cell is the one-point library call's float."""

    def test_chsh(self):
        cfg, rows = mu_sweep_rows("chsh")
        channel = cfg.channel_params()
        for row, source in rows:
            expected = [
                source.g,
                source.mean_photon_number(),
                *(chsh(source, channel, model) for model in PostprocessingModel),
            ]
            assert hexes(row) == hexes(expected)

    @pytest.mark.parametrize("model", list(PostprocessingModel), ids=lambda m: m.value)
    def test_keyrate(self, model):
        cfg, rows = mu_sweep_rows("keyrate", f"model={model.value}")
        channel = cfg.channel_params()
        scale = 1.0 / COHERENCE_TIME_S
        for row, source in rows:
            qber, r_sift = qber_and_sift(source, channel, model)
            expected = [
                source.g,
                source.mean_photon_number(),
                qber,
                r_sift * scale,
                secure_rate(qber, r_sift) * scale,
            ]
            assert hexes(row) == hexes(expected)

    @pytest.mark.parametrize("name", ["chsh", "keyrate"])
    def test_rejects_other_variables(self, capsys, name):
        code, out, err = run(
            capsys, name, "--set", "sweep.variable=tau1",
            "--set", "sweep.start=0.1", "--set", "sweep.stop=0.5",
            "--set", "sweep.steps=3",
        )
        assert code == 2 and out == ""
        assert err == (
            "hbepp-link: error: sweep.variable: expected g or mu for this "
            "subcommand, got 'tau1'\n"
        )


@pytest.mark.parametrize(
    "name, variable",
    [
        ("chsh", "tau1"),
        ("keyrate", "loss2_db"),
        ("optimize", "loss2_db"),
        ("sweep", "g"),
        ("oracle-check", "theta1_deg"),
    ],
)
def test_refuses_a_sweep_variable_it_cannot_take(capsys, name, variable):
    code, out, err = run(capsys, name, *sets(*one_value_sweep(variable)))
    assert code == 2 and out == ""
    assert err.startswith("hbepp-link: error: sweep.variable:")
    assert f"got {variable!r}" in err


class TestOptimizeAndSweep:
    def test_optimize_block(self, capsys):
        code, out, _ = run(capsys, "optimize", "--set", "channel.loss2_db=30")
        assert code == 0
        lines = dict(
            line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
        )
        assert 0.05 <= float(lines["mu_opt"]) <= 0.2

    def test_deep_loss_without_dark_counts(self, capsys):
        code, _, err = run(
            capsys, "optimize", "--set", "channel.loss2_db=90",
            "--set", "detector.dark_count=0",
        )
        assert code == 0, err

    def test_deep_loss_without_dark_counts_67_5_db(self, capsys):
        code, _, err = run(
            capsys, "optimize", "--set", "channel.loss2_db=67.5",
            "--set", "detector.dark_count=0",
        )
        assert code == 0, err

    def test_deep_loss_without_dark_counts_120_db(self, capsys):
        code, _, err = run(
            capsys, "optimize", "--set", "channel.loss2_db=120",
            "--set", "detector.dark_count=0",
        )
        assert code == 0, err

    def test_sweep_emits_ratio_and_min(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--set", "source.mu=0.1",
            "--set", "sweep.variable=loss2_db", "--set", "sweep.start=20",
            "--set", "sweep.stop=45", "--set", "sweep.steps=3",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header[0] == "loss2_db[dB]" and header[-1] == "ratio[-]"
        assert len(rows) == 3
        min_line = [l for l in out.splitlines() if l.startswith("# min_ratio")]
        assert len(min_line) == 1
        min_ratio = float(min_line[0].split("=")[1])
        assert min_ratio == pytest.approx(min(float(r[-1]) for r in rows), abs=1e-15)

    @pytest.mark.parametrize("settings, mu_fixed", [([], "0.037"), (["source.mu=0.05"], "0.05")])
    def test_sweep_prints_the_configured_brightness(self, capsys, settings, mu_fixed):
        code, out, _ = run(capsys, "sweep", *sets(*settings, *one_value_sweep("loss2_db", 1)))
        assert code == 0
        assert out.splitlines()[1] == f"# mu_fixed = {mu_fixed}"
        # rsec_fixed is the one-point rate at exactly the configured gain
        cfg = parse_config("", [*settings, "channel.loss2_db=30"])
        qber, r_sift = qber_and_sift(cfg.source_params(), cfg.channel_params(), cfg.model)
        _, (row,) = csv_rows(out)
        assert float(row[1]) == secure_rate(qber, r_sift)

    def test_sweep_rate_is_at_exactly_the_configured_gain(self, capsys):
        # gains whose round trip through mu lands on another gain, with a
        # different rate there: rsec_fixed is still the one-point rate at
        # the configured source.g, to the bit
        rng = random.Random(1)
        channel = parse_config("", ["channel.loss2_db=30"]).channel_params()

        def rate(source):
            return secure_rate(*qber_and_sift(source, channel))

        gains = []
        while len(gains) < 5:
            g = rng.uniform(0.03, 0.5)
            round_trip = SourceParams.from_mean_photon_number(SourceParams(g).mean_photon_number())
            if round_trip.g != g and rate(round_trip) != rate(SourceParams(g)):
                gains.append(g)
        for g in gains:
            settings = sets(f"source.g={g!r}", *one_value_sweep("loss2_db", 1))
            code, out, _ = run(capsys, "sweep", *settings)
            assert code == 0
            _, (row,) = csv_rows(out)
            assert float(row[1]).hex() == rate(SourceParams(g)).hex()

    def test_sweep_rejects_other_variables(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--set", "sweep.variable=g",
            "--set", "sweep.start=0.1", "--set", "sweep.stop=0.2",
            "--set", "sweep.steps=2",
        )
        assert code == 2
        assert err.startswith("hbepp-link: error: sweep.variable:")
        assert "loss2_db" in err


class TestOracleCheck:
    def _run(self, capsys, *extra):
        code, out, _ = run(capsys, "oracle-check", *extra)
        assert code == 0
        lines = dict(
            line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
        )
        return float(lines["max_abs_deviation[-]"]), float(lines["truncation_bound[-]"])

    def test_deviation_tracks_truncation_bound(self, capsys, monkeypatch):
        # reduced n_max keeps this quick; the tail bound dominates the error
        calls = record_tables(monkeypatch)
        deviation, bound = self._run(capsys, "--set", "oracle.n_max=25")
        assert deviation <= bound + 1e-10
        # the 36 grid points in one table call, each column its one-point table
        assert len(calls) == 1 and calls[0][1].shape == (16, 36)
        inputs, table = calls[0]
        for k, (g, tau1, tau2, dark, theta) in enumerate(zip(*(v.tolist() for v in inputs))):
            point = outcome_probabilities(
                SourceParams(g), ChannelParams(tau1, tau2, dark), MeasurementAngles(theta, 0.0)
            )
            assert [v.hex() for v in table[:, k].tolist()] == [v.hex() for v in point.values]

    def test_default_grid_beats_threshold(self, capsys):
        deviation, bound = self._run(capsys)
        assert deviation < 1e-9
        assert deviation <= bound + 1e-10

    def test_large_truncation(self, capsys):
        deviation, bound = self._run(capsys, "--set", "oracle.n_max=100")
        assert deviation <= bound + 1e-10


class TestErrorsAndIO:
    def test_bad_config_exits_nonzero(self, capsys):
        code, out, err = run(capsys, "probs", "--set", "source.g=1.5")
        assert code == 2 and out == ""
        assert "source.g" in err

    @pytest.mark.parametrize(
        "key, settings",
        [
            ("angles.theta1_deg", ["angles.theta1_deg=nan"]),
            ("angles.theta1_deg", ["angles.theta1_deg=inf"]),
            ("channel.loss2_db", ["channel.loss2_db=inf"]),
            ("channel.loss1_db", ["channel.loss1_db=-1"]),
            ("source.mu", ["source.mu=1e17"]),  # g rounds to 1
            ("sweep.start", ["sweep.variable=tau2", "sweep.start=nan",
                             "sweep.stop=0.5", "sweep.steps=3"]),
            ("sweep.start", ["sweep.variable=tau2", "sweep.start=0",
                             "sweep.stop=0.5", "sweep.steps=3"]),
            ("sweep.steps", ["sweep.steps=3"]),
            ("oracle.n_max", ["oracle.n_max=201"]),
            ("oracle.n_max", ["oracle.n_max=1000000000"]),
            ("sweep.steps", ["sweep.variable=loss2_db", "sweep.start=20",
                             "sweep.stop=45", "sweep.steps=10001"]),
            ("sweep.steps", ["sweep.variable=loss2_db", "sweep.start=20",
                             "sweep.stop=45", "sweep.steps=1e9"]),
            ("source.g", ["source.g=0"]),  # the sweep needs a brightness > 0
            ("source.mu", ["source.mu=0"]),
        ],
    )
    def test_rejection_starts_with_key(self, capsys, key, settings):
        argv = [arg for setting in settings for arg in ("--set", setting)]
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"hbepp-link: error: {key}")

    @pytest.mark.parametrize("name, setting", [
        ("chsh", "channel.loss2_db=3200"),
        ("probs", "channel.tau2=1e-320"),
    ])
    def test_subnormal_transmittance_exits_2(self, capsys, name, setting):
        # a subnormal tau2 (1e-320) has lost bits the click statistics
        # need: the run stops before any table, naming the key
        code, out, err = run(capsys, name, "--set", setting)
        assert code == 2 and out == ""
        assert err.startswith(f"hbepp-link: error: {setting.split('=')[0]}: ")

    def test_loss_just_above_the_floor_runs(self, capsys):
        # 3075 dB keeps tau2 normal, and S has long reached its deep-loss
        # limit: the 3000 dB values to within 1e-12
        values = []
        for loss in (3000, 3075):
            code, out, _ = run(capsys, "chsh", "--set", f"channel.loss2_db={loss}")
            assert code == 0
            values.append([[float(cell) for cell in row[2:]] for row in csv_rows(out)[1]])
        assert np.max(np.abs(np.subtract(*values))) <= 1e-12

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "probs", "--config", "/nonexistent/path.cfg")
        assert code == 2 and "error" in err

    def test_unknown_subcommand_via_dispatch(self):
        with pytest.raises(ConfigError, match="unknown subcommand"):
            run_subcommand("fourier", parse_config(""))

    def test_out_file_written_atomically(self, tmp_path, capsys):
        target = tmp_path / "probs.txt"
        umask = os.umask(0o027)
        try:
            code, out, _ = run(capsys, "probs", "--out", str(target))
        finally:
            os.umask(umask)
        assert code == 0 and out == ""
        assert stat.S_IMODE(target.stat().st_mode) == 0o640  # as open() would create it
        assert target.read_text().startswith("result = click-pattern probabilities")
        assert list(tmp_path.iterdir()) == [target]  # no temp file left behind

    def test_failed_out_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()  # the rename over a directory fails
        code, out, err = run(capsys, "probs", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("hbepp-link: error:")
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("# scenario\nsource.mu = 0.1\nchannel.loss2_db = 25\n")
        code, out, _ = run(
            capsys, "optimize", "--config", str(cfg), "--set", "channel.loss2_db=30",
        )
        assert code == 0
        assert "tau2 = 0.001" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["probs", "--set", "angles.theta1_deg=33.3"],
            [
                "keyrate", "--set", "sweep.variable=mu", "--set", "sweep.start=0.05",
                "--set", "sweep.stop=0.15", "--set", "sweep.steps=3",
            ],
            ["optimize"],
        ],
    )
    def test_identical_config_identical_bytes(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
