"""Command-line interface.

Subcommands: ``probs``, ``chsh``, ``keyrate``, ``optimize``, ``sweep``,
``oracle-check``. Each reads an optional config file plus ``--set``
overrides, writes its result to stdout or ``--out`` (atomically), and is
fully deterministic: the same configuration yields byte-identical output.
Sweeps emit CSV with a ``#`` metadata preamble; single results emit
self-describing ``key = value`` text.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

from .analytic import outcome_probability_array
from .config import (
    COHERENCE_TIME_S, SWEEPABLE, SWEEP_VARIABLES, ConfigError, ScenarioConfig,
    parse_config,
)
from .fock import oracle_probabilities, truncation_error_bound
from .keyrate import _qber_and_sift, optimize_gain, passive_performance, secure_rate
from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import CANONICAL_PATTERNS, left_to_right_sum
from .postprocess import PostprocessingModel, _chsh

#: Sweep variables of ``chsh`` and ``keyrate``; the first is the default.
_SOURCE_VARIABLES = ("g", "mu")

#: Analytic-vs-brute-force grid, one axis each for g, tau1, tau2, the dark
#: count and theta1 (theta2 is 0).
_ORACLE_GRID = ((0.1, 0.4, 0.7), (0.7,), (0.01, 0.5), (0.0, 1e-3),
                tuple(map(math.radians, (0.0, 40.1, 90.0))))

_PATTERN_COLUMNS = [f"P_{p.bits()}[-]" for p in CANONICAL_PATTERNS]


def _fmt(value: float | None) -> str:
    """One output cell: the shortest round-trip repr, or ``undefined``."""
    return "undefined" if value is None else repr(float(value))


def _kv(key: str, value: float | None) -> str:
    return f"{key} = {_fmt(value)}"


def _kv_block(title: str, lines: list[str]) -> str:
    return "\n".join([f"result = {title}", *lines]) + "\n"


def _csv_output(preamble: list[str], header: list[str], rows: list[list]) -> str:
    """CSV as joined lines: no cell holds a comma, quote or line break."""
    lines = [*(f"# {line}" for line in preamble), ",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _rate(cfg: ScenarioConfig) -> tuple[float, str]:
    """(scale, unit) of the key rates: per temporal mode, or per second."""
    return (1.0 / COHERENCE_TIME_S, "bits/s") if cfg.per_second else (1.0, "bits/mode")


def _column(variable: str) -> str:
    return f"{variable}[{SWEEPABLE[variable].unit}]"


def _channel_lines(channel: ChannelParams, keys=("tau1", "tau2", "dark_count")) -> list[str]:
    return [_kv(key, getattr(channel, key)) for key in keys]


def _source_sweep(cfg: ScenarioConfig) -> tuple[np.ndarray, list[list[float]]]:
    """The gains of a ``chsh`` or ``keyrate`` sweep, and each row's
    leading cells: its gain and mean photon number."""
    g = cfg.inputs(*cfg.sweep(_SOURCE_VARIABLES, (0.05, 0.9, 50)))[0]
    return g, [[gain, SourceParams(gain).mean_photon_number()] for gain in g.tolist()]


def _run_probs(cfg: ScenarioConfig) -> str:
    var, values = cfg.sweep(SWEEP_VARIABLES)
    source, channel = cfg.source_params(), cfg.channel_params()  # checks the base scenario
    settings = dict(
        g=source.g, mu=source.mean_photon_number(), tau1=channel.tau1, tau2=channel.tau2,
        dark_count=channel.dark_count, theta1_deg=cfg.theta1_deg, theta2_deg=cfg.theta2_deg,
    )
    tables = np.asarray(outcome_probability_array(*cfg.inputs(var, values)))
    # clamped into [0, 1] as ProbabilityTable.clamped: -0.0 prints as 0.0
    tables = np.where(tables > 0.0, np.minimum(tables, 1.0), 0.0)
    if var is None:
        table = tables.tolist()
        return _kv_block("click-pattern probabilities", [
            *map(_kv, settings, settings.values()),
            *map(_kv, _PATTERN_COLUMNS, table),
            _kv("sum[-]", left_to_right_sum(table)),
        ])
    rows = [[value, *column] for value, column in zip(values, tables.T.tolist())]
    # mu restates g, and the quantity the sweep sets varies by row
    left_out = {"mu", SWEEPABLE[var].sets}
    preamble = [
        "hbepp-link probs",
        *(_kv(key, value) for key, value in settings.items() if key not in left_out),
    ]
    return _csv_output(preamble, [_column(var), *_PATTERN_COLUMNS], rows)


def _run_chsh(cfg: ScenarioConfig) -> str:
    channel = cfg.channel_params()
    if cfg.dark_count is None:  # Bell-test scans default to dark-count-free detectors
        channel = replace(channel, dark_count=0.0)
    g, leading = _source_sweep(cfg)
    header = [
        *map(_column, _SOURCE_VARIABLES),
        *(f"S_{model.value}[-]" for model in PostprocessingModel),
    ]
    s_values = _chsh(g, channel.tau1, channel.tau2, channel.dark_count, tuple(PostprocessingModel))
    rows = [[*lead, *cells] for lead, *cells in zip(leading, *s_values)]
    return _csv_output(["hbepp-link chsh", *_channel_lines(channel)], header, rows)


def _run_keyrate(cfg: ScenarioConfig) -> str:
    channel = cfg.channel_params()
    scale, unit = _rate(cfg)
    g, leading = _source_sweep(cfg)
    header = [*map(_column, _SOURCE_VARIABLES), "qber[-]", f"rsift[{unit}]", f"rsec[{unit}]"]
    qber, r_sift = _qber_and_sift(g, channel.tau1, channel.tau2, channel.dark_count, cfg.model)
    columns = (qber, r_sift * scale, secure_rate(qber, r_sift) * scale)
    rows = [[*lead, *cells] for lead, *cells in zip(leading, *columns)]
    preamble = ["hbepp-link keyrate", f"model = {cfg.model.value}", *_channel_lines(channel)]
    return _csv_output(preamble, header, rows)


def _run_optimize(cfg: ScenarioConfig) -> str:
    cfg.sweep(())  # refuses a configured sweep
    channel = cfg.channel_params()
    result = optimize_gain(channel)
    scale, unit = _rate(cfg)
    lines = [
        *_channel_lines(channel),
        _kv("g_opt", result.g_opt),
        _kv("mu_opt", result.mu_opt),
        _kv(f"secure_rate_at_opt[{unit}]", result.secure_rate_at_opt * scale),
        f"iterations = {result.iterations}",
        _kv("bracket_lo", result.bracket[0]),
        _kv("bracket_hi", result.bracket[1]),
    ]
    return _kv_block("optimized source brightness", lines)


def _run_sweep(cfg: ScenarioConfig) -> str:
    var, losses = cfg.sweep(("loss2_db",), (20.0, 45.0, 26))
    channel = cfg.channel_params()
    key, value = cfg.source_setting()
    source = cfg.source_params()
    if source.g <= 0.0:
        raise ConfigError(f"{key}: sweep needs a source brightness above 0, got {value!r}")
    # the configured mu itself; rsec_fixed is at exactly the configured source
    mu_fixed = value if cfg.g is None else source.mean_photon_number()
    result = passive_performance(source, channel, losses)
    scale, unit = _rate(cfg)
    header = [
        _column(var),
        f"rsec_fixed[{unit}]",
        "mu_opt[pairs/mode]",
        f"rsec_opt[{unit}]",
        "ratio[-]",
    ]
    rows = [
        [
            point.loss2_db,
            point.secure_rate_fixed * scale,
            point.mu_opt,
            point.secure_rate_optimal * scale,
            point.ratio,
        ]
        for point in result.points
    ]
    preamble = [
        "hbepp-link sweep",
        _kv("mu_fixed", mu_fixed),
        *_channel_lines(channel, ("tau1", "dark_count")),
        _kv("min_ratio", result.min_ratio),
    ]
    return _csv_output(preamble, header, rows)


def _run_oracle_check(cfg: ScenarioConfig) -> str:
    cfg.sweep(())  # refuses a configured sweep
    n_max = cfg.n_max
    points = list(itertools.product(*_ORACLE_GRID))
    tables = outcome_probability_array(*np.array(points).T)
    deviations = []
    for (g, tau1, tau2, dark, theta1), column in zip(points, tables.T.tolist()):
        source, channel = SourceParams(g), ChannelParams(tau1, tau2, dark)
        oracle = oracle_probabilities(source, channel, MeasurementAngles(theta1, 0.0), n_max)
        deviations.append(max(abs(a - b) for a, b in zip(column, oracle.values)))
    bound = max(truncation_error_bound(g, n_max) for g in _ORACLE_GRID[0])
    lines = [
        f"n_max = {n_max}",
        f"grid_points = {len(deviations)}",
        _kv("max_abs_deviation[-]", max(deviations)),
        _kv("truncation_bound[-]", bound),
    ]
    return _kv_block("closed form vs brute force", lines)


#: Subcommand name -> (runner, help text), in ``--help`` order.
SUBCOMMANDS = {
    "probs": (_run_probs, "16-entry click-pattern table, optionally swept over any variable"),
    "chsh": (_run_chsh, "CHSH value vs source gain for squash and discard post-processing"),
    "keyrate": (_run_keyrate, "QBER, sifted and secure key rates vs source gain"),
    "optimize": (_run_optimize, "source gain maximizing the secure rate for the channel"),
    "sweep": (_run_sweep, "fixed-brightness vs optimized secure rate over Bob's loss"),
    "oracle-check": (_run_oracle_check, "closed form vs truncated-Fock brute force deviation"),
}


def run_subcommand(name: str, cfg: ScenarioConfig) -> str:
    """Execute a subcommand against a parsed scenario, returning its output."""
    if name not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}")
    return SUBCOMMANDS[name][0](cfg)


def _write_atomic(path: str, content: str) -> None:
    """Write a fresh sibling file and rename it over ``path``. The sibling is
    created as ``open(path, "w")`` would create it: mode 0o666 minus the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".hbepp-link-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbepp-link",
        description=(
            "Click statistics, CHSH values, and BBM92 key rates for a "
            "bright entangled-pair source over asymmetric lossy channels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="scenario config file")
        p.add_argument(
            "--set", metavar="KEY=VALUE", action="append", default=[], dest="overrides",
            help="override a config key (repeatable)",
        )
        p.add_argument("--out", metavar="FILE", help="write result to FILE")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            with open(args.config) as handle:
                text = handle.read()
        cfg = parse_config(text, overrides=args.overrides)
        output = run_subcommand(args.command, cfg)
        if args.out is not None:
            _write_atomic(args.out, output)
        else:
            sys.stdout.write(output)
    except (ConfigError, ValueError, ArithmeticError, OSError) as exc:
        print(f"hbepp-link: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
