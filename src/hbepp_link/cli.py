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
import csv
import io
import math
import os
import sys
import tempfile
from typing import Sequence

import numpy as np

from .analytic import outcome_probabilities
from .config import (
    COHERENCE_TIME_S,
    SWEEP_UNITS,
    SWEEP_VARIABLES,
    ConfigError,
    ScenarioConfig,
    parse_config,
    with_source_value,
)
from .fock import oracle_probabilities, truncation_error_bound
from .keyrate import key_rate_report, optimize_gain, passive_performance
from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import CANONICAL_PATTERNS
from .postprocess import PostprocessingModel, chsh

SUBCOMMANDS = ("probs", "chsh", "keyrate", "optimize", "sweep", "oracle-check")

#: Sweep variables of ``chsh`` and ``keyrate``; the first is the default.
_SOURCE_VARIABLES = ("g", "mu")

#: Grid for the analytic-vs-brute-force comparison.
_ORACLE_GRID_G = (0.1, 0.4, 0.7)
_ORACLE_GRID_TAU1 = (0.7,)
_ORACLE_GRID_TAU2 = (0.01, 0.5)
_ORACLE_GRID_THETA_DEG = (0.0, 40.1, 90.0)
_ORACLE_GRID_DARK = (0.0, 1e-3)


def _fmt(value: float) -> str:
    return repr(float(value))


def _kv_block(title: str, items: list[tuple[str, str]]) -> str:
    lines = [f"result = {title}"]
    lines += [f"{key} = {val}" for key, val in items]
    return "\n".join(lines) + "\n"


def _csv_output(preamble: list[str], header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    for line in preamble:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _rate_unit(cfg: ScenarioConfig) -> str:
    return "bits/s" if cfg.per_second else "bits/mode"


def _rate_scale(cfg: ScenarioConfig) -> float:
    return 1.0 / COHERENCE_TIME_S if cfg.per_second else 1.0


def _column(variable: str) -> str:
    return f"{variable}[{SWEEP_UNITS[variable]}]"


def _channel_preamble(channel: ChannelParams) -> list[str]:
    return [
        f"tau1 = {_fmt(channel.tau1)}",
        f"tau2 = {_fmt(channel.tau2)}",
        f"dark_count = {_fmt(channel.dark_count)}",
    ]


def _run_probs(cfg: ScenarioConfig) -> str:
    source = cfg.source_params()
    channel = cfg.channel_params()
    if cfg.sweep_variable is None:
        angles = cfg.angles()
        table = outcome_probabilities(source, channel, angles).as_dict()
        items = [
            ("g", _fmt(source.g)),
            ("mu", _fmt(source.mean_photon_number())),
            ("tau1", _fmt(channel.tau1)),
            ("tau2", _fmt(channel.tau2)),
            ("dark_count", _fmt(channel.dark_count)),
            ("theta1_deg", _fmt(cfg.theta1_deg)),
            ("theta2_deg", _fmt(cfg.theta2_deg)),
        ]
        items += [
            (f"P_{p.bits()}[-]", _fmt(table[p])) for p in CANONICAL_PATTERNS
        ]
        items.append(("sum[-]", _fmt(sum(table.values()))))
        return _kv_block("click-pattern probabilities", items)

    var, start, stop, steps = cfg.sweep_or(
        ("theta1_deg", *SWEEP_VARIABLES), 0.0, 180.0, 61
    )
    header = [_column(var)] + [
        f"P_{p.bits()}[-]" for p in CANONICAL_PATTERNS
    ]
    rows = []
    for value in np.linspace(start, stop, steps):
        point = with_source_value(cfg, var, float(value))
        table = outcome_probabilities(
            point.source_params(), point.channel_params(), point.angles()
        ).as_dict()
        rows.append([_fmt(value)] + [_fmt(table[p]) for p in CANONICAL_PATTERNS])
    preamble = [
        "hbepp-link probs",
        f"g = {_fmt(source.g)}",
        *_channel_preamble(channel),
        f"theta2_deg = {_fmt(cfg.theta2_deg)}",
    ]
    return _csv_output(preamble, header, rows)


def _run_chsh(cfg: ScenarioConfig) -> str:
    # Bell-test scans default to dark-count-free detectors; an explicitly
    # configured detector.dark_count still wins.
    channel = cfg.channel_params(default_dark_count=0.0)
    var, start, stop, steps = cfg.sweep_or(_SOURCE_VARIABLES, 0.05, 0.9, 50)
    header = [
        *map(_column, _SOURCE_VARIABLES),
        "S_squash[-]",
        "S_discard[-]",
    ]
    rows = []
    for value in np.linspace(start, stop, steps):
        point = with_source_value(cfg, var, float(value))
        source = point.source_params()
        rows.append(
            [
                _fmt(source.g),
                _fmt(source.mean_photon_number()),
                _fmt(chsh(source, channel, PostprocessingModel.SQUASH)),
                _fmt(chsh(source, channel, PostprocessingModel.DISCARD)),
            ]
        )
    preamble = ["hbepp-link chsh", *_channel_preamble(channel)]
    return _csv_output(preamble, header, rows)


def _run_keyrate(cfg: ScenarioConfig) -> str:
    channel = cfg.channel_params()
    scale = _rate_scale(cfg)
    unit = _rate_unit(cfg)
    var, start, stop, steps = cfg.sweep_or(_SOURCE_VARIABLES, 0.05, 0.9, 50)
    header = [
        *map(_column, _SOURCE_VARIABLES),
        "qber[-]",
        f"rsift[{unit}]",
        f"rsec[{unit}]",
    ]
    rows = []
    for value in np.linspace(start, stop, steps):
        point = with_source_value(cfg, var, float(value))
        source = point.source_params()
        report = key_rate_report(source, channel, cfg.model)
        rows.append(
            [
                _fmt(source.g),
                _fmt(source.mean_photon_number()),
                _fmt(report.qber),
                _fmt(report.sifted_rate * scale),
                _fmt(report.secure_rate * scale),
            ]
        )
    preamble = [
        "hbepp-link keyrate",
        f"model = {cfg.model.value}",
        *_channel_preamble(channel),
    ]
    return _csv_output(preamble, header, rows)


def _run_optimize(cfg: ScenarioConfig) -> str:
    channel = cfg.channel_params()
    result = optimize_gain(channel)
    scale = _rate_scale(cfg)
    unit = _rate_unit(cfg)
    items = [
        ("tau1", _fmt(channel.tau1)),
        ("tau2", _fmt(channel.tau2)),
        ("dark_count", _fmt(channel.dark_count)),
        ("g_opt", _fmt(result.g_opt) if result.found else "undefined"),
        ("mu_opt", _fmt(result.mu_opt) if result.found else "undefined"),
        (f"secure_rate_at_opt[{unit}]", _fmt(result.secure_rate_at_opt * scale)),
        ("iterations", str(result.iterations)),
        ("bracket_lo", _fmt(result.bracket[0])),
        ("bracket_hi", _fmt(result.bracket[1])),
    ]
    return _kv_block("optimized source brightness", items)


def _run_sweep(cfg: ScenarioConfig) -> str:
    var, start, stop, steps = cfg.sweep_or(("loss2_db",), 20.0, 45.0, 26)
    channel_base = cfg.channel_params()
    mu_fixed = cfg.source_params().mean_photon_number()
    result = passive_performance(
        mu_fixed, channel_base, [float(v) for v in np.linspace(start, stop, steps)]
    )
    scale = _rate_scale(cfg)
    unit = _rate_unit(cfg)
    header = [
        _column(var),
        f"rsec_fixed[{unit}]",
        "mu_opt[pairs/mode]",
        f"rsec_opt[{unit}]",
        "ratio[-]",
    ]
    rows = []
    for point in result.points:
        rows.append(
            [
                _fmt(point.loss2_db),
                _fmt(point.secure_rate_fixed * scale),
                _fmt(point.mu_opt) if point.mu_opt is not None else "undefined",
                _fmt(point.secure_rate_optimal * scale),
                _fmt(point.ratio) if point.ratio is not None else "undefined",
            ]
        )
    preamble = [
        "hbepp-link sweep",
        f"mu_fixed = {_fmt(mu_fixed)}",
        f"tau1 = {_fmt(channel_base.tau1)}",
        f"dark_count = {_fmt(channel_base.dark_count)}",
        "min_ratio = "
        + (_fmt(result.min_ratio) if result.min_ratio is not None else "undefined"),
    ]
    return _csv_output(preamble, header, rows)


def _run_oracle_check(cfg: ScenarioConfig) -> str:
    n_max = cfg.n_max
    worst = 0.0
    worst_bound = 0.0
    points = 0
    for g in _ORACLE_GRID_G:
        source = SourceParams(g)
        worst_bound = max(worst_bound, truncation_error_bound(g, n_max))
        for tau1 in _ORACLE_GRID_TAU1:
            for tau2 in _ORACLE_GRID_TAU2:
                for dark in _ORACLE_GRID_DARK:
                    channel = ChannelParams(tau1=tau1, tau2=tau2, dark_count=dark)
                    for theta_deg in _ORACLE_GRID_THETA_DEG:
                        angles = MeasurementAngles(math.radians(theta_deg), 0.0)
                        analytic = outcome_probabilities(source, channel, angles)
                        oracle = oracle_probabilities(source, channel, angles, n_max)
                        dev = max(
                            abs(a - b)
                            for a, b in zip(analytic.values, oracle.values)
                        )
                        worst = max(worst, dev)
                        points += 1
    items = [
        ("n_max", str(n_max)),
        ("grid_points", str(points)),
        ("max_abs_deviation[-]", _fmt(worst)),
        ("truncation_bound[-]", _fmt(worst_bound)),
    ]
    return _kv_block("closed form vs brute force", items)


_RUNNERS = {
    "probs": _run_probs,
    "chsh": _run_chsh,
    "keyrate": _run_keyrate,
    "optimize": _run_optimize,
    "sweep": _run_sweep,
    "oracle-check": _run_oracle_check,
}


def run_subcommand(name: str, cfg: ScenarioConfig) -> str:
    """Execute a subcommand against a parsed scenario, returning its output."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown subcommand {name!r}")
    return _RUNNERS[name](cfg)


def _write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hbepp-link-")
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
    helps = {
        "probs": "16-entry click-pattern table, optionally swept over an angle",
        "chsh": "CHSH value vs source gain for squash and discard post-processing",
        "keyrate": "QBER, sifted and secure key rates vs source gain",
        "optimize": "source gain maximizing the secure rate for the channel",
        "sweep": "fixed-brightness vs optimized secure rate over Bob's loss",
        "oracle-check": "closed form vs truncated-Fock brute force deviation",
    }
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", metavar="FILE", help="scenario config file")
        p.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="overrides",
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
