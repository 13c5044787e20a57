"""Seeded workloads of the hbepp-link benchmark.

Each workload is a function ``(hb, seed) -> iterator of Op``. ``hb`` is the
imported ``hbepp_link`` package; ops look its functions up through the
package at call time, so the traced run sees them through its wrappers. The
stream is endless and depends only on the seed; the harness takes ops from
it until the run's time is up, so no input repeats within a run.

An op's ``run`` is the timed call. ``check`` runs untimed right after it
and returns a failure reason or None. ``deferred``, when set, is a slower
check run after the timed loop (outside every timed region). An op with
``timed`` false is run and checked but left out of the timing statistics.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

ORACLE_N_MAX = 40

#: Paper anchors of the fixed-brightness sweep, with the acceptance
#: tolerances of Tier-1 criterion 6.
ANCHOR_MIN_RATIO = {0.1: (0.997, 0.005)}
ANCHOR_ENDPOINT_RATIOS = {0.037: ((0.625, 0.03), (0.66, 0.03))}
ANCHOR_MUS = (0.1, 0.037)
ANCHOR_STEPS = 26

#: Bob-loss points per seeded sweep op. Kept fixed so every seeded op does
#: the same work (one ``optimize_gain`` per point) and the per-op latency
#: does not depend on the seed.
SEEDED_SWEEP_STEPS = 2

#: Share of point-queries ops (with g <= 0.7) whose table is also compared
#: with the oracle after the run; the first op is always a candidate.
POINT_ORACLE_SHARE = 1.0 / 500.0


@dataclass(slots=True)
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    inputs: dict[str, Any] = field(default_factory=dict)
    deferred: Callable[[], str | None] | None = None
    timed: bool = True


def _rng(seed: int, workload: str) -> random.Random:
    # String seeds hash deterministically, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# --- passive-sweep -----------------------------------------------------------


def sweep_config(
    mu: float, start: float, stop: float, steps: int, extra: dict[str, float] | None = None
) -> str:
    """CLI config for one ``sweep`` run; all four ``sweep.*`` keys are set."""
    lines = [f"source.mu = {mu!r}"]
    lines += [f"{key} = {value!r}" for key, value in (extra or {}).items()]
    lines += [
        "sweep.variable = loss2_db",
        f"sweep.start = {start!r}",
        f"sweep.stop = {stop!r}",
        f"sweep.steps = {steps}",
    ]
    return "\n".join(lines) + "\n"


def _parse_sweep_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """(preamble key/values, rows keyed by header) of ``sweep`` output."""
    preamble = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if sep:
                preamble[key] = value
        else:
            body.append(line)
    return preamble, list(csv.DictReader(body))


def _check_sweep(text: str, mu: float, steps: int) -> str | None:
    preamble, rows = _parse_sweep_csv(text)
    if len(rows) != steps:
        return f"sweep printed {len(rows)} rows, expected {steps}"
    ratios = []
    for row in rows:
        ratio = row["ratio[-]"]
        if ratio == "undefined":
            ratios.append(None)
            continue
        value = float(ratio)
        if not value <= 1.0 + 1e-9:
            return f"ratio {value!r} > 1 at loss2_db={row['loss2_db[dB]']}"
        ratios.append(value)
    if mu in ANCHOR_MIN_RATIO:
        target, tol = ANCHOR_MIN_RATIO[mu]
        got = float(preamble["min_ratio"])
        if abs(got - target) > tol:
            return f"mu={mu}: min_ratio {got!r}, expected {target} +- {tol}"
    if mu in ANCHOR_ENDPOINT_RATIOS:
        for got, (target, tol), where in zip(
            (ratios[0], ratios[-1]), ANCHOR_ENDPOINT_RATIOS[mu], ("first", "last")
        ):
            if got is None or abs(got - target) > tol:
                return f"mu={mu}: {where} ratio {got!r}, expected {target} +- {tol}"
    return None


def _sweep_op(hb, text: str, mu: float, steps: int, anchor: bool = False) -> Op:
    cfg = hb.config.parse_config(text)
    return Op(
        kind="anchor" if anchor else "sweep",
        run=lambda: hb.cli.run_subcommand("sweep", cfg),
        check=lambda out: _check_sweep(out, mu, steps),
        inputs={"config": text},
        timed=not anchor,
    )


def passive_sweep(hb, seed: int) -> Iterator[Op]:
    """Fixed-brightness sweeps: both paper anchors, then seeded sweeps.

    Each op is one ``sweep`` subcommand run in-process on a parsed config.
    The anchors are checked but not timed: they take 2-3 s each against
    0.15 s for a seeded op, so how many seeded ops a run fits (which varies
    with the host's speed) would otherwise shift every timing statistic.
    """
    for mu in ANCHOR_MUS:
        text = sweep_config(mu, 20.0, 45.0, ANCHOR_STEPS)
        yield _sweep_op(hb, text, mu, ANCHOR_STEPS, anchor=True)
    rng = _rng(seed, "passive-sweep")
    while True:
        mu = _log_uniform(rng, 0.01, 0.2)
        loss1 = rng.uniform(0.0, 3.0)
        dark = _log_uniform(rng, 1e-7, 1e-5)
        start, stop = sorted(rng.uniform(20.0, 45.0) for _ in range(2))
        extra = {"channel.loss1_db": loss1, "detector.dark_count": dark}
        text = sweep_config(mu, start, stop, SEEDED_SWEEP_STEPS, extra)
        yield _sweep_op(hb, text, mu, SEEDED_SWEEP_STEPS)


# --- point-queries -----------------------------------------------------------


def _check_table(table, rounding: float) -> str | None:
    # Raw entries may sit a few ulps below zero; the package allows that
    # much rounding and clamps it away at its output boundaries.
    for v in table.values:
        if not -rounding <= v <= 1.0:
            return f"table entry {v!r} outside [0, 1]"
    if abs(table.total() - 1.0) > 1e-9:
        return f"table sums to {table.total()!r}"
    return None


def _check_chsh(value: float, squash: bool, tsirelson: float) -> str | None:
    if not 0.0 <= value <= 4.0:
        return f"CHSH value {value!r} outside [0, 4]"
    if squash and value > tsirelson + 1e-9:
        return f"squash CHSH value {value!r} above the Tsirelson bound"
    return None


def _check_qber(result: tuple[float, float]) -> str | None:
    eps, r_sift = result
    if not (0.0 <= eps <= 1.0 and 0.0 <= r_sift <= 0.5):
        return f"qber/sift {result!r} outside [0, 1] x [0, 0.5]"
    return None


def _deviation(first, second) -> float:
    return max(abs(a - b) for a, b in zip(first.values, second.values))


def _point_oracle_check(hb, source, channel, angles) -> str | None:
    dev = _deviation(
        hb.outcome_probabilities(source, channel, angles),
        hb.oracle_probabilities(source, channel, angles, ORACLE_N_MAX),
    )
    if not dev <= 1e-9:
        return f"closed form deviates from the oracle by {dev!r}"
    return None


def point_queries(hb, seed: int) -> Iterator[Op]:
    """Single-point library calls, rotating table / CHSH / QBER."""
    rng = _rng(seed, "point-queries")
    squash, discard = hb.PostprocessingModel.SQUASH, hb.PostprocessingModel.DISCARD
    index = 0
    while True:
        g = rng.uniform(0.01, 0.9)
        loss1 = rng.uniform(0.0, 10.0)
        loss2 = rng.uniform(0.0, 60.0)
        dark = _log_uniform(rng, 1e-8, 1e-3)
        theta = rng.uniform(0.0, math.pi)
        model = squash if rng.random() < 0.5 else discard
        sampled = rng.random() < POINT_ORACLE_SHARE
        source = hb.SourceParams(g)
        channel = hb.ChannelParams.from_db_losses(loss1, loss2, dark)
        angles = hb.MeasurementAngles(theta, 0.0)
        kind = ("table", "chsh", "qber")[index % 3]
        if kind == "table":
            run = lambda s=source, c=channel, a=angles: hb.outcome_probabilities(s, c, a)
            check = lambda t: _check_table(t, hb.patterns.NEGATIVE_TOLERANCE)
        elif kind == "chsh":
            run = lambda s=source, c=channel, m=model: hb.chsh(s, c, m)
            check = lambda v, sq=model is squash: _check_chsh(v, sq, hb.TSIRELSON_BOUND)
        else:
            run = lambda s=source, c=channel, m=model: hb.qber_and_sift(s, c, m)
            check = _check_qber
        deferred = None
        if (sampled or index == 0) and g <= 0.7:
            deferred = lambda s=source, c=channel, a=angles: _point_oracle_check(hb, s, c, a)
        yield Op(
            kind=kind,
            run=run,
            check=check,
            inputs={"g": g, "loss1_db": loss1, "loss2_db": loss2, "dark": dark, "theta": theta},
            deferred=deferred,
        )
        index += 1


# --- oracle-points -----------------------------------------------------------


def _check_oracle(result, g: float, bound: float) -> str | None:
    dev = _deviation(*result)
    if not (dev < 1e-9 and dev <= bound + 1e-10):
        return f"g={g}: oracle deviation {dev!r} (truncation bound {bound!r})"
    return None


def oracle_points(hb, seed: int) -> Iterator[Op]:
    """Truncated-Fock oracle at n_max = 40, then the closed form to compare.

    Points are drawn as Tier-1 criterion 2 draws them; theta2 = 0 on every
    point, theta1 never repeats.
    """
    rng = _rng(seed, "oracle-points")
    while True:
        g = rng.uniform(0.0, 0.7)
        tau1 = rng.uniform(0.01, 1.0 - 1e-12)
        tau2 = rng.uniform(0.01, 1.0 - 1e-12)
        dark = rng.choice((0.0, 1e-3))
        theta1 = rng.uniform(0.0, math.pi)
        source = hb.SourceParams(g)
        channel = hb.ChannelParams(tau1=tau1, tau2=tau2, dark_count=dark)
        angles = hb.MeasurementAngles(theta1, 0.0)
        bound = hb.truncation_error_bound(g, ORACLE_N_MAX)

        def run(s=source, c=channel, a=angles):
            oracle = hb.oracle_probabilities(s, c, a, ORACLE_N_MAX)
            return oracle, hb.outcome_probabilities(s, c, a)

        yield Op(
            kind="oracle",
            run=run,
            check=lambda result, g=g, b=bound: _check_oracle(result, g, b),
            inputs={"g": g, "tau1": tau1, "tau2": tau2, "dark": dark,
                    "theta1": theta1, "theta2": 0.0},
        )


WORKLOADS = {
    "passive-sweep": passive_sweep,
    "point-queries": point_queries,
    "oracle-points": oracle_points,
}
