"""Every number the key-rate, probability and CHSH goldens print, checked
against an exact reference.

``tests/test_cli_golden.py`` pins the CLI's bytes; these tests say how close
those bytes are to the true values. Each cell of a golden in
``tests/data/cli/`` is read back as the float it prints (every cell is a
shortest round-trip repr) and held within a stated number of ulps of the
float, ``math.ulp(value)``, of a reference computed from the same inputs:

* the key-rate goldens: the squash model's QBER and sifted rate from Ma,
  Fung & Lo's closed forms (``exact.squash_gain_and_error``), the discard
  model's by folding the exact theta = 0 table with ``postprocess._FOLDS``
  in ``Fraction``s, and the secure rate with H2 in ``decimal`` at 60
  digits, so these also check the package's binary entropy end to end;
* the probability goldens: every entry against
  ``exact.outcome_probabilities_exact`` at the inputs that
  ``ScenarioConfig.inputs`` gives the case's ``--set`` list;
* the CHSH goldens: S of the exact tables at the four angle differences,
  each folded and combined in ``Fraction``s;
* the optimum goldens (``optimize``, and ``mu_opt`` and ``rsec_opt`` of the
  sweeps): the maximum of the exact squash secure rate, whose gain is
  found by bisecting the sign of the exact rate's slope.

A later change that moves a golden on purpose cites these bounds instead of
measuring the moved cells by hand. Stdlib only: ``fractions`` and
``decimal``.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from hbepp_link.config import SWEEP_VARIABLES, parse_config
from hbepp_link.params import transmittance_from_db
from hbepp_link.postprocess import (
    ALICE_CHSH_ANGLES, BOB_CHSH_ANGLES, PostprocessingModel, _FOLDS,
)

from exact import outcome_probabilities_exact, squash_gain_and_error
from test_cli_golden import CASES, DATA

#: Digits of the ``decimal`` context that takes H2.
DIGITS = 60


def read_golden(case: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """A golden's ``key = value`` lines (a CSV's ``#`` preamble, or the whole
    of a one-point result), its CSV header and its rows (both empty for a
    one-point result)."""
    settings, table = {}, []
    for line in (DATA / f"{case}.txt").read_text().splitlines():
        if " = " in line:
            key, _, value = line.removeprefix("# ").partition(" = ")
            settings[key] = value
        elif not line.startswith("#"):
            table.append(line.split(","))
    header, *rows = table or [[]]
    return settings, header, rows


def ulps(value: float, reference) -> Fraction:
    """|value - reference| in units of ``math.ulp(value)``; ``reference`` a
    ``Fraction`` or a ``Decimal``."""
    return abs(Fraction(value) - Fraction(reference)) / Fraction(math.ulp(value))


def fold(table, model: PostprocessingModel) -> list[Fraction]:
    """The cells ++, +-, -+, -- of an exact table, by ``_FOLDS``' weights."""
    return [sum(Fraction(weight) * table[index] for index, weight in cell)
            for cell in _FOLDS[model]]


@functools.cache
def ln2() -> Decimal:
    """ln 2 to ``DIGITS`` digits."""
    with localcontext() as context:
        context.prec = DIGITS
        return Decimal(2).ln()


def h2(eps: Fraction) -> Decimal:
    """H2(eps) to ``DIGITS`` digits; 0 at eps = 0 and 1."""
    if eps in (0, 1):
        return Decimal(0)
    with localcontext() as context:
        context.prec = DIGITS
        e = Decimal(eps.numerator) / Decimal(eps.denominator)
        return -(e * e.ln() + (1 - e) * (1 - e).ln()) / ln2()


def secure(eps: Fraction, r_sift: Fraction) -> Decimal:
    """R_sift (1 - 2 H2(eps)), clamped at zero, to ``DIGITS`` digits."""
    with localcontext() as context:
        context.prec = DIGITS
        rate = Decimal(r_sift.numerator) / Decimal(r_sift.denominator) * (1 - 2 * h2(eps))
    return max(rate, Decimal(0))


def exact_key_rates(model, g, tau1, tau2, dark_count) -> tuple:
    """(QBER, sifted rate, secure rate): the QBER and sifted rate exact, the
    squash model's from Ma, Fung & Lo's forms and the discard model's from
    the folded theta = 0 table, (0, 0) without coincidences."""
    if model is PostprocessingModel.SQUASH:
        gain, eps = squash_gain_and_error(g, tau1, tau2, dark_count)
        r_sift = gain / 2
    else:
        table = outcome_probabilities_exact(g, tau1, tau2, 0.0, dark_count)
        n_pp, n_pm, n_mp, n_mm = fold(table, model)
        total = n_pp + n_pm + n_mp + n_mm
        eps, r_sift = ((n_pp + n_mm) / total, total / 2) if total else (Fraction(0), Fraction(0))
    return eps, r_sift, secure(eps, r_sift)


#: Per key-rate golden, the bound in ulps of qber, rsift and rsec. Measured
#: worst (numpy 2.4.6, x86-64): 2.9, 3.1, 11.9 and 4.1, 2.4, 5.7.
KEYRATE_ULPS = {"keyrate": (5, 6, 23), "keyrate-mu-discard": (8, 4, 11)}


@pytest.mark.parametrize("case", sorted(KEYRATE_ULPS))
def test_keyrate_golden_is_exact(case):
    settings, header, rows = read_golden(case)
    assert header[2:] == ["qber[-]", "rsift[bits/mode]", "rsec[bits/mode]"]
    model = PostprocessingModel(settings["model"])
    channel = [float(settings[key]) for key in ("tau1", "tau2", "dark_count")]
    worst = [Fraction(0)] * 3
    for row in rows:
        g, _, *cells = map(float, row)
        references = exact_key_rates(model, g, *channel)
        assert cells[2] > 0.0 or references[2] == 0, row  # a clamped rate is exactly 0
        worst = [max(w, ulps(value, reference))
                 for w, value, reference in zip(worst, cells, references)]
    assert len(rows) == {"keyrate": 50, "keyrate-mu-discard": 9}[case]
    assert all(map(Fraction.__le__, worst, KEYRATE_ULPS[case])), [float(w) for w in worst]


#: Per probability golden, the bound in ulps of every P cell. Measured worst
#: (numpy 2.4.6, x86-64): 2.9, 12.9, 5.2 and 5.6; the 12.9 is 1.9e-15 relative.
PROBS_ULPS = {"probs": 5, "probs-angle-sweep": 25, "probs-mu-over-g": 10,
              "probs-loss1-over-tau1": 11}


def case_inputs(case: str) -> list[tuple[float, ...]]:
    """Each printed row's (g, tau1, tau2, dark count, relative angle), as
    ``ScenarioConfig.inputs`` gives them from the case's ``--set`` list."""
    argv = CASES[case]
    cfg = parse_config("", [value for flag, value in zip(argv[1::2], argv[2::2])
                            if flag == "--set"])
    inputs = cfg.inputs(*cfg.sweep(SWEEP_VARIABLES))
    return [tuple(map(float, point)) for point in np.broadcast(*inputs)]


@pytest.mark.parametrize("case", sorted(PROBS_ULPS))
def test_probs_golden_is_exact(case):
    settings, header, rows = read_golden(case)
    if not rows:  # one point: the entries are key = value lines
        rows = [["", *(value for key, value in settings.items() if key.startswith("P_"))]]
    points = case_inputs(case)
    assert len(rows) == len(points) and all(len(row) == 17 for row in rows)
    worst = Fraction(0)
    for row, (g, tau1, tau2, dark_count, theta) in zip(rows, points):
        table = outcome_probabilities_exact(g, tau1, tau2, theta, dark_count)
        worst = max(worst, *(ulps(float(value), reference)
                             for value, reference in zip(row[1:], table)))
    assert worst <= PROBS_ULPS[case], float(worst)


def exact_chsh(models, g, tau1, tau2, dark_count) -> list[Fraction]:
    """S per model of ``models``, from the exact tables at the four angle
    differences, folded and combined in ``Fraction``s; a correlation
    without coincidences is 0."""
    a1, a2 = ALICE_CHSH_ANGLES
    b1, b2 = BOB_CHSH_ANGLES
    tables = [outcome_probabilities_exact(g, tau1, tau2, theta, dark_count)
              for theta in (a1 - b1, a1 - b2, a2 - b1, a2 - b2)]

    def correlation(table, model):
        n_pp, n_pm, n_mp, n_mm = fold(table, model)
        total = n_pp + n_pm + n_mp + n_mm
        return (n_pp - n_pm - n_mp + n_mm) / total if total else Fraction(0)

    values = []
    for model in models:
        e11, e12, e21, e22 = (correlation(table, model) for table in tables)
        values.append(abs(e11 - e12 + e21 + e22))
    return values


#: Per CHSH golden, the bound in ulps of S_squash and S_discard. Measured
#: worst (numpy 2.4.6, x86-64): 8.3, 2.1 and 39.2, 2.0; the 39.2 is 5.4e-15
#: relative, at large g where S is small.
CHSH_ULPS = {"chsh": (16, 4), "chsh-discard": (78, 3)}


@pytest.mark.parametrize("case", sorted(CHSH_ULPS))
def test_chsh_golden_is_exact(case):
    settings, header, rows = read_golden(case)
    models = [PostprocessingModel(name.removeprefix("S_").removesuffix("[-]"))
              for name in header[2:]]
    channel = [float(settings[key]) for key in ("tau1", "tau2", "dark_count")]
    worst = [Fraction(0)] * len(models)
    for row in rows:
        g, _, *cells = map(float, row)
        references = exact_chsh(models, g, *channel)
        worst = [max(w, ulps(value, reference))
                 for w, value, reference in zip(worst, cells, references)]
    assert len(rows) == {"chsh": 50, "chsh-discard": 60}[case]
    assert all(map(Fraction.__le__, worst, CHSH_ULPS[case])), [float(w) for w in worst]


#: Half the width of the central difference R(g + h) - R(g - h) whose sign
#: is taken as the slope's: 2^-100, far below the bisection's last width.
SLOPE_STEP = Fraction(1, 2**100)


def exact_optimum(lo: float, hi: float, channel) -> Fraction:
    """The gain of the exact squash secure rate's maximum inside (lo, hi),
    which must hold a sign change of the rate's slope, to within 2^-60:
    bisection on the sign of ``SLOPE_STEP``'s central difference. At
    ``DIGITS`` digits that sign holds down to widths near 1e-30."""

    def rising(g: Fraction) -> bool:
        return (exact_key_rates(PostprocessingModel.SQUASH, g + SLOPE_STEP, *channel)[2]
                > exact_key_rates(PostprocessingModel.SQUASH, g - SLOPE_STEP, *channel)[2])

    lo, hi = Fraction(lo), Fraction(hi)
    assert rising(lo) and not rising(hi)
    while hi - lo > Fraction(1, 2**60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
    return (lo + hi) / 2


def optimum_errors(g_opt: float, mu_opt: float, rate: float, lo: float, hi: float,
                   channel) -> tuple[Fraction, Fraction, Fraction]:
    """The printed gain's and brightness's relative errors against the exact
    optimum in (lo, hi), and the printed rate's error in ulps against the
    exact rate there."""
    g = exact_optimum(lo, hi, channel)
    mu = g * g / (1 - g * g)
    reference = exact_key_rates(PostprocessingModel.SQUASH, g, *channel)[2]
    return (abs(Fraction(g_opt) - g) / g, abs(Fraction(mu_opt) - mu) / mu,
            ulps(rate, reference))


def test_optimize_golden_is_exact():
    # measured worst: g_opt 2.5e-13 and mu_opt 5.5e-13 relative,
    # secure_rate_at_opt 2.2 ulps; the optimum inside the printed bracket
    settings, _, _ = read_golden("optimize")
    channel = [float(settings[key]) for key in ("tau1", "tau2", "dark_count")]
    g_err, mu_err, rate_ulps = optimum_errors(
        float(settings["g_opt"]), float(settings["mu_opt"]),
        float(settings["secure_rate_at_opt[bits/mode]"]),
        float(settings["bracket_lo"]), float(settings["bracket_hi"]), channel,
    )
    assert g_err <= 4.9e-13 and mu_err <= 1.0e-12 and rate_ulps <= 4, (
        float(g_err), float(mu_err), float(rate_ulps))


#: Per sweep golden, the bound on mu_opt's relative error and on rsec_opt's
#: error in ulps. Measured worst (each optimum within 1e-6 of the printed
#: gain): 6.4e-13, 2.2 and 8.7e-13, 11.0.
SWEEP_OPTIMUM_BOUNDS = {"sweep": (1.2e-12, 4), "sweep-headline": (1.7e-12, 22)}


@pytest.mark.parametrize("case", sorted(SWEEP_OPTIMUM_BOUNDS))
def test_sweep_optima_are_exact(case):
    settings, header, rows = read_golden(case)
    assert header[2:4] == ["mu_opt[pairs/mode]", "rsec_opt[bits/mode]"]
    tau1, dark_count = float(settings["tau1"]), float(settings["dark_count"])
    worst = [Fraction(0)] * 2
    for row in rows:
        loss2_db, _, mu_opt, rate, _ = map(float, row)
        g_opt = math.sqrt(mu_opt / (1.0 + mu_opt))  # the optimum lies within 1e-6 of it
        _, mu_err, rate_ulps = optimum_errors(
            g_opt, mu_opt, rate, g_opt * (1 - 1e-6), g_opt * (1 + 1e-6),
            (tau1, transmittance_from_db(loss2_db), dark_count),
        )
        worst = [max(worst[0], mu_err), max(worst[1], rate_ulps)]
    assert len(rows) == {"sweep": 2, "sweep-headline": 26}[case]
    assert all(map(Fraction.__le__, worst, SWEEP_OPTIMUM_BOUNDS[case])), [float(w) for w in worst]
