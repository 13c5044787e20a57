"""Coincidence assignment, correlations, and CHSH values.

Multi-click events must be folded into binary outcomes before correlations
can be formed. Two conventions are implemented:

* Squash: a double click on one side contributes 1/2 to each of that
  side's outcomes, the four-fold click 1/4 to every cell; this is the
  probability-level equivalent of assigning a uniformly random bit, so no
  RNG is involved and results are exact.
* Discard: only exact two-fold coincidences are kept; every multi-click
  event is dropped. Post-selecting this way biases the reconstructed
  correlations and can push the CHSH value past the quantum bound.

``fold`` is one rule for 16 floats and for stacked arrays: a gather of
weighted terms per model, each cell's terms added left to right.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .analytic import outcome_probability_array
from .params import ChannelParams, SourceParams
from .patterns import CANONICAL_PATTERNS, ProbabilityTable, left_to_right_sum

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: Analyzer settings (radians) of the standard CHSH measurement set.
ALICE_CHSH_ANGLES = (0.0, math.radians(45.0))
BOB_CHSH_ANGLES = (math.radians(22.5), math.radians(67.5))


class PostprocessingModel(enum.Enum):
    SQUASH = "squash"
    DISCARD = "discard"


class CoincidenceCounts(NamedTuple):
    """Per-temporal-mode rates of the four binary outcome pairs; floats, or
    arrays of one shape."""

    n_pp: float
    n_pm: float
    n_mp: float
    n_mm: float

    def total(self) -> float:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


def share(numerator, total):
    """numerator / total, and 0 where the total is 0 (no coincidences
    survive); floats, or arrays that broadcast together."""
    # where total == 0 the numerator is scaled to 0 and the divisor raised to 1
    return (total != 0.0) * numerator / (total + (total == 0.0))


#: Weight a double click on one side gives each of that side's outcomes.
_DOUBLE_CLICK_WEIGHT = {PostprocessingModel.SQUASH: 0.5, PostprocessingModel.DISCARD: 0.0}


def _side_weight(plus: bool, minus: bool, outcome_plus: bool, double: float) -> float:
    """Weight of one side's clicks on its ``+`` or ``-`` outcome."""
    if plus and minus:
        return double
    return float(plus if outcome_plus else minus)


#: Per model, the (canonical index, weight) terms of the cells ++, +-, -+,
#: --, nonzero weights only, in canonical order.
_FOLDS = {
    model: tuple(
        tuple(
            (index, weight)
            for index, p in enumerate(CANONICAL_PATTERNS)
            if (
                weight := _side_weight(p.a_plus, p.a_minus, sa, double)
                * _side_weight(p.b_plus, p.b_minus, sb, double)
            )
        )
        for sa in (True, False)
        for sb in (True, False)
    )
    for model, double in _DOUBLE_CLICK_WEIGHT.items()
}


#: ``_FOLDS`` as (index, weight) arrays of shape (terms, cells): every cell
#: of a model has as many terms, 4 for squash and 1 for discard.
_GATHERS = {model: (np.array(cells)[..., 0].T.astype(int), np.array(cells)[..., 1].T)
            for model, cells in _FOLDS.items()}


def fold(values, model: PostprocessingModel) -> CoincidenceCounts:
    """The cells ++, +-, -+, -- from the 16 pattern probabilities in
    canonical order: 16 floats (Python floats back), or arrays of one shape
    stacked or in a sequence. One gather, ``weight * table[index]``, forms
    every term; each cell adds its terms left to right, from the first."""
    table = np.asarray(values)
    index, weight = _GATHERS[model]
    cells = left_to_right_sum(weight.reshape(index.shape + (1,) * (table.ndim - 1)) * table[index])
    return CoincidenceCounts(*(cells.tolist() if cells.ndim == 1 else cells))


def coincidences(
    table: ProbabilityTable, model: PostprocessingModel
) -> CoincidenceCounts:
    """Fold the 16 click patterns into the four binary outcome pairs."""
    return fold(table.values, model)


def correlation(counts: CoincidenceCounts) -> float:
    """Outcome correlation E in [-1, 1]; 0 when no coincidences occur."""
    return share(counts.n_pp - counts.n_pm - counts.n_mp + counts.n_mm, counts.total())


def _chsh(g, tau1, tau2, dark_count, models: tuple[PostprocessingModel, ...]) -> tuple:
    """CHSH value S at the standard settings (0, 45; 22.5, 67.5 degrees),
    one per model of ``models``.

    Each correlation depends only on the relative analyzer angle, so the
    four terms fold the chain's tables at their angle differences, with
    inputs as for ``outcome_probability_array``; the four tables serve
    every model. As E(-theta) = E(theta) and E(pi/2 - theta) = -E(theta),
    fewer tables would do: two give the same bits, one moves S by up to
    2.7e-16. Each ran faster on the point-query benchmark but read there
    as a peak-memory regression (+10-27%), since the benchmark keeps every
    latency in a list; ROADMAP.md has the measurements.
    """
    a1, a2 = ALICE_CHSH_ANGLES
    b1, b2 = BOB_CHSH_ANGLES
    tables = [
        outcome_probability_array(g, tau1, tau2, dark_count, theta)
        for theta in (a1 - b1, a1 - b2, a2 - b1, a2 - b2)
    ]

    def s_value(model):
        e11, e12, e21, e22 = (correlation(fold(table, model)) for table in tables)
        return abs(e11 - e12 + e21 + e22)

    return tuple(map(s_value, models))


def chsh(source: SourceParams, channel: ChannelParams, model: PostprocessingModel) -> float:
    """CHSH value S at the standard settings: the one-point call of ``_chsh``."""
    return _chsh(source.g, channel.tau1, channel.tau2, channel.dark_count, (model,))[0]
