"""Click patterns of the four threshold detectors and their probability table.

Each party analyzes its arm with a polarizing splitter feeding two threshold
detectors, so one temporal mode yields a 4-bit record: Alice's ``+``/``-``
detectors and Bob's ``+``/``-`` detectors. There are exactly 16 outcomes; the
canonical ordering below (vacuum, then single clicks, then two-fold
coincidences, then one-sided double clicks, then triples, then the quad) is
fixed so that serialized tables are stable and diff-able.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

#: Tolerance separating floating-point rounding from genuine bugs.
NEGATIVE_TOLERANCE = 1e-12


def left_to_right_sum(terms):
    """The terms added in order, floats or arrays that broadcast together.

    Builtin ``sum()`` compensates float rounding on Python >= 3.12, so its
    last bit depends on the interpreter. The sum starts from the first term,
    which is that term plus -0.0, the exact additive identity, bit for bit.
    """
    terms = iter(terms)
    total = next(terms, -0.0)
    for term in terms:
        total = total + term  # not +=: a later term may be wider
    return total


class ProbabilityConsistencyError(ValueError):
    """A probability fell outside [0, 1] by more than rounding allows."""


def check_range(labels, values) -> None:
    """Raise ``ProbabilityConsistencyError`` naming ``P[label]`` at the first
    of ``values``, NaN included, outside [-NEGATIVE_TOLERANCE,
    1 + NEGATIVE_TOLERANCE]."""
    for label, v in zip(labels, values):
        if not (-NEGATIVE_TOLERANCE <= v <= 1.0 + NEGATIVE_TOLERANCE):
            raise ProbabilityConsistencyError(
                f"P[{label}] = {v!r} outside [0, 1] beyond rounding"
            )


class ClickPattern(NamedTuple):
    """Which of the four detectors fired (True = click)."""

    a_plus: bool
    a_minus: bool
    b_plus: bool
    b_minus: bool

    def bits(self) -> str:
        """4-character bit string in (a+, a-, b+, b-) order."""
        return "".join("1" if b else "0" for b in self)

    def label(self) -> str:
        """Short human-readable label, e.g. ``A+B-`` or ``vac``."""
        names = ("A+", "A-", "B+", "B-")
        fired = [n for n, b in zip(names, self) if b]
        return "".join(fired) if fired else "vac"


def _pattern(bits: str) -> ClickPattern:
    return ClickPattern(*(c == "1" for c in bits))


#: The 16 outcomes in canonical order.
CANONICAL_PATTERNS: tuple[ClickPattern, ...] = tuple(
    _pattern(b)
    for b in (
        "0000",
        "1000", "0100", "0010", "0001",
        "1010", "1001", "0110", "0101",
        "1100", "0011",
        "1110", "1101", "1011", "0111",
        "1111",
    )
)

_PATTERN_INDEX = {p: i for i, p in enumerate(CANONICAL_PATTERNS)}
#: The label of each pattern, in canonical order.
PATTERN_LABELS = tuple(p.label() for p in CANONICAL_PATTERNS)


@dataclass(frozen=True, slots=True)
class ProbabilityTable:
    """Probabilities of the 16 click patterns, in canonical order.

    Raw values are kept as computed; the constructor rejects NaN and every
    entry outside [-NEGATIVE_TOLERANCE, 1 + NEGATIVE_TOLERANCE]. Values are
    clamped to [0, 1] only at output boundaries (``clamped``, and the
    ``probs`` subcommand on its table array), so callers can still inspect
    sub-rounding negatives.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 16:
            raise ValueError(f"expected 16 entries, got {len(self.values)}")
        check_range(PATTERN_LABELS, self.values)

    def __getitem__(self, pattern: ClickPattern) -> float:
        return self.values[_PATTERN_INDEX[pattern]]

    def total(self) -> float:
        return left_to_right_sum(self.values)

    def clamped(self) -> "ProbabilityTable":
        """Copy with every entry clamped into [0, 1]."""
        return ProbabilityTable(
            tuple(min(1.0, max(0.0, v)) for v in self.values)
        )
