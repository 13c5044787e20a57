"""Scenario configuration: key-value text format, defaults, validation.

The format is one ``key = value`` assignment per line; blank lines and
lines whose first non-blank character is ``#`` are ignored (a ``#`` after
a value is part of the value). Every key is described once, in ``_KEYS``:
parsing, range checks, serialization order, the sweep variables and the
core input each key sets, with its conversion and default, all derive
from that table; keys that set the same input are alternatives
(``source.g`` vs ``source.mu``, and per arm ``channel.tauN`` vs
``channel.lossN_db``), of which at most one may be set. A sweep is a
variable and its values; ``ScenarioConfig.inputs`` turns them into an array.
Unknown keys, duplicate keys, non-finite or out-of-range values,
conflicting alternatives and incomplete sweeps are rejected at parse time;
each error message starts with the offending key.

Defaults describe the reference satellite downlink experiment: source
brightness 0.037 pairs per temporal mode, 1.6 dB receiver loss on Alice's
arm, 20 dB on Bob's, dark-count probability 6.25e-7 per detector per mode.
The coherence time is fixed; it sets the per-second display conversion.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .params import (
    ChannelParams,
    SourceParams,
    db_from_transmittance,
    gain_from_mean_photon,
    transmittance_from_db,
)
from .postprocess import PostprocessingModel

# Reference-experiment coherence time (display only; not configurable).
COHERENCE_TIME_NS = 6.25
COHERENCE_TIME_S = COHERENCE_TIME_NS * 1e-9

DEFAULT_MU = 0.037
DEFAULT_LOSS1_DB = 1.6
DEFAULT_LOSS2_DB = 20.0
DEFAULT_DARK_COUNT = 6.25e-7
DEFAULT_N_MAX = 40


class ConfigError(ValueError):
    """A scenario configuration could not be parsed or validated."""


#: ``parse(key, text)`` converts one value or raises ConfigError naming ``key``.
Parser = Callable[[str, str], object]


def _number(convert: type, interval: str, derived: Callable | None = None) -> Parser:
    """Parser of an ``int`` or ``float`` in ``interval``, e.g. ``"[0, 1)"``.

    NaN lies in no interval and an open infinite end excludes that
    infinity, so only finite numbers pass. ``derived``, if given, maps the
    value to the physical quantity it stands for and raises ValueError
    when rounding puts that quantity out of range.
    """
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above_lo = operator.le if interval[0] == "[" else operator.lt
    below_hi = operator.le if interval[-1] == "]" else operator.lt
    noun = "an integer" if convert is int else "a finite number"

    def parse(key: str, text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (above_lo(lo, value) and below_hi(value, hi)):
            raise ConfigError(f"{key}: expected {noun} in {interval}, got {text!r}")
        if derived is not None:
            try:
                derived(value)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        return value

    return parse


def _one_of(key: str, text: str, options: tuple[str, ...]) -> str:
    if text not in options:
        raise ConfigError(f"{key}: expected one of {', '.join(options)}, got {text!r}")
    return text


def _model(key: str, text: str) -> PostprocessingModel:
    return PostprocessingModel(_one_of(key, text, tuple(m.value for m in PostprocessingModel)))


def _sweep_variable(key: str, text: str) -> str:
    return _one_of(key, text, SWEEP_VARIABLES)


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _boolean(key: str, text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected true/false, got {text!r}") from None


def _check_transmittance(loss_db: float) -> None:
    # Losses beyond about 3076.5 dB give a subnormal tau, or 0, which no
    # channel accepts.
    db_from_transmittance(transmittance_from_db(loss_db))


class _Key(NamedTuple):
    """One config key and the ``ScenarioConfig`` field it sets.

    A key with a CSV ``unit`` is sweepable, as the sweep variable ``field``.
    A key ``sets`` a core input by ``convert``, at a point and per swept
    value alike; keys that set the same input are alternatives, and if
    none of them is set, the last applies at ``default``.
    """

    key: str
    field: str
    parse: Parser
    unit: str | None = None
    sets: str | None = None
    convert: Callable[[float], float] = float  # float: the value itself
    default: float | None = None


_REAL = _number(float, "(-inf, inf)")
_LOSS = _number(float, "[0, inf)", _check_transmittance)
_TAU = _number(float, "(0, 1]", db_from_transmittance)

#: Every config key, in ``to_text`` order; the sweep keys come last, as
#: variable, start, stop, steps.
_KEYS = (
    _Key("source.g", "g", _number(float, "[0, 1)"), "-", "g"),
    _Key("source.mu", "mu", _number(float, "[0, inf)", SourceParams.from_mean_photon_number),
         "pairs/mode", "g", gain_from_mean_photon, DEFAULT_MU),
    _Key("channel.tau1", "tau1", _TAU, "-", "tau1"),
    _Key("channel.loss1_db", "loss1_db", _LOSS, "dB", "tau1", transmittance_from_db,
         DEFAULT_LOSS1_DB),
    _Key("channel.tau2", "tau2", _TAU, "-", "tau2"),
    _Key("channel.loss2_db", "loss2_db", _LOSS, "dB", "tau2", transmittance_from_db,
         DEFAULT_LOSS2_DB),
    _Key("detector.dark_count", "dark_count", _number(float, "[0, 1)"), "-", "dark_count",
         default=DEFAULT_DARK_COUNT),
    _Key("angles.theta1_deg", "theta1_deg", _REAL, unit="deg", sets="theta1_deg",
         convert=math.radians),
    _Key("angles.theta2_deg", "theta2_deg", _REAL, sets="theta2_deg", convert=math.radians),
    _Key("model", "model", _model),
    # the oracle holds O(n_max^3) floats and diagonalizes one generator per n
    _Key("oracle.n_max", "n_max", _number(int, "[0, 200]")),
    _Key("output.per_second", "per_second", _boolean),
    _Key("sweep.variable", "sweep_variable", _sweep_variable),
    _Key("sweep.start", "sweep_start", _REAL),
    _Key("sweep.stop", "sweep_stop", _REAL),
    # the sweep's values are one list, and the core takes them as one array
    _Key("sweep.steps", "sweep_steps", _number(int, "[1, 10000]")),
)

_BY_KEY = {spec.key: spec for spec in _KEYS}
#: Each sweep variable's key: its CSV ``unit`` and the core input it ``sets``.
SWEEPABLE = {spec.field: spec for spec in _KEYS if spec.unit is not None}
#: The keys that fix each core input, by the field of its direct key, in
#: the order the core takes them; it reads the angles as their difference.
#: An input's keys are alternatives.
_SETTERS = {
    name: tuple(spec for spec in _KEYS if spec.sets == name)
    for name in dict.fromkeys(spec.sets for spec in _KEYS if spec.sets is not None)
}
_SWEEP_KEYS = tuple(spec for spec in _KEYS if spec.field.startswith("sweep_"))
_VARIABLE, _START, _STOP = _SWEEP_KEYS[:3]

SWEEP_VARIABLES = tuple(SWEEPABLE)


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Validated scenario; unset fields fall back to the defaults above."""

    g: float | None = None
    mu: float | None = None
    tau1: float | None = None
    loss1_db: float | None = None
    tau2: float | None = None
    loss2_db: float | None = None
    dark_count: float | None = None
    theta1_deg: float = 0.0
    theta2_deg: float = 0.0
    model: PostprocessingModel = PostprocessingModel.SQUASH
    n_max: int = DEFAULT_N_MAX
    per_second: bool = False
    sweep_variable: str | None = None
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_steps: int | None = None

    def source_params(self) -> SourceParams:
        return SourceParams(self._input("g"))

    def source_setting(self) -> tuple[str, float]:
        """(key, value) of the setting that fixes the source brightness:
        ``source.g`` when it is set, else ``source.mu`` (``DEFAULT_MU`` if unset)."""
        spec, value = self._setting("g")
        return spec.key, value

    def channel_params(self) -> ChannelParams:
        return ChannelParams(*map(self._input, ("tau1", "tau2", "dark_count")))

    def inputs(self, field: str | None = None, values: Sequence[float] = ()) -> tuple:
        """The core's inputs (g, tau1, tau2, dark count, relative angle) as
        Python floats. A swept ``field`` sets its input to the array of
        ``values``, each converted as the one-point scenario there converts
        it, bit for bit, once both ends pass the field's key as
        ``parse_config`` checks a sweep (each key's range is an interval).
        """
        point = {name: self._input(name) for name in _SETTERS}
        if field is not None:
            spec = SWEEPABLE[field]
            for end in (values[0], values[-1]) if len(values) else ():
                spec.parse(spec.key, repr(float(end)))
            point[spec.sets] = np.array([spec.convert(value) for value in values])
        g, tau1, tau2, dark_count, theta1, theta2 = point.values()
        return g, tau1, tau2, dark_count, theta1 - theta2

    def _setting(self, name: str) -> tuple:
        """(key, value) fixing core input ``name``: its first key that is set,
        else its last at its default."""
        for spec in _SETTERS[name]:
            value = getattr(self, spec.field)
            if value is not None:
                return spec, value
        return spec, spec.default

    def _input(self, name: str) -> float:
        """Core input ``name``, converted from its ``_setting``."""
        spec, value = self._setting(name)
        return spec.convert(value)

    def sweep(
        self, variables: tuple[str, ...], default: tuple[float, float, int] | None = None
    ) -> tuple[str | None, list[float]]:
        """The swept field and its ``np.linspace`` values, for ``inputs``:
        those of the configured sweep, else of ``variables[0]`` over
        ``default = (start, stop, steps)``; ``(None, [])`` if neither. A
        configured sweep variable outside ``variables`` is rejected.
        """
        if self.sweep_variable is not None:
            if self.sweep_variable not in variables:
                raise ConfigError(
                    f"{_VARIABLE.key}: expected {' or '.join(variables) or 'no sweep'} "
                    f"for this subcommand, got {self.sweep_variable!r}"
                )
            variables = (self.sweep_variable,)
            default = (self.sweep_start, self.sweep_stop, self.sweep_steps)
        if default is None:
            return None, []
        return variables[0], np.linspace(*default).tolist()

    def to_text(self) -> str:
        """Canonical serialization: one line per key whose value differs
        from its default, in ``_KEYS`` order.

        ``parse_config(cfg.to_text()) == cfg``, and configs that compare
        equal serialize alike.
        """
        default = ScenarioConfig()
        lines = [
            f"{spec.key} = {_format(getattr(self, spec.field))}"
            for spec in _KEYS
            if getattr(self, spec.field) != getattr(default, spec.field)
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _format(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, PostprocessingModel):
        return value.value
    return str(value)  # str of a float is its shortest round-trip repr


def _assignments(text: str, origin: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{origin} line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def parse_config(text: str, overrides: list[str] | None = None) -> ScenarioConfig:
    """Parse configuration text plus optional ``key=value`` overrides.

    Overrides replace values from the text but are subject to the same
    validation, including the mutual-exclusion rules.
    """
    texts: dict[str, str] = {}
    for key, value in _assignments(text, "config"):
        if key in texts:
            raise ConfigError(f"{key}: duplicate key")
        texts[key] = value
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        texts.pop(key, None)  # override wins
        texts[key] = value.strip()

    values = {}
    for key, value in texts.items():
        if key not in _BY_KEY:
            raise ConfigError(f"{key}: unknown key")
        values[key] = _BY_KEY[key].parse(key, value)
    for setters in _SETTERS.values():
        given = [spec.key for spec in setters if spec.key in values]
        if len(given) > 1:
            raise ConfigError(f"{' and '.join(given)} are mutually exclusive")
    _check_sweep(values, texts)
    return ScenarioConfig(**{_BY_KEY[key].field: value for key, value in values.items()})


def _check_sweep(values: dict[str, object], texts: dict[str, str]) -> None:
    """The sweep keys come all together or not at all, and both ends of the
    range must be valid values of the swept key."""
    given = [spec.key for spec in _SWEEP_KEYS if spec.key in values]
    if not given:
        return
    missing = [spec.key for spec in _SWEEP_KEYS if spec.key not in values]
    if missing:
        raise ConfigError(f"{given[0]}: requires {', '.join(missing)}")
    swept = SWEEPABLE[values[_VARIABLE.key]]
    for end in (_START, _STOP):
        swept.parse(f"{end.key} ({swept.key})", texts[end.key])
