"""Physical parameters of the pair source, the two lossy channels, and the
measurement bases.

Conventions:

* ``g`` is the nonlinear gain of the down-conversion source, ``g = tanh(gamma)``
  with ``gamma`` the squeezing parameter; the mean pair number per temporal
  mode is ``mu = g**2 / (1 - g**2) = sinh(artanh(g))**2``.
* Channel transmittances ``tau`` are linear power ratios in (0, 1], and
  normal floats: at least ``sys.float_info.min`` (a loss of about
  3076.5 dB), as a subnormal tau has lost the bits the click statistics
  need. Losses in dB convert via ``tau = 10**(-L/10)``.
* ``dark_count`` is the probability that a detector clicks on vacuum within
  one temporal mode.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


def gain_from_mean_photon(mu: float) -> float:
    """Nonlinear gain g that yields mean pair number ``mu`` per temporal mode.

    Inverts mu = g^2/(1-g^2), i.e. g = sqrt(mu/(1+mu)).
    """
    if mu < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    return math.sqrt(mu / (1.0 + mu))


def transmittance_from_db(loss_db: float) -> float:
    """Linear transmittance for an attenuation of ``loss_db`` dB."""
    if loss_db < 0:
        raise ValueError(f"loss in dB must be >= 0, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def _transmittance(name: str, tau: float) -> float:
    """``tau`` if it is a transmittance: a normal float in (0, 1]."""
    if not sys.float_info.min <= tau <= 1.0:
        raise ValueError(f"{name} must be in [{sys.float_info.min!r}, 1], got {tau}")
    return tau


def db_from_transmittance(tau: float) -> float:
    """Attenuation in dB for a linear transmittance ``tau``."""
    return -10.0 * math.log10(_transmittance("transmittance", tau))


@dataclass(frozen=True, slots=True)
class SourceParams:
    """Pair source described by its nonlinear gain ``g`` in [0, 1)."""

    g: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.g < 1.0:
            raise ValueError(f"nonlinear gain must be in [0, 1), got {self.g}")

    @classmethod
    def from_mean_photon_number(cls, mu: float) -> "SourceParams":
        return cls(g=gain_from_mean_photon(mu))

    def mean_photon_number(self) -> float:
        """Mean pairs per temporal mode, mu = g^2/(1-g^2)."""
        return self.g * self.g / (1.0 - self.g * self.g)


@dataclass(frozen=True, slots=True)
class ChannelParams:
    """Asymmetric link: transmittances of the two arms plus dark-count rate.

    ``tau1`` is the arm towards Alice's detector pair, ``tau2`` towards
    Bob's. ``dark_count`` applies identically to all four detectors.
    """

    tau1: float
    tau2: float
    dark_count: float = 0.0

    def __post_init__(self) -> None:
        _transmittance("tau1", self.tau1)
        _transmittance("tau2", self.tau2)
        if not 0.0 <= self.dark_count < 1.0:
            raise ValueError(
                f"dark_count must be in [0, 1), got {self.dark_count}"
            )

    @classmethod
    def from_db_losses(
        cls, loss1_db: float, loss2_db: float, dark_count: float = 0.0
    ) -> "ChannelParams":
        return cls(
            tau1=transmittance_from_db(loss1_db),
            tau2=transmittance_from_db(loss2_db),
            dark_count=dark_count,
        )


@dataclass(frozen=True, slots=True)
class MeasurementAngles:
    """Polarization analysis angles (radians) of the two parties, both
    finite.

    All click statistics depend on theta1 and theta2 only through the
    relative angle theta1 - theta2; both are kept so callers can express
    lab settings directly.
    """

    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2"):
            if not math.isfinite(angle := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {angle}")

    def relative(self) -> float:
        return self.theta1 - self.theta2
