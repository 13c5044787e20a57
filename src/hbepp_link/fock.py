"""Brute-force click statistics in a truncated Fock space.

Independent ground truth for the closed-form path: the pair state is built
number-by-number from the squeezing interaction, rotated into the analysis
bases, squared into a photon-number distribution, thinned binomially by the
channel losses, and finally read out by threshold detectors with dark
counts. No step shares code with :mod:`hbepp_link.analytic`.

Why probabilities suffice after the rotation: the beam-splitter loss channel
maps photon-number diagonals to diagonals (a Fock-basis coherence |n><n'|
can only feed output coherences with the same n - n' offset, so diagonal
input populations fully determine diagonal output populations), and the
threshold-detector POVM is itself diagonal in photon number. All coherences
that matter are therefore consumed by the basis rotation, and tracking
|amplitude|^2 afterwards is exact, not an approximation.

State layout: the source emits equal photon numbers into Alice's and Bob's
arms, so the amplitude array is stored per pair number n as an
(n+1) x (n+1) block over (Alice photons in the ``+`` mode, Bob photons in
the ``+`` mode). Squaring keeps that support: the photon-number distribution
is an (n, i, j) array of O(n_max^3) entries, never the dense (n_max+1)^4
grid over the four mode occupations. Loss and readout act on each detector
mode independently, so each is a Markov kernel over one mode's photon
number. Loss composes its binomial matrix into Alice's and Bob's kernels,
and the readout composes the threshold matrix into them and contracts the
result with the support mass, so the thinned distribution is never stored.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import CANONICAL_PATTERNS, ProbabilityTable


def truncation_error_bound(g: float, n_max: int) -> float:
    """Probability mass of the pair-number tail discarded beyond ``n_max``.

    The weight of pair number n is (1-g^2)^2 (n+1) g^(2n); summing the
    geometric-derivative series beyond n_max gives, with x = g^2,
    (n_max+2) x^(n_max+1) - (n_max+1) x^(n_max+2).
    """
    if not 0.0 <= g < 1.0:
        raise ValueError(f"nonlinear gain must be in [0, 1), got {g}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    x = g * g
    return (n_max + 2) * x ** (n_max + 1) - (n_max + 1) * x ** (n_max + 2)


@dataclass(frozen=True, slots=True)
class TruncatedPairState:
    """Amplitudes of the (rotated) pair state, blocked by pair number.

    ``blocks[n][i, j]`` is the amplitude of i photons in Alice's first mode
    (n - i in her second) and j photons in Bob's first mode (n - j in his
    second). Before rotation the first modes are the H polarizations; after
    rotation they are the ``+`` analysis modes.
    """

    blocks: tuple[np.ndarray, ...]

    @property
    def n_max(self) -> int:
        return len(self.blocks) - 1

    def norm_squared(self) -> float:
        return float(sum(np.sum(b * b) for b in self.blocks))


@dataclass(frozen=True, slots=True)
class JointPhotonDistribution:
    """Photon-number distribution of the four detector modes (a+, a-, b+, b-).

    ``probs`` is the mass as emitted, on the pair support: ``probs[n, i, j]``
    is the probability of i photons in a+ and n - i in a-, j in b+ and
    n - j in b- (zero for i > n or j > n).

    ``alice[m, k]`` (``bob[m, k]``) is the probability that m photons emitted
    into one of Alice's (Bob's) modes are k photons at its detector, the
    same for both of the party's modes. Both default to the identity.
    """

    probs: np.ndarray
    alice: np.ndarray | None = None
    bob: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.probs.ndim != 3:
            raise ValueError(f"probs must have 3 axes, got {self.probs.ndim}")
        identity = np.eye(self.probs.shape[0])
        for name in ("alice", "bob"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, identity)

    @property
    def n_max(self) -> int:
        return self.probs.shape[0] - 1

    def total(self) -> float:
        return float(_read_out(self, np.ones((self.n_max + 1, 1))).sum())


def build_state(g: float, n_max: int) -> TruncatedPairState:
    """Pair-source state truncated at ``n_max`` pairs, in the H/V bases.

    The n-pair component is the n-th power of the antisymmetric pair
    creation operator (a1H+ a2V+ - a1V+ a2H+) applied to vacuum, normalized
    by n! sqrt(n+1) and weighted by (1-g^2) sqrt(n+1) g^n. Expanding the
    power binomially, term m carries C(n, m) (-1)^(n-m) and raises the
    (1H, 1V, 2H, 2V) occupations to (m, n-m, n-m, m), which contributes
    sqrt(m!^2 (n-m)!^2) on vacuum. Since C(n, m) m! (n-m)! / n! = 1 exactly,
    the amplitude is (1-g^2) g^n (-1)^(n-m), with no factorial evaluated.
    """
    if not 0.0 <= g < 1.0:
        raise ValueError(f"nonlinear gain must be in [0, 1), got {g}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    weights = (1.0 - g * g) * g ** np.arange(n_max + 1.0)
    blocks = []
    for n, weight in enumerate(weights):
        m = np.arange(n + 1)
        block = np.zeros((n + 1, n + 1))
        # occupations: 1H=m, 1V=n-m (Alice), 2H=n-m, 2V=m (Bob)
        block[m, n - m] = weight * (-1.0) ** (n - m)
        blocks.append(block)
    return TruncatedPairState(tuple(blocks))


@functools.lru_cache(maxsize=None)
def _rotation_eigenbasis(n: int) -> tuple[np.ndarray, ...]:
    """Angle-independent parts of the rotation on n photons.

    In the basis (k, n-k) of the two analysis modes the rotation is
    exp(theta A), where the generator A = a+^dag a- - a-^dag a+ is
    tridiagonal with sqrt((k+1)(n-k)) below the diagonal and its negative
    above. With P = diag(i^k), A = i P^-1 J P for the real symmetric J with
    sqrt((k+1)(n-k)) on both off-diagonals. For J = V diag(lambda) V^T,

        exp(theta A) = P^-1 V diag(exp(i theta lambda)) V^T P,

    so R[k, h] = Re(i^(h-k) (C + iS)[k, h]) with the real products
    C = V diag(cos(theta lambda)) V^T and S = V diag(sin(theta lambda)) V^T.
    Returns V, lambda, and Re and Im of i^(h-k). Cached by n alone:
    one entry per photon number up to the largest truncation used.
    """
    off = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0.0, -1))
    values, vectors = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    offset = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
    power = np.array([1.0, 1.0j, -1.0, -1.0j])[offset % 4]
    cached = (vectors, values, power.real, power.imag)
    for array in cached:
        array.flags.writeable = False
    return cached


def _rotation_block(n: int, theta: float) -> np.ndarray:
    """Fock-basis matrix of the polarization rotation on n photons.

    Entry [k, h] is the amplitude for occupation (h, n-h) of the (H, V)
    modes to appear as occupation (k, n-k) of the (+, -) analysis modes,
    under aH+ = cos(t) a+ - sin(t) a-,  aV+ = sin(t) a+ + cos(t) a-.
    """
    vectors, values, re, im = _rotation_eigenbasis(n)
    phase = theta * values
    c = (vectors * np.cos(phase)) @ vectors.T
    s = (vectors * np.sin(phase)) @ vectors.T
    return re * c - im * s


def rotate_modes(
    state: TruncatedPairState, theta1: float, theta2: float
) -> TruncatedPairState:
    """Re-express the state in analysis bases rotated by theta1 and theta2.

    Acts within each pair-number block (the rotation conserves photon
    number per party) and preserves the norm.
    """
    rotated = []
    for n, block in enumerate(state.blocks):
        m1 = _rotation_block(n, theta1)
        m2 = _rotation_block(n, theta2)
        rotated.append(m1 @ block @ m2.T)
    return TruncatedPairState(tuple(rotated))


def photon_number_distribution(state: TruncatedPairState) -> JointPhotonDistribution:
    """Squared amplitudes on the pair support (n, i, j)."""
    size = state.n_max + 1
    probs = np.zeros((size, size, size))
    for n, block in enumerate(state.blocks):
        probs[n, : n + 1, : n + 1] = block * block
    return JointPhotonDistribution(probs)


@functools.lru_cache(maxsize=None)
def _binomial_coefficients(size: int) -> np.ndarray:
    """C(n, k) for n, k < size (zero for k > n), exact before the float cast."""
    comb = np.array(
        [[math.comb(n, k) for k in range(size)] for n in range(size)], dtype=float
    )
    comb.flags.writeable = False
    return comb


def _binomial_thinning(n_max: int, tau: float) -> np.ndarray:
    """Transition matrix T[n, k] = C(n, k) tau^k (1-tau)^(n-k): k of n survive."""
    n = np.arange(n_max + 1)
    lost = np.maximum(n[:, None] - n[None, :], 0)  # C(n, k) = 0 where k > n
    return _binomial_coefficients(n_max + 1) * tau ** n[None, :] * (1.0 - tau) ** lost


def apply_loss(
    dist: JointPhotonDistribution, tau1: float, tau2: float
) -> JointPhotonDistribution:
    """Binomial beam-splitter thinning, tau1 on Alice's modes, tau2 on Bob's."""
    if not 0.0 < tau1 <= 1.0:
        raise ValueError(f"tau1 must be in (0, 1], got {tau1}")
    if not 0.0 < tau2 <= 1.0:
        raise ValueError(f"tau2 must be in (0, 1], got {tau2}")
    return JointPhotonDistribution(
        dist.probs,
        dist.alice @ _binomial_thinning(dist.n_max, tau1),
        dist.bob @ _binomial_thinning(dist.n_max, tau2),
    )


def _both_modes(kernel: np.ndarray) -> np.ndarray:
    """P[n, i, x, y] = kernel[i, x] kernel[n-i, y]: i and n-i photons emitted."""
    n = np.arange(kernel.shape[0])
    rest = n[:, None] - n[None, :]
    pair = kernel[None, :, :, None] * kernel[np.maximum(rest, 0)][:, :, None, :]
    return np.where((rest >= 0)[:, :, None, None], pair, 0.0)


def _read_out(dist: JointPhotonDistribution, per_mode: np.ndarray) -> np.ndarray:
    """Contract the mass with ``per_mode[k, x]`` applied to each mode's kernel.

    Returns an array indexed by one outcome x per mode, in (a+, a-, b+, b-)
    order.
    """
    alice = dist.alice @ per_mode
    bob = dist.bob @ per_mode
    return np.einsum(
        "nij,niab,njcd->abcd",
        dist.probs,
        _both_modes(alice),
        _both_modes(bob),
        optimize=["einsum_path", (0, 1), (0, 1)],  # fixed order, no path search
    )


def click_probabilities(
    dist: JointPhotonDistribution, dark_count: float = 0.0
) -> ProbabilityTable:
    """Threshold-detector readout of an occupation distribution.

    A detector on a mode with n photons clicks with probability 1 for
    n >= 1 and ``dark_count`` for n = 0, independently across the four
    detectors.
    """
    if not 0.0 <= dark_count < 1.0:
        raise ValueError(f"dark_count must be in [0, 1), got {dark_count}")
    readout = np.zeros((dist.n_max + 1, 2))  # columns: (no click, click)
    readout[0, 0] = 1.0 - dark_count
    readout[0, 1] = dark_count
    readout[1:, 1] = 1.0
    t = _read_out(dist, readout)
    # t is indexed by click bits in (a+, a-, b+, b-) order
    values = tuple(
        float(t[int(p.a_plus), int(p.a_minus), int(p.b_plus), int(p.b_minus)])
        for p in CANONICAL_PATTERNS
    )
    return ProbabilityTable(values)


def oracle_probabilities(
    source: SourceParams,
    channel: ChannelParams,
    angles: MeasurementAngles,
    n_max: int = 40,
) -> ProbabilityTable:
    """Full brute-force pipeline: build, rotate, square, thin, read out."""
    state = build_state(source.g, n_max)
    state = rotate_modes(state, angles.theta1, angles.theta2)
    dist = photon_number_distribution(state)
    dist = apply_loss(dist, channel.tau1, channel.tau2)
    return click_probabilities(dist, channel.dark_count)
