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
arms, so the amplitudes of pair number n form an (n+1) x (n+1) block, one
axis per party, and the blocks lie end to end, row-major, in one flat
array (block n starts at the sum of (m+1)^2 over m < n). Alice's axis
holds coordinates in the real Schur basis Q_n of the rotation generator
on n photons; Bob's holds Fock occupations. A basis rotation turns
independent planes of the Schur basis, so Alice's turn is 2 x 2 mixing of
paired rows: one multiply-add over the flat array, with each entry's
plane partner gathered, and nothing for an angle of exactly zero. Up to
squaring, the matrix products are one per block, Q_n X_n, that returns
Alice's axis to Fock amplitudes, and two more per block for a turned
Bob: his axis goes to his Schur basis (X_n Q_n, written transposed, so
that his columns are rows), turns as Alice's rows do, and comes back
(X_n Q_n^T). At theta2 = 0 his axis is left as it is. The Q_n are in the
one cached per-truncation table. Squaring keeps the pair support: the
photon-number distribution is an (n, i, j) array of O(n_max^3) entries,
never the dense (n_max+1)^4 grid over the four mode occupations. Loss
and readout act on each detector mode independently, so each is a Markov
kernel over one mode's photon number. The squared distribution holds no
kernel (the identity), loss composes its binomial matrix into Alice's
and Bob's kernels, and the readout composes the threshold matrix into
them and contracts the result with the support mass, so the thinned
distribution is never stored.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .params import ChannelParams, MeasurementAngles, SourceParams
from .patterns import CANONICAL_PATTERNS, ProbabilityTable


def truncation_error_bound(g: float, n_max: int) -> float:
    """Probability mass of the pair-number tail discarded beyond ``n_max``.

    The weight of pair number n is (1-g^2)^2 (n+1) g^(2n); summing the
    geometric-derivative series beyond n_max gives, with x = g^2,
    (n_max+2) x^(n_max+1) - (n_max+1) x^(n_max+2).
    """
    SourceParams(g)  # checks the gain
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    x = g * g
    return (n_max + 2) * x ** (n_max + 1) - (n_max + 1) * x ** (n_max + 2)


def _schur_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur basis of the polarization rotation on n photons.

    In the basis (k, n-k) of the two analysis modes the rotation is
    exp(theta A), where the generator A = a+^dag a- - a-^dag a+ is
    tridiagonal with sqrt((k+1)(n-k)) below the diagonal and its negative
    above. With P = diag(i^k), A = i P^-1 J P for the real symmetric J with
    sqrt((k+1)(n-k)) on both off-diagonals. J is twice the x component of
    a spin n/2, so its eigenvalues are the integers n, n-2, ..., -n. For a
    unit eigenvector v of J with eigenvalue lambda > 0, P^-1 v is an
    eigenvector of A with eigenvalue i lambda. Its real part x holds the
    even entries of v times (-1)^(k/2), its imaginary part y the odd ones
    times -(-1)^((k-1)/2), and each has norm 1/sqrt(2). So A x = -lambda y
    and A y = lambda x, and exp(theta A) maps the coordinates (u, w) of
    u x + w y to (c u + s w, c w - s u), with c, s the cosine and sine of
    theta lambda: the rotation turns each plane (x, y) by its own angle.

    Returns the orthogonal Q = sqrt(2) [x_1 .. x_p, y_1 .. y_p], with the
    null vector of J (even entries only, times (-1)^(k/2)) as the last
    column when n is even, and the integer rates lambda_1 .. lambda_p of
    its p = (n+1) // 2 planes. Not cached: ``_truncation`` keeps each Q_n
    of its truncation.
    """
    off = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0.0, -1))
    values, vectors = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    planes = (n + 1) // 2
    k = np.arange(n + 1)[:, None]
    sign = np.where(k % 4 < 2, 1.0, -1.0)  # (-1)^(k // 2)
    even = k % 2 == 0
    turning = vectors[:, n + 1 - planes :] * (math.sqrt(2.0) * sign)
    columns = [np.where(even, turning, 0.0), np.where(even, 0.0, -turning)]
    if n % 2 == 0:
        columns.append(vectors[:, planes : planes + 1] * sign)
    q = np.hstack(columns)
    return q, np.rint(values[n + 1 - planes :]).astype(np.intp)


def _offset(n: int) -> int:
    """Start of block n in the flat layout: the sum of (m+1)^2 over m < n."""
    return n * (n + 1) * (2 * n + 1) // 6


class _Truncation(NamedTuple):
    """The angle- and parameter-independent tables of one truncation.

    ``source`` is the pair source at unit weight per pair number, flat,
    with Alice's axis in the Schur basis and Bob's in Fock occupations. The
    n-pair component is the n-th power of the antisymmetric pair creation
    operator (a1H+ a2V+ - a1V+ a2H+) applied to vacuum, normalized by
    n! sqrt(n+1). Expanding the power binomially,
    term m carries C(n, m) (-1)^(n-m) and raises the (1H, 1V, 2H, 2V)
    occupations to (m, n-m, n-m, m), which contributes sqrt(m!^2 (n-m)!^2)
    on vacuum. Since C(n, m) m! (n-m)! / n! = 1 exactly, the Fock block B
    holds (-1)^(n-m) at (m, n-m), with no factorial evaluated. Block n is
    Q_n^T B, whose column c is (-1)^c times row n - c of Q_n: no product.

    ``bases`` holds Q_n for each n (see ``_schur_basis``).

    ``planes`` turns the planes of Alice's rows in all blocks at once, as
    one ``(rate, repeats, partner)`` triple. Each row of a block turns at
    its plane's rate; ``rate`` indexes that turn in the tables
    cos(rate theta) and sin(rate theta) for rates 0 .. size-1, each
    followed by its copy with the sine negated: x rows read +sin, y rows
    -sin (offset by ``size``), and a null row rate 0. A row's entries share
    its turn, so ``rate`` holds one entry per row, to be repeated
    ``repeats`` times (the row's length) along the flat layout.
    ``partner`` is the flat index of each entry's counterpart in the other
    row of its plane (the entry itself on a null row).

    ``comb[n, k]`` is C(n, k) (zero for k > n), exact before the float
    cast, and ``lost[n, k]`` the number lost, max(n - k, 0). ``rest[n, i]``
    is n - i for i <= n, else ``size``: the photons in the second mode of
    a pair when the first holds i of n.
    """

    source: np.ndarray
    bases: tuple[np.ndarray, ...]
    planes: tuple[np.ndarray, np.ndarray, np.ndarray]
    comb: np.ndarray
    lost: np.ndarray
    rest: np.ndarray


@functools.lru_cache(maxsize=1)
def _truncation(size: int) -> _Truncation:
    """The tables of pair numbers 0 .. size-1, in one pass over the photon
    numbers, read-only. Cached for the last truncation only. The flat
    tables are allocated whole and each block is written into its
    ``_offset`` slice, so building holds little beyond the tables kept."""
    bases, row_rate = [], []
    source = np.empty(_offset(size))
    partner = np.empty(source.size, dtype=np.intp)
    for n in range(size):
        q, rates = _schur_basis(n)
        bases.append(q)
        block = slice(_offset(n), _offset(n + 1))
        c = np.arange(n + 1)[:, None]
        # row c of B^T Q is (-1)^c times row n-c of Q
        source[block] = (np.where(c % 2 == 0, 1.0, -1.0) * q[::-1]).T.ravel()
        planes = len(rates)
        line_rate = np.zeros(n + 1, dtype=np.intp)
        line_rate[: 2 * planes] = np.concatenate((rates, rates + size))
        other = np.arange(n + 1)  # the other row of the same plane
        other[:planes] += planes
        other[planes : 2 * planes] -= planes
        row_rate.append(line_rate)
        partner[block] = (_offset(n) + (n + 1) * other[:, None] + np.arange(n + 1)).ravel()
    lengths = np.arange(1, size + 1)
    rows = (np.concatenate(row_rate), np.repeat(lengths, lengths), partner)
    comb = np.array(
        [[math.comb(n, k) for k in range(size)] for n in range(size)], dtype=float
    )
    n = np.arange(size)
    gap = n[:, None] - n[None, :]
    table = _Truncation(
        source, tuple(bases), rows, comb,
        np.maximum(gap, 0), np.where(gap >= 0, gap, size),
    )
    for array in (table.source, *bases, *rows, comb, table.lost, table.rest):
        array.flags.writeable = False
    return table


@dataclass(frozen=True, slots=True)
class TruncatedPairState:
    """Amplitudes of the (rotated) pair state, blocked by pair number.

    ``amplitudes`` holds the blocks end to end, row-major: block n is the
    (n+1) x (n+1) run starting at the sum of (m+1)^2 over m < n, and
    ``blocks`` are views of those runs. ``blocks[n][r, j]`` is the
    coefficient of column r of Q_n on Alice's side (see ``_schur_basis``)
    and of j photons in Bob's first mode (n - j in his second). In the Fock
    basis, ``fock_block(n)[i, j]`` is the amplitude of i photons in Alice's
    first mode (n - i in her second) and j photons in Bob's first mode. Before
    rotation the first modes are the H polarizations; after rotation they
    are the ``+`` analysis modes.
    """

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (_offset(self.n_max + 1),):
            raise ValueError(
                f"amplitudes must have shape ({_offset(self.n_max + 1)},) "
                f"for n_max = {self.n_max}, got {self.amplitudes.shape}"
            )

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        blocks, start = [], 0
        for n in range(self.n_max + 1):
            stop = start + (n + 1) * (n + 1)
            blocks.append(self.amplitudes[start:stop].reshape(n + 1, n + 1))
            start = stop
        return tuple(blocks)

    def norm_squared(self) -> float:
        return float(self.amplitudes @ self.amplitudes)

    def fock_block(self, n: int) -> np.ndarray:
        """Fock amplitudes of pair number n: Q_n blocks[n]."""
        return _schur_basis(n)[0] @ self.blocks[n]


@dataclass(frozen=True, slots=True)
class JointPhotonDistribution:
    """Photon-number distribution of the four detector modes (a+, a-, b+, b-).

    ``probs`` is the mass as emitted, on the pair support: ``probs[n, i, j]``
    is the probability of i photons in a+ and n - i in a-, j in b+ and
    n - j in b- (zero for i > n or j > n).

    ``alice[m, k]`` (``bob[m, k]``) is the probability that m photons emitted
    into one of Alice's (Bob's) modes are k photons at its detector, the
    same for both of the party's modes. None, the default, is the identity:
    no photon lost, and no matrix built or multiplied.
    """

    probs: np.ndarray
    alice: np.ndarray | None = None
    bob: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.probs.ndim != 3:
            raise ValueError(f"probs must have 3 axes, got {self.probs.ndim}")

    @property
    def n_max(self) -> int:
        return self.probs.shape[0] - 1

    def total(self) -> float:
        return float(_read_out(self, np.ones((self.n_max + 1, 1))).sum())


def build_state(g: float, n_max: int) -> TruncatedPairState:
    """Pair-source state truncated at ``n_max`` pairs, in the H/V bases.

    Block n is the unit source block of ``_Truncation.source``, weighted
    by (1-g^2) sqrt(n+1) g^n over its norm sqrt(n+1). The powers are taken
    on Python floats, so they do not depend on numpy's SIMD loops.
    """
    truncation_error_bound(g, n_max)  # checks the gain and n_max
    size = n_max + 1
    weights = (1.0 - g * g) * np.array([g**n for n in range(size)])
    return TruncatedPairState(
        _truncation(size).source * np.repeat(weights, np.arange(1, size + 1) ** 2), n_max
    )


def rotate_modes(
    state: TruncatedPairState, theta1: float, theta2: float
) -> TruncatedPairState:
    """Re-express the state in analysis bases rotated by theta1 and theta2.

    In the Schur basis the rotation turns each plane of Alice's rows by
    theta1 times its rate, which mixes paired rows 2 x 2; one cosine and
    one sine per angle and rate serve every pair number. Bob's axis is
    taken to his Schur basis, where his columns are the rows of the
    transposed blocks, turned by theta2 as Alice's rows are, and taken
    back to Fock occupations. A turn by exactly zero is the identity and is
    skipped, with no product for Bob. Acts within each pair-number block
    (the rotation conserves photon number per party) and preserves the
    norm.
    """
    table = _truncation(state.n_max + 1)
    flat = _turn(table, state.amplitudes, theta1)
    if theta2 != 0.0:
        flat = _bob_basis(table, _turn(table, _bob_basis(table, flat, False), theta2), True)
    return TruncatedPairState(flat, state.n_max)


def _turn(table: _Truncation, flat: np.ndarray, theta: float) -> np.ndarray:
    """Each plane of the blocks' rows turned by theta times its rate: 2 x 2
    mixing of paired rows over the flat layout; ``flat`` itself at 0."""
    if theta == 0.0:
        return flat
    rate, repeats, partner = table.planes
    phase = theta * np.arange(len(table.bases))
    cos, sin = np.cos(phase), np.sin(phase)
    turned = np.repeat(np.concatenate((cos, cos)).take(rate), repeats)
    mixed = np.repeat(np.concatenate((sin, -sin)).take(rate), repeats)
    turned *= flat
    mixed *= flat.take(partner)
    turned += mixed
    return turned


def _bob_basis(table: _Truncation, flat: np.ndarray, back: bool) -> np.ndarray:
    """Per block, Q_n^T X_n^T: Bob's axis in his Schur basis, as the rows of
    the transposed block. If ``back``, X_n^T Q_n^T: such rows back to his
    Fock occupations, as columns. One product per block either way."""
    out = np.empty_like(flat)
    for n, q in enumerate(table.bases):
        block = slice(_offset(n), _offset(n + 1))
        x = flat[block].reshape(n + 1, n + 1)
        left, right = (x.T, q.T) if back else (q.T, x.T)
        np.matmul(left, right, out=out[block].reshape(n + 1, n + 1))
    return out


def photon_number_distribution(state: TruncatedPairState) -> JointPhotonDistribution:
    """Squared Fock amplitudes on the pair support (n, i, j).

    Each block's Fock amplitudes Q_n X_n, one product per block, are
    written into its slice of the (n, i, j) array, which is then squared in
    place.
    """
    size = state.n_max + 1
    probs = np.zeros((size, size, size))
    for n, (block, q) in enumerate(zip(state.blocks, _truncation(size).bases)):
        np.matmul(q, block, out=probs[n, : n + 1, : n + 1])
    return JointPhotonDistribution(np.square(probs, out=probs))


def _binomial_thinning(n_max: int, tau: float) -> np.ndarray:
    """Transition matrix T[n, k] = C(n, k) tau^k (1-tau)^(n-k): k of n survive.

    The powers are taken on Python floats, as in ``build_state``.
    """
    table = _truncation(n_max + 1)  # C(n, k) = 0 where k > n
    kept = np.array([tau**k for k in range(n_max + 1)])
    lost = np.array([(1.0 - tau) ** k for k in range(n_max + 1)])
    return table.comb * kept * lost.take(table.lost)


def _then(kernel: np.ndarray | None, step: np.ndarray) -> np.ndarray:
    """The kernel ``kernel`` followed by ``step``; ``step`` itself after the
    identity (None)."""
    return step if kernel is None else kernel @ step


def apply_loss(
    dist: JointPhotonDistribution, tau1: float, tau2: float
) -> JointPhotonDistribution:
    """Binomial beam-splitter thinning, tau1 on Alice's modes, tau2 on Bob's."""
    ChannelParams(tau1, tau2)  # checks both transmittances
    return JointPhotonDistribution(
        dist.probs,
        _then(dist.alice, _binomial_thinning(dist.n_max, tau1)),
        _then(dist.bob, _binomial_thinning(dist.n_max, tau2)),
    )


def _both_modes(kernel: np.ndarray) -> np.ndarray:
    """P[n, i, K x + y] = kernel[i, x] kernel[n-i, y]: i and n-i photons emitted.

    K is the number of outcomes per mode (the columns of ``kernel``); the
    entries with i > n read an appended zero row of the kernel. The
    products run with the photon-number axis innermost, a broadcast that
    numpy loops over quickly, and are then copied into the C-contiguous
    (n, i, K x + y) layout that ``_read_out`` multiplies.
    """
    size, outcomes = kernel.shape
    columns = kernel.T.copy()  # [x, i], C-contiguous for a fast broadcast
    padded = np.hstack((columns, np.zeros((outcomes, 1))))
    rest = padded.take(_truncation(size).rest, axis=1)  # [y, n, i] = kernel[n-i, y]
    pair = columns[:, None, None, :] * rest[None]  # [x, y, n, i]
    return np.ascontiguousarray(
        pair.reshape(outcomes * outcomes, size, size).transpose(1, 2, 0)
    )


def _read_out(dist: JointPhotonDistribution, per_mode: np.ndarray) -> np.ndarray:
    """Contract the mass with ``per_mode[k, x]`` applied to each mode's kernel.

    Returns an array indexed by one outcome x per mode, in (a+, a-, b+, b-)
    order.
    """
    outcomes = per_mode.shape[1]
    alice = _both_modes(_then(dist.alice, per_mode))
    bob = _both_modes(_then(dist.bob, per_mode))
    # sum over Alice's i for each (n, j), then over n and j in one product
    per_bob = np.matmul(dist.probs.transpose(0, 2, 1), alice)
    table = per_bob.reshape(-1, outcomes * outcomes).T @ bob.reshape(-1, outcomes * outcomes)
    return table.reshape((outcomes,) * 4)


#: The flat index of each canonical pattern in the (a+, a-, b+, b-) readout.
_PATTERN_CELLS = np.array([int(p.bits(), 2) for p in CANONICAL_PATTERNS])


def click_probabilities(
    dist: JointPhotonDistribution, dark_count: float = 0.0
) -> ProbabilityTable:
    """Threshold-detector readout of an occupation distribution.

    A detector on a mode with n photons clicks with probability 1 for
    n >= 1 and ``dark_count`` for n = 0, independently across the four
    detectors.
    """
    ChannelParams(1.0, 1.0, dark_count)  # checks the dark-count rate
    readout = np.zeros((dist.n_max + 1, 2))  # columns: (no click, click)
    readout[0, 0] = 1.0 - dark_count
    readout[0, 1] = dark_count
    readout[1:, 1] = 1.0
    # indexed by click bits in (a+, a-, b+, b-) order, a+ most significant
    return ProbabilityTable(tuple(_read_out(dist, readout).take(_PATTERN_CELLS).tolist()))


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
