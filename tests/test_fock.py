import functools
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hbepp_link import (
    ChannelParams,
    MeasurementAngles,
    SourceParams,
    fock,
    oracle_probabilities,
    outcome_probabilities,
    truncation_error_bound,
)
from hbepp_link.analytic import outcome_probability_array, pair_probabilities
from hbepp_link.fock import (
    JointPhotonDistribution,
    TruncatedPairState,
    apply_loss,
    build_state,
    click_probabilities,
    photon_number_distribution,
    rotate_modes,
)
from hbepp_link.params import transmittance_from_db
from hbepp_link.patterns import CANONICAL_PATTERNS, ClickPattern

from exact import outcome_probabilities_exact, pair_marginals


def pat(bits: str) -> ClickPattern:
    return ClickPattern(*(c == "1" for c in bits))


ANGLES = (0.0, 0.4, math.pi / 4, 0.83, math.pi / 2, 2.9)


# --- independent references: the factorial rotation and the dense pipeline


def reference_rotation_block(n: int, theta: float) -> np.ndarray:
    """Polarization rotation on n photons by binomial expansion of
    aH+ = cos(t) a+ - sin(t) a-,  aV+ = sin(t) a+ + cos(t) a-;
    entry [k, h] maps (H, V) occupation (h, n-h) to (+, -) occupation (k, n-k).
    """
    c, s = math.cos(theta), math.sin(theta)
    out = np.zeros((n + 1, n + 1))
    for h in range(n + 1):
        v = n - h
        p1 = np.array([math.comb(h, i) * c**i * (-s) ** (h - i) for i in range(h + 1)])
        p2 = np.array([math.comb(v, j) * s**j * c ** (v - j) for j in range(v + 1)])
        coeffs = np.convolve(p1, p2)  # index k = photons in the + mode
        norm_h = math.factorial(h) * math.factorial(v)
        for k in range(n + 1):
            out[k, h] = coeffs[k] * math.sqrt(
                math.factorial(k) * math.factorial(n - k) / norm_h
            )
    return out


def reference_eigenbasis_block(n: int, theta: float) -> np.ndarray:
    """The same rotation from the eigendecomposition of J, as the oracle
    computed it before the Schur basis: with P = diag(i^k) and
    J = V diag(lambda) V^T, exp(theta A) = P^-1 V diag(exp(i theta lambda)) V^T P,
    so entry [k, h] is Re(i^(h-k) (C + iS)[k, h]) for the real products
    C = V diag(cos(theta lambda)) V^T and S = V diag(sin(theta lambda)) V^T.
    """
    off = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0.0, -1))
    values, vectors = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    offset = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
    power = np.array([1.0, 1.0j, -1.0, -1.0j])[offset % 4]
    c = (vectors * np.cos(theta * values)) @ vectors.T
    s = (vectors * np.sin(theta * values)) @ vectors.T
    return power.real * c - power.imag * s


def reference_source_block(g: float, n: int) -> np.ndarray:
    """Fock amplitudes (1-g^2) g^n (-1)^(n-m) at (m, n-m) of the n-pair block."""
    block = np.zeros((n + 1, n + 1))
    m = np.arange(n + 1)
    block[m, n - m] = (1.0 - g * g) * g**n * (-1.0) ** (n - m)
    return block


def fock_block(state: TruncatedPairState, n: int) -> np.ndarray:
    """Fock amplitudes of pair number n: Q_n blocks[n], with the Q_n of
    the cached truncation."""
    return fock._truncation(state.n_max + 1).bases[n] @ state.blocks[n]


def norm_squared(state: TruncatedPairState) -> float:
    return float(state.amplitudes @ state.amplitudes)


def total(dist: JointPhotonDistribution) -> float:
    """The distribution's mass after its kernels: the readout with one
    outcome per mode."""
    return float(fock._read_out(dist, np.ones((dist.n_max + 1, 1))).sum())


def schur_state(fock_blocks) -> TruncatedPairState:
    """A state given by its Fock-basis blocks, in the state's coordinates:
    Alice's axis in the Schur basis Q_n, Bob's in Fock occupations."""
    blocks = [fock._schur_basis(n).T @ block for n, block in enumerate(fock_blocks)]
    return TruncatedPairState(np.concatenate([b.ravel() for b in blocks]), len(blocks) - 1)


def bob_basis(state: TruncatedPairState, back: bool) -> TruncatedPairState:
    """Per block, Q_n^T X_n^T = (X_n Q_n)^T: Bob's axis to his Schur basis,
    as rows; or, if ``back``, X_n^T Q_n^T: such rows back to Fock columns."""
    blocks = []
    for n, block in enumerate(state.blocks):
        q = fock._schur_basis(n)
        blocks.append(block.T @ q.T if back else q.T @ block.T)
    return TruncatedPairState(np.concatenate([b.ravel() for b in blocks]), state.n_max)


def rotated_fock_blocks(size: int, theta1: float, theta2: float) -> list[np.ndarray]:
    """R1 I R2^T = R1 R2^T per block: the identity rotated by rotate_modes."""
    state = schur_state([np.eye(n + 1) for n in range(size)])
    rotated = rotate_modes(state, theta1, theta2)
    return [fock_block(rotated, n) for n in range(size)]


def reference_thinning(n_max: int, tau: float) -> np.ndarray:
    t = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        for k in range(n + 1):
            t[n, k] = math.comb(n, k) * tau**k * (1.0 - tau) ** (n - k)
    return t


def reference_apply_loss(probs: np.ndarray, tau1: float, tau2: float) -> np.ndarray:
    """Dense (a+, a-, b+, b-) occupations thinned mode by mode."""
    n_max = probs.shape[0] - 1
    t1 = reference_thinning(n_max, tau1)
    t2 = reference_thinning(n_max, tau2)
    # contracting axis 0 four times cycles the axes back into place
    for t in (t1, t1, t2, t2):
        probs = np.tensordot(probs, t, axes=([0], [0]))
    return probs


def reference_readout(probs: np.ndarray, dark_count: float) -> tuple[float, ...]:
    readout = np.zeros((probs.shape[0], 2))  # columns: (no click, click)
    readout[0] = (1.0 - dark_count, dark_count)
    readout[1:, 1] = 1.0
    for _ in range(4):
        probs = np.tensordot(probs, readout, axes=([0], [0]))
    return tuple(
        float(probs[int(p.a_plus), int(p.a_minus), int(p.b_plus), int(p.b_minus)])
        for p in CANONICAL_PATTERNS
    )


def reference_scatter(masses: list[np.ndarray]) -> np.ndarray:
    """Per-pair-number masses ``masses[n][i, j]`` on the dense four-mode grid."""
    probs = np.zeros((len(masses),) * 4)
    for n, block in enumerate(masses):
        for i in range(n + 1):
            for j in range(n + 1):
                probs[i, n - i, j, n - j] += block[i, j]
    return probs


def reference_eigenbasis_oracle(g, tau1, tau2, dark, theta1, theta2, n_max):
    """The whole oracle as computed before the Schur basis: Fock blocks
    rotated by R1 B R2^T with the eigendecomposition blocks, squared onto
    the support, and read out by one einsum over per-mode kernels.
    """
    size = n_max + 1
    probs = np.zeros((size,) * 3)
    for n in range(size):
        block = reference_source_block(g, n)
        rotated = (
            reference_eigenbasis_block(n, theta1)
            @ block
            @ reference_eigenbasis_block(n, theta2).T
        )
        probs[n, : n + 1, : n + 1] = rotated * rotated
    readout = np.zeros((size, 2))  # columns: (no click, click)
    readout[0] = (1.0 - dark, dark)
    readout[1:, 1] = 1.0

    def both_modes(kernel):
        n = np.arange(size)
        rest = n[:, None] - n[None, :]
        pair = kernel[None, :, :, None] * kernel[np.maximum(rest, 0)][:, :, None, :]
        return np.where((rest >= 0)[:, :, None, None], pair, 0.0)

    t = np.einsum(
        "nij,niab,njcd->abcd",
        probs,
        both_modes(reference_thinning(n_max, tau1) @ readout),
        both_modes(reference_thinning(n_max, tau2) @ readout),
        optimize=["einsum_path", (0, 1), (0, 1)],
    )
    return tuple(
        float(t[int(p.a_plus), int(p.a_minus), int(p.b_plus), int(p.b_minus)])
        for p in CANONICAL_PATTERNS
    )


class TestBuildState:
    def test_vacuum_source(self):
        state = build_state(0.0, 5)
        assert fock_block(state, 0)[0, 0] == pytest.approx(1.0, abs=1e-15)
        for n, block in enumerate(state.blocks[1:], start=1):
            assert np.all(block == 0.0)
            assert np.all(fock_block(state, n) == 0.0)

    def test_vacuum_amplitude(self):
        state = build_state(0.6, 0)
        assert fock_block(state, 0)[0, 0] == pytest.approx(0.64, abs=1e-15)

    def test_single_pair_block_is_the_singlet(self):
        # n = 1 term: (a1H+ a2V+ - a1V+ a2H+)|0>, weighted by (1-g^2) g
        g = 0.37
        state = build_state(g, 3)
        w = (1.0 - g * g) * g
        expected = np.array([[0.0, -w], [w, 0.0]])
        assert np.allclose(fock_block(state, 1), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("g,n_max", [(0.3, 5), (0.6, 12), (0.8, 30)])
    def test_norm_complements_truncation_tail(self, g, n_max):
        state = build_state(g, n_max)
        assert norm_squared(state) == pytest.approx(
            1.0 - truncation_error_bound(g, n_max), abs=1e-12
        )

    def test_no_overflow_at_large_truncation(self):
        # the factorials of the binomial expansion cancel exactly
        state = build_state(0.7, 200)
        assert fock_block(state, 200)[0, 200] == pytest.approx(0.51 * 0.7**200, rel=1e-13)
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)

    def test_fock_blocks_match_factorial_free_amplitudes(self):
        state = build_state(0.55, 30)
        for n in range(31):
            expected = reference_source_block(0.55, n)
            assert np.max(np.abs(fock_block(state, n) - expected)) <= 1e-15

    def test_blocks_are_views_of_the_flat_amplitudes(self):
        state = build_state(0.45, 7)
        assert state.amplitudes.shape == (sum((n + 1) ** 2 for n in range(8)),)
        start = 0
        for n, block in enumerate(state.blocks):
            assert block.shape == (n + 1, n + 1)
            assert np.shares_memory(block, state.amplitudes)
            assert np.array_equal(block.ravel(), state.amplitudes[start : start + (n + 1) ** 2])
            start += (n + 1) ** 2

    def test_state_rejects_amplitudes_of_another_truncation(self):
        with pytest.raises(ValueError, match="n_max = 3"):
            TruncatedPairState(np.zeros(14), 3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_state(1.0, 5)
        with pytest.raises(ValueError):
            build_state(-0.1, 5)
        with pytest.raises(ValueError):
            build_state(0.5, -1)


class TestRotateModes:
    @pytest.mark.parametrize("theta", ANGLES)
    def test_blocks_match_factorial_reference(self, theta):
        # pins the direction of the turn, which no click table can: the
        # tables are even in the relative angle
        alice = rotated_fock_blocks(21, theta, 0.0)  # R(theta)
        bob = rotated_fock_blocks(21, 0.0, theta)  # R(theta)^T
        for n in range(21):
            reference = reference_rotation_block(n, theta)
            assert np.max(np.abs(alice[n] - reference)) <= 1e-13
            assert np.max(np.abs(bob[n] - reference.T)) <= 1e-13

    @pytest.mark.parametrize("theta", ANGLES)
    def test_blocks_orthogonal(self, theta):
        for n, block in enumerate(rotated_fock_blocks(101, theta, 0.0)):
            assert np.max(np.abs(block @ block.T - np.eye(n + 1))) <= 1e-13

    def test_schur_basis_orthogonal(self):
        for n in range(101):
            q = fock._schur_basis(n)
            assert np.max(np.abs(q @ q.T - np.eye(n + 1))) <= 1e-13

    def test_random_states_match_reference_blocks(self):
        # states that are not the source, turned by unrelated angles
        rng = np.random.default_rng(11)
        for _ in range(5):
            fock_blocks = [rng.normal(size=(n + 1, n + 1)) for n in range(13)]
            theta1, theta2 = rng.uniform(-math.pi, math.pi, size=2)
            rotated = rotate_modes(schur_state(fock_blocks), theta1, theta2)
            for n, block in enumerate(fock_blocks):
                expected = (
                    reference_rotation_block(n, theta1)
                    @ block
                    @ reference_rotation_block(n, theta2).T
                )
                assert np.max(np.abs(fock_block(rotated, n) - expected)) <= 1e-13

    @pytest.mark.parametrize("theta", [0.4, -1.3])
    def test_bob_turns_as_alice_on_the_transposed_blocks(self, theta):
        # Bob's Fock occupations go to his Schur basis (X Q_n), where his
        # columns turn as Alice's rows of the transposed blocks, and come
        # back (X Q_n^T): bit for bit
        rng = np.random.default_rng(7)
        fock_blocks = [rng.normal(size=(n + 1, n + 1)) for n in range(13)]
        state = schur_state(fock_blocks)
        bob = rotate_modes(state, 0.0, theta)
        turned = rotate_modes(bob_basis(state, back=False), theta, 0.0)
        assert np.array_equal(bob.amplitudes, bob_basis(turned, back=True).amplitudes)
        # in Fock blocks: Bob's turn of F is Alice's turn of F^T, transposed
        mirrored = rotate_modes(schur_state([block.T for block in fock_blocks]), theta, 0.0)
        for n in range(13):
            assert np.max(np.abs(fock_block(bob, n) - fock_block(mirrored, n).T)) <= 1e-13

    def test_zero_angles_identity(self):
        state = build_state(0.5, 8)
        rotated = rotate_modes(state, 0.0, 0.0)
        assert len(rotated.blocks) == len(state.blocks) == 9
        for a, b in zip(state.blocks, rotated.blocks):
            assert np.array_equal(a, b)

    def test_norm_preserved(self):
        state = build_state(0.6, 15)
        rng = np.random.default_rng(3)
        for _ in range(10):
            rotated = rotate_modes(state, rng.uniform(0, math.pi), rng.uniform(0, math.pi))
            assert norm_squared(rotated) == pytest.approx(
                norm_squared(state), abs=1e-12
            )

    def test_single_photon_quarter_turn(self):
        # one H photon on Alice's side moves entirely into her minus mode
        state = schur_state((np.zeros((1, 1)), np.array([[0.0, 0.0], [1.0, 0.0]])))
        rotated = rotate_modes(state, math.pi / 2, 0.0)
        block = fock_block(rotated, 1)
        assert abs(block[0, 0]) == pytest.approx(1.0, abs=1e-15)  # a+ empty, a- full
        assert block[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_common_rotation_leaves_clicks_unchanged(self):
        # the source is invariant under one rotation of both parties; the
        # pipeline does not know that and turns both sides in full
        source = SourceParams(0.4)
        channel = ChannelParams(tau1=0.8, tau2=0.2)
        base = oracle_probabilities(
            source, channel, MeasurementAngles(0.5, 0.0), n_max=25
        )
        shifted = oracle_probabilities(
            source, channel, MeasurementAngles(0.5 + 0.9, 0.9), n_max=25
        )
        unrotated = oracle_probabilities(
            source, channel, MeasurementAngles(0.0, 0.0), n_max=25
        )
        for a, b in zip(base.values, shifted.values):
            assert a == pytest.approx(b, abs=1e-14)
        assert max(abs(a - b) for a, b in zip(base.values, unrotated.values)) > 1e-3
        state = build_state(0.4, 25)
        turned = rotate_modes(state, 0.5 + 0.9, 0.9)
        reference = rotate_modes(state, 0.5, 0.0)
        for n in range(26):
            assert np.max(np.abs(fock_block(turned, n) - fock_block(reference, n))) <= 1e-14


class TestDistributionAndLoss:
    def test_pair_number_symmetry_before_loss(self):
        # the source emits pairs, so the squared amplitudes live on the
        # support (n, i, j), where Alice and Bob both hold n photons
        state = rotate_modes(build_state(0.6, 12), 0.3, 1.1)
        dist = photon_number_distribution(state)
        assert dist.probs.shape == (13, 13, 13)
        for n in range(13):
            block = fock_block(state, n)
            assert np.array_equal(dist.probs[n, : n + 1, : n + 1], block * block)
            assert not dist.probs[n, n + 1 :].any()
            assert not dist.probs[n, :, n + 1 :].any()
        assert total(dist) == pytest.approx(norm_squared(state), abs=1e-12)

    def test_unthinned_distribution_holds_no_kernel(self):
        # before any loss each party's kernel is the identity, held as None:
        # no identity matrix is built, and the first loss is its own kernel
        dist = photon_number_distribution(rotate_modes(build_state(0.5, 10), 0.3, 0.0))
        assert dist.alice is None and dist.bob is None
        lossy = apply_loss(dist, 0.6, 0.9)
        assert np.array_equal(lossy.alice, fock._binomial_thinning(10, 0.6))
        assert np.array_equal(lossy.bob, fock._binomial_thinning(10, 0.9))

    def test_unit_transmittance_identity(self):
        dist = photon_number_distribution(build_state(0.5, 10))
        lossy = apply_loss(dist, 1.0, 1.0)
        assert lossy.probs is dist.probs
        assert np.array_equal(lossy.alice, np.eye(11))
        assert np.array_equal(lossy.bob, np.eye(11))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 2, 2, 2)])
    def test_distribution_needs_three_axes(self, shape):
        with pytest.raises(ValueError, match=rf"^probs must have 3 axes, got {len(shape)}$"):
            JointPhotonDistribution(np.zeros(shape))

    def test_single_photon_bernoulli(self):
        # kernel row m: where m photons emitted into one mode end up
        lossy = apply_loss(JointPhotonDistribution(np.zeros((2, 2, 2))), 0.3, 0.9)
        assert np.allclose(lossy.alice[1], (0.7, 0.3), rtol=0, atol=1e-15)

    def test_two_photon_binomial(self):
        lossy = apply_loss(JointPhotonDistribution(np.zeros((3, 3, 3))), 0.8, 0.5)
        assert np.allclose(lossy.bob[2], (0.25, 0.5, 0.25), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n_max", [0, 1, 3, 6])
    def test_successive_losses_compose(self, n_max):
        dist = JointPhotonDistribution(np.ones((n_max + 1,) * 3))
        dist = apply_loss(apply_loss(dist, 0.6, 0.9), 0.5, 1.0)
        assert np.allclose(dist.alice, reference_thinning(n_max, 0.3), rtol=0, atol=1e-15)
        assert np.allclose(dist.bob, reference_thinning(n_max, 0.9), rtol=0, atol=1e-15)

    def test_mass_conservation(self):
        rng = np.random.default_rng(5)
        state = rotate_modes(build_state(0.65, 20), 0.4, 0.9)
        dist = photon_number_distribution(state)
        for _ in range(5):
            tau1, tau2 = rng.uniform(0.05, 1.0, size=2)
            lossy = apply_loss(dist, tau1, tau2)
            assert total(lossy) == pytest.approx(total(dist), abs=1e-12)

    def test_invalid_transmittance(self):
        dist = photon_number_distribution(build_state(0.3, 4))
        with pytest.raises(ValueError):
            apply_loss(dist, 0.0, 0.5)
        with pytest.raises(ValueError):
            apply_loss(dist, 0.5, 1.5)


class TestClickProbabilities:
    def _vacuum_distribution(self):
        return JointPhotonDistribution(np.ones((1, 1, 1)))

    def test_vacuum_without_dark_counts(self):
        table = click_probabilities(self._vacuum_distribution(), 0.0)
        assert table[pat("0000")] == pytest.approx(1.0, abs=1e-15)

    def test_vacuum_with_dark_counts(self):
        table = click_probabilities(self._vacuum_distribution(), 0.1)
        assert table[pat("1111")] == pytest.approx(1e-4, abs=1e-18)
        assert table[pat("0000")] == pytest.approx(0.9**4, abs=1e-15)
        assert table.total() == pytest.approx(1.0, abs=1e-12)

    def test_total_preserved(self):
        state = rotate_modes(build_state(0.6, 15), 0.7, 0.1)
        dist = apply_loss(photon_number_distribution(state), 0.6, 0.3)
        table = click_probabilities(dist, 1e-3)
        assert table.total() == pytest.approx(total(dist), abs=1e-12)

    def test_invalid_dark_count(self):
        with pytest.raises(ValueError, match=r"^dark_count must be in \[0, 1\), got 1\.0$"):
            click_probabilities(self._vacuum_distribution(), 1.0)


class TestAgainstDensePipeline:
    """Kernels composed into the readout against thinning the dense grid."""

    CHANNELS = [(0.3, 0.8, 0.0), (0.7, 0.05, 1e-3), (1.0, 0.4, 1e-3), (1.0, 1.0, 0.1)]

    @pytest.mark.parametrize("tau1,tau2,dark", CHANNELS)
    @pytest.mark.parametrize("n_max", [0, 2, 6])
    def test_random_dense_distributions(self, n_max, tau1, tau2, dark):
        # random masses, not squared amplitudes, on the (n, i, j) support
        rng = np.random.default_rng(n_max)
        n, i, j = np.indices((n_max + 1,) * 3)
        probs = np.where((i <= n) & (j <= n), rng.uniform(size=n.shape), 0.0)
        probs /= probs.sum()
        table = click_probabilities(
            apply_loss(JointPhotonDistribution(probs), tau1, tau2), dark
        )
        dense_probs = reference_scatter([probs[n, : n + 1, : n + 1] for n in range(n_max + 1)])
        expected = reference_readout(reference_apply_loss(dense_probs, tau1, tau2), dark)
        assert np.max(np.abs(np.subtract(table.values, expected))) <= 1e-15

    @pytest.mark.parametrize("tau1,tau2,dark", CHANNELS)
    @pytest.mark.parametrize("n_max", [1, 6])
    def test_pair_support_matches_dense_grid(self, n_max, tau1, tau2, dark):
        # random amplitudes: the source state is symmetric under swapping
        # both parties' modes at once and would hide a swapped mode
        rng = np.random.default_rng(n_max)
        blocks = [rng.normal(size=(n + 1, n + 1)) for n in range(n_max + 1)]
        norm = math.sqrt(sum(np.sum(b * b) for b in blocks))
        state = schur_state([b / norm for b in blocks])
        table = click_probabilities(
            apply_loss(photon_number_distribution(state), tau1, tau2), dark
        )
        dense_probs = reference_scatter(
            [fock_block(state, n) ** 2 for n in range(n_max + 1)]
        )
        expected = reference_readout(reference_apply_loss(dense_probs, tau1, tau2), dark)
        assert np.max(np.abs(np.subtract(table.values, expected))) <= 1e-15


class TestAgainstEigenbasisPipeline:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 6, 40])
    def test_oracle_matches_eigenbasis_pipeline(self, n_max):
        rng = np.random.default_rng(100 + n_max)
        for _ in range(8):
            g = rng.uniform(0.0, 0.7)
            tau1, tau2 = rng.uniform(0.01, 1.0, size=2)
            dark = rng.choice((0.0, 1e-3))
            theta1, theta2 = rng.uniform(-math.pi, math.pi, size=2)
            table = oracle_probabilities(
                SourceParams(g),
                ChannelParams(tau1=tau1, tau2=tau2, dark_count=dark),
                MeasurementAngles(theta1, theta2),
                n_max=n_max,
            )
            expected = reference_eigenbasis_oracle(
                g, tau1, tau2, dark, theta1, theta2, n_max
            )
            assert np.max(np.abs(np.subtract(table.values, expected))) <= 1e-14


class TestElementwiseForms:
    """The flat pipeline's element-wise steps against the direct broadcast
    forms: the same multiplications and powers, so equal bit for bit."""

    @pytest.mark.parametrize("g,n_max", [(0.0, 0), (0.37, 6), (0.7, 40)])
    def test_build_state_is_the_weighted_unit_blocks(self, g, n_max):
        # block n is (1-g^2) g^n Q_n^T B_n, g^n on Python floats; B_n has
        # one nonzero per column, so the product adds only exact zeros
        state = build_state(g, n_max)
        for n, block in enumerate(state.blocks):
            q = fock._schur_basis(n)
            m = np.arange(n + 1)
            unit = np.zeros((n + 1, n + 1))
            unit[m, n - m] = np.where((n - m) % 2 == 0, 1.0, -1.0)
            assert np.array_equal(block, ((1.0 - g * g) * g**n) * (q.T @ unit))

    @pytest.mark.parametrize("tau", [1e-6, 0.3, 0.999, 1.0])
    @pytest.mark.parametrize("n_max", [0, 6, 40])
    def test_thinning_is_the_two_dimensional_power(self, n_max, tau):
        # entry by entry on Python floats, in the kernel's order of products
        expected = [
            [math.comb(a, b) * tau**b * (1.0 - tau) ** max(a - b, 0) for b in range(n_max + 1)]
            for a in range(n_max + 1)
        ]
        assert np.array_equal(fock._binomial_thinning(n_max, tau), expected)

    @pytest.mark.parametrize("theta2", [0.0, -1.3])
    @pytest.mark.parametrize("n_max", [0, 6, 40])
    def test_square_is_one_product_per_block(self, n_max, theta2):
        state = rotate_modes(build_state(0.55, n_max), 0.8, theta2)
        probs = photon_number_distribution(state).probs
        for n, block in enumerate(state.blocks):
            q = fock._schur_basis(n)
            assert np.array_equal(probs[n, : n + 1, : n + 1], np.square(q @ block))
            assert not probs[n, n + 1 :].any() and not probs[n, :, n + 1 :].any()

    @pytest.mark.parametrize("theta", [0.4, -1.3])
    def test_alice_turn_leaves_bobs_axis_untouched(self, theta):
        # at theta2 = 0 no product touches Bob's Fock occupations: each of
        # his columns turns alone, so reversing them commutes bit for bit
        rng = np.random.default_rng(17)
        state = schur_state([rng.normal(size=(n + 1, n + 1)) for n in range(13)])

        def reversed_columns(state):
            blocks = [block[:, ::-1].ravel() for block in state.blocks]
            return TruncatedPairState(np.concatenate(blocks), state.n_max)

        turned = rotate_modes(state, theta, 0.0)
        assert np.array_equal(
            rotate_modes(reversed_columns(state), theta, 0.0).amplitudes,
            reversed_columns(turned).amplitudes,
        )
        assert not np.array_equal(turned.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("outcomes", [1, 2])
    @pytest.mark.parametrize("n_max", [0, 6, 40])
    def test_both_modes_is_the_outcome_innermost_product(self, n_max, outcomes):
        rng = np.random.default_rng(n_max + outcomes)
        kernel = rng.uniform(size=(n_max + 1, outcomes))
        size = n_max + 1
        n = np.arange(size)
        rest = n[:, None] - n[None, :]
        padded = np.vstack((kernel, np.zeros((1, outcomes))))[np.where(rest >= 0, rest, size)]
        expected = kernel[None, :, :, None] * padded[:, :, None, :]
        pair = fock._both_modes(kernel)
        assert pair.flags.c_contiguous
        assert np.array_equal(pair, expected.reshape(size, size, outcomes * outcomes))


class TestPipeline:
    @pytest.mark.parametrize("theta2", [0.0, -1.3])
    @pytest.mark.parametrize("n_max", [0, 6, 40])
    def test_oracle_is_the_five_stages(self, n_max, theta2):
        g, tau1, tau2, dark, theta1 = 0.55, 0.7, 0.2, 1e-3, 0.8
        staged = click_probabilities(
            apply_loss(
                photon_number_distribution(
                    rotate_modes(build_state(g, n_max), theta1, theta2)
                ),
                tau1,
                tau2,
            ),
            dark,
        )
        oracle = oracle_probabilities(
            SourceParams(g),
            ChannelParams(tau1=tau1, tau2=tau2, dark_count=dark),
            MeasurementAngles(theta1, theta2),
            n_max=n_max,
        )
        assert staged.values == oracle.values

    def test_truncation_cache_holds_one_truncation(self):
        # the module's one cache: the Schur bases live in its table
        cached = {name for name, value in vars(fock).items() if hasattr(value, "cache_info")}
        assert cached == {"_truncation"}

        def oracle(n_max):
            oracle_probabilities(
                SourceParams(0.4), ChannelParams(0.6, 0.3), MeasurementAngles(0.3, 0.9), n_max
            )

        for n_max in (3, 17, 9):
            oracle(n_max)
        assert fock._truncation.cache_info().currsize == 1
        misses = fock._truncation.cache_info().misses
        oracle(9)  # the last truncation is the one kept
        assert fock._truncation.cache_info().misses == misses

    def test_truncation_at_n_max_100_holds_under_12_mb(self):
        # 24 bytes per amplitude (the source, the bases and the partner
        # indices) over 348,551 amplitudes, plus the O(n_max^2) tables:
        # 8.6 MB measured. Building it peaks at 8.8 MB, as the flat tables
        # are filled in place, so the peak bound leaves room for one
        # block's temporaries, not for a second copy of the tables.
        fock._truncation.cache_clear()
        tracemalloc.start()
        try:
            table = fock._truncation(101)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.bases) == 101
        assert held <= 12_000_000
        assert peak <= 1.25 * held


#: A literal grid (n_max, g, tau1, tau2, d, theta1, theta2) for the oracle:
#: the truncations 0, 1, 6 and 40, each angle 0 (no turn) or not.
ORACLE_PINNED_GRID = (
    (0, 1, 6, 40),
    (0.0, 0.3, 0.9),
    (1.0, 0.6),
    (1.0, 1e-3),
    (0.0, 1e-3),
    (0.0, 0.7),
    (0.0, -1.3),
)
#: sha256 of the float.hex of every oracle entry over the grid, in grid
#: order, as the oracle gave them with Bob's axis in Fock occupations.
#: Like the oracle-check golden, it holds for the LAPACK, BLAS and libm that
#: numpy links: eigh and matmul set the last bits, and numpy's SIMD loops
#: do not (the powers are taken on Python floats, and np.cos and np.sin
#: match math.cos and math.sin with numpy's AVX-512 loops on or off).
ORACLE_PINNED_DIGEST = "218d647328f8fb36deb29a898f53aa09978edd27524813163b6b881b428ba52f"


def test_oracle_keeps_its_bits():
    values = []
    for n_max, g, tau1, tau2, dark, theta1, theta2 in itertools.product(*ORACLE_PINNED_GRID):
        values.extend(oracle_probabilities(
            SourceParams(g), ChannelParams(tau1, tau2, dark),
            MeasurementAngles(theta1, theta2), n_max,
        ).values)
    text = " ".join(value.hex() for value in values)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_PINNED_DIGEST


class TestLargeTruncation:
    def test_n_max_100_matches_closed_form(self):
        source = SourceParams(0.7)
        channel = ChannelParams(tau1=0.7, tau2=0.01, dark_count=1e-3)
        angles = MeasurementAngles(math.radians(40.1), 0.0)
        brute = oracle_probabilities(source, channel, angles, n_max=100)
        analytic = outcome_probabilities(source, channel, angles)
        deviation = max(abs(a - b) for a, b in zip(analytic.values, brute.values))
        assert deviation <= truncation_error_bound(0.7, 100) + 1e-10


class TestTruncationErrorBound:
    def test_vacuum_source(self):
        assert truncation_error_bound(0.0, 10) == 0.0

    def test_only_vacuum_retained(self):
        for g in (0.2, 0.5, 0.8):
            assert truncation_error_bound(g, 0) == pytest.approx(
                1.0 - (1.0 - g * g) ** 2, abs=1e-15
            )

    def test_reference_value(self):
        # frozen from (n+2) x^(n+1) - (n+1) x^(n+2), x = 0.36, n = 40
        assert truncation_error_bound(0.6, 40) == pytest.approx(
            1.7523047358365385e-17, rel=1e-12
        )

    @pytest.mark.parametrize("g,n_max", [(0.3, 4), (0.6, 9), (0.85, 25)])
    def test_matches_partial_sum(self, g, n_max):
        x = g * g
        partial = (1.0 - x) ** 2 * sum((n + 1) * x**n for n in range(n_max + 1))
        assert truncation_error_bound(g, n_max) == pytest.approx(
            1.0 - partial, abs=1e-14
        )


#: Deep-loss points (g, tau1, tau2, d, theta), where the smallest entries are
#: of order tau2^2 (down to 6.4e-31); the oracle runs at n_max = 40.
PER_ENTRY_POINTS = tuple(
    (g, transmittance_from_db(1.6), transmittance_from_db(loss2_db), dark, theta)
    for g, loss2_db, dark, theta in itertools.product(
        (0.1, 0.3), (0.0, 30.0, 80.0, 120.0), (0.0, 6.25e-7), (0.0, 0.3, math.pi / 4)
    )
)


@functools.cache
def per_entry_tables() -> tuple:
    """Per point of ``PER_ENTRY_POINTS``: the oracle's table and the exact
    table of ``tests/exact.py``."""
    return tuple(
        (
            oracle_probabilities(
                SourceParams(g), ChannelParams(tau1, tau2, dark),
                MeasurementAngles(theta, 0.0), n_max=40,
            ).values,
            outcome_probabilities_exact(g, tau1, tau2, theta, dark),
        )
        for g, tau1, tau2, dark, theta in PER_ENTRY_POINTS
    )


@functools.cache
def turned_oracle_tables() -> tuple:
    """The oracle's table at each point of ``PER_ENTRY_POINTS`` with both
    parties turned 0.9 further, theta1 = theta + 0.9 and theta2 = 0.9: the
    same relative angle, so the same exact table."""
    return tuple(
        oracle_probabilities(
            SourceParams(g), ChannelParams(tau1, tau2, dark),
            MeasurementAngles(theta + 0.9, 0.9), n_max=40,
        ).values
        for g, tau1, tau2, dark, theta in PER_ENTRY_POINTS
    )


def worst_relative(values, references, exact) -> float:
    """Largest |value - reference| / reference over the entries whose exact
    value is nonzero. Where it is 0, both must be within 1e-32 of it: the
    oracle's rotation leaves up to 2.9e-34 there at theta2 = 0 and 3.3e-33
    with both parties turned."""
    worst = 0.0
    for value, reference, exact_value in zip(values, references, exact):
        if exact_value == 0:
            assert abs(value) <= 1e-32 and abs(reference) <= 1e-32
        else:
            reference = Fraction(reference)
            worst = max(worst, abs(float((Fraction(value) - reference) / reference)))
    return worst


class TestPerEntryAgainstOracle:
    """The oracle's thinning kernels and readout weights are nonnegative,
    so it keeps every entry accurate at any loss: a per-entry check of the
    closed forms where an absolute deviation cannot see the small entries."""

    def test_oracle_entries_within_1e_13_of_exact(self):
        # measured worst: 2.6e-15
        worst = max(
            worst_relative(oracle, exact, exact) for oracle, exact in per_entry_tables()
        )
        assert worst <= 1e-13

    def test_turned_oracle_entries_within_1e_13_of_exact(self):
        # Bob's rotation entry by entry (measured worst: 3.7e-15)
        worst = max(
            worst_relative(turned, exact, exact)
            for turned, (_, exact) in zip(turned_oracle_tables(), per_entry_tables())
        )
        assert worst <= 1e-13

    def test_pair_entries_within_1e_12_of_oracle_marginals(self):
        # the pair's four entries against the theta = 0 oracle table's
        # marginals, each a sum over the other pair's four states
        # (measured worst: 9.7e-16)
        worst = max(
            worst_relative(pair_probabilities(g, tau1, tau2, dark), pair_marginals(oracle),
                           pair_marginals(exact))
            for (g, tau1, tau2, dark, theta), (oracle, exact)
            in zip(PER_ENTRY_POINTS, per_entry_tables())
            if theta == 0.0
        )
        assert worst <= 1e-12

    def test_general_table_entries_within_1e_12_of_oracle(self):
        # measured worst: 1.7e-14, at theta = pi/4
        worst = max(
            worst_relative(outcome_probability_array(*point), oracle, exact)
            for point, (oracle, exact) in zip(PER_ENTRY_POINTS, per_entry_tables())
        )
        assert worst <= 1e-12

