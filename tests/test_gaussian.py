import copy
import pickle
import re
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qpasim import gaussian
from qpasim.aperture import ChannelSettings
from qpasim.gaussian import (
    GaussianState,
    SqueezedVacuumSpec,
    VACUUM_VARIANCE,
    apply_linear_network,
    apply_loss,
    lossy_squeezed_variances,
    quadrature_variance,
    squeezed_vacuum,
    vacuum,
)
from qpasim.receiver import combine_rf

# the documented rejection threshold: min eig(cov + i Omega/4) < -PSD_TOL max(1, max|cov|)
PSD_TOL = 1e-9


def _rotated(r, phi):
    # a squeezed vacuum whose minimum variance is read at LO phase phi: the source through the phase shifter e^{i phi}
    return apply_linear_network(squeezed_vacuum(SqueezedVacuumSpec(r=r)), [[np.exp(1j * phi)]])


def closed_form_variance(r, eta, theta):
    # the quadrature variance law every propagation result must reproduce
    return (
        eta / 4 * (np.exp(-2 * r) * np.cos(theta) ** 2 + np.exp(2 * r) * np.sin(theta) ** 2)
        + (1 - eta) / 4
    )


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def real_embedding(u):
    # (x1, p1, ..., xn, pn) ordering: each complex entry becomes [[re, -im], [im, re]]
    return np.block([[np.array([[z.real, -z.imag], [z.imag, z.real]]) for z in row] for row in u])


def boundary_covs(rng, n_modes, draws):
    """Symmetric covariances on both sides of the uncertainty boundary.

    Squeezed states (r <= 3) through random unitaries, pure and after a random
    diagonal loss; the same shifted down by k tol I with k in [0, 3]; and
    scaled-down and random PSD matrices that violate the relation.
    """
    dim = 2 * n_modes
    for _ in range(draws):
        r = rng.uniform(0.0, 3.0, n_modes)
        s = real_embedding(random_unitary(n_modes, rng))
        pure = s @ np.diag(np.ravel(np.column_stack([np.exp(-2 * r), np.exp(2 * r)]))) @ s.T / 4
        keep = np.repeat(np.sqrt(rng.uniform(0.0, 1.0, n_modes)), 2)
        lossy = keep[:, None] * pure * keep[None, :] + np.diag(1.0 - keep**2) / 4
        g = rng.standard_normal((dim, dim))
        candidates = [pure, lossy, rng.uniform(0.3, 0.999) * pure, g @ g.T * rng.uniform(0.01, 0.2) / dim]
        for base in (pure, lossy):
            tol = PSD_TOL * max(1.0, np.abs(base).max())
            candidates.append(base - rng.uniform(0.0, 3.0) * tol * np.eye(dim))
        for cov in candidates:
            yield 0.5 * (cov + cov.T)


class TestVacuum:
    def test_single_mode(self):
        state = vacuum(1)
        np.testing.assert_allclose(state.cov, np.diag([0.25, 0.25]))
        np.testing.assert_allclose(state.mean, 0.0)

    def test_three_modes(self):
        state = vacuum(3)
        np.testing.assert_allclose(state.cov, 0.25 * np.eye(6))

    def test_phase_invariance(self):
        state = vacuum(1)
        for theta in np.linspace(0, 2 * np.pi, 17):
            assert quadrature_variance(state, [1.0], theta) == pytest.approx(0.25, abs=1e-15)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum(0)


class TestSqueezedVacuum:
    def test_r_zero_is_vacuum(self):
        state = squeezed_vacuum(SqueezedVacuumSpec(r=0.0))
        np.testing.assert_allclose(state.cov, vacuum(1).cov, atol=1e-15)

    def test_min_variance_at_reported_r(self):
        # e^{-2r}/4 evaluated at r = 1.95
        state = squeezed_vacuum(SqueezedVacuumSpec(r=1.95))
        expected = np.exp(-3.9) / 4
        assert np.linalg.eigvalsh(state.cov).min() == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.0604777e-3, rel=1e-7)

    def test_purity_invariant(self):
        # product of principal variances is 1/16 for any pure squeezed state
        for r in [0.0, 0.3, 1.0, 1.95]:
            state = _rotated(r, 0.4)
            assert np.linalg.det(state.cov) == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_angle_selects_measured_quadrature(self):
        v = quadrature_variance(_rotated(0.8, 0.7), [1.0], 0.7)
        assert v == pytest.approx(np.exp(-1.6) / 4, rel=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezedVacuumSpec(r=-0.1)


class TestApplyLoss:
    def test_eta_one_identity(self):
        state = _rotated(1.2, 0.3)
        out = apply_loss(state, 0, 1.0)
        np.testing.assert_allclose(out.cov, state.cov, atol=1e-15)

    def test_eta_zero_resets_to_vacuum(self):
        state = squeezed_vacuum(SqueezedVacuumSpec(r=1.2))
        out = apply_loss(state, 0, 0.0)
        np.testing.assert_allclose(out.cov, vacuum(1).cov, atol=1e-15)

    def test_half_loss_on_squeezed(self):
        # oracle: 0.5 * e^{-2}/4 + 0.5 * 1/4
        expected = 0.5 * np.exp(-2.0) / 4 + 0.5 * 0.25
        assert expected == pytest.approx(0.1419169104045766, rel=1e-12)
        state = apply_loss(squeezed_vacuum(SqueezedVacuumSpec(r=1.0)), 0, 0.5)
        assert quadrature_variance(state, [1.0], 0.0) == pytest.approx(expected, rel=1e-12)

    def test_loss_composition(self):
        state = _rotated(1.4, 1.0)
        a = apply_loss(apply_loss(state, 0, 0.7), 0, 0.4)
        b = apply_loss(state, 0, 0.7 * 0.4)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-12)

    def test_cross_covariance_scaling(self):
        # beamsplit a squeezed mode, then lose one arm: cross terms scale by sqrt(eta)
        bs = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        two = apply_linear_network(_squeezed_plus_vacuum(1.0), bs)
        lossy = apply_loss(two, 1, 0.36)
        np.testing.assert_allclose(lossy.cov[:2, 2:], 0.6 * two.cov[:2, 2:], atol=1e-14)

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError):
            apply_loss(vacuum(1), 0, 1.2)

    @pytest.mark.parametrize("mode", [1.5, 1.0, "0", True])
    def test_non_integral_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode must be an integer"):
            apply_loss(vacuum(3), mode, 0.5)

    def test_numpy_integer_mode_accepted(self):
        two = apply_linear_network(_squeezed_plus_vacuum(1.0), np.array([[1, 1], [-1, 1]]) / np.sqrt(2))
        assert np.array_equal(apply_loss(two, np.int64(1), 0.5).cov, apply_loss(two, 1, 0.5).cov)

    @pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("n_modes", [1, 2, 32])
    def test_loss_is_the_diagonal_network_bit_for_bit(self, n_modes, eta):
        # squeezed light through a random unitary, displaced, then lost on the first, a middle and the last mode
        rng = np.random.default_rng(40 + n_modes)
        r = rng.uniform(0.3, 1.5, n_modes)
        cov = np.diag(np.ravel(np.column_stack([np.exp(-2 * r), np.exp(2 * r)]))) / 4
        mean = rng.standard_normal(2 * n_modes)
        state = apply_linear_network(GaussianState(mean=mean, cov=cov), random_unitary(n_modes, rng))
        for mode in sorted({0, n_modes // 2, n_modes - 1}):
            t = np.ones(n_modes)
            t[mode] = np.sqrt(eta)
            lossy = apply_loss(state, mode, eta)
            network = apply_linear_network(state, np.diag(t))
            assert np.array_equal(lossy.cov, network.cov)
            assert np.array_equal(lossy.mean, network.mean)

    def test_loss_skips_the_network_machinery(self, monkeypatch):
        # a diagonal S needs neither the passivity SVD nor the real embedding, and changing one mode's rows and
        # columns needs no 2N x 2N identity
        def forbidden(*args, **kwargs):
            raise AssertionError("apply_loss reached the general network path")

        def small_eye(size, *args, **kwargs):
            if size > 2:
                raise AssertionError("apply_loss built a %d x %d identity" % (size, size))
            return eye(size, *args, **kwargs)

        eye = np.eye
        two = apply_linear_network(_squeezed_plus_vacuum(1.0), np.array([[1, 1], [-1, 1]]) / np.sqrt(2))
        c = np.random.default_rng(3).standard_normal(32)
        network = np.zeros((32, 32))
        network[:, 0] = 0.9 * c / np.linalg.norm(c)
        wide = apply_linear_network(GaussianState(mean=np.zeros(64), cov=np.diag(np.tile([1 / 16, 1.0], 32))), network)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(gaussian, "_real_embedding", forbidden)
        monkeypatch.setattr(np, "eye", small_eye)
        apply_loss(two, 1, 0.36)
        for mode in (0, 16, 31):
            apply_loss(wide, mode, 0.5445)

    @pytest.mark.parametrize("eta", [0.0, 0.5445])
    def test_update_keeps_the_bits_of_the_law(self, eta):
        # every mode has x-variance 1e-5, where 1/4 + (1e-5 - 1/4) != 1e-5, and every off-diagonal entry is -0.0,
        # which the law's 0 + c turns into +0.0: a copy that kept the untouched entries would differ from the law
        cov = np.diag(np.tile([1e-5, 7000.0], 32))
        state = GaussianState(mean=np.zeros(64), cov=np.where(cov == 0.0, -0.0, cov))
        assert 0.25 + (1e-5 - 0.25) != 1e-5 and np.signbit(state.cov[0, 1])
        for mode in (0, 16, 31):
            out = apply_loss(state, mode, eta)
            mean, law = loss_by_hand(state, mode, eta)
            assert out.cov.tobytes() == law.tobytes() and out.mean.tobytes() == mean.tobytes()
            untouched = 2 * (mode + 1) % 64
            assert out.cov[untouched, untouched] != 1e-5 and not np.signbit(out.cov).any()


def _squeezed_plus_vacuum(r):
    cov = 0.25 * np.eye(4)
    cov[0, 0] = np.exp(-2 * r) / 4
    cov[1, 1] = np.exp(2 * r) / 4
    return GaussianState(mean=np.zeros(4), cov=cov)


class TestLinearNetwork:
    def test_identity(self):
        state = _squeezed_plus_vacuum(0.9)
        out = apply_linear_network(state, np.eye(2))
        np.testing.assert_allclose(out.cov, state.cov, atol=1e-14)

    def test_balanced_beamsplitter_against_covariance_oracle(self):
        r = 0.8
        # independent oracle: explicit real symplectic of a real 50:50 splitter
        s = np.array(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [-1, 0, 1, 0],
                [0, -1, 0, 1],
            ]
        ) / np.sqrt(2)
        cov_in = _squeezed_plus_vacuum(r).cov
        cov_oracle = s @ cov_in @ s.T

        bs = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        out = apply_linear_network(_squeezed_plus_vacuum(r), bs)
        np.testing.assert_allclose(out.cov, cov_oracle, atol=1e-14)

        expected = (np.exp(-2 * r) / 4 + 0.25) / 2
        for mode in range(2):
            w = np.zeros(2, dtype=complex)
            w[mode] = 1.0
            assert quadrature_variance(out, w, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_unitary_round_trip(self):
        rng = np.random.default_rng(11)
        state = apply_linear_network(_squeezed_plus_vacuum(1.1), random_unitary(2, rng))
        for _ in range(20):
            u = random_unitary(2, rng)
            back = apply_linear_network(apply_linear_network(state, u), u.conj().T)
            np.testing.assert_allclose(back.cov, state.cov, atol=1e-10)

    def test_unitary_preserves_purity(self):
        rng = np.random.default_rng(5)
        state = _squeezed_plus_vacuum(1.3)
        for _ in range(10):
            out = apply_linear_network(state, random_unitary(2, rng))
            assert np.linalg.det(out.cov) * 4 ** (2 * 2) == pytest.approx(1.0, rel=1e-9)

    def test_subunitary_row_admixes_vacuum(self):
        # a single row sqrt(eta) must act exactly like a loss channel
        eta = 0.37
        state = squeezed_vacuum(SqueezedVacuumSpec(r=1.0))
        via_network = apply_linear_network(state, np.array([[np.sqrt(eta)]]))
        via_loss = apply_loss(state, 0, eta)
        np.testing.assert_allclose(via_network.cov, via_loss.cov, atol=1e-14)

    def test_rectangular_reduces_modes(self):
        halves = np.zeros((2, 8), dtype=complex)
        halves[0, :4] = 0.5
        halves[1, 4:] = 0.5
        out = apply_linear_network(vacuum(8), halves)
        assert out.n_modes == 2
        np.testing.assert_allclose(out.cov, 0.25 * np.eye(4), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_linear_network(vacuum(2), np.eye(3))

    def test_superunitary_rejected(self):
        with pytest.raises(ValueError):
            apply_linear_network(vacuum(2), np.full((2, 2), 0.9, dtype=complex))

    @pytest.mark.parametrize("gain_sq, ok", [(1 + 0.5e-9, True), (1 + 2e-9, False)])
    def test_passivity_tolerance(self, gain_sq, ok):
        # the largest singular value may exceed 1 by rounding, never by 1e-9 in power
        t = np.sqrt(gain_sq) * np.eye(2)
        if ok:
            apply_linear_network(vacuum(2), t)
        else:
            with pytest.raises(ValueError):
                apply_linear_network(vacuum(2), t)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 8, 32, 33])
    def test_column_on_the_source_equals_the_padded_network(self, n_modes):
        # the n x 1 column on a 1-mode state, against the n x n network that is zero outside its first column on
        # the state padded with n - 1 vacuum modes: the padding meets only zeros of cov - I/4 and of the mean
        rng = np.random.default_rng(40 + n_modes)
        for _ in range(20):
            squeezed = _rotated(rng.uniform(0.0, 3.0), rng.uniform(0.0, 2 * np.pi))
            source = GaussianState(mean=rng.standard_normal(2), cov=squeezed.cov)
            c = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
            c *= rng.uniform(0.0, 1.0) / np.linalg.norm(c)
            cov = 0.25 * np.eye(2 * n_modes)
            cov[:2, :2] = source.cov
            network = np.zeros((n_modes, n_modes), dtype=complex)
            network[:, 0] = c
            padded = apply_linear_network(GaussianState(mean=np.pad(source.mean, (0, 2 * n_modes - 2)), cov=cov),
                                          network)
            column = apply_linear_network(source, c[:, np.newaxis])
            # each entry sums the same two nonzero products, in an order that the BLAS kernel may choose
            for got, want in ((column.cov, padded.cov), (column.mean, padded.mean)):
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15 * np.abs(want).max())

    def test_losses_on_every_mode_are_one_diagonal_network(self):
        # the oracle chain: a squeezed source spread over 32 modes by its coupling column, then the same loss on
        # each mode
        rng = np.random.default_rng(3)
        c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state = apply_linear_network(_rotated(1.0, 0.3), (0.9 * c / np.linalg.norm(c))[:, np.newaxis])
        kappa = 0.5445
        one_by_one = state
        for j in range(32):
            one_by_one = apply_loss(one_by_one, j, kappa)
        at_once = apply_linear_network(state, np.sqrt(kappa) * np.eye(32))
        assert np.max(np.abs(one_by_one.cov - at_once.cov)) <= 1e-15


def loss_by_hand(state, mode, eta):
    """The mean and covariance apply_loss computes, with no check: the reference for its verdict."""
    s = np.ones(2 * state.n_modes)
    s[2 * mode : 2 * mode + 2] = np.sqrt(eta)
    eye = 0.25 * np.eye(2 * state.n_modes)
    return s * state.mean, eye + (s[:, None] * (state.cov - eye)) * s


def network_by_hand(state, t):
    """The mean and covariance apply_linear_network computes, with no check."""
    s = real_embedding(t)
    excess = state.cov - 0.25 * np.eye(2 * state.n_modes)
    return s @ state.mean, 0.25 * np.eye(s.shape[0]) + s @ excess @ s.T


def symmetric(state):
    """``state``, once its covariance is asserted equal to its transpose: apply_loss vouches for that, unchecked."""
    assert np.array_equal(state.cov, state.cov.T)
    return state


def same_verdict(mapped, mean, cov):
    """``mapped()`` accepts exactly when ``GaussianState(mean, cov)`` does, with the same message or the same bits.

    Returns the verdict and the number of factorizations ``mapped()`` made: 0 when its inherited floor sufficed.
    """
    try:
        direct = GaussianState(mean=mean, cov=cov)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
                mapped()
        return False, cholesky.call_count
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        out = mapped()
    assert np.array_equal(out.cov, direct.cov) and np.array_equal(out.mean, direct.mean)
    return True, cholesky.call_count


def random_contraction(rng, m, n, gain_sq):
    """A random complex m x n matrix of rank min(m, n) whose largest squared singular value is ``gain_sq``."""
    k = min(m, n)
    u = random_unitary(m, rng)[:, :k]
    v = random_unitary(n, rng)[:k]
    sigma = np.sqrt(gain_sq) * np.sort(rng.uniform(0.0, 1.0, k))[::-1]
    sigma[0] = np.sqrt(gain_sq)
    return (u * sigma) @ v


def accepted(covs):
    """The states among ``covs`` that the constructor accepts."""
    for cov in covs:
        try:
            yield GaussianState(mean=np.zeros(len(cov)), cov=cov)
        except ValueError:
            pass


class TestInheritedCertificate:
    # a map's output skips the factorization when the floor it inherits clears its tol; the verdict must not change

    @pytest.mark.parametrize("n_modes, draws", [(1, 30), (2, 15), (32, 2)])
    def test_loss_verdict_equals_construction(self, n_modes, draws):
        rng = np.random.default_rng(700 + n_modes)
        verdicts = []
        for state in accepted(boundary_covs(rng, n_modes, draws)):
            for mode in sorted({0, n_modes // 2, n_modes - 1}):
                for eta in (0.0, 1e-12, 0.5445, 1 - 1e-12, 1.0):
                    law = loss_by_hand(state, mode, eta)
                    verdicts.append(same_verdict(lambda: symmetric(apply_loss(state, mode, eta)), *law))
        # outputs accepted on the inherited floor alone, which construction would have factorized
        assert (True, 0) in verdicts

    @pytest.mark.parametrize("n_modes, draws", [(1, 30), (2, 15), (32, 2)])
    def test_network_verdict_equals_construction(self, n_modes, draws):
        # gains up to the passivity bound, 1 + 1e-9 in power, where vacuum no longer fills the deficit; the tall
        # m = n + 1 adds a mode in vacuum, and is drawn from its own generator, so the others are drawn as before
        rng, tall_rng = np.random.default_rng(800 + n_modes), np.random.default_rng(900 + n_modes)
        verdicts, tall_verdicts = [], []
        for state in accepted(boundary_covs(rng, n_modes, draws)):
            cases = [(m, rng, verdicts) for m in sorted({1, n_modes})] + [(n_modes + 1, tall_rng, tall_verdicts)]
            for m, gen, seen in cases:
                gains_sq = (gen.uniform(0.5, 1.0), 1.0, 1 + 0.5e-9, 1 + 0.9e-9)
                for t in [random_contraction(gen, m, n_modes, g) for g in gains_sq] + [np.zeros((m, n_modes))]:
                    seen.append(same_verdict(lambda: apply_linear_network(state, t), *network_by_hand(state, t)))
        assert {(True, 0), (True, 1)} <= set(verdicts) and {(True, 0), (True, 1)} <= set(tall_verdicts)

    def test_gain_at_the_passivity_bound_wears_the_floor_down(self):
        # a pure state with cov = diag(a, 1/a)/4 loses about 0.9e-9 (1 - a)^2 / (4 (1 + a^2)), 1.2e-10 at a = 1/4,
        # of its smallest eigenvalue per pass through the gain 1 + 0.9e-9: the chain is rejected at the pass that
        # construction rejects, though a floor that ignored the gain would still clear tol = 1e-9 there
        t = [[np.sqrt(1 + 0.9e-9)]]
        state = GaussianState(mean=np.zeros(2), cov=np.diag([1 / 16, 1.0]))
        verdicts = [(True, None)]
        while verdicts[-1][0] and len(verdicts) < 30:
            verdicts.append(same_verdict(lambda: apply_linear_network(state, t), *network_by_hand(state, t)))
            if verdicts[-1][0]:
                state = apply_linear_network(state, t)
        assert not verdicts[-1][0] and (True, 0) in verdicts


# covariances on both sides of the uncertainty boundary, the 32-mode pure and lossy states first
_BOUNDARY = [cov for n_modes, draws in ((32, 1), (2, 4), (1, 8))
             for cov in boundary_covs(np.random.default_rng(600 + n_modes), n_modes, draws)]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=0, max_value=len(_BOUNDARY) - 1),
    st.floats(min_value=1e-300, max_value=1e150),
    # mode 0 exists in every state, and -1 to 32 reach past both ends of every one
    st.one_of(st.just(0), st.integers(min_value=-1, max_value=32)),
    st.one_of(st.floats(), st.floats(min_value=0.0, max_value=1.0)),
)
@example(0, 1.0, 31, float("nan"))
@example(0, 1.0, 31, float("inf"))
@example(0, 1.0, 31, float("-inf"))
@example(0, 1.0, 16, 5e-324)
@example(1, 1e150, 0, 5e-324)
@example(1, 1.0, 31, np.nextafter(1.0, 0.0))
@example(0, 1e150, 0, 1.0)
@example(0, 1.0, 32, 0.5)
@example(0, 1.0, -1, 0.5)
def test_loss_fails_loudly_or_agrees_with_construction(index, scale, mode, eta):
    try:
        state = GaussianState(mean=np.zeros(len(_BOUNDARY[index])), cov=scale * _BOUNDARY[index])
    except ValueError:
        return
    if not 0.0 <= eta <= 1.0:
        with pytest.raises(ValueError, match="eta must lie in"):
            apply_loss(state, mode, eta)
    elif not 0 <= mode < state.n_modes:
        with pytest.raises(ValueError, match="mode index"):
            apply_loss(state, mode, eta)
    else:
        # accepted with the same bits, or rejected with the uncertainty rule's message, as construction would
        same_verdict(lambda: symmetric(apply_loss(state, mode, eta)), *loss_by_hand(state, mode, eta))


class TestQuadratureVariance:
    def test_vacuum_any_weights(self):
        state = vacuum(3)
        w = np.array([0.5, 0.5j, 0.4])
        for theta in [0.0, 0.7, np.pi / 2]:
            assert quadrature_variance(state, w, theta) == pytest.approx(0.25, abs=1e-14)

    def test_antisqueezing_quadrature(self):
        r = 0.761
        state = squeezed_vacuum(SqueezedVacuumSpec(r=r))
        assert quadrature_variance(state, [1.0], np.pi / 2) == pytest.approx(
            np.exp(2 * r) / 4, rel=1e-12
        )

    def test_closed_form_agreement_on_grid(self):
        # covariance propagation vs the closed form, full (r, eta, theta) grid
        for r in np.arange(0, 2.01, 0.25):
            state0 = squeezed_vacuum(SqueezedVacuumSpec(r=r))
            for eta in np.arange(0, 1.01, 0.1):
                state = apply_loss(state0, 0, eta)
                for theta in np.linspace(0, np.pi, 13):
                    got = quadrature_variance(state, [1.0], theta)
                    assert abs(got - closed_form_variance(r, eta, theta)) < 1e-12

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            quadrature_variance(vacuum(2), [0.0, 0.0], 0.0)

    def test_variance_law_along_axes(self):
        v_min, v_max = lossy_squeezed_variances(0.761, 0.021)
        assert v_min / VACUUM_VARIANCE == pytest.approx(0.983583773, rel=1e-8)
        assert v_max / VACUUM_VARIANCE == pytest.approx(1.0 + 0.021 * (np.exp(1.522) - 1), rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 1e-9, 0.3, 1.0, 5.0, 10.0, 20.0, 354.0])
    def test_variance_law_within_4_eps_of_exact(self, r):
        # eta e^{-2r} + 1 - eta summed left to right cancelled to 0.0 at eta = 1, r = 20
        etas = [0.0, 1e-12, 0.021, 0.5, 1 - 1e-12, np.nextafter(1.0, 0.0), 1.0]
        with localcontext() as ctx:
            ctx.prec = 60
            for eta in etas:
                exact_eta = Decimal(eta)
                for got, sign in zip(lossy_squeezed_variances(r, eta), (-1, 1)):
                    exact = (exact_eta * (sign * 2 * Decimal(r)).exp() + (1 - exact_eta)) / 4
                    assert abs(Decimal(float(got)) - exact) <= 4 * Decimal(np.finfo(float).eps) * exact, (eta, sign)

    @pytest.mark.parametrize("r", [0.0, 1e-9, 0.761, 20.0, 354.0])
    def test_squeezed_vacuum_is_the_law_at_unit_efficiency(self, r):
        cov = squeezed_vacuum(SqueezedVacuumSpec(r=r)).cov
        assert np.array_equal(cov, np.diag(lossy_squeezed_variances(r, 1.0)))
        assert np.array_equal(cov, np.diag([np.exp(-2 * r) / 4, np.exp(2 * r) / 4]))


class TestStateValidation:
    def test_asymmetric_cov_rejected(self):
        cov = 0.25 * np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError):
            GaussianState(mean=np.zeros(2), cov=cov)

    def test_unphysical_cov_rejected(self):
        # each is below vacuum noise in both quadratures (det < 1/16)
        for cov in (0.01 * np.eye(2), 0.2 * np.eye(2), np.diag([0.1, 0.2])):
            with pytest.raises(ValueError, match=r"uncertainty relation \(min eig "):
                GaussianState(mean=np.zeros(2), cov=cov)
        # 32 modes, vacuum but for mode k squeezed in x without enough noise in p (det 0.05 < 1/16): its min eig is
        # 0.3 - sqrt(0.2^2 + 1/16) only if the i/4 and -i/4 of mode k's block are in place; the first, middle and
        # last blocks check both ends of the strided writes
        min_eig = re.escape("(min eig %g)" % (0.3 - np.sqrt(0.1025)))
        for k in (0, 16, 31):
            cov = 0.25 * np.eye(64)
            cov[2 * k, 2 * k], cov[2 * k + 1, 2 * k + 1] = 0.1, 0.5
            with pytest.raises(ValueError, match="uncertainty relation " + min_eig):
                GaussianState(mean=np.zeros(64), cov=cov)

    @pytest.mark.parametrize("n_modes, draws", [(1, 60), (2, 40), (4, 30), (8, 20), (32, 10)])
    def test_accepts_exactly_when_min_eig_within_tol(self, n_modes, draws):
        # the decision rule, evaluated here with the full spectrum of cov + i Omega/4
        rng = np.random.default_rng(900 + n_modes)
        verdicts = []
        for cov in boundary_covs(rng, n_modes, draws):
            herm = cov + 0.25j * np.kron(np.eye(n_modes), [[0, 1], [-1, 0]])
            physical = np.linalg.eigvalsh(herm).min() >= -PSD_TOL * max(1.0, np.abs(cov).max())
            if physical:
                GaussianState(mean=np.zeros(2 * n_modes), cov=cov)
            else:
                with pytest.raises(ValueError, match=r"uncertainty relation \(min eig "):
                    GaussianState(mean=np.zeros(2 * n_modes), cov=cov)
            verdicts.append(physical)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_valid_states_skip_the_spectrum(self, monkeypatch):
        # the Cholesky certificate alone must accept every state the package builds, and a map's output inherits it
        def spectrum(*args, **kwargs):
            raise AssertionError("a valid state reached the eigvalsh fallback")

        def counted(a):
            factorized.append(a.shape)
            return cholesky(a)

        # min eig -0.75e-9: below -tol/2, so only the spectrum accepts it, and its floor is -inf
        spectrum_only = GaussianState(mean=np.zeros(2), cov=(0.25 - 0.75e-9) * np.eye(2))
        cholesky, factorized = np.linalg.cholesky, []
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", spectrum)
        vacuum(1)
        vacuum(32)
        _rotated(3.0, 0.4)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        state = apply_linear_network(_rotated(1.95, 0.3), (0.9 * c / np.linalg.norm(c))[:, np.newaxis])
        factorized.clear()
        for j in range(32):
            state = apply_loss(state, j, 0.5445)
        assert factorized == []
        combine_rf(state, ChannelSettings(gains=np.abs(c), phases=-np.angle(c)))
        # min eig -0.375e-9 after the loss: one factorization certifies it
        factorized.clear()
        apply_loss(spectrum_only, 0, 0.5)
        assert factorized == [(2, 2)]

    def test_floor_is_checked_against_the_output_tolerance(self):
        # mode 0 at r = 5 sets tol = 1e-9 e^10 / 4 (5.5e-6), and mode 1 at (1/4 - 2e-6) I clears it; losing mode 0
        # shrinks tol to 1e-9, which mode 1 violates, though the input's floor clears the input's tol
        cov = np.diag([np.exp(-10) / 4, np.exp(10) / 4, 0.25 - 2e-6, 0.25 - 2e-6])
        state = GaussianState(mean=np.zeros(4), cov=cov)
        with pytest.raises(ValueError, match=re.escape("uncertainty relation (min eig -2e-06)")):
            apply_loss(state, 0, 0.0)

    def test_stored_arrays_are_read_only(self):
        # a map trusts the floor proven for its input, so the input's arrays must not change after the proof
        state = squeezed_vacuum(SqueezedVacuumSpec(r=1.0))
        mapped = apply_linear_network(state, [[0.6]])
        copies = [copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
        for out in [state, apply_loss(state, 0, 0.5), mapped] + copies:
            for array in (out.mean, out.cov):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
        for out in copies:
            assert np.array_equal(out.cov, state.cov) and np.array_equal(out.mean, state.mean)

    def test_rounding_asymmetry_scales_with_cov(self):
        # a unitary on r = 6 squeezing leaves an asymmetry of ~1e-12 max|cov| from rounding alone
        rng = np.random.default_rng(2024)
        state = _squeezed_plus_vacuum(6.0)
        for _ in range(50):
            apply_linear_network(state, random_unitary(2, rng))
        scale = np.abs(state.cov).max()
        cov = state.cov.copy()
        cov[0, 1] += 1e-6 * scale
        with pytest.raises(ValueError, match="not symmetric within %s" % re.escape("%g" % (1e-12 * scale))):
            GaussianState(mean=np.zeros(4), cov=cov)
