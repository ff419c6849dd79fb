import re

import numpy as np
import pytest

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
    symplectic_form,
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
        # a diagonal S needs neither the passivity SVD nor the real embedding
        def forbidden(*args, **kwargs):
            raise AssertionError("apply_loss reached the general network path")

        state = apply_linear_network(_squeezed_plus_vacuum(1.0), np.array([[1, 1], [-1, 1]]) / np.sqrt(2))
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(gaussian, "_real_embedding", forbidden)
        apply_loss(state, 1, 0.36)


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

    def test_losses_on_every_mode_are_one_diagonal_network(self):
        # the oracle chain: a squeezed source spread over 32 modes, then the same loss on each mode
        rng = np.random.default_rng(3)
        c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        network = np.zeros((32, 32), dtype=complex)
        network[:, 0] = 0.9 * c / np.linalg.norm(c)
        cov = 0.25 * np.eye(64)
        cov[:2, :2] = _rotated(1.0, 0.3).cov
        state = apply_linear_network(GaussianState(mean=np.zeros(64), cov=cov), network)
        kappa = 0.5445
        one_by_one = state
        for j in range(32):
            one_by_one = apply_loss(one_by_one, j, kappa)
        at_once = apply_linear_network(state, np.sqrt(kappa) * np.eye(32))
        assert np.max(np.abs(one_by_one.cov - at_once.cov)) <= 1e-15


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

    @pytest.mark.parametrize("n_modes, draws", [(1, 60), (2, 40), (4, 30), (8, 20), (32, 10)])
    def test_accepts_exactly_when_min_eig_within_tol(self, n_modes, draws):
        # the decision rule, evaluated here with the full spectrum of cov + i Omega/4
        rng = np.random.default_rng(900 + n_modes)
        verdicts = []
        for cov in boundary_covs(rng, n_modes, draws):
            herm = cov + 0.25j * symplectic_form(n_modes)
            physical = np.linalg.eigvalsh(herm).min() >= -PSD_TOL * max(1.0, np.abs(cov).max())
            if physical:
                GaussianState(mean=np.zeros(2 * n_modes), cov=cov)
            else:
                with pytest.raises(ValueError, match=r"uncertainty relation \(min eig "):
                    GaussianState(mean=np.zeros(2 * n_modes), cov=cov)
            verdicts.append(physical)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_valid_states_skip_the_spectrum(self, monkeypatch):
        # the Cholesky certificate alone must accept every state the package builds
        def spectrum(*args, **kwargs):
            raise AssertionError("a valid state reached the eigvalsh fallback")

        monkeypatch.setattr(np.linalg, "eigvalsh", spectrum)
        vacuum(1)
        vacuum(32)
        _rotated(3.0, 0.4)
        rng = np.random.default_rng(3)
        c = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        network = np.zeros((32, 32), dtype=complex)
        network[:, 0] = 0.9 * c / np.linalg.norm(c)
        cov = 0.25 * np.eye(64)
        cov[:2, :2] = _rotated(1.95, 0.3).cov
        state = apply_linear_network(GaussianState(mean=np.zeros(64), cov=cov), network)
        for j in range(32):
            state = apply_loss(state, j, 0.5445)
        combine_rf(state, ChannelSettings(gains=np.abs(c), phases=-np.angle(c)))

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

    def test_symplectic_form_blocks(self):
        omega = symplectic_form(2)
        expected = np.array(
            [
                [0, 1, 0, 0],
                [-1, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, -1, 0],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(omega, expected)
        # every call hands out a fresh, writable array
        omega[0, 1] = 5.0
        np.testing.assert_array_equal(symplectic_form(2), expected)
