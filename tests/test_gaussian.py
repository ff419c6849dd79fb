import numpy as np
import pytest

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
    wigner_density,
    wigner_halfmax_axes,
)


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
            state = squeezed_vacuum(SqueezedVacuumSpec(r=r, theta=0.4))
            assert np.linalg.det(state.cov) == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_angle_selects_measured_quadrature(self):
        spec = SqueezedVacuumSpec(r=0.8, theta=0.7)
        state = squeezed_vacuum(spec)
        v = quadrature_variance(state, [1.0], spec.theta)
        assert v == pytest.approx(np.exp(-1.6) / 4, rel=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezedVacuumSpec(r=-0.1)


class TestApplyLoss:
    def test_eta_one_identity(self):
        state = squeezed_vacuum(SqueezedVacuumSpec(r=1.2, theta=0.3))
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
        state = squeezed_vacuum(SqueezedVacuumSpec(r=1.4, theta=1.0))
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
        cov[:2, :2] = squeezed_vacuum(SqueezedVacuumSpec(r=1.0, theta=0.3)).cov
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


class TestWigner:
    def test_peak_value_for_vacuum(self):
        assert wigner_density(0.0, 0.0, 0.5, 0.0, 0.0) == pytest.approx(2 / np.pi, rel=1e-12)

    def test_normalization(self):
        x = np.linspace(-10, 10, 1601)
        xx, pp = np.meshgrid(x, x)
        w = wigner_density(1.2, 0.6, 0.8, xx, pp)
        total = np.trapezoid(np.trapezoid(w, x, axis=1), x)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_halfmax_axis_ratio(self):
        r = 1.95
        minor, major, theta = wigner_halfmax_axes(r, 0.3, 1.0)
        assert (major / minor) ** 2 == pytest.approx(np.exp(4 * r), rel=1e-12)
        assert major / minor == pytest.approx(np.exp(2 * r), rel=1e-12)
        assert theta == 0.3

    def test_contour_matches_density(self):
        # points on the half-max ellipse evaluate to half the peak density
        r, theta, eta = 0.9, 0.4, 0.6
        minor, major, _ = wigner_halfmax_axes(r, theta, eta)
        peak = wigner_density(r, theta, eta, 0.0, 0.0)
        c, s = np.cos(theta), np.sin(theta)
        for t in np.linspace(0, 2 * np.pi, 9):
            u, v = minor * np.cos(t), major * np.sin(t)
            x, p = c * u - s * v, s * u + c * v
            assert wigner_density(r, theta, eta, x, p) == pytest.approx(peak / 2, rel=1e-10)

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
            with pytest.raises(ValueError):
                GaussianState(mean=np.zeros(2), cov=cov)

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
