import numpy as np
import pytest

from qpasim.aperture import (
    ApertureGeometry,
    BeamSpec,
    ChannelSettings,
    CouplingVector,
    coupling_vector,
    deembed_insertion_loss,
    element_pattern,
    geometric_efficiency,
    geometric_loss,
    matched_settings,
)

GEO = ApertureGeometry()
BEAM = BeamSpec()


@pytest.fixture(scope="module")
def default_coupling():
    return coupling_vector(GEO, BEAM)


class TestCouplingVector:
    def test_mirror_symmetry_and_common_phase(self, default_coupling):
        c = default_coupling.c
        np.testing.assert_allclose(np.abs(c), np.abs(c[::-1]), rtol=1e-12)
        assert np.max(np.abs(np.angle(c))) < 1e-12

    def test_phase_tilt_between_adjacent_antennas(self):
        theta = 0.2
        c = coupling_vector(GEO, BeamSpec(incidence_angle_deg=theta)).c
        # oracle: 2 pi (pitch / lambda) sin(theta)
        expected = 2 * np.pi * (17.5 / 1.55) * np.sin(np.deg2rad(theta))
        assert expected == pytest.approx(0.2476182, abs=1e-6)
        diffs = np.angle(c[1:] * np.conj(c[:-1]))
        np.testing.assert_allclose(diffs, expected, rtol=1e-9)

    def test_completeness_of_tiling_basis(self):
        # top-hat modes at pitch == width tile the axis: couplings capture
        # the beam up to the piecewise-constant approximation error
        geo = ApertureGeometry(
            n_antennas=121,
            pitch_um=5.0,
            antenna_width_um=5.0,
            insertion_loss_db=0.0,
            mode_profile="tophat",
        )
        c = coupling_vector(geo, BeamSpec(diameter_um=200.0))
        assert c.total_power() == pytest.approx(1.0, abs=1e-4)

    def test_power_bounded_by_one(self, default_coupling):
        assert default_coupling.total_power() <= 1.0 + 1e-9

    def test_beam_outside_aperture_warns_and_zeros(self):
        with pytest.warns(UserWarning):
            c = coupling_vector(GEO, BeamSpec(diameter_um=50.0, center_offset_um=5000.0))
        assert np.all(c.c == 0)

    def test_quadrature_resolution_converged(self):
        # doubling the quadrature resolution must not move the result
        c1 = coupling_vector(GEO, BEAM, nodes_per_segment=64).c
        c2 = coupling_vector(GEO, BEAM, nodes_per_segment=128).c
        assert np.max(np.abs(c1 - c2)) < 1e-6

    def test_superunity_coupling_rejected(self):
        with pytest.raises(ValueError):
            CouplingVector(c=np.full(4, 0.6 + 0j))


class TestGeometricLoss:
    def test_single_channel(self, default_coupling):
        gains = np.zeros(32)
        gains[15] = 1.0
        settings = ChannelSettings(gains=gains, phases=np.zeros(32))
        eta = geometric_efficiency(default_coupling, settings, GEO)
        cp = deembed_insertion_loss(default_coupling, GEO)
        assert eta == pytest.approx(np.abs(cp[15]) ** 2, rel=1e-12)

    def test_uniform_32_channels_near_reported_simulation(self, default_coupling):
        loss = geometric_loss(default_coupling, ChannelSettings(gains=np.ones(32), phases=np.zeros(32)), GEO)
        assert loss == pytest.approx(4.50, abs=0.6)

    def test_uniform_8_channels_near_reported_simulation(self, default_coupling):
        gains = np.zeros(32)
        gains[12:20] = 1.0
        loss = geometric_loss(default_coupling, ChannelSettings(gains=gains, phases=np.zeros(32)), GEO)
        assert loss == pytest.approx(2.03, abs=0.4)

    def test_amplitude_weighted_near_reported_simulation(self, default_coupling):
        settings = matched_settings(default_coupling, GEO, amplitude_weights=True)
        loss = geometric_loss(default_coupling, settings, GEO)
        assert loss == pytest.approx(1.35, abs=0.4)

    def test_matched_weights_equal_total_coupled_power(self, default_coupling):
        settings = matched_settings(default_coupling, GEO, amplitude_weights=True)
        eta = geometric_efficiency(default_coupling, settings, GEO)
        cp = deembed_insertion_loss(default_coupling, GEO)
        assert abs(eta - np.sum(np.abs(cp) ** 2)) < 1e-10

    def test_matched_beats_1000_random_settings(self, default_coupling):
        rng = np.random.default_rng(42)
        best = geometric_efficiency(
            default_coupling, matched_settings(default_coupling, GEO, amplitude_weights=True), GEO
        )
        for _ in range(1000):
            settings = ChannelSettings(
                gains=rng.uniform(0, 1, 32), phases=rng.uniform(0, 2 * np.pi, 32)
            )
            if not np.any(settings.gains > 0):
                continue
            assert geometric_efficiency(default_coupling, settings, GEO) <= best + 1e-12

    def test_global_phase_invariance(self, default_coupling):
        settings = matched_settings(default_coupling, GEO, amplitude_weights=True)
        shifted = ChannelSettings(gains=settings.gains, phases=settings.phases + 1.234)
        a = geometric_loss(default_coupling, settings, GEO)
        b = geometric_loss(default_coupling, shifted, GEO)
        assert a == pytest.approx(b, abs=1e-12)

    def test_all_zero_gains_rejected(self, default_coupling):
        with pytest.raises(ValueError):
            geometric_loss(default_coupling, ChannelSettings(gains=np.zeros(32), phases=np.zeros(32)), GEO)


class TestElementPattern:
    def test_normal_incidence(self):
        assert element_pattern(GEO, 0.0) == pytest.approx(1.0)

    def test_half_power_at_half_fwhm(self):
        assert element_pattern(GEO, GEO.element_pattern_fwhm_deg / 2) == pytest.approx(0.5, rel=1e-12)
        assert element_pattern(GEO, -GEO.element_pattern_fwhm_deg / 2) == pytest.approx(0.5, rel=1e-12)

    def test_even_and_decreasing(self):
        thetas = np.linspace(0, 5, 40)
        vals = element_pattern(GEO, thetas)
        assert np.all(np.diff(vals) < 0)
        np.testing.assert_allclose(vals, element_pattern(GEO, -thetas))


class TestGeometryValidation:
    def test_pitch_below_width_rejected(self):
        with pytest.raises(ValueError):
            ApertureGeometry(pitch_um=10.0, antenna_width_um=16.7)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            ApertureGeometry(mode_profile="bessel")

    def test_comb_segments_inside_antenna(self):
        segs = GEO.mode_segments(0.0)
        assert segs.shape == (16, 2)
        assert segs.min() >= -GEO.antenna_width_um / 2 - 1e-12
        assert segs.max() <= GEO.antenna_width_um / 2 + 1e-12
