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
        assert expected == pytest.approx(0.2476240, abs=1e-6)
        diffs = np.angle(c[1:] * np.conj(c[:-1]))
        np.testing.assert_allclose(diffs, expected, rtol=1e-9)

    def test_completeness_of_tiling_basis(self):
        # Top-hat modes at pitch == width h tile the axis, so the couplings
        # are the projection of the beam onto piecewise-constant functions.
        # For a smooth unit-norm amplitude u that projection loses
        # (h^2/12) * int |u'|^2 dx + O(h^4), and for u ~ exp(-x^2/w^2) with
        # int |u|^2 = 1 one has int |u'|^2 = 1/w^2, so the deficit is
        # 1 - sum |c_j|^2 = h^2 / (12 w^2): 2.083e-4 at h = 5 um, w = 100 um.
        # Both tilings span about +-302 um = +-3.0 w; the beam power outside
        # is erfc(sqrt(2) * 3.0) < 2e-9, negligible against the floor.
        # The overlaps are exact, so the code departs from the floor only by
        # the O(h^4/w^4) term: -2.4e-4 (h = 5) and -3e-5 (h = 2.5) of it.
        # rel=2e-3 holds the deficit 8x above that gap, while a 1 % gap
        # between cells or a missing centre antenna moves it by 1e-2 to
        # 4e-2, far outside.
        beam = BeamSpec(diameter_um=200.0)
        for pitch, n_antennas in ((5.0, 121), (2.5, 241)):
            geo = ApertureGeometry(
                n_antennas=n_antennas,
                pitch_um=pitch,
                antenna_width_um=pitch,
                insertion_loss_db=0.0,
                mode_profile="tophat",
            )
            c = coupling_vector(geo, beam)
            floor = geo.pitch_um**2 / (12 * beam.waist_um**2)
            assert 1.0 - np.sum(np.abs(c.c) ** 2) == pytest.approx(floor, rel=2e-3)

    def test_power_bounded_by_one(self, default_coupling):
        assert np.sum(np.abs(default_coupling.c) ** 2) <= 1.0 + 1e-9

    def test_beam_outside_aperture_warns_and_zeros(self):
        with pytest.warns(UserWarning):
            c = coupling_vector(GEO, BeamSpec(diameter_um=50.0, center_offset_um=5000.0))
        assert np.all(c.c == 0)

    def test_quadrature_resolution_converged(self):
        # Independent reference: a composite trapezoid of the unit-norm beam
        # amplitude over every strip. Its error falls as h^2, so doubling the
        # nodes must cut the distance to the closed form by 4, and the closed
        # form must sit within 1e-8 of the finer reference (the worst case,
        # a narrow beam on the top-hat profile, is 2e-9 off at 2048 nodes).
        def reference(geo, beam, nodes):
            segs = geo.mode_segments(geo.antenna_centers_um)
            x = segs[..., :1] + (segs[..., 1:] - segs[..., :1]) * np.linspace(0.0, 1.0, nodes)
            w = beam.waist_um
            u = (2 / np.pi) ** 0.25 / np.sqrt(w) * np.exp(-((x - beam.center_offset_um) ** 2) / w**2)
            width = np.sum(segs[..., 1] - segs[..., 0], axis=-1)
            overlap = np.sum(np.diff(x, axis=-1) * (u[..., 1:] + u[..., :-1]) / 2, axis=(-2, -1)) / np.sqrt(width)
            theta = beam.incidence_angle_deg
            amp = np.sqrt(element_pattern(geo, theta)) * 10 ** (-geo.insertion_loss_db / 20)
            tilt = np.exp(1j * geo.wavenumber * geo.antenna_centers_um * np.sin(np.deg2rad(theta)))
            return amp * overlap * tilt

        narrow = BeamSpec(diameter_um=80.0, center_offset_um=100.0, incidence_angle_deg=1.0)
        for profile in ("comb", "tophat"):
            geo = ApertureGeometry(mode_profile=profile)
            for beam in (BEAM, narrow):
                c = coupling_vector(geo, beam).c
                err_coarse = np.max(np.abs(c - reference(geo, beam, 1024)))
                err_fine = np.max(np.abs(c - reference(geo, beam, 2048)))
                assert err_fine < 1e-8
                assert err_coarse / err_fine == pytest.approx(4.0, rel=0.01)

    @pytest.mark.parametrize("geometry, beam, expected, rtol", [
        # (edge - offset) / w overflowed to +-inf, where erf is exactly +-1: the whole beam lands on the strip
        pytest.param(ApertureGeometry(n_antennas=1, pitch_um=1e300, antenna_width_um=1e300, mode_profile="tophat"),
                     BeamSpec(diameter_um=1e-10), [(np.pi * 5e-11**2 / 8) ** 0.25 * 2 / 1e150 * 10 ** (-3.78 / 20)],
                     1e-12, id="erf_argument_overflows"),
        # at a pitch of 1e12 um the strip edges of antenna 20, rounded to 2^-10 um, stay apart: the beam couples
        # as to a lone antenna, to within that rounding, and not at all to the others
        pytest.param(ApertureGeometry(pitch_um=1e12), BeamSpec(center_offset_um=4.5e12),
                     np.eye(32)[20] * coupling_vector(ApertureGeometry(n_antennas=1), BEAM).c[0], 2e-3,
                     id="pitch_1e12"),
    ])
    def test_extreme_geometry_couples_quietly(self, geometry, beam, expected, rtol):
        # filterwarnings = error turns any overflow or 0/0 in coupling_vector into a failure
        np.testing.assert_allclose(coupling_vector(geometry, beam).c, expected, rtol=rtol, atol=0)

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

    def test_dark_combination_is_an_infinite_loss(self):
        # -10 log10(0) is inf without NumPy's divide-by-zero warning, which Tier-1 would turn into an error
        dark = CouplingVector(c=np.zeros(32))
        assert geometric_loss(dark, ChannelSettings(gains=np.ones(32), phases=np.zeros(32)), GEO) == np.inf


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

    @pytest.mark.parametrize("fwhm", [1e-300, 5e-324])
    def test_tiny_width_is_a_quiet_step(self, fwhm):
        # (theta / fwhm)^2 overflows off axis, which warned; the pattern is exactly 0 there and 1 on axis
        geo = ApertureGeometry(element_pattern_fwhm_deg=fwhm)
        assert element_pattern(geo, 1.0) == 0.0
        np.testing.assert_array_equal(element_pattern(geo, np.array([-1.0, 0.0, 1.0])), [0.0, 1.0, 0.0])


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
